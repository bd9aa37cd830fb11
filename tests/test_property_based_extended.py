"""Property-based tests for the extension modules: rendering, emulation
design, Vlasov conservation and RCB blocking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.analysis.render import apply_colormap, log_stretch, read_ppm, write_ppm
from repro.cosmology.emulator import ParameterBox, latin_hypercube
from repro.shortrange.multitree import rcb_blocks
from repro.vlasov import SheetModel


class TestRenderProperties:
    @given(
        data=arrays(
            np.float64,
            (6, 6),
            elements=st.floats(min_value=0, max_value=1e6, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_log_stretch_range(self, data):
        out = log_stretch(data)
        assert np.all(out >= 0)
        assert np.all(out <= 1)

    @given(
        img=arrays(
            np.uint8,
            (4, 5, 3),
            elements=st.integers(min_value=0, max_value=255),
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_ppm_roundtrip(self, img, tmp_path_factory):
        d = tmp_path_factory.mktemp("ppm")
        back = read_ppm(write_ppm(d / "x", img))
        assert np.array_equal(back, img)

    @given(
        x=arrays(
            np.float64,
            (8,),
            elements=st.floats(min_value=0, max_value=1, allow_nan=False),
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_colormap_monotone_brightness(self, x):
        """Grayscale colormap brightness is monotone in the input."""
        order = np.argsort(x)
        rgb = apply_colormap(x, "gray").astype(int)
        brightness = rgb.sum(axis=-1)
        assert np.all(np.diff(brightness[order]) >= 0)


class TestEmulatorDesignProperties:
    @given(
        n=st.integers(min_value=2, max_value=40),
        dim=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_latin_hypercube_stratified(self, n, dim, seed):
        pts = latin_hypercube(n, dim, seed=seed)
        for d in range(dim):
            strata = np.floor(pts[:, d] * n).astype(int)
            assert np.array_equal(np.sort(strata), np.arange(n))

    @given(
        u=arrays(
            np.float64,
            (3,),
            elements=st.floats(min_value=0, max_value=1, allow_nan=False),
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_box_normalize_roundtrip(self, u):
        box = ParameterBox()
        p = box.denormalize(u)
        assert np.allclose(box.normalize(p), u, atol=1e-12)
        assert box.contains(p)


class TestVlasovProperties:
    @given(
        amp=st.floats(min_value=0.0, max_value=0.3, allow_nan=False),
        seed=st.integers(min_value=0, max_value=100),
    )
    @settings(max_examples=10, deadline=None)
    def test_sheet_momentum_conserved(self, amp, seed):
        rng = np.random.default_rng(seed)
        sm = SheetModel(
            rng.uniform(0, 1, 64),
            amp * rng.standard_normal(64),
            1.0,
        )
        p0 = sm.v.sum()
        sm.run(0.5, 0.05)
        assert sm.v.sum() == pytest.approx(p0, abs=1e-9)

    @given(n=st.integers(min_value=8, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_sheet_lattice_equilibrium(self, n):
        sm = SheetModel.cold_perturbation(n, 1.0, 0.0)
        assert np.abs(sm.acceleration()).max() < 1e-10


class TestRCBBlockProperties:
    @given(
        n=st.integers(min_value=1, max_value=300),
        log_blocks=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_blocks_partition_and_balance(self, n, log_blocks, seed):
        rng = np.random.default_rng(seed)
        pos = rng.uniform(0, 1, (n, 3))
        n_blocks = 2**log_blocks
        blocks = rcb_blocks(pos, np.ones(n), n_blocks)
        combined = np.concatenate(blocks) if blocks else np.empty(0)
        assert np.array_equal(np.sort(combined), np.arange(n))
        counts = [b.size for b in blocks]
        if n >= n_blocks:
            assert max(counts) - min(counts) <= max(1, n_blocks // 2)
