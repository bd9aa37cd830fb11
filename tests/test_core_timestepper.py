"""Tests for the SKS sub-cycled symplectic stepper."""

import numpy as np
import pytest

from repro.core.particles import Particles
from repro.core.timestepper import (
    SubcycledStepper,
    drift_coefficient,
    kick_coefficient,
)
from repro.cosmology.background import WMAP7, Cosmology

EDS = Cosmology(omega_m=1.0, omega_b=0.05)


class TestCoefficients:
    def test_drift_eds_closed_form(self):
        # EdS: E = a^{-3/2}; int da a^{-3} a^{3/2} = int a^{-3/2} da
        a0, a1 = 0.25, 1.0
        expected = -2.0 * (a1**-0.5 - a0**-0.5)
        assert drift_coefficient(EDS, a0, a1) == pytest.approx(
            expected, rel=1e-8
        )

    def test_kick_eds_closed_form(self):
        # int da a^{-2} a^{3/2} = int a^{-1/2} da = 2(sqrt(a1)-sqrt(a0))
        a0, a1 = 0.25, 1.0
        expected = 2.0 * (np.sqrt(a1) - np.sqrt(a0))
        assert kick_coefficient(EDS, a0, a1) == pytest.approx(
            expected, rel=1e-8
        )

    def test_zero_interval(self):
        assert drift_coefficient(WMAP7, 0.5, 0.5) == 0.0
        assert kick_coefficient(WMAP7, 0.5, 0.5) == 0.0

    def test_additivity(self):
        whole = drift_coefficient(WMAP7, 0.2, 0.8)
        split = drift_coefficient(WMAP7, 0.2, 0.5) + drift_coefficient(
            WMAP7, 0.5, 0.8
        )
        assert whole == pytest.approx(split, rel=1e-9)

    def test_positive_for_forward_interval(self):
        assert drift_coefficient(WMAP7, 0.1, 0.9) > 0
        assert kick_coefficient(WMAP7, 0.1, 0.9) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            drift_coefficient(WMAP7, 0.0, 0.5)
        with pytest.raises(ValueError):
            kick_coefficient(WMAP7, -0.1, 0.5)

    @pytest.mark.parametrize("cosmology", [
        WMAP7, WMAP7.with_(omega_k=0.05), WMAP7.with_(w0=-0.9, wa=0.2),
    ], ids=["wmap7", "open", "cpl"])
    @pytest.mark.parametrize("a0, a1", [
        (1 / 26, 1.0),
        (1 / 26, 1 / 26 + 1e-4),
        (1 / 26, 0.1),
        (0.3, 0.7),
        (0.9999, 1.0),
    ], ids=["z25-today", "z25-sliver", "z25-z9", "mid", "today-sliver"])
    def test_weights_match_adaptive_quadrature(self, cosmology, a0, a1):
        """The Gauss-Legendre weights agree with a tight adaptive
        reference to 1e-13, from the paper's z = 25 start to today and
        on a sliver of width 1e-4."""
        from scipy.integrate import quad

        for coeff, power in ((drift_coefficient, 3), (kick_coefficient, 2)):
            ref, _ = quad(
                lambda a: 1.0 / (a**power * float(cosmology.efunc(a))),
                a0, a1, epsabs=0.0, epsrel=2e-14, limit=200,
            )
            assert coeff(cosmology, a0, a1) == pytest.approx(ref, rel=1e-13)


def free_particles(n=8, box=100.0):
    p = Particles.uniform_random(n, box, seed=3)
    p.momenta[:] = np.random.default_rng(4).standard_normal((n, 3))
    return p


class TestStepperMaps:
    def test_stream_is_straight_line(self):
        p = free_particles()
        ref = p.positions.copy()
        st = SubcycledStepper(WMAP7, lambda x: np.zeros_like(x), None)
        st.stream(p, 0.5, 0.6)
        d = drift_coefficient(WMAP7, 0.5, 0.6)
        expected = np.mod(ref + p.momenta * d, 100.0)
        assert np.allclose(p.positions, expected)

    def test_kick_updates_momenta_only(self):
        p = free_particles()
        ref_pos = p.positions.copy()
        acc = np.full((8, 3), 2.0)
        st = SubcycledStepper(WMAP7, lambda x: acc, None)
        st.kick_long(p, 0.5, 0.6)
        assert np.array_equal(p.positions, ref_pos)
        k = kick_coefficient(WMAP7, 0.5, 0.6)
        assert np.allclose(p.momenta - 2.0 * k, free_particles().momenta)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_maps_are_bitwise_the_plain_expressions(self, dtype):
        """Blocked in-place updates round exactly like ``p += acc * k``
        and ``x = mod(x + p * d, box)`` across block boundaries, and the
        force callback's array is not modified."""
        rng = np.random.default_rng(7)
        n = 40_000  # three row blocks, the last one partial
        p = Particles(
            rng.uniform(0.0, 100.0, (n, 3)).astype(dtype),
            rng.normal(0.0, 5.0, (n, 3)).astype(dtype),
            np.ones(n, dtype), np.arange(n), 100.0,
        )
        acc = rng.normal(0.0, 50.0, (n, 3)).astype(dtype)
        acc_before = acc.copy()
        st = SubcycledStepper(WMAP7, lambda x: acc, None)
        mom = p.momenta + acc * kick_coefficient(WMAP7, 0.5, 0.6)
        st.kick_long(p, 0.5, 0.6)
        assert p.momenta.tobytes() == mom.tobytes()
        assert np.array_equal(acc, acc_before)
        pos = np.mod(
            p.positions + p.momenta * drift_coefficient(WMAP7, 0.5, 0.6),
            100.0,
        )
        st.stream(p, 0.5, 0.6)
        assert p.positions.tobytes() == pos.tobytes()

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_stream_pass_is_add_scaled_then_wrap(self, backend, dtype):
        """A backend's one stream pass is the blocked ``_add_scaled`` and
        then ``Particles.wrap``, byte for byte: faces crossed both ways,
        exact 0 and box, -0.0, far outside, and NaN/inf (NaN out, as
        ``np.mod`` gives)."""
        from repro.shortrange.backends import (
            BackendUnavailable,
            get_backend,
        )

        try:
            get_backend(backend)
        except BackendUnavailable:
            pytest.skip("no working C compiler")
        box, t = 100.0, np.dtype(dtype).type
        d = drift_coefficient(WMAP7, 0.5, 0.6)
        below = np.nextafter(t(box), t(0))
        rows = [  # (x, p): where x + p*d lands
            (0.0, 0.0), (box, 0.0), (-0.0, -0.0), (below, 0.0),
            (0.5, -3.0 / d), (box - 0.5, 3.0 / d), (0.0, -1e-30),
            (-2.5 * box, 0.0), (3.75 * box, 0.0), (0.5 * box, box / d),
            (np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0), (1.0, np.inf),
            (1.0, np.nan),
        ]
        rng = np.random.default_rng(11)
        n = 40_000  # three row blocks of the kick's buffer
        x = rng.uniform(0.0, box, (n, 3)).astype(dtype)
        p = rng.normal(0.0, 5.0, (n, 3)).astype(dtype)
        for i, (xi, pi) in enumerate(rows):
            x[i], p[i] = xi, pi
            x[-1 - i, i % 3], p[-1 - i, i % 3] = xi, pi

        def particles():
            return Particles(x.copy(), p.copy(), np.ones(n, dtype),
                             np.arange(n), box)

        ref = particles()
        oracle = SubcycledStepper(WMAP7, lambda q: q, None,
                                  kernel_backend="numpy")
        got = particles()
        st = SubcycledStepper(WMAP7, lambda q: q, None,
                              kernel_backend=backend)
        with np.errstate(invalid="ignore"):
            oracle._add_scaled(ref.positions, ref.momenta, d)
            ref.wrap()
            st.stream(got, 0.5, 0.6)
        assert got.positions.tobytes() == ref.positions.tobytes()
        assert np.isnan(got.positions[10:15]).all()
        inside = np.isfinite(got.positions)
        assert (got.positions[inside] >= 0).all()
        assert (got.positions[inside] < box).all()

    @pytest.mark.parametrize("backend", ["numpy", "c"])
    @pytest.mark.parametrize("dtype, x", [(np.float32, -1e-7),
                                          (np.float64, -1e-15)])
    def test_stream_never_returns_box(self, backend, dtype, x):
        """``np.mod`` rounds a coordinate this close below 0 up to the box
        itself; the stream folds that to +0, inside ``[0, box)``."""
        from repro.shortrange.backends import (
            BackendUnavailable,
            get_backend,
        )

        try:
            b = get_backend(backend)
        except BackendUnavailable:
            pytest.skip("no working C compiler")
        pos = np.full((1, 3), x, dtype=dtype)
        assert np.mod(pos, dtype(64.0)).tolist() == [[64.0] * 3]
        b.stream(pos, np.zeros_like(pos), 0.5, 64.0)
        assert pos.tobytes() == np.zeros_like(pos).tobytes()  # +0.0

    def test_stream_bumps_version_once(self):
        p = free_particles()
        st = SubcycledStepper(WMAP7, lambda x: np.zeros_like(x), None)
        for calls in (1, 2, 3):
            st.stream(p, 0.5, 0.6)
            assert p.version == calls

    def test_free_particle_constant_velocity(self):
        """With zero force the full step is exactly ballistic."""
        p = free_particles()
        ref = p.copy()
        st = SubcycledStepper(
            WMAP7, lambda x: np.zeros_like(x), lambda x: np.zeros_like(x), 5
        )
        st.step(p, 0.5, 0.7)
        d = drift_coefficient(WMAP7, 0.5, 0.7)
        assert np.allclose(
            p.positions, np.mod(ref.positions + ref.momenta * d, 100.0)
        )
        assert np.allclose(p.momenta, ref.momenta)

    def test_subcycle_counters(self):
        p = free_particles()
        st = SubcycledStepper(
            WMAP7, lambda x: np.zeros_like(x), lambda x: np.zeros_like(x), 4
        )
        st.step(p, 0.5, 0.6)
        assert st.n_long_range_evals == 2  # half kick at each end
        assert st.n_short_range_evals == 4
        assert st.n_substeps == 4

    def test_pm_only_mode_skips_short_range(self):
        p = free_particles()
        st = SubcycledStepper(WMAP7, lambda x: np.zeros_like(x), None, 5)
        st.step(p, 0.5, 0.6)
        assert st.n_short_range_evals == 0

    def test_invalid_interval(self):
        st = SubcycledStepper(WMAP7, lambda x: np.zeros_like(x), None)
        with pytest.raises(ValueError):
            st.step(free_particles(), 0.6, 0.5)

    def test_invalid_subcycles(self):
        with pytest.raises(ValueError):
            SubcycledStepper(WMAP7, lambda x: x, None, 0)


def smooth_force(pos):
    """A deterministic force that varies with every coordinate."""
    return np.sin(0.07 * pos) - 0.3 * np.cos(0.11 * pos[:, ::-1])


def moved(p):
    """Write one coordinate in place, then wrap as the contract asks."""
    p.positions[0, 0] += 1.0
    p.wrap()
    return p


def twin(p):
    """Another object on the same arrays at the same ``version``."""
    q = Particles(p.positions, p.momenta, p.masses, p.ids, p.box_size)
    q.version = p.version
    return q


def rebound(p):
    """The same object and ``version`` with a new ``positions`` array."""
    p.positions = p.positions.copy()
    return p


class CountingForce:
    def __init__(self):
        self.calls = 0

    def __call__(self, pos):
        self.calls += 1
        return smooth_force(pos)


class TestLongRangeReuse:
    """The closing half-kick's long-range force opens the next step."""

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 4])
    def test_one_solve_per_step_plus_one(self, n_steps):
        p = free_particles()
        st = SubcycledStepper(WMAP7, smooth_force, smooth_force, 2)
        edges = np.linspace(0.5, 0.7, n_steps + 1)
        for a0, a1 in zip(edges[:-1], edges[1:]):
            st.step(p, a0, a1)
        assert st.n_long_range_evals == n_steps + 1

    def test_bitwise_the_uncached_composition(self):
        p = free_particles()
        q = p.copy()
        st = SubcycledStepper(WMAP7, smooth_force, smooth_force, 2)
        ref = SubcycledStepper(WMAP7, smooth_force, smooth_force, 2)
        edges = np.linspace(0.5, 0.7, 4)
        for a0, a1 in zip(edges[:-1], edges[1:]):
            st.step(p, a0, a1)
            a_mid = 0.5 * (a0 + a1)
            ref.kick_long(q, a0, a_mid)
            sub = np.linspace(a0, a1, 3)
            for b0, b1 in zip(sub[:-1], sub[1:]):
                b_mid = 0.5 * (b0 + b1)
                ref.stream(q, b0, b_mid)
                ref.kick_short(q, b0, b1)
                ref.stream(q, b_mid, b1)
            ref.kick_long(q, a_mid, a1)
        assert st.n_long_range_evals == 4
        assert ref.n_long_range_evals == 6
        assert np.array_equal(p.positions, q.positions)
        assert np.array_equal(p.momenta, q.momenta)

    @pytest.mark.parametrize("between, solves", [
        (lambda p: p, 3),
        (moved, 4),
        (twin, 4),
        (rebound, 4),
        (lambda p: p.astype(np.float64), 4),
    ], ids=["unchanged", "moved+wrap", "twin", "new-array", "astype"])
    def test_changed_particles_solve_afresh(self, between, solves):
        force = CountingForce()
        st = SubcycledStepper(WMAP7, force, None, 2)
        p = free_particles()
        st.step(p, 0.5, 0.6)
        st.step(between(p), 0.6, 0.7)
        assert force.calls == st.n_long_range_evals == solves


class TestSymplecticProperties:
    def _harmonic_stepper(self, nc=1):
        """Central force toward the box center (non-periodic test setup)."""

        def force(pos):
            return -(pos - 50.0)

        return SubcycledStepper(EDS, force, None, n_subcycles=nc)

    def test_second_order_convergence(self):
        """Halving the step cuts the error ~4x (2nd-order scheme)."""

        def run(n_steps):
            p = Particles(
                positions=np.array([[60.0, 50.0, 50.0]]),
                momenta=np.zeros((1, 3)),
                masses=np.ones(1),
                ids=np.arange(1),
                box_size=100.0,
            )
            st = self._harmonic_stepper()
            edges = np.linspace(0.5, 0.9, n_steps + 1)
            for a0, a1 in zip(edges[:-1], edges[1:]):
                st.step(p, a0, a1)
            return p.positions[0, 0]

        ref = run(64)
        e4 = abs(run(4) - ref)
        e8 = abs(run(8) - ref)
        assert e4 / e8 == pytest.approx(4.0, rel=0.35)

    def test_reversibility(self):
        """Applying the inverse maps in reverse order restores the state.

        The kick/stream coefficients are oriented integrals, so swapping
        the interval endpoints negates them; undoing the SKS composition
        is then just replaying its maps backwards."""
        rng = np.random.default_rng(5)
        pos0 = rng.uniform(20, 80, (20, 3))
        mom0 = rng.standard_normal((20, 3))
        p = Particles(
            pos0.copy(), mom0.copy(), np.ones(20), np.arange(20), 100.0
        )

        def force(pos):
            return -(pos - 50.0)

        nc = 3
        a0, a1 = 0.5, 0.6
        st = SubcycledStepper(EDS, force, force, n_subcycles=nc)
        st.step(p, a0, a1)

        a_mid = 0.5 * (a0 + a1)
        edges = np.linspace(a0, a1, nc + 1)
        st.kick_long(p, a1, a_mid)  # reversed endpoints -> inverse kick
        for b0, b1 in zip(edges[:-1][::-1], edges[1:][::-1]):
            b_mid = 0.5 * (b0 + b1)
            st.stream(p, b1, b_mid)
            st.kick_short(p, b1, b0)
            st.stream(p, b_mid, b0)
        st.kick_long(p, a_mid, a0)

        assert np.allclose(p.positions, pos0, atol=1e-9)
        assert np.allclose(p.momenta, mom0, atol=1e-9)
