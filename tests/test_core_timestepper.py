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
