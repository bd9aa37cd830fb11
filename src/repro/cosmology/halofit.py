"""HALOFIT nonlinear matter power spectrum (Takahashi et al. 2012 revision
of Smith et al. 2003).

Role in the reproduction: the paper's science program needs nonlinear
P(k) predictions "of unprecedented accuracy" for survey analysis; HALOFIT
is the community's standard analytic reference for the nonlinear regime,
so it serves here as the *independent comparator* for the nonlinear boost
our simulations measure (Fig. 10's high-k departure from linear theory)
— the same role the Millennium-class comparison runs play in the paper.

Implementation notes
--------------------
The nonlinear spectrum is a sum of a quasi-linear (two-halo) and a
one-halo term, with coefficients driven by three numbers extracted from
the linear spectrum at each redshift:

* ``k_sigma``: the nonlinear scale, where the Gaussian-filtered variance
  ``sigma^2(R) = int dlnk Delta^2_L(k) e^{-k^2 R^2}`` equals 1 at
  ``R = 1/k_sigma``;
* ``n_eff = -3 - dln sigma^2 / dln R`` (effective spectral index);
* ``C = -d^2 ln sigma^2 / dln R^2`` (spectral curvature).

All fitting coefficients are the Takahashi 2012 values, including the
``(1+w)`` dark-energy corrections, so wCDM models work out of the box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cosmology.power_spectrum import LinearPower
from repro.cosmology.quadrature import integrate

__all__ = ["HalofitPower"]


@dataclass(frozen=True)
class _SpectralParams:
    """Per-redshift HALOFIT inputs extracted from the linear spectrum."""

    k_sigma: float
    n_eff: float
    curvature: float


class HalofitPower:
    """Nonlinear P(k, a) from a linear spectrum via HALOFIT.

    Parameters
    ----------
    linear:
        Sigma8-normalized linear power spectrum.

    Examples
    --------
    >>> from repro.cosmology import WMAP7, LinearPower
    >>> nl = HalofitPower(LinearPower(WMAP7))
    >>> float(nl(0.01) / LinearPower(WMAP7)(0.01)) < 1.05
    True
    """

    #: panels of the ``_sigma2`` rule: the Gaussian filter is smooth in
    #: ln k, so 2048 nodes settle it to ~1e-11 for R >= 0.1 Mpc/h
    SIGMA_PANELS = 64

    def __init__(self, linear: LinearPower) -> None:
        self.linear = linear
        self.cosmology = linear.cosmology
        self._params_cache: dict[float, _SpectralParams] = {}

    # ------------------------------------------------------------------
    # spectral parameters
    # ------------------------------------------------------------------
    def _growth2(self, a: float) -> float:
        if a == 1.0:
            return 1.0
        d = float(self.cosmology.growth_factor(a))
        return d * d

    def _sigma2(self, r):
        """Gaussian-filtered variance of the z=0 linear field at radius(es)
        r; the variance at ``a`` is ``_growth2(a)`` times this."""
        r = np.asarray(r, dtype=np.float64)
        # the integrand peaks near k ~ 1/r; integrate generously around it
        hi = np.log(np.maximum(10.0 / r, 10.0))

        def integrand(lnk):
            k = np.exp(lnk)
            return self.linear.dimensionless(k) * np.exp(-(k * r[..., None]) ** 2)

        return integrate(integrand, math.log(1e-5), hi, panels=self.SIGMA_PANELS)

    def spectral_params(self, a: float = 1.0) -> _SpectralParams:
        """(k_sigma, n_eff, C) at scale factor ``a`` (cached)."""
        key = round(float(a), 10)
        if key in self._params_cache:
            return self._params_cache[key]
        if not 0 < a <= 1.0 + 1e-12:
            raise ValueError(f"scale factor out of range: {a}")

        ln_g2 = math.log(self._growth2(a))

        def g(ln_r):
            return ln_g2 + np.log(self._sigma2(np.exp(ln_r)))

        # solve sigma^2(R) = 1 by bisection in ln R (g falls with R)
        lo, hi = math.log(1e-4), math.log(1e2)
        if g(lo) < 0:
            raise ValueError(
                "linear spectrum too cold for HALOFIT at this redshift "
                "(sigma^2 < 1 on all scales)"
            )
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        ln_r = 0.5 * (lo + hi)
        eps = 0.05
        g0, gp, gm = g(ln_r + np.array([0.0, eps, -eps]))
        dln = (gp - gm) / (2 * eps)
        d2ln = (gp - 2 * g0 + gm) / eps**2
        params = _SpectralParams(
            k_sigma=math.exp(-ln_r),
            n_eff=float(-3.0 - dln),
            curvature=float(-d2ln),
        )
        self._params_cache[key] = params
        return params

    # ------------------------------------------------------------------
    # the fit
    # ------------------------------------------------------------------
    def __call__(self, k, a: float = 1.0) -> np.ndarray:
        """Nonlinear P(k, a), (Mpc/h)^3 for k in h/Mpc, shaped like ``k``."""
        shape = np.shape(k)
        k = np.atleast_1d(np.asarray(k, dtype=np.float64))
        if np.any(k < 0):
            raise ValueError("wavenumbers must be non-negative")
        p = self.spectral_params(a)
        n, c = p.n_eff, p.curvature
        cos = self.cosmology
        om_a = float(cos.omega_m_a(a))
        ode_a = 1.0 - om_a  # flat-universe effective DE fraction
        w = cos.w0 + cos.wa * (1.0 - a)

        an = 10 ** (
            1.5222
            + 2.8553 * n
            + 2.3706 * n**2
            + 0.9903 * n**3
            + 0.2250 * n**4
            - 0.6038 * c
            + 0.1749 * ode_a * (1.0 + w)
        )
        bn = 10 ** (
            -0.5642
            + 0.5864 * n
            + 0.5716 * n**2
            - 1.5474 * c
            + 0.2279 * ode_a * (1.0 + w)
        )
        cn = 10 ** (0.3698 + 2.0404 * n + 0.8161 * n**2 + 0.5869 * c)
        gamma = 0.1971 - 0.0843 * n + 0.8460 * c
        alpha = abs(6.0835 + 1.3373 * n - 0.1959 * n**2 - 5.5274 * c)
        beta = (
            2.0379
            - 0.7354 * n
            + 0.3157 * n**2
            + 1.2490 * n**3
            + 0.3980 * n**4
            - 0.1682 * c
        )
        mu = 0.0
        nu = 10 ** (5.2105 + 3.6902 * n)
        f1 = om_a**-0.0307
        f2 = om_a**-0.0585
        f3 = om_a**0.0743

        y = k / p.k_sigma
        d2_lin = self._growth2(a) * self.linear.dimensionless(k, 1.0)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            fy = y / 4.0 + y**2 / 8.0
            two_halo = (
                d2_lin
                * (1.0 + d2_lin) ** beta
                / (1.0 + alpha * d2_lin)
                * np.exp(-np.minimum(fy, 700.0))
            )
            one_halo_prime = (
                an * y ** (3.0 * f1)
                / (1.0 + bn * y**f2 + (cn * f3 * y) ** (3.0 - gamma))
            )
            y_safe = np.where(y > 0, y, 1.0)
            one_halo = np.where(
                y > 0,
                one_halo_prime / (1.0 + mu / y_safe + nu / y_safe**2),
                0.0,
            )
            d2_nl = two_halo + one_halo
            pk = np.where(k > 0, d2_nl * 2.0 * np.pi**2 / np.maximum(k, 1e-30) ** 3, 0.0)
        return pk.reshape(shape)

    def boost(self, k, a: float = 1.0) -> np.ndarray:
        """Nonlinear boost ``P_NL / P_L`` (>= ~1 in the resolved regime)."""
        k = np.atleast_1d(np.asarray(k, dtype=np.float64))
        lin = self.linear(k, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(lin > 0, self(k, a) / np.maximum(lin, 1e-300), 1.0)

    def nonlinear_scale(self, a: float = 1.0) -> float:
        """k_sigma: where fluctuations reach unity (h/Mpc)."""
        return self.spectral_params(a).k_sigma
