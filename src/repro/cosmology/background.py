"""Background (FLRW) cosmology: expansion history and linear growth.

The expansion of the universe enters the N-body equations only through the
dimensionless Hubble rate ``E(a) = H(a)/H0`` and the linear growth factor
``D(a)``; both are provided here for flat and curved wCDM models with a
CPL dark-energy equation of state ``w(a) = w0 + wa (1 - a)``.

The growth factor is obtained by integrating the standard second-order ODE

.. math::

    D'' + \\left(3 + \\frac{d\\ln E}{d\\ln a}\\right) \\frac{D'}{a}
        = \\frac{3}{2} \\frac{\\Omega_m}{a^5 E^2(a)} D,

(primes denote d/da) which reduces to ``D = a`` in Einstein-de Sitter, a
property the test suite checks exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from repro.constants import RHO_CRIT_MSUN_H2_MPC3

__all__ = ["Cosmology", "WMAP7"]


@dataclass(frozen=True)
class Cosmology:
    """A homogeneous FLRW background with CPL dark energy.

    Parameters
    ----------
    omega_m:
        Total matter density parameter (CDM + baryons) today.
    omega_b:
        Baryon density parameter today (only used by the transfer function).
    h:
        Dimensionless Hubble parameter, ``H0 = 100 h`` km/s/Mpc.
    n_s:
        Scalar spectral index of the primordial power spectrum.
    sigma8:
        RMS linear density fluctuation in 8 Mpc/h spheres at z=0; fixes the
        power-spectrum normalization.
    w0, wa:
        CPL dark-energy equation of state ``w(a) = w0 + wa (1-a)``.
    omega_k:
        Curvature density parameter (0 for flat models).
    t_cmb:
        CMB temperature in K (enters the Eisenstein-Hu transfer function).
    """

    omega_m: float = 0.265
    omega_b: float = 0.0448
    h: float = 0.71
    n_s: float = 0.963
    sigma8: float = 0.80
    w0: float = -1.0
    wa: float = 0.0
    omega_k: float = 0.0
    t_cmb: float = 2.726

    def __post_init__(self) -> None:
        if not 0.0 < self.omega_m <= 2.0:
            raise ValueError(f"omega_m out of range: {self.omega_m}")
        if not 0.0 <= self.omega_b <= self.omega_m:
            raise ValueError(
                f"omega_b must lie in [0, omega_m]: got {self.omega_b}"
            )
        if self.h <= 0:
            raise ValueError(f"h must be positive: {self.h}")
        if self.sigma8 <= 0:
            raise ValueError(f"sigma8 must be positive: {self.sigma8}")

    # ------------------------------------------------------------------
    # densities
    # ------------------------------------------------------------------
    @property
    def omega_de(self) -> float:
        """Dark-energy density parameter today (closure relation)."""
        return 1.0 - self.omega_m - self.omega_k

    @property
    def omega_cdm(self) -> float:
        """Cold-dark-matter density parameter today."""
        return self.omega_m - self.omega_b

    def rho_crit0(self) -> float:
        """Critical density today, h^2 Msun / Mpc^3."""
        return RHO_CRIT_MSUN_H2_MPC3

    def rho_mean_matter0(self) -> float:
        """Mean comoving matter density, h^2 Msun / Mpc^3."""
        return self.omega_m * RHO_CRIT_MSUN_H2_MPC3

    # ------------------------------------------------------------------
    # expansion history
    # ------------------------------------------------------------------
    def de_density_evolution(self, a):
        """Dark-energy density relative to today, ``rho_de(a)/rho_de0``.

        For CPL, ``rho_de(a)/rho_de0 = a^{-3(1+w0+wa)} exp(-3 wa (1-a))``.
        """
        a = np.asarray(a, dtype=np.float64)
        return a ** (-3.0 * (1.0 + self.w0 + self.wa)) * np.exp(
            -3.0 * self.wa * (1.0 - a)
        )

    def efunc(self, a):
        """Dimensionless Hubble rate ``E(a) = H(a)/H0``."""
        a = np.asarray(a, dtype=np.float64)
        if np.any(a <= 0):
            raise ValueError("scale factor must be positive")
        e2 = (
            self.omega_m * a**-3
            + self.omega_k * a**-2
            + self.omega_de * self.de_density_evolution(a)
        )
        return np.sqrt(e2)

    def hubble(self, a):
        """H(a) in km/s/Mpc."""
        return 100.0 * self.h * self.efunc(a)

    def dlnE_dlna(self, a):
        """Logarithmic derivative ``d ln E / d ln a`` (analytic)."""
        a = np.asarray(a, dtype=np.float64)
        w_a = self.w0 + self.wa * (1.0 - a)
        e2 = self.efunc(a) ** 2
        de = self.omega_de * self.de_density_evolution(a)
        num = (
            -3.0 * self.omega_m * a**-3
            - 2.0 * self.omega_k * a**-2
            - 3.0 * (1.0 + w_a) * de
        )
        return 0.5 * num / e2

    def omega_m_a(self, a):
        """Matter density parameter at scale factor ``a``."""
        a = np.asarray(a, dtype=np.float64)
        return self.omega_m * a**-3 / self.efunc(a) ** 2

    # ------------------------------------------------------------------
    # linear growth
    # ------------------------------------------------------------------
    def growth_factor(self, a, *, normalized: bool = True):
        """Linear growth factor ``D(a)``.

        Parameters
        ----------
        a:
            Scale factor(s), scalar or array.
        normalized:
            If True (default) return ``D(a)/D(1)`` so that D=1 today;
            otherwise use the matter-era normalization ``D -> a`` as
            ``a -> 0``.

        Notes
        -----
        Solved as an initial-value problem from deep in the matter era
        (``a_start = 1e-4``) with matter-dominated initial conditions
        ``D = a``, ``dD/da = 1``.
        """
        scalar = np.isscalar(a)
        a_arr = np.atleast_1d(np.asarray(a, dtype=np.float64))
        if np.any(a_arr <= 0) or np.any(a_arr > 1.0 + 1e-12):
            raise ValueError("growth factor requested outside (0, 1]")
        d, _ = self._growth_ode(a_arr)
        if normalized:
            d1, _ = self._growth_ode(np.array([1.0]))
            d = d / d1[0]
        return float(d[0]) if scalar else d

    def growth_rate(self, a):
        """Logarithmic growth rate ``f = d ln D / d ln a``.

        Used to set Zel'dovich velocities; approximately
        ``Omega_m(a)^0.55`` for LCDM, which the tests verify.
        """
        scalar = np.isscalar(a)
        a_arr = np.atleast_1d(np.asarray(a, dtype=np.float64))
        d, dprime = self._growth_ode(a_arr)
        f = a_arr * dprime / d
        return float(f[0]) if scalar else f

    def _growth_ode(self, a_eval: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integrate the growth ODE; returns (D, dD/da) at ``a_eval``."""
        a_start = 1.0e-4
        order = np.argsort(a_eval)
        a_sorted = a_eval[order]

        def rhs(a, y):
            d, dp = y
            e = float(self.efunc(a))
            dlne = float(self.dlnE_dlna(a))
            ddp = (
                1.5 * self.omega_m / (a**5 * e**2) * d
                - (3.0 + dlne) / a * dp
            )
            return [dp, ddp]

        t_eval = np.clip(a_sorted, a_start, None)
        sol = solve_ivp(
            rhs,
            (a_start, max(float(t_eval[-1]), a_start * (1 + 1e-12))),
            [a_start, 1.0],
            t_eval=t_eval,
            rtol=1e-10,
            atol=1e-12,
            method="RK45",
            dense_output=False,
        )
        if not sol.success:  # pragma: no cover - scipy failure is exceptional
            raise RuntimeError(f"growth ODE integration failed: {sol.message}")
        d = np.empty_like(a_eval)
        dp = np.empty_like(a_eval)
        d[order] = sol.y[0]
        dp[order] = sol.y[1]
        # below a_start the universe is matter dominated: D = a exactly.
        tiny = a_eval < a_start
        d[tiny] = a_eval[tiny]
        dp[tiny] = 1.0
        return d, dp

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def with_(self, **kwargs) -> "Cosmology":
        """Return a copy with selected parameters replaced."""
        return replace(self, **kwargs)

    @staticmethod
    def a_of_z(z):
        """Scale factor for redshift(s) z."""
        z = np.asarray(z, dtype=np.float64)
        return 1.0 / (1.0 + z)

    @staticmethod
    def z_of_a(a):
        """Redshift for scale factor(s) a."""
        a = np.asarray(a, dtype=np.float64)
        return 1.0 / a - 1.0


#: WMAP7-like parameters, matching the era of the paper's science runs.
WMAP7 = Cosmology()
