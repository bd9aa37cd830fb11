"""Linear matter transfer functions and power spectra.

Implemented from scratch (no external cosmology packages):

* **BBKS** (Bardeen, Bond, Kaiser & Szalay 1986) with the Sugiyama (1995)
  shape-parameter baryon correction — the classic fit, kept as a baseline.
* **Eisenstein & Hu (1998)** zero-baryon ("no-wiggle") form.
* **Eisenstein & Hu (1998)** full fit including baryon acoustic
  oscillations — needed because BAO science (the BOSS predictions cited in
  the paper) depends on the wiggles.

The linear power spectrum is ``P(k, a) = A k^{n_s} T^2(k) D^2(a)`` with the
amplitude ``A`` fixed by ``sigma8``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.cosmology.background import Cosmology
from repro.cosmology.quadrature import integrate

__all__ = ["TransferFunction", "LinearPower"]


class TransferFunction:
    """Linear matter transfer function fits.

    Parameters
    ----------
    cosmology:
        Background model supplying ``omega_m``, ``omega_b``, ``h``, ``t_cmb``.
    kind:
        One of ``"eisenstein_hu"`` (full, with BAO), ``"eisenstein_hu_nw"``
        (no-wiggle) or ``"bbks"``.
    """

    KINDS = ("eisenstein_hu", "eisenstein_hu_nw", "bbks")

    def __init__(self, cosmology: Cosmology, kind: str = "eisenstein_hu"):
        if kind not in self.KINDS:
            raise ValueError(f"unknown transfer function kind: {kind!r}")
        self.cosmology = cosmology
        self.kind = kind
        if kind != "bbks":
            self._setup_eh()

    # ------------------------------------------------------------------
    def __call__(self, k):
        """Evaluate T(k); ``k`` in h/Mpc, T(0) = 1."""
        k = np.asarray(k, dtype=np.float64)
        if np.any(k < 0):
            raise ValueError("wavenumbers must be non-negative")
        if self.kind == "bbks":
            return self._bbks(k)
        if self.kind == "eisenstein_hu_nw":
            return self._eh_nowiggle(k)
        return self._eh_full(k)

    # ------------------------------------------------------------------
    def _bbks(self, k: np.ndarray) -> np.ndarray:
        c = self.cosmology
        # Sugiyama (1995) shape parameter.
        gamma = c.omega_m * c.h * math.exp(
            -c.omega_b * (1.0 + math.sqrt(2.0 * c.h) / c.omega_m)
        )
        q = k / gamma
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (
                np.log(1.0 + 2.34 * q)
                / (2.34 * q)
                * (
                    1.0
                    + 3.89 * q
                    + (16.1 * q) ** 2
                    + (5.46 * q) ** 3
                    + (6.71 * q) ** 4
                )
                ** -0.25
            )
        return np.where(q > 0, t, 1.0)

    # ------------------------------------------------------------------
    # Eisenstein & Hu 1998 (ApJ 496, 605) machinery
    # ------------------------------------------------------------------
    def _setup_eh(self) -> None:
        c = self.cosmology
        h = c.h
        self._om0h2 = c.omega_m * h * h
        self._ob0h2 = c.omega_b * h * h
        self._f_baryon = c.omega_b / c.omega_m if c.omega_m > 0 else 0.0
        theta = c.t_cmb / 2.7
        self._theta2 = theta * theta

        om0h2, ob0h2, th2 = self._om0h2, self._ob0h2, self._theta2

        # redshift of matter-radiation equality and the sound horizon
        self._z_eq = 2.50e4 * om0h2 / th2**2
        self._k_eq = 7.46e-2 * om0h2 / th2  # 1/Mpc (no h)

        b1 = 0.313 * om0h2**-0.419 * (1.0 + 0.607 * om0h2**0.674)
        b2 = 0.238 * om0h2**0.223
        self._z_drag = (
            1291.0
            * om0h2**0.251
            / (1.0 + 0.659 * om0h2**0.828)
            * (1.0 + b1 * ob0h2**b2)
        )

        def r_of_z(z):
            return 31.5 * ob0h2 / th2**2 * (1.0e3 / z)

        self._r_drag = r_of_z(self._z_drag)
        self._r_eq = r_of_z(self._z_eq)
        self._sound_horizon = (
            2.0
            / (3.0 * self._k_eq)
            * math.sqrt(6.0 / self._r_eq)
            * math.log(
                (math.sqrt(1.0 + self._r_drag) + math.sqrt(self._r_drag + self._r_eq))
                / (1.0 + math.sqrt(self._r_eq))
            )
        )
        self._k_silk = (
            1.6 * ob0h2**0.52 * om0h2**0.73 * (1.0 + (10.4 * om0h2) ** -0.95)
        )

        # CDM suppression
        a1 = (46.9 * om0h2) ** 0.670 * (1.0 + (32.1 * om0h2) ** -0.532)
        a2 = (12.0 * om0h2) ** 0.424 * (1.0 + (45.0 * om0h2) ** -0.582)
        fb, fc = self._f_baryon, 1.0 - self._f_baryon
        self._alpha_c = a1**-fb * a2 ** (-(fb**3))
        bb1 = 0.944 / (1.0 + (458.0 * om0h2) ** -0.708)
        bb2 = (0.395 * om0h2) ** -0.0266
        self._beta_c = 1.0 / (1.0 + bb1 * (fc**bb2 - 1.0))

        # baryon envelope
        y = (1.0 + self._z_eq) / (1.0 + self._z_drag)
        gy = y * (
            -6.0 * math.sqrt(1.0 + y)
            + (2.0 + 3.0 * y)
            * math.log((math.sqrt(1.0 + y) + 1.0) / (math.sqrt(1.0 + y) - 1.0))
        )
        self._alpha_b = 2.07 * self._k_eq * self._sound_horizon * (1.0 + self._r_drag) ** -0.75 * gy
        self._beta_b = (
            0.5
            + fb
            + (3.0 - 2.0 * fb) * math.sqrt((17.2 * om0h2) ** 2 + 1.0)
        )
        self._beta_node = 8.41 * om0h2**0.435

        # no-wiggle fit parameters (EH98 section 4.2)
        self._alpha_gamma = (
            1.0
            - 0.328 * math.log(431.0 * om0h2) * fb
            + 0.38 * math.log(22.3 * om0h2) * fb**2
        )
        self._s_approx = (
            44.5
            * math.log(9.83 / om0h2)
            / math.sqrt(1.0 + 10.0 * ob0h2**0.75)
        )

    @staticmethod
    def _t0_tilde(q: np.ndarray, alpha_c: float, beta_c: float) -> np.ndarray:
        e = math.e
        c_coef = 14.2 / alpha_c + 386.0 / (1.0 + 69.9 * q**1.08)
        ln_arg = np.log(e + 1.8 * beta_c * q)
        return ln_arg / (ln_arg + c_coef * q * q)

    def _eh_full(self, k: np.ndarray) -> np.ndarray:
        """Full EH98 transfer function with BAO; k in h/Mpc."""
        c = self.cosmology
        k_mpc = k * c.h  # EH formulas use k in 1/Mpc
        q = k_mpc / (13.41 * self._k_eq)
        s = self._sound_horizon
        ks = k_mpc * s

        # CDM part
        f = 1.0 / (1.0 + (ks / 5.4) ** 4)
        t_c = f * self._t0_tilde(q, 1.0, self._beta_c) + (1.0 - f) * self._t0_tilde(
            q, self._alpha_c, self._beta_c
        )

        # Baryon part
        with np.errstate(divide="ignore", invalid="ignore"):
            s_tilde = s / (1.0 + (self._beta_node / np.maximum(ks, 1e-30)) ** 3) ** (
                1.0 / 3.0
            )
            x = k_mpc * s_tilde
            j0 = np.where(x > 1e-8, np.sin(x) / np.maximum(x, 1e-30), 1.0 - x * x / 6.0)
            t_b = (
                self._t0_tilde(q, 1.0, 1.0) / (1.0 + (ks / 5.2) ** 2)
                + self._alpha_b
                / (1.0 + (self._beta_b / np.maximum(ks, 1e-30)) ** 3)
                * np.exp(-((k_mpc / self._k_silk) ** 1.4))
            ) * j0
        t_b = np.where(ks > 0, t_b, 1.0)

        fb, fc = self._f_baryon, 1.0 - self._f_baryon
        t = fb * t_b + fc * t_c
        return np.where(k_mpc > 0, t, 1.0)

    def _eh_nowiggle(self, k: np.ndarray) -> np.ndarray:
        """EH98 zero-baryon ('no-wiggle') shape; k in h/Mpc."""
        c = self.cosmology
        k_mpc = k * c.h
        gamma_eff = self._om0h2 / c.h * (
            self._alpha_gamma
            + (1.0 - self._alpha_gamma) / (1.0 + (0.43 * k_mpc * self._s_approx) ** 4)
        )
        q = k_mpc * self._theta2 / (gamma_eff * c.h)
        l0 = np.log(2.0 * math.e + 1.8 * q)
        c0 = 14.2 + 731.0 / (1.0 + 62.5 * q)
        t = l0 / (l0 + c0 * q * q)
        return np.where(k_mpc > 0, t, 1.0)


@dataclass
class LinearPower:
    """Sigma8-normalized linear matter power spectrum.

    ``P(k, a) = A k^{n_s} T^2(k) D^2(a)`` with k in h/Mpc and P in
    (Mpc/h)^3; ``A`` is fixed so that :meth:`sigma_r` (8) equals the
    cosmology's ``sigma8`` at a=1.

    Examples
    --------
    >>> from repro.cosmology import WMAP7
    >>> p = LinearPower(WMAP7)
    >>> abs(p.sigma_r(8.0) - WMAP7.sigma8) < 1e-12
    True
    """

    cosmology: Cosmology
    transfer: str = "eisenstein_hu"

    #: panels of the sigma(R) rule over ``1e-5 < k < 1e3 / R``: 8192
    #: nodes resolve the top-hat window's ringing, sigma^2 to ~1e-11
    SIGMA_PANELS = 256

    def __post_init__(self) -> None:
        self._tf = TransferFunction(self.cosmology, self.transfer)
        self._norm = 1.0
        self._norm = self.cosmology.sigma8**2 / self.sigma_r(8.0) ** 2

    # ------------------------------------------------------------------
    def __call__(self, k, a: float = 1.0):
        """P(k, a) in (Mpc/h)^3, k in h/Mpc (scalar or array)."""
        k = np.asarray(k, dtype=np.float64)
        d = self.cosmology.growth_factor(a) if a != 1.0 else 1.0
        t = self._tf(k)
        with np.errstate(divide="ignore"):
            p = self._norm * k**self.cosmology.n_s * t * t * d * d
        return np.where(k > 0, p, 0.0)

    def dimensionless(self, k, a: float = 1.0):
        """Dimensionless power ``Delta^2(k) = k^3 P(k) / (2 pi^2)``."""
        k = np.asarray(k, dtype=np.float64)
        return k**3 * self(k, a) / (2.0 * math.pi**2)

    # ------------------------------------------------------------------
    def sigma_r(self, r: float, a: float = 1.0) -> float:
        """RMS linear fluctuation in a top-hat sphere of radius ``r`` Mpc/h."""
        if r <= 0:
            raise ValueError(f"radius must be positive: {r}")

        def integrand(lnk):
            k = np.exp(lnk)
            x = k * r
            w = np.where(
                x < 1e-4, 1.0 - x * x / 10.0,
                3.0 * (np.sin(x) - x * np.cos(x)) / x**3,
            )
            return self(k) * (k * w) ** 2 * k / (2.0 * math.pi**2)

        var = integrate(integrand, math.log(1e-5), math.log(1e3 / r),
                        panels=self.SIGMA_PANELS)
        # P(k, a) = D(a)^2 P(k, 1): one growth factor, not one per node
        d = self.cosmology.growth_factor(a) if a != 1.0 else 1.0
        return d * math.sqrt(var)

    def sigma_m(self, mass: float, a: float = 1.0) -> float:
        """RMS fluctuation for the Lagrangian radius of ``mass`` (Msun/h)."""
        rho_m = self.cosmology.rho_mean_matter0()
        r = (3.0 * mass / (4.0 * math.pi * rho_m)) ** (1.0 / 3.0)
        return self.sigma_r(r, a)

    # ------------------------------------------------------------------
    def table(self, kmin: float = 1e-4, kmax: float = 1e2, n: int = 512):
        """Log-spaced (k, P) table, convenient for interpolation and IC setup."""
        k = np.logspace(math.log10(kmin), math.log10(kmax), n)
        return k, self(k)
