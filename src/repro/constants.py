"""Physical constants and the code unit system.

Unit conventions
----------------
The library follows the standard large-scale-structure convention used by
HACC-style particle-mesh codes:

* **Lengths** are comoving and measured in ``Mpc/h`` where
  ``h = H0 / (100 km/s/Mpc)``.
* **Time** is parameterized by the scale factor ``a`` with ``a = 1`` today;
  redshift ``z = 1/a - 1``.
* **Code velocities** use the canonical comoving momentum of the paper,
  ``p = a^2 dx/dt`` (Eq. 4 of Habib et al. 2012), expressed in units where
  ``H0 = 1``.  With these choices the comoving Poisson equation becomes
  ``del^2 phi = (3/2) Omega_m delta / a`` and the equations of motion are

  .. math::

      dx/da = p / (a^3 E(a)), \\qquad dp/da = -\\nabla\\phi / (a E(a)),

  with ``E(a) = H(a)/H0``.
* **Masses** are measured in units of the mean particle mass unless a
  cosmology is attached, in which case :func:`particle_mass` converts to
  ``Msun/h``.

Only dimensionless combinations enter the dynamical code; the constants
below are used by analysis utilities (halo masses, mass functions) and by
the machine model (which works in seconds / flops).
"""

from __future__ import annotations

__all__ = [
    "H0_KM_S_MPC",
    "H100_INV_S",
    "GRAVITATIONAL_CONSTANT_MKS",
    "MPC_IN_M",
    "MSUN_IN_KG",
    "RHO_CRIT_MSUN_H2_MPC3",
    "DELTA_C",
    "particle_mass",
]

#: Hubble constant normalization, km/s/Mpc per unit ``h``.
H0_KM_S_MPC = 100.0

#: 100 km/s/Mpc expressed in 1/s (so ``H0 = h * H100_INV_S``).
H100_INV_S = 100.0 * 1.0e3 / 3.0856775814913673e22

#: Newton's constant in m^3 kg^-1 s^-2.
GRAVITATIONAL_CONSTANT_MKS = 6.67430e-11

#: One megaparsec in meters.
MPC_IN_M = 3.0856775814913673e22

#: One solar mass in kilograms.
MSUN_IN_KG = 1.98892e30

#: Critical density today in units of h^2 Msun / Mpc^3:
#: ``rho_c = 3 H0^2 / (8 pi G)`` evaluated with H0 = 100 h km/s/Mpc.
RHO_CRIT_MSUN_H2_MPC3 = 2.77536627e11

#: Linear-theory collapse threshold for spherical collapse (EdS value);
#: used by the Press-Schechter / Sheth-Tormen mass functions.
DELTA_C = 1.686


def particle_mass(omega_m: float, box_size: float, n_particles: int) -> float:
    """Tracer-particle mass in Msun/h.

    Parameters
    ----------
    omega_m:
        Total matter density parameter today.
    box_size:
        Comoving box side length in Mpc/h.
    n_particles:
        Total number of tracer particles in the box.

    Returns
    -------
    float
        ``Omega_m * rho_crit * V / N`` in Msun/h.

    Examples
    --------
    The paper's 10240^3-particle, (9.14 Gpc)^3 science run quotes
    ``m_p ~= 1.9e10 Msun``:

    >>> mp = particle_mass(0.265, 9140.0, 10240**3)
    >>> 1.0e10 < mp < 3.0e10
    True
    """
    if n_particles <= 0:
        raise ValueError(f"n_particles must be positive, got {n_particles}")
    if box_size <= 0:
        raise ValueError(f"box_size must be positive, got {box_size}")
    volume = float(box_size) ** 3
    return omega_m * RHO_CRIT_MSUN_H2_MPC3 * volume / float(n_particles)
