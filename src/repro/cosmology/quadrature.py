"""Composite Gauss-Legendre quadrature for the smooth 1-D integrals of
the cosmology and the time stepper.

Every integral the run path needs — the stepper's drift and kick
weights, the growth factor, the sigma8 normalisation — has an integrand
that is analytic on and near its interval, where a fixed Gauss-Legendre
rule converges geometrically.  One vectorised rule therefore replaces an
adaptive integrator: the integrand is evaluated once on the node array
and contracted with the weights.  The limits broadcast, so one call
handles a whole batch of integrals (the growth factor at every
requested scale factor).
"""

from __future__ import annotations

import numpy as np

__all__ = ["integrate"]

#: nodes and weights on [-1, 1] of the 32-point rule used per panel; it
#: integrates polynomials of degree 63 exactly.  The rule is symmetric,
#: so the literals are its 16 positive nodes and their weights, in
#: ``float.hex`` form: ``numpy.polynomial.legendre.leggauss(32)`` gives
#: the same bits (a test pins them) without loading ``numpy.polynomial``
#: and running its eigen-solve in every process.
_HALF_NODES = np.array([float.fromhex(h) for h in (
    "0x1.8bbc8488cc49ap-5", "0x1.27e0ea717f237p-3", "0x1.ea0f7e19c094bp-3",
    "0x1.53d55ce57bdf6p-2", "0x1.af76b57c6f8f1p-2", "0x1.038862866b29dp-1",
    "0x1.2ce9146962ca4p-1", "0x1.537a89c487f8ap-1", "0x1.76e0931d693bap-1",
    "0x1.96c69481c4bc5p-1", "0x1.b2e04fd686a13p-1", "0x1.caea9b4574cb9p-1",
    "0x1.deac0259f7f42p-1", "0x1.edf5518053baap-1", "0x1.f8a212714bcdcp-1",
    "0x1.fe995e70409b6p-1",
)])
_HALF_WEIGHTS = np.array([float.fromhex(h) for h in (
    "0x1.8b6d9eaec77a3p-4", "0x1.87bc776f8c6ccp-4", "0x1.8062fc0f6fef5p-4",
    "0x1.7572bdb3f6e49p-4", "0x1.6705e18e13ecfp-4", "0x1.553ee25ebebc3p-4",
    "0x1.40483e126fd0ep-4", "0x1.2854103b35e00p-4", "0x1.0d9b9a62cac04p-4",
    "0x1.e0bd76c924984p-5", "0x1.a1c6ae961fbeep-5", "0x1.5ee963a3354abp-5",
    "0x1.18c5800a35609p-5", "0x1.a0060a8531ff0p-6", "0x1.0aa3c248696dep-6",
    "0x1.cbf8bc743ce34p-8",
)])
_NODES = np.concatenate([-_HALF_NODES[::-1], _HALF_NODES])
_WEIGHTS = np.concatenate([_HALF_WEIGHTS[::-1], _HALF_WEIGHTS])


def integrate(f, lo, hi, *, panels: int = 1, geometric: bool = False):
    """``int_lo^hi f(x) dx`` for an ``f`` that maps arrays elementwise.

    ``lo`` and ``hi`` broadcast against each other; ``f`` is called once
    on nodes of their broadcast shape plus one trailing axis of
    ``32 * panels`` points, and the result has the broadcast shape (a
    float for scalar limits).  Panels are equal in width, or, with
    ``geometric=True`` (``lo > 0``), equal in ``ln x`` — the split for
    integrands that vary like a power of ``x`` over a wide range.  The
    end points are ``lo`` and ``hi`` exactly.
    """
    if panels < 1:
        raise ValueError(f"panels must be >= 1, got {panels}")
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=np.float64),
                                 np.asarray(hi, dtype=np.float64))
    frac = np.linspace(0.0, 1.0, panels + 1)
    if geometric:
        edges = lo[..., None] * (hi / lo)[..., None] ** frac
    else:
        edges = lo[..., None] + (hi - lo)[..., None] * frac
    edges[..., 0] = lo
    edges[..., -1] = hi
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])[..., None]
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    shape = lo.shape + (panels * _NODES.size,)
    nodes = (mid + half * _NODES).reshape(shape)
    weights = (half * _WEIGHTS).reshape(shape)
    out = (weights * f(nodes)).sum(axis=-1)
    return float(out) if out.ndim == 0 else out
