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
#: integrates polynomials of degree 63 exactly
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(32)


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
