"""Tests for the committed Gauss-Legendre rule of the cosmology
integrals."""

import warnings

import numpy as np

from repro.cosmology import quadrature


def test_rule_is_leggauss_32():
    """The committed nodes and weights are ``leggauss(32)``: within
    1e-15 relative on any host, bit for bit where the host reproduces
    the literals.  A mismatch prints the fresh positive half to paste."""
    nodes, weights = np.polynomial.legendre.leggauss(32)
    literals = "\n".join(
        f"{name}: " + ", ".join(f'"{float(v).hex()}"' for v in arr[16:])
        for name, arr in (("nodes", nodes), ("weights", weights))
    )
    for committed, fresh in (
        (quadrature._NODES, nodes), (quadrature._WEIGHTS, weights)
    ):
        np.testing.assert_allclose(
            committed, fresh, rtol=1e-15, atol=0, err_msg=literals
        )
    if not (np.array_equal(quadrature._NODES, nodes)
            and np.array_equal(quadrature._WEIGHTS, weights)):
        warnings.warn(
            "Gauss-Legendre rule matches leggauss(32) within tolerance "
            f"but not bit for bit on this host:\n{literals}",
            stacklevel=1,
        )

