"""The two-stage lift an independence chain's final tiling once came from.

IndependenceChain.final is one lift of the one-dimensional tiling through
phi(x) = row_transform . x[selected_rows].  This module keeps the route the
tests compare it with: lift the tiling of Z_M to Z_M^k through row_transform,
then lift that to Z_M^d through the projection onto the selected rows.
"""

from __future__ import annotations

from spectratile.modlinalg import IntMatrix
from spectratile.spectral import PointSet
from spectratile.tiling import IndependenceChain, TilingCertificate, lift_tile


def two_stage_lift(chain: IndependenceChain) -> tuple[TilingCertificate, TilingCertificate]:
    """The tiling of Z_M^k by the selected coordinates, and its pullback to Z_M^d."""
    rows = chain.selected_rows
    k, d = len(rows), chain.set.dimension
    block = PointSet(k, tuple(tuple(p[r] for r in rows) for p in chain.set.points))
    projected = lift_tile(block, chain.row_transform, chain.one_dimensional)
    projection = IntMatrix.from_rows([[int(j == r) for j in range(d)] for r in rows])
    return projected, lift_tile(chain.set, projection, projected)
