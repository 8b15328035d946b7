"""Brute-force distance oracle for cross-checking the solvers in tests."""

import math

import numpy as np

from lethargy.spaces import NormSpec, Subspace, as_vector, norm_eval


def rho_oracle(
    x,
    Y: Subspace,
    norm: NormSpec,
    grid_radius: float = 3.0,
    grid_steps: int = 601,
) -> float:
    """Brute-force grid minimum of |x - Bc| over c in [-radius, radius]^rank.

    Upper-bounds the true distance; converges to it as grid_steps grows.
    Restricted to rank <= 3 to keep the grid tractable.
    """
    x = as_vector(x, dim=Y.ambient_dim)
    if Y.rank > 3:
        raise ValueError("rho_oracle supports rank <= 3 only")
    if grid_steps < 10:
        raise ValueError("grid_steps must be >= 10")
    if Y.rank == 0:
        return norm_eval(x, norm)
    axis = np.linspace(-grid_radius, grid_radius, grid_steps)
    mesh = np.meshgrid(*([axis] * (Y.rank - 1)), indexing="ij")
    tail = np.stack([g.ravel() for g in mesh], axis=0) if Y.rank > 1 else np.zeros((0, 1))
    best = math.inf
    # chunk over the leading coefficient to keep memory flat on fine grids
    for c0 in axis:
        C = np.vstack([np.full(tail.shape[1], c0), tail])
        R = x[:, None] - Y.basis @ C
        if norm.is_sup:
            vals = np.max(np.abs(R), axis=0)
        else:
            vals = np.sum(np.abs(R) ** norm.p, axis=0) ** (1.0 / norm.p)
        best = min(best, float(np.min(vals)))
    return best
