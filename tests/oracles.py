"""Test oracles: a brute-force distance, and the exact l2 model of a prefix."""

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


def l2_prefix_coefficients(d, u) -> list[float]:
    """Coefficients of the l2 prefix x_N = sum lambda_k q_k on a coordinate chain.

    d = (d_1..d_N) are the targets and u = (u_1..u_N) the schedule column
    u_N^(j).  Each step is q_j = e_{j+1} + mu_j e_j with mu_j = sqrt(u_j^2 - 1),
    so rho(x, Y_k) is the l2 norm of the coordinates above k, and the root
    at level k only sets coordinate k+1 to +-sqrt(d_k^2 - d_{k+1}^2):

        lambda_N = d_N,
        lambda_k = sqrt(d_k^2 - d_{k+1}^2) - mu_{k+1} lambda_{k+1},

    with the sign of the square root that of mu_{k+1} lambda_{k+1} (the root
    nearer 0; + on a tie).
    """
    N = len(d)
    mu = [math.sqrt(uj * uj - 1.0) for uj in u]
    lam = [0.0] * N
    lam[-1] = d[-1]
    for k in range(N - 1, 0, -1):  # lam[k - 1] is lambda_k
        a = mu[k] * lam[k]
        lam[k - 1] = math.copysign(math.sqrt(d[k - 1] ** 2 - d[k] ** 2), a) - a
    return lam
