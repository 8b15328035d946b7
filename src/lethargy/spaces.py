"""Vectors, lp norms, subspaces and strictly nested chains.

Everything here is immutable after construction and safe to share across
threads.  Subspace bases are orthonormalized on ingestion; membership and
nesting tests run against the orthonormal factor, which keeps downstream
solvers well conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

RANK_TOL = 1e-10
NEST_TOL = 1e-10


class DimensionMismatchError(ValueError):
    """Raised when a vector and a subspace disagree on the ambient dimension."""


def as_vector(entries, dim: int | None = None) -> np.ndarray:
    """Validate and return a finite 1-D float array."""
    x = np.asarray(entries, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if x.size == 0:
        raise ValueError("vectors must have positive dimension")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector entries must be finite")
    if dim is not None and x.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {x.size}")
    return x


@dataclass(frozen=True)
class NormSpec:
    """An lp norm; p = math.inf selects the sup norm."""

    p: float = 2.0

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise ValueError(f"norm exponent must satisfy p >= 1, got {self.p}")

    @property
    def is_sup(self) -> bool:
        return math.isinf(self.p)

    @property
    def dual_p(self) -> float:
        """Conjugate exponent q with 1/p + 1/q = 1."""
        if self.is_sup:
            return 1.0
        if self.p == 1.0:
            return math.inf
        return self.p / (self.p - 1.0)


def norm_eval(x, norm: NormSpec) -> float:
    """(sum |x_i|^p)^(1/p), or max |x_i| for the sup norm."""
    x = as_vector(x)
    if norm.is_sup:
        return float(np.max(np.abs(x)))
    if norm.p == 1.0:
        return float(np.sum(np.abs(x)))
    if norm.p == 2.0:
        return float(np.linalg.norm(x))
    return float(np.linalg.norm(x, ord=norm.p))


class Subspace:
    """A linear subspace of R^ambient_dim given by basis columns.

    rank 0 encodes the zero subspace {0}; every operation accepts it.
    """

    def __init__(self, basis, ambient_dim: int | None = None):
        if basis is None or (hasattr(basis, "size") and np.asarray(basis).size == 0):
            if ambient_dim is None:
                raise ValueError("a rank-0 subspace needs an explicit ambient_dim")
            self.ambient_dim = int(ambient_dim)
            self.basis = np.zeros((self.ambient_dim, 0))
            self.rank = 0
            return
        B = np.asarray(basis, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if B.ndim != 2:
            raise ValueError(f"basis must be a dim x rank matrix, got shape {B.shape}")
        if not np.all(np.isfinite(B)):
            raise ValueError("basis entries must be finite")
        if ambient_dim is not None and B.shape[0] != ambient_dim:
            raise DimensionMismatchError(
                f"basis rows {B.shape[0]} do not match ambient_dim {ambient_dim}"
            )
        self.ambient_dim = B.shape[0]
        # Orthonormalize; reject rank-deficient user bases.
        u, s, _ = np.linalg.svd(B, full_matrices=False)
        cutoff = RANK_TOL * (s[0] if s.size else 1.0)
        numerical_rank = int(np.sum(s > cutoff))
        if numerical_rank < B.shape[1]:
            raise ValueError(
                f"basis columns are linearly dependent (numerical rank "
                f"{numerical_rank} < {B.shape[1]})"
            )
        if B.shape[1] > self.ambient_dim:
            raise ValueError("rank cannot exceed ambient dimension")
        q = u[:, :numerical_rank]
        # Deterministic sign convention: first entry of largest magnitude >= 0.
        for j in range(q.shape[1]):
            i = int(np.argmax(np.abs(q[:, j])))
            if q[i, j] < 0:
                q[:, j] = -q[:, j]
        self.basis = q
        self.rank = numerical_rank

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(None, ambient_dim=ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim))

    def project(self, x: np.ndarray) -> np.ndarray:
        """Euclidean orthogonal projection onto the subspace."""
        if self.rank == 0:
            return np.zeros(self.ambient_dim)
        return self.basis @ (self.basis.T @ x)

    def residual(self, x: np.ndarray) -> np.ndarray:
        return x - self.project(x)

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, rank={self.rank})"


def contains(Y: Subspace, x, tol: float = NEST_TOL) -> bool:
    """Membership up to a least-squares residual of tol * max(1, |x|_2)."""
    x = as_vector(x, dim=Y.ambient_dim)
    res = float(np.linalg.norm(Y.residual(x)))
    return res <= tol * max(1.0, float(np.linalg.norm(x)))


@dataclass(frozen=True)
class PairNesting:
    """Nesting diagnostics for one consecutive pair of chain levels."""

    lower_index: int
    nested: bool
    strict: bool
    rank_gap: int
    max_residual: float

    @property
    def ok(self) -> bool:
        return self.nested and self.strict


@dataclass(frozen=True)
class ChainValidation:
    passes: bool
    pairs: tuple[PairNesting, ...]
    failure: str | None = None


@dataclass(frozen=True)
class Chain:
    """A strictly nested list of subspaces sharing one ambient space."""

    ambient_dim: int
    norm: NormSpec
    levels: tuple[Subspace, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        for Y in self.levels:
            if Y.ambient_dim != self.ambient_dim:
                raise DimensionMismatchError(
                    f"level ambient_dim {Y.ambient_dim} != chain ambient_dim {self.ambient_dim}"
                )

    def __len__(self):
        return len(self.levels)

    def level(self, n: int) -> Subspace:
        """1-based level Y_n; n = len(levels)+1 yields the full ambient space."""
        if 1 <= n <= len(self.levels):
            return self.levels[n - 1]
        if n == len(self.levels) + 1:
            return Subspace.full(self.ambient_dim)
        raise IndexError(f"chain has {len(self.levels)} levels, asked for {n}")


def coordinate_chain(ambient_dim: int, n_levels: int, norm: NormSpec) -> Chain:
    """Y_k = span{e_1, ..., e_k}."""
    if n_levels >= ambient_dim:
        raise ValueError("coordinate chain needs n_levels < ambient_dim")
    eye = np.eye(ambient_dim)
    levels = [Subspace(eye[:, : k + 1]) for k in range(n_levels)]
    return Chain(ambient_dim=ambient_dim, norm=norm, levels=tuple(levels))


def validate_chain(chain: Chain) -> ChainValidation:
    """Check strict nesting of consecutive levels; never raises."""
    pairs = []
    failure = None
    for k in range(len(chain.levels) - 1):
        lo, hi = chain.levels[k], chain.levels[k + 1]
        if lo.rank == 0:
            nested, max_res = True, 0.0
        else:
            max_res = float(np.max(np.linalg.norm(hi.residual(lo.basis), axis=0)))
            nested = max_res <= NEST_TOL
        strict = hi.rank > lo.rank
        pair = PairNesting(
            lower_index=k + 1,
            nested=nested,
            strict=strict,
            rank_gap=hi.rank - lo.rank,
            max_residual=max_res,
        )
        pairs.append(pair)
        if failure is None and not pair.ok:
            kind = "not nested" if not nested else "not strict"
            failure = f"levels {k + 1} -> {k + 2}: {kind}"
    return ChainValidation(passes=failure is None, pairs=tuple(pairs), failure=failure)
