"""Vectors, lp norms, subspaces and strictly nested chains.

Everything here is immutable after construction and safe to share across
threads.  Subspace bases are orthonormalized on ingestion; membership and
nesting tests run against the orthonormal factor, which keeps downstream
solvers well conditioned.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

RANK_TOL = 1e-10
NEST_TOL = 1e-10
_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal range


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
    return _norm(as_vector(x), norm.p)


def _norm(x: np.ndarray, p: float) -> float:
    """norm_eval on a checked vector.  While sum |x_i|^p is a normal float
    the value is np.linalg.norm's, bit for bit: at p = 2 the same BLAS dot,
    through np.vdot, which raises no floating-point warning.  Where the sum
    under- or overflows (|x_i| below about 1e-154 or above 1e154 at p = 2)
    x is first divided by max |x_i|.  At p = 1 the sum is the norm, exact
    on subnormals, and overflows only where the norm does."""
    if math.isinf(p):
        return float(np.max(np.abs(x)))
    if p == 1.0:
        return float(np.sum(np.abs(x)))
    if p == 2.0:
        s = float(np.vdot(x, x))
    else:
        with np.errstate(over="ignore"):
            s = float(np.sum(np.abs(x) ** p))
    if not _TINY <= s <= _HUGE:
        if s == 0.0 and not x.any():
            return 0.0
        top = float(np.max(np.abs(x)))
        if not math.isfinite(top):  # an inf or nan entry: the norm is inf or nan
            return top
        return top * _norm(x / top, p)
    return math.sqrt(s) if p == 2.0 else s ** (1.0 / p)


def _norms(X: np.ndarray, p: float) -> np.ndarray:
    """_norm of every row of X (ndim >= 2, along the last axis), bit for bit
    off p = 2, where rows whose sum leaves the normal range go through _norm.
    At p = 2 a row's squares are summed in units of its largest entry's power
    of two, so a non-zero row's sum lies in [1/4, n] and its norm scales exactly."""
    A = np.abs(X)
    if math.isinf(p) or p == 1.0:
        return A.max(axis=-1) if math.isinf(p) else A.sum(axis=-1)
    with np.errstate(over="ignore"):  # past the largest float: inf at p = 2, else _norm below
        if p == 2.0:
            e = np.frexp(A.max(axis=-1, initial=0.0))[1]
            A = np.ldexp(A, -e[..., None])
            return np.ldexp(np.sqrt((A * A).sum(axis=-1)), e)
        s = (A ** p).sum(axis=-1)
    out = np.reshape([v ** (1.0 / p) for v in s.ravel().tolist()], s.shape)
    for i in np.flatnonzero(~((_TINY <= s) & (s <= _HUGE)) & A.any(axis=-1)):
        out.flat[i] = _norm(A.reshape(-1, A.shape[-1])[i], p)
    return out


class Subspace:
    """A linear subspace of R^ambient_dim given by basis columns.

    rank 0 encodes the zero subspace {0}; every operation accepts it.
    """

    def __init__(self, basis, ambient_dim: int | None = None):
        B = None if basis is None else np.asarray(basis, dtype=float)
        if B is None or B.size == 0:
            if ambient_dim is None:
                raise ValueError("a rank-0 subspace needs an explicit ambient_dim")
            self.ambient_dim = int(ambient_dim)
            self.basis = np.zeros((self.ambient_dim, 0))
            self.rank = 0
            return
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
        self.basis = _oriented(u[:, :numerical_rank])
        self.rank = numerical_rank

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(None, ambient_dim=ambient_dim)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        """R^ambient_dim with the identity basis, which is what the SVD of
        np.eye would give, bit for bit."""
        Y = cls.zero(ambient_dim)
        Y.basis, Y.rank = np.eye(Y.ambient_dim), Y.ambient_dim
        return Y

    @cached_property
    def support(self) -> np.ndarray | None:
        """The indices S with Y = span{e_i : i in S}, or None when Y is no
        coordinate subspace.  An orthonormal basis with exactly rank non-zero
        rows spans the coordinates of those rows; {0} has S empty."""
        rows = np.flatnonzero(self.basis.any(axis=1))
        return rows if rows.size == self.rank else None

    def residual(self, x: np.ndarray) -> np.ndarray:
        """x minus its Euclidean orthogonal projection onto the subspace."""
        return x - self.basis @ (self.basis.T @ x)

    def __repr__(self):
        return f"Subspace(ambient_dim={self.ambient_dim}, rank={self.rank})"


def _oriented(q: np.ndarray) -> np.ndarray:
    """q with each column's sign set so that its first entry of largest
    magnitude is >= 0: the deterministic sign convention of every basis."""
    cols = np.arange(q.shape[1])
    q[:, q[np.argmax(np.abs(q), axis=0), cols] < 0] *= -1.0
    return q


def _extends(lo: Subspace, hi: Subspace) -> bool:
    """Whether hi's basis begins with lo's, bit for bit ({0}'s empty basis
    begins every one): then lo c hi by construction, and hi's column
    rank(lo) + 1 is orthogonal to lo (np.array_equal, without its overhead)."""
    head = hi.basis[:, :lo.rank]
    return head.shape == lo.basis.shape and bool((head == lo.basis).all())


def contains(Y: Subspace, x, tol: float = NEST_TOL) -> bool:
    """Membership up to a least-squares residual of tol * |x|_2, relative so
    that the verdict scales with x; the zero vector lies in every Y."""
    x = as_vector(x, dim=Y.ambient_dim)
    return _norm(Y.residual(x), 2.0) <= tol * _norm(x, 2.0)


@dataclass(frozen=True)
class ChainValidation:
    passes: bool
    failure: str | None = None  # names the first pair that fails


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

    @cached_property
    def _extended(self) -> tuple[bool, ...]:
        """_extends of each adjacent pair of levels, compared once per chain:
        _validation, _frame and the construction's unit steps read it."""
        return tuple(map(_extends, self.levels, self.levels[1:]))

    def _extends_at(self, n: int) -> bool:
        """_extends(level n, level n + 1); above the top, level n's basis
        against the identity's columns, Subspace.full's, with none built."""
        if n < len(self.levels):
            return self._extended[n - 1]
        top = self.level(n).basis
        return bool((top == np.eye(*top.shape)).all())

    @cached_property
    def _validation(self) -> ChainValidation:  # validate_chain's verdict
        for k, (lo, hi, ext) in enumerate(zip(self.levels, self.levels[1:], self._extended), start=1):
            nested = ext or np.linalg.norm(hi.residual(lo.basis), axis=0).max() <= NEST_TOL
            if not (nested and hi.rank > lo.rank):
                kind = "not nested" if not nested else "not strict"
                return ChainValidation(passes=False, failure=f"levels {k} -> {k + 1}: {kind}")
        return ChainValidation(passes=True)

    @cached_property
    def _frame(self) -> np.ndarray | None:
        """The flag frame F, the top level's basis, when every level extends
        the one below (coordinate_chain's and the explicit p = 2 chains of
        scenario._parse_chain); None otherwise.  Only the p = 2 measure,
        construct._l2_measure, reads it."""
        if self.levels and all(self._extended):
            return self.levels[-1].basis
        return None

    def level(self, n: int) -> Subspace:
        """1-based level Y_n; n = len(levels)+1 yields the full ambient space."""
        if 1 <= n <= len(self.levels):
            return self.levels[n - 1]
        if n == len(self.levels) + 1:
            return Subspace.full(self.ambient_dim)
        raise IndexError(f"chain has {len(self.levels)} levels, asked for {n}")


def coordinate_chain(ambient_dim: int, n_levels: int, norm: NormSpec) -> Chain:
    """Y_k = span{e_1, ..., e_k}, with basis the first k identity columns,
    which is what the SVD would give, bit for bit (see Subspace.full): one
    flag frame, the first n_levels identity columns, each level extending
    the one below (see _extends)."""
    if n_levels >= ambient_dim:
        raise ValueError("coordinate chain needs n_levels < ambient_dim")
    return _flag_chain(np.eye(ambient_dim)[:, :n_levels], range(1, n_levels + 1), norm)


def _flag_chain(F: np.ndarray, ranks, norm: NormSpec) -> Chain:
    """The chain of levels F[:, :r], r in ranks, over F's orthonormal, oriented columns."""
    levels = [Subspace.zero(F.shape[0]) for _ in ranks]
    for Y, r in zip(levels, ranks):
        Y.basis, Y.rank = F[:, :r], r
    return Chain(ambient_dim=F.shape[0], norm=norm, levels=tuple(levels))


def validate_chain(chain: Chain) -> ChainValidation:
    """Check strict nesting of consecutive levels; never raises.  Cached on the chain."""
    return chain._validation
