"""Norming linear functionals on R^m under lp norms.

A functional is represented by a dual vector d with f(x) = <d, x>; its
operator norm is the lq norm of d for the conjugate exponent q.  The central
construction produces f with f|Q = 0, f(x1) = 1 and operator norm exactly
1/rho(x1, Q), optionally pinning f(x2) to the limit of the non-decreasing

    g(a) = a - rho(x2 - a*x1, Q) / rho(x1, Q),   a -> +infinity.

The limit is a directional derivative of the convex rho(., Q) at x1
(Rockafellar, Convex Analysis, Thm 23.4): min{g(x2) : g in the
subdifferential} / rho(x1, Q), where the subdifferential is the face
{|g|_* <= 1, g|Q = 0, g(x1) = rho(x1, Q)} of the dual ball.  The minimizer,
divided by rho(x1, Q), is the pinned norming functional itself, so no search
over a is needed.  rho's own certificate lies in the face, so it serves
without x2 and for 1 < p < inf, where the face is one point.  For p in
{1, inf} with x2 the witness residual fixes the face exactly, and one LP
over it picks the minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .distance import SolverError, linprog, rho
from .spaces import NormSpec, Subspace, as_vector, norm_eval

FUNC_TOL = 1e-8
NORMING_TOL = 1e-7  # HiGHS's feasibility tolerance
# A residual entry within ACTIVE_TOL * max|r| of max|r| (p = inf) or of 0
# (p = 1) counts as equal to it.  On the benchmark's sweep inputs the LP
# witnesses leave ties within 5e-12 * max|r| and gaps above 1e-6 * max|r|.
ACTIVE_TOL = 1e-10


class FunctionalError(ValueError):
    """Precondition failure while building a norming functional."""


@dataclass(frozen=True)
class Functional:
    dual_vector: np.ndarray
    dual_norm_value: float

    def __call__(self, x) -> float:
        return float(np.dot(self.dual_vector, as_vector(x, dim=self.dual_vector.size)))

    def kernel(self) -> Subspace:
        """The full null space of the dual vector as an explicit subspace."""
        ns = scipy.linalg.null_space(self.dual_vector[None, :])
        return Subspace(ns, ambient_dim=self.dual_vector.size)


def dual_norm(d: np.ndarray, norm: NormSpec) -> float:
    """Operator norm of x -> <d, x> on (R^m, lp): the conjugate lq norm."""
    return norm_eval(d, NormSpec(norm.dual_p))


def limit_expression(x2, x1, Q: Subspace, norm: NormSpec, a: float) -> float:
    """g(a) = a - rho(x2 - a*x1, Q) / rho(x1, Q)."""
    x1 = as_vector(x1, dim=Q.ambient_dim)
    x2 = as_vector(x2, dim=Q.ambient_dim)
    rho1 = rho(x1, Q, norm).value
    if rho1 <= FUNC_TOL:
        raise FunctionalError(f"x1 lies in the subspace within tolerance (rho = {rho1:.3e})")
    if a > 1.0:
        # Homogeneity keeps the solve well scaled for large a.
        val = a * rho(x2 / a - x1, Q, norm).value
    else:
        val = rho(x2 - a * x1, Q, norm).value
    return a - val / rho1


def _face_minimizer(x1: np.ndarray, Q: Subspace, norm: NormSpec, x2):
    """rho(x1, Q) and a g in the face {|g|_* <= 1, g|Q = 0, g(x1) = rho} of
    the dual ball, minimizing g(x2) over the face when x2 is given.

    Without x2, or for 1 < p < inf (where the face is one point), g is
    rho's own certificate.  For p in {1, inf} with x2, complementary
    slackness with the witness residual r fixes the face exactly, and one LP
    minimizes g(x2) over it subject to g|Q = 0:

      * p = inf  g = sum over A of w_i sign(r_i) e_i, w >= 0, sum w = 1,
                 A = {i : |r_i| = max |r|};
      * p = 1    g_i = sign(r_i) where r_i != 0, g_i in [-1, 1] where r_i = 0.

    "= max" and "= 0" are decided to ACTIVE_TOL relative to max |r|.  The
    projection onto Q's annihilator removes the solver's error in g|Q = 0.
    """
    res = rho(x1, Q, norm)
    rho1 = res.value
    if rho1 <= FUNC_TOL:
        raise FunctionalError(
            f"x1 lies in the subspace within tolerance (rho = {rho1:.3e}); "
            "no norming functional exists"
        )
    if x2 is None or not (norm.p == 1.0 or norm.is_sup):
        return rho1, res.dual(Q, norm)
    r = x1 - res.witness(Q)
    size, s = np.abs(r), np.sign(r)
    # The face as bounds on g.  A fixed coordinate gets equal bounds, which
    # presolve removes; the LP keeps a column even when none is free.
    if norm.is_sup:
        active = size >= (1.0 - ACTIVE_TOL) * size.max()
        lo = np.where(active & (s < 0), -np.inf, 0.0)
        hi = np.where(active & (s > 0), np.inf, 0.0)
        A_eq, b_eq = np.vstack([Q.basis.T, s]), np.append(np.zeros(Q.rank), 1.0)
    else:
        zero = size <= ACTIVE_TOL * size.max()
        lo, hi = np.where(zero, -1.0, s), np.where(zero, 1.0, s)
        A_eq, b_eq = Q.basis.T, np.zeros(Q.rank)
    out = linprog(x2, A_ub=np.zeros((0, x2.size)), b_ub=np.zeros(0), A_eq=A_eq, b_eq=b_eq,
                  bounds=np.column_stack([lo, hi]))
    if not out.success:
        raise SolverError(f"norming linear program failed: {out.message}")
    return rho1, Q.residual(out.x)


def limit_value(x2, x1, Q: Subspace, norm: NormSpec) -> float:
    """Limit of g(a) = a - rho(x2 - a*x1, Q)/rho(x1, Q) as a -> infinity,
    exactly: min{g(x2) : g in the subdifferential at x1} / rho(x1, Q)."""
    x1 = as_vector(x1, dim=Q.ambient_dim)
    x2 = as_vector(x2, dim=Q.ambient_dim)
    _, g = _face_minimizer(x1, Q, norm, x2)
    return float(g @ x2) / float(g @ x1)


def norming_functional(x1, Q: Subspace, norm: NormSpec, x2=None) -> Functional:
    """f with f|Q = 0, f(x1) = 1 and operator norm 1/rho(x1, Q).

    When x2 is supplied (and lies outside span[{x1} union Q]) the value f(x2)
    is additionally pinned to limit_value(x2, x1, Q): f is the face minimizer
    of limit_value scaled by 1/rho(x1, Q).  Its norm identity with
    1/rho(x1, Q) is verified, not assumed.
    """
    x1 = as_vector(x1, dim=Q.ambient_dim)
    if x2 is not None:
        x2 = as_vector(x2, dim=Q.ambient_dim)
        span = Subspace(
            np.column_stack([Q.basis, x1]) if Q.rank else x1[:, None],
            ambient_dim=Q.ambient_dim,
        )
        res = float(np.linalg.norm(span.residual(x2)))
        if res <= FUNC_TOL * max(1.0, float(np.linalg.norm(x2))):
            raise FunctionalError(
                f"x2 lies in span[{{x1}} + Q] within tolerance (residual = {res:.3e})"
            )
    rho1, g = _face_minimizer(x1, Q, norm, x2)
    d = g / float(g @ x1)
    dn = dual_norm(d, norm)
    if abs(dn * rho1 - 1.0) > NORMING_TOL:
        raise SolverError(
            f"norming identity violated: |f| * rho(x1, Q) = {dn * rho1!r}, expected 1"
        )
    return Functional(dual_vector=d, dual_norm_value=dn)


def norm_attainment_check(f: Functional, x, norm: NormSpec, tol: float = 1e-9) -> bool:
    """True iff x witnesses |f(x)| = |f| * |x| up to the relative tolerance."""
    x = as_vector(x, dim=f.dual_vector.size)
    nx = norm_eval(x, norm)
    if nx <= 0 or f.dual_norm_value <= 0:
        raise ValueError("norm_attainment_check needs |x| > 0 and a non-zero functional")
    return abs(f(x)) >= (1.0 - tol) * f.dual_norm_value * nx


def kernel_distance_identity_check(f: Functional, x, norm: NormSpec, tol: float = 1e-6) -> bool:
    """Check rho(x, ker f) = |f(x)| / |f| against the distance solver."""
    if float(np.linalg.norm(f.dual_vector)) == 0.0:
        raise ValueError("functional must be non-zero")
    x = as_vector(x, dim=f.dual_vector.size)
    ker = f.kernel()
    lhs = rho(x, ker, norm).value
    rhs = abs(f(x)) / f.dual_norm_value
    return abs(lhs - rhs) <= tol
