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
{1, inf} with x2 the witness residual and the certificate's support fix the
face; a face of one point is one square solve, and one LP over any other
face picks the minimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import SolverError, linprog, rho
from .spaces import NormSpec, Subspace, _norm, as_vector, norm_eval

FUNC_TOL = 1e-8
NORMING_TOL = 1e-7  # slack of the norming identity and of a point face's bounds
# A residual entry within ACTIVE_TOL * max|r| of max|r| (p = inf) or of 0
# (p = 1) counts as equal to it.  On the benchmark's sweep inputs (seeds 5
# and 43, 3600 norming functionals each) the exchange's witnesses leave ties
# within 2e-14 * max|r| and gaps above 7e-7 * max|r|.
ACTIVE_TOL = 1e-10


class FunctionalError(ValueError):
    """Precondition failure while building a norming functional."""


@dataclass(frozen=True)
class Functional:
    dual_vector: np.ndarray
    dual_norm_value: float

    def __call__(self, x) -> float:
        return float(np.dot(self.dual_vector, as_vector(x, dim=self.dual_vector.size)))


def dual_norm(d: np.ndarray, norm: NormSpec) -> float:
    """Operator norm of x -> <d, x> on (R^m, lp): the conjugate lq norm."""
    return norm_eval(d, NormSpec(norm.dual_p))


def limit_expression(x2, x1, Q: Subspace, norm: NormSpec, a: float) -> float:
    """g(a) = a - rho(x2 - a*x1, Q) / rho(x1, Q), whose limit limit_value
    gives exactly.  No library code calls it; bench/tracing.py patches this
    binding."""
    x1 = as_vector(x1, dim=Q.ambient_dim)
    x2 = as_vector(x2, dim=Q.ambient_dim)
    rho1 = _rho_outside(x1, Q, norm).value
    if a > 1.0:
        # Homogeneity keeps the solve well scaled for large a.
        val = a * rho(x2 / a - x1, Q, norm).value
    else:
        val = rho(x2 - a * x1, Q, norm).value
    return a - val / rho1


def _rho_outside(x1: np.ndarray, Q: Subspace, norm: NormSpec):
    """rho(x1, Q), which FunctionalError rejects when x1 lies in Q (to FUNC_TOL |x1|)."""
    res = rho(x1, Q, norm)
    if res.value <= FUNC_TOL * _norm(x1, norm.p):
        raise FunctionalError(
            f"x1 lies in the subspace within tolerance (rho = {res.value:.3e}); "
            "no norming functional exists"
        )
    return res


def _face_minimizer(res, x1: np.ndarray, Q: Subspace, norm: NormSpec, x2) -> np.ndarray:
    """A g in the face {|g|_* <= 1, g|Q = 0, g(x1) = rho} of the dual ball,
    minimizing g(x2) over the face when x2 is given; res is rho(x1, Q).

    Without x2, or for 1 < p < inf (where the face is one point), g is
    rho's own certificate.  For p in {1, inf} with x2, complementary
    slackness with the witness residual r fixes the face subject to g|Q = 0:

      * p = inf  g = sum over A of w_i sign(r_i) e_i, w >= 0, sum w = 1,
                 A = {i : |r_i| = max |r|};
      * p = 1    g_i = sign(r_i) where r_i != 0, g_i in [-1, 1] where r_i = 0.

    "= max" and "= 0" are decided to ACTIVE_TOL relative to max |r|, and
    the free entries also take the support of rho's certificate (non-zero
    at p = inf, below 1 in size at p = 1), which then lies in the face.  As
    many free entries as rows (Q's and, at p = inf, sum w = 1) leave at
    most one point: one square solve, kept when it is within NORMING_TOL of
    the bounds.  Any other face, or a singular or out-of-bounds solve, takes
    one LP minimizing g(x2).  The projection onto Q's annihilator removes
    the error in g|Q = 0.
    """
    if x2 is None or not (norm.p == 1.0 or norm.is_sup):
        return res.dual(Q, norm)
    r, cert = x1 - res.witness(Q), res.dual_direction
    size, s = np.abs(r), np.sign(r)
    # The face as bounds on g.  A fixed coordinate gets equal bounds and
    # stays a column, so the LP has columns even when none is free.
    if norm.is_sup:
        active = (size >= (1.0 - ACTIVE_TOL) * size.max()) | (cert != 0.0)
        lo = np.where(active & (s < 0), -np.inf, 0.0)
        hi = np.where(active & (s > 0), np.inf, 0.0)
        A, b = np.vstack([Q.basis.T, s]), np.append(np.zeros(Q.rank), 1.0)
    else:
        zero = (size <= ACTIVE_TOL * size.max()) | (np.abs(cert) < 1.0)
        lo, hi = np.where(zero, -1.0, s), np.where(zero, 1.0, s)
        A, b = Q.basis.T, np.zeros(Q.rank)
    free = lo < hi
    if np.count_nonzero(free) == b.size:  # the face is at most one point
        g = np.where(free, 0.0, lo)
        try:
            g[free] = np.linalg.solve(A[:, free], b - A @ g)
        except np.linalg.LinAlgError:  # singular: the face is not one point
            pass
        else:
            if np.all(g >= lo - NORMING_TOL) and np.all(g <= hi + NORMING_TOL):
                return Q.residual(g)
    out = linprog(x2, A, b, b, lo, hi)
    if out.status != 0:
        raise SolverError(f"norming linear program failed: {out.message}")
    return Q.residual(out.x)


def limit_value(x2, x1, Q: Subspace, norm: NormSpec) -> float:
    """Limit of g(a) = a - rho(x2 - a*x1, Q)/rho(x1, Q) as a -> infinity,
    exactly: min{g(x2) : g in the subdifferential at x1} / rho(x1, Q)."""
    x1 = as_vector(x1, dim=Q.ambient_dim)
    x2 = as_vector(x2, dim=Q.ambient_dim)
    g = _face_minimizer(_rho_outside(x1, Q, norm), x1, Q, norm, x2)
    return float(g @ x2) / float(g @ x1)


def norming_functional(x1, Q: Subspace, norm: NormSpec, x2=None) -> Functional:
    """f with f|Q = 0, f(x1) = 1 and operator norm 1/rho(x1, Q).

    When x2 is supplied (and lies outside span[{x1} union Q]) the value f(x2)
    is additionally pinned to limit_value(x2, x1, Q): f is the face minimizer
    of limit_value scaled by 1/rho(x1, Q).  Its norm identity with
    1/rho(x1, Q) is verified, not assumed.
    """
    x1 = as_vector(x1, dim=Q.ambient_dim)
    res = _rho_outside(x1, Q, norm)
    if x2 is not None:
        x2 = as_vector(x2, dim=Q.ambient_dim)
        # x2's residual off span[{x1} + Q]: off Q, then off x1's residual r1
        r1, r2 = Q.residual(x1), Q.residual(x2)
        off = float(np.linalg.norm(r2 - r1 * (float(r1 @ r2) / float(r1 @ r1))))
        if off <= FUNC_TOL * float(np.linalg.norm(x2)):
            raise FunctionalError(
                f"x2 lies in span[{{x1}} + Q] within tolerance (residual = {off:.3e})"
            )
    g = _face_minimizer(res, x1, Q, norm, x2)
    d = g / float(g @ x1)
    dn = dual_norm(d, norm)
    if abs(dn * res.value - 1.0) > NORMING_TOL:
        raise SolverError(
            f"norming identity violated: |f| * rho(x1, Q) = {dn * res.value!r}, expected 1"
        )
    return Functional(dual_vector=d, dual_norm_value=dn)

