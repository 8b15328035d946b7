#!/usr/bin/env python3
"""Watch best approximations on truncations of c0, l1 and lp as m grows.

On (R^m, |.|_p) take Y = ker f and x = e_1, with

  * p = inf  f = (2^-k),      a truncation of c0, whose dual l1 holds f;
  * p = 1    f = (1 - 2^-k),  a truncation of l1, whose dual l_inf holds f;
  * other p  f = (2^-k).

f attains its norm on R^m at the residual r_m = x - w_m of the best
approximant w_m: f(r_m) = |f|_* |r_m|.  On l2 the r_m converge, to the
residual that attains f's norm on the infinite sequence space, and so they
do on the other reflexive lp: with f = (2^-k) the limit residual has
entries proportional to 2^(-k/(p-1)), so the step from r_m to r_2m is
about 2^(-m/(p-1)).  At p = 1.5 the table shows 1.5e-5 and 2.3e-10 for
m = 8 and 16, then rounding, about 2e-16.  At p = 3 it shows 6.2e-2,
3.9e-3, 4.6e-5 and 5.5e-8, which leave 2^(-m/2) from m = 32 on: rho stops
at a certificate gap of 1e-13, which fixes the value, and with it the
entries of an l3 residual only down to about gap^(1/3) = 5e-5, where the
norm is flat to rounding.  On c0 and l1 no element of the infinite space
attains it (James: a Banach space is reflexive iff every functional
attains its norm), and the r_m never settle: at p = inf r_m is
rho (1, ..., 1), at p = 1 it is rho e_m.  (Entries of f that agree to
within the LP's tolerances, 2^-k for k above about 24, tie in practice, and
the solver may spread r_m over them or leave r_m free there: the distances
stay apart by about rho all the same.)  The table shows
|r_m - r_2m|_p / rho(x, ker f on R^2m), with r_m padded by zeros to length 2m.

The lethargy construction shows the same dichotomy.  On the chain
{0} c ker f with tied targets (1, 1), finite_construct's x_m has
|x_m| = rho(x_m, ker f) = 1, so f attains its norm at x_m.  The second table
shows |x_m - x_2m|_p, x_m padded by zeros and its sign fixed by its entry of
largest magnitude, at tol 1e-9.  For m = 8, 16, 32 it falls, to 2.3e-10
(p = 2) and 4.6e-5 (p = 3), and stays at 2.0, 2.0, 1.7 at p = 1.  At
p = 1.5 it reads 1.526e-05, 2.328e-10 and 1.488e-16, as the residual
table does: 2^(-2m), then rounding.  The tied level's root, the minimizer
of a function flat to second order, is exactly 0, taken with no solve,
since after the recentre |x| = rho(x, ker f) already.  At p = inf the
m = 8 step is 1.0, and x_32 stops at "tolerance not met": the LP's 1e-7
tolerances on the near-tied entries of f leave rho about 1.7e-8 off, and
such a step prints as nan.

    python3 scripts/reflexivity_study.py [--p 1 1.5 2 3 inf] [--m 8 16 32 64]
"""

import argparse
import math

import numpy as np

from lethargy import (Chain, ConstructionError, ConstructOptions, NormSpec, Subspace,
                      TargetSequence, finite_construct, norm_eval, rho)


def functional(p: float, m: int) -> np.ndarray:
    k = np.arange(1, m + 1, dtype=float)
    return 1.0 - 2.0**-k if p == 1.0 else 2.0**-k


def kernel(p: float, m: int) -> Subspace:
    """ker f, from the orthonormal basis that f's SVD gives."""
    return Subspace(np.linalg.svd(functional(p, m)[None, :])[2][1:].T)


def residual(p: float, m: int) -> tuple[np.ndarray, float]:
    """x - w and rho(x, ker f) on (R^m, |.|_p), x = e_1."""
    Y = kernel(p, m)
    x = np.eye(m)[0]
    res = rho(x, Y, NormSpec(p))
    return x - res.witness(Y), res.value


def residual_steps(p: float, ms) -> list[float]:
    """|r_m - r_2m|_p / rho(x, ker f) on R^2m, for each m."""
    out = []
    for m in ms:
        r, _ = residual(p, m)
        r2, rho2 = residual(p, 2 * m)
        out.append(norm_eval(np.pad(r, (0, m)) - r2, NormSpec(p)) / rho2)
    return out


def lethargy_element(p: float, m: int) -> np.ndarray:
    """finite_construct's x with |x|_p = rho(x, ker f) = 1 on (R^m, |.|_p),
    from the chain {0} c ker f and the tied targets (1, 1), with its sign
    set so that its first entry of largest magnitude is positive."""
    chain = Chain(m, NormSpec(p), (Subspace.zero(m), kernel(p, m)))
    x = finite_construct(chain, TargetSequence((1.0, 1.0)), ConstructOptions(tol=1e-9)).x
    return x if x[np.argmax(np.abs(x))] > 0 else -x


def lethargy_steps(p: float, ms) -> list[float]:
    """|x_m - x_2m|_p for the lethargy elements x_m, x_m padded by zeros."""
    return [norm_eval(np.pad(lethargy_element(p, m), (0, m)) - lethargy_element(p, 2 * m),
                      NormSpec(p)) for m in ms]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--p", type=float, nargs="+", default=[1.0, 1.5, 2.0, 3.0, math.inf])
    ap.add_argument("--m", type=int, nargs="+", default=[8, 16, 32, 64])
    args = ap.parse_args()
    print("p      " + "".join(f"m = {m:<9d}" for m in args.m))
    for p in args.p:
        print(f"{p:<7g}" + "".join(f"{v:<13.3e}" for v in residual_steps(p, args.m)))
    print("\n|x_m - x_2m|_p, lethargy elements on {0} c ker f, targets (1, 1)")
    print("p      " + "".join(f"m = {m:<9d}" for m in args.m))
    for p in args.p:
        steps = []
        for m in args.m:
            try:
                steps.append(lethargy_steps(p, [m])[0])
            except ConstructionError:
                steps.append(math.nan)
        print(f"{p:<7g}" + "".join(f"{v:<13.3e}" for v in steps))


if __name__ == "__main__":
    main()
