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

    python3 scripts/reflexivity_study.py [--p 1 1.5 2 3 inf] [--m 8 16 32 64]
"""

import argparse
import math

import numpy as np

from lethargy import NormSpec, Subspace, norm_eval, rho


def functional(p: float, m: int) -> np.ndarray:
    k = np.arange(1, m + 1, dtype=float)
    return 1.0 - 2.0**-k if p == 1.0 else 2.0**-k


def residual(p: float, m: int) -> tuple[np.ndarray, float]:
    """x - w and rho(x, ker f) on (R^m, |.|_p), x = e_1."""
    f = functional(p, m)
    Y = Subspace(np.linalg.svd(f[None, :])[2][1:].T)  # orthonormal basis of ker f
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


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--p", type=float, nargs="+", default=[1.0, 1.5, 2.0, 3.0, math.inf])
    ap.add_argument("--m", type=int, nargs="+", default=[8, 16, 32, 64])
    args = ap.parse_args()
    print("p      " + "".join(f"m = {m:<9d}" for m in args.m))
    for p in args.p:
        print(f"{p:<7g}" + "".join(f"{v:<13.3e}" for v in residual_steps(p, args.m)))


if __name__ == "__main__":
    main()
