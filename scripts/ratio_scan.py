#!/usr/bin/env python3
"""Watch ||K - I|| / (L * delta^2) approach its limiting value.

For generic L the ratio wanders; along convergent denominators it settles
toward (8/25)*sqrt(3) ~ 0.5542563.  The scan prints both views: a dense
sweep of small L and the convergent subsequence.
"""

import argparse

from mpmath import mp

from tetrachain.motion import limit_matrix_norm, ratio_terms
from tetrachain.precision import RealCtx
from tetrachain.search import continued_fraction_convergents


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=40)
    ap.add_argument("--L-max", dest="L_max", type=int, default=120)
    ap.add_argument("--convergents", type=int, default=14)
    args = ap.parse_args()

    ctx = RealCtx(digits=args.digits)
    with ctx.work():
        limit = limit_matrix_norm(ctx)
        print(f"limit value: {mp.nstr(limit, 12)}\n")
        print("dense sweep:")
        for L in range(4, args.L_max + 1, max(1, args.L_max // 24)):
            r = ratio_terms(L, ctx)[2]
            print(f"  L={L:>6}  ratio={mp.nstr(r, 8)}")
        print("\nconvergent subsequence:")
        for conv in continued_fraction_convergents(ctx, args.convergents):
            if conv.L < 4:
                continue
            r = ratio_terms(conv.L, ctx)[2]
            off = abs(r - limit) / limit
            print(
                f"  L={conv.L:>8}  ratio={mp.nstr(r, 10)}  "
                f"rel. offset {mp.nstr(off, 3)}"
            )


if __name__ == "__main__":
    main()
