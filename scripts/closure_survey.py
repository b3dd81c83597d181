#!/usr/bin/env python3
"""Survey closure gaps over the convergent chain lengths.

Prints one row per convergent L up to --L-max with the reduced angle, the
measured gap (the exact products, or the run product past their limit), and the a-priori bound 5*L*delta^2, plus how
much slack the bound leaves.
"""

import argparse

from mpmath import mp

from tetrachain.motion import chain_gap, gap_bound_qh
from tetrachain.precision import RealCtx
from tetrachain.search import convergent_lengths
from tetrachain.strings import quadrahelix_runs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=40)
    ap.add_argument("--L-max", dest="L_max", type=int, default=6163435)
    args = ap.parse_args()

    ctx = RealCtx(digits=args.digits)
    print(f"{'L':>9}  {'delta_bar':>13}  {'gap':>13}  {'5*L*d^2':>13}  bound/gap")
    with ctx.work():
        for L in convergent_lengths(ctx, args.L_max):
            gap = chain_gap(quadrahelix_runs(L), ctx)
            qb = gap_bound_qh(L, ctx)
            delta, bound = qb.delta_bar, qb.bound
            ratio = bound / gap if gap > 0 else mp.inf
            print(
                f"{L:>9}  {mp.nstr(delta, 6):>13}  {mp.nstr(gap, 6):>13}"
                f"  {mp.nstr(bound, 6):>13}  {mp.nstr(ratio, 4):>9}"
            )


if __name__ == "__main__":
    main()
