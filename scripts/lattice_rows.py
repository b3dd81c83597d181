#!/usr/bin/env python3
"""Reproduce the lattice-reduction approximation table, then stress the
search on random inputs.

The table solves x*theta + y*(2*pi) ~ gamma for growing scale cutoffs
X = 10^2 .. 10^6.5.  Each row's x names the octahelix OH_x, whose least gap
is printed beside the bound 3*x*delta_bar^2 it must stay under.  The random
trials report how often the heuristic lands inside the Kronecker bound
err < 3|beta/x| on arbitrary well-scaled inputs.
"""

import argparse

from mpmath import mp

from tetrachain.motion import chain_gap, gap_bound_oh
from tetrachain.precision import RealCtx
from tetrachain.search import lattice_table, random_kronecker_trials
from tetrachain.strings import octahelix_runs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=60)
    ap.add_argument("--trials", type=int, default=200)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    ctx = RealCtx(digits=args.digits)
    print(
        f"{'X':>10}  {'x':>13}  {'y':>14}  {'log10 err':>10}  {'target':<11}"
        f"  {'OH_x gap':>10}  {'3x d^2':>10}"
    )
    with ctx.work():
        for X, sol in lattice_table(ctx):
            gap = chain_gap(octahelix_runs(sol.x), ctx)
            bound = gap_bound_oh(sol.x, ctx).bound
            print(
                f"{mp.nstr(X, 6):>10}  {sol.x:>13}  {sol.y:>14}"
                f"  {mp.nstr(mp.log10(sol.err), 4):>10}  {sol.target:<11}"
                f"  {mp.nstr(gap, 4):>10}  {mp.nstr(bound, 4):>10}"
            )

    if args.trials:
        stats = random_kronecker_trials(args.trials, seed=args.seed, ctx=ctx)
        rate = stats["kronecker_ok"] / max(1, stats["trials"] - stats["zero_x"])
        print(
            f"\nrandom health check: {stats['kronecker_ok']}/{stats['trials']} "
            f"inside the bound ({rate:.1%}; {stats['zero_x']} degenerate x=0)"
        )


if __name__ == "__main__":
    main()
