#!/usr/bin/env python3
"""Check interior-disjointness across a range of chains and loops."""

import argparse
import time

from tetrachain.embedding import verify_embedded
from tetrachain.geometry import realize_chain
from tetrachain.precision import RealCtx
from tetrachain.strings import octahelix_runs, quadrahelix_runs, spell


def _verdict_line(label, chain):
    t0 = time.perf_counter()
    v = verify_embedded(chain)
    dt = time.perf_counter() - t0
    status = "embedded" if v.embedded else f"OVERLAP at {v.first_violation}"
    print(
        f"  {label:<8} {len(chain.tetrahedra):>5} tets  {v.pairs_tested:>7} pairs"
        f"  {status:<20} ({dt:.2f}s)"
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--digits", type=int, default=40)
    ap.add_argument("--qh-max", type=int, default=40, help="largest open chain")
    ap.add_argument(
        "--oh", type=int, nargs="*", default=[1, 4, 5, 6, 36], help="loop sizes"
    )
    args = ap.parse_args()

    ctx = RealCtx(digits=args.digits)

    print("open chains:")
    for L in range(1, args.qh_max + 1):
        chain = realize_chain(spell(quadrahelix_runs(L)), ctx)
        v = verify_embedded(chain)
        if not v.embedded:
            print(f"  QH {L}: OVERLAP at {v.first_violation}")
            break
    else:
        print(f"  QH 1..{args.qh_max}: all embedded")

    print("loops:")
    for L in args.oh:
        _verdict_line(f"OH {L}", realize_chain(spell(octahelix_runs(L)), ctx))


if __name__ == "__main__":
    main()
