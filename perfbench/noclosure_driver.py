"""Divisibility witnesses for a file of reflection strings, one per line.

    PYTHONPATH=src python perfbench/noclosure_driver.py INPUT

For every string it prints ``numerator power row col is_permutation`` of
``bary.divisibility_witness``: the witness entry of the chain product,
which is never divisible by 3, so no chain closes exactly.
"""

from __future__ import annotations

import sys

from tetrachain.bary import divisibility_witness
from tetrachain.strings import parse_string


def main(argv: list[str]) -> int:
    (path,) = argv
    with open(path) as f:
        strings = f.read().split()
    lines = []
    for text in strings:
        w = divisibility_witness(parse_string(text))
        lines.append(f"{w.numerator} {w.power} {w.row} {w.col} {int(w.is_permutation)}\n")
    sys.stdout.writelines(lines)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
