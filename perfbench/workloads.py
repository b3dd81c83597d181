"""The benchmark's four workloads, built from a seed.

Each workload is a list of operations; each operation is one fresh process
of ``python -m tetrachain.cli ...`` (``noclosure``: of the noclosure
driver) with the check its output must pass.  The seed fixes the order of
the operations and the random strings of ``noclosure``; the amount of work
in a pass does not depend on it, so every count in a traced pass repeats
exactly from seed to seed.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

import checks
import reference as R

# verify-embed: QH_L over a spread of L up to 60, and the paper's octahelices;
# OH_4 is the loop that overlaps, first at tetrahedra (13, 31)
EMBED_QH = (1, 4, 10, 29, 60)
EMBED_OH = {4: (13, 31), 5: None, 6: None, 36: None}

# noclosure: every string up to EXHAUSTIVE_LEN letters, then RANDOM_PER_LENGTH
# random strings of each length 1..RANDOM_MAX_LEN
EXHAUSTIVE_LEN = 8
RANDOM_PER_LENGTH = 50
RANDOM_MAX_LEN = 50
CHECK_SAMPLE = 200

# `gap` routes no quadrahelix longer than L = 4999 to the closed form
QH_LIMIT_FAULT = "exceeds the exact-product limit"


@dataclass
class Op:
    name: str
    argv: list[str]  # CLI arguments, or the driver's when `driver` is set
    check: Callable[[checks.Output], None]
    fault: str | None = None  # stderr of a program fault this op hits today (exit 2)
    driver: bool = False
    files: dict[str, str] = field(default_factory=dict)  # output name -> path

    def outcome(self, out: checks.Output) -> str:
        """'ok', 'fault' for the known program fault, or why the output is wrong."""
        if self.fault is not None and out.rc == 2 and self.fault in out.stderr:
            return "fault"
        try:
            self.check(out)
        except (checks.CheckFailed, ValueError, KeyError, TypeError, IndexError) as e:
            return f"{type(e).__name__}: {e}"
        return "ok"


@dataclass
class Workload:
    ops: list[Op]
    inputs: dict[str, str] = field(default_factory=dict)  # path -> text to write before running
    nonadjacent_pairs: int = 0  # pairs of non-adjacent tetrahedra over the embed chains


def embed(seed: int, out_dir: str) -> Workload:
    ops, pairs = [], 0
    chains = [("quadrahelix", L, R.quadrahelix(L), None) for L in EMBED_QH]
    chains += [("octahelix", L, R.octahelix(L), hit) for L, hit in EMBED_OH.items()]
    for kind, L, s, overlap in chains:
        argv = ["verify-embed", "--kind", kind, "--L", str(L)]
        ops.append(Op(f"verify-embed {kind} {L}", argv, checks.embed(s, overlap)))
        pairs += (len(s) - 1) * (len(s) - 2) // 2
    random.Random(seed).shuffle(ops)
    return Workload(ops, nonadjacent_pairs=pairs)


def loop(seed: int, out_dir: str) -> Workload:
    argv = ["gap", "--kind", "preset540", "--loop"]
    return Workload([Op("gap preset540 --loop", argv, checks.loop540)])


def _qh(L: int) -> list[str]:
    return ["--kind", "quadrahelix", "--L", str(L)]


def survey(seed: int, out_dir: str) -> Workload:
    rng = random.Random(seed)
    mesh_path = f"{out_dir}/qh1960.obj"
    scan_sample = sorted({7, 10, 29, 40, 70, 182, *rng.sample(range(4, 201), 18)})
    ops = [
        Op("table1", ["table1"], checks.table1),
        Op("table2", ["table2", "--digits", "60"], checks.table2),
        Op("search-cf", ["search-cf", "--count", "21", "--digits", "60"], checks.search_cf(21)),
        Op("gap QH_1960", ["gap", *_qh(1960)], checks.gap_qh(1960)),
        Op(
            "build QH_1960",
            ["build", *_qh(1960), "--out", mesh_path],
            checks.build_qh(1960),
            files={"mesh": mesh_path},
        ),
        Op("motion QH_29", ["motion", *_qh(29)], checks.motion_qh(29)),
        Op("scan-ratio", ["scan-ratio", "--L-max", "200"], checks.scan_ratio(200, scan_sample)),
        Op("gap QH_12019", ["gap", *_qh(12019)], checks.gap_qh(12019), fault=QH_LIMIT_FAULT),
    ]
    rng.shuffle(ops)
    return Workload(ops)


def all_strings(max_len: int) -> list[tuple]:
    out = []
    for n in range(1, max_len + 1):
        for first in (1, 2, 3, 4):
            for steps in itertools.product((1, 2, 3), repeat=n - 1):
                s = [first]
                for d in steps:
                    s.append((s[-1] - 1 + d) % 4 + 1)
                out.append(tuple(s))
    return out


def random_string(rng: random.Random, n: int) -> tuple:
    s = [rng.randrange(1, 5)]
    while len(s) < n:
        s.append((s[-1] - 1 + rng.randrange(1, 4)) % 4 + 1)
    return tuple(s)


def noclosure(seed: int, out_dir: str) -> Workload:
    rng = random.Random(seed)
    strings = all_strings(EXHAUSTIVE_LEN)
    if len(strings) != sum(4 * 3 ** (n - 1) for n in range(1, EXHAUSTIVE_LEN + 1)):
        raise RuntimeError(f"{len(strings)} strings up to length {EXHAUSTIVE_LEN}")
    lengths = list(range(1, RANDOM_MAX_LEN + 1)) * RANDOM_PER_LENGTH
    rng.shuffle(lengths)
    strings += [random_string(rng, n) for n in lengths]
    sample = rng.sample(range(len(strings)), CHECK_SAMPLE)
    path = f"{out_dir}/noclosure_input.txt"
    op = Op("noclosure driver", [path], checks.noclosure(strings, sample), driver=True)
    return Workload([op], inputs={path: "".join(R.text(s) + "\n" for s in strings)})


WORKLOADS = {"embed": embed, "loop": loop, "survey": survey, "noclosure": noclosure}
