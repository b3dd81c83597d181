"""Self-check of the output checks: each accepts the real output and rejects
a deliberately corrupted one.

    python3 perfbench/selfcheck.py

Runs one untraced pass of every workload (about a minute), then, for every
operation, feeds its check the real output and each corruption listed in
CORRUPTIONS.  Exits 1 if a check rejects a real output or accepts a
corrupted one.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from mpmath import mp, mpf

import reference as R
import run
from checks import Output
from workloads import WORKLOADS


def _json(edit):
    def corrupt(out: Output) -> Output:
        payload = json.loads(out.stdout)
        edit(payload)
        return dataclasses.replace(out, stdout=json.dumps(payload))

    return corrupt


def _csv(row: int, col: int, edit):
    def corrupt(out: Output) -> Output:
        lines = out.stdout.splitlines()
        cells = lines[row].split(",")
        cells[col] = edit(cells[col])
        lines[row] = ",".join(cells)
        return dataclasses.replace(out, stdout="\n".join(lines) + "\n")

    return corrupt


def _scaled(x: str, factor: float) -> str:
    return repr(float(x) * factor)


def _scan_ratio_at_29(out: Output) -> Output:
    # norm and ratio scaled together, so that only the reference product can tell
    lines = out.stdout.splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("29,"))
    L, delta, norm, ratio = lines[i].split(",")
    lines[i] = ",".join([L, delta, _scaled(norm, 1.001), _scaled(ratio, 1.001)])
    return dataclasses.replace(out, stdout="\n".join(lines) + "\n")


def _mesh_vertex(out: Output) -> Output:
    # a vertex tetrahedron 101 shares with tetrahedron 100 moves by 1e-12 in 101
    lines = out.files["mesh"].splitlines()
    start = lines.index("o tet_0101") + 1
    i = next(start + k for k in range(4) if lines[start + k] == lines[start + k - 9])
    x, y, z = map(float, lines[i].split()[1:])
    lines[i] = "v " + " ".join("%.17g" % c for c in (x + 1e-12, y, z))
    return dataclasses.replace(out, files={"mesh": "\n".join(lines) + "\n"})


def _witnesses(edit, every: int):
    def corrupt(out: Output) -> Output:
        lines = out.stdout.splitlines()
        for i in range(0, len(lines), every):
            num, *rest = lines[i].split()
            lines[i] = " ".join([str(edit(int(num))), *rest])
        return dataclasses.replace(out, stdout="\n".join(lines) + "\n")

    return corrupt


def _nudged(v: str) -> str:
    with mp.workdps(60):
        return mp.nstr(mpf(v) + mpf("1e-20"), 50)


def _set(path: list, value):
    def edit(payload):
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])

    return _json(edit)


def _embed_overlap(payload):
    payload.update(embedded=False, first_violation=[3, 9])


CORRUPTIONS = {
    "table1": [_csv(3, 1, lambda k: str(int(k) + 1)), _csv(5, 3, lambda g: _scaled(g, 1e3))],
    "table2": [_csv(2, 2, lambda y: str(int(y) - 1)), _csv(7, 3, lambda e: _scaled(e, 1.001))],
    "search-cf": [_csv(21, 1, lambda q: str(int(q) + 1)), _csv(9, 3, lambda e: _scaled(e, 1.01))],
    "gap QH_1960": [
        _set(["gap_report", "norm_gap"], lambda v: v * (1 + 1e-6)),
        _set(["gap_report", "gap"], lambda v: v * 10),
    ],
    "build QH_1960": [_mesh_vertex, _set(["tetrahedra"], lambda v: v - 1)],
    "motion QH_29": [_set(["R", 0, 0], _nudged)],
    "scan-ratio": [_scan_ratio_at_29, _csv(40, 1, lambda d: _scaled(d, 1.0001))],
    "gap QH_12019": [
        lambda out: dataclasses.replace(out, rc=1, stderr="Traceback (most recent call last):\n"),
    ],
    "gap preset540 --loop": [
        _set(["loop", "best", "gap"], lambda v: v * 10),
        _set(["loop", "best", "norm_gap"], lambda v: v * (1 + 1e-6)),
    ],
    "verify-embed overlap": [_set(["first_violation"], lambda v: [13, 32])],
    "verify-embed embedded": [
        lambda out: _json(_embed_overlap)(dataclasses.replace(out, rc=4)),
        _set(["string"], lambda v: v[::-1]),
    ],
}


def corruptions_for(op) -> list:
    if op.driver:
        # one numerator made divisible by 3; every numerator moved off the product
        return [_witnesses(lambda n: 3 * n, every=10**9), _witnesses(lambda n: n + 3, every=1)]
    if op.name.startswith("verify-embed"):
        overlap = op.name == "verify-embed octahelix 4"
        return CORRUPTIONS["verify-embed overlap" if overlap else "verify-embed embedded"]
    return CORRUPTIONS[op.name]


def main() -> int:
    bad = []
    for published_L, published in R.PUBLISHED_QH.items():
        if R.text(R.quadrahelix(published_L)) != published:
            bad.append(f"reference QH_{published_L} differs from the published string")
    for name in WORKLOADS:
        workload = run.prepare(name, seed=0)
        runner = run.Runner(deadline=time.monotonic() + 600)
        p = runner.run_pass(workload, traced=False)
        for op, op_run in zip(workload.ops, p.runs):
            out = run.read_output(op, op_run)
            real = op.outcome(out)
            if real not in ("ok", "fault"):
                bad.append(f"{name}/{op.name}: real output rejected: {real}")
                continue
            print(f"{name}/{op.name}: real output {real}")
            for i, corrupt in enumerate(corruptions_for(op)):
                outcome = op.outcome(corrupt(out))
                if outcome in ("ok", "fault"):
                    bad.append(f"{name}/{op.name}: corruption {i} accepted")
                print(f"    corruption {i}: {outcome[:100]}")
    for line in bad:
        print("SELFCHECK FAILED", line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
