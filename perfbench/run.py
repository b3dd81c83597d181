"""tetrachain benchmark: run one workload, check every output, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every operation is a fresh process
(``python -m tetrachain.cli ...`` with ``PYTHONPATH=src``, or the noclosure
driver), started one at a time from this process.  A pass runs every
operation once; a run makes round(S / t1) passes (at least one), t1 the
first pass's wall time, so it measures whole passes for about S seconds.
Each pass is checked after it ends, outside its timing.

--trace 0 reports the end-to-end metrics; --trace 1 adds one traced pass
(each operation started through tracer.py) and reports the per-layer
metrics of that pass.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / ".out"
OUT_REL = "perfbench/.out"

SETUP_SAMPLES = 5
RUN_LIMIT_S = 170  # every run ends well inside 180 s


@dataclass
class OpRun:
    wall: float
    cpu: float
    maxrss_kib: int
    rc: int
    stdout_path: Path
    stderr_path: Path


@dataclass
class Pass:
    wall: float
    runs: list[OpRun]


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def spawn(self, cmd: list[str], tag: str) -> OpRun:
        """Run one process to its end; wall time, CPU and max RSS come from wait4."""
        stdout_path, stderr_path = OUT / f"{tag}.stdout", OUT / f"{tag}.stderr"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise TimeoutError("run time limit reached")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return OpRun(
            wall=wall,
            cpu=usage.ru_utime + usage.ru_stime,
            maxrss_kib=usage.ru_maxrss,
            rc=proc.returncode,
            stdout_path=stdout_path,
            stderr_path=stderr_path,
        )

    def cli(self, *argv: str, tag: str) -> OpRun:
        return self.spawn([sys.executable, "-m", "tetrachain.cli", *argv], tag)

    def op(self, op: Op, index: int, spans: Path | None) -> OpRun:
        tag = f"op{index:02d}"
        if spans is None:
            if op.driver:
                return self.spawn([sys.executable, str(BENCH / "noclosure_driver.py"), *op.argv], tag)
            return self.cli(*op.argv, tag=tag)
        target = "noclosure" if op.driver else "cli"
        cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(index), target, *op.argv]
        return self.spawn(cmd, tag)

    def run_pass(self, workload: Workload, traced: bool) -> Pass:
        runs = []
        start = time.perf_counter()
        for i, op in enumerate(workload.ops):
            spans = OUT / f"op{i:02d}.spans" if traced else None
            runs.append(self.op(op, i, spans))
        return Pass(time.perf_counter() - start, runs)


class Tally:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def check_pass(self, workload: Workload, p: Pass) -> None:
        for op, run in zip(workload.ops, p.runs):
            self.attempted += 1
            outcome = op.outcome(read_output(op, run))
            if outcome != "ok":
                self.failed += 1
            if outcome not in ("ok", "fault"):
                self.correct = False
                print(f"CHECK FAILED {op.name} (exit {run.rc}): {outcome}", file=sys.stderr)
                print(run.stderr_path.read_text()[-2000:], file=sys.stderr)


def read_output(op: Op, run: OpRun) -> checks.Output:
    return checks.Output(
        rc=run.rc,
        stdout=run.stdout_path.read_text(),
        stderr=run.stderr_path.read_text(),
        files={k: (ROOT / v).read_text() for k, v in op.files.items() if run.rc == 0},
    )


def output_bytes(workload: Workload, p: Pass) -> int:
    """Bytes the CLI operations wrote: stdout plus their output files."""
    total = 0
    for op, run in zip(workload.ops, p.runs):
        if not op.driver:
            total += run.stdout_path.stat().st_size
            total += sum((ROOT / path).stat().st_size for path in op.files.values() if run.rc == 0)
    return total


def end_to_end(passes: list[Pass], setup: list[float]) -> dict:
    return {
        "wall_s": (statistics.median(p.wall for p in passes), "s"),
        "cpu_s": (statistics.median(sum(r.cpu for r in p.runs) for p in passes), "s"),
        "op_max_s": (statistics.median(max(r.wall for r in p.runs) for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (max(r.maxrss_kib for p in passes for r in p.runs) / 1024, "MiB"),
    }


def per_layer(workload: Workload, p: Pass) -> dict:
    t = tracer.LayerTotals()
    for i in range(len(workload.ops)):
        t.add_file(str(OUT / f"op{i:02d}.spans"))
    m = {f"{layer}.self_s": (t.layer_self_s(layer), "s") for layer in tracer.LAYERS}
    m.update(
        {
            "embedding.pairs_per_s": (t.rate("embedding.verify_embedded"), "1/s"),
            "embedding.pairs_tested": (t.notes["embedding.verify_embedded"], "count"),
            "embedding.pairs_nonadjacent": (workload.nonadjacent_pairs, "count"),
            "geometry.tetrahedra": (t.notes["geometry.realize_chain"], "count"),
            "geometry.tetrahedra_per_s": (t.rate("geometry.realize_chain"), "1/s"),
            "geometry.apply_bary.calls": (t.calls["geometry.apply_bary"], "count"),
            "bary.chain_matrix.calls": (t.calls["bary.chain_matrix"], "count"),
            "bary.letters": (t.notes["bary.chain_matrix"], "count"),
            "bary.letters_per_s": (t.rate("bary.chain_matrix"), "1/s"),
            "bary.matmul.calls": (t.calls[tracer.MATMUL], "count"),
            "metrics.hausdorff.calls": (t.calls["metrics.hausdorff_tetra"], "count"),
            "metrics.hausdorff_per_s": (t.rate("metrics.hausdorff_tetra"), "1/s"),
            "metrics.spectral_norm.calls": (t.calls["metrics.spectral_norm"], "count"),
            "precision.calls": (t.layer_calls("precision"), "count"),
            "motion.calls": (t.layer_calls("motion"), "count"),
            "search.calls": (t.layer_calls("search"), "count"),
            "cli.bytes_out": (output_bytes(workload, p), "count"),
        }
    )
    return m


def prepare(name: str, seed: int) -> Workload:
    """An empty output directory, the workload, and its input files written."""
    OUT.mkdir(exist_ok=True)
    for stale in OUT.iterdir():
        stale.unlink()
    workload = WORKLOADS[name](seed, OUT_REL)
    for path, text in workload.inputs.items():
        (ROOT / path).write_text(text)
    return workload


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tetrachain" / "cli.py").is_file():
        print(f"perfbench: no tetrachain sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(deadline=time.monotonic() + RUN_LIMIT_S)
    workload = prepare(args.workload, args.seed)

    # the first start compiles bytecode caches; users do not pay that each time
    if runner.cli("--version", tag="version").rc != 0:
        print("perfbench: `python -m tetrachain.cli --version` failed", file=sys.stderr)
        return 2
    setup = []
    if not args.trace:
        setup = [runner.cli("--version", tag="version").wall for _ in range(SETUP_SAMPLES)]

    tally = Tally()
    passes = [runner.run_pass(workload, traced=False)]
    tally.check_pass(workload, passes[0])
    # whole passes, about --seconds of them, counted from the first pass's time
    while len(passes) < round(args.seconds / passes[0].wall):
        passes.append(runner.run_pass(workload, traced=False))
        tally.check_pass(workload, passes[-1])
    if args.trace:
        traced = runner.run_pass(workload, traced=True)
        tally.check_pass(workload, traced)
        metrics = per_layer(workload, traced)
        untraced = statistics.median(p.wall for p in passes)
        print(
            f"tracing overhead: traced pass {traced.wall:.3f} s, untraced median "
            f"{untraced:.3f} s, overhead {traced.wall - untraced:.3f} s "
            f"({100 * (traced.wall / untraced - 1):.1f}%)"
        )
    else:
        metrics = end_to_end(passes, setup)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced passes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:.6g} {unit}")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
