"""Traced start of one benchmark operation, and the reader of its spans.

Run as a script, it wraps every public function of the tetrachain modules,
plus ``BaryMatrix.__matmul__``, in a span recorder, replacing each function
in every tetrachain module that holds it (``cli`` and ``motion`` import
functions by name).  It then runs the operation, either ``cli.main(argv)``
or the noclosure driver, and writes the spans when the operation ends:

    python perfbench/tracer.py SPANS OP_ID cli ARG...
    python perfbench/tracer.py SPANS OP_ID noclosure INPUT

A span is (name, parent, start, end, note); ``note`` is a count taken from
the call: letters multiplied by ``chain_matrix``, tetrahedra realized by
``realize_chain`` and pairs tested by ``verify_embedded``.  Nothing inside
``src/`` is changed: the spans are taken at the module boundaries from here.

Imported, it only reads span files: the program is imported by ``main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "strings",
    "precision",
    "bary",
    "geometry",
    "metrics",
    "embedding",
    "search",
    "motion",
    "cli",
)

# span name -> count taken from (args, result) of a call that returned
NOTES = {
    "bary.chain_matrix": lambda args, result: len(args[0]),
    "geometry.realize_chain": lambda args, result: len(result.tetrahedra),
    "embedding.verify_embedded": lambda args, result: result.pairs_tested,
}

MATMUL = "bary.BaryMatrix.__matmul__"


class Tracer:
    """Spans of one operation, kept in memory until it ends."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.names: list[str] = []
        self.spans: list = []
        self.stack = [-1]

    def wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        note = NOTES.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            done = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = clock()
                stack.pop()
                n = note(args, result) if done and note is not None else 0
                spans[idx] = (name_id, parent, start, end, n)

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("tetrachain")
        modules = {m: importlib.import_module(f"tetrachain.{m}") for m in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[obj] = self.wrap(obj, f"{layer}.{attr}")
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
        matrix = modules["bary"].BaryMatrix
        matrix.__matmul__ = self.wrap(matrix.__matmul__, MATMUL)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(json.dumps({"op": self.op_id, "names": self.names}) + "\n")
            f.writelines(f"{self.op_id} {n} {p} {s} {e} {c}\n" for n, p, s, e, c in self.spans)


def main(argv: list[str]) -> int:
    spans_path, op_id, target, *rest = argv
    tracer = Tracer(int(op_id))
    tracer.install()
    try:
        if target == "cli":
            from tetrachain import cli

            return cli.main(rest)
        import noclosure_driver

        return noclosure_driver.main(rest)
    finally:
        tracer.write(spans_path)


# --- reading spans -----------------------------------------------------------------


class LayerTotals:
    """Per-name call counts, inclusive and self times, and notes over many operations."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl_ns = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.notes = defaultdict(int)

    def add_file(self, path: str) -> None:
        with open(path) as f:
            names = json.loads(f.readline())["names"]
            rows = [tuple(map(int, line.split()[1:])) for line in f]
        child_ns = [0] * len(rows)
        for _, parent, start, end, _ in rows:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (n, parent, start, end, note) in enumerate(rows):
            name = names[n]
            self.calls[name] += 1
            self.incl_ns[name] += end - start
            self.self_ns[name] += end - start - child_ns[i]
            self.notes[name] += note

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_ns.items() if k.split(".")[0] == layer) / 1e9

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.split(".")[0] == layer)

    def rate(self, name: str) -> float:
        """Notes (or calls, for names without notes) per second inside `name`."""
        work = self.notes[name] if name in NOTES else self.calls[name]
        return work / (self.incl_ns[name] / 1e9) if self.incl_ns[name] else 0.0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
