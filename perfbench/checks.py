"""Output checks: each compares one operation's output with reference.py or
with a property the paper states, never with a stored copy of earlier output.

A check takes an ``Output`` and raises ``CheckFailed`` on the first thing
that is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from mpmath import mp, mpf

import reference as R

TABLE1_L_MAX = 6163435


class CheckFailed(Exception):
    pass


@dataclass
class Output:
    rc: int
    stdout: str
    stderr: str
    files: dict[str, str]  # output name -> text of a file the operation wrote


def require(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def close(value, ref, rel: float) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def csv_rows(text: str, header: str) -> list[list[str]]:
    lines = text.splitlines()
    require(lines and lines[0] == header, f"header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _exit(out: Output, rc: int) -> None:
    require(out.rc == rc, f"exit code {out.rc}, expected {rc}")


# --- survey -----------------------------------------------------------------------


def table1(out: Output) -> None:
    """L and k from the reference continued fraction, delta_bar recomputed,
    gap <= ||K - I||_2 for the exactly multiplied rows and gap <= 5 L delta_bar^2
    for L >= 17."""
    _exit(out, 0)
    rows = csv_rows(out.stdout, "L,k,delta_bar,gap")
    convs = [(k, q) for k, q in R.convergents(21) if 1 <= q - 1 <= TABLE1_L_MAX]
    require(len(rows) == len(convs), f"{len(rows)} rows, expected {len(convs)}")
    for row, (k, q) in zip(rows, convs):
        L = q - 1
        require(int(row[0]) == L and int(row[1]) == k, f"row {row[:2]} is not L={L}, k={k}")
        delta, k_near = R.reduced_angle(q)
        require(k_near == k, f"L={L}: convergent numerator {k} is not nint(q theta / 2 pi)")
        require(close(mpf(row[2]), delta, 1e-7), f"L={L}: delta_bar {row[2]} != {delta}")
        gap = float(row[3])
        require(gap > 0, f"L={L}: gap {gap} is not positive")
        if L >= 17:
            require(gap <= 5 * L * delta**2, f"L={L}: gap {gap} > 5 L delta_bar^2")
        if L <= 2000:
            norm = min(n for n, _ in R.leading_norms(R.quadrahelix(L)).values())
            require(gap <= norm * (1 + 1e-9), f"L={L}: gap {gap} > ||K - I||_2 = {norm}")


def table2(out: Output) -> None:
    """(x, y) as in the paper's lattice table, errors recomputed against the
    nearer target angle and inside the Kronecker bound 3 * 2 pi / |x|."""
    _exit(out, 0)
    rows = csv_rows(out.stdout, "X,x,y,err,log10_err,kronecker_ok")
    require(len(rows) == len(R.LATTICE_ROWS), f"{len(rows)} rows, expected 10")
    for i, (row, (x, y, log_printed)) in enumerate(zip(rows, R.LATTICE_ROWS)):
        require(close(float(row[0]), 10 ** ((i + 4) / 2), 1e-5), f"row {i}: X = {row[0]}")
        require((int(row[1]), int(row[2])) == (x, y), f"row {i}: ({row[1]}, {row[2]}) != ({x}, {y})")
        err = R.lattice_error(x, y)
        require(close(mpf(row[3]), err, 1e-7), f"x={x}: err {row[3]} != {err}")
        require(abs(float(row[4]) - float(mp.log10(err))) < 1e-4, f"x={x}: log10_err {row[4]}")
        require(abs(mp.log10(err) - mpf(log_printed)) <= 0.05, f"x={x}: log10 err off the paper's {log_printed}")
        require(err < 3 * 2 * mp.pi / abs(x), f"x={x}: err {err} outside 3 * 2 pi / |x|")
        require(row[5] == "True", f"x={x}: kronecker_ok is {row[5]}")


def search_cf(count: int):
    def check(out: Output) -> None:
        """Convergents equal to the reference continued fraction, errors recomputed."""
        _exit(out, 0)
        rows = csv_rows(out.stdout, "k,q,L,err")
        convs = R.convergents(count)
        require(len(rows) == count, f"{len(rows)} convergents, expected {count}")
        with mp.workdps(R.DPS):
            x = R.theta() / (2 * mp.pi)
            for row, (k, q) in zip(rows, convs):
                require(list(map(int, row[:3])) == [k, q, q - 1], f"row {row[:3]} != {k},{q},{q - 1}")
                err = abs(x - mpf(k) / q)
                require(close(mpf(row[3]), err, 1e-7), f"q={q}: err {row[3]} != {err}")

    return check


def _gap_report(rep: dict, s: tuple, L: int) -> None:
    """A quadrahelix gap report against the reference products and 5 L delta_bar^2."""
    gap = rep["gap"]
    require(0 < gap <= rep["discrete_gap"] * (1 + 1e-12), f"gap {gap} vs discrete {rep['discrete_gap']}")
    if L >= 17:
        delta, _ = R.reduced_angle(L + 1)
        require(gap <= 5 * L * delta**2, f"gap {gap} > 5 L delta_bar^2")
    if len(s) > 8000:  # past QH_1960 the reference products take seconds
        return
    norms = R.leading_norms(s)
    require(rep["r0"] in norms, f"leading face {rep['r0']} collides with {s[1]}")
    norm = min(n for n, _ in norms.values())
    require(close(rep["norm_gap"], norm, 1e-9), f"norm_gap {rep['norm_gap']} != {norm}")
    maxnorm = min(m for _, m in norms.values())
    require(close(rep["maxnorm_gap"], maxnorm, 1e-12), f"maxnorm_gap {rep['maxnorm_gap']} != {maxnorm}")
    require(gap <= norm * (1 + 1e-9), f"gap {gap} > ||K - I||_2 = {norm}")


def gap_qh(L: int):
    def check(out: Output) -> None:
        """Gap of QH_L: the chain string, norms of the reference products, gap bounds."""
        _exit(out, 0)
        s = R.quadrahelix(L)
        payload = json.loads(out.stdout)
        require(payload["string"] == R.text(s) and payload["length"] == len(s), "chain string")
        require(payload["gap_report"]["delta_bar"] is None, "delta_bar set")
        _gap_report(payload["gap_report"], s, L)

    return check


_OBJ_FACES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


def mesh(text: str, s: tuple) -> None:
    """The OBJ mesh of a realized chain: unit edges, and each tetrahedron
    shares three vertices exactly with the one before, replacing the vertex
    of the reflected face."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    require(len(lines) == 9 * len(s), f"{len(lines)} mesh lines for {len(s)} tetrahedra")
    verts = []
    for n in range(len(s)):
        block = lines[9 * n : 9 * n + 9]
        require(block[0] == f"o tet_{n + 1:04d}", f"object line {block[0]!r}")
        require(all(b.startswith("v ") for b in block[1:5]), f"tet {n + 1}: vertex lines")
        verts.append([tuple(float(x) for x in b.split()[1:]) for b in block[1:5]])
        faces = [f"f {' '.join(str(4 * n + k) for k in f)}" for f in _OBJ_FACES]
        require(block[5:] == faces, f"tet {n + 1}: face lines")
    V = np.array(verts)
    edges = [V[:, j] - V[:, i] for i in range(4) for j in range(i + 1, 4)]
    worst = max(float(np.abs(np.linalg.norm(e, axis=1) - 1).max()) for e in edges)
    require(worst < 1e-9, f"edge length off 1 by {worst}")
    for n in range(1, len(s)):
        moved = [p for p in range(4) if verts[n][p] != verts[n - 1][p]]
        require(moved == [s[n] - 1], f"tet {n + 1} moved slots {moved}, expected face {s[n]}")


def build_qh(L: int):
    def check(out: Output) -> None:
        """Summary of QH_L as for `gap`, and its mesh."""
        _exit(out, 0)
        s = R.quadrahelix(L)
        payload = json.loads(out.stdout)
        require(payload["kind"] == "quadrahelix" and payload["param"] == L, "kind and param")
        require(payload["string"] == R.text(s) and payload["length"] == len(s), "chain string")
        require(payload["tetrahedra"] == len(s), f"{payload['tetrahedra']} tetrahedra")
        _gap_report(payload["gap_report"], s, L)
        mesh(out.files["mesh"], s)

    return check


def motion_qh(L: int):
    def check(out: Output) -> None:
        """R orthogonal with determinant 1, and the axis w a fixed unit vector of R."""
        _exit(out, 0)
        payload = json.loads(out.stdout)
        require(payload["string"] == R.text(R.quadrahelix(L)), "chain string")
        tol = mpf(10) ** -30
        with mp.workdps(60):
            rot = mp.matrix([[mpf(x) for x in row] for row in payload["R"]])
            require(mp.mnorm(rot.T * rot - mp.eye(3), 1) < tol, "R is not orthogonal")
            require(abs(mp.det(rot) - 1) < tol, "det R != 1")
            if payload["w"] is not None:
                w = mp.matrix([mpf(x) for x in payload["w"]])
                require(abs(mp.norm(w) - 1) < tol, "|w| != 1")
                require(mp.norm(rot * w - w) < tol, "R w != w")

    return check


def scan_ratio(L_max: int, sample: list[int]):
    def check(out: Output) -> None:
        """delta_bar recomputed, ratio = norm / (L delta_bar^2), and the norm
        equal to ||K - I||_2 of the reference product on a sample of L."""
        _exit(out, 0)
        rows = csv_rows(out.stdout, "L,delta_bar,norm_gap,ratio")
        require([int(r[0]) for r in rows] == list(range(4, L_max + 1)), "L column")
        for row in rows:
            L = int(row[0])
            delta, _ = R.reduced_angle(L + 1)
            require(close(mpf(row[1]), delta, 1e-7), f"L={L}: delta_bar {row[1]} != {delta}")
            norm, ratio = float(row[2]), float(row[3])
            require(close(ratio, norm / (L * float(delta) ** 2), 1e-6), f"L={L}: ratio {ratio}")
            if L in sample:
                ref = R.norm2(R.minus_identity(*R.product(R.quadrahelix(L))))
                require(close(norm, ref, 1e-7), f"L={L}: norm {norm} != {ref}")

    return check


# --- loop ---------------------------------------------------------------------------


def loop540(out: Output) -> None:
    """Best cut of the 540-loop: gap in [3.5e-18, 1.4e-17] and within
    ||K - I||_2 of the reference product at the reported cut."""
    _exit(out, 0)
    s = R.preset540()
    payload = json.loads(out.stdout)
    require(payload["string"] == R.text(s) and payload["length"] == 540, "loop string")
    loop = payload["loop"]
    best, printed, cut = loop["best"], loop["printed"], loop["best_cut"]
    require(3.5e-18 <= best["gap"] <= 1.4e-17, f"best gap {best['gap']}")
    require(0 <= cut < 540, f"best cut {cut}")
    norms = R.leading_norms(s[cut:] + s[:cut])
    require(best["r0"] in norms, f"leading face {best['r0']} at cut {cut}")
    require(best["gap"] <= norms[best["r0"]][0] * (1 + 1e-9), "best gap > ||K - I||_2")
    norm = min(n for n, _ in norms.values())
    require(close(best["norm_gap"], norm, 1e-9), f"best norm_gap {best['norm_gap']} != {norm}")
    require(printed["gap"] >= best["gap"], "printed cut beats the best cut")
    require(0 <= loop["n_cuts_below_printed"] < 540, "n_cuts_below_printed")


# --- embed --------------------------------------------------------------------------


def embed(s: tuple, overlap: tuple | None):
    def check(out: Output) -> None:
        """The published verdict: embedded and exit 0, or the first overlap and exit 4."""
        payload = json.loads(out.stdout)
        require(payload["string"] == R.text(s) and payload["length"] == len(s), "chain string")
        require(payload["adjacency_ok"] is True, "adjacent tetrahedra do not share a face")
        n = len(s)
        require(0 <= payload["pairs_tested"] <= (n - 1) * (n - 2) // 2, "pairs_tested")
        if overlap is None:
            _exit(out, 0)
            require(payload["embedded"] is True and payload["first_violation"] is None, "not embedded")
        else:
            _exit(out, 4)
            require(payload["embedded"] is False, "embedded")
            require(payload["first_violation"] == list(overlap), f"first violation {payload['first_violation']}")

    return check


# --- noclosure ----------------------------------------------------------------------


def noclosure(strings: list[tuple], sample: list[int]):
    def check(out: Output) -> None:
        """Every witness numerator is prime to 3 over 3^len(s), at the entry the
        witness names; sampled entries equal the reference products."""
        _exit(out, 0)
        lines = out.stdout.splitlines()
        require(len(lines) == len(strings), f"{len(lines)} witnesses for {len(strings)} strings")
        witnesses = [tuple(map(int, line.split())) for line in lines]
        for s, (num, power, row, col, perm) in zip(strings, witnesses):
            require(num % 3 != 0, f"{R.text(s)}: numerator {num} divisible by 3")
            require(power == len(s), f"{R.text(s)}: power {power}")
            require((row, col) == (1 if s[0] == 2 else 2, s[-1]), f"{R.text(s)}: entry {(row, col)}")
            require(perm == 0, f"{R.text(s)}: reported as a permutation")
        for i in sample:
            s, (num, _, row, col, _) = strings[i], witnesses[i]
            rows, power = R.product(s)
            require(rows[row - 1][col - 1] == num, f"{R.text(s)}: numerator != reference product")
            require(not R.is_permutation(rows, power), f"{R.text(s)}: reference product is a permutation")

    return check
