"""Closure metrics: Hausdorff distances, operator norms, and gap reports.

The gap of a chain (how far its last tetrahedron sits from the invisible
first one) is a Hausdorff distance between two solid tetrahedra.  Because
point-to-convex-set distance is a convex function of the point, the directed
Hausdorff distance between convex bodies is attained at an extreme point, so
a max over the four source vertices of point-to-solid-tetrahedron distance
is exact -- no sampling or derivative chasing involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from . import bary
from .geometry import Tetrahedron, _sub, apply_bary, invisible_t0
from .precision import Constants, RealCtx
from .strings import rotate


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _dist(a, b):
    d = _sub(a, b)
    return mp.sqrt(_dot(d, d))


def point_to_triangle(p, a, b, c):
    """Distance from p to the solid triangle abc (Voronoi-region walk)."""
    ab = _sub(b, a)
    ac = _sub(c, a)
    ap = _sub(p, a)
    d1 = _dot(ab, ap)
    d2 = _dot(ac, ap)
    if d1 <= 0 and d2 <= 0:
        return _dist(p, a)
    bp = _sub(p, b)
    d3 = _dot(ab, bp)
    d4 = _dot(ac, bp)
    if d3 >= 0 and d4 <= d3:
        return _dist(p, b)
    vc = d1 * d4 - d3 * d2
    if vc <= 0 and d1 >= 0 and d3 <= 0:
        v = d1 / (d1 - d3)
        q = (a[0] + v * ab[0], a[1] + v * ab[1], a[2] + v * ab[2])
        return _dist(p, q)
    cp = _sub(p, c)
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return _dist(p, c)
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        w = d2 / (d2 - d6)
        q = (a[0] + w * ac[0], a[1] + w * ac[1], a[2] + w * ac[2])
        return _dist(p, q)
    va = d3 * d6 - d4 * d5
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        bc = _sub(c, b)
        q = (b[0] + w * bc[0], b[1] + w * bc[1], b[2] + w * bc[2])
        return _dist(p, q)
    denom = va + vb + vc
    v = vb / denom
    w = vc / denom
    q = (
        a[0] + ab[0] * v + ac[0] * w,
        a[1] + ab[1] * v + ac[1] * w,
        a[2] + ab[2] * v + ac[2] * w,
    )
    return _dist(p, q)


def _solve3(M, rhs):
    """Solve a 3x3 system by Gaussian elimination with partial pivoting."""
    A = [list(M[i]) + [rhs[i]] for i in range(3)]
    for col in range(3):
        piv = max(range(col, 3), key=lambda r: abs(A[r][col]))
        if A[piv][col] == 0:
            raise ZeroDivisionError("singular tetrahedron frame")
        A[col], A[piv] = A[piv], A[col]
        for r in range(3):
            if r != col:
                f = A[r][col] / A[col][col]
                for k in range(col, 4):
                    A[r][k] -= f * A[col][k]
    return [A[i][3] / A[i][i] for i in range(3)]


def point_to_tetra(p, t: Tetrahedron):
    """Distance from p to the solid tetrahedron (0 when p is inside)."""
    v0, v1, v2, v3 = t.vertices
    cols = [_sub(v1, v0), _sub(v2, v0), _sub(v3, v0)]
    M = [[cols[j][i] for j in range(3)] for i in range(3)]
    lam = _solve3(M, _sub(p, v0))
    if min(lam) >= 0 and sum(lam) <= 1:
        return mpf(0)
    faces = ((v1, v2, v3), (v0, v2, v3), (v0, v1, v3), (v0, v1, v2))
    return min(point_to_triangle(p, *f) for f in faces)


def directed_hausdorff(a: Tetrahedron, b: Tetrahedron):
    return max(point_to_tetra(v, b) for v in a.vertices)


def hausdorff_tetra(a: Tetrahedron, b: Tetrahedron):
    """Exact Hausdorff distance between two solid tetrahedra."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def discrete_hausdorff(a: Tetrahedron, b: Tetrahedron):
    """Vertex-set Hausdorff distance: an upper bound for the solid one.

    Both directed vertex-to-nearest-vertex distances are taken, then the max.
    Note this equals the solid distance only in the directed-source sense; as
    a symmetric quantity it is simply >= hausdorff_tetra.
    """

    def one_way(xs, ys):
        return max(min(_dist(x, y) for y in ys) for x in xs)

    return max(one_way(a.vertices, b.vertices), one_way(b.vertices, a.vertices))


def minus_identity(M) -> list:
    """M - I for a square matrix given as rows."""
    return [
        [x - (1 if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(M)
    ]


def maxnorm(M) -> mpf:
    return max(abs(x) for row in M for x in row)


def spectral_norm(M, ctx: RealCtx) -> mpf:
    """Largest singular value via the symmetric eigenproblem on M^T M."""
    n = len(M)
    with ctx.work():
        mt = mp.matrix(n)
        for i in range(n):
            for j in range(n):
                mt[i, j] = sum(M[k][i] * M[k][j] for k in range(n))
        eigs = mp.eigsy(mt, eigvals_only=True)
        top = max(eigs)
        if top < 0:  # eigenvalue noise around zero
            top = mpf(0)
        return mp.sqrt(top)


@dataclass(frozen=True)
class GapReport:
    """Closure metrics of one chain, minimized over the free leading face."""

    gap: mpf
    norm_gap: mpf
    maxnorm_gap: mpf
    discrete_gap: mpf
    r0: int
    delta_bar: mpf | None = None

    def to_json_dict(self) -> dict:
        return {
            "gap": float(self.gap),
            "norm_gap": float(self.norm_gap),
            "maxnorm_gap": float(self.maxnorm_gap),
            "discrete_gap": float(self.discrete_gap),
            "r0": self.r0,
            "delta_bar": None if self.delta_bar is None else float(self.delta_bar),
        }

    CSV_HEADER = "gap,norm_gap,maxnorm_gap,discrete_gap,r0,delta_bar"

    def to_csv_row(self) -> str:
        d = "" if self.delta_bar is None else repr(float(self.delta_bar))
        return (
            f"{float(self.gap)!r},{float(self.norm_gap)!r},"
            f"{float(self.maxnorm_gap)!r},{float(self.discrete_gap)!r},"
            f"{self.r0},{d}"
        )


def lead_minimized_report(matrices: dict, c: Constants, r0: int | None = None) -> GapReport:
    """Gap metrics minimized over the leading faces in matrices (face -> (K, K - I)).

    The report carries the minimum Hausdorff gap (ties broken by smallest
    face) and the minimum norms; passing r0 pins the leading face instead.
    """
    if r0 is not None:
        if r0 not in matrices:
            raise ValueError(f"leading face {r0} collides with the second symbol")
        matrices = {r0: matrices[r0]}
    ctx = c.ctx
    with ctx.work():
        t0 = invisible_t0(c)
        best = None
        norms, maxnorms = [], []
        for lead, (K, diff) in sorted(matrices.items()):
            tn = apply_bary(t0, K)
            gap = hausdorff_tetra(t0, tn)
            norms.append(spectral_norm(diff, ctx))
            maxnorms.append(maxnorm(diff))
            if best is None or gap < best[0]:
                best = (gap, lead, tn)
        gap, lead, tn = best
        return GapReport(
            gap=gap,
            norm_gap=min(norms),
            maxnorm_gap=min(maxnorms),
            discrete_gap=discrete_hausdorff(t0, tn),
            r0=lead,
        )


def gap_report(s, c: Constants, r0: int | None = None) -> GapReport:
    """Evaluate a printed string on its exact products, its first symbol free.

    All three legal leading faces r0 != s[1] are tried; passing r0 pins one.
    """
    s = tuple(s)
    if len(s) < 2:
        raise ValueError("gap_report needs a string of length >= 2")
    ctx = c.ctx
    matrices = {
        lead: (K.to_mpf(ctx), bary.matrix_minus_identity_mpf(K, ctx))
        for lead, K in bary.lead_matrices(bary.chain_matrix(s), s[0], s[1]).items()
    }
    return lead_minimized_report(matrices, c, r0)


@dataclass(frozen=True)
class LoopGapReport:
    """Gap of a closed loop: the printed cut and the best cyclic cut."""

    printed: GapReport
    best: GapReport
    best_cut: int
    n_cuts_below_printed: int

    def to_json_dict(self) -> dict:
        return {
            "printed": self.printed.to_json_dict(),
            "best": self.best.to_json_dict(),
            "best_cut": self.best_cut,
            "n_cuts_below_printed": self.n_cuts_below_printed,
        }


def loop_gap_report(s, c: Constants) -> LoopGapReport:
    """Minimize the gap of a cyclic string over all rotations of its cut point.

    A closed loop has no distinguished first tetrahedron, so each rotation is
    a legitimate reading of the same loop.  The product of each cut is
    updated incrementally: moving the cut past letter i conjugates it by the
    involution M_i.
    """
    s = tuple(s)
    n = len(s)
    if n < 3 or s[0] == s[-1]:
        raise ValueError("loop strings must be cyclically valid")
    ctx = c.ctx
    with ctx.work():
        t0 = invisible_t0(c)
        K = bary.chain_matrix(s)
        gaps = []
        for cut in range(n):
            leads = bary.lead_matrices(K, s[cut], s[(cut + 1) % n]).values()
            gaps.append(min(hausdorff_tetra(t0, apply_bary(t0, Kr.to_mpf(ctx))) for Kr in leads))
            M = bary.reflection_matrix(s[cut])
            K = M @ K @ M
        best_cut = min(range(n), key=lambda i: (gaps[i], i))
        printed = gap_report(s, c)
        return LoopGapReport(
            printed=printed,
            best=gap_report(rotate(s, best_cut), c),
            best_cut=best_cut,
            n_cuts_below_printed=sum(1 for g in gaps if g < printed.gap),
        )
