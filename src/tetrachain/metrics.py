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
from .geometry import Tetrahedron, _cross, _sub, apply_bary, dyadic_ints, invisible_t0
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


# gap_bounds' float64 error stays below 1e-13 of its upper bound; an absolute
# 2^(16 - prec) covers the rounding of the mpf gap it stands in for.
SCREEN_SLACK = 1e-9


def gap_bounds(t0: Tetrahedron, D) -> tuple[float, float]:
    """Float lower and upper bound on hausdorff_tetra(t0, apply_bary(t0, K)), for D = K - I.

    D is a BaryMatrix or mpf rows, taken exactly.  Vertex j moves by
    d_j = T_0 D_j: the gap is at most max |d_j| and at least the half-space
    distance of a moved vertex from a face of t0 through it, or of a vertex
    of t0 from a face of t0 K.  D is scaled by a power of two before it is
    rounded to float; where the bounds would leave the normal float range
    they are (0, inf).
    """
    if isinstance(D, bary.BaryMatrix):
        num, den = [x for row in D.num for x in row], 3**D.power
    else:
        num, low = dyadic_ints(x for row in D for x in row)
        num, den = (num, 1 << -low) if low < 0 else ([x << low for x in num], 1)
    top = max(abs(x) for x in num)
    scale = den.bit_length() - top.bit_length()  # 2^scale D has entries below 2
    if abs(scale) > 1000:
        return 0.0, float("inf")
    x = [(v << scale) / den if scale >= 0 else v / (den << -scale) for v in num]
    V = [tuple(map(float, v)) for v in t0.vertices]
    d = [tuple(sum(a * b for a, b in zip(axis, x[j::4])) for axis in zip(*V)) for j in range(4)]
    unit = 2.0**-scale
    moved = [tuple(a + unit * b for a, b in zip(v, dj)) for v, dj in zip(V, d)]
    lower = 0.0
    for W, e in ((V, d), (moved, [tuple(-a for a in dj) for dj in d])):
        for f in range(4):  # outward normal n of face f, through every vertex j != f
            a, b, c = (W[k] for k in range(4) if k != f)
            n = _cross(_sub(b, a), _sub(c, a))
            size = _dot(n, n) ** 0.5 * (-1 if _dot(n, _sub(W[f], a)) > 0 else 1)
            lower = max(lower, *(_dot(n, e[j]) / size for j in range(4) if j != f))
    upper = max(_dot(dj, dj) for dj in d) ** 0.5
    floor = 2.0 ** max(16 - mp.prec, -1000)
    return unit * (lower - SCREEN_SLACK * upper) - floor, unit * upper * (1 + SCREEN_SLACK) + floor


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
    Leads that gap_bounds rules out get no mpf gap.
    """
    if r0 is not None:
        if r0 not in matrices:
            raise ValueError(f"leading face {r0} collides with the second symbol")
        matrices = {r0: matrices[r0]}
    ctx = c.ctx
    with ctx.work():
        t0 = invisible_t0(c)
        bounds = {lead: gap_bounds(t0, diff) for lead, (_, diff) in matrices.items()}
        least_upper = min(hi for _, hi in bounds.values())
        best = None
        norms, maxnorms = [], []
        for lead, (K, diff) in sorted(matrices.items()):
            norms.append(spectral_norm(diff, ctx))
            maxnorms.append(maxnorm(diff))
            if bounds[lead][0] <= least_upper:
                tn = apply_bary(t0, K)
                gap = hausdorff_tetra(t0, tn)
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
        lead: (K.to_mpf(ctx), K.minus_identity().to_mpf(ctx))
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
    involution M_i.  A first walk keeps only each lead's gap_bounds; the second
    decides in mpf the gap of each cut that can hold the least gap or whose
    bounds straddle the printed gap, over the leads that can hold it.
    """
    s = tuple(s)
    n = len(s)
    if n < 3 or s[0] == s[-1]:
        raise ValueError("loop strings must be cyclically valid")

    def cuts():
        K = bary.chain_matrix(s)
        for cut in range(n):
            yield cut, K
            M = bary.reflection_matrix(s[cut])
            K = M @ K @ M

    def leads(cut, K):
        return bary.lead_matrices(K, s[cut], s[(cut + 1) % n]).items()

    printed = gap_report(s, c)
    with c.ctx.work():
        t0 = invisible_t0(c)
        bounds = [{r: gap_bounds(t0, L.minus_identity()) for r, L in leads(*cut)} for cut in cuts()]
        least_upper = min(hi for b in bounds for _, hi in b.values())
        below, best = 0, None
        for cut, K in cuts():
            lower, upper = map(min, zip(*bounds[cut].values()))
            if lower > least_upper and not lower <= printed.gap <= upper:
                below += upper < printed.gap
                continue
            gap = min(
                hausdorff_tetra(t0, apply_bary(t0, L.to_mpf(c.ctx)))
                for r, L in leads(cut, K)
                if bounds[cut][r][0] <= upper
            )
            below += gap < printed.gap
            if best is None or gap < best[0]:
                best = (gap, cut)
        return LoopGapReport(
            printed=printed,
            best=gap_report(rotate(s, best[1]), c),
            best_cut=best[1],
            n_cuts_below_printed=below,
        )
