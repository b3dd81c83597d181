"""Embeddedness certification for realized chains.

Two convex polytopes have disjoint interiors iff a face normal or a cross
product of two edges is a separating axis (separating axis theorem, SAT).
Non-adjacent pairs of a chain are pruned with axis-aligned bounding boxes,
hashed into a uniform grid.  Each surviving pair (T_i, T_j), i < j, is
decided exactly in the affine frame of T_i: from bary.FRAME, T_i's
vertices in that frame, bary.vertex_walk over the letters between the two
gives T_j's vertices as integers over 3^(j-i), the top rows of their chain
product, and a separating plane survives any affine map.
The 44 axes are tried in a fixed order, a pair that touches separates by
exactly 0, and no tolerance enters the verdict.  SAT on float vertices
measures the margin to report, and runs only where that margin can move
the minimum: for a pair that overlaps, and while no pair has reported a
margin <= 0.  Adjacent pairs must share a face bit-for-bit and are exempt
from the interior test.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import NamedTuple

from mpmath import mp, mpf

from .bary import FRAME, vertex_walk
from .geometry import RealizedChain, Tetrahedron, _cross, _sub
from .precision import RealCtx, theta

_FACE_IDX = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
_EDGES = tuple(itertools.combinations(range(4), 2))
_BOX_SLACK = 1e-9  # bounding boxes this close still count as overlapping


def quadplane_determinant(q: int, ctx: RealCtx):
    """The scaled start-plane clearance 20*sqrt(10)*D at helix index q.

    Closed form 6*sqrt(5)*q - 9*sqrt(5) - sqrt(5)*cos(q*theta)
    + 7*sin(q*theta); positivity for q >= 3 certifies that the helix stays
    on the proper side of the bisecting plane, and the value in fact
    dominates the linear bound 13q - 30.
    """
    if q < 3:
        raise ValueError("q must be >= 3")
    with ctx.work():
        s5 = mp.sqrt(5)
        a = mpf(q) * theta()
        return 6 * s5 * q - 9 * s5 - s5 * mp.cos(a) + 7 * mp.sin(a)


def _axis(A, B, k: int):
    """Candidate separating axis k, unnormalized, of a pair of float or integer points.

    Faces of A are axes 0-3, faces of B axes 4-7, and the cross product of
    edge p of A with edge q of B is axis 8 + 6p + q.
    """
    if k < 8:
        V = A if k < 4 else B
        i, j, l = _FACE_IDX[k % 4]
        return _cross(_sub(V[j], V[i]), _sub(V[l], V[i]))
    p, q = divmod(k - 8, 6)
    (a, b), (c, d) = _EDGES[p], _EDGES[q]
    return _cross(_sub(A[b], A[a]), _sub(B[d], B[c]))


def _separation(A, B, ax):
    """Gap between the projections of A and B on ax; negative where they overlap."""
    pa = [ax[0] * v[0] + ax[1] * v[1] + ax[2] * v[2] for v in A]
    pb = [ax[0] * v[0] + ax[1] * v[1] + ax[2] * v[2] for v in B]
    return max(min(pb) - max(pa), min(pa) - max(pb))


def _screen(A, B) -> float:
    """Float SAT: the best normalized separation of float points A and B.

    >= 0 means no overlap, up to rounding; the margin is only reported.
    """
    best = -math.inf
    for k in range(44):
        ax = _axis(A, B, k)
        norm = math.sqrt(ax[0] * ax[0] + ax[1] * ax[1] + ax[2] * ax[2])
        if norm > 1e-14:  # parallel edges give no axis
            best = max(best, _separation(A, B, ax) / norm)
    return best


def _exact_separation(A, B) -> int | None:
    """Exact SAT on integer points: the separation along the first of axes 0..43 that separates.

    Zero axes (parallel edges) are skipped.  A result >= 0 proves the
    interiors disjoint, and 0 means the pair touches along that axis; None
    means no axis separates, so the interiors overlap.
    """
    for k in range(44):
        ax = _axis(A, B, k)
        if ax != (0, 0, 0) and (sep := _separation(A, B, ax)) >= 0:
            return sep
    return None


def _local_pairs(s, pairs):
    """(i, j, A, B) for sorted pairs: T_i and T_j of string s in T_i's affine frame.

    A and B hold the vertices as integers over 3^(j-i).  One walk from
    FRAME, T_i in its own frame, serves every partner j of i: after the
    letters s[i+1 .. j] it holds T_j.
    """
    for i, group in itertools.groupby(pairs, key=lambda p: p[0]):
        js = {j for _, j in group}
        for k, B in enumerate(vertex_walk(s[i + 1 : max(js) + 1], FRAME), start=1):
            if i + k in js:
                yield i, i + k, [tuple(x * 3**k for x in v) for v in FRAME], B


class EmbeddingVerdict(NamedTuple):
    embedded: bool
    first_violation: tuple | None
    min_separation_margin: float | None
    pairs_tested: int
    adjacency_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "embedded": self.embedded,
            "first_violation": (
                None if self.first_violation is None else list(self.first_violation)
            ),
            "min_separation_margin": self.min_separation_margin,
            "pairs_tested": self.pairs_tested,
            "adjacency_ok": self.adjacency_ok,
        }


def _adjacent_share_face(a: Tetrahedron, b: Tetrahedron) -> bool:
    # reflection replaces exactly one vertex slot and copies the rest
    differing = sum(1 for va, vb in zip(a.vertices, b.vertices) if va != vb)
    return differing == 1


def _box_pairs(points: list) -> list:
    """Sorted non-adjacent pairs (i, j), i < j, whose boxes overlap within _BOX_SLACK.

    Each box, grown by the slack, goes into every cell of a uniform grid it
    meets, so boxes that overlap within the slack share a cell.  The cell
    edge is the widest box plus twice the slack: a grown box meets ~8 cells.
    """
    boxes = [(tuple(map(min, *t)), tuple(map(max, *t))) for t in points]
    edge = max((h - l for lo, hi in boxes for l, h in zip(lo, hi)), default=0.0) + 2 * _BOX_SLACK
    cells = defaultdict(list)
    pairs = set()
    for j, (lo_j, hi_j) in enumerate(boxes):
        spans = [
            range(math.floor((l - _BOX_SLACK) / edge), math.floor((h + _BOX_SLACK) / edge) + 1)
            for l, h in zip(lo_j, hi_j)
        ]
        for cell in itertools.product(*spans):
            for i in cells[cell]:
                lo_i, hi_i = boxes[i]
                if i < j - 1 and (i, j) not in pairs and all(
                    lo_i[d] <= hi_j[d] + _BOX_SLACK and lo_j[d] <= hi_i[d] + _BOX_SLACK
                    for d in range(3)
                ):
                    pairs.add((i, j))
            cells[cell].append(j)
    return sorted(pairs)


def verify_embedded(chain: RealizedChain) -> EmbeddingVerdict:
    """Certify pairwise interior-disjointness of the visible tetrahedra.

    Pairs are pruned with bounding boxes on a grid, and the exact test
    decides each surviving pair in the frame of its older tetrahedron.  A
    pair's margin is its float SAT margin, clamped so its sign never
    contradicts the exact verdict, and exactly 0.0 where the deciding axis
    shows the pair touching.  Only the minimum is reported, so the float
    screen runs for a separated pair only while that minimum is still
    above 0: pair (1, 3) always touches along an edge.  Indices in the
    verdict are 1-based positions among the visible tetrahedra.
    """
    tets = chain.tetrahedra
    adjacency_ok = all(map(_adjacent_share_face, tets, tets[1:]))
    points = [tuple(tuple(map(float, v)) for v in t.vertices) for t in tets]
    pairs = _box_pairs(points)
    first_violation = best = None
    for i, j, A, B in _local_pairs(chain.string, pairs):
        sep = _exact_separation(A, B)
        if sep is None:
            first_violation = first_violation or (i + 1, j + 1)
            margin = min(_screen(points[i], points[j]), 0.0)
        elif best is None or best > 0:
            margin = max(_screen(points[i], points[j]), 0.0) if sep else 0.0
        else:
            continue  # its margin is >= 0 and cannot lower a minimum <= 0
        if best is None or margin < best:
            best = margin
    return EmbeddingVerdict(
        embedded=adjacency_ok and first_violation is None,
        first_violation=first_violation,
        min_separation_margin=best,
        pairs_tested=len(pairs),
        adjacency_ok=adjacency_ok,
    )
