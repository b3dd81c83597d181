"""Embeddedness certification for realized chains.

Two convex polytopes have disjoint interiors iff a face normal or a cross
product of two edges is a separating axis (separating axis theorem, SAT).
Non-adjacent pairs of a chain are pruned with axis-aligned bounding boxes.
SAT on the float vertices of each surviving pair picks the axis that
separates best and the margin to report; it decides nothing.  The verdict
is the same SAT code on Python ints: the vertex walk that realizes the
chain, started from T_0's affine barycentric coordinates, gives every
vertex of T_k as integers over 3^k, and a separating plane survives any
affine map.  The screen's axis is tried first, the other 43 only if it
does not separate, and a pair that touches separates by exactly 0.  No
tolerance enters the verdict.  Adjacent pairs must share a face
bit-for-bit and are exempt from the interior test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .geometry import RealizedChain, Tetrahedron, _cross, _sub, vertex_walk
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


def _screen(A, B) -> tuple[float, int]:
    """Float SAT: the best normalized separation and the axis that gives it.

    A and B are float points.  The margin (>= 0 means no overlap, up to
    rounding) is only reported; the axis is where the exact test looks first.
    """
    best, first = -math.inf, 0
    for k in range(44):
        ax = _axis(A, B, k)
        norm = math.sqrt(ax[0] * ax[0] + ax[1] * ax[1] + ax[2] * ax[2])
        if norm > 1e-14:  # parallel edges give no axis
            margin = _separation(A, B, ax) / norm
            if margin > best:
                best, first = margin, k
    return best, first


def _exact_separation(A, B, first: int) -> int | None:
    """Exact SAT on integer points: the separation along the first axis that separates.

    Axis `first` (the float screen's pick) is tried before the other 43, and
    zero axes (parallel edges) are skipped.  A result >= 0 proves the
    interiors disjoint, and 0 means the pair touches along that axis; None
    means no axis separates, so the interiors overlap.
    """
    for k in (first, *(k for k in range(44) if k != first)):
        ax = _axis(A, B, k)
        if ax == (0, 0, 0):
            continue
        sep = _separation(A, B, ax)
        if sep >= 0:
            return sep
    return None


# T_0's vertices in affine barycentric coordinates: the last one is dropped
_AFFINE_T0 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))


def _exact_vertices(string) -> list:
    """Every vertex of a chain, indexed by its age, as integers over 3^max(0, age - 3).

    These are affine barycentric coordinates over T_0, from the vertex walk
    that realizes the chain; SAT verdicts in them are the same as in space.
    """
    return [*_AFFINE_T0, *vertex_walk(string, _AFFINE_T0)]


def _pair_separation(exact: list, ages: list, i: int, j: int, first: int) -> int | None:
    """_exact_separation of T_i and T_j (0-based, i < j), all 8 vertices over 3^(j+1)."""

    def scaled(k):  # the vertex of age a is over 3^max(0, a - 3)
        return [tuple(x * 3 ** (j + 4 - max(3, a)) for x in exact[a]) for a in ages[k]]

    return _exact_separation(scaled(i), scaled(j), first)


@dataclass(frozen=True)
class EmbeddingVerdict:
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

    Sort and sweep on the axis s along which the low ends spread furthest; in
    that order a box meets only later boxes whose low s <= its high s + slack.
    """
    boxes = [(tuple(map(min, *t)), tuple(map(max, *t))) for t in points]
    lows = [[lo[d] for lo, _ in boxes] for d in range(3)]
    s = max(range(3), key=lambda d: max(lows[d], default=0.0) - min(lows[d], default=0.0))
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0][s])
    pairs = []
    for a, i in enumerate(order):
        lo_i, hi_i = boxes[i]
        for j in itertools.islice(order, a + 1, None):
            lo_j, hi_j = boxes[j]
            if lo_j[s] > hi_i[s] + _BOX_SLACK:
                break
            if abs(i - j) > 1 and all(
                lo_i[d] <= hi_j[d] + _BOX_SLACK and lo_j[d] <= hi_i[d] + _BOX_SLACK
                for d in range(3)
            ):
                pairs.append((min(i, j), max(i, j)))
    return sorted(pairs)


def verify_embedded(chain: RealizedChain) -> EmbeddingVerdict:
    """Certify pairwise interior-disjointness of the visible tetrahedra.

    Pairs are pruned with bounding boxes; for each surviving pair the float64
    screen picks an axis and reports a margin, and the exact test decides
    the pair on the integer barycentric coordinates of the vertex walk.
    A pair's margin is the float margin, clamped so its sign never
    contradicts the exact verdict, and exactly 0.0 where the deciding axis
    shows the pair touching.  Indices in the verdict are 1-based positions
    among the visible tetrahedra.
    """
    tets = chain.tetrahedra
    adjacency_ok = all(map(_adjacent_share_face, tets, tets[1:]))
    points = [tuple(tuple(map(float, v)) for v in t.vertices) for t in tets]
    exact = _exact_vertices(chain.string)
    pairs = _box_pairs(points)
    violations = []
    margins = []
    for i, j in pairs:
        margin, axis = _screen(points[i], points[j])
        sep = _pair_separation(exact, chain.ages, i, j, axis)
        if sep is None:
            violations.append((i + 1, j + 1))
            margins.append(min(margin, 0.0))
        else:
            margins.append(max(margin, 0.0) if sep else 0.0)
    embedded = adjacency_ok and not violations
    return EmbeddingVerdict(
        embedded=embedded,
        first_violation=min(violations) if violations else None,
        min_separation_margin=min(margins) if margins else None,
        pairs_tested=len(pairs),
        adjacency_ok=adjacency_ok,
    )
