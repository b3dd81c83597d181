"""Reference closure gaps and norms by general-purpose numerics, for checking the kernels.

The package measures a gap on barycentric numerators (``metrics.gap2``);
these functions measure the same Hausdorff distances on the realized mpf
vertices, by a Voronoi-region walk over the faces of each solid
tetrahedron.  Point-to-convex-set distance is convex in the point, so the
directed distance between convex bodies is attained at a vertex of the
source: a max over four vertices is exact.

The package takes ||K - I||_2 in closed form (``metrics.norm_gap``); the
oracles at the end take it, and the eigenstructure of K, from mpmath's
iterative eigensolvers.

The package multiplies a chain by powering its long helical runs
(``bary.chain_matrix``); ``prefix_products`` multiplies it letter by
letter, one column update per reflection, and ``letter_product`` is its
last prefix.  The package realizes a chain one vertex per step
(``bary.vertex_walk``); ``prefix_realization`` places each vertex from
the prefix product of the whole string so far instead, the same exact
rational rounded once.  ``vertex_walk_reference`` is the walk the package
replaced, which keeps each vertex over the power of 3 of the step that
placed it, and ``rounded_by_divmod`` the rounding it replaced, which
divides the whole numerator.

The package decides each pair of a chain exactly in the frame of its older
tetrahedron, prunes pairs on a grid and measures a float margin only where
it can move the minimum (``embedding.verify_embedded``);
``verify_embedded_reference`` is the verifier it replaced.  It prunes with
a sort-and-sweep on one axis, runs the float screen on every pair as a
hint for the axis to try first, and decides every pair in T_0's frame,
with all eight vertices over 3^(j+1).
"""

import itertools
import math
from operator import mul

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from tetrachain.bary import BaryMatrix
from tetrachain.embedding import (
    _BOX_SLACK,
    EmbeddingVerdict,
    _adjacent_share_face,
    _axis,
    _separation,
)
from tetrachain.geometry import Tetrahedron, dyadic_ints, invisible_t0
from tetrachain.metrics import minus_identity
from tetrachain.motion import homogeneous_t0


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _dist(a, b):
    d = _sub(a, b)
    return mp.sqrt(_dot(d, d))


def apply_bary(t0: Tetrahedron, K) -> Tetrahedron:
    """The tetrahedron T_0 K: column j of K gives vertex j barycentrically."""
    return Tetrahedron(
        tuple(
            tuple(sum(t0.vertices[k][axis] * K[k][j] for k in range(4)) for axis in range(3))
            for j in range(4)
        )
    )


def prefix_products(s):
    """Numerator columns of each prefix product M_{s[0]} ... M_{s[k]}, over 3^(k+1).

    Right-multiplying by M_i changes only column i: the new column i is
    2*(sum of the other columns) - 3*(column i), and the other columns are
    multiplied by 3.  Column j of the k-th product holds the barycentric
    coordinates over T_0 of vertex j of tetrahedron T_{k+1}.
    """
    cols = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    for sym in s:
        i = sym - 1
        twice_total = [2 * (a + b + c + d) for a, b, c, d in zip(*cols)]
        new = tuple(t - 5 * x for t, x in zip(twice_total, cols[i]))
        cols = tuple(new if j == i else tuple(3 * x for x in col) for j, col in enumerate(cols))
        yield cols


def letter_product(s) -> BaryMatrix:
    """The chain product of a valid string s, letter by letter, over 3^len(s)."""
    for cols in prefix_products(s):
        pass
    return BaryMatrix(tuple(zip(*cols)), len(s))


def rounded_by_divmod(n: int, den: int, low: int) -> mpf:
    """n * 2**low / den, rounded once to the working precision, from one exact divmod.

    The quotient keeps at least prec + 2 bits and one more bit records a
    nonzero remainder, which is all the rounding needs to be correct.
    """
    shift = max(0, mp.prec + 3 - n.bit_length() + den.bit_length())
    q, r = divmod(n << shift, den)
    man = 2 * q + (r != 0)
    return mp.make_mpf(from_man_exp(man, low - shift - 1, mp.prec, round_nearest))


def vertex_walk_reference(s, start):
    """The vertex each letter of s places, as integers over 3^k at step k = 1, 2, ...

    start holds T_0's four vertices as integer triples, in slot order.  Slot
    j holds its vertex as integers n_j over 3^p_j, p_j the step that placed
    it (0 for T_0).  Step k replaces slot i by
    2 sum_{j != i} n_j 3^(k-1-p_j) - n_i 3^(k-p_i) over 3^k.
    """
    nums = list(start)
    scale = [1, 1, 1, 1]  # 3^(k-1-p_j) at step k
    for sym in s:
        i = sym - 1
        others = [(nums[j], 2 * scale[j]) for j in range(4) if j != i]
        own = 3 * scale[i]
        nums[i] = new = [sum(n[d] * f for n, f in others) - nums[i][d] * own for d in range(3)]
        scale = [1 if j == i else 3 * f for j, f in enumerate(scale)]
        yield new


def prefix_realization(s, ctx) -> tuple:
    """(tetrahedra, ages) of the chain s; step k places T_0 times a column of prefix product k."""
    with ctx.work():
        t0 = invisible_t0(ctx)
        ints, low = dyadic_ints(x for v in t0.vertices for x in v)
        axes = [ints[axis::3] for axis in range(3)]  # one coordinate of each vertex
        tetrahedra, ages = [], []
        verts = list(t0.vertices)
        age = [0, 1, 2, 3]
        den = 1
        for step, (sym, cols) in enumerate(zip(s, prefix_products(s)), start=4):
            den *= 3
            col = cols[sym - 1]
            verts[sym - 1] = tuple(
                rounded_by_divmod(sum(map(mul, xs, col)), den, low) for xs in axes
            )
            age = age.copy()
            age[sym - 1] = step
            tetrahedra.append(Tetrahedron(tuple(verts)))
            ages.append(tuple(age))
        return tetrahedra, ages


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
        return _dist(p, tuple(a[k] + v * ab[k] for k in range(3)))
    cp = _sub(p, c)
    d5 = _dot(ab, cp)
    d6 = _dot(ac, cp)
    if d6 >= 0 and d5 <= d6:
        return _dist(p, c)
    vb = d5 * d2 - d1 * d6
    if vb <= 0 and d2 >= 0 and d6 <= 0:
        w = d2 / (d2 - d6)
        return _dist(p, tuple(a[k] + w * ac[k] for k in range(3)))
    va = d3 * d6 - d4 * d5
    if va <= 0 and (d4 - d3) >= 0 and (d5 - d6) >= 0:
        w = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        bc = _sub(c, b)
        return _dist(p, tuple(b[k] + w * bc[k] for k in range(3)))
    denom = va + vb + vc
    v = vb / denom
    w = vc / denom
    return _dist(p, tuple(a[k] + ab[k] * v + ac[k] * w for k in range(3)))


def point_to_tetra(p, t: Tetrahedron):
    """Distance from p to the solid tetrahedron (0 when p is inside)."""
    v0, v1, v2, v3 = t.vertices
    edges = [_sub(v, v0) for v in (v1, v2, v3)]
    frame = mp.matrix([[e[i] for e in edges] for i in range(3)])
    lam = mp.lu_solve(frame, mp.matrix(_sub(p, v0)))
    if min(lam) >= 0 and sum(lam) <= 1:
        return mpf(0)
    faces = ((v1, v2, v3), (v0, v2, v3), (v0, v1, v3), (v0, v1, v2))
    return min(point_to_triangle(p, *f) for f in faces)


def directed_hausdorff(a: Tetrahedron, b: Tetrahedron):
    return max(point_to_tetra(v, b) for v in a.vertices)


def hausdorff_tetra(a: Tetrahedron, b: Tetrahedron):
    """Hausdorff distance between two solid tetrahedra."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def discrete_hausdorff(a: Tetrahedron, b: Tetrahedron):
    """Vertex-set Hausdorff distance: an upper bound for the solid one."""

    def one_way(xs, ys):
        return max(min(_dist(x, y) for y in ys) for x in xs)

    return max(one_way(a.vertices, b.vertices), one_way(b.vertices, a.vertices))


def spectral_norm(M, ctx):
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


def motion_eigenvalues(K, ctx):
    """Eigenvalues of the 4x4 chain matrix (expected: z, conj(z), 1, 1)."""
    with ctx.work():
        E, _ = mp.eig(mp.matrix([list(r) for r in K]))
        return sorted(E, key=lambda z: (mp.re(z), mp.im(z)))


def rank_of_k_minus_i(K, ctx, tol=None) -> int:
    with ctx.work():
        diff = minus_identity(K)
        mtm = mp.matrix(4)
        for i in range(4):
            for j in range(4):
                mtm[i, j] = sum(diff[k][i] * diff[k][j] for k in range(4))
        eigs = mp.eigsy(mtm, eigvals_only=True)
        top = max(max(eigs), mpf(10) ** (-2 * ctx.digits))
        tol = tol if tol is not None else top * mpf(10) ** (-ctx.digits // 2)
        return sum(1 for e in eigs if e > tol)


def t0_operator_norm(ctx):
    """||homogeneous T0||_2, with its radical closed form for cross-checking."""
    with ctx.work():
        value = spectral_norm(homogeneous_t0(invisible_t0(ctx)), ctx)
        closed = mp.sqrt(117 + mp.sqrt(8689)) / (5 * mp.sqrt(2))
        return value, closed


# --- the embedding verifier ---------------------------------------------------------


def sweep_box_pairs(points: list) -> list:
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


def screen_with_axis(A, B) -> tuple:
    """Float SAT: the best normalized separation of float points and the axis that gives it."""
    best, first = -math.inf, 0
    for k in range(44):
        ax = _axis(A, B, k)
        norm = math.sqrt(ax[0] * ax[0] + ax[1] * ax[1] + ax[2] * ax[2])
        if norm > 1e-14:  # parallel edges give no axis
            margin = _separation(A, B, ax) / norm
            if margin > best:
                best, first = margin, k
    return best, first


def hinted_separation(A, B, first: int):
    """Exact SAT on integer points, axis `first` tried before the other 43; None on overlap."""
    for k in (first, *(k for k in range(44) if k != first)):
        ax = _axis(A, B, k)
        if ax == (0, 0, 0):
            continue
        sep = _separation(A, B, ax)
        if sep >= 0:
            return sep
    return None


# T_0's vertices in affine barycentric coordinates: the last one is dropped
AFFINE_T0 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))


def t0_frame_vertices(string) -> list:
    """Every vertex of a chain, indexed by its age, as integers over 3^max(0, age - 3).

    These are affine barycentric coordinates over T_0, from the per-letter
    vertex walk; SAT verdicts in them are the same as in space.
    """
    return [*AFFINE_T0, *vertex_walk_reference(string, AFFINE_T0)]


def t0_frame_separation(exact: list, ages: list, i: int, j: int, first: int):
    """hinted_separation of T_i and T_j (0-based, i < j), all 8 vertices over 3^(j+1)."""

    def scaled(k):  # the vertex of age a is over 3^max(0, a - 3)
        return [tuple(x * 3 ** (j + 4 - max(3, a)) for x in exact[a]) for a in ages[k]]

    return hinted_separation(scaled(i), scaled(j), first)


def verify_embedded_reference(chain) -> EmbeddingVerdict:
    """The verdict of embedding.verify_embedded, with the float screen on every pair.

    A pair's margin is the float margin, clamped so its sign never
    contradicts the exact verdict, and exactly 0.0 where the screen's axis
    shows the pair touching.
    """
    tets = chain.tetrahedra
    adjacency_ok = all(map(_adjacent_share_face, tets, tets[1:]))
    points = [tuple(tuple(map(float, v)) for v in t.vertices) for t in tets]
    exact = t0_frame_vertices(chain.string)
    pairs = sweep_box_pairs(points)
    violations = []
    margins = []
    for i, j in pairs:
        margin, axis = screen_with_axis(points[i], points[j])
        sep = t0_frame_separation(exact, chain.ages, i, j, axis)
        if sep is None:
            violations.append((i + 1, j + 1))
            margins.append(min(margin, 0.0))
        else:
            margins.append(max(margin, 0.0) if sep else 0.0)
    return EmbeddingVerdict(
        embedded=adjacency_ok and not violations,
        first_violation=min(violations) if violations else None,
        min_separation_margin=min(margins) if margins else None,
        pairs_tested=len(pairs),
        adjacency_ok=adjacency_ok,
    )
