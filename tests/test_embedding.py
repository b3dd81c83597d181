import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import valid_strings
from paper_checks import quadplane_determinant_direct, tetra_interiors_disjoint
from reference_gap import (
    prefix_products,
    sweep_box_pairs,
    t0_frame_vertices,
    verify_embedded_reference,
)
from tetrachain.embedding import (
    _BOX_SLACK,
    _box_pairs,
    _exact_separation,
    _local_pairs,
    _screen,
    quadplane_determinant,
    verify_embedded,
)
from tetrachain.geometry import Tetrahedron, invisible_t0, realize_chain
from tetrachain.precision import RealCtx
from tetrachain.strings import octahelix_runs, preset_540_runs, quadrahelix_runs, spell


@given(st.integers(3, 200))
def test_quadplane_closed_form_vs_direct(q):
    ctx = RealCtx(digits=40)
    with ctx.work():
        a = quadplane_determinant(q, ctx)
        b = quadplane_determinant_direct(q, ctx)
        assert abs(a - b) < mpf(10) ** -40


def test_quadplane_rejects_small_q(ctx40):
    with pytest.raises(ValueError):
        quadplane_determinant(2, ctx40)


def test_quadplane_linear_slack(ctx40):
    # the scaled determinant stays above the line 13q - 30; the tightest
    # point on small q is near q = 5
    with ctx40.work():
        slacks = {
            q: quadplane_determinant(q, ctx40) - (13 * q - 30) for q in range(3, 200)
        }
        assert min(slacks.values()) > mpf("4.7")
        assert min(slacks, key=slacks.get) == 5


def _shift(t, d):
    return Tetrahedron(
        tuple((x + d[0], y + d[1], z + d[2]) for x, y, z in t.vertices)
    )


def test_interiors_disjoint_cases(ctx40):
    t0 = invisible_t0(ctx40)
    with ctx40.work():
        far = _shift(t0, (mpf(5), mpf(0), mpf(0)))
        assert tetra_interiors_disjoint(t0, far)
        # a copy of itself overlaps
        assert not tetra_interiors_disjoint(t0, t0)
        # tiny nudge: still overlapping interiors
        nudged = _shift(t0, (mpf(10) ** -6, mpf(0), mpf(0)))
        assert not tetra_interiors_disjoint(t0, nudged)


def test_adjacent_tetrahedra_disjoint(ctx40):
    # neighbours meet exactly in a face: interiors count as disjoint
    chain = realize_chain((1, 2, 3), ctx40)
    a, b = chain.tetrahedra[0], chain.tetrahedra[1]
    assert tetra_interiors_disjoint(a, b)


@pytest.mark.parametrize("L", [1, 2, 5, 12])
def test_quadrahelix_embedded(L, ctx40):
    chain = realize_chain(spell(quadrahelix_runs(L)), ctx40)
    verdict = verify_embedded(chain)
    assert verdict.embedded and verdict.adjacency_ok
    assert verdict.first_violation is None
    assert verdict.pairs_tested > 0


def test_octahelix_4_not_embedded(ctx40):
    chain = realize_chain(spell(octahelix_runs(4)), ctx40)
    verdict = verify_embedded(chain)
    assert not verdict.embedded
    assert verdict.first_violation == (13, 31)
    assert verdict.min_separation_margin == -0.39648938148074203


def test_octahelix_1_not_embedded(ctx40):
    chain = realize_chain(spell(octahelix_runs(1)), ctx40)
    verdict = verify_embedded(chain)
    assert not verdict.embedded
    assert verdict.first_violation == (4, 10)
    assert verdict.min_separation_margin == -0.6719131406833959


def test_octahelix_5_embedded(ctx40):
    chain = realize_chain(spell(octahelix_runs(5)), ctx40)
    verdict = verify_embedded(chain)
    assert verdict.embedded and verdict.adjacency_ok


def test_verdict_json_shape(ctx40):
    chain = realize_chain(spell(quadrahelix_runs(1)), ctx40)
    d = verify_embedded(chain).to_json_dict()
    assert d["embedded"] is True
    assert {"embedded", "first_violation", "min_separation_margin", "pairs_tested", "adjacency_ok"} <= set(d)


@pytest.fixture(scope="module")
def ctx80():
    return RealCtx(digits=80)


def _reference_axes(va, vb):
    """The 44 SAT axes of two tetrahedra given as vertex lists, in any number type."""

    def sub(u, v):
        return [x - y for x, y in zip(u, v)]

    def cross(u, v):
        return [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]

    faces = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    edges = list(itertools.combinations(range(4), 2))
    axes = [cross(sub(V[j], V[i]), sub(V[k], V[i])) for V in (va, vb) for i, j, k in faces]
    axes += [cross(sub(va[j], va[i]), sub(vb[l], vb[k])) for i, j in edges for k, l in edges]
    return axes


def _reference_margin(a, b, ctx):
    """Best normalized SAT separation over the 44 axes, in mpf (the reference)."""
    with ctx.work():
        va, vb = a.vertices, b.vertices
        best = None
        for ax in _reference_axes(va, vb):
            n2 = sum(x * x for x in ax)
            if n2 < mpf(10) ** -100:
                continue
            pa = [sum(x * y for x, y in zip(ax, v)) for v in va]
            pb = [sum(x * y for x, y in zip(ax, v)) for v in vb]
            sep = max(min(pb) - max(pa), min(pa) - max(pb)) / mp.sqrt(n2)
            best = sep if best is None else max(best, sep)
        return best


def _in_t0_frame(exact, ages, i, y, den):
    """The point with coordinates y / den in T_i's affine frame, in T_0's frame, as Fractions."""
    P = [[Fraction(x, 3 ** max(0, a - 3)) for x in exact[a]] for a in ages[i]]
    return tuple(
        P[3][d] + sum(Fraction(y[p], den) * (P[p][d] - P[3][d]) for p in range(3))
        for d in range(3)
    )


@settings(max_examples=15)
@given(valid_strings(min_size=3, max_size=14))
def test_exact_verdicts_agree_with_mpf_sat(ctx80, s):
    chain = realize_chain(s, ctx80)
    tets = chain.tetrahedra
    exact = t0_frame_vertices(chain.string)
    # the vertex of age a is placed at step a - 3, in slot s[a - 4]
    for a, cols in enumerate(prefix_products(s), start=4):
        assert tuple(exact[a]) == cols[s[a - 4] - 1][:3]
    pairs = [(i, j) for i, j in itertools.combinations(range(len(tets)), 2) if j > i + 1]
    local = list(_local_pairs(chain.string, pairs))
    assert [(i, j) for i, j, _, _ in local] == pairs
    overlaps = []
    for i, j, A, B in local:
        # T_i and T_j in T_i's frame are the same points as in T_0's frame
        den = 3 ** (j - i)
        for k, frame in ((i, A), (j, B)):
            for v, a in zip(frame, chain.ages[k]):
                point = tuple(Fraction(x, 3 ** max(0, a - 3)) for x in exact[a])
                assert _in_t0_frame(exact, chain.ages, i, v, den) == point, (s, i, j)
        sep = _exact_separation(A, B)
        margin = _reference_margin(tets[i], tets[j], ctx80)
        if abs(margin) > mpf(10) ** -30:
            assert (sep is not None) == (margin > 0), (s, i, j, margin)
        else:
            assert sep == 0, (s, i, j, margin)  # touching
        if sep is None:
            overlaps.append((i + 1, j + 1))
    verdict = verify_embedded(chain)
    assert verdict.embedded == (not overlaps)
    assert verdict.first_violation == (min(overlaps) if overlaps else None)


def _float_points(t):
    return tuple(tuple(float(x) for x in v) for v in t.vertices)


@pytest.mark.parametrize(
    "kind,L,pairs",
    [("quadrahelix", 60, 515), ("octahelix", 36, 661), ("quadrahelix", 200, 1695)],
)
def test_pairs_tested_pinned(ctx40, kind, L, pairs):
    # recorded with the former numpy broadcast prune
    s = spell((quadrahelix_runs if kind == "quadrahelix" else octahelix_runs)(L))
    verdict = verify_embedded(realize_chain(s, ctx40))
    assert verdict.embedded and verdict.pairs_tested == pairs


@given(valid_strings(min_size=3, max_size=40))
def test_box_sweep_matches_brute_force(ctx40, s):
    chain = realize_chain(s, ctx40)
    points = [_float_points(t) for t in chain.tetrahedra]
    lo = [[min(c) for c in zip(*p)] for p in points]
    hi = [[max(c) for c in zip(*p)] for p in points]
    brute = [
        (i, j)
        for i, j in itertools.combinations(range(len(points)), 2)
        if j > i + 1
        and all(
            lo[i][d] <= hi[j][d] + _BOX_SLACK and lo[j][d] <= hi[i][d] + _BOX_SLACK
            for d in range(3)
        )
    ]
    assert _box_pairs(points) == brute
    assert verify_embedded(chain).pairs_tested == len(brute)


@pytest.mark.parametrize(
    "s",
    [spell(quadrahelix_runs(500)), spell(octahelix_runs(36)), spell(preset_540_runs())],
    ids=len,
)
def test_grid_prune_matches_sweep_on_long_chains(ctx40, s):
    # long legs lie across every axis; the grid finds the sweep's pairs
    points = [_float_points(t) for t in realize_chain(s, ctx40).tetrahedra]
    assert _box_pairs(points) == sweep_box_pairs(points)


def _assert_matches_reference(chain):
    # repr compares all five fields and tells a margin of 0.0 from -0.0
    assert repr(verify_embedded(chain)) == repr(verify_embedded_reference(chain)), chain.string


@given(valid_strings(min_size=3, max_size=60))
def test_verdict_matches_reference_verifier(ctx40, s):
    # most random strings overlap somewhere, which exercises the violation margins
    _assert_matches_reference(realize_chain(s, ctx40))


@pytest.mark.parametrize(
    "s",
    [spell(quadrahelix_runs(L)) for L in range(1, 13)]
    + [spell(octahelix_runs(1)), spell(octahelix_runs(4)), spell(preset_540_runs())],
    ids=lambda s: f"{len(s)}-letters",
)
def test_named_verdicts_match_reference_verifier(ctx40, s):
    _assert_matches_reference(realize_chain(s, ctx40))


def _exact_margin_bounds(A, B, bits=200):
    """Bounds on the best normalized 44-axis separation of float points, exactly.

    Every product and sum is a Fraction of the float inputs; each axis norm
    lies between two integer square roots 2^-bits apart.  Axes the screen
    drops (norm <= 1e-14) are dropped here too.
    """
    va = [[Fraction(x) for x in v] for v in A]
    vb = [[Fraction(x) for x in v] for v in B]
    lows, highs = [], []
    for ax in _reference_axes(va, vb):
        n2 = sum(x * x for x in ax)
        if n2 <= Fraction(1e-14) ** 2:
            continue
        pa = [sum(x * y for x, y in zip(ax, v)) for v in va]
        pb = [sum(x * y for x, y in zip(ax, v)) for v in vb]
        sep = max(min(pb) - max(pa), min(pa) - max(pb))
        root = math.isqrt(math.floor(n2 * 4**bits))  # 2^bits * |ax|, rounded down
        norms = (Fraction(root, 2**bits), Fraction(root + 1, 2**bits))
        ends = sorted(sep / n for n in norms)
        lows.append(ends[0])
        highs.append(ends[1])
    return max(lows), max(highs)


@pytest.mark.parametrize(
    "L,pair,exact",
    [
        (1, (5, 10), "-0.67191314068339577168"),
        (4, (14, 31), "-0.39648938148074198691"),
    ],
)
def test_screen_margin_within_two_ulps(ctx40, L, pair, exact):
    # the minimum-margin pair of OH_1 and of OH_4, 1-based
    chain = realize_chain(spell(octahelix_runs(L)), ctx40)
    A, B = (_float_points(chain.tetrahedra[k - 1]) for k in pair)
    margin = _screen(A, B)
    assert margin == verify_embedded(chain).min_separation_margin
    low, high = _exact_margin_bounds(A, B)
    ulp = Fraction(math.ulp(margin))
    assert low <= high and high - low < ulp / 2**100
    assert abs(Fraction(margin) - low) <= 2 * ulp and abs(Fraction(margin) - high) <= 2 * ulp
    assert round(low, 20) == round(high, 20) == Fraction(exact)
