import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import reference_fold, valid_strings
from paper_checks import bary_coefficients, edge_lengths, tetra_volume, tetrahelix_bary_point
from reference_gap import (
    mpf_seed_realization,
    prefix_products,
    prefix_realization,
    rounded_surd,
    vertex_walk_reference,
)
from tetrachain import geometry
from tetrachain.bary import vertex_walk
from tetrachain.geometry import (
    SEED,
    SURDS,
    Tetrahedron,
    _rounded,
    helix_vertex,
    invisible_t0,
    realize_chain,
)
from tetrachain.precision import RealCtx
from tetrachain.strings import octahelix_runs, preset_540_runs, quadrahelix_runs, spell


def _dist(a, b):
    return mp.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


@given(st.integers(-50, 50))
def test_helix_vertex_on_cylinder(i):
    ctx = RealCtx(digits=40)
    with ctx.work():
        v = helix_vertex(i, ctx)
        assert abs(mp.sqrt(v[0] ** 2 + v[1] ** 2) - 3 * mp.sqrt(3) / 10) < mpf(10) ** -45
        assert abs(v[2] - i / mp.sqrt(10)) < mpf(10) ** -45


def test_consecutive_vertices_unit_apart(ctx40):
    with ctx40.work():
        for i in range(-3, 12):
            d = _dist(helix_vertex(i, ctx40), helix_vertex(i + 1, ctx40))
            assert abs(d - 1) < mpf(10) ** -45


def test_seed_tetrahedron_regular(ctx40):
    t0 = invisible_t0(ctx40)
    with ctx40.work():
        for e in edge_lengths(t0):
            assert abs(e - 1) < mpf(10) ** -45
        assert abs(tetra_volume(t0) - mp.sqrt(2) / 12) < mpf(10) ** -45


def _rounded_seed(ctx=None):
    return Tetrahedron(tuple(tuple(map(rounded_surd, v, SURDS, (30,) * 3, (ctx,) * 3)) for v in SEED))


def test_exact_seed_is_the_helix(ctx40):
    # (sqrt(3) a, sqrt(15) b, sqrt(10) c) / 30 is V_-1 .. V_2 from cos and sin of i*theta
    with ctx40.work():
        for v, w in zip(_rounded_seed(ctx40).vertices, invisible_t0(ctx40).vertices):
            assert max(abs(x - y) for x, y in zip(v, w)) < mpf(10) ** -50


def test_reflect_tetra_moves_one_vertex(ctx40):
    s = (2, 1, 3, 4, 2, 3, 1)
    prev = _rounded_seed()
    for sym, cur in zip(s, realize_chain(s).tetrahedra):
        for p in range(4):
            if p == sym - 1:  # the vertex opposite the reflected face moves
                assert math.dist(prev.vertices[p], cur.vertices[p]) > 0.5
            else:  # the shared face is copied bit for bit
                assert cur.vertices[p] == prev.vertices[p]
        prev = cur
    # volume is preserved, orientation flips do not change |det|/6; on the
    # 40-digit realization, which rounds to the one above
    with ctx40.work():  # geometry primitives compute at ambient precision
        vol0 = tetra_volume(_rounded_seed(ctx40))
        for cur in prefix_realization(s, ctx40)[0]:
            assert abs(tetra_volume(cur) - vol0) < mpf(10) ** -45


def test_realize_printed_counts():
    chain = realize_chain((1, 2, 3, 4))
    assert len(chain.tetrahedra) == 4
    assert chain.string[0] == 1  # the lead is the printed first letter
    assert chain.string == (1, 2, 3, 4)


def test_realize_rejects_colliding_lead():
    with pytest.raises(ValueError):
        realize_chain((2, 2, 3))


@given(valid_strings(max_size=40))
@example(spell(quadrahelix_runs(60)))
def test_realization_matches_barycentric_product(ctx40, s):
    # the 40-digit prefix-product realization, which rounds to realize_chain's,
    # against step-by-step Cartesian reflections, on every tetrahedron of the chain
    tetrahedra, _ = prefix_realization(s, ctx40)
    fold = reference_fold(s, ctx40)
    with ctx40.work():
        err = max(
            _dist(a, b)
            for t_bary, t_geo in zip(tetrahedra, fold)
            for a, b in zip(t_bary.vertices, t_geo.vertices)
        )
        assert err < mpf(10) ** -44


def test_ages_track_replacements():
    chain = realize_chain((1, 3))
    assert chain.ages[0] == (4, 1, 2, 3)  # slot 1 replaced by the lead step
    assert chain.ages[1] == (4, 1, 5, 3)


def test_bary_coefficients_base_case(ctx40):
    with ctx40.work():
        coeffs = bary_coefficients(-1, ctx40)
        assert abs(coeffs[0] - 1) < mpf(10) ** -45
        assert max(abs(x) for x in coeffs[1:]) < mpf(10) ** -45


@pytest.mark.parametrize("q", range(-1, 9))
def test_barycentric_helix_point(q, ctx40):
    t0 = invisible_t0(ctx40)
    with ctx40.work():
        p = tetrahelix_bary_point(q, t0, ctx40)
        v = helix_vertex(q, ctx40)
        assert _dist(p, v) < mpf(10) ** -40


@given(st.integers(-20, 60))
def test_bary_coefficients_sum_to_one(q):
    ctx = RealCtx(digits=40)
    with ctx.work():
        assert abs(sum(bary_coefficients(q, ctx)) - 1) < mpf(10) ** -42


def _back_and_forth(rng: random.Random, n: int) -> tuple:
    """Mostly two letters in turn, so the other two slots keep low powers of 3 for long."""
    s = [1, 2]
    while len(s) < n:
        if rng.random() < 0.9:
            s.append(s[-2])
        else:
            s.append(rng.choice([x for x in (1, 2, 3, 4) if x != s[-1]]))
    return tuple(s)


_RNG = random.Random(20261019)


_EMBED_CHAINS = {
    **{f"QH_{L}": spell(quadrahelix_runs(L)) for L in (1, 4, 10, 29, 60, 1960)},
    **{f"OH_{L}": spell(octahelix_runs(L)) for L in (4, 5, 6, 36)},
    "preset540": spell(preset_540_runs()),
}


@pytest.mark.parametrize("name", sorted(_EMBED_CHAINS))
def test_binary64_realization_is_the_mpf_one_rounded(ctx40, name):
    # the vertices verify-embed and build read, against float() of the mpf realization
    # from helix_vertex's T_0 that they replaced, bit for bit
    s = _EMBED_CHAINS[name]
    new = [t.vertices for t in realize_chain(s).tetrahedra]
    old = [tuple(tuple(map(float, v)) for v in t.vertices) for t in mpf_seed_realization(s, ctx40)]
    assert new == old


_PREFIX_CASES = pytest.mark.parametrize(
    "s",
    [spell(quadrahelix_runs(1960)), spell(preset_540_runs())]
    + [_back_and_forth(_RNG, n) for n in (2, 50, 400, 1500)],
    ids=["QH_1960", "preset540", "back-and-forth-2", "back-and-forth-50",
         "back-and-forth-400", "back-and-forth-1500"],
)


@_PREFIX_CASES
def test_realization_equals_prefix_product_realization(ctx40, s):
    # the 40-digit oracle realization the tests measure on rounds to the binary64 one
    chain = realize_chain(s)
    tetrahedra, ages = prefix_realization(s, ctx40)
    rounded = [tuple(tuple(map(float, v)) for v in t.vertices) for t in tetrahedra]
    assert [t.vertices for t in chain.tetrahedra] == rounded
    assert chain.ages == ages


@_PREFIX_CASES
def test_binary64_realization_equals_prefix_product_realization(s):
    chain = realize_chain(s)
    tetrahedra, ages = prefix_realization(s)
    assert [t.vertices for t in chain.tetrahedra] == [t.vertices for t in tetrahedra]
    assert chain.ages == ages


@given(
    valid_strings(max_size=60),
    st.lists(st.integers(-(10**30), 10**30), min_size=12, max_size=12),
)
@example(spell(quadrahelix_runs(20)), [1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0])
def test_vertex_walk_is_the_per_letter_walk(s, coords):
    # the oracle keeps each vertex over the power of 3 of the step that placed it
    start = [tuple(coords[3 * p : 3 * p + 3]) for p in range(4)]
    slots = [(v, 0) for v in start]
    steps = zip(s, vertex_walk(s, start), vertex_walk_reference(s, start))
    for k, (sym, verts, new) in enumerate(steps, start=1):
        slots[sym - 1] = (tuple(new), k)
        assert verts == tuple(tuple(x * 3 ** (k - p) for x in v) for v, p in slots)


def _is_binary64_rounding(f: float, n: int, c: int, den: int) -> bool:
    """f is sqrt(c) n / den rounded to the nearest binary64, decided on integers.

    A nonzero value is irrational, so it must lie strictly inside f's rounding
    interval: its square c n^2 / den^2 strictly between the squares of the
    interval's ends, the midpoints from f to its neighbours.
    """
    if f == 0 or n == 0:
        return f == n
    if (f > 0) != (n > 0):
        return False
    f = abs(f)
    lo, hi = ((Fraction(f) + Fraction(math.nextafter(f, g))) / 2 for g in (0, math.inf))
    return lo * lo < Fraction(c * n * n, den * den) < hi * hi


@settings(max_examples=40, deadline=None)
@given(valid_strings(max_size=200))
def test_realized_coordinates_are_correctly_rounded(s):
    # every vertex of every tetrahedron, against the exact SEED times the prefix product column
    chain = realize_chain(s)
    den = 30
    for tet, cols in zip(chain.tetrahedra, prefix_products(s)):
        den *= 3
        for v, col in zip(tet.vertices, cols):
            for x, c, axis in zip(v, SURDS, range(3)):
                n = sum(p[axis] * w for p, w in zip(SEED, col))
                assert _is_binary64_rounding(x, n, c, den), (x, n, c, den)


def test_realization_widens_a_narrow_bracket(monkeypatch):
    # a first bracket of a few bits rounds apart at nearly every coordinate,
    # and doubling its bits gives the same vertices as the default start
    s = spell(quadrahelix_runs(29))
    expected = realize_chain(s)
    calls = []

    def counted(x):
        calls.append(x)
        return math.isqrt(x)

    monkeypatch.setattr(geometry, "_EXTRA_BITS", -50)
    monkeypatch.setattr(geometry, "isqrt", counted)
    assert realize_chain(s) == expected
    assert len(calls) > 2 * 3 * (len(s) + 4)


@settings(max_examples=200)
@given(st.data())
def test_rounded_is_the_rounding_of_the_whole_quotient(data):
    # binary64 from any starting bracket, against one square root of the whole numerator
    c = data.draw(st.sampled_from(SURDS), label="c")
    den = 30 * 3 ** data.draw(st.integers(0, 20_000), label="k")
    bits = data.draw(st.integers(0, den.bit_length() + 200), label="bits")
    n = data.draw(st.integers(-(2**bits), 2**bits), label="n")
    start = data.draw(st.integers(1, 200), label="start")
    assert _rounded(n, c, den, start) == rounded_surd(n, c, den)
