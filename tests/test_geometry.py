import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import reference_fold, valid_strings
from paper_checks import bary_coefficients, edge_lengths, tetra_volume, tetrahelix_bary_point
from reference_gap import prefix_realization, rounded_by_divmod, vertex_walk_reference
from tetrachain.bary import vertex_walk
from tetrachain.geometry import _rounded, helix_vertex, invisible_t0, realize_chain
from tetrachain.strings import preset_540_runs, quadrahelix_runs, spell


def _dist(a, b):
    return mp.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


@given(st.integers(-50, 50))
def test_helix_vertex_on_cylinder(i):
    from tetrachain.precision import RealCtx

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


def test_reflect_tetra_moves_one_vertex(ctx40):
    s = (2, 1, 3, 4, 2, 3, 1)
    chain = realize_chain(s, ctx40)
    prev = invisible_t0(ctx40)
    with ctx40.work():  # geometry primitives compute at ambient precision
        vol0 = tetra_volume(prev)
        for sym, cur in zip(s, chain.tetrahedra):
            for p in range(4):
                if p == sym - 1:  # the vertex opposite the reflected face moves
                    assert _dist(prev.vertices[p], cur.vertices[p]) > mpf("0.5")
                else:  # the shared face is copied bit for bit
                    assert cur.vertices[p] == prev.vertices[p]
            # volume is preserved, orientation flips do not change |det|/6
            assert abs(tetra_volume(cur) - vol0) < mpf(10) ** -45
            prev = cur


def test_realize_printed_counts(ctx40):
    chain = realize_chain((1, 2, 3, 4), ctx40)
    assert len(chain.tetrahedra) == 4
    assert chain.string[0] == 1  # the lead is the printed first letter
    assert chain.string == (1, 2, 3, 4)


def test_realize_rejects_colliding_lead(ctx40):
    with pytest.raises(ValueError):
        realize_chain((2, 2, 3), ctx40)


@given(valid_strings(max_size=40))
@example(spell(quadrahelix_runs(60)))
def test_realization_matches_barycentric_product(ctx40, s):
    # the prefix-product realization against step-by-step Cartesian
    # reflections, on every tetrahedron of the chain
    chain = realize_chain(s, ctx40)
    fold = reference_fold(s, ctx40)
    with ctx40.work():
        err = max(
            _dist(a, b)
            for t_bary, t_geo in zip(chain.tetrahedra, fold)
            for a, b in zip(t_bary.vertices, t_geo.vertices)
        )
        assert err < mpf(10) ** -44


def test_ages_track_replacements(ctx40):
    chain = realize_chain((1, 3), ctx40)
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
    from tetrachain.precision import RealCtx

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


@pytest.mark.parametrize(
    "s",
    [spell(quadrahelix_runs(1960)), spell(preset_540_runs())]
    + [_back_and_forth(_RNG, n) for n in (2, 50, 400, 1500)],
    ids=["QH_1960", "preset540", "back-and-forth-2", "back-and-forth-50",
         "back-and-forth-400", "back-and-forth-1500"],
)
def test_realization_equals_prefix_product_realization(ctx40, s):
    # one vertex per step against T_0 times the prefix products, bit for bit
    chain = realize_chain(s, ctx40)
    tetrahedra, ages = prefix_realization(s, ctx40)
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


@settings(max_examples=200)
@given(st.data())
def test_rounded_is_the_rounding_of_the_whole_quotient(data):
    digits = data.draw(st.integers(30, 300), label="digits")
    k = data.draw(st.integers(0, 20_000), label="k")
    low = data.draw(st.integers(-1200, 60), label="low")
    den = 3**k
    with mp.workdps(digits):
        if data.draw(st.booleans(), label="near a half-ulp"):
            # an odd mantissa of prec + 1 bits is a tie at prec bits; n +- 1 sits just beside it
            tie = data.draw(st.integers(2**mp.prec, 2 ** (mp.prec + 1) - 1)) | 1
            n = (tie * den << data.draw(st.integers(0, 64))) + data.draw(st.sampled_from([-1, 0, 1]))
            n *= data.draw(st.sampled_from([-1, 1]))
        else:
            bits = data.draw(st.integers(0, den.bit_length() + 1200), label="bits")
            n = data.draw(st.integers(-(2**bits), 2**bits), label="n")
        assert _rounded(n, den, low)._mpf_ == rounded_by_divmod(n, den, low)._mpf_
