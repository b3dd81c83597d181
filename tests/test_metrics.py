import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from conftest import L_17_DIGITS, L_99_DIGITS, random_valid_string, rotate, valid_strings
from paper_checks import as_bary, k_formula
from reference_gap import (
    apply_bary,
    directed_hausdorff,
    discrete_hausdorff,
    hausdorff_tetra,
    point_to_tetra,
    point_to_triangle,
    spectral_norm,
)
from tetrachain import bary
from tetrachain.geometry import Tetrahedron, invisible_t0, realize_chain
from tetrachain.metrics import (
    discrete_gap2,
    gap2,
    gap_report,
    inverse,
    lead_minimized_report,
    loop_gap_report,
    maxnorm,
    minus_identity,
    norm_gap,
    root,
)
from tetrachain.precision import RealCtx
from tetrachain.strings import preset_540_runs, quadrahelix_runs, spell

TRI = ((mpf(0),) * 3, (mpf(1), mpf(0), mpf(0)), (mpf(0), mpf(1), mpf(0)))


@pytest.mark.parametrize(
    "p,expect",
    [
        (("0.2", "0.2", "0"), "0"),  # inside the face
        (("0.2", "0.2", "0.7"), "0.7"),  # straight above
        (("2", "0", "0"), "1"),  # beyond a vertex
        (("-1", "-1", "0"), "sqrt2"),  # nearest point is the corner
        (("0.5", "-3", "4"), "5"),  # foot on an edge, 3-4-5 offset
    ],
)
def test_point_to_triangle(p, expect):
    mp.dps = 30
    d = point_to_triangle(tuple(mpf(x) for x in p), *TRI)
    want = mp.sqrt(2) if expect == "sqrt2" else mpf(expect)
    assert abs(d - want) < mpf(10) ** -25


def test_point_to_tetra(ctx40):
    t0 = invisible_t0(ctx40)
    with ctx40.work():
        centroid = tuple(
            sum(v[k] for v in t0.vertices) / 4 for k in range(3)
        )
        assert point_to_tetra(centroid, t0) == 0
        far = tuple(x + 10 for x in centroid)
        d = point_to_tetra(far, t0)
        # within circumradius of the true centroid distance
        assert abs(d - mp.sqrt(300)) < 1


def _shift(t, dz):
    return Tetrahedron(tuple((x, y, z + dz) for x, y, z in t.vertices))


def test_hausdorff_of_translates(ctx40):
    t0 = invisible_t0(ctx40)
    with ctx40.work():
        t1 = _shift(t0, mpf(3) / 7)
        assert abs(hausdorff_tetra(t0, t1) - mpf(3) / 7) < mpf(10) ** -45
        assert hausdorff_tetra(t0, t0) == 0
        assert abs(
            directed_hausdorff(t0, t1) - directed_hausdorff(t1, t0)
        ) < mpf(10) ** -45


def test_discrete_bounds_solid(ctx40):
    t0 = invisible_t0(ctx40)
    chain = realize_chain(spell(quadrahelix_runs(4)), ctx40)
    with ctx40.work():
        tn = chain.tetrahedra[-1]
        solid = hausdorff_tetra(t0, tn)
        disc = discrete_hausdorff(t0, tn)
        assert disc + mpf(10) ** -40 >= solid


def test_norms():
    mp.dps = 30
    M = [[mpf(3), mpf(4)], [mpf(0), mpf(0)]]
    from tetrachain.precision import RealCtx

    assert abs(spectral_norm(M, RealCtx(digits=30)) - 5) < mpf(10) ** -25
    assert maxnorm(M) == 4


def _assert_norm_matches_eigensolver(K, ctx, rel=mpf(10) ** -35):
    """The closed-form ||K - I||_2 against mpmath's eigensolver on K - I rounded once."""
    N, d = K.num, 3**K.power
    with ctx.work():
        want = spectral_norm([[mpf(x) / d for x in row] for row in minus_identity(N, d)], ctx)
        assert abs(norm_gap(K) - want) <= rel * want


@pytest.mark.parametrize("parity", [0, 1], ids=["proper", "improper"])
@settings(max_examples=25)
@given(data=st.data())
def test_norm_gap_matches_eigensolver_on_every_lead(ctx40, parity, data):
    s = data.draw(valid_strings(min_size=2, max_size=400).filter(lambda s: len(s) % 2 == parity))
    for K in bary.lead_matrices(bary.chain_matrix(s), s[0], s[1]).values():
        _assert_norm_matches_eigensolver(K, ctx40)


def test_norm_gap_matches_eigensolver_on_540_loop_cuts(ctx40):
    # near-closures: K - I is about 1e-17 at the best cuts
    s = spell(preset_540_runs())
    K = bary.chain_matrix(s)
    for sym in s:
        _assert_norm_matches_eigensolver(K, ctx40)
        K = bary.conjugate(K, sym)


@pytest.mark.parametrize("L, digits", [(1960, 40), (12019, 40), (L_17_DIGITS, 40), (L_99_DIGITS, 230)])
def test_norm_gap_matches_eigensolver_on_closed_form(L, digits):
    ctx = RealCtx(digits=digits)
    _assert_norm_matches_eigensolver(as_bary(k_formula(L, ctx), ctx), ctx)


def test_norm_gap_of_identity_and_reflections(ctx40):
    with ctx40.work():
        assert norm_gap(bary.IDENTITY) == 0
        for i in (1, 2, 3, 4):
            # K - I has the one column (2/3, 2/3, 2/3, -2) up to order: rank one, norm 4/sqrt(3)
            assert abs(norm_gap(bary.reflection_matrix(i)) - 4 / mp.sqrt(3)) < mpf(10) ** -50


def test_gap_report_quadrahelix_10(ctx40):
    rep = gap_report(spell(quadrahelix_runs(10)), ctx40)
    assert abs(rep.gap - mpf("0.0775081010798830")) < 1e-13
    assert rep.r0 == 1
    with ctx40.work():
        assert rep.gap <= rep.norm_gap <= 4 * rep.maxnorm_gap


def test_gap_report_pinned_lead(ctx40):
    s = spell(quadrahelix_runs(4))
    free = gap_report(s, ctx40)
    leads = bary.lead_matrices(bary.chain_matrix(s), s[0], s[1])
    pinned = lead_minimized_report(leads, ctx40, 4)
    assert pinned.r0 == 4
    assert pinned.gap >= free.gap  # the free minimum can only be better
    with pytest.raises(ValueError, match="collides with the second symbol"):
        lead_minimized_report(leads, ctx40, 2)
    with pytest.raises(ValueError, match=r"leading face must be 1\.\.4, got 9"):
        lead_minimized_report(leads, ctx40, 9)


def test_gap_report_too_short(ctx40):
    with pytest.raises(ValueError):
        gap_report((1,), ctx40)


def test_json_and_csv_round(ctx40):
    rep = gap_report(spell(quadrahelix_runs(2)), ctx40)
    d = rep.to_json_dict()
    assert set(d) == {"gap", "norm_gap", "maxnorm_gap", "discrete_gap", "r0", "delta_bar"}
    row = rep.to_csv_row()
    assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))


@settings(max_examples=10)
@given(valid_strings(min_size=3, max_size=10).filter(lambda s: s[0] != s[-1]))
def test_loop_walk_matches_gap_report_of_every_cut(ctx40, s):
    # the incremental walk against a fresh gap_report of each rotation
    loop = loop_gap_report(s, ctx40)
    gaps = [gap_report(rotate(s, cut), ctx40).gap for cut in range(len(s))]
    best_cut = min(range(len(s)), key=lambda i: (gaps[i], i))
    assert loop.best_cut == best_cut
    assert loop.best.gap == gaps[best_cut]
    assert loop.n_cuts_below_printed == sum(1 for g in gaps if g < gaps[0])


def test_loop_gap_rejects_open_strings(ctx40):
    with pytest.raises(ValueError):
        loop_gap_report((1, 2, 1), ctx40)  # first == last: not cyclically valid


def test_periodic_loop_takes_the_first_tied_cut(ctx40):
    # rotating (1234)x3 by four letters gives the same string, so the cuts
    # tie in threes; the scan must agree with a full per-cut gap_report
    s = (1, 2, 3, 4) * 3
    loop = loop_gap_report(s, ctx40)
    gaps = [gap_report(rotate(s, cut), ctx40).gap for cut in range(len(s))]
    tied = [cut for cut, g in enumerate(gaps) if g == min(gaps)]
    assert len(tied) >= 3
    assert loop.best_cut == tied[0]
    assert loop.best.gap == gaps[tied[0]]
    assert loop.n_cuts_below_printed == sum(1 for g in gaps if g < gaps[0])


def test_lead_ties_go_to_the_smallest_face(ctx40):
    # far from closure the lead often leaves the farthest vertex in place, so
    # leads tie exactly; "12" ties all three of its leads 1, 3 and 4
    for s in ((1, 2), (3, 1)):
        leads = bary.lead_matrices(bary.chain_matrix(s), *s)
        assert len({gap2(K) for K in leads.values()}) == 1
        assert gap_report(s, ctx40).r0 == min(leads)


def test_loop_scan_takes_cut_67_at_every_precision():
    # six cuts of the 540-loop tie exactly at the least gap (67, 68, 247,
    # 248, 427, 428); rounded gaps used to pick 67 or 68 by the digits, and
    # to count 246 or 249 cuts below the printed one
    s = spell(preset_540_runs())
    for digits in (30, 40, 50, 60, 80):
        loop = loop_gap_report(s, RealCtx(digits=digits))
        assert (loop.best_cut, loop.n_cuts_below_printed) == (67, 246), digits
    K = bary.chain_matrix(s)
    gaps = []
    for cut, sym in enumerate(s):
        gaps.append(min(gap2(L) for L in bary.lead_matrices(K, sym, s[(cut + 1) % len(s)]).values()))
        K = bary.conjugate(K, sym)
    assert [cut for cut, g in enumerate(gaps) if g == min(gaps)] == [67, 68, 247, 248, 427, 428]


def test_loop_scan_multiplies_the_loop_once(ctx40, monkeypatch):
    # the printed and the best cut are reported from the leads the scan held
    s = spell(preset_540_runs())
    calls = []
    chain_matrix = bary.chain_matrix
    monkeypatch.setattr(bary, "chain_matrix", lambda t: calls.append(t) or chain_matrix(t))
    loop = loop_gap_report(s, ctx40)
    assert calls == [s]
    assert loop.printed == gap_report(s, ctx40)
    assert loop.best == gap_report(rotate(s, loop.best_cut), ctx40)


def _assert_gaps_match_reference(s, ctx, rel=mpf(10) ** -35):
    """The exact gap of every lead of s against the Cartesian reference."""
    t0 = invisible_t0(ctx)
    with ctx.work():
        for K in bary.lead_matrices(bary.chain_matrix(s), s[0], s[1]).values():
            want = hausdorff_tetra(t0, apply_bary(t0, K.to_mpf(ctx)))
            assert abs(root(gap2(K)) - want) <= rel * want, s


def test_exact_gap_matches_reference_hausdorff(ctx40):
    rng = random.Random(200)
    for _ in range(200):
        _assert_gaps_match_reference(random_valid_string(rng, rng.randint(3, 60)), ctx40)


@pytest.mark.parametrize("L", [2, 10, 29, 70, 1960])
def test_exact_gap_matches_reference_on_quadrahelix(L, ctx40):
    _assert_gaps_match_reference(spell(quadrahelix_runs(L)), ctx40)


def test_exact_gap_matches_reference_on_540_loop_cuts(ctx40):
    # near-closures: K - I and the gaps are about 1e-17
    s = spell(preset_540_runs())
    for cut in random.Random(540).sample(range(len(s)), 20):
        _assert_gaps_match_reference(rotate(s, cut), ctx40)


def test_discrete_gap_matches_reference_vertex_distance(ctx40):
    rng = random.Random(7)
    t0 = invisible_t0(ctx40)
    strings = [random_valid_string(rng, rng.randint(2, 60)) for _ in range(100)]
    with ctx40.work():
        for s in strings + [spell(quadrahelix_runs(10))]:
            K = bary.chain_matrix(s)
            want = discrete_hausdorff(t0, apply_bary(t0, K.to_mpf(ctx40)))
            assert abs(root(discrete_gap2(K)) - want) <= mpf(10) ** -35 * want, s


def test_inverse_is_the_reversed_product():
    rng = random.Random(3)
    strings = [spell(preset_540_runs())] + [random_valid_string(rng, rng.randint(1, 60)) for _ in range(200)]
    for s in strings:
        K = bary.chain_matrix(s)
        assert tuple(map(tuple, inverse(K.num, 3**K.power))) == bary.chain_matrix(s[::-1]).num
        # leads come back in lowest terms; their inverses stay over the same power
        if len(s) > 1:
            for L in bary.lead_matrices(K, s[0], s[1]).values():
                d = 3**L.power
                inv = inverse(L.num, d)
                assert all(
                    sum(L.num[i][k] * inv[k][j] for k in range(4)) == d * d * (i == j)
                    for i in range(4)
                    for j in range(4)
                )


@given(p=st.integers(0, 10**60), q=st.integers(1, 10**60))
def test_root_rounds_once(p, q):
    with mp.workdps(55):
        got = root(Fraction(p, q))
        with mp.workdps(200):
            want = mp.sqrt(mpf(p) / q)
        assert got == +want
