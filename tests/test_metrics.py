import random

import pytest
from hypothesis import given, settings
from mpmath import mp, mpf

from conftest import valid_strings
from tetrachain import bary, metrics
from tetrachain.geometry import Tetrahedron, apply_bary, invisible_t0, realize_printed
from tetrachain.metrics import (
    directed_hausdorff,
    discrete_hausdorff,
    gap_bounds,
    gap_report,
    hausdorff_tetra,
    loop_gap_report,
    maxnorm,
    point_to_tetra,
    point_to_triangle,
    spectral_norm,
)
from tetrachain.strings import preset_540_string, quadrahelix_string, rotate

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


def test_point_to_tetra(c40):
    t0 = invisible_t0(c40)
    with c40.ctx.work():
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


def test_hausdorff_of_translates(c40):
    t0 = invisible_t0(c40)
    with c40.ctx.work():
        t1 = _shift(t0, mpf(3) / 7)
        assert abs(hausdorff_tetra(t0, t1) - mpf(3) / 7) < mpf(10) ** -45
        assert hausdorff_tetra(t0, t0) == 0
        assert abs(
            directed_hausdorff(t0, t1) - directed_hausdorff(t1, t0)
        ) < mpf(10) ** -45


def test_discrete_bounds_solid(c40):
    t0 = invisible_t0(c40)
    chain = realize_printed(quadrahelix_string(4), c40)
    with c40.ctx.work():
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


def test_gap_report_quadrahelix_10(c40):
    rep = gap_report(quadrahelix_string(10), c40)
    assert abs(rep.gap - mpf("0.0775081010798830")) < 1e-13
    assert rep.r0 == 1
    with c40.ctx.work():
        assert rep.gap <= rep.norm_gap <= 4 * rep.maxnorm_gap


def test_gap_report_pinned_lead(c40):
    s = quadrahelix_string(4)
    free = gap_report(s, c40)
    pinned = gap_report(s, c40, r0=4)
    assert pinned.r0 == 4
    assert pinned.gap >= free.gap  # the free minimum can only be better
    with pytest.raises(ValueError):
        gap_report(s, c40, r0=2)  # collides with the second symbol


def test_gap_report_too_short(c40):
    with pytest.raises(ValueError):
        gap_report((1,), c40)


def test_json_and_csv_round(c40):
    rep = gap_report(quadrahelix_string(2), c40)
    d = rep.to_json_dict()
    assert set(d) == {"gap", "norm_gap", "maxnorm_gap", "discrete_gap", "r0", "delta_bar"}
    row = rep.to_csv_row()
    assert len(row.split(",")) == len(rep.CSV_HEADER.split(","))


@settings(max_examples=10)
@given(valid_strings(min_size=3, max_size=10).filter(lambda s: s[0] != s[-1]))
def test_loop_walk_matches_gap_report_of_every_cut(c40, s):
    # the incremental walk against a fresh gap_report of each rotation
    loop = loop_gap_report(s, c40)
    gaps = [gap_report(rotate(s, cut), c40).gap for cut in range(len(s))]
    best_cut = min(range(len(s)), key=lambda i: (gaps[i], i))
    assert loop.best_cut == best_cut
    assert loop.best.gap == gaps[best_cut]
    assert loop.n_cuts_below_printed == sum(1 for g in gaps if g < gaps[0])


def test_loop_gap_rejects_open_strings(c40):
    with pytest.raises(ValueError):
        loop_gap_report((1, 2, 1), c40)  # first == last: not cyclically valid


def test_periodic_loop_takes_the_first_tied_cut(c40):
    # rotating (1234)x3 by four letters gives the same string, so the cuts
    # tie in threes; the scan must agree with a full per-cut gap_report
    s = (1, 2, 3, 4) * 3
    loop = loop_gap_report(s, c40)
    gaps = [gap_report(rotate(s, cut), c40).gap for cut in range(len(s))]
    tied = [cut for cut, g in enumerate(gaps) if g == min(gaps)]
    assert len(tied) >= 3
    assert loop.best_cut == tied[0]
    assert loop.best.gap == gaps[tied[0]]
    assert loop.n_cuts_below_printed == sum(1 for g in gaps if g < gaps[0])


def _counting_hausdorff(monkeypatch):
    calls = []
    real = metrics.hausdorff_tetra

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(metrics, "hausdorff_tetra", counted)
    return calls


def test_loop_scan_decides_few_leads_in_mpf(c40, monkeypatch):
    # a full scan of the 540-loop makes 1,626 mpf Hausdorff calls (540 cuts x
    # 3 leads, and 3 leads in each of the two closing reports)
    calls = _counting_hausdorff(monkeypatch)
    loop = loop_gap_report(preset_540_string(), c40)
    assert (loop.best_cut, loop.n_cuts_below_printed) == (68, 246)
    assert len(calls) <= 100


@pytest.mark.parametrize("L", [2, 10, 29, 70, 1960])
def test_lead_screen_leaves_one_lead_of_a_near_loop(L, c40, monkeypatch):
    # the other two leads of QH_L sit about 0.87 away
    calls = _counting_hausdorff(monkeypatch)
    gap_report(quadrahelix_string(L), c40)
    assert len(calls) == 1


def _assert_bounds_enclose_every_lead(s, c):
    t0 = invisible_t0(c)
    with c.ctx.work():
        for K in bary.lead_matrices(bary.chain_matrix(s), s[0], s[1]).values():
            gap = hausdorff_tetra(t0, apply_bary(t0, K.to_mpf(c.ctx)))
            diff = K.minus_identity()
            for D in (diff, diff.to_mpf(c.ctx)):  # exact and mpf rows
                lo, hi = gap_bounds(t0, D)
                assert lo <= gap <= hi, (s, lo, gap, hi)


@given(valid_strings(min_size=2, max_size=40))
def test_gap_bounds_enclose_the_gap(c40, s):
    _assert_bounds_enclose_every_lead(s, c40)


def test_gap_bounds_enclose_540_loop_cuts(c40):
    # near-closures: K - I and the gaps are about 1e-17
    s = preset_540_string()
    for cut in random.Random(540).sample(range(len(s)), 20):
        _assert_bounds_enclose_every_lead(rotate(s, cut), c40)
