"""Tests for the run product of named chains, the closed-form oracle and the rigid-motion decomposition."""

from mpmath import mp, mpf

import pytest
from hypothesis import given, strategies as st

import paper_checks
from conftest import L_17_DIGITS, L_99_DIGITS
from paper_checks import (
    _H1_SIN_REJECTED,
    as_bary,
    axis_point_norm_bound,
    corollary_angle_checks,
    k_formula,
    left_kernel_residuals,
    limiting_rhombus,
)
from reference_gap import (
    apply_bary,
    hausdorff_tetra,
    motion_eigenvalues,
    rank_of_k_minus_i,
    t0_operator_norm,
)
from tetrachain import bary, motion
from tetrachain.geometry import invisible_t0, realize_chain
from tetrachain.metrics import gap2, gap_report, norm_gap, root
from tetrachain.motion import (
    chain_gap_report,
    closed_form_gap,
    decompose_motion,
    gap_bound_oh,
    gap_bound_qh,
    homogeneous_t0,
    leg_axis_cosines,
    limit_matrix_norm,
    motion_residuals,
    ratio_terms,
)
from tetrachain.precision import RealCtx, reduce_theta_multiple
from tetrachain.search import convergent_lengths
from tetrachain.strings import (
    octahelix_runs,
    parse_string,
    quadrahelix_runs,
    spell,
    tetrahelix_runs,
)


def _maxdiff(A, B):
    return max(abs(A[i][j] - B[i][j]) for i in range(4) for j in range(4))


# --- the run product vs the exact rational product ----------------------------


@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("a", [1, 2, 3, 4])
def test_run_product_of_one_run_matches_exact_product(a, step, ctx40):
    # X^m from the derived tables is exact at m = 0..3 by construction; beyond, by Sylvester
    for m in range(1, 40):
        runs = ((a, step, m),)
        exact = bary.chain_matrix(spell(runs)).to_mpf(ctx40)
        K = bary.run_product(runs, ctx40).to_mpf(ctx40)
        with ctx40.work():
            assert _maxdiff(K, exact) < mpf(10) ** -45, m


@given(
    runs=st.one_of(
        st.integers(1, 4999).map(quadrahelix_runs),
        st.integers(1, 2499).map(octahelix_runs),
        st.integers(1, 20_000).map(tetrahelix_runs),
    )
)
def test_run_product_matches_exact_product(runs, ctx40):
    exact = bary.chain_matrix(spell(runs)).to_mpf(ctx40)
    K = bary.run_product(runs, ctx40).to_mpf(ctx40)
    with ctx40.work():
        # entries grow like the run length m, and so do their rounding errors
        assert _maxdiff(K, exact) < mpf(10) ** -45 * max(m for _, _, m in runs) ** 2


# the closed form at enough digits for each L: ~1e98 seed-edges out at the
# generic 99-digit L, a gap ~1e-102 at the convergent one
@pytest.mark.parametrize(
    "L, digits",
    [(L_17_DIGITS, 60), (L_99_DIGITS, 300), (2 * 10**98 // 3, 300)],
    ids=["17-digit", "99-digit", "generic-99-digit"],
)
def test_closed_form_gap_matches_the_closed_form_oracle(L, digits, ctx40):
    cf = closed_form_gap(L, ctx40)
    ctx = RealCtx(digits=digits)
    K = as_bary(k_formula(L, ctx), ctx)
    with ctx.work():
        for got, want in ((cf.gap, root(gap2(K))), (cf.norm_gap, norm_gap(K))):
            assert abs(got - want) < mpf(10) ** -38 * want


def test_closed_form_gap_at_a_generic_99_digit_L(ctx40):
    # the chain end lies ~1e97 seed-edges out; the working digits grow to resolve it
    cf = closed_form_gap(2 * 10**98 // 3, ctx40)
    assert mp.nstr(cf.gap, 20) == "2.7025074662780178834e+97"


# --- the closed-form oracle vs exact rational product ---------------------------


@pytest.mark.parametrize("L", [1, 2, 3, 4, 10, 29])
def test_k_formula_matches_exact_product(L, ctx60):
    s = spell(quadrahelix_runs(L))
    exact = bary.chain_matrix(s).to_mpf(ctx60)
    K = k_formula(L, ctx60)
    with ctx60.work():
        assert _maxdiff(K, exact) < mpf(10) ** -55


@given(L=st.integers(min_value=1, max_value=60))
def test_k_formula_matches_exact_product_random(L, ctx40):
    exact = bary.chain_matrix(spell(quadrahelix_runs(L))).to_mpf(ctx40)
    K = k_formula(L, ctx40)
    with ctx40.work():
        assert _maxdiff(K, exact) < mpf(10) ** -40


def test_rejected_coefficient_variant_disagrees(ctx60, monkeypatch):
    # the one-tenth-scaled sin block is close but measurably wrong
    exact = bary.chain_matrix(spell(quadrahelix_runs(10))).to_mpf(ctx60)
    monkeypatch.setattr(paper_checks, "H1_SIN", _H1_SIN_REJECTED)
    K_bad = k_formula(10, ctx60)
    with ctx60.work():
        assert _maxdiff(K_bad, exact) > mpf(10) ** -10


def test_closed_form_gap_matches_direct_report(ctx40):
    cf = closed_form_gap(10, ctx40)
    direct = gap_report(spell(quadrahelix_runs(10)), ctx40)
    assert cf.L == 10 and cf.k == 4
    with ctx40.work():
        assert abs(cf.gap - direct.gap) < mpf(10) ** -35
        assert abs(cf.delta_bar - mpf("0.173022584522146901")) < mpf(10) ** -15
        assert cf.gap <= cf.norm_gap


def test_closed_form_gap_far_beyond_exact_range(ctx40):
    # a string of length 2407778 is far past the exact-product limit
    cf = closed_form_gap(601944, ctx40)
    with ctx40.work():
        assert abs(cf.gap - mpf("1.3174462e-7")) < mpf(10) ** -13


def test_closed_form_gap_beyond_str_limit():
    # the first convergent L past 4,300 digits (the int -> str limit); its
    # gap ~ 1/L needs about as many working digits as L has
    ctx = RealCtx(digits=4340)
    floor = 10**4300
    L = min(L for L in convergent_lengths(ctx, 10 * floor) if L >= floor)
    cf = closed_form_gap(L, ctx)
    with ctx.work():
        assert 0 < cf.gap <= gap_bound_qh(L, ctx).bound
        assert cf.gap < mpf(10) ** -4299


def test_quadrahelix_gap_report_below_float_range():
    # the first convergent L past 10^320: the K - I of its printed lead and
    # its gap lie below 1e-308, out of float64's range; the run product's
    # choice of lead and its gap against the Cartesian reference on every lead
    ctx = RealCtx(digits=400)
    floor = 10**320
    L = min(L for L in convergent_lengths(ctx, 10 * floor) if L >= floor)
    rep = chain_gap_report(quadrahelix_runs(L), ctx, None)
    K = as_bary(k_formula(L, ctx), ctx)
    t0 = invisible_t0(ctx)
    with ctx.work():
        leads = bary.lead_matrices(K, 1, 2)
        gaps = {r: hausdorff_tetra(t0, apply_bary(t0, M.to_mpf(ctx))) for r, M in leads.items()}
        r0 = min(gaps, key=lambda r: (gaps[r], r))
        assert rep.r0 == r0
        assert abs(rep.gap - gaps[r0]) < mpf(10) ** -60 * gaps[r0]
        assert 0 < rep.gap < mpf(10) ** -308


def test_gap_report_settles_on_its_digits_below_float_range(monkeypatch):
    # the run path certifies a report on the mpf digits of its four metrics,
    # not on their floats, which all read 0.0 below 1e-308
    shown = []
    certified = motion.certified

    def recording(evaluate, digits, extra):
        def evaluate_and_record(work):
            out = evaluate(work)
            shown.append(out[0])
            return out

        return certified(evaluate_and_record, digits, extra)

    monkeypatch.setattr(motion, "certified", recording)
    ctx = RealCtx(digits=400)
    floor = 10**320
    L = min(L for L in convergent_lengths(ctx, 10 * floor) if L >= floor)
    rep = chain_gap_report(quadrahelix_runs(L), ctx, None)
    assert len(shown) == 2 and shown[0] == shown[1]
    metrics, r0 = shown[0]
    assert r0 == rep.r0 and len(metrics) == 4
    with ctx.work():
        assert 0 < mp.make_mpf(metrics[0]) < mpf(10) ** -308
        assert abs(mp.make_mpf(metrics[0]) - rep.gap) < mpf(10) ** -399 * rep.gap


def test_closed_form_kernel_matches_exact_kernel(ctx40):
    # the kernel on the closed form's K, rounded once, against the kernel on
    # the exact products, on every lead of QH_10
    exact = bary.lead_matrices(bary.chain_matrix(spell(quadrahelix_runs(10))), 1, 2)
    with ctx40.work():
        closed = bary.lead_matrices(as_bary(k_formula(10, ctx40), ctx40), 1, 2)
        assert closed.keys() == exact.keys()
        for r, K in exact.items():
            want = root(gap2(K))
            assert abs(root(gap2(closed[r])) - want) < mpf(10) ** -35 * want, r


@pytest.mark.parametrize("r0", [None, 1, 3, 4])
def test_quadrahelix_gap_report_paths_agree(r0, ctx40, monkeypatch):
    # the exact products against the run product with its leads M_r0 M_1 K
    exact = chain_gap_report(quadrahelix_runs(10), ctx40, r0)
    monkeypatch.setattr(motion, "MAX_EXACT_LENGTH", 0)
    closed = chain_gap_report(quadrahelix_runs(10), ctx40, r0)
    assert closed.r0 == exact.r0 == (r0 or 1)
    with ctx40.work():
        for field in ("gap", "norm_gap", "maxnorm_gap", "discrete_gap"):
            assert abs(getattr(closed, field) - getattr(exact, field)) < mpf(10) ** -35


# --- rigid-motion decomposition -----------------------------------------------


@pytest.fixture(scope="module")
def qh10_motion(ctx40):
    K = k_formula(10, ctx40)
    return K, decompose_motion(as_bary(K, ctx40), invisible_t0(ctx40), ctx40)


def test_motion_residuals_tiny(qh10_motion, ctx40):
    _, m = qh10_motion
    res = motion_residuals(m, ctx40)
    assert set(res) == {
        "orthogonality",
        "det_minus_1",
        "axis_invariance",
        "w_dot_t",
        "axis_point",
    }
    with ctx40.work():
        assert all(v < mpf(10) ** -40 for v in res.values())
        assert abs(m.angle - mpf("0.029259127")) < mpf(10) ** -8


def test_motion_from_exact_matrix(ctx40):
    # the decomposition accepts the exact rational product directly
    m = decompose_motion(
        bary.chain_matrix(spell(quadrahelix_runs(4))), invisible_t0(ctx40), ctx40
    )
    res = motion_residuals(m, ctx40)
    with ctx40.work():
        assert all(v < mpf(10) ** -40 for v in res.values())


@pytest.mark.parametrize("s", ["1234", "4321", "12341234", "1213", "123142"])
def test_axis_point_lies_on_the_axis_of_a_screw(s, ctx40):
    # u - R u is t less its slide along w, and u is the axis point nearest the
    # origin; a tetrahelix slides along an axis through the origin
    m = decompose_motion(bary.chain_matrix(parse_string(s)), invisible_t0(ctx40), ctx40)
    res = motion_residuals(m, ctx40)
    with ctx40.work():
        assert res["axis_point"] < mpf(10) ** -50
        assert abs(sum(a * b for a, b in zip(m.u, m.w))) < mpf(10) ** -50
        if s.startswith(("1234", "4321")):
            assert max(abs(x) for x in m.u) < mpf(10) ** -50
            assert abs(res["w_dot_t"] - mp.sqrt(sum(x * x for x in m.t))) < mpf(10) ** -50


def test_motion_eigenvalue_structure(qh10_motion, ctx40):
    K, m = qh10_motion
    eigs = motion_eigenvalues(K, ctx40)
    with ctx40.work():
        tol = mpf(10) ** -30
        assert all(abs(abs(e) - 1) < tol for e in eigs)
        complex_pair = [e for e in eigs if abs(mp.im(e)) > tol]
        ones = [e for e in eigs if abs(e - 1) < tol]
        assert len(complex_pair) == 2 and len(ones) == 2
        z1, z2 = complex_pair
        assert abs(z1 - mp.conj(z2)) < tol
        assert abs(abs(mp.arg(z1)) - m.angle) < tol


def test_rank_of_k_minus_i(qh10_motion, ctx40):
    K, _ = qh10_motion
    assert rank_of_k_minus_i(K, ctx40) == 2
    ident = [[mpf(1 if i == j else 0) for j in range(4)] for i in range(4)]
    assert rank_of_k_minus_i(ident, ctx40) == 0


def test_left_kernel_rows(qh10_motion, ctx40):
    K, m = qh10_motion
    res = left_kernel_residuals(K, m.w, invisible_t0(ctx40), ctx40)
    with ctx40.work():
        assert res["ones_row"] < mpf(10) ** -40
        assert res["w_t0_row"] < mpf(10) ** -40


def test_identity_matrix_is_pure_translation(ctx40):
    m = decompose_motion(bary.IDENTITY, invisible_t0(ctx40), ctx40)
    assert m.w is None and m.u is None
    assert m.angle == 0
    res = motion_residuals(m, ctx40)
    assert set(res) == {"orthogonality", "det_minus_1"}


def test_homogeneous_t0_shape(ctx40):
    T = homogeneous_t0(invisible_t0(ctx40))
    assert len(T) == 4 and all(len(row) == 4 for row in T)
    assert all(x == 1 for x in T[3])


# --- angle identities and bounds ----------------------------------------------


def test_corollary_angle_identity(ctx40):
    out = corollary_angle_checks(10, ctx40)
    with ctx40.work():
        assert out["agreement"] < mpf(10) ** -45
        assert abs(out["rho0"] - mpf("1.5634815")) < mpf(10) ** -7
        assert abs(out["sin_rho"] - mpf("0.0073147164")) < mpf(10) ** -10
        # the screw angle is the wrap of four copies of the half-turn angle
        wrapped = abs(4 * out["rho0"] - 2 * mp.pi)
        assert abs(out["motion_angle"] - wrapped) < mpf(10) ** -30
        assert out["norm_bound_ok"]
        assert out["r_norm"] <= out["delta_bar"] ** 2


@pytest.mark.parametrize("L", [29, 40, 70, 182, 253])
def test_qh_gap_bound_dominates_measured_gap(L, ctx40):
    b = gap_bound_qh(L, ctx40)
    report = gap_report(spell(quadrahelix_runs(L)), ctx40)
    with ctx40.work():
        # the paper's intermediate inequality, 3.51 L delta_bar^2
        tight_bound = mpf("3.51") * (mpf(L) * b.delta_bar**2)
        assert report.gap <= tight_bound <= b.bound


def test_oh_gap_bound_686(ctx40):
    b = gap_bound_oh(686, ctx40)
    assert b.target == "gamma_plus"
    with ctx40.work():
        d, _ = reduce_theta_multiple(686, ctx40, offset="gamma_plus")
        assert abs(b.delta_bar - d) < mpf(10) ** -45
        assert mpf("2.4e-4") < b.bound < mpf("2.6e-4")


def test_asymptotic_ratio_approaches_limit(ctx40):
    with ctx40.work():
        limit = 8 * mp.sqrt(3) / 25
        r = ratio_terms(1960, ctx40)[2]
        assert abs(r - limit) / limit < mpf("0.02")
        assert abs(limit_matrix_norm(ctx40) - limit) < mpf(10) ** -35


def test_t0_operator_norm_closed_form(ctx40):
    value, closed = t0_operator_norm(ctx40)
    with ctx40.work():
        assert abs(value - closed) < mpf(10) ** -35


def test_axis_point_within_bound(qh10_motion, ctx40):
    _, m = qh10_motion
    with ctx40.work():
        unorm = mp.sqrt(sum(x * x for x in m.u))
        assert unorm <= axis_point_norm_bound(10, ctx40)


# --- leg axes and the limiting rhombus ----------------------------------------


def test_leg_axis_cosines_quadrahelix(ctx40):
    chain = realize_chain(spell(quadrahelix_runs(4)), ctx40)
    cos = leg_axis_cosines(chain, ctx40)
    assert len(cos) == 3
    with ctx40.work():
        signs = [-1, 1, -1]
        for got, sgn in zip(cos, signs):
            assert abs(got - mpf(sgn) / 5) < mpf(10) ** -20


def test_leg_axis_cosines_octahelix(ctx40):
    chain = realize_chain(spell(octahelix_runs(4)), ctx40)
    cos = leg_axis_cosines(chain, ctx40)
    assert len(cos) == 7
    with ctx40.work():
        for got in cos:
            assert abs(got - mpf(1) / 5) < mpf(10) ** -20


def test_limiting_rhombus(ctx40):
    out = limiting_rhombus(ctx40)
    with ctx40.work():
        x = 2 * mp.sqrt(6) / 5
        tol = mpf(10) ** -30
        targets = ((0, 0), (0, 1), (x, mpf(4) / 5), (x, -mpf(1) / 5))
        for got, want in zip(out["vertices"], targets):
            assert abs(got[0] - want[0]) < tol and abs(got[1] - want[1]) < tol
        assert abs(out["short_diagonal"] - 2 * mp.sqrt(10) / 5) < tol
        for i, ang in enumerate(out["angles"]):
            want = mpf(1 if i % 2 else -1) / 5
            assert abs(mp.cos(ang) - want) < tol
