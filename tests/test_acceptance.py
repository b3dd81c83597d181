"""Acceptance gate: one test per published claim the package must reproduce.

Each test prints a single summary line (visible with ``pytest -rA``) carrying
the measured values, and asserts the claim with its pinned tolerance.  The
desk-table rows are parametrized so a failing row cannot hide the others.
"""

import itertools
import random
import time
from decimal import Decimal

from mpmath import mp, mpf

import pytest

from conftest import L_17_DIGITS, L_99_DIGITS, reference_fold
import paper_checks
from paper_checks import (
    _H1_SIN_REJECTED,
    edge_lengths,
    k_formula,
    left_kernel_residuals,
    limiting_rhombus,
)
from reference_gap import apply_bary, hausdorff_tetra, motion_eigenvalues, rank_of_k_minus_i
from tetrachain import bary
from tetrachain.embedding import quadplane_determinant, verify_embedded
from tetrachain.geometry import invisible_t0, realize_chain
from tetrachain.metrics import gap2, gap_report, loop_gap_report, root
from tetrachain.motion import (
    chain_gap,
    closed_form_gap,
    decompose_motion,
    gap_bound_oh,
    motion_residuals,
    ratio_terms,
)
from tetrachain.precision import RealCtx, reduce_theta_multiple
from tetrachain.search import continued_fraction_convergents, lattice_table
from tetrachain.strings import (
    format_string,
    is_valid,
    octahelix_runs,
    preset_540_runs,
    quadrahelix_runs,
    spell,
)

from conftest import random_valid_string

QH4 = "123413412321431432"
QH10 = "123412341231234123412321432143213214321432"

# the desk table: (L, printed gap, printed reduced angle)
DESK_ROWS = [
    (1, "1.0", "-1.7"),
    (2, "0.32", "0.62"),
    (7, "0.42", "-0.45"),
    (10, "0.078", "0.17"),
    (29, "0.063", "-0.099"),
    (40, "0.046", "0.074"),
    (70, "0.0095", "-0.026"),
    (182, "0.018", "0.022"),
    (253, "0.00050", "-0.0031"),
    (1960, "0.000089", "0.00048"),
]

# Printed desk-table gaps that every evaluation path refutes, mapped to the
# value the paths agree on.  The printed value stays in DESK_ROWS so the
# discrepancy stays visible; criterion 03 checks an erratum row against both
# values, so an entry fails as soon as the printed value is reproduced.
#   L=2: exact products, the run product and a Householder reflection fold give
#   0.35526391199886911115... for QH_2 = 1231232132
#   (test_qh2_gap_agrees_across_paths), and no embedded length-10 chain has
#   a gap within 0.01 of 0.32 (test_length10_gap_minima).
DESK_GAP_ERRATA = {2: "0.36"}

QH2_GAP = "0.355263911998869111153279346977234747"

CONVERGENT_L = [
    0, 1, 2, 7, 10, 29, 40, 70, 182, 253, 1960, 12019, 13980, 26000,
    143985, 601944, 5561490, 6163435, 11724926, 17888362, 65390015,
]

# lattice rows: (x, y, printed log10 of the approximation error)
LATTICE_ROWS = [
    (4, -1, "-1.80"),
    (686, -251, "-3.46"),
    (1274, -466, "-3.88"),
    (64708, -23692, "-5.48"),
    (666653, -244088, "-5.65"),
    (1870543, -684880, "-6.86"),
    (111021125, -40649248, "-7.79"),
    (233817317, -85609817, "-9.23"),
    (3113400370, -1139939675, "-9.71"),
    (434337601428, -159028266709, "-10.4"),
]

def _within_display_unit(value, printed: str):
    """|value - printed| <= one unit in the last displayed decimal place."""
    unit = mpf(10) ** Decimal(printed).as_tuple().exponent
    return abs(value - mpf(printed)) <= unit * (1 + mpf(10) ** -9)


def _valid_strings_from(prefix, n):
    """All valid strings of length n that start with the valid prefix."""
    for steps in itertools.product((1, 2, 3), repeat=n - len(prefix)):
        s = list(prefix)
        for d in steps:
            s.append((s[-1] - 1 + d) % 4 + 1)
        yield tuple(s)


def _all_valid_strings(max_len):
    for n in range(1, max_len + 1):
        for first in (1, 2, 3, 4):
            yield from _valid_strings_from((first,), n)


def _relabel(s, perm):
    """The string s with every face label i replaced by perm[i - 1]."""
    return tuple(perm[x - 1] for x in s)


def test_criterion_01_named_strings(ctx40):
    t0 = time.perf_counter()
    assert format_string(spell(quadrahelix_runs(4))) == QH4
    assert format_string(spell(quadrahelix_runs(10))) == QH10
    loop = spell(preset_540_runs())
    assert len(loop) == 540
    assert is_valid(loop) and loop[0] != loop[-1]
    dt = time.perf_counter() - t0
    assert dt < 10
    print(f"criterion 01 PASS — generator strings match the published ones ({dt:.2f}s)")


def test_criterion_02_no_exact_closure():
    t0 = time.perf_counter()
    count = 0
    for s in _all_valid_strings(8):
        w = bary.divisibility_witness(s)
        assert not w.is_permutation, s
        assert w.numerator % 3 != 0, s
        assert w.power == len(s)
        count += 1
    assert count == 13120
    rng = random.Random(20260814)
    for _ in range(10_000):
        s = random_valid_string(rng, rng.randint(1, 50))
        w = bary.divisibility_witness(s)
        assert not w.is_permutation, s
        assert w.numerator % 3 != 0, s
    dt = time.perf_counter() - t0
    assert dt < 60
    print(
        f"criterion 02 PASS — {count} exhaustive + 10000 random chains, "
        f"witness never divisible by 3 ({dt:.2f}s)"
    )


@pytest.mark.parametrize("L,gap_printed,delta_printed", DESK_ROWS)
def test_criterion_03_desk_table_row(L, gap_printed, delta_printed, ctx40):
    t0 = time.perf_counter()
    rep = gap_report(spell(quadrahelix_runs(L)), ctx40)
    delta_bar, _ = reduce_theta_multiple(L + 1, ctx40)
    corrected = DESK_GAP_ERRATA.get(L)
    with ctx40.work():
        assert _within_display_unit(delta_bar, delta_printed), (
            f"L={L}: reduced angle {mp.nstr(delta_bar, 10)} vs printed {delta_printed}"
        )
        if corrected is None:
            assert _within_display_unit(rep.gap, gap_printed), (
                f"L={L}: gap {mp.nstr(rep.gap, 10)} vs printed {gap_printed}"
            )
        else:
            assert _within_display_unit(rep.gap, corrected), (
                f"L={L}: gap {mp.nstr(rep.gap, 10)} vs erratum {corrected}"
            )
            assert not _within_display_unit(rep.gap, gap_printed), (
                f"L={L}: gap {mp.nstr(rep.gap, 10)} reproduces printed "
                f"{gap_printed}; the erratum no longer holds"
            )
    dt = time.perf_counter() - t0
    assert dt < 120
    shown = gap_printed if corrected is None else f"{corrected} (printed {gap_printed})"
    print(
        f"criterion 03 PASS — L={L}: gap {mp.nstr(rep.gap, 8)} ~ {shown}, "
        f"angle {mp.nstr(delta_bar, 8)} ~ {delta_printed} ({dt:.2f}s)"
    )


def _point_to_simplex(p, t):
    """Distance from p to the solid tetrahedron t via its 15 sub-simplices.

    The nearest point of a simplex is the orthogonal projection of p onto
    the affine hull of one of its faces (vertex, edge, triangle or the cell
    itself) that lands inside that face.  Every admissible projection lies
    in t, so the minimum over them is the distance.  Independent of
    the Voronoi-region walk of ``reference_gap.point_to_tetra``.
    """
    best = None
    for k in range(1, 5):
        for face in itertools.combinations(t.vertices, k):
            w0, rest = face[0], face[1:]
            edges = [[w[a] - w0[a] for a in range(3)] for w in rest]
            d = [p[a] - w0[a] for a in range(3)]
            lam = []
            if edges:
                gram = mp.matrix([[mp.fdot(u, v) for v in edges] for u in edges])
                lam = list(mp.lu_solve(gram, mp.matrix([mp.fdot(u, d) for u in edges])))
            if min([1 - sum(lam), *lam]) < 0:
                continue
            q = [w0[a] + sum(x * u[a] for x, u in zip(lam, edges)) for a in range(3)]
            dist = mp.sqrt(sum((p[a] - q[a]) ** 2 for a in range(3)))
            if best is None or dist < best:
                best = dist
    return best


def _hausdorff_by_projection(a, b):
    return max(
        max(_point_to_simplex(v, y) for v in x.vertices) for x, y in ((a, b), (b, a))
    )


def test_qh2_gap_agrees_across_paths():
    t0 = time.perf_counter()
    s = spell(quadrahelix_runs(2))
    assert format_string(s) == "1231232132"
    gaps = {}
    for digits in (40, 80):
        ctx = RealCtx(digits=digits)
        rep = gap_report(s, ctx)
        assert rep.r0 == s[0]  # the minimizing lead is the printed one
        with ctx.work():
            # the run product, the path past the exact-product limit
            closed = root(gap2(bary.run_product(quadrahelix_runs(2), ctx)))
            realized = _hausdorff_by_projection(
                invisible_t0(ctx), reference_fold(s, ctx)[-1]
            )
            agree = mpf(10) ** -(digits - 10)
            assert abs(closed - rep.gap) < agree, digits
            assert abs(realized - rep.gap) < agree, digits
            assert abs(rep.gap - mpf(QH2_GAP)) < mpf(10) ** -35, digits
        gaps[digits] = rep.gap
    with mp.workdps(80):
        assert abs(gaps[80] - gaps[40]) < mpf(10) ** -40
    dt = time.perf_counter() - t0
    assert dt < 30
    print(
        f"QH_2 gap PASS — exact products, run product and realization agree on "
        f"{mp.nstr(gaps[40], 20)} at 40 and 80 digits ({dt:.2f}s)"
    )


def test_length10_gap_minima(ctx40):
    t0 = time.perf_counter()
    n = 10
    # Relabelling faces by a permutation p maps M_i to P M_i P^T = M_{p(i)},
    # and T_0 P is T_0 moved by the isometry that permutes its vertices
    # (T_0 is regular), so every chain of the relabelled string is the image
    # of the original chain under that isometry: same gap, same embedding
    # verdict.  Fixing s[0]=1, s[1]=2 therefore loses nothing.
    reps = list(_valid_strings_from((1, 2), n))
    assert len(reps) == 3 ** (n - 2)
    perms = list(itertools.permutations((1, 2, 3, 4)))
    every = {s for first in (1, 2, 3, 4) for s in _valid_strings_from((first,), n)}
    assert len(every) == 4 * 3 ** (n - 1)
    assert {_relabel(s, p) for s in reps for p in perms} == every
    for p in perms:
        for i in (1, 2, 3, 4):
            m, m_p = bary.reflection_matrix(i), bary.reflection_matrix(p[i - 1])
            assert all(
                m_p.num[p[a] - 1][p[b] - 1] == m.num[a][b]
                for a in range(4)
                for b in range(4)
            )
    seed = invisible_t0(ctx40)
    with ctx40.work():
        assert all(abs(e - 1) < mpf(10) ** -35 for e in edge_lengths(seed))

    # every string scored by its exact squared gap, in increasing order
    scored = sorted((gap2(bary.chain_matrix(s)), s) for s in reps)

    # embedding verdicts in order of increasing gap, up to the first embedded
    # chain; swapping labels 3 and 4 fixes the prefix 12, so mirror pairs
    # share one verdict
    def mirror_key(s):
        return min(s, _relabel(s, (1, 2, 4, 3)))

    verdicts = {}
    best_embedded = None
    for gap, s in scored:
        key = mirror_key(s)
        if key not in verdicts:
            verdicts[key] = verify_embedded(realize_chain(key, ctx40))
        if verdicts[key].embedded:
            best_embedded = (gap, s)
            break
    assert best_embedded is not None
    gap_min, s_min = scored[0]
    gap_emb, s_emb = best_embedded
    with ctx40.work():
        gap_min, gap_emb = root(gap_min), root(gap_emb)
        # the overall minimum, and the reduction checked end to end on it
        assert _within_display_unit(gap_min, "0.0928412046"), mp.nstr(gap_min, 12)
        for p in perms:
            moved = apply_bary(seed, bary.chain_matrix(_relabel(s_min, p)).to_mpf(ctx40))
            assert abs(hausdorff_tetra(seed, moved) - gap_min) < mpf(10) ** -30, p
        # every string was scored, so this is the minimum over all embedded chains
        assert _within_display_unit(gap_emb, "0.3364221582"), mp.nstr(gap_emb, 12)
        assert gap_emb > mpf("0.33")  # no embedded chain within 0.01 of 0.32
    assert not verdicts[mirror_key(s_min)].embedded
    qh2 = spell(quadrahelix_runs(2))
    assert qh2 in reps
    assert verify_embedded(realize_chain(qh2, ctx40)).embedded
    dt = time.perf_counter() - t0
    assert dt < 60
    print(
        f"length-10 minima PASS — {len(reps)} strings scored exactly; minimum "
        f"gap {mp.nstr(gap_min, 10)} at {format_string(s_min)} (not embedded), embedded minimum "
        f"{mp.nstr(gap_emb, 10)} at {format_string(s_emb)}, "
        f"{len(verdicts)} embedding checks ({dt:.2f}s)"
    )


def test_criterion_04_gap_norm_inequalities(ctx40):
    t0 = time.perf_counter()
    chains = [spell(quadrahelix_runs(L)) for L, _, _ in DESK_ROWS]
    rng = random.Random(987654321)
    chains += [random_valid_string(rng, rng.randint(3, 60)) for _ in range(500)]
    slack = mpf(10) ** -20
    with ctx40.work():
        for s in chains:
            rep = gap_report(s, ctx40)
            assert rep.gap <= rep.norm_gap + slack, s
            assert rep.norm_gap <= 4 * rep.maxnorm_gap + slack, s
    dt = time.perf_counter() - t0
    assert dt < 60
    print(
        f"criterion 04 PASS — gap <= spectral <= 4*max-entry on {len(chains)} "
        f"chains ({dt:.2f}s)"
    )


def test_criterion_05_closed_form_identity(ctx60, monkeypatch):
    t0 = time.perf_counter()
    worst = mpf(0)
    with ctx60.work():
        for L in range(4, 51):
            exact = bary.chain_matrix(spell(quadrahelix_runs(L))).to_mpf(ctx60)
            K = k_formula(L, ctx60)
            diff = max(
                abs(K[i][j] - exact[i][j]) for i in range(4) for j in range(4)
            )
            worst = max(worst, diff)
        assert worst < mpf(10) ** -30
        # adjudication guard: the rejected coefficient table must NOT work
        exact10 = bary.chain_matrix(spell(quadrahelix_runs(10))).to_mpf(ctx60)
        monkeypatch.setattr(paper_checks, "H1_SIN", _H1_SIN_REJECTED)
        bad = k_formula(10, ctx60)
        bad_diff = max(
            abs(bad[i][j] - exact10[i][j]) for i in range(4) for j in range(4)
        )
        assert bad_diff > mpf(10) ** -10
    dt = time.perf_counter() - t0
    assert dt < 300
    print(
        f"criterion 05 PASS — closed form == exact products for L=4..50 "
        f"(worst {mp.nstr(worst, 3)}); rejected variant off by "
        f"{mp.nstr(bad_diff, 3)} ({dt:.2f}s)"
    )


def test_criterion_06_embedding_verdicts(ctx40):
    t0 = time.perf_counter()
    for L in range(1, 61):
        v = verify_embedded(realize_chain(spell(quadrahelix_runs(L)), ctx40))
        assert v.embedded and v.adjacency_ok and v.first_violation is None, L
    v4 = verify_embedded(realize_chain(spell(octahelix_runs(4)), ctx40))
    assert not v4.embedded and v4.first_violation == (13, 31)
    for L in (5, 6, 36):
        v = verify_embedded(realize_chain(spell(octahelix_runs(L)), ctx40))
        assert v.embedded and v.adjacency_ok, L
    dt = time.perf_counter() - t0
    assert dt < 120
    print(
        "criterion 06 PASS — 60 quadrahelices embedded; 4-loop octahelix "
        f"overlaps at (13,31); 5/6/36-loops embedded ({dt:.2f}s)"
    )


def test_embedding_certified_at_the_exact_length_limit(ctx40):
    # QH_4999, 19,998 letters, is the longest quadrahelix within bary.MAX_EXACT_LENGTH
    t0 = time.perf_counter()
    s = spell(quadrahelix_runs(4999))
    assert len(s) == 19_998 <= bary.MAX_EXACT_LENGTH < len(spell(quadrahelix_runs(5000)))
    v = verify_embedded(realize_chain(s, ctx40))
    assert v.embedded and v.adjacency_ok and v.first_violation is None
    assert v.pairs_tested == 41_108 and v.min_separation_margin == 0.0
    dt = time.perf_counter() - t0
    assert dt < 60
    print(f"QH_4999 embedded: {v.pairs_tested} pairs tested ({dt:.2f}s)")


def test_criterion_07_start_plane_clearance(ctx40):
    t0 = time.perf_counter()
    with ctx40.work():
        worst = None
        for q in range(3, 10_001):
            slack = quadplane_determinant(q, ctx40) - (13 * q - 30)
            if worst is None or slack < worst[1]:
                worst = (q, slack)
            assert slack >= 0, (q, slack)
    dt = time.perf_counter() - t0
    assert dt < 30
    print(
        f"criterion 07 PASS — scaled clearance dominates 13q-30 for q=3..10000 "
        f"(tightest at q={worst[0]}: {mp.nstr(worst[1], 6)}) ({dt:.2f}s)"
    )


def test_criterion_08_convergent_denominators(ctx60):
    t0 = time.perf_counter()
    convs = continued_fraction_convergents(ctx60, 21)
    assert [conv.L for conv in convs] == CONVERGENT_L
    again = continued_fraction_convergents(ctx60, 21)
    assert [(v.k, v.q) for v in again] == [(v.k, v.q) for v in convs]
    dt = time.perf_counter() - t0
    assert dt < 10
    print(
        f"criterion 08 PASS — 21 convergents, stable, ending L={convs[-1].L} "
        f"({dt:.2f}s)"
    )


def test_criterion_09_lattice_table(ctx60):
    t0 = time.perf_counter()
    rows = lattice_table(ctx60)
    assert len(rows) == len(LATTICE_ROWS)
    with ctx60.work():
        for (_, sol), (x, y, log_printed) in zip(rows, LATTICE_ROWS):
            assert (sol.x, sol.y) == (x, y)
            assert abs(mp.log10(sol.err) - mpf(log_printed)) <= mpf("0.05"), (x, y)
            assert sol.err < 6 * mp.pi / x
            assert sol.kronecker_ok
    dt = time.perf_counter() - t0
    assert dt < 60
    print(
        f"criterion 09 PASS — all {len(rows)} lattice rows reproduce exactly "
        f"({dt:.2f}s)"
    )


def test_criterion_10_huge_denominators():
    t0 = time.perf_counter()
    assert len(str(L_99_DIGITS)) == 99
    ctx230 = RealCtx(digits=230)
    cf99 = closed_form_gap(L_99_DIGITS, ctx230)
    with ctx230.work():
        assert cf99.norm_gap < mpf(10) ** -101
    ctx40 = RealCtx(digits=40)
    cf17 = closed_form_gap(L_17_DIGITS, ctx40)
    with ctx40.work():
        assert mpf("4.75e-19") <= cf17.gap <= mpf("1.9e-18")
    dt = time.perf_counter() - t0
    assert dt < 30
    print(
        f"criterion 10 PASS — 99-digit L norm gap {mp.nstr(cf99.norm_gap, 4)}, "
        f"17-digit L gap {mp.nstr(cf17.gap, 4)} ({dt:.2f}s)"
    )


def test_least_gap_at_the_99_digit_L(ctx40):
    # the run product at working digits chosen and certified in code, from 40 requested
    t0 = time.perf_counter()
    gap = chain_gap(quadrahelix_runs(L_99_DIGITS), ctx40)
    assert mp.nstr(gap, 20) == "2.7074923009252955826e-102"
    dt = time.perf_counter() - t0
    assert dt < 30
    print(f"QH_L at the 99-digit L: least gap {mp.nstr(gap, 20)} ({dt:.2f}s)")


def test_criterion_11_loop_preset(ctx40):
    t0 = time.perf_counter()
    loop = loop_gap_report(spell(preset_540_runs()), ctx40)
    with ctx40.work():
        assert loop.best.gap < mpf(10) ** -17
        assert mpf("3.5e-18") <= loop.best.gap <= mpf("1.4e-17")
        assert abs(loop.printed.gap - mpf("2.4026e-17")) < mpf("1e-20")
        assert abs(loop.best.gap - mpf("5.5853e-18")) < mpf("1e-21")
    # cuts 67, 68, 247, 248, 427 and 428 tie exactly; the first one is best
    assert loop.best_cut == 67
    assert loop.n_cuts_below_printed == 246
    assert loop.best.gap <= loop.printed.gap
    dt = time.perf_counter() - t0
    assert dt < 60
    print(
        f"criterion 11 PASS — 540-loop best gap {mp.nstr(loop.best.gap, 4)} at "
        f"cut {loop.best_cut} ({dt:.2f}s)"
    )


def test_criterion_12_asymptotics_and_rhombus(ctx40):
    t0 = time.perf_counter()
    with ctx40.work():
        limit = 8 * mp.sqrt(3) / 25
        for L in (1960, 26000):
            r = ratio_terms(L, ctx40)[2]
            assert abs(r - limit) / limit < mpf("0.02"), L
        rh = limiting_rhombus(ctx40)
        x = 2 * mp.sqrt(6) / 5
        tol = mpf(10) ** -20
        wanted = ((0, 0), (0, 1), (x, mpf(4) / 5), (x, -mpf(1) / 5))
        for got, want in zip(rh["vertices"], wanted):
            assert abs(got[0] - want[0]) < tol and abs(got[1] - want[1]) < tol
        assert abs(rh["short_diagonal"] - 2 * mp.sqrt(10) / 5) < tol
    dt = time.perf_counter() - t0
    print(
        f"criterion 12 PASS — norm ratios within 2% of the limit; rhombus "
        f"closed form to 1e-20 ({dt:.2f}s)"
    )


@pytest.mark.parametrize("L", [10, 29])
def test_criterion_13_screw_motion(L, ctx40):
    t0 = time.perf_counter()
    exact = bary.chain_matrix(spell(quadrahelix_runs(L)))
    K = exact.to_mpf(ctx40)
    m = decompose_motion(exact, invisible_t0(ctx40), ctx40)
    res = motion_residuals(m, ctx40)
    kern = left_kernel_residuals(K, m.w, invisible_t0(ctx40), ctx40)
    eigs = motion_eigenvalues(K, ctx40)
    with ctx40.work():
        tol = mpf(10) ** -25
        assert all(v < tol for v in res.values()), res
        assert all(v < tol for v in kern.values()), kern
        ones = [e for e in eigs if abs(e - 1) < tol]
        pair = [e for e in eigs if abs(mp.im(e)) > tol]
        assert len(ones) == 2 and len(pair) == 2
        assert abs(pair[0] - mp.conj(pair[1])) < tol
        assert all(abs(abs(e) - 1) < tol for e in eigs)
    assert rank_of_k_minus_i(K, ctx40) == 2
    dt = time.perf_counter() - t0
    print(
        f"criterion 13 PASS — L={L}: rotation+axis residuals < 1e-25, "
        f"eigenvalues (z, conj z, 1, 1), rank(K-I)=2 ({dt:.2f}s)"
    )


def test_criterion_14_octahelix_bound(ctx40):
    t0 = time.perf_counter()
    bound = gap_bound_oh(686, ctx40)
    rep = gap_report(spell(octahelix_runs(686)), ctx40)
    with ctx40.work():
        assert mpf("1.5e-4") <= bound.bound <= mpf("6e-4")
        assert mpf("0.8e-5") <= rep.gap <= mpf("3.2e-5")
        assert rep.gap <= bound.bound
    dt = time.perf_counter() - t0
    assert dt < 60
    print(
        f"criterion 14 PASS — 686-loop bound {mp.nstr(bound.bound, 4)}, measured "
        f"gap {mp.nstr(rep.gap, 4)} ({dt:.2f}s)"
    )


def test_table2_octahelix_gaps_within_bound(ctx40):
    # OH_x for the x of every lattice row, up to 3.47e12 letters: the least gap
    # at 40 digits agrees with 80 digits and lies below 3 x delta_bar^2
    t0 = time.perf_counter()
    ctx80 = RealCtx(digits=80)
    gaps = {}
    for x, _, _ in LATTICE_ROWS:
        gap = chain_gap(octahelix_runs(x), ctx40)
        again = chain_gap(octahelix_runs(x), ctx80)
        bound = gap_bound_oh(x, ctx40).bound
        with ctx80.work():
            assert abs(gap - again) <= mpf(10) ** -38 * again, x
            assert 0 < gap <= bound, (x, gap, bound)
        gaps[x] = gap
    with ctx40.work():
        assert mp.nstr(gaps[4], 3) == "0.000372"
        assert mp.nstr(gaps[434337601428], 4) == "1.559e-10"
    dt = time.perf_counter() - t0
    assert dt < 30
    print(
        f"table2 octahelices: all {len(gaps)} gaps within 3 x delta_bar^2, OH_4 "
        f"{mp.nstr(gaps[4], 3)}, OH_434337601428 {mp.nstr(gaps[434337601428], 4)} ({dt:.2f}s)"
    )
