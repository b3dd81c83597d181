import re
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from paper_checks import lattice_basis_determinant
from tetrachain.precision import PrecisionError, RealCtx, target_angle, theta
from tetrachain.search import (
    DioSolution,
    _lll_2d,
    _nint_fraction,
    babai_lll_search,
    continued_fraction_convergents,
    fixup_negative_x,
    kronecker_bound_check,
    lattice_table,
    random_kronecker_trials,
)

# denominators-minus-one of the turn angle's convergents; the L column of
# every nearly-closed chain in the closure survey
KNOWN_L = [
    0, 1, 2, 7, 10, 29, 40, 70, 182, 253, 1960, 12019, 13980, 26000,
    143985, 601944, 5561490, 6163435, 11724926, 17888362, 65390015,
]


def test_convergent_list(ctx60):
    convs = continued_fraction_convergents(ctx60, 21)
    assert [conv.L for conv in convs] == KNOWN_L
    assert [conv.q - 1 for conv in convs] == KNOWN_L


# counts certified by the former check, which compared the expansion at d and
# 2d digits; the exact enclosure must certify at least as many
DOUBLING_COUNTS = {30: 52, 40: 56, 60: 78, 80: 94}


@pytest.mark.parametrize("digits", sorted(DOUBLING_COUNTS))
def test_convergents_have_small_errors(digits):
    ctx = RealCtx(digits=digits)
    with pytest.raises(PrecisionError) as exc:
        continued_fraction_convergents(ctx, 10**4)
    n = int(re.search(r"support only (\d+) ", str(exc.value)).group(1))
    assert n >= DOUBLING_COUNTS[digits]
    convs = continued_fraction_convergents(ctx, n)
    assert len(convs) == n
    for prev, conv in zip(convs, convs[1:]):
        assert abs(conv.k * prev.q - prev.k * conv.q) == 1
    with mp.workdps(4 * digits):
        x = (mp.pi - mp.atan(mp.sqrt(5) / 2)) / (2 * mp.pi)
        for conv in convs:
            # err is the float64 nearest the exact |x - k/q|
            assert conv.err == float(abs(x - mpf(conv.k) / conv.q))
            assert conv.err < 1 / mpf(conv.q) ** 2


def test_convergents_deterministic(ctx60):
    a = continued_fraction_convergents(ctx60, 15)
    b = continued_fraction_convergents(ctx60, 15)
    assert [(v.k, v.q) for v in a] == [(v.k, v.q) for v in b]


def test_nint_half_even():
    assert _nint_fraction(Fraction(1, 2)) == 0
    assert _nint_fraction(Fraction(3, 2)) == 2
    assert _nint_fraction(Fraction(5, 2)) == 2
    assert _nint_fraction(Fraction(-1, 2)) == 0
    assert _nint_fraction(Fraction(7, 3)) == 2


def test_lll_reduces_and_preserves_lattice():
    b1 = (Fraction(201), Fraction(1), Fraction(0))
    b2 = (Fraction(313), Fraction(0), Fraction(1))
    r1, r2 = _lll_2d(b1, b2)
    def norm2(v):
        return sum(x * x for x in v)
    assert max(norm2(r1), norm2(r2)) <= max(norm2(b1), norm2(b2))
    assert abs(lattice_basis_determinant(r1, r2, b1, b2)) == 1


def test_kronecker_check(ctx40):
    with ctx40.work():
        t, two_pi, gamma = theta(), 2 * mp.pi, target_angle("gamma_plus")
        # 4*theta - 2*pi is about 0.0158 < 6*pi/4
        assert kronecker_bound_check(4, -1, t, two_pi, gamma)
    with pytest.raises(ValueError):
        kronecker_bound_check(0, 1, t, two_pi, gamma)


def test_babai_first_row(ctx40):
    with ctx40.work():
        gamma = target_angle("gamma_plus")
        sol = babai_lll_search(theta(), 2 * mp.pi, gamma, mpf(100), ctx40)
        if sol.x < 0:
            sol = fixup_negative_x(sol, ctx40)
        assert (sol.x, sol.y) == (4, -1)
        assert sol.kronecker_ok
        assert abs(mp.log10(sol.err) - mpf("-1.80")) < mpf("0.05")


def test_fixup_flips_solution(ctx40):
    with ctx40.work():
        raw = DioSolution(
            x=-5, y=3, err=mpf(1), kronecker_ok=False, target="gamma_plus"
        )
        fixed = fixup_negative_x(raw, ctx40)
        assert fixed.x == 4 and fixed.y == -2
        assert fixed.target == "gamma_minus"
        # the error is re-derived for the conjugate target (as a float snapshot)
        want = abs(4 * theta() - 2 * (2 * mp.pi) - target_angle("gamma_minus"))
        assert abs(fixed.err - want) <= abs(want) * mpf(10) ** -12


def test_lattice_table_shape(ctx60):
    rows = lattice_table(ctx60)
    assert len(rows) == 10
    with ctx60.work():
        assert [X for X, _ in rows] == [mp.power(10, mpf(i) / 2) for i in range(4, 14)]
    sols = [sol for _, sol in rows]
    assert all(s.x > 0 for s in sols)
    assert all(s.kronecker_ok for s in sols)
    assert (sols[3].x, sols[3].y) == (64708, -23692)


def test_random_trials_reproducible(ctx40):
    a = random_kronecker_trials(40, seed=7, ctx=ctx40)
    b = random_kronecker_trials(40, seed=7, ctx=ctx40)
    assert a == b
    assert a["trials"] == 40
    assert a["rate"] >= 0.9
