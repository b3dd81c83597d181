import pytest
from mpmath import mp, mpf

from paper_checks import seed_vertex_singular_value
from tetrachain.geometry import helix_vertex
from tetrachain import precision
from tetrachain.cli import main
from tetrachain.precision import (
    MAX_DIGITS,
    PrecisionError,
    RealCtx,
    _decimal_digits,
    reduce_theta_multiple,
    target_angle,
    theta,
)


def test_ctx_rejects_low_digits():
    with pytest.raises(ValueError):
        RealCtx(digits=20)


def test_ctx_rejects_digits_past_the_ceiling():
    # the ceiling leaves room for a gap below 10^(-10^6), which needs ~2*10^6 digits
    assert MAX_DIGITS > 2 * 10**6
    for digits in (MAX_DIGITS + 1, 10**11, 10**20):
        with pytest.raises(ValueError, match="digits must be in 30"):
            RealCtx(digits=digits)


def test_theta_residual_check_raises(monkeypatch, capsys):
    # a wrong turn angle fails the residual check every context makes
    monkeypatch.setattr(precision, "theta", lambda: mp.acos(mpf(-2) / 3) + mpf(10) ** -35)
    with pytest.raises(PrecisionError, match="theta residual"):
        RealCtx(digits=40)
    assert main(["scan-ratio", "--L-max", "5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "precision failure: theta residual |cos(theta) + 2/3| = 7.45e-36 > 1e-40"
    ]


def test_turn_angle_value(ctx40):
    with ctx40.work():
        t = theta()
        assert abs(t - mp.acos(mpf(-2) / 3)) < mpf(10) ** -50
        # an independent closed form, cross-checking the acos definition
        assert abs(t - (mp.pi - mp.atan(mp.sqrt(5) / 2))) < mpf(10) ** -50
        assert mp.nstr(t, 12) == "2.30052398302"


def test_named_constants(ctx40):
    # the helix radius r and rise h, read off V_0 = (r, 0, 0) and V_1's height
    with ctx40.work():
        r = helix_vertex(0, ctx40)[0]
        h = helix_vertex(1, ctx40)[2]
        assert abs(r - 3 * mp.sqrt(3) / 10) < mpf(10) ** -50
        assert abs(h - 1 / mp.sqrt(10)) < mpf(10) ** -50
        assert abs(seed_vertex_singular_value(ctx40) - mp.sqrt(17) / 5) < mpf(10) ** -50
        gamma_plus, gamma_minus = target_angle("gamma_plus"), target_angle("gamma_minus")
        assert abs(gamma_plus - mp.acos((-3 + 5 * mp.sqrt(3)) / 12)) < mpf(10) ** -50
        assert abs(gamma_minus - mp.acos((-3 - 5 * mp.sqrt(3)) / 12)) < mpf(10) ** -50


def test_magic_angles_are_conjugate(ctx40):
    # gamma+ + gamma- + theta wraps to a full turn
    with ctx40.work():
        total = target_angle("gamma_plus") + target_angle("gamma_minus") + theta()
        assert abs(total - 2 * mp.pi) < mpf(10) ** -45


def test_constants_deterministic(ctx40):
    with ctx40.work():
        assert theta() == theta()
        assert target_angle("gamma_plus") == target_angle("gamma_plus")


def test_reduce_theta_multiple_matches_direct(ctx40):
    for mult in (1, 2, 11, 30, 71, 254):
        d, k = reduce_theta_multiple(mult, ctx40)
        with ctx40.work():
            t = mult * theta()
            direct = t - 2 * mp.pi * mp.nint(t / (2 * mp.pi))
            assert abs(d - direct) < mpf(10) ** -40
            assert abs(mult * theta() - 2 * mp.pi * k - d) < mpf(10) ** -38


def test_reduce_theta_multiple_known_row(ctx40):
    d, k = reduce_theta_multiple(11, ctx40)
    assert k == 4
    with ctx40.work():
        assert abs(d - mpf("0.173022584522146901")) < 1e-15


def test_reduce_theta_multiple_huge(ctx40):
    # the reduction is exact-integer based, so a 99-digit multiplier is fine
    L = int(
        "5212693387820556517926912141281960530883480302473720079242465669326"
        "50514801545115813925856156787510"
    )
    d, k = reduce_theta_multiple(L + 1, ctx40)
    assert len(str(k)) == len(str(L))
    with ctx40.work():
        assert abs(d) < mpf(10) ** -99


def test_decimal_digits_matches_str():
    for e in range(0, 400, 7):
        for n in (10**e - 1, 10**e, 10**e + 1, 2**e, 3**e):
            assert _decimal_digits(n) == _decimal_digits(-n) == len(str(n))
    assert _decimal_digits(10**5000) == 5001


def test_reduce_theta_multiple_beyond_str_limit(ctx40):
    # 4,401 digits: past the 4,300-digit limit of int -> str conversion
    mult = 10**4400 + 8
    d, k = reduce_theta_multiple(mult, ctx40)
    with mp.workdps(4600):
        t = mult * (mp.pi - mp.atan(mp.sqrt(5) / 2))
        k_ref = int(mp.nint(t / (2 * mp.pi)))
        assert k == k_ref
        assert abs(d - (t - 2 * mp.pi * k_ref)) < mpf(10) ** -40


def test_reduce_theta_multiple_offsets(ctx40):
    d_plus, _ = reduce_theta_multiple(686, ctx40, offset="gamma_plus")
    with ctx40.work():
        assert abs(d_plus - mpf("0.000347879")) < 1e-8
    with pytest.raises(ValueError):
        reduce_theta_multiple(686, ctx40, offset="nonsense")


def test_workdps_scales_with_digits():
    ctx = RealCtx(digits=100)
    assert ctx.workdps == 115
    with ctx.work():
        assert mp.dps == 115
