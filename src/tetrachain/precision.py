"""Precision policy, fundamental constants, and angle reduction.

Everything numeric in this package runs through an explicit :class:`RealCtx`
so that a caller can dial the working precision up or down without touching
global state for longer than a single operation.  RealCtx is the one
precision carrier: every function that computes at a requested precision
takes a ``ctx: RealCtx`` and nothing else for it.  This module is the one
home of the angles: :func:`theta` and :func:`target_angle` define them once,
and the helix, the reductions and the continued fraction each take them at
their own working precision.  theta is evaluated once per binary precision
and cached, since a long reduction asks for it at tens of thousands of digits.
"""

from __future__ import annotations

from functools import lru_cache

from mpmath import mp, mpf

from .strings import MAX_DIGITS, PrecisionError, _decimal_digits, check_digits

GUARD = 15  # decimals carried past the requested digits


class RealCtx:
    """Working-precision carrier: `digits` significant decimals plus GUARD digits.

    Making one checks theta at that precision (once per precision): a
    residual |cos(theta) + 2/3| above 10^-digits indicates a precision bug
    somewhere below us and raises :class:`PrecisionError`.
    """

    __slots__ = ("digits",)

    def __init__(self, digits: int):
        check_digits(digits)
        _check_theta(theta, digits)
        self.digits = digits

    @property
    def workdps(self) -> int:
        return self.digits + GUARD

    def work(self):
        """Context manager setting mpmath's decimal precision to digits+GUARD."""
        return mp.workdps(self.workdps)


@lru_cache(maxsize=None)
def _check_theta(turn, digits: int) -> None:
    """The residual check of RealCtx, made once per turn-angle function and digits."""
    with mp.workdps(digits + GUARD):
        if (residual := abs(mp.cos(turn()) + mpf(2) / 3)) > mpf(10) ** (-digits):
            raise PrecisionError(
                f"theta residual |cos(theta) + 2/3| = {mp.nstr(residual, 3)} > 1e-{digits}"
            )


def certified(evaluate, digits: int, extra: int) -> tuple:
    """evaluate(work) at digits + extra working digits, the extra doubled until two agree.

    evaluate returns (shown, value), shown being what a caller prints of
    value; two successive precisions that show the same certify those
    digits, and the pair of the first of them is returned.  Digits that
    have not settled by MAX_DIGITS raise PrecisionError.
    """
    last = None
    while digits + extra <= MAX_DIGITS:
        out = evaluate(RealCtx(digits=digits + extra))
        if last is not None and out[0] == last[0]:
            return last
        last, extra = out, 2 * extra
    raise PrecisionError(f"the printed digits do not settle within {MAX_DIGITS} working digits")


def theta() -> mpf:
    """The helix turn angle arccos(-2/3) at mpmath's current precision."""
    return _theta(mp.prec)


@lru_cache(maxsize=None)
def _theta(prec: int) -> mpf:
    with mp.workprec(prec):
        return mp.acos(mpf(-2) / 3)


def target_angle(name: str) -> mpf:
    """The octahelix target angle arccos((-3 +- 5*sqrt(3))/12), "gamma_plus" or "gamma_minus"."""
    signs = {"gamma_plus": 1, "gamma_minus": -1}
    if name not in signs:
        raise ValueError(f"unknown offset {name!r}")
    return mp.acos((-3 + signs[name] * 5 * mp.sqrt(3)) / 12)


def _reduce_once(mult: int, ctx: RealCtx, offset: str | None = None, lost: int = 0):
    """(mult*theta minus an optional target angle, reduced to [-pi, pi), nearest multiple k).

    theta and pi carry one extra decimal per digit of mult and `lost` more, and
    the multiple is subtracted as one exact big-integer step: the angle is
    within about 10^-(ctx.workdps + lost), whatever the size of mult.
    """
    with mp.workdps(ctx.workdps + _decimal_digits(mult) + lost):
        t = mpf(mult) * theta()
        if offset is not None:
            t -= target_angle(offset)
        k = int(mp.nint(t / (2 * mp.pi)))
        dbar = t - 2 * mp.pi * mpf(k)
        if dbar >= mp.pi:
            dbar -= 2 * mp.pi
            k += 1
        elif dbar < -mp.pi:
            dbar += 2 * mp.pi
            k -= 1
        return +dbar, k


def reduce_theta_multiple(mult: int, ctx: RealCtx, offset: str | None = None):
    """Reduce mult*theta (minus an optional target angle) to [-pi, pi), mult of any size.

    A result below 10^-GUARD lost leading digits to the subtraction: it is
    recomputed with log10(1/|result|) more, or twice the working digits for
    a 0, up to MAX_DIGITS.

    offset: None, "gamma_plus", or "gamma_minus".

    Returns (reduced angle as mpf carrying ctx.digits significant digits,
    nearest-multiple integer k).
    """
    mult = int(mult)
    if not mult and offset is None:
        return mpf(0), 0
    lost = 0
    while True:
        dbar, k = _reduce_once(mult, ctx, offset, lost)
        if abs(dbar) >= mpf(10) ** -GUARD:
            return dbar, k
        cancelled = int(-mp.log10(abs(dbar))) if dbar else ctx.workdps + lost
        if cancelled <= lost:
            return dbar, k
        lost = cancelled
        if ctx.workdps + _decimal_digits(mult) + lost > MAX_DIGITS:
            raise PrecisionError(f"the reduced angle cancels past {MAX_DIGITS} working digits")
