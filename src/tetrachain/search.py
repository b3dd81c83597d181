"""Searches for nearly-closed chains.

Two routes: continued-fraction convergents of theta/(2*pi) give quadrahelix
lengths whose total turn is almost a whole number of revolutions, and a
Babai-nearest-plane walk on an LLL-reduced planar lattice solves the
inhomogeneous relation x*alpha + y*beta ~ gamma that governs the octahelix
targets.  The lattice arithmetic is exact (integers and Fractions all the
way through); floats appear only when a final error is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpf

from .precision import GUARD, PrecisionError, RealCtx, target_angle, theta


@dataclass(frozen=True)
class Convergent:
    k: int  # numerator
    q: int  # denominator; L = q - 1 is the chain parameter
    err: float  # |theta/(2 pi) - k/q|

    @property
    def L(self) -> int:
        return self.q - 1


@dataclass(frozen=True)
class DioSolution:
    x: int
    y: int
    err: float  # |x*alpha + y*beta - gamma|
    kronecker_ok: bool  # err < 3|beta/x|
    target: str  # gamma_plus | gamma_minus


def _turn_enclosure(ctx: RealCtx) -> tuple[int, int, int]:
    """(lo, hi, p) with lo/2^p < theta/(2*pi) < hi/2^p, from one evaluation.

    At p bits (2*digits + GUARD decimals) acos, pi and the quotient each round
    within an ulp, 2^-(p+1) on [1/4, 1/2): the truncated mid/2^p lies within
    2.5 * 2^-p of theta/(2*pi), and a slack of 4 on either side encloses it.
    """
    with mp.workdps(2 * ctx.digits + GUARD):
        p = mp.prec
        mid = int(mp.ldexp(theta() / (2 * mp.pi), p))
    return mid - 4, mid + 4, p


def _shared_convergents(lo: int, hi: int, p: int):
    """Yield the convergents (k, q) shared by every point of [lo, hi] / 2^p.

    Euclid runs on both ends at once until their partial quotients differ;
    the points sharing a prefix of them form an interval, so theta/(2*pi),
    inside the enclosure, has each k/q as a convergent.
    """
    a_lo, b_lo, a_hi, b_hi = lo, 1 << p, hi, 1 << p
    k, k_prev, q, q_prev = 1, 0, 0, 1
    while b_lo and b_hi and a_lo // b_lo == a_hi // b_hi:
        a = a_lo // b_lo
        a_lo, b_lo, a_hi, b_hi = b_lo, a_lo - a * b_lo, b_hi, a_hi - a * b_hi
        k, k_prev, q, q_prev = a * k + k_prev, k, a * q + q_prev, q
        yield k, q


def _unsupported(ctx: RealCtx, n: int) -> PrecisionError:
    return PrecisionError(
        f"continued fraction unstable: {ctx.digits} digits support only {n} reliable convergents"
    )


def continued_fraction_convergents(ctx: RealCtx, count: int) -> list[Convergent]:
    """The first `count` convergents k/q of theta/(2*pi), each one certified.

    The whole exact enclosure of theta/(2*pi) must share k/q and give the same
    float64 err; a count past that raises :class:`PrecisionError`, not junk.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    lo, hi, p = _turn_enclosure(ctx)
    out = []
    for k, q in _shared_convergents(lo, hi, p):
        # int / int true division rounds correctly, and |x - k/q| is monotone
        # in x over the enclosure, so equal ends certify the float
        err = abs(lo * q - (k << p)) / (q << p)
        if len(out) == count or err != abs(hi * q - (k << p)) / (q << p):
            break
        out.append(Convergent(k=k, q=q, err=err))
    if len(out) < count:
        raise _unsupported(ctx, len(out))
    return out


def convergent_lengths(ctx: RealCtx, L_max: int) -> list[int]:
    """The chain parameters L = q - 1 in 1..L_max over the convergent denominators q."""
    lengths = [q - 1 for _, q in _shared_convergents(*_turn_enclosure(ctx))]
    if lengths[-1] <= L_max:
        raise _unsupported(ctx, len(lengths))
    return [L for L in lengths if 1 <= L <= L_max]


def kronecker_bound_check(x: int, y: int, alpha, beta, gamma) -> bool:
    """Whether |x*alpha + y*beta - gamma| < 3|beta/x|."""
    if x == 0:
        raise ValueError("x must be nonzero")
    return abs(x * alpha + y * beta - gamma) < 3 * abs(beta / mpf(x))


def _nint_fraction(x: Fraction) -> int:
    """Round half to even, exactly."""
    fl = x.numerator // x.denominator
    rem2 = 2 * (x - fl)
    if rem2 > 1 or (rem2 == 1 and fl % 2 == 1):
        return fl + 1
    return fl


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _lll_2d(b1, b2):
    """Textbook LLL, delta = 3/4, on a rank-2 integer basis; returns in termination order.

    The output rows are not norm-sorted: the Lovász condition fixes which
    vector ends up first, and the Babai step downstream depends on that
    order, so we leave it alone.
    """
    b1, b2 = list(b1), list(b2)
    while True:
        mu = Fraction(_dot(b2, b1), _dot(b1, b1))
        m = _nint_fraction(mu)
        if m:
            b2 = [x - m * y for x, y in zip(b2, b1)]
            mu -= m
        if Fraction(_dot(b2, b2)) - mu * mu * _dot(b1, b1) >= (
            Fraction(3, 4) - mu * mu
        ) * _dot(b1, b1):
            return b1, b2
        b1, b2 = b2, b1


def babai_lll_search(
    alpha, beta, gamma, X, ctx: RealCtx, target: str = "gamma_plus"
) -> DioSolution:
    """One Babai nearest-plane solve of x*alpha + y*beta ~ gamma at scale X.

    Steps: tolerance eps = (3|beta|/X)^2; scale s = eps^-2 * max(1,|alpha|,
    |beta|); integerize a = nint(s*alpha), b = nint(s*beta), c = nint(-s*
    gamma); LLL-reduce the lattice spanned by (a,1,0) and (b,0,1);
    Gram-Schmidt; then two nearest-plane subtractions on t = (c,0,0) in
    basis order 2, 1.  The answer is x = t_2, y = t_3 (all rounding half to
    even, performed on exact rationals).
    """
    if not (mp.isfinite(X) and X > 0):
        raise ValueError(f"X must be a positive finite number, got {mp.nstr(X, 6)}")
    with ctx.work():
        # size the working precision from the scale factor: a, b, c below are
        # integers of about 2*log10(s) digits and their rounding must be exact
        s_est = (3 * abs(mpf(beta)) / mpf(X)) ** -4 * max(
            mpf(1), abs(mpf(alpha)), abs(mpf(beta))
        )
        needed = int(2 * mp.log10(s_est)) + 20
    with mp.workdps(max(ctx.workdps, needed)):
        alpha, beta, gamma, X = mpf(alpha), mpf(beta), mpf(gamma), mpf(X)
        eps = (3 * abs(beta) / X) ** 2
        s = eps**-2 * max(mpf(1), abs(alpha), abs(beta))
        a = int(mp.nint(s * alpha))
        b = int(mp.nint(s * beta))
        c0 = int(mp.nint(-s * gamma))
        if a == 0 and b == 0:
            raise ValueError(
                f"X = {mp.nstr(X, 6)} is too small: the scaled basis degenerates "
                "(alpha and beta both round to 0)"
            )
        B1, B2 = _lll_2d((a, 1, 0), (b, 0, 1))
        g1 = [Fraction(v) for v in B1]
        mu21 = Fraction(_dot(B2, B1), _dot(B1, B1))
        g2 = [Fraction(v) - mu21 * w for v, w in zip(B2, g1)]
        t = [Fraction(c0), Fraction(0), Fraction(0)]
        for bj, gj in ((B2, g2), (B1, g1)):
            cj = _nint_fraction(Fraction(_dot(t, gj), _dot(gj, gj)))
            t = [u - cj * v for u, v in zip(t, bj)]
        x, y = int(t[1]), int(t[2])
        err = abs(x * alpha + y * beta - gamma)
        ok = x != 0 and kronecker_bound_check(x, y, alpha, beta, gamma)
        return DioSolution(x=x, y=y, err=float(err), kronecker_ok=ok, target=target)


def fixup_negative_x(sol: DioSolution, ctx: RealCtx) -> DioSolution:
    """Map a negative-x solution to (-x-1, -y+1) against the conjugate target.

    The two target angles satisfy gamma_plus + gamma_minus + theta = 2*pi,
    so a good approximation with x < 0 for one target converts into one with
    positive x for the other; the error magnitude is preserved exactly.
    """
    if sol.x >= 0:
        raise ValueError("fixup applies to x < 0 only")
    new_target = "gamma_minus" if sol.target == "gamma_plus" else "gamma_plus"
    x, y = -sol.x - 1, -sol.y + 1
    with ctx.work():
        t, two_pi, gamma = theta(), 2 * mp.pi, target_angle(new_target)
        err = abs(x * t + y * two_pi - gamma)
        ok = x != 0 and kronecker_bound_check(x, y, t, two_pi, gamma)
    return DioSolution(x=x, y=y, err=float(err), kronecker_ok=ok, target=new_target)


def lattice_table(ctx: RealCtx) -> list[tuple[mpf, DioSolution]]:
    """The ten-row lattice-search table: (X, solution) for X = 10^i, i = 2, 2.5, ..., 6.5.

    Each slot searches against gamma_plus and applies the negative-x fixup
    when needed, so every reported row has x > 0.
    """
    rows = []
    with ctx.work():
        t, two_pi, gamma = theta(), 2 * mp.pi, target_angle("gamma_plus")
        for twice_i in range(4, 14):
            X = mp.power(10, mpf(twice_i) / 2)
            sol = babai_lll_search(t, two_pi, gamma, X, ctx=ctx, target="gamma_plus")
            if sol.x < 0:
                sol = fixup_negative_x(sol, ctx)
            rows.append((X, sol))
    return rows


def random_kronecker_trials(n_trials: int, seed: int, ctx: RealCtx) -> dict:
    """Run the lattice search on random (alpha, beta, gamma, X) inputs.

    Returns counts of how often the output satisfies the Kronecker bound
    err < 3|beta/x|.  This is a statistical health report on the heuristic,
    not a per-instance guarantee.
    """
    import random

    rng = random.Random(seed)
    ok = zero_x = 0
    with ctx.work():
        for _ in range(n_trials):
            alpha = mpf(rng.uniform(0.3, 10))
            beta = mpf(rng.uniform(0.3, 10))
            gamma = mpf(rng.uniform(0, float(beta)))
            X = mpf(10) ** rng.uniform(2, 4)
            sol = babai_lll_search(alpha, beta, gamma, X, ctx=ctx)
            if sol.x == 0:
                zero_x += 1
            elif sol.kronecker_ok:
                ok += 1
    return {
        "trials": n_trials,
        "kronecker_ok": ok,
        "zero_x": zero_x,
        "rate": ok / n_trials,
    }
