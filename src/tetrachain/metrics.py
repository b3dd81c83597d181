"""Closure metrics: the exact closure gap, operator norms, and gap reports.

The gap of a chain (how far its last tetrahedron sits from the invisible
first one) is the Hausdorff distance between the solid tetrahedra T_0 and
T_0 K.  Two points whose barycentric coordinates over the unit regular T_0
differ by d (with sum d = 0) lie sqrt(sum d_i^2 / 2) apart, so T_0 is the
standard simplex S of R^4 under half the Euclidean metric, and T_0 K is the
simplex spanned by the columns of K.  The directed distance between convex
bodies is attained at a vertex, and K is a rigid motion, so

    gap^2 = 1/2 * max over the columns x of K and K^-1 of |x - proj_S(x)|^2.

proj_S is the sort-and-threshold projection onto the probability simplex
(Held, Wolfe and Crowder 1974; Duchi et al. 2008).  On the numerators of K
over 3^n it is integer arithmetic and K^-1 needs no solve, so gap^2 is an
exact rational: leads and cuts are compared exactly, and a gap is rounded
once, to the working precision, where it is reported.  The run product
(bary.run_product) is rounded to numerators over 3^k and runs the same
integer kernel.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from . import bary
from .precision import RealCtx


def _numerators(K: bary.BaryMatrix) -> tuple:
    """(N, d) with K = N / d."""
    return K.num, 3**K.power


def inverse(N, d: int) -> list:
    """Numerators over d of K^-1, for the chain matrix K = N / d.

    K maps the plane sum x = 1 to itself isometrically, so with c = 1/4 and
    J = I - (1/4) 1 1^T,  K^-1 = c 1^T + J K^T (I - K c 1^T).  On the row
    sums r of N, entry (i, j) is N[j][i] + (d - r_j + b_i) / 4 with
    b_i = (|r|^2 - 4 (N^T r)_i) / (4 d).  For an integer N both divisions
    are exact, since K^-1 is a product of reflections over the same d; on a
    rounded run product they floor, a unit of 1/d off.
    """
    r = [sum(row) for row in N]
    r2 = sum(x * x for x in r)
    b = [(r2 - 4 * sum(N[k][i] * r[k] for k in range(4))) // (4 * d) for i in range(4)]
    return [[N[j][i] + (d - r[j] + b[i]) // 4 for j in range(4)] for i in range(4)]


def _dist2(col, d):
    """144 d^2 |x - proj_S(x)|^2 for the column x = col / d, whose entries sum to 1.

    Sorted down, the projection subtracts tau = (S_rho - d) / (rho d) from the
    rho largest entries and zeroes the rest, where S_j is the sum of the j
    largest and rho the last j with j u_j > S_j - d; 144 / rho is an integer.
    """
    u = sorted(col, reverse=True)
    top = rho = 0
    for j, x in enumerate(u, start=1):
        if j * x <= top + x - d:
            break
        top += x
        rho = j
    return 144 // rho * (top - d) ** 2 + 144 * sum(x * x for x in u[rho:])


def _inverse(K: bary.BaryMatrix) -> bary.BaryMatrix:
    """K^-1 over the same power of 3."""
    return bary.BaryMatrix(tuple(map(tuple, inverse(*_numerators(K)))), K.power, K.exact)


def _gap_terms(K, Kinv) -> tuple:
    """(q, den) with gap2(K) = q / den, given K^-1 as well.

    K and K^-1 are the products of a string and of its reverse, so both
    are in lowest terms over the same power of 3.
    """
    N, d = _numerators(K)
    q = max(_dist2(col, d) for M in (N, _numerators(Kinv)[0]) for col in zip(*M))
    return q, 288 * d * d


def gap2(K: bary.BaryMatrix) -> Fraction:
    """The squared gap of the chain matrix K."""
    return Fraction(*_gap_terms(K, _inverse(K)))


def discrete_gap2(K: bary.BaryMatrix) -> Fraction:
    """The squared vertex-set Hausdorff distance of T_0 and T_0 K.

    Vertex i of T_0 and vertex j of T_0 K lie |K e_j - e_i|^2 / 2 apart
    (squared); the distance is the larger of the two directed max-min.
    """
    N, d = _numerators(K)
    norms = [sum(x * x for x in col) + d * d for col in zip(*N)]
    far = [[norms[j] - 2 * d * N[i][j] for j in range(4)] for i in range(4)]
    q = max(max(min(row) for row in far), max(min(col) for col in zip(*far)))
    return Fraction(q, 2 * d * d)


def least_gap(leads: dict) -> tuple:
    """(gap2, face) least over leads (face -> chain matrix); ties go to the smallest face.

    The leads of a string share its tail, K_r = M_r M_q K_q, so one inverse
    serves them all: K_r^-1 = K_q^-1 M_q M_r.  Each gap2 is a pair
    q / den; pairs are compared by cross-multiplying, and only the least
    becomes a Fraction.
    """
    first, *faces = sorted(leads)
    inv = _inverse(leads[first])
    best_q, best_den = _gap_terms(leads[first], inv)
    best = first
    for r in faces:
        q, den = _gap_terms(leads[r], bary.times_pair(inv, first, r))
        if q * best_den < best_q * den:
            best_q, best_den, best = q, den, r
    return Fraction(best_q, best_den), best


def root(x: Fraction) -> mpf:
    """sqrt(x) at the working precision, rounded once, to nearest."""
    p, q = x.numerator, x.denominator
    if p == 0:
        return mpf(0)
    # floor(sqrt(p 4^k / q)) keeps at least prec + 2 bits; one more bit
    # records an inexact root, which is all round-to-nearest needs
    k = max(0, mp.prec + 4 - (p.bit_length() - q.bit_length()) // 2)
    n, rem = divmod(p << (2 * k), q)
    m = isqrt(n)
    man = 2 * m + (rem != 0 or m * m != n)
    return mp.make_mpf(from_man_exp(man, -k - 1, mp.prec, round_nearest))


def minus_identity(M, one=1) -> list:
    """M - one * I for a square matrix given as rows."""
    return [[x - one * (i == j) for j, x in enumerate(row)] for i, row in enumerate(M)]


def maxnorm(M) -> mpf:
    return max(abs(x) for row in M for x in row)


def norm_gap(K: bary.BaryMatrix) -> mpf:
    """||K - I||_2 of the chain matrix K, in closed form.

    K - I maps R^4 into the plane sum x = 0, on which T_0 is sqrt(1/2) times
    an isometry.  So G = (K - I)^T (K - I) has the eigenvalues 0,
    s^2 = 3 + det K - tr K (2 - 2 cos phi for the rotation angle phi of the
    motion) and the roots of x^2 - P x + Q, with P = tr G - s^2 and
    Q = e2(G) - s^2 P; interlacing with G's block on the plane puts the
    larger root on top.  tr K and det K = +-1 are exact on integer
    numerators, where det N = +-3^(4p) = +-1 mod 4 for an exact product
    (a rounded one takes the sign of det N); G is formed in mpf from
    K - I, subtracted on the numerators first.
    """
    N, d = _numerators(K)
    if K.exact:
        sign = 2 - bary.det([[x % 4 for x in row] for row in N]) % 4
    else:
        sign = 1 if bary.det(N) > 0 else -1
    den = mpf(d)
    s2 = mpf((3 + sign) * d - sum(N[i][i] for i in range(4))) / den
    D = [[mpf(x) / den for x in row] for row in minus_identity(N, d)]
    G = [[sum(D[k][i] * D[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    tr = sum(G[i][i] for i in range(4))
    P = tr - s2
    Q = (tr * tr - sum(x * x for row in G for x in row)) / 2 - s2 * P
    return mp.sqrt((P + mp.sqrt(max(P * P - 4 * Q, 0))) / 2)


def maxnorm_gap(K: bary.BaryMatrix) -> mpf:
    """max |(K - I)_ij| of the chain matrix K, taken on its numerators."""
    N, d = _numerators(K)
    return mpf(maxnorm(minus_identity(N, d))) / mpf(d)


class GapReport(NamedTuple):
    """Closure metrics of one chain, minimized over the free leading face."""

    gap: mpf
    norm_gap: mpf
    maxnorm_gap: mpf
    discrete_gap: mpf
    r0: int

    # delta_bar stays in the frozen schema, always null (an empty CSV cell)
    def to_json_dict(self) -> dict:
        return {
            "gap": float(self.gap),
            "norm_gap": float(self.norm_gap),
            "maxnorm_gap": float(self.maxnorm_gap),
            "discrete_gap": float(self.discrete_gap),
            "r0": self.r0,
            "delta_bar": None,
        }

    CSV_HEADER = "gap,norm_gap,maxnorm_gap,discrete_gap,r0,delta_bar"

    def to_csv_row(self) -> str:
        return (
            f"{float(self.gap)!r},{float(self.norm_gap)!r},"
            f"{float(self.maxnorm_gap)!r},{float(self.discrete_gap)!r},"
            f"{self.r0},"
        )


def lead_minimized_report(leads: dict, ctx: RealCtx, r0: int | None = None) -> GapReport:
    """Gap metrics minimized over the leading faces in leads (face -> chain matrix).

    The report carries the least gap (ties broken by smallest face), the
    discrete gap of that lead and the minimum norms; passing r0 pins the
    leading face instead.
    """
    if r0 is not None:
        if r0 not in (1, 2, 3, 4):
            raise ValueError(f"leading face must be 1..4, got {r0}")
        if r0 not in leads:
            raise ValueError(f"leading face {r0} collides with the second symbol")
        leads = {r0: leads[r0]}
    with ctx.work():
        gap, lead = least_gap(leads)
        return GapReport(
            gap=root(gap),
            norm_gap=min(norm_gap(K) for K in leads.values()),
            maxnorm_gap=min(maxnorm_gap(K) for K in leads.values()),
            discrete_gap=root(discrete_gap2(leads[lead])),
            r0=lead,
        )


def gap_report(s, ctx: RealCtx) -> GapReport:
    """Evaluate a printed string on its exact products, its first symbol free.

    All three legal leading faces r0 != s[1] are tried.
    """
    s = tuple(s)
    if len(s) < 2:
        raise ValueError("gap_report needs a string of length >= 2")
    K = bary.chain_matrix(s)
    return lead_minimized_report(bary.lead_matrices(K, s[0], s[1]), ctx, None)


class LoopGapReport(NamedTuple):
    """Gap of a closed loop: the printed cut and the best cyclic cut."""

    printed: GapReport
    best: GapReport
    best_cut: int
    n_cuts_below_printed: int

    def to_json_dict(self) -> dict:
        return {
            "printed": self.printed.to_json_dict(),
            "best": self.best.to_json_dict(),
            "best_cut": self.best_cut,
            "n_cuts_below_printed": self.n_cuts_below_printed,
        }


def loop_gap_report(s, ctx: RealCtx) -> LoopGapReport:
    """Minimize the gap of a cyclic string over all rotations of its cut point.

    A closed loop has no distinguished first tetrahedron, so each rotation is
    a legitimate reading of the same loop.  The product of each cut is
    updated incrementally: moving the cut past letter i conjugates it by the
    involution M_i.  Each cut's least gap over its leads is exact, so equal
    gaps are real ties, and the first of them is the best cut.  Both cuts
    are reported from the leads the scan held: one multiplication.
    """
    s = tuple(s)
    n = len(s)
    if n < 3 or s[0] == s[-1]:
        raise ValueError("loop strings must be cyclically valid")
    K = bary.chain_matrix(s)
    printed = best = None
    below = 0
    for cut, sym in enumerate(s):
        leads = bary.lead_matrices(K, sym, s[(cut + 1) % n])
        gap, _ = least_gap(leads)
        if printed is None:
            printed = (gap, leads)
        below += gap < printed[0]
        if best is None or gap < best[0]:
            best = (gap, leads, cut)
        K = bary.conjugate(K, sym)
    return LoopGapReport(
        printed=lead_minimized_report(printed[1], ctx, None),
        best=lead_minimized_report(best[1], ctx, None),
        best_cut=best[2],
        n_cuts_below_printed=below,
    )
