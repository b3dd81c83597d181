"""Named chains at any length, rigid-motion decomposition, and asymptotics.

resolve is the one place that picks how the matrix K of a chain given as
helical runs is computed: the exact product while its letters fit
MAX_EXACT_LENGTH, beyond it the product of the runs' screw powers in mpf
(bary.run_product), at working digits chosen from the run lengths and
certified by doubling them.  So QH_L, OH_L and the tetrahelix are measured
for parameters with any number of digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, mpf_pos, round_nearest

from .bary import (
    MAX_EXACT_LENGTH,
    BaryMatrix,
    chain_matrix,
    det,
    helical_runs,
    invert,
    lead_matrices,
    mat_mul,
    run_product,
)
from .geometry import RealizedChain, Tetrahedron, _cross
from .metrics import (
    GapReport,
    gap2,
    lead_minimized_report,
    least_gap,
    maxnorm,
    minus_identity,
    norm_gap,
    root,
)
from .precision import RealCtx, _decimal_digits, certified, reduce_theta_multiple
from .strings import letters, quadrahelix_runs, spell

# lim (K - I)/(L*delta^2) as delta -> 0 over convergent L; rank one, with
# spectral norm 8*sqrt(3)/25
LIMIT_MATRIX_NUM = ((3, 3, 3, 3), (-1, -1, -1, -1), (-1, -1, -1, -1), (-1, -1, -1, -1))
LIMIT_MATRIX_SCALE = (2, 25)  # 2/25


def resolve(runs, ctx: RealCtx, value, shown, settle: bool = False):
    """value(K, work) at work's precision, for the matrix K of the chain given as runs.

    While the letters fit MAX_EXACT_LENGTH, K is their exact product and value
    runs once, at ctx; with settle, for a value that cancels digits even on
    an exact K, at ctx.digits doubled until shown(value) agrees at two
    successive precisions.  Beyond, K is the run product, and value runs at
    ctx.digits plus extra working digits, the extra doubled until shown(value)
    agrees so.  The extra starts at 5 digits per digit of the longest run m:
    3 for the cancellation among the product's terms linear in m, and 2 for
    the rotation angle of a near-closing chain, 4 - tr K, which is about 1/m^2.
    """
    exact = sum(m for _, _, m in runs) <= MAX_EXACT_LENGTH
    K = chain_matrix(spell(runs)) if exact else None
    if exact and not settle:
        with ctx.work():
            return value(K, ctx)

    def evaluate(work):
        with work.work():
            out = value(K if exact else run_product(runs, work), work)
        return shown(out), out

    if exact:
        return certified(evaluate, 0, ctx.digits)[1]
    return certified(evaluate, ctx.digits, 5 * _decimal_digits(max(m for _, _, m in runs)))[1]


def _digits(ctx: RealCtx):
    """shown for a tuple of mpf: each rounded to ctx.digits significant digits, in binary."""
    prec = dps_to_prec(ctx.digits)
    return lambda values: tuple(mpf_pos(x._mpf_, prec, round_nearest) for x in values)


def _head(runs) -> tuple:
    """The first two letters of the chain given as runs, which a gap needs."""
    head = tuple(islice(letters(runs), 2))
    if len(head) < 2:
        raise ValueError("gap_report needs a string of length >= 2")
    return head


def chain_gap_report(runs, ctx: RealCtx, r0: int | None) -> GapReport:
    """Gap report of the chain given as runs, its leading face free as in gap_report."""
    head = _head(runs)
    return resolve(
        runs,
        ctx,
        lambda K, work: lead_minimized_report(lead_matrices(K, *head), work, r0),
        lambda rep: (
            _digits(ctx)((rep.gap, rep.norm_gap, rep.maxnorm_gap, rep.discrete_gap)),
            rep.r0,
        ),
    )


def chain_gap(runs, ctx: RealCtx) -> mpf:
    """The least gap of the chain given as runs over its free leading face."""
    head = _head(runs)
    return resolve(
        runs, ctx, lambda K, work: (root(least_gap(lead_matrices(K, *head))[0]),), _digits(ctx)
    )[0]


@dataclass(frozen=True)
class ClosedFormGap:
    """Gap metrics of QH_L on its printed lead, for L of any size."""

    L: int
    k: int  # nearest multiple of 2*pi in (L+1)*theta
    delta_bar: mpf
    gap: mpf  # Hausdorff distance of the final tetrahedron from the seed
    norm_gap: mpf  # ||K - I||_2, an upper bound for gap


def closed_form_gap(L: int, ctx: RealCtx) -> ClosedFormGap:
    """Gap and ||K - I||_2 of QH_L on its printed lead; works for L of any size."""
    delta_bar, k = reduce_theta_multiple(int(L) + 1, ctx)
    gap, norm = resolve(
        quadrahelix_runs(L), ctx, lambda K, work: (root(gap2(K)), norm_gap(K)), _digits(ctx)
    )
    return ClosedFormGap(L=int(L), k=k, delta_bar=delta_bar, gap=gap, norm_gap=norm)


# --- rigid-motion decomposition ----------------------------------------------


@dataclass(frozen=True)
class RigidMotion:
    """The Cartesian motion carrying the seed tetrahedron to the chain's end.

    R is the rotation, t the translation; w spans the rotation axis
    direction and u is a point on the axis (None for a pure translation).
    """

    R: tuple  # 3x3 mpf rows
    t: tuple  # 3 mpf
    w: tuple | None
    u: tuple | None
    angle: mpf


def _norm(v):
    return mp.sqrt(sum(x * x for x in v))


def homogeneous_t0(t0: Tetrahedron):
    """The 4x4 vertex matrix: columns are vertices with an appended 1-row."""
    return [
        [t0.vertices[j][i] for j in range(4)] for i in range(3)
    ] + [[mpf(1)] * 4]


def decompose_motion(K: BaryMatrix, t0: Tetrahedron, ctx: RealCtx) -> RigidMotion:
    """Split the chain map into rotation R, translation t, and screw axis (w, u).

    The homogeneous vertex matrix conjugates barycentric K into Cartesian
    form; the axis direction is the normalized cross product of the two
    largest columns of R - I.  R turns the plane orthogonal to w by the
    angle phi (cos phi from the trace, sin phi about w from the skew part of
    R), so in that plane, with w x as the imaginary unit, the axis point
    u - R u = t solves as u = t / (1 - e^(i phi)); t's slide along w drops out.
    """
    with ctx.work():
        T = homogeneous_t0(t0)
        RR = mat_mul(mat_mul(T, K.to_mpf(ctx)), invert(T))
        R = tuple(tuple(RR[i][:3]) for i in range(3))
        t = tuple(RR[i][3] for i in range(3))
        RmI = minus_identity(R)
        tol = mpf(10) ** (-ctx.digits // 2)
        if maxnorm(RmI) < tol:
            return RigidMotion(R=R, t=t, w=None, u=None, angle=mpf(0))
        colnorms = [_norm([RmI[i][j] for i in range(3)]) for j in range(3)]
        # equal norms (an axis along a coordinate) take the same pair at any precision
        i1, i2 = sorted(range(3), key=lambda j: (-mp.nint(colnorms[j] / tol), j))[:2]
        w = _cross(
            [RmI[i][i1] for i in range(3)], [RmI[i][i2] for i in range(3)]
        )
        w = tuple(x / _norm(w) for x in w)
        c = (R[0][0] + R[1][1] + R[2][2] - 1) / 2
        skew = (R[2][1] - R[1][2], R[0][2] - R[2][0], R[1][0] - R[0][1])
        s = sum(a * b for a, b in zip(w, skew)) / 2
        slide = sum(a * b for a, b in zip(w, t))
        t_plane = [x - slide * y for x, y in zip(t, w)]
        n = (1 - c) ** 2 + s * s
        u = tuple(((1 - c) * x + s * y) / n for x, y in zip(t_plane, _cross(w, t_plane)))
        return RigidMotion(R=R, t=t, w=w, u=u, angle=mp.atan2(abs(s), c))


def motion_residuals(m: RigidMotion, ctx: RealCtx) -> dict:
    """Numerical residuals of the defining invariants of a screw motion."""
    with ctx.work():
        R, t = m.R, m.t
        rtr = [
            [sum(R[k][i] * R[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        orth = maxnorm(minus_identity(rtr))
        out = {"orthogonality": orth, "det_minus_1": abs(det(R) - 1)}
        if m.w is not None:
            wR = [sum(m.w[i] * R[i][j] for i in range(3)) for j in range(3)]
            out["axis_invariance"] = max(abs(wR[j] - m.w[j]) for j in range(3))
            slide = sum(a * b for a, b in zip(m.w, t))
            out["w_dot_t"] = abs(slide)
            Ru = [sum(R[i][j] * m.u[j] for j in range(3)) for i in range(3)]
            # a screw's slide along its axis is no residual: u - R u is t less it
            out["axis_point"] = max(abs(m.u[i] - Ru[i] - t[i] + slide * m.w[i]) for i in range(3))
        return out


# --- turn-angle identities and bounds ----------------------------------------


@dataclass(frozen=True)
class QhGapBound:
    L: int
    delta_bar: mpf
    bound: mpf  # 5 L delta_bar^2


def gap_bound_qh(L: int, ctx: RealCtx) -> QhGapBound:
    """A-priori gap bound 5*L*delta_bar^2 for QH_L (meaningful for L >= 17)."""
    delta_bar, _ = reduce_theta_multiple(int(L) + 1, ctx)
    with ctx.work():
        return QhGapBound(L=int(L), delta_bar=delta_bar, bound=5 * (mpf(int(L)) * delta_bar**2))


@dataclass(frozen=True)
class OhGapBound:
    L: int
    delta_bar: mpf
    target: str
    bound: mpf  # 3 L delta_bar^2


def gap_bound_oh(L: int, ctx: RealCtx) -> OhGapBound:
    """Gap bound 3*L*delta_bar^2 for OH_L with delta_bar = reduce(L*theta - gamma).

    Of gamma_plus and gamma_minus, the one with the smaller |delta_bar| is taken.
    """
    cands = []
    for name in ("gamma_plus", "gamma_minus"):
        d, _ = reduce_theta_multiple(int(L), ctx, offset=name)
        cands.append((abs(d), d, name))
    _, delta_bar, name = min(cands)
    with ctx.work():
        return OhGapBound(
            L=int(L),
            delta_bar=delta_bar,
            target=name,
            bound=3 * mpf(int(L)) * delta_bar**2,
        )


def ratio_terms(L: int, ctx: RealCtx) -> tuple:
    """(delta_bar, ||K - I||_2, ||K - I||_2 / (L delta_bar^2)) of QH_L; the last nears 8 sqrt(3)/25."""
    delta_bar, _ = reduce_theta_multiple(int(L) + 1, ctx)
    (norm,) = resolve(quadrahelix_runs(L), ctx, lambda K, work: (norm_gap(K),), _digits(ctx))
    with ctx.work():
        return delta_bar, norm, norm / (mpf(int(L)) * delta_bar**2)


def limit_matrix_norm(ctx: RealCtx):
    """Spectral norm of the limiting matrix (2/25)*rows(3,3,3,3 / -1.. x3).

    The matrix has rank one, so its spectral norm is its Frobenius norm.
    """
    with ctx.work():
        num, den = LIMIT_MATRIX_SCALE
        return mpf(num) / den * mp.sqrt(sum(x * x for row in LIMIT_MATRIX_NUM for x in row))


# --- leg axes ----------------------------------------------------------------


def leg_axis_cosines(chain: RealizedChain, ctx: RealCtx) -> list:
    """Cosines between the axes of consecutive legs (sec of the printed leg angles).

    A leg is a maximal helical run of at least four letters (three equal
    cyclic steps).  Inside a leg the vertices in ageing order are
    consecutive helix points, so the axis direction solves
    (W_{i+1} - W_i) . u = h for three consecutive differences; the
    orientation points along growth.
    """
    axes = []
    with ctx.work():
        h = 1 / mp.sqrt(10)
        for _, end in helical_runs(chain.string, 4):
            tet = chain.tetrahedra[end - 1]
            ages = chain.ages[end - 1]
            order = sorted(range(4), key=lambda p: ages[p])
            W = [tet.vertices[p] for p in order]
            D = [
                [W[k + 1][axis] - W[k][axis] for axis in range(3)] for k in range(3)
            ]
            u = [h * sum(row) for row in invert(D)]
            n = _norm(u)
            axes.append(tuple(x / n for x in u))
        return [
            sum(a * b for a, b in zip(axes[i], axes[i + 1]))
            for i in range(len(axes) - 1)
        ]
