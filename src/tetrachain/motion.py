"""Closed-form chain matrix, rigid-motion decomposition, and asymptotics.

For the quadrahelix the product of all 4L+2 reflection matrices collapses to
a closed form in L and the reduced total turn angle: with sigma =
sin^2(delta/2) and s = sin(delta),

    K = I + sigma * (4/3125) * (H0 + H1*sigma + H2*sigma^2 + H3*sigma^3),

where each H is an integer combination of 1, L, sqrt(5)*s, and
L*sqrt(5)*s.  This is an exact identity (verified against the exact
rational products), so chains far too long to multiply out -- parameters
with hundreds of digits -- are evaluated through it.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf

from .bary import (
    MAX_EXACT_LENGTH,
    BaryMatrix,
    chain_matrix,
    det,
    helical_runs,
    lead_matrices,
    mat_mul,
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
from .precision import PrecisionError, RealCtx, reduce_theta_multiple
from .strings import quadrahelix_string

# --- closed-form coefficient tables ------------------------------------------

H0_CONST = ((6, 21, 6, -9), (-22, -7, -2, 3), (-2, -7, -2, 3), (18, -7, -2, 3))
H0_LIN = ((3, 3, 3, 3), (-1, -1, -1, -1), (-1, -1, -1, -1), (-1, -1, -1, -1))
H0_SIN = ((-1, -6, 9, -6), (7, 2, -3, 2), (-13, 2, -3, 2), (7, 2, -3, 2))

H1_CONST = ((-120, -45, 0, 45), (76, -69, -24, 21), (40, 15, 0, -15), (4, 99, 24, -51))
H1_LIN = ((0, 0, 0, 0), (-1, -1, -1, -1), (0, 0, 0, 0), (1, 1, 1, 1))
H1_SIN = (
    (0, 0, 0, 0),
    (60, 260, -140, 60),
    (-80, -280, -80, 120),
    (20, 20, 220, -180),
)
H1_LINSIN = ((0, 0, 0, 0), (1, 1, 1, 1), (-2, -2, -2, -2), (1, 1, 1, 1))

H2_CONST = (
    (-6, -21, -6, 9),
    (26, 31, 26, -39),
    (6, 31, -34, 21),
    (-26, -41, 14, 9),
)
H2_LIN = ((-3, -3, -3, -3), (4, 4, 4, 4), (1, 1, 1, 1), (-2, -2, -2, -2))
H2_SIN = ((1, 6, -9, 6), (-8, -13, 12, -3), (13, 8, 3, -12), (-6, -1, -6, 9))

H3_CONST = ((4, 3, 0, -3), (-5, -2, -3, 6), (-2, -5, 6, -3), (3, 4, -3, 0))

# lim (K - I)/(L*delta^2) as delta -> 0 over convergent L; rank one, with
# spectral norm 8*sqrt(3)/25
LIMIT_MATRIX_NUM = ((3, 3, 3, 3), (-1, -1, -1, -1), (-1, -1, -1, -1), (-1, -1, -1, -1))
LIMIT_MATRIX_SCALE = (2, 25)  # 2/25


def k_formula(L: int, ctx: RealCtx, delta_bar=None):
    """Evaluate the closed-form chain matrix K(L) as 4x4 mpf rows.

    delta_bar may be passed in when the caller has already reduced
    (L+1)*theta; otherwise it is computed here with the exact big-integer
    reduction, so L may have any number of digits.
    """
    if delta_bar is None:
        delta_bar, _ = reduce_theta_multiple(L + 1, ctx)
    with ctx.work():
        d = mpf(delta_bar)
        sqrt5 = mp.sqrt(5)
        sig = mp.sin(d / 2) ** 2
        s = mp.sin(d)
        Lm = mpf(int(L))
        rows = []
        for i in range(4):
            row = []
            for j in range(4):
                h0 = 125 * H0_CONST[i][j] + 250 * H0_LIN[i][j] * Lm + 75 * sqrt5 * H0_SIN[i][j] * s
                h1 = (
                    50 * H1_CONST[i][j]
                    + 1200 * H1_LIN[i][j] * Lm
                    + 6 * sqrt5 * H1_SIN[i][j] * s
                    + 240 * sqrt5 * H1_LINSIN[i][j] * Lm * s
                )
                h2 = 240 * H2_CONST[i][j] + 480 * H2_LIN[i][j] * Lm + 144 * sqrt5 * H2_SIN[i][j] * s
                h3 = 1440 * H3_CONST[i][j]
                val = sig * mpf(4) / 3125 * (h0 + h1 * sig + h2 * sig**2 + h3 * sig**3)
                if i == j:
                    val += 1
                row.append(val)
            rows.append(row)
        return rows


@dataclass(frozen=True)
class ClosedFormGap:
    """Gap metrics of QH_L evaluated through the closed form (canonical lead)."""

    L: int
    k: int  # nearest multiple of 2*pi in (L+1)*theta
    delta_bar: mpf
    gap: mpf  # Hausdorff distance of the final tetrahedron from the seed
    norm_gap: mpf  # ||K - I||_2, an upper bound for gap


def _closed_form_matrix(L: int, ctx: RealCtx):
    """delta_bar, k and the closed-form K(L), refusing an end too far out to resolve."""
    delta_bar, k = reduce_theta_multiple(int(L) + 1, ctx)
    K = k_formula(L, ctx, delta_bar=delta_bar)
    with ctx.work():
        # for generic (non-convergent) L the end tetrahedron sits a distance
        # ~ L*delta^2 out, and the Hausdorff distance of two unit tetrahedra
        # that far away is pure cancellation unless we carry enough digits
        scale = max(abs(K[i][j]) for i in range(4) for j in range(4))
        if scale > mpf(10) ** (ctx.digits - 12):
            need = int(mp.ceil(mp.log10(scale))) + 12
            raise PrecisionError(
                f"chain end lies ~1e{int(mp.log10(scale))} seed-edges away; "
                f"resolving the gap needs digits >= {need}, have {ctx.digits}"
            )
    return delta_bar, k, K


def closed_form_gap(L: int, ctx: RealCtx) -> ClosedFormGap:
    """Gap of QH_L via the closed form; works for L of any size."""
    delta_bar, k, K = _closed_form_matrix(L, ctx)
    with ctx.work():
        gap = root(gap2(K))
        norm = norm_gap(K)
    return ClosedFormGap(L=int(L), k=k, delta_bar=delta_bar, gap=gap, norm_gap=norm)


def _quadrahelix_leads(L: int, ctx: RealCtx) -> dict:
    """The chain matrix of every legal lead of QH_L (which starts 1, 2).

    While the 4L+2 letters fit MAX_EXACT_LENGTH these are exact products;
    beyond, the closed form gives K of the printed string in mpf.
    """
    if 4 * int(L) + 2 <= MAX_EXACT_LENGTH:
        K = chain_matrix(quadrahelix_string(L))
    else:
        _, _, K = _closed_form_matrix(L, ctx)
    with ctx.work():
        return lead_matrices(K, 1, 2)


def quadrahelix_gap_report(L: int, ctx: RealCtx, r0: int | None = None) -> GapReport:
    """Gap report of QH_L, minimized over the free leading face like gap_report."""
    return lead_minimized_report(_quadrahelix_leads(L, ctx), ctx, r0)


def quadrahelix_gap(L: int, ctx: RealCtx) -> mpf:
    """The least gap of QH_L over the free leading face, and nothing else of its report."""
    leads = _quadrahelix_leads(L, ctx)
    with ctx.work():
        return root(least_gap(leads)[0])


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


def _inv(M):
    """Inverse of a square matrix by Gauss-Jordan elimination with partial pivoting."""
    n = len(M)
    A = [list(row) + [mpf(1 if i == j else 0) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(A[r][col]))
        A[col], A[piv] = A[piv], A[col]
        d = A[col][col]
        A[col] = [x / d for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def _norm(v):
    return mp.sqrt(sum(x * x for x in v))


def homogeneous_t0(t0: Tetrahedron):
    """The 4x4 vertex matrix: columns are vertices with an appended 1-row."""
    return [
        [t0.vertices[j][i] for j in range(4)] for i in range(3)
    ] + [[mpf(1)] * 4]


def decompose_motion(K, t0: Tetrahedron, ctx: RealCtx) -> RigidMotion:
    """Split the chain map into rotation R, translation t, and screw axis (w, u).

    The homogeneous vertex matrix conjugates barycentric K into Cartesian
    form; the axis direction is the normalized cross product of the two
    largest columns of R - I, and the axis point solves u - R u = t in the
    plane orthogonal to w (coordinates Q = [t/|t|, w x t/|t|]).
    """
    if isinstance(K, BaryMatrix):
        K = K.to_mpf(ctx)
    with ctx.work():
        T = homogeneous_t0(t0)
        RR = mat_mul(mat_mul(T, [list(r) for r in K]), _inv(T))
        R = tuple(tuple(RR[i][:3]) for i in range(3))
        t = tuple(RR[i][3] for i in range(3))
        RmI = minus_identity(R)
        if maxnorm(RmI) < mpf(10) ** (-ctx.digits // 2):
            return RigidMotion(R=R, t=t, w=None, u=None, angle=mpf(0))
        colnorms = [_norm([RmI[i][j] for i in range(3)]) for j in range(3)]
        i1, i2 = sorted(range(3), key=lambda j: -colnorms[j])[:2]
        w = _cross(
            [RmI[i][i1] for i in range(3)], [RmI[i][i2] for i in range(3)]
        )
        w = tuple(x / _norm(w) for x in w)
        tn = _norm(t)
        ts = tuple(x / tn for x in t)
        q2 = _cross(w, ts)
        Q = [(ts[i], q2[i]) for i in range(3)]
        QtRQ = [
            [
                sum(Q[a][i] * R[a][b] * Q[b][j] for a in range(3) for b in range(3))
                for j in range(2)
            ]
            for i in range(2)
        ]
        M2 = [[(1 if i == j else 0) - QtRQ[i][j] for j in range(2)] for i in range(2)]
        det = M2[0][0] * M2[1][1] - M2[0][1] * M2[1][0]
        qt_t = [sum(Q[a][i] * t[a] for a in range(3)) for i in range(2)]
        y0 = (M2[1][1] * qt_t[0] - M2[0][1] * qt_t[1]) / det
        y1 = (-M2[1][0] * qt_t[0] + M2[0][0] * qt_t[1]) / det
        u = tuple(Q[i][0] * y0 + Q[i][1] * y1 for i in range(3))
        trace = R[0][0] + R[1][1] + R[2][2]
        cosang = (trace - 1) / 2
        cosang = max(mpf(-1), min(mpf(1), cosang))
        return RigidMotion(R=R, t=t, w=w, u=u, angle=mp.acos(cosang))


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
            out["w_dot_t"] = abs(sum(a * b for a, b in zip(m.w, t)))
            Ru = [sum(R[i][j] * m.u[j] for j in range(3)) for i in range(3)]
            out["axis_point"] = max(abs(m.u[i] - Ru[i] - t[i]) for i in range(3))
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
    """(delta_bar, ||K - I||_2, ||K - I||_2 / (L * delta_bar^2)) of QH_L, closed form."""
    delta_bar, _ = reduce_theta_multiple(int(L) + 1, ctx)
    K = k_formula(L, ctx, delta_bar=delta_bar)
    with ctx.work():
        norm = norm_gap(K)
        return delta_bar, norm, norm / (mpf(int(L)) * delta_bar**2)


def asymptotic_ratio(L: int, ctx: RealCtx):
    """||K - I||_2 / (L * delta_bar^2); approaches (8/25)*sqrt(3) for convergent L."""
    return ratio_terms(L, ctx)[2]


def limit_matrix_norm(ctx: RealCtx):
    """Spectral norm of the limiting matrix (2/25)*rows(3,3,3,3 / -1.. x3).

    The matrix has rank one, so its spectral norm is its Frobenius norm.
    """
    with ctx.work():
        num, den = LIMIT_MATRIX_SCALE
        return mpf(num) / den * mp.sqrt(sum(x * x for row in LIMIT_MATRIX_NUM for x in row))


# --- leg axes ----------------------------------------------------------------


def leg_axes(chain: RealizedChain, ctx: RealCtx) -> list:
    """Axis directions of the straight helical legs of a realized chain.

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
            u = [h * sum(row) for row in _inv(D)]
            n = _norm(u)
            axes.append(tuple(x / n for x in u))
    return axes


def leg_axis_cosines(chain: RealizedChain, ctx: RealCtx) -> list:
    """Cosines between consecutive leg axes (sec of the printed leg angles)."""
    axes = leg_axes(chain, ctx)
    with ctx.work():
        return [
            sum(a * b for a, b in zip(axes[i], axes[i + 1]))
            for i in range(len(axes) - 1)
        ]
