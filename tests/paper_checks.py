"""Oracles for the paper's claims, for checking the package against them.

The commands never run these: they restate a result of the paper (the
corollary angle identity, the limiting rhombus, the tetrahelix barycentric
formula, the axis-point bound, the disputed octahelix literal) or evaluate
one by an independent route (an explicit determinant for the start-plane
clearance, SAT on a pair of mpf tetrahedra), so tests can hold the package
to it.

k_formula is the closed form of QH_L's chain matrix, its integer tables
H0..H3 pinned by hand (docs/closed-form-adjudication.md); the package
computes QH_L past the exact-product limit by another route, the run
product, and k_formula is the oracle for it.  The package's metrics take a
BaryMatrix, so as_bary rounds the oracle's rows once, as the run product
rounds its own.  Its H1 sin-delta block H1_SIN
is the variant that reproduces the exact rational product; a
one-tenth-scaled variant of the same block is close enough to be mistaken
for correct and is kept here as _H1_SIN_REJECTED so the tests can assert
that it is not.
"""

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from tetrachain.bary import BaryMatrix
from tetrachain.embedding import _exact_separation
from tetrachain.geometry import _cross, _sub, dyadic_ints, helix_vertex, invisible_t0
from tetrachain.metrics import minus_identity
from tetrachain.motion import decompose_motion
from tetrachain.precision import reduce_theta_multiple, theta
from tetrachain.strings import format_string, is_valid, octahelix_runs, spell

_H1_SIN_REJECTED = (
    (0, 0, 0, 0),
    (6, 26, -14, 6),
    (-8, -28, -8, 12),
    (2, 2, 22, -18),
)


# --- the closed form of QH_L ---------------------------------------------------

# K = I + sigma * (4/3125) * (H0 + H1*sigma + H2*sigma^2 + H3*sigma^3) with
# sigma = sin^2(delta/2) and s = sin(delta); each H is an integer combination
# of 1, L, sqrt(5)*s and L*sqrt(5)*s

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


def k_formula(L: int, ctx, delta_bar=None):
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


def as_bary(rows, ctx) -> BaryMatrix:
    """mpf rows rounded once to numerators over 3^k, 3^-k below ctx's working precision.

    Marked inexact, like bary.run_product's result, so the metrics treat it alike.
    """
    k = dps_to_prec(ctx.workdps) * 631 // 1000 + 1  # log(2) / log(3) = 0.63093...
    one = 3**k
    with mp.workprec(dps_to_prec(ctx.workdps) + one.bit_length()):
        num = tuple(tuple(int(mp.nint(x * one)) for x in row) for row in rows)
    return BaryMatrix(num, k, exact=False)


# --- the seed tetrahedron ----------------------------------------------------


def seed_vertex_singular_value(ctx):
    """Largest singular value of the 3x4 seed vertex matrix (columns: T_0's vertices).

    The paper gives it as eta = sqrt(17)/5; here it comes from mpmath's SVD.
    """
    with ctx.work():
        vertices = invisible_t0(ctx).vertices
        V = mp.matrix([[v[axis] for v in vertices] for axis in range(3)])
        return max(mp.svd_r(V, compute_uv=False))


# --- the screw motion -------------------------------------------------------------


def left_kernel_residuals(K, w, t0, ctx) -> dict:
    """Residuals of the two expected left-null rows of K - I."""
    with ctx.work():
        diff = minus_identity(K)
        ones = max(abs(sum(diff[i][j] for i in range(4))) for j in range(4))
        wt0 = [sum(w[i] * t0.vertices[j][i] for i in range(3)) for j in range(4)]
        wrow = max(abs(sum(wt0[i] * diff[i][j] for i in range(4))) for j in range(4))
        return {"ones_row": ones, "w_t0_row": wrow}


def corollary_angle_checks(L: int, ctx) -> dict:
    """The screw-angle identity computed two independent ways, plus the norm bound.

    sin(rho) = (2*sqrt(6)/5) * sin^2(delta_bar/2) should equal the dot
    product of the fixed unit normal A = (sqrt(10), 2*sqrt(2), 3*sqrt(3)) /
    (3*sqrt(5)) with V_{L+3} - V_{L+1}; and the rotation satisfies
    ||R - I||_2 <= delta_bar^2.
    """
    delta_bar, _ = reduce_theta_multiple(L + 1, ctx)
    with ctx.work():
        sin_rho = (2 * mp.sqrt(6) / 5) * mp.sin(delta_bar / 2) ** 2
        A = (
            mp.sqrt(10) / (3 * mp.sqrt(5)),
            2 * mp.sqrt(2) / (3 * mp.sqrt(5)),
            3 * mp.sqrt(3) / (3 * mp.sqrt(5)),
        )
        va = helix_vertex(L + 3, ctx)
        vb = helix_vertex(L + 1, ctx)
        dot_direct = sum(a * (x - y) for a, x, y in zip(A, va, vb))
        rho0 = mp.acos(sin_rho)
        K = k_formula(L, ctx, delta_bar=delta_bar)
        motion = decompose_motion(as_bary(K, ctx), invisible_t0(ctx), ctx)
        # ||R - I||_2 = sqrt(2 - 2 cos(angle)), and tr K = tr R + 1 = 2 + 2 cos(angle)
        r_norm = mp.sqrt(4 - sum(K[i][i] for i in range(4)))
        return {
            "rho0": rho0,
            "sin_rho": sin_rho,
            "dot_direct": dot_direct,
            "agreement": abs(sin_rho - dot_direct),
            "motion_angle": motion.angle,
            "r_norm": r_norm,
            "norm_bound_ok": bool(r_norm <= delta_bar**2),
            "delta_bar": delta_bar,
        }


def axis_point_norm_bound(L: int, ctx):
    """The bound ||u|| <= (5/2) h (2L+1) on the axis point of QH_L, h = 1/sqrt(10)."""
    with ctx.work():
        return mpf(5) / 2 / mp.sqrt(10) * (2 * L + 1)


def limiting_rhombus(ctx) -> dict:
    """Solve the unit-side rhombus with alternating leg-dot-products +-1/5.

    Two vertices are pinned at (0,0) and (0,1); the unique solution with
    positive x has the other two at (2*sqrt(6)/5, 4/5) and
    (2*sqrt(6)/5, -1/5).  Returns vertices, interior angles (alternating
    arccos(+-1/5), i.e. sec-inverse of +-5), and the short diagonal.
    """
    with ctx.work():

        def equations(x3, y3, x4, y4):
            a1 = (mpf(0), mpf(0))
            a2 = (mpf(0), mpf(1))
            a3 = (x3, y3)
            a4 = (x4, y4)
            legs = [
                (a2[0] - a1[0], a2[1] - a1[1]),
                (a3[0] - a2[0], a3[1] - a2[1]),
                (a4[0] - a3[0], a4[1] - a3[1]),
                (a1[0] - a4[0], a1[1] - a4[1]),
            ]
            eqs = [legs[i][0] ** 2 + legs[i][1] ** 2 - 1 for i in (1, 2, 3)]
            eqs.append(legs[0][0] * legs[1][0] + legs[0][1] * legs[1][1] + mpf(1) / 5)
            return eqs

        x3, y3, x4, y4 = mp.findroot(
            equations, (mpf(1), mpf("0.8"), mpf(1), mpf("-0.2"))
        )
        verts = ((mpf(0), mpf(0)), (mpf(0), mpf(1)), (x3, y3), (x4, y4))
        angles = []
        for i in range(4):
            prev = verts[(i - 1) % 4]
            cur = verts[i]
            nxt = verts[(i + 1) % 4]
            v1 = (prev[0] - cur[0], prev[1] - cur[1])
            v2 = (nxt[0] - cur[0], nxt[1] - cur[1])
            angles.append(mp.acos(v1[0] * v2[0] + v1[1] * v2[1]))
        short_diag = mp.sqrt((verts[2][0] - verts[0][0]) ** 2 + (verts[2][1] - verts[0][1]) ** 2)
        return {"vertices": verts, "angles": angles, "short_diagonal": short_diag}


# --- helix geometry --------------------------------------------------------------

# Coefficients of the barycentric tetrahelix point formula: the coordinates
# of V_q in the base {V_-1, V_0, V_1, V_2} are
#   C(q) = c_const + c_lin*q + c_cos*cos(q*theta) + c_sin*sin(q*theta)
# with the vectors below; the last three sum to 0 and the first to 1.
_C_CONST = (3, 4, 3, 0)  # over 10
_C_LIN = (-3, -1, 1, 3)  # over 10
_C_COS = (-1, 2, -1, 0)  # times 3/10
_C_SIN = (-2, 1, 4, -3)  # times 3*sqrt(5)/50


def bary_coefficients(q: int, ctx) -> tuple:
    """The 4-vector C(q) of barycentric coordinates of helix point V_q."""
    with ctx.work():
        cq = mp.cos(mpf(q) * theta())
        sq = mp.sin(mpf(q) * theta())
        s5 = 3 * mp.sqrt(5) / 50
        return tuple(
            mpf(_C_CONST[i]) / 10
            + mpf(_C_LIN[i]) / 10 * q
            + mpf(3 * _C_COS[i]) / 10 * cq
            + s5 * _C_SIN[i] * sq
            for i in range(4)
        )


def tetrahelix_bary_point(q: int, base, ctx) -> tuple:
    """Helix point V_q expressed through any base tetrahedron in helix order."""
    coeff = bary_coefficients(q, ctx)
    return tuple(
        sum(base.vertices[k][axis] * coeff[k] for k in range(4)) for axis in range(3)
    )


def tetra_volume(t) -> mpf:
    a, b, c3, d = t.vertices
    n = _cross(_sub(c3, a), _sub(d, a))
    return abs(sum(x * y for x, y in zip(_sub(b, a), n))) / 6


def edge_lengths(t) -> list:
    out = []
    vs = t.vertices
    for i in range(4):
        for j in range(i + 1, 4):
            out.append(mp.sqrt(sum((vs[i][k] - vs[j][k]) ** 2 for k in range(3))))
    return out


# --- embedding ----------------------------------------------------------------------


def quadplane_determinant_direct(q: int, ctx):
    """The start-plane clearance of embedding.quadplane_determinant, from a determinant.

    Rows are V_q - V_1, V_q - V_2, and V_q - (V_0 + V_3)/2, scaled by
    20*sqrt(10); an independent oracle for the closed form.
    """
    with ctx.work():
        vq = helix_vertex(q, ctx)
        v0, v1, v2, v3 = (helix_vertex(i, ctx) for i in range(4))
        mid = tuple((a + b) / 2 for a, b in zip(v0, v3))
        n = _cross(_sub(vq, v2), _sub(vq, mid))
        det = sum(x * y for x, y in zip(_sub(vq, v1), n))
        return 20 * mp.sqrt(10) * det


def tetra_interiors_disjoint(a, b) -> bool:
    """True iff the interiors of a and b are disjoint (touching counts as disjoint).

    Decided exactly on the mpf vertices read as dyadic rationals.
    """
    ints, _ = dyadic_ints(x for t in (a, b) for v in t.vertices for x in v)
    points = [tuple(ints[n : n + 3]) for n in range(0, 24, 3)]
    return _exact_separation(points[:4], points[4:]) is not None


# --- strings and lattices ---------------------------------------------------------

# the disputed 44-symbol variant of OH_4 that circulates alongside the
# 36-symbol grammar output; kept as a fixture so the discrepancy stays visible
OCTAHELIX_4_LITERAL = "12341432123412341432123414321234143212341432"


def octahelix_literal_check() -> dict:
    """Compare the spelled OH_4 against the 44-symbol literal fixture.

    The two disagree (36 vs 44 symbols); this helper reports the mismatch
    rather than silently preferring either.  The grammar string is what the
    package uses.
    """
    grammar = format_string(spell(octahelix_runs(4)))
    literal = OCTAHELIX_4_LITERAL
    return {
        "grammar": grammar,
        "literal": literal,
        "grammar_length": len(grammar),
        "literal_length": len(literal),
        "match": grammar == literal,
        "literal_valid": is_valid(tuple(int(c) for c in literal)),
    }


def lattice_basis_determinant(b1, b2, a, b) -> int:
    """det of the change of basis from ((a,1,0),(b,0,1)) to (b1, b2); +-1."""
    # coordinates of b1, b2 in the original basis are their last two entries
    return b1[1] * b2[2] - b1[2] * b2[1]
