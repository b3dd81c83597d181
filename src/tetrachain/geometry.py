"""Cartesian realization of tetrahedral chains.

The seed helix V_i = (r cos(i*theta), r sin(i*theta), i*h) places unit
regular tetrahedra {V_i, V_{i+1}, V_{i+2}, V_{i+3}} along a cylinder; the
invisible starting tetrahedron T_0 is {V_-1, V_0, V_1, V_2}.  A chain is
walked exactly by bary.vertex_walk, the column step of the chain products:
the reflection in face i replaces vertex i by 2/3 of the sum of the other
three minus itself, so every vertex is an integer vector over the power
of 3 of the step that placed it, in any coordinates affine to space.
cos(theta) = -2/3 and sin(theta) = sqrt(5)/3 make T_0 exactly SEED, so
realization walks from integers and rounds the vertex placed at step k
once, to binary64.  Each step computes one vertex; the other three are
copied, which keeps the shared face bit-for-bit equal.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .bary import check_exact_length, vertex_walk
from .strings import is_valid

if TYPE_CHECKING:
    from .precision import RealCtx

Point3 = tuple  # 3 float or mpf coordinates


class Tetrahedron(NamedTuple):
    """Four ordered vertices; face i is the one opposite vertex i."""

    vertices: tuple  # 4 Point3


class RealizedChain(NamedTuple):
    """A realized chain: its printed string, the visible tetrahedra, and their ages.

    ages[k][p] is the step index at which vertex slot p of visible
    tetrahedron k was last replaced; sorting a tetrahedron's slots by age
    recovers the helix order of its vertices, which downstream axis
    diagnostics rely on.
    """

    string: tuple  # full string including the leading face choice
    tetrahedra: list
    ages: list


def helix_vertex(i: int, ctx: RealCtx) -> Point3:
    """V_i on the cylinder of radius r = 3*sqrt(3)/10, rising h = 1/sqrt(10) per step."""
    from mpmath import mp, mpf
    from .precision import theta
    with ctx.work():
        a = mpf(i) * theta()
        r, h = 3 * mp.sqrt(3) / 10, 1 / mp.sqrt(10)
        return (r * mp.cos(a), r * mp.sin(a), mpf(i) * h)


def invisible_t0(ctx: RealCtx) -> Tetrahedron:
    return Tetrahedron(tuple(helix_vertex(i, ctx) for i in (-1, 0, 1, 2)))


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# T_0 = {V_-1, V_0, V_1, V_2} exactly, as (sqrt(3) a, sqrt(15) b, sqrt(10) c) / 30
SEED = ((-6, -3, -3), (9, 0, 0), (-6, 3, 3), (-1, -4, 6))
SURDS = (3, 15, 10)
_EXTRA_BITS = 64  # bits the first bracket carries past the format's precision


def _rounded(n: int, c: int, den: int, bits: int, r: int = 0) -> float:
    """sqrt(c) * n / den rounded once to binary64.

    r = isqrt(c 4^bits) and r + 1 bracket sqrt(c) 2^bits, and the top bits of
    den and of |n|, cut alike, bracket |n| / den; int true division rounds
    each end correctly.  For n != 0 the value is irrational, on no rounding
    boundary: bits double until both ends round alike.  A caller rounding
    many coordinates passes the first r, which depends on c and bits only.
    """
    a = abs(n)
    while a:
        m = max(0, den.bit_length() - bits)
        r, top, d, cut = r or isqrt(c << 2 * bits), a >> m, den >> m, m > 0
        lo = r * top / (d + cut << bits)
        if lo == (r + 1) * (top + cut) / (d << bits):
            return lo if n > 0 else -lo
        bits, r = 2 * bits, 0
    return 0.0


def realize_chain(s: Sequence[int]) -> RealizedChain:
    """Realize a printed string, its first symbol the leading face.

    The visible tetrahedra are T_1 .. T_{len(s)}; T_0 stays invisible.
    The vertex_walk from SEED gives the vertex placed at step k exactly,
    over 30 * 3^k: the same column of T_0 times the k-th prefix product.
    Each coordinate is rounded once, to binary64.
    """
    check_exact_length(len(s))
    s = tuple(s)
    if not is_valid(s):
        raise ValueError(f"invalid reflection string {s!r}")
    bits = 53 + _EXTRA_BITS
    roots = [isqrt(c << 2 * bits) for c in SURDS]

    def place(v, den):
        return tuple(_rounded(x, c, den, bits, r) for x, c, r in zip(v, SURDS, roots))

    verts = [place(v, 30) for v in SEED]
    tetrahedra, ages = [], []
    age = [0, 1, 2, 3]
    den = 30
    for k, (sym, exact) in enumerate(zip(s, vertex_walk(s, SEED)), start=1):
        i = sym - 1
        den *= 3
        verts[i] = place(exact[i], den)
        age = age.copy()
        age[i] = k + 3
        tetrahedra.append(Tetrahedron(tuple(verts)))
        ages.append(tuple(age))
    return RealizedChain(s, tetrahedra, ages)
