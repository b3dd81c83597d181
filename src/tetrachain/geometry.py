"""Cartesian realization of tetrahedral chains.

The seed helix V_i = (r cos(i*theta), r sin(i*theta), i*h) places unit
regular tetrahedra {V_i, V_{i+1}, V_{i+2}, V_{i+3}} along a cylinder; the
invisible starting tetrahedron T_0 is {V_-1, V_0, V_1, V_2}.  A chain is
walked exactly (vertex_walk): the reflection in face i replaces vertex i by
2/3 of the sum of the other three minus itself, so every vertex is an
integer vector over the power of 3 of the step that placed it, in any
coordinates affine to space.  Realization starts the walk from T_0's
dyadic Cartesian integers and rounds the vertex placed at step k once,
from its numerators over 3^k; the embedding certificate starts the same
walk from the older tetrahedron of each pair, as the unit affine frame.
Each step computes one vertex; the other three are copied, which keeps
the shared face bit-for-bit equal.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, round_nearest

from .bary import check_exact_length
from .precision import RealCtx, theta
from .strings import is_valid

Point3 = tuple  # 3 mpf coordinates


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


def dyadic_ints(xs) -> tuple[list[int], int]:
    """The mpf values xs as integers n with x = n * 2**low, for one common low.

    An mpf is exactly (-1)^sign * man * 2^exp, so nothing is rounded.
    """
    parts = [mpf(x)._mpf_ for x in xs]
    low = min((exp for _, man, exp, _ in parts if man), default=0)
    ints = [(-1) ** s * (man << (exp - low)) if man else 0 for s, man, exp, _ in parts]
    return ints, low


def _rounded(n: int, den: int, low: int) -> mpf:
    """n * 2**low / den, rounded once to the working precision.

    The quotient q of |n| 2^shift by den keeps at least prec + 2 bits and
    one more bit records a nonzero remainder: all the rounding needs.  The
    top prec + 64 bits of den, and as many of |n|, bound it strictly between
    two quotients; where both floor to q it is in (q, q + 1), and elsewhere
    the whole integers divide.
    """
    a = abs(n)
    for m in (max(0, den.bit_length() - mp.prec - 64), 0):
        top, d = a >> m, den >> m
        shift = max(0, mp.prec + 3 - top.bit_length() + d.bit_length())
        q, r = divmod(top << shift, d + (m > 0))
        if not m or top and q == (top + 1 << shift) // d:
            break
    man = 2 * q + (r != 0 or m > 0)
    return mp.make_mpf(from_man_exp(man if n >= 0 else -man, low - shift - 1, mp.prec, round_nearest))


def vertex_walk(s: Sequence[int], start) -> Iterator[tuple]:
    """The four vertices after each letter of s, as integer triples over 3^k at step k = 1, 2, ...

    start holds T_0's four vertices as integer triples, in slot order.  Step
    k replaces slot i by 2*(sum of all four) - 5*(vertex i) and triples the
    other three, the column step of bary._walk.  The step is linear, so it
    holds in any coordinates affine to space.
    """
    verts = tuple(start)
    for sym in s:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2), (d0, d1, d2) = verts
        x0, x1, x2 = verts[sym - 1]
        new = (2 * (a0 + b0 + c0 + d0) - 5 * x0, 2 * (a1 + b1 + c1 + d1) - 5 * x1,
               2 * (a2 + b2 + c2 + d2) - 5 * x2)
        verts = (new if sym == 1 else (3 * a0, 3 * a1, 3 * a2),
                 new if sym == 2 else (3 * b0, 3 * b1, 3 * b2),
                 new if sym == 3 else (3 * c0, 3 * c1, 3 * c2),
                 new if sym == 4 else (3 * d0, 3 * d1, 3 * d2))
        yield verts


def realize_chain(s: Sequence[int], ctx: RealCtx) -> RealizedChain:
    """Realize a printed string, its first symbol the leading face.

    The visible tetrahedra are T_1 .. T_{len(s)}; T_0 stays invisible.
    The vertex_walk from T_0's dyadic integers gives the vertex placed at
    step k exactly, over 3^k: the same column of T_0 times the k-th prefix
    product, and the one rounding to the working precision.
    """
    check_exact_length(len(s))
    s = tuple(s)
    if not is_valid(s):
        raise ValueError(f"invalid reflection string {s!r}")
    with ctx.work():
        t0 = invisible_t0(ctx)
        ints, low = dyadic_ints(x for v in t0.vertices for x in v)
        tetrahedra, ages = [], []
        verts = list(t0.vertices)
        age = [0, 1, 2, 3]
        den = 1
        walk = vertex_walk(s, [ints[3 * p : 3 * p + 3] for p in range(4)])
        for k, (sym, exact) in enumerate(zip(s, walk), start=1):
            i = sym - 1
            den *= 3
            verts[i] = tuple(_rounded(x, den, low) for x in exact[i])
            age = age.copy()
            age[i] = k + 3
            tetrahedra.append(Tetrahedron(tuple(verts)))
            ages.append(tuple(age))
        return RealizedChain(s, tetrahedra, ages)
