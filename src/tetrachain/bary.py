"""Exact barycentric reflection matrices and their chain products.

The reflection in face i of a tetrahedron, written in barycentric
coordinates, is the 4x4 matrix M_i that fixes every basis vector except
e_i, which maps to -e_i + (2/3) * (sum of the others).  A chain of n
reflections multiplies to a matrix whose entries are integers over 3^n,
so we store the integer numerator matrix together with the power of 3 and
never touch floating point until a caller asks for it.

vertex_walk is the one step of a chain, on the columns of a product or on
the vertices of a tetrahedron in any affine coordinates.  chain_matrix
walks the top three rows from FRAME and reads row four from the column
sums, except along its long helical runs: a run steps by a constant 1, 2
or 3 mod 4, so it repeats the word of its first four letters, and that word
is raised to a power by binary powering.  A named chain is a few such runs.

Past MAX_EXACT_LENGTH letters, run_product multiplies the runs in mpf as
screw powers, from coefficient tables derived exactly on first use.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import lcm
from typing import Iterator, NamedTuple, Sequence

from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec

from .precision import RealCtx, _reduce_once
from .strings import Run, is_valid

_Rows = tuple[tuple[int, int, int, int], ...]


class BaryMatrix(NamedTuple):
    """A 4x4 matrix with entries num[i][j] / 3**power, held exactly.

    exact is False for a real product rounded to this form (run_product): its
    arithmetic is exact, but it only approximates a product of reflections.
    """

    num: _Rows
    power: int
    exact: bool = True

    def __matmul__(self, other: "BaryMatrix") -> "BaryMatrix":
        """The product in lowest terms: common factors of 3 are divided out."""
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = other.num
        rows = tuple([
            (x0 * a0 + x1 * b0 + x2 * c0 + x3 * d0, x0 * a1 + x1 * b1 + x2 * c1 + x3 * d1,
             x0 * a2 + x1 * b2 + x2 * c2 + x3 * d2, x0 * a3 + x1 * b3 + x2 * c3 + x3 * d3)
            for x0, x1, x2, x3 in self.num
        ])
        power, d = self.power + other.power, 1
        while power > 0 and all(x % (3 * d) == 0 for row in rows for x in row):
            power, d = power - 1, 3 * d
        if d > 1:
            rows = tuple([(x0 // d, x1 // d, x2 // d, x3 // d) for x0, x1, x2, x3 in rows])
        return BaryMatrix(rows, power, self.exact and other.exact)

    def to_mpf(self, ctx: RealCtx) -> list[list[mpf]]:
        """Entries as mpf at ctx working precision."""
        with ctx.work():
            d = mpf(3) ** self.power
            return [[mpf(x) / d for x in row] for row in self.num]

    def is_permutation(self) -> bool:
        """True iff the matrix is exactly a 0/1 permutation matrix."""
        one = 3**self.power
        for i in range(4):
            nonzero = [j for j in range(4) if self.num[i][j] != 0]
            if len(nonzero) != 1 or self.num[i][nonzero[0]] != one:
                return False
        cols = sorted(row.index(one) for row in [list(r) for r in self.num])
        return cols == [0, 1, 2, 3]


def det(rows):
    """Determinant of a square matrix given as rows, by cofactors along the top row."""
    if len(rows) == 1:
        return rows[0][0]
    return sum(
        (-1) ** j * x * det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, x in enumerate(rows[0])
    )


IDENTITY = BaryMatrix(
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)), 0
)
FRAME = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))  # a tetrahedron in its own affine frame

MAX_EXACT_LENGTH = 20_000  # letters; exact products and realization stop here


def reflection_matrix(i: int) -> BaryMatrix:
    """M_i over denominator 3: column i is -3 at the diagonal and 2 elsewhere."""
    if i not in (1, 2, 3, 4):
        raise ValueError(f"face index must be 1..4, got {i}")
    rows = []
    for row in range(4):
        r = [3 if row == col else 0 for col in range(4)]
        r[i - 1] = -3 if row == i - 1 else 2
        rows.append(tuple(r))
    return BaryMatrix(tuple(rows), 1)


def conjugate(K: BaryMatrix, i: int) -> BaryMatrix:
    """M_i K M_i over the power of 3 of K, for K the product of a string i, ...

    M_i K M_i is then the product of the string rotated by one letter, over
    the same power of 3, so the division by 9 is exact.  On the left, row
    r != i becomes 3 row_r + 2 row_i and row i becomes -3 row_i; on the
    right, column i becomes 2 (row sum) - 5 column_i and the others triple.
    """
    N, i = K.num, i - 1
    rows = [[-3 * y for y in N[i]] if r == i else [3 * x + 2 * y for x, y in zip(row, N[i])]
            for r, row in enumerate(N)]
    out = []
    for row in rows:
        t = 2 * sum(row) - 5 * row[i]
        out.append(tuple((t if j == i else 3 * x) // 9 for j, x in enumerate(row)))
    return BaryMatrix(tuple(out), K.power)


def check_exact_length(n: int) -> None:
    """Refuse a string of n letters past MAX_EXACT_LENGTH, before anything reads it."""
    if n > MAX_EXACT_LENGTH:
        raise ValueError(f"string length {n} exceeds the exact-product limit {MAX_EXACT_LENGTH}")


def vertex_walk(s: Sequence[int], start) -> Iterator[tuple]:
    """The four vertices after each letter of s, as integer triples over 3^k at step k = 1, 2, ...

    start holds four vertices as integer triples, in slot order.  Step k
    replaces slot i by 2*(sum of all four) - 5*(vertex i) and triples the
    other three.  The step is linear, so it holds in any coordinates affine
    to space; from FRAME it gives the top three rows of the prefix products.
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


def _from_columns(cols, power: int) -> BaryMatrix:
    """The product over 3^power whose columns have the top three rows cols.

    1^T M_i = 1^T for every reflection, so each column of a product over
    3^power sums to 3^power, which gives row four.
    """
    one = 3**power
    return BaryMatrix((*zip(*cols), tuple([one - x - y - z for x, y, z in cols])), power)


def _power(W: BaryMatrix, q: int) -> BaryMatrix:
    """W^q, q >= 1, by binary powering from the lowest set bit of q."""
    while not q & 1:
        W, q = W @ W, q >> 1
    out = W
    while q := q >> 1:
        W = W @ W
        if q & 1:
            out = out @ W
    return out


def helical_runs(s: Sequence[int], shortest: int):
    """(start, end) of every maximal s[start:end] of `shortest` or more letters with one step.

    A helical run steps by a constant 1, 2 or 3 mod 4.  Neighbouring runs
    share at most one letter.
    """
    if len(s) < shortest:
        return ()
    steps = bytes((b - a) % 4 for a, b in zip(s, s[1:]))
    pattern = b"|".join(b"%c{%d,}" % (k, shortest - 1) for k in (1, 2, 3))
    return ((m.start(), m.end() + 1) for m in re.finditer(pattern, steps))


_POWERED_RUN = 16  # letters; a shorter run costs less letter by letter than powered


def chain_matrix(s: Sequence[int]) -> BaryMatrix:
    """Exact product M_{s[0]} M_{s[1]} ... in string order, in lowest terms over 3^len(s).

    The letters a + step*i mod 4 of a helical run repeat with a period that
    divides 4, so a run of m letters is the word W of its first four letters
    m div 4 times, then at most three letters.  A run of _POWERED_RUN
    letters or more costs W^(m div 4) by binary powering; every other letter
    is a step of vertex_walk on the top three rows.
    """
    check_exact_length(len(s))
    if not is_valid(s):
        raise ValueError(f"invalid reflection string {s!r}")
    cols, power, done = FRAME, 0, 0  # top rows of the product of s[:done] over 3^power, by columns
    for start, end in helical_runs(s, _POWERED_RUN):
        start = max(start, done)
        q = (end - start) // 4
        for cols in vertex_walk(s[done:start], cols):
            pass
        for W in vertex_walk(s[start : start + 4], FRAME):
            pass
        K = _from_columns(cols, power + start - done) @ _power(_from_columns(W, 4), q)
        cols, power, done = tuple(zip(*K.num[:3])), K.power, start + 4 * q
    for cols in vertex_walk(s[done:], cols):
        pass
    return _from_columns(cols, power + len(s) - done)


@lru_cache(maxsize=None)
def _pair(r: int, s: int) -> BaryMatrix:
    return reflection_matrix(r) @ reflection_matrix(s)


def lead_matrices(K: BaryMatrix, s0: int, s1: int) -> dict:
    """Chain matrix of every legal lead r != s1, for K the product of a string s0, s1, ...

    An open chain's first tetrahedron may be reflected in any face but the
    one the second letter uses.  Reflections are involutions, so lead r has
    M_r M_s0 K, which is K itself for r = s0.
    """
    leads = {s0: K}
    for r in (1, 2, 3, 4):
        if r not in (s0, s1):
            leads[r] = _pair(r, s0) @ K
    return dict(sorted(leads.items()))


def times_pair(A: BaryMatrix, q: int, r: int) -> BaryMatrix:
    """A M_q M_r.

    For A the inverse of lead q this is the inverse of lead r:
    (M_r M_q K)^-1 = K^-1 M_q M_r.
    """
    return A @ _pair(q, r)


def mat_mul(A, B):
    """Product of two matrices given as rows."""
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def invert(M):
    """Inverse of a square matrix of mpf or Fraction rows, by Gauss-Jordan with partial pivoting."""
    n = len(M)
    A = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
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


@lru_cache(maxsize=None)
def _screw_table(step: int) -> tuple:
    """(den, E0, E1, Ec, Es), flat integer rows with den X^m = E0 + m E1 + cos(m theta) Ec
    + sin(m theta)/sqrt(5) Es for X = M_1 P^step, P the 4-cycle e_i -> e_(i+1).

    X has the eigenvalues 1, 1 and e^(+-i theta), so every power of X is such a
    combination (Sylvester's formula; Higham, Functions of Matrices, ch. 1).
    cos(theta) = -2/3 makes the basis rational at m = 0..3, and the four
    coefficients follow from X^0..X^3 by one exact solve, on first use.
    """
    from fractions import Fraction  # only the run product needs it

    shift = BaryMatrix(tuple(IDENTITY.num[(i - step) % 4] for i in range(4)), 0)  # P^step
    X, W, c, s = reflection_matrix(1) @ shift, IDENTITY, Fraction(1), Fraction(0)
    basis, powers = [], []
    for m in range(4):
        basis.append([Fraction(1), Fraction(m), c, s])
        powers.append([Fraction(x, 3**W.power) for row in W.num for x in row])
        # one more turn by theta: cos(theta) = -2/3, sin(theta) = sqrt(5)/3
        W, c, s = W @ X, (-2 * c - 5 * s) / 3, (c - 2 * s) / 3
    E = mat_mul(invert(basis), powers)
    den = lcm(*(x.denominator for row in E for x in row))
    return (den, *(tuple(int(x * den) for x in row) for row in E))


def run_product(runs: Sequence[Run], ctx: RealCtx) -> BaryMatrix:
    """The product of a chain given as runs, rounded to entries over 3^k below ctx's precision.

    Relabelling conjugates the reflections, M_(a+1) = P M_a P^-1, so the run
    (a, step, m) multiplies to P^(a-1) X^m P^(1-a-step m), with X^m from
    _screw_table at the reduced angle of m theta, and entry (i, j) of P^p A P^q is
    A[i-p][j+q].  m may have any number of digits.  The factors multiply on
    integers over 2^bits, bits binary places cut after each product, and the
    result is rounded once to a BaryMatrix over 3^k, 3^-k < 2^-bits, on
    which the metrics take the integer kernel of the exact products.
    """
    bits = dps_to_prec(ctx.workdps)
    N, dens, trig = None, 1, {}
    for a, step, m in runs:
        if m not in trig:
            delta, _ = _reduce_once(m, ctx)  # cos and sin need its absolute error only
            with ctx.work():
                c, s = mp.cos_sin(delta)
                trig[m] = int(mp.ldexp(c, bits)), int(mp.ldexp(s / mp.sqrt(5), bits))
        c, s = trig[m]
        den, E0, E1, Ec, Es = _screw_table(step)
        X = [((E0[n] + m * E1[n]) << bits) + c * Ec[n] + s * Es[n] for n in range(16)]
        p, q = a - 1, 1 - a - step * m
        T = [[X[(i - p) % 4 * 4 + (j + q) % 4] for j in range(4)] for i in range(4)]
        N = [[x >> bits for x in row] for row in mat_mul(N, T)] if N else T
        dens *= den
    k = bits * 631 // 1000 + 1  # log(2) / log(3) = 0.63093...
    one = 3**k
    rows = tuple(tuple((x * one // dens) >> bits for x in row) for row in N)
    return BaryMatrix(rows, k, exact=False)


class DivisibilityWitness(NamedTuple):
    is_permutation: bool
    row: int  # 1-based row of the witness entry
    col: int  # 1-based column (the last symbol of the string)
    numerator: int  # entry numerator over 3^len(s)
    power: int


def divisibility_witness(s: Sequence[int]) -> DivisibilityWitness:
    """Certify that the chain product of s is not a permutation matrix.

    The witness entry sits in column s[-1]; its row is 2 except for strings
    led by the symbol 2, where row 1 carries the non-divisible numerator
    instead.  Written over denominator 3^len(s), that numerator is never
    divisible by 3, which rules the product out of the permutation matrices
    (all of whose entries over 3^n are divisible by 3 when n >= 1).
    """
    K = chain_matrix(s)
    row = 2 if s[0] != 2 else 1
    col = s[-1]
    numerator = K.num[row - 1][col - 1]
    return DivisibilityWitness(
        is_permutation=K.is_permutation(),
        row=row,
        col=col,
        numerator=numerator,
        power=K.power,
    )
