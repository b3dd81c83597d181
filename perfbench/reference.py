"""Reference computations the output checks compare against.

Nothing here imports tetrachain.  The chain strings are rebuilt from their
definitions, chain products are exact integer products computed column by
column, and the turn angle, its continued fraction and the reduced angles
come from mpmath at a precision well above what the CLI prints.
"""

from __future__ import annotations

import functools

import numpy as np
from mpmath import mp, mpf

# --- reflection strings ---------------------------------------------------------

# Published strings of the four-legged near-loops QH_4 and QH_10.
PUBLISHED_QH = {
    4: "123413412321431432",
    10: "123412341231234123412321432143213214321432",
}

# The paper's lattice table: X = 10^(i/2) for i = 4..13, with the solution
# (x, y) of x*theta + 2*pi*y ~ gamma and the printed log10 of its error.  The
# search aims at gamma_plus; a solution found with x < 0 is mapped to x > 0
# against gamma_minus = 2*pi - theta - gamma_plus, so rows use either target.
LATTICE_ROWS = (
    (4, -1, "-1.80"),
    (686, -251, "-3.46"),
    (1274, -466, "-3.88"),
    (64708, -23692, "-5.48"),
    (666653, -244088, "-5.65"),
    (1870543, -684880, "-6.86"),
    (111021125, -40649248, "-7.79"),
    (233817317, -85609817, "-9.23"),
    (3113400370, -1139939675, "-9.71"),
    (434337601428, -159028266709, "-10.4"),
)


def tetrahelix(m: int, start: int = 1) -> tuple:
    return tuple((start - 1 + i) % 4 + 1 for i in range(m))


def relabel(s) -> tuple:
    """The face relabelling 1->2->3->4->1."""
    return tuple(x % 4 + 1 for x in s)


def quadrahelix(L: int) -> tuple:
    """QH_L: 1, sigma, j, reversed sigma; sigma is S_{2L+1} from 2 minus its middle."""
    sigma = list(tetrahelix(2 * L + 1, start=2))
    del sigma[L]
    j = 3 if L % 2 == 0 else 1
    return (1, *sigma, j, *reversed(sigma))


def octahelix(L: int) -> tuple:
    """OH_L: (S_{L+1} rev(S_L) p(S_{L+1}) p(rev(S_L))) twice."""
    up = tetrahelix(L + 1)
    down = tetrahelix(L)[::-1]
    part = up + down + relabel(up) + relabel(down)
    return part + part


_PRESET_BLOCK = (1, 2, 3, 4, 1, 2, 3, 4, 3, 4, 1, 3, 2, 3, 4, 1, 2, 1, 3, 4, 1, 2)


def preset540() -> tuple:
    """The 540-letter loop: (u, p(u), u, p^3(u)) three times, u = b 4 rev(b)."""
    u = _PRESET_BLOCK + (4,) + _PRESET_BLOCK[::-1]
    p1 = relabel(u)
    p3 = relabel(relabel(p1))
    return (u + p1 + u + p3) * 3


def text(s) -> str:
    return "".join(map(str, s))


# --- exact chain products ---------------------------------------------------------


def product(s) -> tuple[list[list[int]], int]:
    """M_{s[0]} ... M_{s[-1]} as (integer rows, power): entries are rows[i][j] / 3**power.

    Right-multiplying by M_i triples every column except column i, which
    becomes 2 * (sum of the other columns) - 3 * (column i).
    """
    cols = [[int(r == c) for r in range(4)] for c in range(4)]
    for sym in s:
        i = sym - 1
        total = [cols[0][r] + cols[1][r] + cols[2][r] + cols[3][r] for r in range(4)]
        for c in range(4):
            if c == i:
                cols[c] = [2 * total[r] - 5 * cols[c][r] for r in range(4)]
            else:
                cols[c] = [3 * x for x in cols[c]]
    return [[cols[c][r] for c in range(4)] for r in range(4)], len(s)


def lead(face: int, rows: list[list[int]], power: int) -> tuple[list[list[int]], int]:
    """M_face @ K: row `face` becomes -3 times itself, the others 3*row + 2*row_face."""
    i = face - 1
    out = [
        [-3 * x for x in rows[r]] if r == i else [3 * a + 2 * b for a, b in zip(rows[r], rows[i])]
        for r in range(4)
    ]
    return out, power + 1


def minus_identity(rows: list[list[int]], power: int) -> np.ndarray:
    """K - I in float64, each entry rounded once from its exact value."""
    d = 3**power
    return np.array(
        [[(rows[r][c] - (d if r == c else 0)) / d for c in range(4)] for r in range(4)]
    )


def norm2(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


@functools.lru_cache(maxsize=None)
def leading_norms(s: tuple) -> dict[int, tuple[float, float]]:
    """For each legal leading face r0 != s[1]: (||K - I||_2, max |K - I|) of r0 + s[1:]."""
    tail, power = product(s[1:])
    out = {}
    for r0 in (1, 2, 3, 4):
        if r0 == s[1]:
            continue
        d = minus_identity(*lead(r0, tail, power))
        out[r0] = (norm2(d), float(np.abs(d).max()))
    return out


def is_permutation(rows: list[list[int]], power: int) -> bool:
    one = 3**power
    return all(sorted(row) == [0, 0, 0, one] for row in rows) and sorted(
        row.index(one) for row in rows
    ) == [0, 1, 2, 3]


# --- the turn angle -----------------------------------------------------------------

DPS = 120  # reference precision, well above the 40 and 60 digits the CLI prints


def theta() -> mpf:
    """The helix turn angle arccos(-2/3) at the current mpmath precision."""
    return mp.acos(mpf(-2) / 3)


@functools.lru_cache(maxsize=None)
def convergents(count: int) -> tuple[tuple[int, int], ...]:
    """The first `count` continued-fraction convergents (k, q) of theta / (2 pi)."""
    with mp.workdps(DPS):
        x = theta() / (2 * mp.pi)
        out = []
        h0, h1, k0, k1 = 0, 1, 1, 0
        while len(out) < count:
            a = int(mp.floor(x))
            h0, h1 = h1, a * h1 + h0
            k0, k1 = k1, a * k1 + k0
            out.append((h1, k1))
            x = 1 / (x - a)
        return tuple(out)


@functools.lru_cache(maxsize=None)
def reduced_angle(mult: int) -> tuple[mpf, int]:
    """(mult * theta - 2 pi k, k) with k the nearest integer to mult * theta / (2 pi)."""
    with mp.workdps(DPS + len(str(mult))):
        t = mult * theta()
        k = int(mp.nint(t / (2 * mp.pi)))
        return +(t - 2 * mp.pi * k), k


def lattice_error(x: int, y: int) -> mpf:
    """min |x theta + 2 pi y - gamma| over the targets gamma = arccos((-3 +- 5 sqrt 3) / 12)."""
    with mp.workdps(DPS):
        return min(
            abs(x * theta() + 2 * mp.pi * y - mp.acos((-3 + sign * 5 * mp.sqrt(3)) / 12))
            for sign in (1, -1)
        )
