"""Reflection strings for tetrahedral chains.

A chain of face-to-face unit tetrahedra is encoded by a sequence over
{1,2,3,4}: symbol i reflects the current tetrahedron in its i-th face (the
face opposite vertex i).  Consecutive symbols are never equal ("no doubling
back").  This module generates the strings for the straight tetrahelix, the
four-legged quadrahelix QH_L, the eight-legged octahelix OH_L, and a fixed
540-step closed loop.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .precision import _decimal_digits

Symbol = int
String = tuple[Symbol, ...]


def is_valid(s: Sequence[int]) -> bool:
    """True iff s is nonempty, over {1,2,3,4}, with no two equal neighbors."""
    if len(s) == 0:
        return False
    if any(x not in (1, 2, 3, 4) for x in s):
        return False
    return all(a != b for a, b in zip(s, s[1:]))


def parse_string(text: str) -> String:
    """Parse a digit string like '12341' (whitespace ignored) into symbols."""
    s = tuple(int(ch) for ch in text if not ch.isspace())
    if not is_valid(s):
        raise ValueError(f"invalid reflection string {text!r}")
    return s


def format_string(s: Iterable[int]) -> str:
    return "".join(str(x) for x in s)


MAX_SPELLED_LENGTH = 10**7  # letters; a spelled chain costs about 90 bytes a letter


def _shown(n: int) -> str:
    """n in decimal, or its digit count where str() would refuse or flood a message."""
    return str(n) if n.bit_length() <= 256 else f"<{_decimal_digits(n)}-digit number>"


def _check_spelled_length(name: str, n: int, L: int | None = None) -> None:
    """Refuse to spell the named chain name_L of n letters, before allocating it."""
    if n > MAX_SPELLED_LENGTH:
        label = name if L is None else f"{name}_{_shown(L)}"
        raise ValueError(f"{label} would spell {_shown(n)} letters; the limit is {MAX_SPELLED_LENGTH}")


def tetrahelix_string(m: int, start: int = 1) -> String:
    """m symbols cycling start, start+1, ... with values wrapped into 1..4."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if start not in (1, 2, 3, 4):
        raise ValueError("start must be in 1..4")
    _check_spelled_length("the tetrahelix", m)
    return tuple((start - 1 + i) % 4 + 1 for i in range(m))


def _sigma(m: int) -> String:
    # S_{m+1} starting at 2 with the middle entry deleted; defined for even m.
    # S_{m+1} has odd length, so "middle" is position m//2 (0-based).
    if m % 2:
        raise ValueError("sigma is defined for even m only")
    s = list(tetrahelix_string(m + 1, start=2))
    del s[m // 2]
    return tuple(s)


def quadrahelix_string(L: int) -> String:
    """The 4L+2 symbol string of the four-legged near-loop QH_L."""
    if L < 1:
        raise ValueError("L must be >= 1")
    _check_spelled_length("QH", 4 * L + 2, L)
    sigma = _sigma(2 * L)
    j = 3 if L % 2 == 0 else 1
    out = (1,) + sigma + (j,) + sigma[::-1]
    assert len(out) == 4 * L + 2
    return out


def _relabel(s: Iterable[int]) -> String:
    # the face permutation 1->2, 2->3, 3->4, 4->1
    return tuple(x % 4 + 1 for x in s)


def octahelix_string(L: int) -> String:
    """The 8L+4 symbol string of the eight-legged near-loop OH_L.

    Built as the 8-part concatenation
    S_{L+1} rev(S_L) p(S_{L+1}) p(rev(S_L))  (twice)
    with S_m the m-term tetrahelix string starting at 1 and p the relabeling
    1->2->3->4->1.  The constructor rejects any L whose concatenation would
    double back at a part boundary.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    _check_spelled_length("OH", 8 * L + 4, L)
    s_up = tetrahelix_string(L + 1, start=1)
    s_down = tetrahelix_string(L, start=1)[::-1]
    part = s_up + s_down + _relabel(s_up) + _relabel(s_down)
    out = part + part
    if not is_valid(out):
        raise ValueError(f"octahelix grammar yields an invalid string for L={L}")
    assert len(out) == 8 * L + 4
    return out


_PRESET_B = (1, 2, 3, 4, 1, 2, 3, 4, 3, 4, 1, 3, 2, 3, 4, 1, 2, 1, 3, 4, 1, 2)


def preset_540_string() -> String:
    """A fixed 540-symbol loop: ((b 4 rev(b)) x4 with alternating relabelings) x3.

    b is a 22-symbol block; u = b + (4,) + rev(b) has 45 symbols; one period
    is u, p(u), u, p^3(u) for the relabeling p: 1->2->3->4->1; three periods
    give (2*22+1)*4*3 = 540 symbols.
    """
    u = _PRESET_B + (4,) + _PRESET_B[::-1]
    p1 = _relabel(u)
    p3 = _relabel(_relabel(p1))
    period = u + p1 + u + p3
    out = period * 3
    assert len(out) == 540 and is_valid(out)
    return out


def rotate(s: Sequence[int], i: int) -> String:
    """Cyclic left rotation by i (used to scan cut points of closed loops)."""
    i %= len(s)
    return tuple(s[i:]) + tuple(s[:i])
