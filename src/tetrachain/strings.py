"""Reflection strings for tetrahedral chains.

A chain of face-to-face unit tetrahedra is encoded by a sequence over
{1,2,3,4}: symbol i reflects the current tetrahedron in its i-th face (the
face opposite vertex i).  Consecutive symbols are never equal ("no doubling
back").  This module defines the straight tetrahelix, the four-legged
quadrahelix QH_L, the eight-legged octahelix OH_L and a fixed 540-step closed
loop as a few helical runs each; spell turns runs into letters.  The bounds
of the working precision live here too, checked before mpmath loads.
"""

from __future__ import annotations

from itertools import islice
from operator import ne
from typing import Iterable, Iterator, Sequence

Symbol = int
String = tuple[Symbol, ...]
_LETTERS, _DIGITS = frozenset((1, 2, 3, 4)), frozenset("1234")


def is_valid(s: Sequence[int]) -> bool:
    """True iff s is nonempty, over {1,2,3,4}, with no two equal neighbors."""
    return len(s) > 0 and _LETTERS.issuperset(s) and all(map(ne, s, islice(s, 1, None)))


def parse_string(text: str) -> String:
    """Parse a string of the ASCII digits 1-4 like '12341' (whitespace ignored) into symbols."""
    letters = "".join(text.split())
    s = tuple(map(int, letters)) if _DIGITS.issuperset(letters) else ()
    if not is_valid(s):
        raise ValueError(f"invalid reflection string {text!r}")
    return s


def format_string(s: Iterable[int]) -> str:
    return "".join(str(x) for x in s)


def _decimal_digits(n: int) -> int:
    """len(str(abs(n))) from bit_length, free of str's 4,300-digit limit."""
    # 0.3010299956 < log10(2): d is the count or one below it for n < 10^(10^9)
    d = max(1, (abs(n).bit_length() - 1) * 3010299956 // 10**10 + 1)
    return d + (abs(n) >= 10**d)


class PrecisionError(Exception):
    """Raised when a result cannot be trusted at the requested precision."""


# One working number at 10^7 digits takes about 4 MiB.  The ceiling sits above
# every precision the package uses (the run product's 5 extra digits per
# digit of a run, search-lll's doubled context, the continued fraction's
# 2*digits + GUARD) and above the ~2*10^6 digits a gap below 10^(-10^6) needs;
# past it an mpf would exhaust memory or overflow int-to-str.
MAX_DIGITS = 10**7


def check_digits(digits: int) -> None:
    """Refuse a working precision outside 30..MAX_DIGITS decimal digits."""
    if not 30 <= digits <= MAX_DIGITS:
        raise ValueError(f"digits must be in 30..{MAX_DIGITS}, got {digits}")


MAX_SPELLED_LENGTH = 10**7  # letters; a spelled chain costs about 90 bytes a letter


def _shown(n: int) -> str:
    """n in decimal, or its digit count where str() would refuse or flood a message."""
    return str(n) if n.bit_length() <= 256 else f"<{_decimal_digits(n)}-digit number>"


Run = tuple[int, int, int]  # (first letter, step +1 or -1, length)


def check_spelled_length(kind: str, L: int | None, runs: Sequence[Run]) -> None:
    """Refuse to spell the chain of kind and parameter L past MAX_SPELLED_LENGTH letters.

    The length is read from the runs, so nothing is allocated first.
    """
    n = sum(m for _, _, m in runs)
    if n > MAX_SPELLED_LENGTH:
        name = {"quadrahelix": "QH", "octahelix": "OH"}.get(kind)
        label = f"{name}_{_shown(L)}" if name else f"the {kind}"
        raise ValueError(f"{label} would spell {_shown(n)} letters; the limit is {MAX_SPELLED_LENGTH}")


def letters(runs: Sequence[Run]) -> Iterator[Symbol]:
    """The letters of a chain given as runs, one at a time: a, a + step, ... wrapped into 1..4."""
    return ((a - 1 + step * i) % 4 + 1 for a, step, m in runs for i in range(m))


def spell(runs: Sequence[Run]) -> String:
    """The letters of a chain given as runs."""
    return tuple(letters(runs))


def _reversed(runs: Sequence[Run]) -> tuple[Run, ...]:
    # a run read backwards starts at its last letter and steps the other way
    return tuple(((a - 1 + step * (m - 1)) % 4 + 1, -step, m) for a, step, m in runs[::-1])


def _relabeled(runs: Sequence[Run]) -> tuple[Run, ...]:
    # the face permutation 1->2, 2->3, 3->4, 4->1
    return tuple((a % 4 + 1, step, m) for a, step, m in runs)


def tetrahelix_runs(m: int) -> tuple[Run, ...]:
    """The tetrahelix of m letters: one run climbing from 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return ((1, 1, m),)


def quadrahelix_runs(L: int) -> tuple[Run, ...]:
    """The four runs of QH_L = 1 sigma j rev(sigma).

    sigma is S_{2L+1} from 2 with its middle letter deleted: the lead and
    sigma's first half climb L+1 letters from 1, sigma's second half and the
    joint j (3 for even L, 1 for odd) climb L+1 more, and rev(sigma)
    descends in two runs of L.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    return (
        (1, 1, L + 1),
        ((L + 2) % 4 + 1, 1, L + 1),
        ((2 * L + 1) % 4 + 1, -1, L),
        (L % 4 + 1, -1, L),
    )


def octahelix_runs(L: int) -> tuple[Run, ...]:
    """The eight runs of OH_L: S_{L+1} rev(S_L) p(S_{L+1}) p(rev(S_L)), twice.

    S_m is the m-term tetrahelix from 1 and p the relabeling 1->2->3->4->1.
    No two runs meet on one letter, so every L gives a valid string.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    up, down = (1, 1, L + 1), ((L - 1) % 4 + 1, -1, L)
    part = (up, down, *_relabeled((up, down)))
    return part + part


# each named family's runs, from its parameter
NAMED_CHAINS = {
    "tetrahelix": tetrahelix_runs,
    "quadrahelix": quadrahelix_runs,
    "octahelix": octahelix_runs,
}


# b = 1234123434132341213412 as runs
_PRESET_B = ((1, 1, 8), (3, 1, 3), (3, -1, 2), (3, 1, 4), (1, 1, 1), (3, 1, 4))


def preset_540_runs() -> tuple[Run, ...]:
    """The runs of a fixed 540-symbol loop: ((b 4 rev(b)) x4 with alternating relabelings) x3.

    b is a 22-symbol block; u = b + (4,) + rev(b) has 45 symbols; one period
    is u, p(u), u, p^3(u) for the relabeling p: 1->2->3->4->1; three periods
    give (2*22+1)*4*3 = 540 symbols.
    """
    u = _PRESET_B + ((4, 1, 1),) + _reversed(_PRESET_B)
    p1 = _relabeled(u)
    p3 = _relabeled(_relabeled(p1))
    return (u + p1 + u + p3) * 3
