import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import valid_strings
from paper_checks import octahelix_literal_check
from tetrachain import strings
from tetrachain.strings import (
    MAX_SPELLED_LENGTH,
    check_spelled_length,
    format_string,
    is_valid,
    octahelix_runs,
    parse_string,
    preset_540_runs,
    quadrahelix_runs,
    spell,
    tetrahelix_runs,
)

QH4 = "123413412321431432"
QH10 = "123412341231234123412321432143213214321432"
OH4 = "123414321234121432123414321234121432"


def test_quadrahelix_fixtures():
    assert format_string(spell(quadrahelix_runs(4))) == QH4
    assert format_string(spell(quadrahelix_runs(10))) == QH10


@pytest.mark.parametrize(
    "runs, literal",
    [(quadrahelix_runs(4), QH4), (quadrahelix_runs(10), QH10), (octahelix_runs(4), OH4)],
    ids=["QH_4", "QH_10", "OH_4"],
)
def test_runs_spell_the_published_literals(runs, literal):
    assert format_string(spell(runs)) == literal


def test_named_chains_are_few_runs():
    assert len(quadrahelix_runs(1960)) == 4
    assert len(octahelix_runs(2499)) == 8


def test_tetrahelix_cycles():
    assert format_string(spell(tetrahelix_runs(7))) == "1234123"


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 10, 17, 40])
def test_quadrahelix_shape(L):
    s = spell(quadrahelix_runs(L))
    assert len(s) == 4 * L + 2
    assert is_valid(s)
    assert s[0] == 1
    # the middle joint letter depends on the parity of L
    assert s[2 * L + 1] == (3 if L % 2 == 0 else 1)
    # second half mirrors the first half
    assert s[1 : 2 * L + 1] == s[2 * L + 2 :][::-1]


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6, 36, 50])
def test_octahelix_shape(L):
    s = spell(octahelix_runs(L))
    assert len(s) == 8 * L + 4
    assert is_valid(s)


def test_octahelix_rejects_nonpositive():
    with pytest.raises(ValueError):
        octahelix_runs(0)


def test_octahelix_literal_discrepancy():
    # the circulated 44-letter variant is itself a valid string, but the
    # grammar (8L+4 = 36 letters for L=4) is what every numeric result uses
    info = octahelix_literal_check()
    assert info["grammar_length"] == 36
    assert info["literal_length"] == 44
    assert info["literal_valid"] is True
    assert info["match"] is False


def test_preset_540():
    s = spell(preset_540_runs())
    assert len(s) == 540
    assert is_valid(s)
    assert s[0] != s[-1]  # cyclically valid loop
    # three identical periods
    assert s[:180] == s[180:360] == s[360:]


@given(valid_strings(min_size=2, max_size=30))
def test_parse_format_roundtrip(s):
    assert parse_string(format_string(s)) == s


def test_parse_tolerates_spacing():
    # printed strings come grouped like "1 2341 3412"; spacing is cosmetic
    assert parse_string("1 2341 3412") == (1, 2, 3, 4, 1, 3, 4, 1, 2)


# Arabic-Indic, superscript and fullwidth digits are digits to int() but no letters
@pytest.mark.parametrize(
    "bad", ["", " ", "11", "15", "120", "12a3", "\u0661\u0662", "12\u00b2", "\uff11\uff12", "+12", "1.2"]
)
def test_parse_rejects_invalid(bad):
    with pytest.raises(ValueError, match=r"^invalid reflection string "):
        parse_string(bad)


def _valid_by_definition(s):
    return len(s) > 0 and all(x in (1, 2, 3, 4) for x in s) and all(
        s[k] != s[k + 1] for k in range(len(s) - 1)
    )


@given(
    st.one_of(valid_strings(1, 12).map(list), st.lists(st.integers(0, 5), max_size=12)),
    st.booleans(),
)
@example([], True)
@example([0], False)
@example([1, 5], True)
@example([1, 2, 2], False)
@example([4, 3, 4], True)
def test_is_valid_is_the_definition(s, as_tuple):
    s = tuple(s) if as_tuple else s
    assert is_valid(s) == _valid_by_definition(s)


def test_named_chains_refuse_to_spell_past_the_cap(monkeypatch):
    # refused from the run lengths alone, long before the letters would be allocated
    message = r"^QH_2500000 would spell 10000002 letters; the limit is 10000000$"
    with pytest.raises(ValueError, match=message):
        check_spelled_length("quadrahelix", 2_500_000, quadrahelix_runs(2_500_000))
    with pytest.raises(ValueError, match=r"^OH_1250000 would spell"):
        check_spelled_length("octahelix", 1_250_000, octahelix_runs(1_250_000))
    m = MAX_SPELLED_LENGTH + 1
    with pytest.raises(ValueError, match=r"^the tetrahelix would spell"):
        check_spelled_length("tetrahelix", m, tetrahelix_runs(m))
    # the cap is inclusive: a chain of exactly MAX_SPELLED_LENGTH letters passes
    monkeypatch.setattr(strings, "MAX_SPELLED_LENGTH", 42)
    for kind, named, passes in (
        ("quadrahelix", quadrahelix_runs, 10),
        ("octahelix", octahelix_runs, 4),
        ("tetrahelix", tetrahelix_runs, 42),
    ):
        check_spelled_length(kind, passes, named(passes))
        with pytest.raises(ValueError):
            check_spelled_length(kind, passes + 1, named(passes + 1))
