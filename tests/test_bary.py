import functools
import itertools
import operator
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import valid_strings
from reference_gap import letter_product
from tetrachain.bary import (
    FRAME,
    IDENTITY,
    MAX_EXACT_LENGTH,
    BaryMatrix,
    chain_matrix,
    det,
    reflection_matrix,
    divisibility_witness,
    helical_runs,
    lead_matrices,
    vertex_walk,
)
from tetrachain.geometry import realize_chain
from tetrachain.strings import (
    octahelix_runs,
    preset_540_runs,
    quadrahelix_runs,
    spell,
    tetrahelix_runs,
)


def _fractions(K):
    """The entries of K exactly: each numerator over 3**power."""
    return [[Fraction(x, 3**K.power) for x in row] for row in K.num]


def test_reflection_matrix_entries():
    M1 = _fractions(reflection_matrix(1))
    assert M1[0][0] == Fraction(-1, 1)
    assert M1[1][0] == Fraction(2, 3)
    assert M1[3][0] == Fraction(2, 3)
    assert M1[1][1] == 1
    assert M1[0][1] == 0


def test_reflection_is_involution():
    for i in (1, 2, 3, 4):
        M = reflection_matrix(i)
        assert (M @ M).is_permutation()
        sq = M @ M
        assert all(_fractions(sq)[a][b] == (a == b) for a in range(4) for b in range(4))
        assert sq == IDENTITY and sq.power == 0  # products come in lowest terms


def test_product_fixture_entries():
    # hand-checked entries of the two-letter product
    K = _fractions(chain_matrix((1, 2)))
    assert K[0][1] == Fraction(-2, 3)
    assert K[1][1] == Fraction(-5, 9)


def test_determinant_alternates():
    assert det(_fractions(chain_matrix((1, 2)))) == 1
    assert det(_fractions(chain_matrix((1, 2, 3)))) == -1
    assert det(_fractions(IDENTITY)) == 1


@given(valid_strings(max_size=14))
def test_chain_matrix_structure(s):
    K = chain_matrix(s)
    assert det(_fractions(K)) == (-1) ** len(s)
    sums = [sum(col) for col in zip(*_fractions(K))]
    assert all(x == 1 for x in sums)
    # denominator exponent never exceeds the word length
    assert 0 <= K.power <= len(s)


@given(valid_strings(max_size=30))
def test_chain_matrix_is_fold_of_reflections(s):
    # the prefix kernel against the plain 4x4 products it replaces
    assert chain_matrix(s) == functools.reduce(operator.matmul, map(reflection_matrix, s))


@given(valid_strings(max_size=10), valid_strings(max_size=10))
def test_product_is_concatenation(a, b):
    if a[-1] == b[0]:  # concatenation would repeat a letter; still a product
        ab = chain_matrix(a) @ chain_matrix(b)
        assert all(sum(col) == 1 for col in zip(*_fractions(ab)))
        # the repeated reflection cancels, and lowest terms make the equality exact
        head = chain_matrix(a[:-1]) if len(a) > 1 else IDENTITY
        rest = chain_matrix(b[1:]) if len(b) > 1 else IDENTITY
        assert ab == head @ rest
        return
    assert _fractions(chain_matrix(a) @ chain_matrix(b)) == _fractions(chain_matrix(a + b))


def test_never_identity_small():
    assert not chain_matrix((1, 2)).is_permutation()
    assert not chain_matrix((1, 2, 3, 4)).is_permutation()


def test_witness_row_selection():
    # the tested entry moves off row 2 when the string begins with 2
    w = divisibility_witness((2, 1))
    assert (w.row, w.col) == (1, 1)
    assert w.numerator == -5 and w.numerator % 3 == 1
    w2 = divisibility_witness((1, 2))
    assert w2.row == 2 and w2.col == 2
    assert w2.numerator % 3 != 0


def test_witness_fixed_row_would_fail():
    # the naive always-row-2 entry of the "21" product is -6/9: divisible by 3,
    # which is why the witness row is chosen per leading symbol
    K = chain_matrix((2, 1))
    assert _fractions(K)[1][0] == Fraction(-2, 3)  # -6/9 before reduction


@given(valid_strings(min_size=1, max_size=30))
def test_divisibility_witness_random(s):
    w = divisibility_witness(s)
    assert not w.is_permutation
    assert w.numerator % 3 != 0


@given(valid_strings(min_size=2, max_size=30))
def test_three_leading_matrices(s):
    K = chain_matrix(s)
    leads = lead_matrices(K, s[0], s[1])
    assert sorted(leads) == [r for r in (1, 2, 3, 4) if r != s[1]]
    for r, M in leads.items():
        expected = chain_matrix((r,) + s[1:])
        assert (M.num, M.power) == (expected.num, expected.power)


def test_exact_length_guard(ctx40):
    s = tuple((i % 2) + 1 for i in range(MAX_EXACT_LENGTH + 2))
    message = (
        f"string length {MAX_EXACT_LENGTH + 2} exceeds the exact-product limit "
        f"{MAX_EXACT_LENGTH}"
    )
    with pytest.raises(ValueError) as exc:
        chain_matrix(s)
    assert str(exc.value) == message
    # realization reads the same exact prefix products, so it stops at the same limit
    with pytest.raises(ValueError) as exc:
        realize_chain(s, ctx40)
    assert str(exc.value) == message


def test_length_refused_before_validation(ctx40):
    # an invalid string past the limit is refused for its length, before any
    # pass over its letters
    s = (1, 1) + tuple((i % 2) + 1 for i in range(MAX_EXACT_LENGTH - 1))
    message = (
        f"string length {MAX_EXACT_LENGTH + 1} exceeds the exact-product limit "
        f"{MAX_EXACT_LENGTH}"
    )
    refusers = (
        chain_matrix,
        lambda s: realize_chain(s, ctx40),
    )
    for refuse in refusers:
        with pytest.raises(ValueError) as exc:
            refuse(s)
        assert str(exc.value) == message


def test_to_mpf_matches_fractions(ctx40):
    K = chain_matrix((1, 2, 3, 4, 1, 3))
    M = K.to_mpf(ctx40)
    ent = _fractions(K)
    with ctx40.work():
        from mpmath import mpf

        err = max(
            abs(M[i][j] - mpf(ent[i][j].numerator) / ent[i][j].denominator)
            for i in range(4)
            for j in range(4)
        )
        assert err < mpf(10) ** -50


@st.composite
def helical_strings(draw):
    """Strings of 1-3 letters, or runs of 1-40 letters, each with its own step of 1, 2 or 3."""
    if draw(st.booleans()):
        return draw(valid_strings(min_size=1, max_size=3))
    out = [draw(st.integers(1, 4))]
    for _ in range(draw(st.integers(1, 12))):
        step = draw(st.integers(1, 3))
        for _ in range(draw(st.integers(1, 40))):
            out.append((out[-1] - 1 + step) % 4 + 1)
    return tuple(out)


@settings(max_examples=60)
@given(helical_strings())
@example(spell(quadrahelix_runs(1)))
@example(spell(quadrahelix_runs(4999)))
@example(spell(octahelix_runs(1)))
@example(spell(octahelix_runs(2499)))
@example(spell(tetrahelix_runs(1)))
@example(spell(tetrahelix_runs(400)))
@example(spell(preset_540_runs()))
def test_chain_matrix_is_the_letter_product(s):
    # long runs are powered; the oracle updates one column per letter
    K = chain_matrix(s)
    expected = letter_product(s)
    assert K.power == expected.power == len(s)
    assert K.num == expected.num


@given(valid_strings(min_size=1, max_size=60))
@example((1,))
@example((2, 1, 2, 1, 3, 4, 3, 2))
def test_chain_matrix_is_the_letter_product_on_any_string(s):
    # the short, mostly unhelical strings of criterion 02 go letter by letter
    K = chain_matrix(s)
    assert K.power == len(s)
    assert K.num == letter_product(s).num


@given(valid_strings(min_size=1, max_size=60))
@example(spell(tetrahelix_runs(60)))
def test_vertex_walk_from_frame_is_the_top_of_every_prefix_product(s):
    # the embedding's local frames and row four of chain_matrix rest on this
    for k, cols in enumerate(vertex_walk(s, FRAME), start=1):
        K = chain_matrix(s[:k])
        assert K.power == k
        assert cols == tuple(zip(*K.num[:3]))
    K = chain_matrix(s)
    assert all(sum(col) == 3**K.power for col in zip(*K.num))


@given(helical_strings(), st.integers(2, 40))
def test_helical_runs_are_the_maximal_one_step_runs(s, shortest):
    steps = [(b - a) % 4 for a, b in zip(s, s[1:])]
    expected, start = [], 0
    for _, group in itertools.groupby(steps):
        n = len(list(group))
        if n + 1 >= shortest:
            expected.append((start, start + n + 1))
        start += n
    assert list(helical_runs(s, shortest)) == expected
