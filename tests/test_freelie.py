import itertools as it
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonenv.freelie import (
    LieBasisElement,
    LieElement,
    TensorElement,
    _tensor_vector,
    bracket_basis,
    expand_to_tensor,
    is_lyndon,
    lie_bracket,
    lyndon_basis,
    lyndon_basis_of_length,
    rewrite_in_basis,
    tensor_filtration_basis,
    witt_number,
)
from poissonenv.linalg import Echelon


def words(basis_level):
    return sorted(b.word for b in basis_level)


def test_lyndon_basis_two_generators_degree_one():
    basis = lyndon_basis(2, 1)
    assert words(basis[0]) == [(1,), (2,)]
    assert words(basis[1]) == [(1, 2)]


def test_lyndon_basis_two_generators_degree_two():
    basis = lyndon_basis(2, 2)
    assert words(basis[2]) == [(1, 1, 2), (1, 2, 2)]


def test_lyndon_basis_single_generator():
    basis = lyndon_basis(1, 3)
    assert words(basis[0]) == [(1,)]
    assert basis[1] == [] and basis[2] == [] and basis[3] == []


def test_lyndon_counts_match_witt_and_brute_force():
    for n in (1, 2, 3):
        for length in range(1, 6):
            brute = [
                w for w in it.product(range(1, n + 1), repeat=length) if is_lyndon(w)
            ]
            level = lyndon_basis_of_length(n, length)
            assert sorted(b.word for b in level) == sorted(brute)
            assert len(level) == witt_number(n, length)


def test_witt_number_refuses_a_length_below_one():
    for length in (0, -1):
        with pytest.raises(ValueError, match=rf"^need word length >= 1, got {length}$"):
            witt_number(2, length)


def test_standard_bracketing():
    assert LieBasisElement.from_word((1, 1, 2)).bracketing == (1, (1, 2))
    assert LieBasisElement.from_word((1, 2, 2)).bracketing == ((1, 2), 2)


def lie(word):
    return LieElement.basis(LieBasisElement.from_word(word))


def test_bracket_antisymmetry_on_generator():
    x1 = lie((1,))
    assert lie_bracket(x1, x1).is_zero()


def test_bracket_of_generators_is_basis_element():
    assert lie_bracket(lie((1,)), lie((2,))) == lie((1, 2))


def test_left_bracket_gives_negative_112():
    b = lie_bracket(lie_bracket(lie((1,)), lie((2,))), lie((1,)))
    assert b == -1 * lie((1, 1, 2))


def test_expand_generator():
    assert expand_to_tensor(lie((1,))) == TensorElement.word((1,))


def test_expand_12():
    t = expand_to_tensor(lie((1, 2)))
    assert t == TensorElement.word((1, 2)) - TensorElement.word((2, 1))


def test_expand_112():
    t = expand_to_tensor(lie((1, 1, 2)))
    expected = (
        TensorElement.word((1, 1, 2))
        + TensorElement.word((1, 2, 1), -2)
        + TensorElement.word((2, 1, 1))
    )
    assert t == expected


def test_rewrite_of_commutator():
    t = TensorElement.word((1, 2)) - TensorElement.word((2, 1))
    assert rewrite_in_basis(t) == lie((1, 2))


def test_rewrite_symmetric_part_fails():
    t = TensorElement.word((1, 2)) + TensorElement.word((2, 1))
    assert rewrite_in_basis(t) is None


def test_rewrite_outside_an_empty_lyndon_basis_is_none():
    # one generator has no Lyndon word of length 2, so x1 x1 is not Lie
    assert lyndon_basis_of_length(1, 2) == []
    assert rewrite_in_basis(TensorElement.word((1, 1))) is None
    x1 = TensorElement.word((1,))
    assert rewrite_in_basis(TensorElement.word((1, 1, 1)) + x1) is None
    assert rewrite_in_basis(x1) == lie((1,))


def test_rewrite_inverts_expansion():
    t = (
        TensorElement.word((1, 1, 2))
        + TensorElement.word((1, 2, 1), -2)
        + TensorElement.word((2, 1, 1))
    )
    assert rewrite_in_basis(t) == lie((1, 1, 2))


@pytest.mark.parametrize(
    "terms, letter",
    [
        # x1x1x3 has the base-2 index of x1x2x1; read so, the sum would be (112)
        ({(1, 1, 2): 1, (1, 1, 3): -2, (2, 1, 1): 1}, 3),
        ({(1, 3): 1, (3, 1): -1}, 3),
        ({(0, 1): 1, (1, 0): -1}, 0),
    ],
)
def test_rewrite_refuses_a_letter_outside_the_generators(terms, letter):
    with pytest.raises(ValueError, match=rf"^letter {letter} outside 1\.\.2$"):
        rewrite_in_basis(TensorElement(terms), 2)


def test_round_trips():
    for length in range(1, 6):
        for b in lyndon_basis_of_length(2, length):
            el = LieElement.basis(b, Fraction(3, 7))
            assert rewrite_in_basis(expand_to_tensor(el)) == el


def test_jacobi_identity_random():
    rng = random.Random(3)
    pool = [b for l in (1, 2, 3) for b in lyndon_basis_of_length(2, l)]

    def rand_elt():
        out = LieElement.zero()
        for b in rng.sample(pool, 2):
            out = out + LieElement.basis(b, Fraction(rng.randint(-3, 3)))
        return out

    for _ in range(20):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        j = (
            lie_bracket(a, lie_bracket(b, c))
            + lie_bracket(b, lie_bracket(c, a))
            + lie_bracket(c, lie_bracket(a, b))
        )
        assert j.is_zero()


def _pairs_up_to(n_gens, max_total):
    pool = [b for l in range(1, max_total) for b in lyndon_basis_of_length(n_gens, l)]
    return [
        (a, b) for a in pool for b in pool if len(a.word) + len(b.word) <= max_total
    ]


def test_standard_factors_are_stored():
    for b in lyndon_basis_of_length(3, 5):
        assert b.left.word + b.right.word == b.word
        assert b.bracketing == (b.left.bracketing, b.right.bracketing)
    x2 = LieBasisElement.from_word((2,))
    assert x2.left is None and x2.right is None and x2.bracketing == 2


def test_bracket_basis_matches_tensor_solve():
    # the Lyndon recursion against the word-space solve, every ordered pair
    for a, b in _pairs_up_to(3, 6):
        ta, tb = expand_to_tensor(a), expand_to_tensor(b)
        assert bracket_basis(a, b) == rewrite_in_basis(ta * tb - tb * ta, 3)


def test_bracket_structure_constants_are_integers():
    for a, b in _pairs_up_to(3, 6):
        for c in bracket_basis(a, b).terms.values():
            assert c.denominator == 1


@st.composite
def _lie_elements(draw, count):
    """``count`` Lie elements of 1-3 terms over 2-3 generators, word length <= 3."""
    n_gens = draw(st.sampled_from((2, 3)))
    pool = [b for l in (1, 2, 3) for b in lyndon_basis_of_length(n_gens, l)]
    coeffs = st.sampled_from((Fraction(1), Fraction(-2), Fraction(3, 2)))
    out = []
    for _ in range(count):
        basis = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        out.append(LieElement({b: draw(coeffs) for b in basis}))
    return out


@settings(deadline=None, max_examples=40)
@given(_lie_elements(3))
def test_bracket_antisymmetry_and_jacobi_property(elts):
    a, b, c = elts
    assert lie_bracket(a, b) == -1 * lie_bracket(b, a)
    assert lie_bracket(a, a).is_zero()
    j = (
        lie_bracket(a, lie_bracket(b, c))
        + lie_bracket(b, lie_bracket(c, a))
        + lie_bracket(c, lie_bracket(a, b))
    )
    assert j.is_zero()


def test_bracket_star_degree_additive_plus_one():
    for la in (1, 2):
        for lb in (1, 2, 3):
            for a in lyndon_basis_of_length(2, la):
                for b in lyndon_basis_of_length(2, lb):
                    out = lie_bracket(LieElement.basis(a), LieElement.basis(b))
                    for c in out.terms:
                        assert c.star_degree == a.star_degree + b.star_degree + 1


def test_filtration_degree_zero_is_everything():
    assert len(tensor_filtration_basis(2, 2, 0)) == 4


def test_filtration_degree_one_length_two():
    basis = tensor_filtration_basis(2, 2, 1)
    assert len(basis) == 1
    t = TensorElement.word((1, 2)) - TensorElement.word((2, 1))
    ech = Echelon()
    ech.add(_tensor_vector(basis[0], 2))
    assert ech.contains(_tensor_vector(t, 2))


def test_filtration_degree_two_length_three():
    basis = tensor_filtration_basis(2, 3, 2)
    assert len(basis) == 2
    ech = Echelon()
    for t in basis:
        ech.add(_tensor_vector(t, 2))
    for word in ((1, 1, 2), (1, 2, 2)):
        exp = expand_to_tensor(lie(word))
        assert ech.contains(_tensor_vector(exp, 2))


def test_filtration_nesting_and_products():
    length = 4
    echs = []
    for n in range(length + 1):
        ech = Echelon()
        for t in tensor_filtration_basis(2, length, n):
            ech.add(_tensor_vector(t, 2))
        echs.append(ech)
    for n in range(length):
        for row in echs[n + 1].basis():
            assert echs[n].contains(row)
    # F_p . F_q <= F_{p+q} at small split lengths
    for p, lp in ((1, 2), (2, 3)):
        q, lq = 1, length - lp
        if lq < 1:
            continue
        target = Echelon()
        for t in tensor_filtration_basis(2, length, p + q):
            target.add(_tensor_vector(t, 2))
        for a in tensor_filtration_basis(2, lp, p):
            for b in tensor_filtration_basis(2, lq, q):
                assert target.contains(_tensor_vector(a * b, 2))


def test_pbw_dimension_count():
    # multisets of Lyndon elements with word lengths summing to l span 2^l
    pool = {
        l: lyndon_basis_of_length(2, l) for l in range(1, 7)
    }

    def count(l):
        def rec(remaining, min_key):
            if remaining == 0:
                return 1
            total = 0
            for ln in range(1, remaining + 1):
                for b in pool[ln]:
                    if b.sort_key >= min_key:
                        total += rec(remaining - ln, b.sort_key)
            return total

        return rec(l, (0, ()))

    for l in range(1, 7):
        assert count(l) == 2**l
