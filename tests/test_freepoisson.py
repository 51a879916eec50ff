import itertools as it
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonenv import pbw
from poissonenv.exprparse import parse
from poissonenv.freelie import LieBasisElement, TensorElement, _tensor_vector
from poissonenv.freepoisson import (
    PoissonElement,
    bigraded_component,
    e_inverse,
    monomials_star_total,
    multiply,
    poisson_bracket,
    star_component,
    star_components,
    star_product,
    symmetrize,
)
from poissonenv.linalg import SpanSolver


def gen(i):
    return PoissonElement.generator(i)


def lie(word):
    from poissonenv.freelie import LieElement

    return PoissonElement.from_lie(LieElement.basis(LieBasisElement.from_word(word)))


def word(w, c=1):
    return TensorElement.word(w, c)


def test_multiply_generators():
    p = multiply(gen(1), gen(2))
    (m, c) = next(iter(p.terms.items()))
    assert c == 1 and [f.word for f in m.factors] == [(1,), (2,)]


def test_multiply_unit():
    a = gen(1) + lie((1, 2))
    assert multiply(PoissonElement.one(), a) == a


def test_multiply_distributes():
    a = gen(1) + lie((1, 2))
    assert multiply(a, gen(1)) == multiply(gen(1), gen(1)) + multiply(
        lie((1, 2)), gen(1)
    )


def test_multiply_commutative_bidegrees_add():
    a, b = multiply(gen(1), gen(2)), lie((1, 2))
    assert multiply(a, b) == multiply(b, a)
    for m in multiply(a, b).terms:
        assert m.sym_degree == 3 and m.star_degree == 1


def test_bracket_generators():
    assert poisson_bracket(gen(1), gen(2)) == lie((1, 2))


def test_bracket_leibniz_form():
    lhs = poisson_bracket(gen(1), multiply(gen(2), gen(3)))
    rhs = multiply(gen(2), lie((1, 3))) + multiply(gen(3), lie((1, 2)))
    assert lhs == rhs


def test_bracket_lie_element_with_generator():
    assert poisson_bracket(lie((1, 2)), gen(1)) == -1 * lie((1, 1, 2))


def test_symmetrize_two_letters():
    assert symmetrize(multiply(gen(1), gen(2))) == Fraction(1, 2) * (
        word((1, 2)) + word((2, 1))
    )


def test_symmetrize_square():
    assert symmetrize(multiply(gen(1), gen(1))) == word((1, 1))


def test_symmetrize_mixed_factor():
    got = symmetrize(multiply(gen(1), lie((1, 2))))
    assert got == Fraction(1, 2) * (word((1, 1, 2)) - word((2, 1, 1)))


def test_e_inverse_square():
    assert e_inverse(word((1, 1))) == multiply(gen(1), gen(1))


def test_e_inverse_lie_element():
    assert e_inverse(word((1, 2)) - word((2, 1))) == lie((1, 2))


def test_e_inverse_single_word():
    expected = multiply(gen(1), gen(2)) + Fraction(1, 2) * lie((1, 2))
    assert e_inverse(word((1, 2))) == expected


def _solver_oracle(length):
    monos = monomials_star_total(2, 0, length)
    for q in range(1, length + 1):
        monos += monomials_star_total(2, q, length)
    rows = [_tensor_vector(symmetrize(PoissonElement.monomial(m)), 2) for m in monos]
    return monos, SpanSolver(2**length, rows)


def test_e_inverse_against_solver_oracle():
    # independent route: solve the target against the symmetrized monomial
    # basis instead of the triangular normal-form recursion
    for length in (2, 3, 4):
        monos, solver = _solver_oracle(length)
        for w in it.product((1, 2), repeat=length):
            coeffs = solver.solve(_tensor_vector(word(w), 2))
            assert coeffs is not None
            expected = PoissonElement.zero()
            for c, m in zip(coeffs, monos):
                expected = expected + PoissonElement.monomial(m, c)
            assert e_inverse(word(w)) == expected


def test_star_product_generators():
    expected = multiply(gen(1), gen(2)) + Fraction(1, 2) * lie((1, 2))
    assert star_product(gen(1), gen(2)) == expected


def test_star_product_unit():
    a = multiply(gen(1), lie((1, 2))) + gen(2)
    assert star_product(PoissonElement.one(), a) == a


def test_star_product_reversed():
    expected = multiply(gen(1), gen(2)) - Fraction(1, 2) * lie((1, 2))
    assert star_product(gen(2), gen(1)) == expected


_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2))


@st.composite
def _star_pairs(draw):
    """Two 1-2-term elements in 2-3 generators, pair total degree <= 5."""
    n_gens = draw(st.sampled_from((2, 3)))
    ta = draw(st.integers(1, 4))
    tb = draw(st.integers(1, 5 - ta))

    def element(total):
        pool = [m for q in range(total) for m in monomials_star_total(n_gens, q, total)]
        monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True))
        out = PoissonElement.zero()
        for m in monos:
            out = out + PoissonElement.monomial(m, draw(st.sampled_from(_COEFFS)))
        return out

    return element(ta), element(tb)


@settings(deadline=None, max_examples=40)
@given(_star_pairs())
def test_star_product_matches_word_space_oracle(pair):
    # B is computed in PBW coordinates; the word-space e and e^-1 are the
    # independent reference
    a, b = pair
    assert star_product(a, b) == e_inverse(symmetrize(a) * symmetrize(b))


def test_e_inverse_pbw_inverts_sym_pbw():
    for total in range(5):
        for q in range(max(total, 1)):
            for m in monomials_star_total(3, q, total):
                assert pbw.e_inverse_pbw(pbw.sym_pbw(m.factors)) == {m.factors: 1}


def test_star_product_frozen_4x3():
    # frozen from the word-space implementation of the star product
    path = Path(__file__).parent / "data" / "star_x1x1x2x3_x1x2x3.txt"
    expected = parse(path.read_text(), 3)
    got = star_product(parse("x1*x2*x3*x1", 3), parse("x2*x3*x1", 3))
    assert len(got.terms) == 188
    assert got == expected


def test_star_component_zero_is_product():
    a = multiply(gen(1), gen(1))
    assert star_component(a, gen(2), 0) == multiply(a, gen(2))


def test_star_component_one_is_half_bracket():
    a = multiply(gen(1), gen(1))
    b = multiply(gen(2), gen(2))
    got = star_component(a, b, 1)
    assert got == Fraction(1, 2) * poisson_bracket(a, b)
    assert got == 2 * multiply(multiply(gen(1), gen(2)), lie((1, 2)))


def test_star_component_two_frozen_value():
    # sym-degree-2 part of e^{-1}(1122); the value was frozen from the
    # solver oracle of test_e_inverse_against_solver_oracle
    a = multiply(gen(1), gen(1))
    b = multiply(gen(2), gen(2))
    got = star_component(a, b, 2)
    expected = (
        Fraction(1, 3) * multiply(gen(1), lie((1, 2, 2)))
        + Fraction(1, 3) * multiply(gen(2), lie((1, 1, 2)))
        + Fraction(1, 2) * multiply(lie((1, 2)), lie((1, 2)))
    )
    assert got == expected
    full = e_inverse(word((1, 1, 2, 2)))
    assert got == full.sym_part(2)


def reference_star_component(a, b, p):
    """B_p as computed before ``star_components``: one star product per
    sym-degree pair, summed by Combination addition, for this p alone."""
    out = PoissonElement.zero()
    for pa in a.sym_degrees():
        for pb in b.sym_degrees():
            full = star_product(a.sym_part(pa), b.sym_part(pb))
            out = out + full.sym_part(pa + pb - p)
    return out


@settings(deadline=None, max_examples=40)
@given(_star_pairs())
def test_star_components_match_per_component_reference(pair):
    a, b = pair
    comps = star_components(a, b)
    top = max(a.sym_degrees()) + max(b.sym_degrees())
    assert sorted(comps) == list(range(top + 1))
    for p in range(top + 1):
        assert comps[p] == reference_star_component(a, b, p)
    assert star_component(a, b, top + 1).is_zero()
    for p in (-1, top + 1):
        assert reference_star_component(a, b, p).is_zero()
    # B_p of a negative p is a domain error, not a zero component
    with pytest.raises(ValueError, match=r"^need p >= 0, got -1$"):
        star_component(a, b, -1)
    total = PoissonElement.zero()
    for c in comps.values():
        total = total + c
    assert total == star_product(a, b)
    assert star_components(a, PoissonElement.zero()) == {}


def test_bigraded_component():
    x1 = gen(1)
    p = multiply(x1, lie((1, 2)))
    assert bigraded_component(p, 2, 1) == p
    assert bigraded_component(p, 1, 1).is_zero()
    b = star_product(gen(1), gen(2))
    assert bigraded_component(b, 2, 0) == multiply(gen(1), gen(2))
    assert bigraded_component(b, 1, 1) == Fraction(1, 2) * lie((1, 2))


def test_poisson_bracket_leibniz_and_jacobi_random():
    rng = random.Random(9)
    pool = monomials_star_total(2, 0, 1) + monomials_star_total(2, 0, 2)
    pool += monomials_star_total(2, 1, 2) + monomials_star_total(2, 1, 3)

    def rand_elt():
        out = PoissonElement.zero()
        for m in rng.sample(pool, 3):
            out = out + PoissonElement.monomial(m, Fraction(rng.randint(-3, 3)))
        return out

    for _ in range(20):
        a, b, c = rand_elt(), rand_elt(), rand_elt()
        assert poisson_bracket(a, multiply(b, c)) == multiply(
            b, poisson_bracket(a, c)
        ) + multiply(c, poisson_bracket(a, b))
        jac = (
            poisson_bracket(a, poisson_bracket(b, c))
            + poisson_bracket(b, poisson_bracket(c, a))
            + poisson_bracket(c, poisson_bracket(a, b))
        )
        assert jac.is_zero()


def test_bracket_star_degree_shift():
    a = multiply(gen(1), lie((1, 2)))
    b = lie((1, 1, 2))
    got = poisson_bracket(a, b)
    for m in got.terms:
        assert m.star_degree == 1 + 2 + 1


@st.composite
def _elements(draw, n_gens, total):
    """A random element of 1-3 terms of total letter count 1..``total``,
    not necessarily homogeneous in either grading."""
    pool = [
        m
        for t in range(1, total + 1)
        for q in range(t)
        for m in monomials_star_total(n_gens, q, t)
    ]
    monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    return PoissonElement({m: draw(st.sampled_from(_COEFFS)) for m in monos})


@st.composite
def _triples(draw):
    """Three random elements in 2-3 generators whose totals sum to at most
    5, so every pair total is at most 4."""
    n_gens = draw(st.sampled_from((2, 3)))
    ta = draw(st.integers(1, 3))
    tb = draw(st.integers(1, 4 - ta))
    tc = draw(st.integers(1, 5 - ta - tb))
    return tuple(draw(_elements(n_gens, t)) for t in (ta, tb, tc))


@settings(deadline=None, max_examples=40)
@given(_triples())
def test_star_product_is_associative_on_random_elements(triple):
    a, b, c = triple
    assert star_product(star_product(a, b), c) == star_product(a, star_product(b, c))


@st.composite
def _pairs(draw):
    """Two random elements in 2-3 generators, pair total at most 4."""
    n_gens = draw(st.sampled_from((2, 3)))
    ta = draw(st.integers(1, 3))
    return draw(_elements(n_gens, ta)), draw(_elements(n_gens, 4 - ta))


@settings(deadline=None, max_examples=40)
@given(_pairs())
def test_first_star_component_is_half_the_bracket_on_random_elements(pair):
    a, b = pair
    half = Fraction(1, 2) * poisson_bracket(a, b)
    assert star_component(a, b, 1) == half
    assert star_components(a, b)[1] == half


@settings(deadline=None, max_examples=40)
@given(_triples())
def test_poisson_bracket_is_a_derivation_on_random_elements(triple):
    # {a, bc} = {a, b}c + b{a, c}
    a, b, c = triple
    want = multiply(poisson_bracket(a, b), c) + multiply(b, poisson_bracket(a, c))
    assert poisson_bracket(a, multiply(b, c)) == want


@st.composite
def _tensors(draw):
    """A random tensor element of 1-3 words of length 0..4 in 2-3 letters."""
    n_gens = draw(st.sampled_from((2, 3)))
    words = st.lists(st.integers(1, n_gens), max_size=4).map(tuple)
    terms = draw(st.dictionaries(words, st.sampled_from(_COEFFS), min_size=1, max_size=3))
    return TensorElement(terms)


@settings(deadline=None, max_examples=40)
@given(_tensors())
def test_e_of_e_inverse_is_the_identity_on_random_tensors(t):
    assert symmetrize(e_inverse(t)) == t


@settings(deadline=None, max_examples=40)
@given(_pairs())
def test_star_component_is_the_piece_of_star_components(pair):
    # on elements homogeneous in neither grading, and past the top p
    a, b = pair
    comps = star_components(a, b)
    top = max(a.sym_degrees()) + max(b.sym_degrees())
    for p in range(top + 3):
        assert star_component(a, b, p) == comps.get(p, PoissonElement())
    zero = PoissonElement.zero()
    assert star_component(a, zero, 0).is_zero() and star_component(zero, b, 1).is_zero()
