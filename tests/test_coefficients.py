"""Coefficients are converted once, where they enter the library.

A stored coefficient is an ``int`` exactly when its value is integral, and
otherwise a reduced ``Fraction``: never a Fraction with denominator 1, a
float or a bool.  Inside the library, results are built from stored
coefficients without a second check, so every public operation must hand
back coefficients that keep this invariant; an integral Fraction that
leaked through would print and compare the same but take the slow
arithmetic the int fast path avoids.  Floats are refused.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonenv.exprparse import (
    format_poisson,
    format_tensor,
    parse,
    poisson_from_json,
    poisson_to_json,
    tensor_from_json,
    tensor_to_json,
)
from poissonenv.freelie import LieElement, TensorElement, generator
from poissonenv.freepoisson import (
    PoissonElement,
    e_inverse,
    monomials_star_total,
    multiply,
    poisson_bracket,
    star_components,
    star_product,
    symmetrize,
)

_POOL = [
    m for total in range(1, 4) for q in range(total) for m in monomials_star_total(2, q, total)
]
# what a caller may pass: ints, Fractions and decimal strings
_COEFFS = (1, -2, 3, Fraction(1, 2), Fraction(-5, 3), Fraction(4), "2/3", "-1", "0.25")


@st.composite
def _elements(draw):
    monos = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3, unique=True))
    return PoissonElement({m: draw(st.sampled_from(_COEFFS)) for m in monos})


def _stored(c):
    """The stored-coefficient invariant: an int, or a reduced non-integral
    Fraction.  ``type`` is exact, so a bool, a float or a subclass fails."""
    if type(c) is int:
        return True
    return (
        type(c) is Fraction
        and c.denominator > 1
        and gcd(c.numerator, c.denominator) == 1
    )


def _exact(x):
    return all(_stored(c) for c in x.terms.values())


@settings(deadline=None, max_examples=40)
@given(_elements(), _elements(), st.sampled_from((2, -1, Fraction(3, 4), Fraction(1))))
def test_every_operation_stores_fractions(a, b, scalar):
    assert _exact(a) and _exact(b)
    results = [
        star_product(a, b),
        poisson_bracket(a, b),
        multiply(a, b),
        a + b,
        a - b,
        -a,
        scalar * a,
        a * scalar,
        e_inverse(symmetrize(a)),
        parse(format_poisson(a), 2),
        poisson_from_json(poisson_to_json(a)),
    ]
    results += star_components(a, b).values()
    t = symmetrize(b)
    results += [t, t * t, t - t, scalar * t]
    results += [parse(format_tensor(t), 2, mode="tensor"), tensor_from_json(tensor_to_json(t))]
    for r in results:
        assert _exact(r), r


@settings(deadline=None, max_examples=20)
@given(_elements(), _elements())
def test_every_stored_coefficient_is_an_int_or_a_rational(a, b):
    # poissonenv.Rational is the type of the non-integral coefficients only
    from poissonenv import Rational

    results = [a, b, star_product(a, b), poisson_bracket(a, b), e_inverse(symmetrize(a))]
    results += [symmetrize(a), PoissonElement.generator(1)]
    for r in results:
        assert all(type(c) in (int, Rational) for c in r.terms.values()), r
    t = TensorElement({(1,): 3, (2,): "1/2"})
    assert type(t.terms[(1,)]) is int and type(t.terms[(2,)]) is Rational
    assert not isinstance(PoissonElement.generator(1).terms.popitem()[1], Rational)


def test_integral_products_of_fractions_store_ints():
    x1 = PoissonElement.generator(1)
    got = multiply(-2 * x1, Fraction(1, 2) * x1)
    assert [(c, type(c)) for c in got.terms.values()] == [(-1, int)]
    half = Fraction(1, 2) * x1
    for r in (half + half, 2 * half, half * 2, star_product(half, 2 * x1)):
        assert all(type(c) is int for c in r.terms.values()), r


@settings(deadline=None, max_examples=40)
@given(_elements())
def test_json_with_int_coefficients_loads_fractions(a):
    data = poisson_to_json(a)
    for term in data["terms"]:
        q = Fraction(term["coeff"])
        if q.denominator == 1:
            term["coeff"] = q.numerator
    got = poisson_from_json(data)
    assert got == a and _exact(got)
    words = {"kind": "tensor", "terms": [{"coeff": 2, "word": [1]}, {"coeff": "1/2", "word": [2, 1]}]}
    t = tensor_from_json(words)
    assert _exact(t)
    assert [type(t.terms[w]) for w in ((1,), (2, 1))] == [int, Fraction]


def test_tables_of_every_layer_store_ints_or_fractions():
    from poissonenv import pbw
    from poissonenv.filtration import associated_graded, commutator_filtration
    from poissonenv.freelie import bracket_basis
    from poissonenv.quantize import quantized_window_algebra

    g1, g2 = generator(1), generator(2)
    b12 = next(iter(bracket_basis(g1, g2).terms))
    dicts = [
        bracket_basis(b12, g1).terms,
        pbw.normal((g2, g1, b12)),
        pbw.sym_pbw((g1, g2, b12)),
        pbw.sym_pbw((g1, g1)),
        pbw.e_inverse_word((2, 1, 2)),
        pbw.symmetrize_factors((g1, g1, g2)).terms,
    ]
    alg = quantized_window_algebra(2, 2, 4)
    chain = commutator_filtration(alg)
    graded = associated_graded(alg, chain)
    for a in (alg, graded):
        dicts += a.product.values()
        dicts += (a.bracket or {}).values()
    for ech in chain.pieces:
        dicts += ech.basis()
    for d in dicts:
        assert all(_stored(c) for c in d.values()), d


def _types(x):
    return {k: type(c) for k, c in x.terms.items()}


def test_ints_and_decimal_strings_enter_as_fractions():
    m = _POOL[0]
    assert PoissonElement.monomial(m, 3).terms == {m: 3}
    assert _types(PoissonElement.monomial(m, 3)) == {m: int}
    assert PoissonElement.monomial(m, "0.25").terms == {m: Fraction(1, 4)}
    assert PoissonElement.monomial(m, "-2/6").terms == {m: Fraction(-1, 3)}
    assert _types(PoissonElement.monomial(m, "-2/6")) == {m: Fraction}
    assert PoissonElement({m: "0"}).is_zero()
    t = TensorElement({(1,): 2, (): "3/4"})
    assert _exact(t) and _types(t) == {(1,): int, (): Fraction}
    b = generator(1)
    assert _types(2 * LieElement.basis(b)) == {b: int}
    # integral values of every other exact type enter as ints
    for c in (Fraction(4), "8/2", "-1", "2.0", True):
        assert _types(PoissonElement.monomial(m, c)) == {m: int}, c
        assert _types(c * LieElement.basis(b)) == {b: int}, c


@pytest.mark.parametrize(
    "make",
    [
        lambda: 0.1 * PoissonElement.generator(1),
        lambda: PoissonElement.generator(1) * 0.5,
        lambda: PoissonElement.monomial(_POOL[0], 0.5),
        lambda: PoissonElement.one(2.0),
        lambda: PoissonElement({_POOL[0]: 1j}),
        lambda: TensorElement.word((1, 2), 1.5),
        lambda: 0.5 * TensorElement.word((1,)),
        lambda: LieElement.basis(generator(1), 0.25),
        lambda: poisson_from_json(
            {"kind": "poisson", "terms": [{"coeff": 0.5, "factors": [{"word": [1]}]}]}
        ),
        lambda: tensor_from_json({"kind": "tensor", "terms": [{"coeff": 0.5, "word": [1]}]}),
    ],
)
def test_floats_are_refused(make):
    with pytest.raises(TypeError, match="inexact"):
        make()


@pytest.mark.parametrize(
    "make",
    [
        lambda: PoissonElement({_POOL[0]: "1/0"}),
        lambda: poisson_from_json(
            {"kind": "poisson", "terms": [{"coeff": "1/0", "factors": [{"word": [1]}]}]}
        ),
        lambda: tensor_from_json({"kind": "tensor", "terms": [{"coeff": "1/0", "word": [1]}]}),
    ],
    ids=["element", "poisson-json", "tensor-json"],
)
def test_a_zero_denominator_is_refused(make):
    with pytest.raises(ValueError, match=r"^coefficient '1/0' has a zero denominator$"):
        make()


def test_generators_carry_the_shared_unit():
    # PoissonElement.generator builds its term from linalg.ONE, unchecked
    from poissonenv.freepoisson import PoissonMonomial
    from poissonenv.linalg import ONE

    x2 = PoissonElement.generator(2)
    assert x2.terms == {PoissonMonomial.of((generator(2),)): Fraction(1)}
    assert all(c is ONE for c in x2.terms.values())
    assert x2 == PoissonElement({PoissonMonomial.of((generator(2),)): 1})
