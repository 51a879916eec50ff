"""Coefficients are converted to Fraction once, where they enter the library.

Inside it, results are built from stored Fractions without a second check,
so every public operation must hand back coefficients that are exactly
``Fraction``; an int that leaked through would print and compare the same
but break the invariant the fast paths rely on.  Floats are refused.
"""

from fractions import Fraction

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


def _exact(x):
    return all(type(c) is Fraction for c in x.terms.values())


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
    assert _exact(tensor_from_json(words))


def test_ints_and_decimal_strings_enter_as_fractions():
    m = _POOL[0]
    assert PoissonElement.monomial(m, 3).terms == {m: Fraction(3)}
    assert PoissonElement.monomial(m, "0.25").terms == {m: Fraction(1, 4)}
    assert PoissonElement.monomial(m, "-2/6").terms == {m: Fraction(-1, 3)}
    assert PoissonElement({m: "0"}).is_zero()
    assert _exact(TensorElement({(1,): 2, (): "3/4"}))
    assert _exact(2 * LieElement.basis(generator(1)))


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


def test_generators_carry_the_shared_unit():
    # PoissonElement.generator builds its term from linalg.ONE, unchecked
    from poissonenv.freepoisson import PoissonMonomial
    from poissonenv.linalg import ONE

    x2 = PoissonElement.generator(2)
    assert x2.terms == {PoissonMonomial.of((generator(2),)): Fraction(1)}
    assert all(c is ONE for c in x2.terms.values())
    assert x2 == PoissonElement({PoissonMonomial.of((generator(2),)): 1})
