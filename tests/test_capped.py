"""Capped straightening, pair tables and truncated product.

A cap drops every term of star degree above it.  Each capped result must be
the full result filtered to star degree <= cap, on every input and at every
cap: below everything (-1), 0, each cap up to the no-bite boundary
star + length - 1, where nothing is dropped and the full memo entry itself
comes back, and one past it.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonenv import pbw
from poissonenv.exprparse import parse
from poissonenv.freelie import lyndon_basis_of_length
from poissonenv.freepoisson import (
    PoissonElement,
    _star_monomials,
    monomials_up_to_total,
    star_product,
)
from poissonenv.quantize import QuantizedAlgebra, truncated_product

_FACTORS = {
    n: [b for length in range(1, 4) for b in lyndon_basis_of_length(n, length)]
    for n in (2, 3)
}
_MONOMIALS = {n: monomials_up_to_total(n, 4) for n in (2, 3)}


@st.composite
def _factor_tuples(draw):
    """0-4 Lyndon factors in 2 or 3 generators, at most 6 letters, in any
    order."""
    n = draw(st.sampled_from((2, 3)))
    factors = draw(st.lists(st.sampled_from(_FACTORS[n]), max_size=4))
    while sum(len(f.word) for f in factors) > 6:
        factors.pop()
    return tuple(factors)


def _caps(star, length):
    """-1, 0, every cap from ``star`` to the no-bite boundary, and one past."""
    return sorted({-1, 0, *range(star, star + max(length - 1, 0) + 2)})


def star_of(factors):
    return sum(f.star_degree for f in factors)


def _below(table, cap):
    return {t: c for t, c in table.items() if star_of(t) <= cap}


def _value(table):
    """The exact value {monomial: ints[monomial] / den} of a stored
    (ints, den) star table."""
    ints, den = table
    return {m: Fraction(c, den) for m, c in ints.items()}


def _no_bite(star, length, cap):
    return cap >= star + max(length - 1, 0)


@settings(deadline=None, max_examples=80)
@given(_factor_tuples())
@example((_FACTORS[2][1], _FACTORS[2][0]))
def test_capped_normal_table_is_the_full_table_below_the_cap(factors):
    star = star_of(factors)
    capped = {cap: pbw.normal_table(factors, cap) for cap in _caps(star, len(factors))}
    full = pbw.normal_table(factors)
    for cap, got in capped.items():
        assert got == _below(full, cap), cap
        if _no_bite(star, len(factors), cap):
            assert got is full
        elif got:
            assert pbw.normal_table(factors, cap) is got


_PAIRS = st.sampled_from((2, 3)).flatmap(
    lambda n: st.tuples(st.sampled_from(_MONOMIALS[n]), st.sampled_from(_MONOMIALS[n]))
)


@settings(deadline=None, max_examples=80)
@given(_PAIRS)
def test_capped_pair_table_is_the_full_table_below_the_cap(pair):
    m1, m2 = pair
    full = _star_monomials(m1, m2)
    star = m1.star_degree + m2.star_degree
    for cap in _caps(star, m1.sym_degree + m2.sym_degree):
        got = _star_monomials(m1, m2, cap)
        want = {m: c for m, c in _value(full).items() if m.star_degree <= cap}
        assert _value(got) == want, cap
        if _no_bite(star, m1.sym_degree + m2.sym_degree, cap):
            assert got is full


_COEFFS = st.integers(-6, 6).filter(bool)


def _terms(n):
    return st.lists(st.sampled_from(_MONOMIALS[n]), min_size=1, max_size=2, unique=True)


def _monomial(text):
    (m,) = parse(text, 3).terms
    return m


@settings(deadline=None, max_examples=40)
@given(
    st.sampled_from((2, 3)).flatmap(lambda n: st.tuples(st.just(n), _terms(n), _terms(n))),
    st.lists(_COEFFS, min_size=4, max_size=4),
)
@example(  # the denominators 2, 3 and 5, summed over their lcm
    (3, [_monomial("x1*x2"), _monomial("(12)")], [_monomial("x1*x2*x3"), _monomial("x3")]),
    [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 5), 1],
)
@example(  # at d = 1 the pair ((12), (13)) has no term left beside three that do
    (3, [_monomial("(12)"), _monomial("x1")], [_monomial("(13)"), _monomial("x2")]),
    [1, 2, -1, 3],
)
def test_truncated_product_is_the_star_product_below_d(case, coeffs):
    n, left, right = case
    a = PoissonElement(dict(zip(left, coeffs[:2])))
    b = PoissonElement(dict(zip(right, coeffs[2:])))
    full = star_product(a, b)
    low = max(a.max_star_degree(), b.max_star_degree())
    top = max((m.star_degree + m.sym_degree for m in left + right), default=0) * 2
    for d in range(low, top + 1):
        got = truncated_product(QuantizedAlgebra(n, d), a, b)
        assert got == full.star_truncate(d), d
