"""Star-product references: the naive Bernoulli sum and the PBW peel.

For a Lie element x, left multiplication by x in U(g), read in symmetric
coordinates, is x * beta(e^y) = beta(phi(ad y)(x) e^y) with
phi(z) = z / (e^z - 1) (Berezin 1967; Gutt 1983).  Polarized, with B_k the
Bernoulli numbers and B_1 = -1/2:

    x * (l_1 ... l_n) = sum_k (B_k / k!) sum_{ordered distinct i_1..i_k}
                        [l_{i_1}, [... [l_{i_k}, x] ...]] * prod_{j not in I} l_j

A monomial m = f_1 ... f_k acts through e(m) = (1/k) sum_f mult_f f e(m/f),
so m * Q = (1/k) sum_f mult_f f * ((m/f) * Q).  ``star_product`` computes
this same formula, grouped by the multiset of picked factors and with
memoized nested brackets, so the naive sum here checks the grouping, the
memo and the Bernoulli weights, not the formula.

The independent paths are two.  The word-space identity
e(a * b) = e(a) e(b) (``tests/test_freepoisson.py``) and the PBW reference
below: k1! e(m1) times k2! e(m2) from ``pbw.sym_table``, straightened by
``pbw.normal_table`` and peeled back by ``pbw.e_inverse_pbw``, with the
e-tables cut and the straightening capped as in the capped pair table, and
the peel cut at the cap.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonenv import pbw
from poissonenv.freelie import LieElement, generator, lie_bracket
from poissonenv.freepoisson import (
    PoissonElement,
    PoissonMonomial,
    _bernoulli_weights,
    _star_monomials,
    monomials_up_to_total,
    star_component,
    star_product,
)
from poissonenv.linalg import merge


def _bernoulli(top):
    """B_0 .. B_top with B_1 = -1/2, from sum_{j <= k} C(k + 1, j) B_j = 0."""
    b = [Fraction(1)]
    for k in range(1, top + 1):
        b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
    return b


# a product of two monomials of total <= 3 has at most 6 factors
_WEIGHTS = [bk / factorial(k) for k, bk in enumerate(_bernoulli(6))]


def _lie_star(x, factors):
    """x * (l_1 ... l_n) for a Lie basis element x, as {monomial: coeff}."""
    n = len(factors)
    out = {}
    for k in range(n + 1):
        if not _WEIGHTS[k]:
            continue
        for picked in permutations(range(n), k):
            nested = LieElement.basis(x)
            for i in reversed(picked):
                nested = lie_bracket(LieElement.basis(factors[i]), nested)
            rest = tuple(factors[j] for j in range(n) if j not in picked)
            merge(
                out,
                ((PoissonMonomial.of((b,) + rest), c) for b, c in nested.terms.items()),
                _WEIGHTS[k],
            )
    return out


def _monomial_star(factors, poly):
    """m * P for the monomial with ``factors``, P as {monomial: coeff}."""
    if not factors:
        return poly
    out = {}
    for f, mult in Counter(factors).items():
        rest = list(factors)
        rest.remove(f)
        for m, c in _monomial_star(tuple(rest), poly).items():
            scale = Fraction(mult, len(factors)) * c
            merge(out, _lie_star(f, m.factors).items(), scale)
    return out


def _oracle_components(a, b):
    """p -> B_p(a, b): a term m of m1 * m2 is in B_p for p = sym m1 + sym m2 - sym m."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            s = m1.sym_degree + m2.sym_degree
            for m, c in _monomial_star(m1.factors, {m2: 1}).items():
                merge(out.setdefault(s - m.sym_degree, {}), [(m, c * c1 * c2)])
    return {p: PoissonElement(terms) for p, terms in out.items()}


_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2), Fraction(1, 3))


@st.composite
def _pairs(draw):
    """Two 1-2-term elements in 1-3 generators, each monomial of total <= 3."""
    pool = monomials_up_to_total(draw(st.integers(1, 3)), 3)

    def element():
        monos = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=2, unique=True)
        )
        return PoissonElement({m: draw(st.sampled_from(_COEFFS)) for m in monos})

    return element(), element()


def test_bernoulli_numbers():
    b = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
    assert _bernoulli(6) == b


@settings(deadline=None, max_examples=60)
@given(_pairs())
def test_star_product_matches_the_bernoulli_oracle(pair):
    a, b = pair
    want = sum(_oracle_components(a, b).values(), PoissonElement())
    assert star_product(a, b) == want


@settings(deadline=None, max_examples=60)
@given(_pairs())
def test_star_components_match_the_bernoulli_oracle(pair):
    a, b = pair
    want = _oracle_components(a, b)
    top = max(a.sym_degrees()) + max(b.sym_degrees())
    for p in range(top + 2):
        assert star_component(a, b, p) == want.get(p, PoissonElement())


def test_bernoulli_weights_match_sympy():
    sympy = pytest.importorskip("sympy")
    want = [Fraction(int(q.p), int(q.q)) / factorial(k)
            for k, q in enumerate(sympy.bernoulli(k) for k in range(31))]
    # sympy 1.12 and later give B_1 = +1/2; the product uses B_1 = -1/2
    want[1] = -abs(want[1])
    assert want[1] == Fraction(-1, 2)
    for n in range(31):
        den, weights = _bernoulli_weights(n)
        assert den == lcm(*[w.denominator for w in want[: n + 1]]), n
        assert all(type(w) is int for w in weights), n
        assert [Fraction(w, den) for w in weights] == want[: n + 1], n
        assert all((den * w).denominator == 1 for w in want[: n + 1])


def _star(factors):
    return sum(f.star_degree for f in factors)


def _pbw_star_table(m1, m2, cap=None):
    """The pair table of (m1, m2) in PBW coordinates, as {monomial: coeff}:
    k1! e(m1) and k2! e(m2) from ``sym_table``, cut to star <= cap - star m2
    and cap - star m1, the sum of c1 c2 ``normal_table(t1 + t2, cap)`` over
    their terms, and the full peel of that vector over k1! k2! with its terms
    past the cap dropped: e^{-1} never lowers the star degree, so the terms
    past the cap missing from the vector show only past the cap."""
    f1, f2 = m1.factors, m2.factors
    e1, e2 = pbw.sym_table(f1), pbw.sym_table(f2)
    if cap is not None:
        e1 = {t: c for t, c in e1.items() if _star(t) <= cap - m2.star_degree}
        e2 = {t: c for t, c in e2.items() if _star(t) <= cap - m1.star_degree}
    prod = {}
    for t1, c1 in e1.items():
        for t2, c2 in e2.items():
            merge(prod, pbw.normal_table(t1 + t2, cap).items(), c1 * c2)
    scale = factorial(len(f1)) * factorial(len(f2))
    vec = {t: Fraction(c, scale) for t, c in prod.items()}
    table = {PoissonMonomial.of(t): c for t, c in pbw.e_inverse_pbw(vec).items()}
    return {m: c for m, c in table.items() if cap is None or m.star_degree <= cap}


def _value(table):
    """The exact value {monomial: ints[monomial] / den} of a stored
    (ints, den) star table."""
    ints, den = table
    return {m: Fraction(c, den) for m, c in ints.items()}


def _check_against_pbw_reference(m1, m2):
    assert _value(_star_monomials(m1, m2)) == _pbw_star_table(m1, m2)
    top = m1.star_degree + m2.star_degree + m1.sym_degree + m2.sym_degree
    for cap in range(top + 1):
        assert _value(_star_monomials(m1, m2, cap)) == _pbw_star_table(m1, m2, cap), cap


_SMALL = {n: monomials_up_to_total(n, 5) for n in (1, 2, 3)}


@st.composite
def _monomial_pairs(draw):
    """Two monomials in 1-3 generators with total letter count <= 6."""
    pool = _SMALL[draw(st.integers(1, 3))]
    m1 = draw(st.sampled_from(pool))
    room = 6 - m1.total_degree
    m2 = draw(st.sampled_from([m for m in pool if m.total_degree <= room]))
    return m1, m2


@settings(deadline=None, max_examples=80)
@given(_monomial_pairs())
def test_pair_tables_match_the_pbw_reference(pair):
    _check_against_pbw_reference(*pair)


def test_cliff_pair_4x4_matches_the_pbw_reference():
    def word(letters):
        return PoissonMonomial.of(tuple(generator(i) for i in letters))

    _check_against_pbw_reference(word((1, 2, 3, 1)), word((2, 3, 1, 2)))
