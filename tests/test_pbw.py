"""The int symmetrization tables and the scaled e^{-1} peel.

``pbw.sym_table`` memoizes k! e(m) as ints, and ``pbw.e_inverse_pbw`` peels
an int vector over one common integer scale.  The reference below is the
Fraction implementation they replaced: the first-factor recursion with 1/k
weights and the peel that subtracts Fraction symmetrizations.  The int code
must give the same stored coefficients, in the same order, on every input.
e in the word basis is checked against its definition, the average of the
concatenations over all factor orders.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd, prod

from hypothesis import given, settings
from hypothesis import strategies as st

import poissonenv
from poissonenv import pbw
from poissonenv.freelie import (
    TensorElement,
    bracket_basis,
    expand_to_tensor,
    generator,
    lyndon_basis_of_length,
)
from poissonenv.freepoisson import (
    PoissonElement,
    PoissonMonomial,
    monomials_star_total,
    symmetrize,
)
from poissonenv.linalg import canonical, merge

_REFERENCE_SYM = {}


def reference_sym_pbw(factors):
    """e(m) by the Fraction recursion e(m) = (1/k) sum_f f e(m/f)."""
    factors = tuple(sorted(factors, key=lambda f: f.sort_key))
    hit = _REFERENCE_SYM.get(factors)
    if hit is None:
        k = len(factors)
        if k == 0:
            hit = {(): 1}
        else:
            hit = {}
            i = 0
            while i < k:
                f = factors[i]
                j = i
                while j < k and factors[j] == f:
                    j += 1
                weight = canonical(Fraction(j - i, k))
                rest = reference_sym_pbw(factors[:i] + factors[i + 1 :])
                for t, c in rest.items():
                    merge(hit, pbw.normal((f,) + t).items(), weight * c)
                i = j
        _REFERENCE_SYM[factors] = hit
    return dict(hit)


def reference_e_inverse_pbw(vec):
    """e^{-1} by the Fraction peel: take the top terms as they stand and
    subtract their Fraction symmetrizations."""
    current = dict(vec)
    result = {}
    while current:
        top_count = max(len(t) for t in current)
        top = {t: c for t, c in current.items() if len(t) == top_count}
        result.update(top)
        for t, c in top.items():
            merge(current, reference_sym_pbw(t).items(), -c)
        if any(len(t) >= top_count for t in current):
            raise RuntimeError("symmetrization is not unitriangular")
    return result


def _stored(c):
    if type(c) is int:
        return True
    return type(c) is Fraction and c.denominator > 1 and gcd(c.numerator, c.denominator) == 1


_FACTORS = [b for length in range(1, 4) for b in lyndon_basis_of_length(3, length)]


@st.composite
def _pbw_tuples(draw):
    """A nondecreasing tuple of 0-4 Lyndon factors, at most 5 letters."""
    factors = draw(st.lists(st.sampled_from(_FACTORS), max_size=4))
    factors = tuple(sorted(factors, key=lambda f: f.sort_key))
    while sum(len(f.word) for f in factors) > 5:
        factors = factors[:-1]
    return factors


_COEFFS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
).filter(bool)
_VECTORS = st.dictionaries(_pbw_tuples(), _COEFFS, max_size=5)


@settings(deadline=None, max_examples=60)
@given(_VECTORS)
def test_peel_matches_fraction_reference(vec):
    want = reference_e_inverse_pbw(vec)
    got = pbw.e_inverse_pbw(vec)
    assert got == want
    assert list(got.items()) == list(want.items())
    assert all(_stored(c) for c in got.values())


@settings(deadline=None, max_examples=40)
@given(st.dictionaries(_pbw_tuples(), st.integers(-50, 50).filter(bool), max_size=5),
       st.integers(1, 720))
def test_scaled_peel_matches_fraction_reference(vec, scale):
    scaled = {t: canonical(Fraction(c, scale)) for t, c in vec.items()}
    want = reference_e_inverse_pbw(scaled)
    got = pbw.e_inverse_pbw(scaled)
    assert got == want
    assert all(_stored(c) for c in got.values())


def test_int_table_is_k_factorial_times_sym_pbw():
    count = 0
    for total in range(6):
        for q in range(max(total, 1)):
            for m in monomials_star_total(3, q, total):
                k = factorial(len(m.factors))
                table = pbw.sym_table(m.factors)
                assert all(type(c) is int for c in table.values()), m
                e = pbw.sym_pbw(m.factors)
                assert table == {t: k * c for t, c in e.items()}, m
                assert e == reference_sym_pbw(m.factors), m
                assert all(_stored(c) for c in e.values()), m
                count += 1
    assert count > 300


def reference_sym_word(factors):
    """e(l_1 ... l_k) in the word basis as the average of the concatenations
    over every distinct factor order, each standing for prod(mult_f!) of the
    k! orders."""
    weight = Fraction(prod(map(factorial, Counter(factors).values())), factorial(len(factors)))
    out = {}
    for perm in sorted(set(permutations(factors))):
        concat = TensorElement.one()
        for f in perm:
            concat = concat * expand_to_tensor(f)
        merge(out, concat.terms.items(), weight)
    return out


# a small pool, so that drawn tuples often repeat a factor
_WORD_FACTORS = [b for length in range(1, 3) for b in lyndon_basis_of_length(2, length)] + [
    lyndon_basis_of_length(3, 3)[0]
]


@settings(deadline=None, max_examples=80)
@given(st.lists(st.sampled_from(_WORD_FACTORS), max_size=5))
def test_word_space_e_is_the_average_over_factor_orders(factors):
    want = reference_sym_word(tuple(factors))
    got = pbw.symmetrize_factors(factors).terms
    assert got == want
    assert all(_stored(c) for c in got.values())
    ordered = tuple(sorted(factors, key=lambda f: f.sort_key))
    assert pbw.sym_word_table(ordered) == want


def test_word_space_e_of_a_long_monomial():
    # 14 factors: the recursion visits 2 * 14 sub-multisets, not 14! orders
    g1, g2 = generator(1), generator(2)
    e = symmetrize(PoissonElement.monomial(PoissonMonomial.of((g1,) * 13 + (g2,))))
    assert e.terms == {(1,) * a + (2,) + (1,) * (13 - a): Fraction(1, 14) for a in range(14)}


def test_returned_dicts_are_fresh_copies():
    # the memo tables behind these calls must not see a caller's edits
    g1, g2 = generator(1), generator(2)
    b12 = next(iter(bracket_basis(g1, g2).terms))
    calls = (
        lambda: pbw.normal((g2, g1, b12)),
        lambda: pbw.sym_pbw((b12, g2, g1)),
        lambda: pbw.e_inverse_word((2, 1, 2)),
    )
    for call in calls:
        first = call()
        want = dict(first)
        key = next(iter(first))
        first[key] = 99
        first[("stray",)] = 7
        assert call() == want
        call().clear()
        assert call() == want
    table = pbw.sym_table((g1, g2, b12))
    assert pbw.sym_pbw((g1, g2, b12)) == {t: Fraction(c, 6) for t, c in table.items()}


def test_clear_caches_empties_the_sym_table():
    g1, g2 = generator(1), generator(2)
    pbw.sym_pbw((g1, g2, g2))
    assert pbw._SYM_PBW_CACHE
    poissonenv.clear_caches()
    assert not pbw._SYM_PBW_CACHE
    assert pbw.sym_pbw((g2, g1, g2)) == reference_sym_pbw((g1, g2, g2))


def test_word_space_e_is_cache_safe():
    # e in the word basis is memoized read-only: a caller's edits to what
    # symmetrize or symmetrize_factors returns never reach the next call
    g1, g2 = generator(1), generator(2)
    b12 = next(iter(bracket_basis(g1, g2).terms))
    factors = (g1, g2, b12)
    m = PoissonMonomial.of(factors)
    calls = (
        lambda: pbw.symmetrize_factors(factors).terms,
        lambda: pbw.symmetrize_factors([b12, g1, g2]).terms,
        lambda: symmetrize(PoissonElement.monomial(m)).terms,
        lambda: symmetrize(PoissonElement.monomial(m, 3)).terms,
    )
    for call in calls:
        first = call()
        want = dict(first)
        key = next(iter(first))
        first[key] = 99
        first[("stray",)] = 7
        assert call() == want
        call().clear()
        assert call() == want
    assert pbw._SYM_WORD_CACHE
    poissonenv.clear_caches()
    assert not pbw._SYM_WORD_CACHE
    assert symmetrize(PoissonElement.monomial(m, 3)) == 3 * pbw.symmetrize_factors(factors)
    assert pbw.symmetrize_factors(()).terms == {(): 1}
