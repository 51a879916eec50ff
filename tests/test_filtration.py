import io
import json
import re
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poissonenv.filtration import (
    EndoMap,
    FiltrationChain,
    FiniteAlgebra,
    TruncatedAlgebra,
    _chain,
    _least_asymmetric,
    associated_graded,
    commutator_filtration,
    endo_contraction_check,
    exp_nilpotent_endo,
    hamiltonian_derivation,
    inner_derivation,
    nil_poisson_filtration,
)
from poissonenv.envelope import EnvelopePresentation
from poissonenv.freepoisson import (
    PoissonElement,
    monomials_star_maxpoly,
    monomials_star_total,
)
from poissonenv.linalg import Echelon, canonical, merge
from poissonenv.quantize import (
    UWindow,
    envelope_window_algebra,
    poisson_window_algebra,
    quantized_window_algebra,
)


def truncated_polynomial_algebra(n):
    """k[x]/(x^n) with basis 1, x, ..., x^{n-1}."""
    product = {}
    for i in range(n):
        for j in range(n):
            if i + j < n:
                product[(i, j)] = {i + j: Fraction(1)}
    return TruncatedAlgebra(n, [f"x^{i}" for i in range(n)], 0, product)


def borel_algebra():
    """Span{1, e11, e12} inside 2x2 upper-triangular matrices."""
    product = {}

    def put(i, j, vals):
        if vals:
            product[(i, j)] = {k: Fraction(c) for k, c in vals.items()}

    # basis: b0 = identity, b1 = e11, b2 = e12
    put(0, 0, {0: 1})
    put(0, 1, {1: 1})
    put(0, 2, {2: 1})
    put(1, 0, {1: 1})
    put(2, 0, {2: 1})
    put(1, 1, {1: 1})
    put(1, 2, {2: 1})
    put(2, 1, {})
    put(2, 2, {})
    return TruncatedAlgebra(3, ["1", "e11", "e12"], 0, product)


def test_commutative_algebra_has_trivial_filtration():
    chain = commutator_filtration(truncated_polynomial_algebra(3))
    assert chain.ranks() == [3, 0]
    assert chain.stable_is_zero
    assert chain.rank(1) == 0 and chain.rank(5) == 0


def test_borel_algebra_stabilizes_nonzero():
    chain = commutator_filtration(borel_algebra())
    assert chain.ranks()[0] == 3
    assert chain.rank(1) == 1 and chain.rank(2) == 1
    assert not chain.stable_is_zero
    # the stable piece is spanned by e12
    basis = chain[1].basis()
    assert len(basis) == 1 and set(basis[0]) == {2}


def test_upper_triangular_matrices_stabilize_at_the_strictly_upper_part():
    # 3x3 upper-triangular matrices: 1, e00, e11 (e22 = 1 - e00 - e11) and
    # the strictly upper e01, e02, e12; ungraded, so closed top-down
    alg = incidence_algebra({(0, 1), (0, 2), (1, 2)}, [0, 1])
    assert alg.degrees is None
    chain = commutator_filtration(alg)
    assert chain.ranks() == [6, 3]
    assert not chain.stable_is_zero
    strict = [alg.labels.index(f"e{x}{y}") for x, y in [(0, 1), (0, 2), (1, 2)]]
    assert chain[1].basis() == [{i: 1} for i in sorted(strict)]


def test_chain_past_its_end_is_the_stable_piece():
    # the Borel chain stops at a nonzero piece, so padding past the end with
    # anything but that piece shows up here
    chain = commutator_filtration(borel_algebra())
    assert chain.length == 2
    assert chain[5] is chain.pieces[-1]
    assert chain.rank(5) == 1
    assert chain[5].basis() == [{2: Fraction(1)}]
    # so chain[n] never runs out, and iterating by index would never stop
    with pytest.raises(TypeError):
        iter(chain)


@pytest.mark.parametrize("n", [-1, -2, -3])
def test_chain_refuses_a_negative_level(n):
    # a plain list index would answer a negative level with a piece from
    # the end of the chain
    chain = commutator_filtration(borel_algebra())
    with pytest.raises(IndexError, match=f"^filtration level {n} is negative$"):
        chain.rank(n)


def test_quantized_window_matches_star_degree_tail():
    d, cap = 2, 4
    alg = quantized_window_algebra(2, d, cap)
    chain = commutator_filtration(alg)
    assert chain.stable_is_zero
    for n in range(d + 2):
        expected = sum(
            len(monomials_star_total(2, q, t))
            for q in range(n, d + 1)
            for t in range(cap + 1)
        )
        assert chain.rank(n) == expected


def test_nil_poisson_trivial_bracket():
    alg = truncated_polynomial_algebra(3)
    with_bracket = TruncatedAlgebra(
        alg.dim, alg.labels, alg.unit, alg.product, bracket={}
    )
    chain = nil_poisson_filtration(with_bracket)
    assert chain.ranks() == [3, 0]
    assert chain.stable_is_zero


def test_nil_poisson_free_window_is_star_tail():
    d, cap = 2, 4
    alg = poisson_window_algebra(2, d, cap)
    chain = nil_poisson_filtration(alg)
    assert chain.stable_is_zero
    for n in range(d + 2):
        expected = sum(
            len(monomials_star_total(2, q, t))
            for q in range(n, d + 1)
            for t in range(cap + 1)
        )
        assert chain.rank(n) == expected


def test_nil_poisson_presented_algebra_descends():
    from poissonenv.envelope import EnvelopePresentation
    from poissonenv.freepoisson import PoissonElement, multiply
    from poissonenv.quantize import envelope_window_algebra

    x1 = PoissonElement.generator(1)
    pres = EnvelopePresentation(2, (multiply(x1, x1),), 1, 3)
    alg = envelope_window_algebra(pres, 3)
    chain = nil_poisson_filtration(alg)
    ranks = chain.ranks()
    assert all(a >= b for a, b in zip(ranks, ranks[1:]))
    assert chain.stable_is_zero


def test_ideal_closure_is_two_sided():
    # in Span{1, e11, e12}, e11 needs a right product (e11 e12 = e12) and
    # e22 = 1 - e11 a left one (e12 e22 = e12) to reach its ideal
    alg = borel_algebra()
    one = Fraction(1)
    for seed in ({1: one}, {0: one, 1: -one}):
        ideal = alg.ideal_close([seed])
        assert ideal.rank == 2
        assert ideal.contains(seed) and ideal.contains({2: one})


def reference_filtration(alg, pair_map):
    """The literal recursion, as a list of Echelons F_0 .. F_stable:
    F_{n+1} = sum_{p=1}^{n} F_p F_{n+1-p} + sum_{p=0}^{n} <[F_p, F_{n-p}]>,
    each summand closed to a two-sided ideal on its own, under products by
    every basis vector, before the pieces are added up."""
    basis = [alg.basis_vec(i) for i in range(alg.dim)]

    def ideal(gens):
        ech = Echelon()
        queue = list(gens)
        while queue:
            v = queue.pop()
            if v and ech.add(v):
                for b in basis:
                    queue += [alg.mul(b, v), alg.mul(v, b)]
        return ech

    full = Echelon()
    for b in basis:
        full.add(b)
    chain = [full]
    while True:
        n = len(chain) - 1
        new = Echelon()
        for p in range(1, n + 1):
            for v in chain[p].basis():
                for w in chain[n + 1 - p].basis():
                    new.add(alg.mul(v, w))
        for p in range(n + 1):
            gens = [pair_map(v, w) for v in chain[p].basis() for w in chain[n - p].basis()]
            for row in ideal(gens).basis():
                new.add(row)
        if new.rank == chain[-1].rank:
            return chain
        chain.append(new)
        if new.rank == 0:
            return chain


def _quadric_envelope_algebra():
    from poissonenv.envelope import EnvelopePresentation
    from poissonenv.freepoisson import PoissonElement, multiply

    x1 = PoissonElement.generator(1)
    x2 = PoissonElement.generator(2)
    pres = EnvelopePresentation(2, (multiply(x1, x2),), 1, 3)
    return envelope_window_algebra(pres, 3)


def incidence_algebra(less, diagonal):
    """Span{1} + span{e_xy : (x, y) in less} + span{e_xx : x in diagonal}:
    the strict part of a poset's incidence algebra (``less`` is its strict
    order, transitively closed) with the idempotents of ``diagonal`` and a
    unit 1 adjoined; e_xy e_zw = e_xw when y = z, and 0 otherwise."""
    cells = [(x, x) for x in diagonal] + sorted(less)
    index = {cell: i for i, cell in enumerate(cells, 1)}
    product = {}
    for i in range(len(cells) + 1):
        product[(0, i)] = product[(i, 0)] = {i: 1}
    for (x, y), i in index.items():
        for (z, w), j in index.items():
            if y == z:
                product[(i, j)] = {index[(x, w)]: 1}
    labels = ["1"] + [f"e{x}{y}" for x, y in cells]
    return TruncatedAlgebra(len(labels), labels, 0, product)


REFERENCE_CASES = {
    "borel": (borel_algebra, False),
    # the diamond 0 < 1, 2 < 3 with the idempotents at its ends
    "incidence-diamond": (
        lambda: incidence_algebra({(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)}, [0, 3]),
        False,
    ),
    "k[x]/(x^3)": (lambda: truncated_polynomial_algebra(3), False),
    "quantized-2-2-4": (lambda: quantized_window_algebra(2, 2, 4), False),
    "poisson-2-1-3": (lambda: poisson_window_algebra(2, 1, 3), False),
    "poisson-2-1-3-nil": (lambda: poisson_window_algebra(2, 1, 3), True),
    "envelope-x1x2-nil": (_quadric_envelope_algebra, True),
    "window-2-2-5": (lambda: UWindow(2, 2, 5), False),
    "window-3-1-4": (lambda: UWindow(3, 1, 4), False),
    # deep chains: F_4 != 0, so products G_p G_q with p, q >= 2 are nonzero
    "window-2-4-6": (lambda: UWindow(2, 4, 6), False),
    "poisson-2-4-6-nil": (lambda: poisson_window_algebra(2, 4, 6), True),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_filtration_matches_literal_recursion(case):
    build, nil_poisson = REFERENCE_CASES[case]
    alg = build()
    if nil_poisson:
        chain, ref = nil_poisson_filtration(alg), reference_filtration(alg, alg.brk)
    else:
        chain, ref = commutator_filtration(alg), reference_filtration(alg, alg.commutator)
    assert chain.stable_is_zero == (ref[-1].rank == 0)
    assert_same_spans(chain, ref)


def assert_same_spans(chain, ref):
    """``chain`` and the list of Echelons ``ref`` have the same length and,
    piece by piece, the same span: equal rank and mutual containment."""
    assert chain.length == len(ref)
    for n, want in enumerate(ref):
        got = chain[n]
        assert got.rank == want.rank
        assert all(got.contains(row) for row in want.basis())
        assert all(want.contains(row) for row in got.basis())


def test_filtration_requires_bracket():
    with pytest.raises(ValueError):
        nil_poisson_filtration(truncated_polynomial_algebra(2))


def test_nil_poisson_filtration_refuses_a_noncommutative_product():
    # the commutator is a bracket that passes every table check, but the
    # seeds of the nil-Poisson chain need the product to commute
    alg = borel_algebra()
    basis = [alg.basis_vec(i) for i in range(alg.dim)]
    bracket = {}
    for i, v in enumerate(basis):
        for j, w in enumerate(basis):
            row = alg.commutator(v, w)
            if row:
                bracket[(i, j)] = row
    poisson = TruncatedAlgebra(alg.dim, alg.labels, alg.unit, alg.product, bracket)
    message = r"commutative product; e_i e_j != e_j e_i at \(1, 2\)$"
    with pytest.raises(ValueError, match=message):
        nil_poisson_filtration(poisson)


def test_nil_poisson_refusal_names_the_least_pair_not_the_first_key():
    # z x = w, y z = w and x y = w on 1, x, y, z, w, listed in that order:
    # every triple product is 0, so the product is associative, and the
    # least of the failing pairs (1, 3), (2, 3) and (1, 2) comes last
    product = {(3, 1): {4: 1}, (2, 3): {4: 1}, (1, 2): {4: 1}, **_square_zero(4)}
    alg = TruncatedAlgebra(5, ["1", "x", "y", "z", "w"], 0, product, {})
    message = r"commutative product; e_i e_j != e_j e_i at \(1, 2\)$"
    with pytest.raises(ValueError, match=message):
        nil_poisson_filtration(alg)


def test_a_failing_pair_whose_only_key_is_its_swap_is_named_i_before_j():
    # only (2, 1) is a key, so the scan must name its swap (1, 2)
    for sign in (-1, 1):
        assert _least_asymmetric({(2, 1): {0: 1}}, sign) == (1, 2)
    # {y, x} = x with no {x, y}
    with pytest.raises(ValueError) as exc:
        TruncatedAlgebra(3, ["1", "x", "y"], 0, _square_zero(2), {(2, 1): {1: 1}})
    assert str(exc.value) == "bracket not antisymmetric at (1, 2)"
    # y x = w with no x y
    product = {(2, 1): {3: 1}, **_square_zero(3)}
    alg = TruncatedAlgebra(4, ["1", "x", "y", "w"], 0, product, {})
    message = r"commutative product; e_i e_j != e_j e_i at \(1, 2\)$"
    with pytest.raises(ValueError, match=message):
        nil_poisson_filtration(alg)


def _old_antisymmetry_pair(B):
    """The key scan of ``_validate`` before it shared ``_least_asymmetric``."""
    bad = [
        min(ij, ij[::-1])
        for ij, row in B.items()
        if merge(dict(row), B.get(ij[::-1], {}).items())
    ]
    return min(bad) if bad else None


def _old_commutativity_pair(dim, product):
    """The scan of every pair i < j that ``nil_poisson_filtration`` ran
    before it shared ``_least_asymmetric``."""
    for i in range(dim):
        for j in range(i + 1, dim):
            if product.get((i, j), {}) != product.get((j, i), {}):
                return (i, j)
    return None


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_least_asymmetric_names_the_pair_of_the_old_scans(data):
    dim = data.draw(st.integers(1, 6))
    sign = data.draw(st.sampled_from((-1, 1)))
    index = st.integers(0, dim - 1)
    coeffs = st.sampled_from(CORRUPT_COEFFS[1:])
    table = {}
    # a sparse table with table[j, i] = sign table[i, j] ...
    for _ in range(data.draw(st.integers(0, 6))):
        i, j = data.draw(index), data.draw(index)
        if i != j or sign == 1:
            row = data.draw(st.dictionaries(index, coeffs, min_size=1, max_size=3))
            table[(i, j)] = row
            table[(j, i)] = {k: sign * c for k, c in row.items()}
    # ... then one side of a few swapped couples rewritten, the diagonal too
    for _ in range(data.draw(st.integers(0, 3))):
        i = data.draw(index)
        j = i if data.draw(st.booleans()) else data.draw(index)
        row = data.draw(st.dictionaries(index, coeffs, max_size=2))
        if row:
            table[(i, j)] = row
        else:
            table.pop((i, j), None)
    got = _least_asymmetric(table, sign)
    if sign == -1:
        assert got == _old_antisymmetry_pair(table)
        want = dense_antisymmetry_message(dim, table)
        assert want == (None if got is None else f"bracket not antisymmetric at {got}")
    else:
        assert got == _old_commutativity_pair(dim, table)


def chain_is_admissible(alg, pieces):
    """The defining containments of a hand-supplied descending chain,
    ``pieces`` a list of row lists padded with its last one: F_p F_q <=
    F_{p+q} and [F_p, F_q] <= F_{p+q+1}."""
    chain = FiltrationChain([Echelon.spanning(basis) for basis in pieces])
    top = chain.length + 1
    for p in range(top):
        for q in range(top):
            for v in chain[p].basis():
                for w in chain[q].basis():
                    if not chain[p + q].contains(alg.mul(v, w)):
                        return False
                    if not chain[p + q + 1].contains(alg.commutator(v, w)):
                        return False
    return True


def test_minimality_against_admissible_chains():
    # hand-built admissible chains must contain the computed one piecewise
    alg = borel_algebra()
    chain = commutator_filtration(alg)
    full = [alg.basis_vec(i) for i in range(3)]
    e12 = [{2: Fraction(1)}]
    hand = [full, e12, e12]
    assert chain_is_admissible(alg, hand)
    assert not chain_is_admissible(alg, [full, []])  # [e11, e12] = e12
    # computed piece inside hand piece
    from poissonenv.linalg import Echelon

    hand_echs = []
    for basis in hand:
        e = Echelon()
        for row in basis:
            e.add(row)
        hand_echs.append(e)
    for n in range(3):
        target = hand_echs[min(n, len(hand_echs) - 1)]
        for row in chain[n].basis():
            assert target.contains(row)

    poly = truncated_polynomial_algebra(3)
    pchain = commutator_filtration(poly)
    zero_chain = [[poly.basis_vec(i) for i in range(3)], []]
    assert chain_is_admissible(poly, zero_chain)

    q = quantized_window_algebra(2, 1, 3)
    qchain = commutator_filtration(q)
    star_tail = []
    for n in range(3):
        rows = []
        for i, lab in enumerate(q.labels):
            if lab.count("(") >= n:  # crude star-degree count for d = 1 labels
                rows.append(q.basis_vec(i))
        star_tail.append(rows)
    assert chain_is_admissible(q, star_tail)
    from poissonenv.linalg import Echelon as Ech

    for n in range(3):
        e = Ech()
        for row in star_tail[min(n, 2)]:
            e.add(row)
        for row in qchain[n].basis():
            assert e.contains(row)


def test_associated_graded_of_commutative_algebra():
    alg = truncated_polynomial_algebra(3)
    chain = commutator_filtration(alg)
    graded = associated_graded(alg, chain)
    assert graded.dim == 3
    assert all(not row for row in graded.bracket.values())


def test_associated_graded_of_quantized_window():
    d, cap = 1, 3
    alg = quantized_window_algebra(2, d, cap)
    chain = commutator_filtration(alg)
    graded = associated_graded(alg, chain)
    counts = {}
    for label in graded.labels:
        g = int(label.split(".")[0][1:])
        counts[g] = counts.get(g, 0) + 1
    for n in range(d + 1):
        expected = sum(
            len(monomials_star_total(2, n, t)) for t in range(cap + 1)
        )
        assert counts[n] == expected


def test_associated_graded_idempotence():
    # the graded product is commutative (that is the point of the degree +1
    # bracket), so the recomputed filtration is the nil-Poisson one
    alg = quantized_window_algebra(2, 1, 3)
    chain = commutator_filtration(alg)
    graded = associated_graded(alg, chain)
    regraded = nil_poisson_filtration(graded)
    grades = [int(label.split(".")[0][1:]) for label in graded.labels]
    for n in range(regraded.length + 1):
        expected = sum(1 for g in grades if g >= n)
        assert regraded.rank(n) == expected


def test_associated_graded_needs_vanishing_chain():
    alg = borel_algebra()
    chain = commutator_filtration(alg)
    with pytest.raises(ValueError):
        associated_graded(alg, chain)


def _hand_chain(*pieces):
    return FiltrationChain([Echelon.spanning({i: 1} for i in p) for p in pieces])


def test_associated_graded_refuses_a_product_outside_its_grade():
    # k[x]/(x^3) with F_1 = <x>: x * x = x^2 lies in F_0 but not in F_2 = 0
    alg = truncated_polynomial_algebra(3)
    chain = _hand_chain([0, 1, 2], [1], [])
    with pytest.raises(ValueError, match="^vector not inside its filtration grade$"):
        associated_graded(alg, chain)


def test_associated_graded_refuses_a_product_past_the_chain():
    # 1, x, y, y^2 with x^2 = xy = y^3 = 0 and F_1 = <x, y, y^2>, F_2 = <y, y^2>:
    # y * y lands in grade 4, past the chain's zero piece F_3
    one = Fraction(1)
    product = {(0, i): {i: one} for i in range(4)}
    product.update({(i, 0): {i: one} for i in range(4)})
    product[(2, 2)] = {3: one}
    alg = TruncatedAlgebra(4, ["1", "x", "y", "y^2"], 0, product)
    chain = _hand_chain([0, 1, 2, 3], [1, 2, 3], [2, 3], [])
    with pytest.raises(ValueError, match="^chain is not multiplicative$"):
        associated_graded(alg, chain)


def test_endo_identity_passes():
    alg = poisson_window_algebra(2, 1, 3)
    chain = nil_poisson_filtration(alg)
    ident = EndoMap([alg.basis_vec(i) for i in range(alg.dim)])
    rep = endo_contraction_check(alg, ident, chain)
    assert rep.passed


def test_endo_exp_hamiltonian_passes_nontrivially():
    # d = 2 so that the star-raising derivation {(12), -} survives truncation
    alg = poisson_window_algebra(2, 2, 4)
    chain = nil_poisson_filtration(alg)
    label_index = {lab: i for i, lab in enumerate(alg.labels)}
    cols = hamiltonian_derivation(alg, {label_index["(12)"]: Fraction(1)})
    f = exp_nilpotent_endo(alg, cols)
    rep = endo_contraction_check(alg, f, chain)
    assert rep.passed
    assert any(
        f.apply(alg.basis_vec(i)) != alg.basis_vec(i) for i in range(alg.dim)
    )


def test_endo_associative_variant():
    alg = quantized_window_algebra(2, 1, 3)
    chain = commutator_filtration(alg)
    label_index = {lab: i for i, lab in enumerate(alg.labels)}
    cols = inner_derivation(alg, {label_index["(12)"]: Fraction(1)})
    f = exp_nilpotent_endo(alg, cols)
    rep = endo_contraction_check(alg, f, chain, use_bracket=False)
    assert rep.passed


def test_endo_precondition_violation_reported():
    alg = poisson_window_algebra(2, 1, 3)
    chain = nil_poisson_filtration(alg)
    from poissonenv.exprparse import parse

    cols = []
    for i, lab in enumerate(alg.labels):
        p = parse(lab, 2)
        (m, _) = next(iter(p.terms.items()))
        cols.append({i: Fraction(2) ** (m.sym_degree + m.star_degree)})
    f = EndoMap(cols)
    rep = endo_contraction_check(alg, f, chain)
    assert rep.is_endomorphism
    assert not rep.identity_mod_f1
    assert not rep.passed


def test_endo_non_multiplicative_reported():
    alg = truncated_polynomial_algebra(2)
    chain = commutator_filtration(alg)
    f = EndoMap(
        [{0: Fraction(1)}, {0: Fraction(1), 1: Fraction(1)}]
    )  # x -> 1 + x is not multiplicative in k[x]/(x^2)
    rep = endo_contraction_check(alg, f, chain, use_bracket=False)
    assert not rep.is_endomorphism


@pytest.mark.parametrize("use_bracket", [True, False])
def test_endo_difference_identities_hold_for_exp_of_a_letter(use_bracket):
    # exp({x1, -}) and exp([x1, -]) are automorphisms whose D = f - id has
    # (Dp)(Dq) != 0 for a basis pair of the window, so the quadratic term is
    # seen, and in the associative window (Dp) q != q (Dp) for some pairs
    if use_bracket:
        alg = poisson_window_algebra(2, 2, 4)
        chain = nil_poisson_filtration(alg)
        derivation = hamiltonian_derivation
    else:
        alg = quantized_window_algebra(2, 2, 4)
        chain = commutator_filtration(alg)
        derivation = inner_derivation
    x1 = {alg.labels.index("x1"): 1}
    f = exp_nilpotent_endo(alg, derivation(alg, x1))
    rep = endo_contraction_check(alg, f, chain, use_bracket=use_bracket)
    assert rep.is_endomorphism
    assert rep.difference_identities_hold
    assert rep.passed


def test_serialization_round_trip():
    alg = poisson_window_algebra(2, 1, 3)
    buf = io.StringIO()
    alg.dump(buf)
    buf.seek(0)
    back = TruncatedAlgebra.load(buf)
    assert back.dim == alg.dim
    assert back.product == alg.product
    assert back.bracket == alg.bracket
    data = json.loads(json.dumps(alg.to_json_dict()))
    again = TruncatedAlgebra.from_json_dict(data)
    assert again.product == alg.product


def test_zero_bracket_survives_json_round_trip():
    # an empty bracket table is a zero bracket, not a missing one
    alg = TruncatedAlgebra(2, ["1", "x"], 0, _dual_numbers(), bracket={})
    data = json.loads(json.dumps(alg.to_json_dict()))
    assert data["bracket"] == []
    back = TruncatedAlgebra.from_json_dict(data)
    assert back.bracket == {}
    assert nil_poisson_filtration(back).ranks() == [2, 0]
    del data["bracket"]
    assert TruncatedAlgebra.from_json_dict(data).bracket is None


def test_validation_catches_bad_structure():
    bad = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)}}
    with pytest.raises(ValueError, match=r"unit law fails at basis 1"):
        TruncatedAlgebra(2, ["1", "x"], 0, bad)  # (x*1 undefined -> unit law)


# -- validation against the triple-loop reference ------------------------------


class TableAlgebra(FiniteAlgebra):
    """Structure-constant tables taken as given, without any check: the
    input of ``reference_validate``."""

    def __init__(self, dim, unit, product, bracket=None):
        self.dim, self.unit, self.product, self.bracket = dim, unit, product, bracket

    def _row(self, i, j):
        return self.product.get((i, j), {})

    def brk(self, v, w):
        out = {}
        for i, ci in v.items():
            for j, cj in w.items():
                merge(out, self.bracket.get((i, j), {}).items(), ci * cj)
        return out


def reference_validate(alg):
    """The plain O(dim^3) check on Fraction basis vectors, through ``mul`` and
    ``brk``: the reference for ``TruncatedAlgebra._validate``.  Returns the
    message of the first failure, or None."""
    e = alg.unit_vec()
    for i in range(alg.dim):
        v = alg.basis_vec(i)
        if alg.mul(e, v) != v or alg.mul(v, e) != v:
            return f"unit law fails at basis {i}"
    for i in range(alg.dim):
        vi = alg.basis_vec(i)
        for j in range(alg.dim):
            vj = alg.basis_vec(j)
            ij = alg.mul(vi, vj)
            for k in range(alg.dim):
                vk = alg.basis_vec(k)
                if alg.mul(ij, vk) != alg.mul(vi, alg.mul(vj, vk)):
                    return f"associativity fails at {(i, j, k)}"
    if alg.bracket is None:
        return None
    for i in range(alg.dim):
        vi = alg.basis_vec(i)
        for j in range(alg.dim):
            vj = alg.basis_vec(j)
            if merge(dict(alg.brk(vi, vj)), alg.brk(vj, vi).items()):
                return f"bracket not antisymmetric at {(i, j)}"
    for i in range(alg.dim):
        vi = alg.basis_vec(i)
        for j in range(alg.dim):
            vj = alg.basis_vec(j)
            for k in range(alg.dim):
                vk = alg.basis_vec(k)
                jac = dict(alg.brk(vi, alg.brk(vj, vk)))
                merge(jac, alg.brk(vj, alg.brk(vk, vi)).items())
                merge(jac, alg.brk(vk, alg.brk(vi, vj)).items())
                if jac:
                    return f"Jacobi fails at {(i, j, k)}"
                leib = dict(alg.brk(vi, alg.mul(vj, vk)))
                merge(leib, alg.mul(vj, alg.brk(vi, vk)).items(), -1)
                merge(leib, alg.mul(alg.brk(vi, vj), vk).items(), -1)
                if leib:
                    return f"Leibniz fails at {(i, j, k)}"
    return None


def validation_outcomes(alg, product, bracket):
    """(reference message, constructor message) for the given tables."""
    unchecked = TableAlgebra(alg.dim, alg.unit, product, bracket)
    try:
        TruncatedAlgebra(alg.dim, alg.labels, alg.unit, product, bracket)
        got = None
    except ValueError as exc:
        got = str(exc)
    return reference_validate(unchecked), got


def _graded_algebra():
    alg = quantized_window_algebra(2, 1, 3)
    return associated_graded(alg, commutator_filtration(alg))


SMALL_ALGEBRAS = {
    "quantized": quantized_window_algebra(2, 1, 3),
    "envelope": _quadric_envelope_algebra(),
    "graded": _graded_algebra(),
}
CORRUPT_COEFFS = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]


LARGE_COEFFS = [10**6, -(10**6), 10**12, -(10**12), Fraction(10**6, 7)]


@cache
def _window_43():
    return poisson_window_algebra(2, 1, 6)


def _corrupted_outcomes(data, alg, coeffs, kinds=("product", "bracket", "mirrored")):
    """Outcomes for one or two drawn corruptions of ``alg``, of the given
    kinds: plain product or bracket entries, or mirrored ones that keep the
    bracket antisymmetric.  Only product ones without a bracket."""
    product = {k: dict(v) for k, v in alg.product.items()}
    bracket = None
    if alg.bracket is not None:
        bracket = {k: dict(v) for k, v in alg.bracket.items()}
    else:
        kinds = ["product"]
    index = st.integers(0, alg.dim - 1)
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(kinds))
        i, j, k = data.draw(index), data.draw(index), data.draw(index)
        c = data.draw(st.sampled_from(coeffs))
        (product if kind == "product" else bracket).setdefault((i, j), {})[k] = c
        if kind == "mirrored":
            # the bracket stays antisymmetric, so Jacobi and Leibniz are reached
            bracket.setdefault((j, i), {})[k] = -c
    return validation_outcomes(alg, product, bracket)


@settings(deadline=None, max_examples=60)
@given(st.data())
def test_validation_matches_reference_on_corruptions(data):
    alg = SMALL_ALGEBRAS[data.draw(st.sampled_from(sorted(SMALL_ALGEBRAS)))]
    ref, got = _corrupted_outcomes(data, alg, CORRUPT_COEFFS)
    assert got == ref


@pytest.mark.parametrize("mirrored_only", [False, True])
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_validation_matches_reference_on_large_corruptions(mirrored_only, data):
    # large constants make the packing base t = 3 b^2 + 1 large, and the
    # dim-43 window packs 43 coordinates into each compared integer; mirrored
    # corruptions alone leave the product intact, so they fail Jacobi or
    # Leibniz, or antisymmetry where a draw has i = j or two draws overlap
    names = [name for name, alg in SMALL_ALGEBRAS.items()
             if alg.bracket is not None or not mirrored_only]
    name = data.draw(st.sampled_from([*sorted(names), "window_43"]))
    alg = _window_43() if name == "window_43" else SMALL_ALGEBRAS[name]
    kinds = ["mirrored"] if mirrored_only else ["product", "bracket", "mirrored"]
    ref, got = _corrupted_outcomes(data, alg, LARGE_COEFFS, kinds)
    assert got == ref


def dense_antisymmetry_message(dim, bracket):
    """The row-major scan of all dim^2 pairs that ``_validate`` ran before
    it visited only the bracket's rows: the reference for its message."""
    for i in range(dim):
        for j in range(dim):
            if merge(dict(bracket.get((i, j), {})), bracket.get((j, i), {}).items()):
                return f"bracket not antisymmetric at {(i, j)}"
    return None


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_antisymmetry_failure_names_the_pair_of_the_dense_scan(data):
    name = data.draw(st.sampled_from(["envelope", "graded", "window_43"]))
    alg = _window_43() if name == "window_43" else SMALL_ALGEBRAS[name]
    bracket = {k: dict(v) for k, v in alg.bracket.items()}
    index = st.integers(0, alg.dim - 1)
    for _ in range(data.draw(st.integers(1, 3))):
        i, k = data.draw(index), data.draw(index)
        j = i if data.draw(st.booleans()) else data.draw(index)  # the diagonal too
        bracket.setdefault((i, j), {})[k] = data.draw(st.sampled_from(CORRUPT_COEFFS[1:]))
    want = dense_antisymmetry_message(alg.dim, bracket)
    assume(want is not None)
    with pytest.raises(ValueError) as exc:
        TruncatedAlgebra(alg.dim, alg.labels, alg.unit, alg.product, bracket)
    assert str(exc.value) == want


def _cancelling_associativity(N):
    """Basis 1, x, a, c, m, n, p, l with x x = N m, m a = N l, x a = -N n,
    x n = N l, x c = p and x p = l: the largest row sum is b = N, and the
    pair (x, x) fails at a with (x x) a - x (x a) = 2 N^2 l and at c = a + 1
    with -l, every other triple being associative.  Packed by t, the pair's
    difference is t^a (2 N^2 - t) l, which vanishes for t = 2 b^2."""
    product = {
        **_square_zero(7),
        (1, 1): {4: Fraction(N)},
        (4, 2): {7: Fraction(N)},
        (1, 2): {5: Fraction(-N)},
        (1, 5): {7: Fraction(N)},
        (1, 3): {6: Fraction(1)},
        (1, 6): {7: Fraction(1)},
    }
    return 8, product, None


def _cancelling_leibniz(N):
    """Basis 1, x, y, a, c, m1, m2, m3, m4, l with the products y a = N m1,
    y m2 = -N l, m3 a = -N l, y c = m4 and the brackets {x, m1} = N l,
    {x, a} = N m2, {x, y} = N m3, {x, m4} = -l (and their mirrors): b = N,
    every double bracket is 0, and the pair (x, y) fails Leibniz at a with
    {x, y a} - y {x, a} - {x, y} a = 3 N^2 l, all three terms at their
    bound, and at c = a + 1 with -l.  Packed by t that is t^a (3 N^2 - t) l,
    which vanishes for t = 3 b^2; later pairs fail too, at other triples."""
    product = {
        **_square_zero(9),
        (2, 3): {5: Fraction(N)},
        (2, 6): {9: Fraction(-N)},
        (7, 3): {9: Fraction(-N)},
        (2, 4): {8: Fraction(1)},
    }
    bracket = {}
    for a, row in [(5, {9: N}), (3, {6: N}), (2, {7: N}), (8, {9: -1})]:
        bracket[1, a] = {k: Fraction(c) for k, c in row.items()}
        bracket[a, 1] = {k: -Fraction(c) for k, c in row.items()}
    return 10, product, bracket


@pytest.mark.parametrize(
    "tables, message",
    [
        (_cancelling_associativity, "associativity fails at (1, 1, 2)"),
        (_cancelling_leibniz, "Leibniz fails at (1, 2, 3)"),
    ],
)
def test_validation_sees_failures_that_cancel_under_a_smaller_base(tables, message):
    # the packing base t = 3 b^2 + 1 is the least that keeps these apart
    dim, product, bracket = tables(2)
    assert reference_validate(TableAlgebra(dim, 0, product, bracket)) == message
    with pytest.raises(ValueError) as exc:
        TruncatedAlgebra(dim, [f"b{i}" for i in range(dim)], 0, product, bracket)
    assert str(exc.value) == message


def _presented_window_algebras():
    """Window algebras of one two-term quadric at the shapes of the
    benchmark's presented workload: (n_gens, d, max_total), N = 2."""
    x = PoissonElement.generator
    quadric = x(1) * x(2) + 2 * x(1) * x(1)
    return [
        envelope_window_algebra(EnvelopePresentation(n, (quadric,), d, 2), top)
        for n, d, top in [(2, 1, 5), (2, 2, 4), (3, 1, 2), (3, 2, 2)]
    ]


def test_valid_algebras_are_checked_by_pairs_only():
    # the packed comparisons per basis pair are the whole check: a valid
    # algebra is rebuilt from its tables alone
    for alg in _presented_window_algebras() + [_window_43()]:
        TruncatedAlgebra(alg.dim, alg.labels, alg.unit, alg.product, alg.bracket)
    # a corrupted copy still names the reference's first failing triple
    alg = _window_43()
    bracket = {key: dict(row) for key, row in alg.bracket.items()}
    (i, j), row = sorted(bracket.items())[3]
    k = min(row)
    bracket[i, j][k] += 1
    bracket[j, i][k] -= 1
    ref, got = validation_outcomes(alg, alg.product, bracket)
    assert ref is not None and got == ref


@pytest.mark.parametrize(
    "which, corruptions, message",
    [
        ("envelope", [(6, 0, 7, 2)], "Leibniz fails at (0, 1, 3)"),
        ("envelope", [(2, 4, 1, 1), (5, 7, 1, 2)], "Jacobi fails at (1, 2, 7)"),
        ("graded", [(8, 2, 4, -1)], "Jacobi fails at (1, 2, 8)"),
        ("graded", [(0, 9, 0, -1)], "Leibniz fails at (0, 1, 9)"),
        # the pair's Leibniz difference has coordinates of valuations 6, 1
        # and 3, the least not first
        ("envelope", [(0, 6, 3, -1), (0, 3, 7, -1)], "Leibniz fails at (0, 1, 1)"),
        # the pair fails Jacobi at k = 7 and Leibniz at k = 4 and 7
        ("envelope", [(7, 1, 4, 1), (7, 5, 4, 1)], "Leibniz fails at (1, 2, 4)"),
        # the pair fails Jacobi and Leibniz at k = 2 alone
        ("graded", [(0, 2, 5, 1)], "Jacobi fails at (0, 1, 2)"),
        # the pair fails Leibniz at the top digit k = dim - 1 = 42 alone
        ("window_43", [(1, 42, 0, 1)], "Leibniz fails at (1, 1, 42)"),
        # the first failing pair is reached only through {e_0, v} meeting
        # e_1's bracket row, {e_1, v} meeting e_0's, or e_1 v meeting e_0's
        ("envelope", [(0, 2, 2, 1)], "Jacobi fails at (0, 1, 2)"),
        ("envelope", [(0, 5, 4, 1)], "Jacobi fails at (0, 1, 2)"),
        ("envelope", [(0, 1, 4, 1)], "Leibniz fails at (0, 1, 2)"),
    ],
)
def test_validation_reports_first_failing_triple(which, corruptions, message):
    # antisymmetric bracket corruptions whose first failing triple is read off
    # the packed differences of one pair, compared with the reference's
    alg = _window_43() if which == "window_43" else SMALL_ALGEBRAS[which]
    bracket = {k: dict(v) for k, v in alg.bracket.items()}
    for i, j, k, c in corruptions:
        bracket.setdefault((i, j), {})[k] = Fraction(c)
        bracket.setdefault((j, i), {})[k] = -Fraction(c)
    assert validation_outcomes(alg, alg.product, bracket) == (message, message)


def test_small_algebras_validate():
    for alg in SMALL_ALGEBRAS.values():
        assert validation_outcomes(alg, alg.product, alg.bracket) == (None, None)


def _dual_numbers():
    """k[x]/(x^2): product tables of 1, x."""
    one = Fraction(1)
    return {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}


@pytest.mark.parametrize("dim", [True, 1.0])
def test_constructor_refuses_a_non_int_dim(dim):
    # a bool dim would be dumped as "dim": true, which load refuses
    with pytest.raises(TypeError, match=f"^dim must be an int, got {dim}$"):
        TruncatedAlgebra(dim, ["1"], 0, {(0, 0): {0: 1}})


@pytest.mark.parametrize(
    "args",
    [
        (1, ["1"], 0, {(0, 0): {0: 1}}),
        (2, ["1", "x"], 0, _dual_numbers()),
        (2, ["1", "x"], 0, _dual_numbers(), {}),
    ],
    ids=["field", "dual-numbers", "zero-bracket"],
)
def test_a_constructed_algebra_survives_a_dump_load_round_trip(args):
    alg = TruncatedAlgebra(*args)
    buf = io.StringIO()
    alg.dump(buf)
    buf.seek(0)
    back = TruncatedAlgebra.load(buf)
    assert (back.dim, back.labels, back.unit) == (alg.dim, alg.labels, alg.unit)
    assert back.product == alg.product and back.bracket == alg.bracket


def _square_zero(n):
    """k + V with V*V = 0, dim V = n: product tables on 1, v_1, ..., v_n."""
    product = {(0, 0): {0: Fraction(1)}}
    for a in range(1, n + 1):
        product[(0, a)] = {a: Fraction(1)}
        product[(a, 0)] = {a: Fraction(1)}
    return product


@pytest.mark.parametrize(
    "dim, product, bracket, message",
    [
        # (x y) y = x but x (y y) = 0
        (
            3,
            {**_square_zero(2), (1, 2): {1: Fraction(1)}},
            None,
            "associativity fails at (1, 2, 2)",
        ),
        # {x, x} = x
        (
            2,
            _dual_numbers(),
            {(1, 1): {1: Fraction(1)}},
            "bracket not antisymmetric at (1, 1)",
        ),
        # {a, b} = a, {a, c} = b: antisymmetric, Jacobi(a, b, c) = -b
        (
            4,
            _square_zero(3),
            {
                (1, 2): {1: Fraction(1)},
                (2, 1): {1: Fraction(-1)},
                (1, 3): {2: Fraction(1)},
                (3, 1): {2: Fraction(-1)},
            },
            "Jacobi fails at (1, 2, 3)",
        ),
        # {1, x} = x: Jacobi holds in dimension 2, Leibniz needs {x, 1} = 0
        (
            2,
            _dual_numbers(),
            {(0, 1): {1: Fraction(1)}, (1, 0): {1: Fraction(-1)}},
            "Leibniz fails at (1, 0, 0)",
        ),
        # {x, y} = a, a c = d: only {x, y} c is nonzero at (x, y, c)
        (
            6,
            {**_square_zero(5), (3, 4): {5: Fraction(1)}},
            {(1, 2): {3: Fraction(1)}, (2, 1): {3: Fraction(-1)}},
            "Leibniz fails at (1, 2, 4)",
        ),
        # x y = 0 but y z = u and x u = l: (x y) z = 0 and x (y z) = l, at a
        # pair that is not a key of the product table
        (
            6,
            {**_square_zero(5), (2, 3): {4: Fraction(1)}, (1, 4): {5: Fraction(1)}},
            None,
            "associativity fails at (1, 2, 3)",
        ),
    ],
)
def test_validation_rejects_each_identity(dim, product, bracket, message):
    labels = [f"b{i}" for i in range(dim)]
    with pytest.raises(ValueError) as exc:
        TruncatedAlgebra(dim, labels, 0, product, bracket)
    assert str(exc.value) == message
    assert reference_validate(TableAlgebra(dim, 0, product, bracket)) == message


def test_validation_with_fractional_constants():
    alg = poisson_window_algebra(2, 1, 3)
    third = {k: {m: Fraction(c, 3) for m, c in row.items()} for k, row in alg.bracket.items()}
    scaled = TruncatedAlgebra(alg.dim, alg.labels, alg.unit, alg.product, third)
    assert nil_poisson_filtration(scaled).ranks() == nil_poisson_filtration(alg).ranks()
    product = {key: dict(row) for key, row in alg.product.items()}
    key = next(key for key in sorted(product) if alg.unit not in key)
    product[key][next(iter(product[key]))] += Fraction(1, 2)
    ref, got = validation_outcomes(alg, product, third)
    assert ref is not None and got == ref


@pytest.mark.parametrize("bad", [0.5, 2.0, True, False])
@pytest.mark.parametrize("table", ["product", "bracket"])
def test_constructor_refuses_float_and_bool_constants(table, bad):
    alg = poisson_window_algebra(2, 1, 3)
    tables = {"product": alg.product, "bracket": alg.bracket}
    rows = {key: dict(row) for key, row in tables[table].items()}
    key = sorted(rows)[1]
    k = sorted(rows[key])[0]
    rows[key][k] = bad
    tables[table] = rows
    entry = f"{table} entry ({key[0]}, {key[1]}, {k})"
    with pytest.raises(TypeError, match=re.escape(entry)):
        TruncatedAlgebra(alg.dim, alg.labels, alg.unit, **tables)


def test_validation_rejects_out_of_range_indices():
    alg = poisson_window_algebra(2, 1, 3)
    dim = alg.dim
    good = alg.to_json_dict()
    cases = [
        ("product", [dim + 5, 1, 1, "1"]),
        ("product", [1, -1, 1, "1"]),
        ("product", [1, 1, dim, "1"]),
        ("bracket", [1, 2, dim + 1, "0"]),
    ]
    for table, entry in cases:
        data = json.loads(json.dumps(good))
        data[table].append(entry)
        pattern = rf"^{table} entry .* outside \[0, {dim}\)"
        with pytest.raises(ValueError, match=pattern):
            TruncatedAlgebra.load(io.StringIO(json.dumps(data)))
    data = dict(good, unit=dim)
    with pytest.raises(ValueError, match=rf"^unit {dim} is not a basis index"):
        TruncatedAlgebra.load(io.StringIO(json.dumps(data)))
    bad_key = {**_dual_numbers(), (1, 1): {"x": Fraction(1)}}
    with pytest.raises(ValueError, match=r"^product entry \(1, 1\) -> 'x' has"):
        TruncatedAlgebra(2, ["1", "x"], 0, bad_key)


def test_a_table_with_two_defects_reports_the_entry_met_first():
    # a zero entry with an index past dim, then a float constant: one walk
    # over the entries in table order reports the index
    two = {**_dual_numbers(), (1, 1): {2: 0, 1: 0.5}}
    with pytest.raises(ValueError, match=r"^product entry \(1, 1\) -> 2 has an index"):
        TruncatedAlgebra(2, ["1", "x"], 0, two)
    # in the other order the float is met first
    two[1, 1] = {1: 0.5, 2: 0}
    with pytest.raises(TypeError, match=r"^product entry \(1, 1, 1\): coefficient 0.5"):
        TruncatedAlgebra(2, ["1", "x"], 0, two)
    # the label count and the unit are checked before any table entry
    with pytest.raises(ValueError, match="^label count must match dim$"):
        TruncatedAlgebra(2, ["1"], 0, two)
    with pytest.raises(ValueError, match=r"^unit 2 is not a basis index in \[0, 2\)$"):
        TruncatedAlgebra(2, ["1", "x"], 2, two)


def test_endo_apply_matches_entry_scan():
    alg = poisson_window_algebra(2, 2, 4)
    label_index = {lab: i for i, lab in enumerate(alg.labels)}
    cols = hamiltonian_derivation(alg, {label_index["(12)"]: Fraction(1)})
    f = exp_nilpotent_endo(alg, cols)
    vecs = [alg.basis_vec(i) for i in range(alg.dim)]
    vecs.append({i: Fraction(i + 1, 2) for i in range(alg.dim)})
    for vec in vecs:
        expected = {}
        for j, c in vec.items():
            for i, m in f.columns()[j].items():
                merge(expected, ((i, m),), c)
        assert f.apply(vec) == expected
    assert f.columns() == [f.apply(v) for v in vecs[:-1]]


def test_json_entries_for_the_same_triple_add_up():
    # k[x]/(x^2) with x*x given as 1*x and -1*x: the entries sum to x*x = 0
    data = TruncatedAlgebra(2, ["1", "x"], 0, _dual_numbers()).to_json_dict()
    data["product"] += [[1, 1, 1, "1"], [1, 1, 1, "-1"]]
    alg = TruncatedAlgebra.from_json_dict(data)
    assert alg.mul({1: Fraction(1)}, {1: Fraction(1)}) == {}
    assert (1, 1) not in alg.product
    assert alg.to_json_dict()["product"] == [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"]]
    data["product"] += [[0, 1, 1, "1/2"], [0, 1, 1, "1/2"]]
    with pytest.raises(ValueError, match=r"^unit law fails at basis 1"):
        TruncatedAlgebra.from_json_dict(data)


@pytest.mark.parametrize("coeff", [0.1, 1.0, True, False, None])
def test_json_refuses_a_coefficient_that_is_not_exact(coeff):
    # x*x = c*x is a valid algebra for every rational c; a float c would load
    # as its binary expansion and a bool as 0 or 1
    data = TruncatedAlgebra(2, ["1", "x"], 0, _dual_numbers()).to_json_dict()
    data["product"].append([1, 1, 1, coeff])
    with pytest.raises(ValueError, match=r"^product entry \(1, 1, 1\): coefficient"):
        TruncatedAlgebra.from_json_dict(data)
    data["bracket"] = [[1, 1, 1, coeff]]
    del data["product"][-1]
    with pytest.raises(ValueError, match=r"^bracket entry \(1, 1, 1\): coefficient"):
        TruncatedAlgebra.from_json_dict(data)


@pytest.mark.parametrize("coeff", ["1/0", "abc"])
def test_json_refuses_a_string_that_names_no_number(coeff):
    # "1/0" is refused as "abc" is, not with a ZeroDivisionError
    data = TruncatedAlgebra(2, ["1", "x"], 0, _dual_numbers()).to_json_dict()
    data["product"].append([1, 1, 1, coeff])
    message = rf"^product entry \(1, 1, 1\): coefficient '{coeff}' is not an int"
    with pytest.raises(ValueError, match=message):
        TruncatedAlgebra.from_json_dict(data)


@pytest.mark.parametrize("coeff, value", [(1, 1), (-2, -2), ("1/10", Fraction(1, 10))])
def test_json_loads_ints_and_decimal_strings(coeff, value):
    data = TruncatedAlgebra(2, ["1", "x"], 0, _dual_numbers()).to_json_dict()
    data["product"].append([1, 1, 1, coeff])
    alg = TruncatedAlgebra.from_json_dict(json.loads(json.dumps(data)))
    assert alg.product[(1, 1)] == {1: value}
    # an int exactly when integral, otherwise a Fraction
    assert type(alg.product[(1, 1)][1]) is type(value)


# the loader's own int read must agree with the running interpreter's
# Fraction, whose string grammar differs across Python versions
_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
_COEFF_ALPHABET = "0123456789٣-+/_ .e"


@settings(deadline=None, max_examples=300)
@given(st.text(_COEFF_ALPHABET, max_size=7))
@example("1" * (_INT_DIGITS + 1))
@example("-" + "7" * (_INT_DIGITS + 1))
@example("٣" * 3)
@example("-0")
def test_json_reads_a_coefficient_string_as_fraction_does(coeff):
    # x*x = c*x is a valid algebra for every rational c
    data = TruncatedAlgebra(2, ["1", "x"], 0, _dual_numbers()).to_json_dict()
    data["product"].append([1, 1, 1, coeff])
    try:
        want = canonical(Fraction(coeff))
    except (ValueError, ZeroDivisionError):
        message = (
            f"product entry (1, 1, 1): coefficient {coeff!r} is not an int or a"
            " decimal string"
        )
        with pytest.raises(ValueError) as exc:
            TruncatedAlgebra.from_json_dict(data)
        assert str(exc.value) == message
        return
    got = TruncatedAlgebra.from_json_dict(data).product.get((1, 1), {}).get(1, 0)
    assert got == want and type(got) is type(want)


# -- the shared product of FiniteAlgebra ---------------------------------------

_COEFFS = st.builds(
    lambda n, d: canonical(Fraction(n, d)),
    st.sampled_from((-3, -2, -1, 1, 2, 3)),
    st.sampled_from((1, 2, 3)),
)


@cache
def _built(build, shape):
    return build(*shape)


def _vectors(data, dim):
    vec = st.dictionaries(st.integers(0, dim - 1), _COEFFS, min_size=1, max_size=4)
    return data.draw(vec), data.draw(vec)


@settings(deadline=None, max_examples=60)
@given(st.data())
@pytest.mark.parametrize(
    "build, shape",
    [(quantized_window_algebra, (2, 2, 4)), (poisson_window_algebra, (2, 1, 3))],
)
def test_one_pass_commutator_is_the_two_pass_one(build, shape, data):
    alg = _built(build, shape)
    v, w = _vectors(data, alg.dim)
    two_pass = merge(alg.mul(v, w), alg.mul(w, v).items(), -1)
    assert alg.commutator(v, w) == two_pass


@settings(deadline=None, max_examples=60)
@given(st.data())
@pytest.mark.parametrize("shape", [(2, 1, 4), (2, 2, 4)])
def test_window_and_its_table_algebra_multiply_alike(shape, data):
    win = _built(UWindow, shape)
    alg = _built(quantized_window_algebra, shape)
    assert win.dim == alg.dim and win.unit == alg.unit
    v, w = _vectors(data, alg.dim)
    assert win.mul(v, w) == alg.mul(v, w)
    assert win.commutator(v, w) == alg.commutator(v, w)


# -- the seed recursion against the basis recursion ----------------------------


def basis_recursion_chain(alg, pair_map):
    """The recursion on whole bases: F_{n+1} is the ideal of [x, F_n] and
    [F_p, F_{n-p}] plus every product F_p F_{n+1-p}, pairing every row of
    the Echelon bases of the earlier pieces.  The reference for
    ``filtration_chain``, which grows each piece from its ideal seeds."""
    full = Echelon.spanning(alg.basis_vec(i) for i in range(alg.dim))
    pieces = [full]
    bases = [full.basis()]
    gens = alg.generators()
    while pieces[-1].rank:
        n = len(pieces) - 1
        brackets = (
            pair_map(v, w)
            for p in range(max(n, 1))
            for v in (gens if p == 0 else bases[p])
            for w in bases[n - p]
        )
        new = alg.ideal_close(filter(None, brackets))
        for p in range(1, n + 1):
            for v in bases[p]:
                for w in bases[n + 1 - p]:
                    prod = alg.mul(v, w)
                    if prod:
                        new.add(prod)
        if new.rank == pieces[n].rank:
            break
        pieces.append(new)
        bases.append(new.basis())
    return pieces


@st.composite
def _window_shapes(draw):
    n_gens = draw(st.integers(2, 3))
    d = draw(st.integers(1, 3))
    return n_gens, d, draw(st.integers(0, 6 if n_gens == 2 else 4))


@st.composite
def _incidence_algebras(draw):
    """Unitalized incidence algebras of random posets on 2-4 points, with
    a random part of the diagonal: nilpotent past the unit exactly when that
    part is empty."""
    points = draw(st.integers(2, 4))
    pairs = [(x, y) for x in range(points) for y in range(x + 1, points)]
    less = {pair for pair in pairs if draw(st.booleans())}
    for m in range(points):  # transitive closure, one point at a time
        less |= {(x, y) for x, a in less if a == m for b, y in less if b == m}
    diagonal = [x for x in range(points) if draw(st.booleans())]
    return incidence_algebra(less, diagonal)


@st.composite
def _envelope_algebras(draw):
    """Window algebras of homogeneous presentations in 2-3 generators."""
    n = draw(st.integers(2, 3))
    d = draw(st.integers(1, 2))
    relations = []
    for _ in range(draw(st.integers(0, 2))):
        deg = draw(st.integers(1, 3))
        pool = [m for m in monomials_star_maxpoly(n, 0, deg) if m.poly_degree == deg]
        monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        coeffs = st.sampled_from((-2, -1, 1, 2))
        relations.append(PoissonElement({m: draw(coeffs) for m in monos}))
    pres = EnvelopePresentation(n, tuple(relations), d, 3)
    return envelope_window_algebra(pres, draw(st.integers(2, 4 if n == 2 else 3)))


@pytest.mark.parametrize("shape", [(2, 2, 6), (3, 1, 5)])
def test_indexed_window_chain_has_the_unindexed_rows(shape):
    # the seed chain reaches each piece through other rows than the recursion
    # on whole bases, so the two agree in span, not in Echelon rows
    win = _built(UWindow, shape)
    got = commutator_filtration(win)
    assert_same_spans(got, basis_recursion_chain(win, win.commutator))


CHAIN_SOURCES = {
    "window": _window_shapes().map(lambda shape: (_built(UWindow, shape), False)),
    "incidence": _incidence_algebras().map(lambda alg: (alg, False)),
    "envelope-nil": _envelope_algebras().map(lambda alg: (alg, True)),
}


@settings(deadline=None, max_examples=60)
@given(st.data())
@pytest.mark.parametrize("source", sorted(CHAIN_SOURCES))
def test_seed_chain_spans_the_basis_recursion(source, data):
    alg, nil_poisson = data.draw(CHAIN_SOURCES[source])
    if nil_poisson:
        got, pair_map = nil_poisson_filtration(alg), alg.brk
    else:
        got, pair_map = commutator_filtration(alg), alg.commutator
    assert_same_spans(got, basis_recursion_chain(alg, pair_map))


def _assert_nil_poisson_rows_are_the_two_sided_ones(alg):
    """The nil-Poisson chain, closed by left products, against the same chain
    closed by the products on both sides: with a commutative product each
    right image repeats the left one pushed just before it, which the
    worklist pops first, so the two add the same rows in the same order."""
    got = nil_poisson_filtration(alg)
    want = _chain(alg, alg.brk, alg.ideal_close)
    assert got.length == want.length
    for a, b in zip(got.pieces, want.pieces):
        assert list(a.rows.items()) == list(b.rows.items())


@settings(deadline=None, max_examples=30)
@given(_envelope_algebras())
def test_nil_poisson_left_closure_adds_the_two_sided_rows(alg):
    _assert_nil_poisson_rows_are_the_two_sided_ones(alg)


@pytest.mark.parametrize("shape", [(2, 1, 3), (3, 1, 4), (2, 3, 7)])
def test_nil_poisson_left_closure_of_a_window_adds_the_two_sided_rows(shape):
    _assert_nil_poisson_rows_are_the_two_sided_ones(poisson_window_algebra(*shape))


# -- the bottom-up chain of a graded algebra ------------------------------------


class TopDownWindow(UWindow):
    """A window that declares no grading, so its chain is closed top-down."""

    degrees = None


@pytest.mark.parametrize(
    "shape",
    [(2, 2, 6), (2, 4, 6), (3, 2, 5), (2, 2, 0), (2, 0, 5), (1, 3, 6)],
    ids=["2-2-6", "2-4-6", "3-2-5", "max-total-0", "d-0", "one-generator"],
)
def test_bottom_up_window_chain_is_the_top_down_one(shape):
    win = UWindow(*shape)
    assert win.degrees is win.totals
    got = commutator_filtration(win)
    want = commutator_filtration(TopDownWindow(*shape))
    assert got.stable_is_zero and want.stable_is_zero
    assert_same_spans(got, want.pieces)


class MisgradedBorel(TruncatedAlgebra):
    """The Borel algebra 1, e11, e12 declaring degrees 0, 1, 2: e11 e12 = e12
    breaks them, and its seed lists G_n = [e12] never run out.  G_1 read at
    degree 3, one past the top, holds [e11, e12] = e12 of degree 2."""

    degrees = [0, 1, 2]


def test_a_wrong_grading_stops_the_bottom_up_chain():
    alg = borel_algebra()
    wrong = MisgradedBorel(alg.dim, alg.labels, alg.unit, alg.product)
    message = r"^seed list G_1 holds a vector outside degree 3"
    with pytest.raises(RuntimeError, match=message):
        commutator_filtration(wrong)


class MixedGenerator(TruncatedAlgebra):
    """k[x]/(x^3) graded by the power of x, generated by x + x^2, which has
    no single degree to be read in."""

    degrees = [0, 1, 2]

    def generators(self):
        return [{1: 1, 2: 1}]


def test_a_generator_outside_one_degree_stops_the_graded_build():
    alg = truncated_polynomial_algebra(3)
    mixed = MixedGenerator(alg.dim, alg.labels, alg.unit, alg.product)
    with pytest.raises(RuntimeError, match=r"is not homogeneous"):
        commutator_filtration(mixed)
