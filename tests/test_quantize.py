import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from poissonenv.filtration import span_closure
from poissonenv.freelie import LieBasisElement, LieElement
from poissonenv.linalg import merge
from poissonenv.freepoisson import (
    PoissonElement,
    monomials_star_maxpoly,
    monomials_star_total,
    multiply,
    star_product,
)
from poissonenv.quantize import (
    QuantizedAlgebra,
    UWindow,
    _capped_right_products,
    bx_component,
    commutator_filtration_Q,
    graded_of_Q,
    nc_embed,
    poisson_window_algebra,
    quantized_window_algebra,
    star_ideal_topology_check,
    truncated_product,
    u_window,
)


def gen(i):
    return PoissonElement.generator(i)


def lie(word):
    return PoissonElement.from_lie(LieElement.basis(LieBasisElement.from_word(word)))


def test_bx_first_component():
    assert bx_component(gen(1), gen(2), 1) == Fraction(1, 2) * lie((1, 2))


def test_bx_zero_component_is_product():
    a = multiply(gen(1), lie((1, 2)))
    assert bx_component(a, gen(2), 0) == multiply(a, gen(2))


def test_bx_second_component_of_letters_vanishes():
    assert bx_component(gen(1), gen(2), 2).is_zero()


def test_bx_star_degree_shift():
    a = multiply(gen(1), gen(1))
    b = multiply(gen(2), gen(2))
    for p in range(4):
        out = bx_component(a, b, p)
        for m in out.terms:
            assert m.star_degree == p


def test_bx_poly_degree_bound():
    # polynomial in, polynomial out, with SV-degree at most the input sum
    a = multiply(gen(1), gen(1))
    b = multiply(multiply(gen(2), gen(2)), gen(1))
    for p in range(4):
        for m in bx_component(a, b, p).terms:
            assert m.poly_degree <= 5


def test_truncated_commutator_of_generators():
    alg = QuantizedAlgebra(2, 1)
    got = truncated_product(alg, gen(1), gen(2)) - truncated_product(
        alg, gen(2), gen(1)
    )
    assert got == lie((1, 2))


def test_truncated_product_degree_zero():
    alg = QuantizedAlgebra(2, 0)
    assert truncated_product(alg, gen(1), gen(2)) == multiply(gen(1), gen(2))


def test_truncated_product_unit():
    alg = QuantizedAlgebra(2, 2)
    a = multiply(gen(1), lie((1, 2)))
    assert truncated_product(alg, PoissonElement.one(), a) == a


def test_truncated_product_rejects_deep_input():
    alg = QuantizedAlgebra(2, 1)
    with pytest.raises(ValueError):
        truncated_product(alg, lie((1, 1, 2)), gen(1))


def test_truncated_product_is_truncation_of_star():
    alg = QuantizedAlgebra(2, 1)
    a = multiply(gen(1), gen(2))
    b = multiply(gen(2), gen(2))
    assert truncated_product(alg, a, b) == star_product(a, b).star_truncate(1)


def test_nc_embed_word_12():
    alg = QuantizedAlgebra(2, 1)
    expected = multiply(gen(1), gen(2)) + Fraction(1, 2) * lie((1, 2))
    assert nc_embed(alg, (1, 2)) == expected


def test_nc_embed_empty_word():
    alg = QuantizedAlgebra(2, 1)
    assert nc_embed(alg, ()) == PoissonElement.one()


def test_nc_embed_separates_anagrams():
    alg = QuantizedAlgebra(2, 1)
    assert nc_embed(alg, (1, 2)) - nc_embed(alg, (2, 1)) == lie((1, 2))


def test_filtration_window_full_at_zero():
    alg = QuantizedAlgebra(2, 2)
    rep = commutator_filtration_Q(alg, 0, 2)
    window = sum(len(monomials_star_maxpoly(2, q, 2)) for q in range(3))
    assert rep.rank_filtration == rep.rank_expected == window
    assert rep.matches


def test_filtration_window_vanishes_past_d():
    alg = QuantizedAlgebra(2, 2)
    rep = commutator_filtration_Q(alg, 3, 2)
    assert rep.rank_filtration == 0 and rep.matches


def test_filtration_window_middle():
    alg = QuantizedAlgebra(2, 2)
    rep = commutator_filtration_Q(alg, 1, 2)
    assert rep.matches
    expected = sum(len(monomials_star_maxpoly(2, q, 2)) for q in (1, 2))
    assert rep.rank_expected == expected


def test_filtration_level_bound():
    alg = QuantizedAlgebra(2, 1)
    with pytest.raises(ValueError):
        commutator_filtration_Q(alg, 3, 1)


def test_graded_ranks_free_case():
    alg = QuantizedAlgebra(2, 1)
    reports = graded_of_Q(alg, 1)
    assert [r.envelope_rank for r in reports] == [3, 3]
    assert all(r.matches for r in reports)


def test_graded_rank_two_forms():
    # at star degree 1 the graded piece is the windowed two-forms SV (x) L1
    alg = QuantizedAlgebra(2, 1)
    rep = graded_of_Q(alg, 1)[1]
    assert rep.graded_rank == 3  # {1, x1, x2} times (12)


def test_u_window_product_matches_star_transport():
    # the PBW-coordinate engine and the Poisson-coordinate star product are
    # the same algebra through the symmetrization map
    from poissonenv import pbw

    win = u_window(2, 2, 4)
    monos = [
        m
        for t in range(3)
        for q in range(min(2, t) + 1)
        for m in monomials_star_total(2, q, t)
    ]
    for a in monos:
        for b in monos:
            if a.total_degree + b.total_degree > 4:
                continue
            va = {win.index[t]: c for t, c in pbw.sym_pbw(a.factors).items()}
            vb = {win.index[t]: c for t, c in pbw.sym_pbw(b.factors).items()}
            prod = win.mul(va, vb)
            alg = QuantizedAlgebra(2, 2)
            expected = truncated_product(
                alg, PoissonElement.monomial(a), PoissonElement.monomial(b)
            )
            ev = {}
            for m, c in expected.terms.items():
                for t, v in pbw.sym_pbw(m.factors).items():
                    if sum(f.star_degree for f in t) <= 2:
                        key = win.index[t]
                        x = ev.get(key, 0) + c * v
                        if x:
                            ev[key] = x
                        else:
                            ev.pop(key, None)
            assert prod == ev


def test_star_ideal_check_small():
    rep = star_ideal_topology_check(2, 1, 1)
    assert rep.included and rep.power == 3
    rep = star_ideal_topology_check(2, 0, 2)
    assert rep.included


def test_window_algebra_builders_validate():
    # constructors run the full associativity/Leibniz validation
    A = poisson_window_algebra(2, 1, 3)
    Q = quantized_window_algebra(2, 1, 3)
    assert A.dim == Q.dim
    assert A.bracket is not None and Q.bracket is None


def test_envelope_window_algebra_quotient():
    from poissonenv.envelope import EnvelopePresentation
    from poissonenv.quantize import envelope_window_algebra

    pres = EnvelopePresentation(
        2, (multiply(gen(1), gen(1)),), 1, 3
    )
    A = envelope_window_algebra(pres, 3)
    # degree-0 part 1, x1, x2, x2^2, x1*x2, x2^3, x1*x2^2 minus x1^2-multiples
    labels = set(A.labels)
    assert "1" in labels and "x1*x1" not in labels
    assert A.bracket is not None


def test_envelope_window_algebra_of_the_whole_window_is_refused():
    from poissonenv.envelope import EnvelopePresentation, envelope_truncated
    from poissonenv.quantize import envelope_window_algebra

    pres = EnvelopePresentation(2, (PoissonElement.one(),), 1, 2)
    assert [p.quotient_rank for p in envelope_truncated(pres)] == [0, 0]
    with pytest.raises(ValueError, match="generate the whole window"):
        envelope_window_algebra(pres, 3)


def test_unit_edge_cases():
    from poissonenv.freepoisson import e_inverse, symmetrize
    from poissonenv.freelie import TensorElement

    one_t = TensorElement.one()
    assert symmetrize(PoissonElement.one()) == one_t
    assert e_inverse(one_t) == PoissonElement.one()


def test_nc_embed_rejects_foreign_letters():
    alg = QuantizedAlgebra(2, 1)
    with pytest.raises(ValueError):
        nc_embed(alg, (1, 3))


def test_engine_matches_generic_filtration():
    # one algebra in two representations: the PBW window, whose filtration
    # brackets with the letters, and its structure-constant table, whose
    # filtration brackets with every basis vector; the chains must agree
    # span for span
    from poissonenv.filtration import commutator_filtration

    cap = 4
    for d in (1, 2, 3):
        win = UWindow(2, d, cap)
        alg = quantized_window_algebra(2, d, cap)
        assert [
            "*".join(repr(f) for f in t) or "1" for t in win.tuples
        ] == alg.labels
        chain_engine = win.filtration(d + 1)
        chain_generic = commutator_filtration(alg)
        assert len(chain_engine) == d + 2
        for n in range(d + 2):
            generic_rows = chain_generic.piece_basis(n)
            engine = chain_engine[n]
            assert engine.rank == len(generic_rows)
            for row in generic_rows:
                assert engine.contains(row)
        # past the stable zero piece the chain repeats it
        assert [e.rank for e in win.filtration(d + 3)[d + 1 :]] == [0, 0, 0]


def test_u_window_filtration_is_computed_once():
    win = UWindow(2, 1, 3)
    short = win.filtration(1)
    long = win.filtration(4)
    assert len(short) == 2 and len(long) == 5
    assert all(a is b for a, b in zip(short, long))
    # F_2 = 0 is the stable piece, repeated past the end
    assert [e.rank for e in long[2:]] == [0, 0, 0]
    assert long[2] is long[3] is long[4]


@pytest.mark.parametrize(
    "build, shape, name",
    [
        (poisson_window_algebra, (2, 1, 3), "poisson_window_2_1_3.json"),
        (quantized_window_algebra, (2, 1, 4), "quantized_window_2_1_4.json"),
    ],
)
def test_window_algebras_match_pinned_files(build, shape, name):
    path = Path(__file__).parent / "data" / name
    assert build(*shape).to_json_dict() == json.loads(path.read_text())


@pytest.mark.parametrize("shape", [(2, 1, 5), (3, 1, 3)])
def test_capped_right_closure_of_letters_is_positive_part(shape):
    # the claim behind star_ideal_topology_check's first stage: every tuple
    # of total >= 1 starts with a letter, so closing the letters under
    # right products capped at total c spans all tuples of total 1 .. c
    win = UWindow(*shape)
    for cap in range(1, win.max_total + 1):
        span = span_closure(_capped_right_products(win, cap), win.generators())
        inside = [i for i, t in enumerate(win.totals) if 1 <= t <= cap]
        assert span.rank == len(inside)
        assert all(span.contains({i: Fraction(1)}) for i in inside)


def _reference_mul(win, v, w):
    # per-tuple product: recompute totals and the monomial product every pair
    out = {}
    for i, c1 in v.items():
        for j, c2 in w.items():
            t1, t2 = win.tuples[i], win.tuples[j]
            if sum(len(f.word) for f in t1 + t2) > win.max_total:
                continue
            for k, c in win.mono_mul(t1, t2).items():
                out[k] = out.get(k, 0) + c1 * c2 * c
    return {k: c for k, c in out.items() if c}


def _reference_commutator(win, v, w):
    out = dict(_reference_mul(win, v, w))
    for k, c in _reference_mul(win, w, v).items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


@pytest.mark.parametrize("shape", [(2, 2, 6), (3, 1, 5)])
def test_u_window_mul_and_commutator_match_per_tuple_reference(shape):
    win = UWindow(*shape)
    rng = random.Random(sum(shape))

    def rand_vec(cap):
        # indices of total <= cap, so that some pairs fit the window
        pool = [i for i, t in enumerate(win.totals) if t <= cap]
        return {
            i: Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 2)))
            for i in rng.sample(pool, rng.randint(1, 4))
        }

    nonzero = 0
    for _ in range(40):
        v, w = rand_vec(3), rand_vec(win.max_total)
        if rng.random() < 0.5:
            v, w = w, v
        prod = win.mul(v, w)
        assert prod == _reference_mul(win, v, w)
        assert win.commutator(v, w) == _reference_commutator(win, v, w)
        nonzero += bool(prod)
    assert nonzero >= 20


@pytest.mark.parametrize("shape", [(2, 2, 6), (3, 1, 5)])
def test_u_window_truncation_edge(shape):
    # index pairs with t1 + t2 = max_total survive, one more is dropped
    win = UWindow(*shape)
    top = win.max_total
    by_total = {}
    for i, t in enumerate(win.totals):
        by_total.setdefault(t, []).append(i)
    for t1 in range(1, top + 1):
        u = {by_total[t1][-1]: Fraction(2)}
        kept = {by_total[top - t1][0]: Fraction(1)}
        dropped = {by_total[top + 1 - t1][0]: Fraction(1)}
        assert win.mul(u, kept) and win.mul(u, kept) == _reference_mul(win, u, kept)
        assert win.mul(u, dropped) == {} and win.commutator(u, dropped) == {}
        mixed = {**kept, **dropped}
        assert win.mul(u, mixed) == _reference_mul(win, u, mixed)
        assert win.commutator(u, mixed) == _reference_commutator(win, u, mixed)


def _all_pairs_mul(win, v, w):
    # every index pair of v and w, in order, kept when it fits the window
    out = {}
    for i, c1 in v.items():
        for j, c2 in w.items():
            if win.totals[i] + win.totals[j] <= win.max_total:
                merge(out, win._row(i, j).items(), c1 * c2)
    return out


def _all_pairs_commutator(win, v, w):
    out = {}
    for i, c1 in v.items():
        for j, c2 in w.items():
            if win.totals[i] + win.totals[j] <= win.max_total:
                merge(out, win._row(i, j).items(), c1 * c2)
                merge(out, win._row(j, i).items(), -c1 * c2)
    return out


@pytest.mark.parametrize("shape", [(2, 2, 6), (3, 1, 5)])
def test_u_window_skips_only_pairs_that_cannot_fit(shape):
    # v and w mix low and high totals, so some indices of v have no room
    # for any index of w and others do; results and their key order must
    # be those of the sum over all pairs
    win = UWindow(*shape)
    rng = random.Random(7 * sum(shape))
    by_total = {}
    for i, t in enumerate(win.totals):
        by_total.setdefault(t, []).append(i)

    def rand_vec(totals):
        return {
            rng.choice(by_total[t]): Fraction(rng.choice((1, -1, 3)), rng.choice((1, 2)))
            for t in totals
        }

    top = win.max_total
    skipped = kept = 0
    for _ in range(60):
        v = rand_vec(rng.sample(range(top + 1), rng.randint(1, 4)))
        w = rand_vec(rng.sample(range(1, top + 1), rng.randint(1, 3)))
        if rng.random() < 0.5:
            v, w = w, v
        least = min(win.totals[j] for j in w)
        skipped += sum(top - win.totals[i] < least for i in v)
        kept += sum(top - win.totals[i] >= least for i in v)
        for got, want in (
            (win.mul(v, w), _all_pairs_mul(win, v, w)),
            (win.commutator(v, w), _all_pairs_commutator(win, v, w)),
        ):
            assert list(got.items()) == list(want.items())
    assert skipped >= 20 and kept >= 20
    assert win.mul({}, {0: Fraction(1)}) == {} == win.commutator({0: Fraction(1)}, {})


def test_u_window_at_total_zero_has_no_generators():
    # the window is k alone: no letter lies inside it, and k needs none
    assert UWindow(2, 0, 0).generators() == []


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda alg: graded_of_Q(alg, -1), "window N >= 0, got -1"),
        (lambda alg: commutator_filtration_Q(alg, 1, -1), "window N >= 0, got -1"),
        (lambda alg: commutator_filtration_Q(alg, -1, 1), "level n >= 0, got -1"),
    ],
)
def test_negative_window_or_level_is_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call(QuantizedAlgebra(2, 1))
