import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonenv import clear_caches, pbw, quantize
from poissonenv.envelope import EnvelopePresentation, _generators_up_to, ideal_block
from poissonenv.filtration import (
    _seed_lists,
    commutator_filtration,
    nil_poisson_filtration,
    span_closure,
)
from poissonenv.freelie import LieBasisElement, LieElement, TensorElement
from poissonenv.linalg import Echelon, merge
from poissonenv.freepoisson import (
    PoissonElement,
    e_inverse,
    monomials_star_maxpoly,
    monomials_star_total,
    multiply,
    poisson_bracket,
    star_component,
    star_product,
)
from poissonenv.quantize import (
    QuantizedAlgebra,
    UWindow,
    _star_power_included,
    commutator_filtration_Q,
    envelope_window_algebra,
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


# for polynomial coordinates the local model is the free Poisson algebra, so
# B^X_p is the free star component B_p
def test_bx_first_component():
    assert star_component(gen(1), gen(2), 1) == Fraction(1, 2) * lie((1, 2))


def test_bx_zero_component_is_product():
    a = multiply(gen(1), lie((1, 2)))
    assert star_component(a, gen(2), 0) == multiply(a, gen(2))


def test_bx_second_component_of_letters_vanishes():
    assert star_component(gen(1), gen(2), 2).is_zero()


def test_bx_star_degree_shift():
    a = multiply(gen(1), gen(1))
    b = multiply(gen(2), gen(2))
    for p in range(4):
        out = star_component(a, b, p)
        for m in out.terms:
            assert m.star_degree == p


def test_bx_poly_degree_bound():
    # polynomial in, polynomial out, with SV-degree at most the input sum
    a = multiply(gen(1), gen(1))
    b = multiply(multiply(gen(2), gen(2)), gen(1))
    for p in range(4):
        for m in star_component(a, b, p).terms:
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


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 1, 1), "n_gens must be an int, got True"),
        ((2, 1.0, 1), "d must be an int, got 1.0"),
        ((2, 1, True), "m must be an int, got True"),
        ((2, 1, "2"), "m must be an int, got '2'"),
    ],
)
def test_star_ideal_check_refuses_a_non_int(args, message):
    # a bool would be read as 0 or 1, and a float d fails in no count
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        star_ideal_topology_check(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((2.0, 1), "n_gens must be an int, got 2.0"),
        ((2, False), "d must be an int, got False"),
    ],
)
def test_quantized_algebra_refuses_a_non_int(args, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        QuantizedAlgebra(*args)


@pytest.mark.parametrize(
    "args, message",
    [
        ((True, 1, 3), "n_gens must be an int, got True"),
        ((2, True, 3), "d must be an int, got True"),
        ((2, 1, 3.0), "max_total must be an int, got 3.0"),
    ],
)
@pytest.mark.parametrize("build", [UWindow, u_window])
def test_u_window_refuses_a_non_int(build, args, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build(*args)


def test_cached_u_window_is_not_returned_for_a_bool():
    # True == 1 and hashes alike, so a bool would find the (2, 1, 3) window
    u_window(2, 1, 3)
    cached = dict(quantize._UWINDOW_CACHE)
    with pytest.raises(TypeError, match="^d must be an int, got True$"):
        u_window(2, True, 3)
    assert quantize._UWINDOW_CACHE == cached


@pytest.mark.parametrize(
    "build, args, message",
    [
        (poisson_window_algebra, (2, True, 3), "d must be an int, got True"),
        (poisson_window_algebra, (2, 1, True), "max_total must be an int, got True"),
        (quantized_window_algebra, (2, 1, True), "max_total must be an int, got True"),
        (quantized_window_algebra, (2, 1.0, 3), "d must be an int, got 1.0"),
        (
            envelope_window_algebra,
            (EnvelopePresentation(2, (), 1, 0), 3.0),
            "max_total must be an int, got 3.0",
        ),
    ],
)
def test_window_algebras_refuse_a_non_int(build, args, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        build(*args)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda alg: commutator_filtration_Q(alg, True, 1), "n must be an int, got True"),
        (lambda alg: commutator_filtration_Q(alg, 1, True), "N must be an int, got True"),
        (lambda alg: commutator_filtration_Q(alg, 1.0, 1), "n must be an int, got 1.0"),
        (lambda alg: graded_of_Q(alg, 1.5), "N must be an int, got 1.5"),
        (lambda alg: u_window(2, 1, 3).window(1.5), "max_poly must be an int, got 1.5"),
    ],
)
def test_window_entry_points_refuse_a_non_int(call, message):
    # each names the argument its caller passed, before any window is built
    win = u_window(2, 1, 3)
    kept = dict(win._windows)
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call(QuantizedAlgebra(2, 1))
    assert win._windows == kept


def test_window_refuses_a_negative_bound():
    win = u_window(2, 1, 3)
    kept = dict(win._windows)
    with pytest.raises(ValueError, match=r"^need SV-part bound max_poly >= 0, got -1$"):
        win.window(-1)
    assert win._windows == kept


@pytest.mark.parametrize(
    "args, message",
    [
        ((0, 1, 1), "need n_gens >= 1 and d >= 0, got 0 and 1"),
        ((2, -1, 1), "need n_gens >= 1 and d >= 0, got 2 and -1"),
        ((2, 1, 0), "need m >= 1, got 0"),
        ((2, 1, -1), "need m >= 1, got -1"),
    ],
)
def test_star_ideal_check_refuses_a_domain_error(args, message):
    # no generators or m < 1 would make the inclusion hold vacuously, and
    # d < 0 a float power
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        star_ideal_topology_check(*args)


def test_window_algebra_builders_validate():
    # constructors run the full associativity/Leibniz validation
    A = poisson_window_algebra(2, 1, 3)
    Q = quantized_window_algebra(2, 1, 3)
    assert A.dim == Q.dim
    assert A.bracket is not None and Q.bracket is None


def test_envelope_window_algebra_quotient():
    pres = EnvelopePresentation(
        2, (multiply(gen(1), gen(1)),), 1, 3
    )
    A = envelope_window_algebra(pres, 3)
    # degree-0 part 1, x1, x2, x2^2, x1*x2, x2^3, x1*x2^2 minus x1^2-multiples
    labels = set(A.labels)
    assert "1" in labels and "x1*x1" not in labels
    assert A.bracket is not None


def test_envelope_window_algebra_of_the_whole_window_is_refused():
    from poissonenv.envelope import envelope_truncated

    pres = EnvelopePresentation(2, (PoissonElement.one(),), 1, 2)
    assert [p.quotient_rank for p in envelope_truncated(pres)] == [0, 0]
    with pytest.raises(ValueError, match="generate the whole window"):
        envelope_window_algebra(pres, 3)


def _element_level_window_algebra(pres, max_total):
    """Labels and tables of the window algebra, each basis pair wrapped as
    two PoissonElements, multiplied and bracketed, and reduced to normal form
    in its windowed ideal block: the reference for the monomial tables."""
    d = pres.d
    gens = _generators_up_to(pres, d)
    blocks, basis = {}, []
    for total in range(max_total + 1):
        for q in range(min(d, total) + 1):
            cols, ech = ideal_block(pres, q, total, gens)
            index = {m: i for i, m in enumerate(cols)}
            blocks[q, total] = cols, index, ech
            monos = monomials_star_total(pres.n_gens, q, total)
            basis += [m for m in monos if index[m] not in ech.rows]
    gindex = {m: i for i, m in enumerate(basis)}

    def reduce(element):
        out = {}
        for m, c in element.terms.items():
            if m.star_degree <= d and m.total_degree <= max_total:
                cols, index, ech = blocks[m.star_degree, m.total_degree]
                for i, v in ech.normal_form({index[m]: c}).items():
                    merge(out, [(gindex[cols[i]], v)])
        return out

    product, bracket = {}, {}
    for i, m1 in enumerate(basis):
        e1 = PoissonElement.monomial(m1)
        for j, m2 in enumerate(basis):
            e2 = PoissonElement.monomial(m2)
            for table, row in [
                (product, reduce(multiply(e1, e2))),
                (bracket, reduce(poisson_bracket(e1, e2))),
            ]:
                if row:
                    table[i, j] = row
    return [repr(m) for m in basis], product, bracket


def _assert_window_algebra_matches_elements(pres, max_total):
    alg = envelope_window_algebra(pres, max_total)
    labels, product, bracket = _element_level_window_algebra(pres, max_total)
    assert alg.labels == labels
    assert alg.product == product
    assert alg.bracket == bracket


@pytest.mark.parametrize(
    "n_gens, d, max_total, quadric",
    # the shapes of the benchmark's presented workload with a two-term
    # quadric, and poisson_window_algebra(2, 2, 4), the window with no relation,
    # and (2, 1, 6, False), dim 43, where most pairs lie past the window
    [
        (2, 1, 5, True),
        (2, 2, 4, True),
        (3, 1, 2, True),
        (3, 2, 2, True),
        (2, 2, 4, False),
        (2, 1, 6, False),
    ],
)
def test_window_algebra_matches_the_element_level_loop(n_gens, d, max_total, quadric):
    relations = (gen(1) * gen(2) + 2 * gen(1) * gen(1),) if quadric else ()
    pres = EnvelopePresentation(n_gens, relations, d, 2 if quadric else 0)
    _assert_window_algebra_matches_elements(pres, max_total)


@st.composite
def _homogeneous_quadrics(draw):
    n = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3, unique=True))
    coeffs = st.sampled_from((-2, -1, 1, 2, Fraction(1, 2)))
    quadric = sum((draw(coeffs) * gen(i) * gen(j) for i, j in chosen), PoissonElement.zero())
    return n, quadric, draw(st.integers(0, 2)), draw(st.integers(0, 4 if n < 3 else 2))


@settings(deadline=None, max_examples=25)
@given(_homogeneous_quadrics())
def test_window_algebra_of_a_random_quadric_matches_the_element_level_loop(case):
    n_gens, quadric, d, max_total = case
    _assert_window_algebra_matches_elements(
        EnvelopePresentation(n_gens, (quadric,), d, 2), max_total
    )


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
            generic_rows = chain_generic[n].basis()
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


def _quadric_window_algebra(n_gens, d, max_total):
    pres = EnvelopePresentation(n_gens, (gen(1) * gen(2) + 2 * gen(1) * gen(1),), d, 2)
    return envelope_window_algebra(pres, max_total)


@pytest.mark.parametrize(
    "build, shape, name",
    [
        (poisson_window_algebra, (2, 1, 3), "poisson_window_2_1_3.json"),
        (quantized_window_algebra, (2, 1, 4), "quantized_window_2_1_4.json"),
        (_quadric_window_algebra, (2, 2, 4), "envelope_window_2_2_4.json"),
    ],
)
def test_window_algebras_match_pinned_files(build, shape, name):
    path = Path(__file__).parent / "data" / name
    assert build(*shape).to_json_dict() == json.loads(path.read_text())


@pytest.mark.parametrize(
    "build, shape", [(_quadric_window_algebra, (2, 2, 4)), (poisson_window_algebra, (3, 1, 5))]
)
def test_window_algebra_brackets_each_in_window_pair_once(monkeypatch, build, shape):
    # a bracket past the window is 0 by the gradings, and {m2, m1} is
    # -{m1, m2}: neither is computed
    calls = []
    bracket_monomials = quantize._bracket_monomials

    def record(m1, m2):
        calls.append((m1, m2))
        return bracket_monomials(m1, m2)

    monkeypatch.setattr(quantize, "_bracket_monomials", record)
    alg = build(*shape)
    _, d, max_total = shape
    index = {label: i for i, label in enumerate(alg.labels)}
    pairs = [(index[repr(m1)], index[repr(m2)]) for m1, m2 in calls]
    assert calls and len(set(pairs)) == len(pairs)
    for (i, j), (m1, m2) in zip(pairs, calls):
        assert i < j
        assert m1.star_degree + m2.star_degree < d
        assert m1.total_degree + m2.total_degree <= max_total


@pytest.mark.parametrize(
    "n_gens, relation, max_total",
    [
        (2, gen(1) * gen(2) + 2 * gen(1) * gen(1), 4),
        (3, gen(1) * gen(2) - gen(3) * gen(3), 5),
    ],
)
def test_window_algebra_reduces_each_monomial_once(monkeypatch, n_gens, relation, max_total):
    # every product and bracket row is read off one kept normal form per
    # window monomial, so no block reduces the same unit row twice
    calls = []
    normal_form = Echelon.normal_form

    def record(self, row):
        calls.append((self, tuple(row.items())))
        return normal_form(self, row)

    monkeypatch.setattr(Echelon, "normal_form", record)
    envelope_window_algebra(EnvelopePresentation(n_gens, (relation,), 2, 2), max_total)
    keys = [(id(ech), row) for ech, row in calls]
    assert keys and len(set(keys)) == len(keys)
    assert all(len(row) == 1 and row[0][1] == 1 for _, row in calls)


@pytest.mark.parametrize("shape", [(2, 1, 4), (2, 3, 4), (3, 3, 4)])
def test_quantized_window_algebra_is_the_table_of_every_pair(shape):
    # the table of the window's products over all dim^2 pairs, in row-major
    # order, entry for entry and in the same order
    win = UWindow(*shape)
    pairs = [(i, j) for i in range(win.dim) for j in range(win.dim)]
    want = {ij: row for ij in pairs if (row := win._row(*ij))}
    got = quantized_window_algebra(*shape).product
    assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("shape", [(2, 2, 4), (3, 1, 3)])
def test_quantized_window_algebra_asks_no_pair_past_the_total_bound(monkeypatch, shape):
    # a pair whose totals sum past max_total has the product 0 and is never
    # asked for; every pair inside the bound is, once
    calls = []
    row = UWindow._row

    def record(self, i, j):
        calls.append((i, j))
        return row(self, i, j)

    monkeypatch.setattr(UWindow, "_row", record)
    alg = quantized_window_algebra(*shape)
    totals = UWindow(*shape).totals
    inside = [
        (i, j)
        for i in range(alg.dim)
        for j in range(alg.dim)
        if totals[i] + totals[j] <= shape[2]
    ]
    assert calls == inside


# -- J^{*k} built by products: the reference for the star-ideal check -------


def _capped_right_products(win, cap):
    # right products by the letters on total-homogeneous vectors; a product
    # past total cap is 0, and is never formed
    def right(lv):
        return lambda v: win.mul(v, lv) if win.totals[next(iter(v))] < cap else {}

    return [right(lv) for lv in win.generators()]


@pytest.mark.parametrize("shape", [(2, 1, 5), (3, 1, 3)])
def test_capped_right_closure_of_letters_is_positive_part(shape):
    # every tuple of total >= 1 starts with a letter, so closing the letters
    # under right products capped at total c spans all tuples of total 1 .. c
    win = UWindow(*shape)
    for cap in range(1, win.max_total + 1):
        span = span_closure(Echelon(), _capped_right_products(win, cap), win.generators())
        inside = [i for i, t in enumerate(win.totals) if 1 <= t <= cap]
        assert span.rank == len(inside)
        assert all(span.contains({i: Fraction(1)}) for i in inside)


def _closure_stage(win, prev, k):
    # stage k >= 2: the right products of J^{*(k-1)} by the letters, closed
    # under right letter products
    maps = _capped_right_products(win, k + quantize._EXTRA_TOTALS)
    return span_closure(Echelon(), maps, [f(v) for v in prev.basis() for f in maps])


def _product_stage(win, prev):
    # stage k >= 2 as one right product of J^{*(k-1)} by the letters
    letters = win.generators()
    return Echelon.spanning(win.mul(v, x) for v in prev.rows.values() for x in letters)


def _first_stage(win):
    # J up to total 3, the right closure of the letters
    maps = _capped_right_products(win, 1 + quantize._EXTRA_TOTALS)
    return span_closure(Echelon(), maps, win.generators())


def _reference_power(win, k):
    # J^{*k} up to total k + 2, built stage by stage from J
    stage = _first_stage(win)
    for _ in range(2, k + 1):
        stage = _product_stage(win, stage)
    return stage


def _same_span(a, b):
    return (
        a.rank == b.rank
        and all(a.contains(row) for row in b.rows.values())
        and all(b.contains(row) for row in a.rows.values())
    )


# -- the graded chain's one-sided closure ------------------------------------


def _two_sided_chain(win):
    """F_1, F_2, ... of ``win`` closed from the deepest level up under the
    products by the letters on both sides, each from a copy of the one
    below: the reference for the chain's closure by left products alone."""
    levels = []
    for seeds in _seed_lists(win, win.commutator):
        if not seeds:
            break
        levels.append(seeds)
    below = Echelon()
    deep = [below]
    for seeds in reversed(levels):
        below = span_closure(below.copy(), win._ideal_maps(), seeds)
        deep.append(below)
    return deep[::-1]


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 7))
def test_left_products_close_each_piece_of_the_graded_chain(n_gens, d, max_total):
    # v x = x v - [x, v], and [x, v] lies in the piece below by (A) of the
    # filtration module, so a piece grown from that piece is closed on the
    # right once it is closed on the left; the grid of the Hilbert property
    max_total = min(max_total, 9 - 2 * n_gens)
    win = UWindow(n_gens, d, max_total)
    want = _two_sided_chain(win)
    got = win.filtration(len(want))
    for n, piece in enumerate(want, 1):
        assert _same_span(got[n], piece), n


@pytest.mark.parametrize(
    "build, shape",
    [
        (UWindow, (2, 2, 6)),
        (quantized_window_algebra, (2, 1, 4)),
        (poisson_window_algebra, (2, 1, 3)),
    ],
    ids=["window", "quantized", "poisson"],
)
def test_every_chain_starts_from_the_unit_rows_in_index_order(build, shape):
    alg = build(*shape)
    chains = [commutator_filtration(alg)]
    if getattr(alg, "bracket", None) is not None:
        chains.append(nil_poisson_filtration(alg))
    want = list(Echelon.spanning({i: 1} for i in range(alg.dim)).rows.items())
    for chain in chains:
        assert list(chain[0].rows.items()) == want


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(2, 4), st.integers(0, 2))
def test_one_right_product_stage_equals_the_closure_stage(n_gens, d, top, extra):
    # J^{*(k-1)} is a right ideal, so one right product by the letters is
    # already closed; windows as tall as the check's (top + 2) and lower
    win = u_window(n_gens, d, top + extra)
    stage = _first_stage(win)
    for k in range(2, top + 1):
        closed = _closure_stage(win, stage, k)
        stage = _product_stage(win, stage)
        assert _same_span(stage, closed), k


def _coordinate_span(win, low, high):
    return Echelon.spanning({i: 1} for i, t in enumerate(win.totals) if low <= t <= high)


@pytest.mark.parametrize("shape", [(2, 1, 5), (3, 1, 3), (2, 2, 6)])
def test_star_powers_of_the_augmentation_ideal_are_the_totals_past_k(shape):
    # the grading lemma behind star_ideal_topology_check: the window is
    # graded by total and generated in total 1, so J^{*k} is the span of
    # the tuples of total >= k
    win = UWindow(*shape)
    stage = _first_stage(win)
    assert _same_span(stage, _coordinate_span(win, 1, min(3, win.max_total)))
    for k in range(2, win.max_total + 1):
        stage = _product_stage(win, stage)
        top = min(k + quantize._EXTRA_TOTALS, win.max_total)
        assert _same_span(stage, _coordinate_span(win, k, top)), k


def _reference_included(win, power, m):
    target = win.poisson_span(
        [
            mono
            for mono in win.monomials
            if mono.total_degree >= power
            and (mono.poly_degree >= m or mono.star_degree >= m)
        ]
    )
    return all(target.contains(row) for row in _reference_power(win, power).rows.values())


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3), st.data())
def test_counted_inclusion_equals_the_product_built_one(n_gens, d, m, data):
    # powers from 1 to the check's bound, capped at 7 to keep the windows
    # small; below the bound the inclusion may fail
    bound = m * max(2, d) ** d + d
    power = data.draw(st.integers(1, min(bound, 7)), label="power")
    win = u_window(n_gens, d, power + quantize._EXTRA_TOTALS)
    counted = _star_power_included(n_gens, d, m, power, win.max_total)
    assert counted == _reference_included(win, power, m)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 7), st.data())
def test_e_images_of_distinct_monomials_are_independent(n_gens, d, max_total, data):
    # the lemma the counted inclusion rests on: capped e is unitriangular in
    # the factor count, so any set of window monomials keeps its size
    win = u_window(n_gens, d, max_total)
    picks = data.draw(
        st.lists(st.integers(0, win.dim - 1), unique=True, max_size=40), label="picks"
    )
    assert win.poisson_span([win.monomials[i] for i in picks]).rank == len(picks)


@pytest.mark.parametrize("config", [(2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 1, 2), (3, 2, 2)])
def test_star_ideal_check_builds_no_window(monkeypatch, config):
    # the inclusion is a count over plus parts: no window, no elimination,
    # no e-image table, and nothing kept for a later window
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")

        return call

    monkeypatch.setattr(quantize, "u_window", refuse("u_window"))
    monkeypatch.setattr(UWindow, "__init__", refuse("UWindow"))
    monkeypatch.setattr(Echelon, "add", refuse("Echelon.add"))
    monkeypatch.setattr(pbw, "sym_table", refuse("pbw.sym_table"))
    cached = dict(quantize._UWINDOW_CACHE)
    assert star_ideal_topology_check(*config).included
    assert quantize._UWINDOW_CACHE == cached


def test_star_power_below_the_bound_is_not_included():
    # the docstring's case: at d = 1 the literal order 1 would give the bound
    # N = 3 for m = 2, and x1 * x1 * x2 picks up x1*(12) of SV-degree 1
    win = u_window(2, 1, 3 + quantize._EXTRA_TOTALS)
    assert not _star_power_included(2, 1, 2, 3, win.max_total)
    assert not _reference_included(win, 3, 2)
    # one generator has no factor of positive star, so no such term
    win = u_window(1, 1, 3 + quantize._EXTRA_TOTALS)
    assert _star_power_included(1, 1, 2, 3, win.max_total)
    assert _reference_included(win, 3, 2)


@pytest.mark.parametrize(
    "config, pinned",
    [
        ((2, 0, 1), (1, 3, True)),
        ((2, 1, 1), (3, 5, True)),
        ((2, 0, 2), (2, 4, True)),
        ((2, 1, 2), (5, 7, True)),
        ((2, 2, 1), (6, 8, True)),
        ((3, 1, 1), (3, 5, True)),
        ((2, 2, 2), (10, 12, True)),
        ((3, 2, 2), (10, 12, True)),
        ((2, 3, 1), (30, 32, True)),
        ((4, 2, 2), (10, 12, True)),
        # no elimination finishes this one; power and max_total by the formula
        ((3, 3, 1), (30, 32, True)),
    ],
)
def test_star_ideal_reports_are_pinned(config, pinned):
    rep = star_ideal_topology_check(*config)
    assert (rep.power, rep.max_total, rep.included) == pinned


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


def test_u_window_straightens_no_product_past_the_star_bound():
    # a pair whose star degrees sum past d has the row 0 by the grading
    # alone, so its concatenation is never straightened or memoized, nor is
    # the pair kept with an empty row
    clear_caches()
    win = UWindow(2, 1, 6)
    stars, totals = [m.star_degree for m in win.monomials], win.totals
    over = [
        (i, j)
        for i in range(win.dim)
        for j in range(win.dim)
        if stars[i] + stars[j] > win.d and totals[i] + totals[j] <= win.max_total
    ]
    assert len(over) > 10
    i, j = over[0]
    assert win.mul({i: Fraction(2)}, {j: Fraction(1)}) == {}
    product = win.tuples[i] + win.tuples[j]
    assert all(t != product for t, _ in pbw._NORMAL_CACHE)
    for i, j in over:
        assert win.mul({i: 1}, {j: 1}) == {} == win.commutator({i: 1}, {j: 1})
    assert pbw._NORMAL_CACHE == {} == win._rows


@pytest.mark.parametrize("shape", [(2, 2, 6), (3, 1, 5), (2, 3, 7), (3, 2, 5)])
def test_u_window_row_is_zero_exactly_past_a_bound(shape):
    # every term of a straightened product keeps the pair's total and has at
    # least its star sum, and the sorted concatenation is a term: the row is
    # the star <= d part of the full straightened product, by coordinate,
    # and nonzero exactly inside both bounds
    win = UWindow(*shape)
    stars = [m.star_degree for m in win.monomials]
    for i in range(win.dim):
        for j in range(win.dim):
            fits = win.totals[i] + win.totals[j] <= win.max_total
            row = win._row(i, j)
            if fits:
                product = pbw.normal_table(win.tuples[i] + win.tuples[j])
                want = {
                    win.index[t]: c
                    for t, c in product.items()
                    if sum(f.star_degree for f in t) <= win.d
                }
                assert row == want
            assert bool(row) == (fits and stars[i] + stars[j] <= win.d)


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


@pytest.mark.parametrize(
    "n_gens, d, N", [(2, 3, 5), (3, 2, 3), (2, 4, 3), (3, 3, 3)]
)
def test_deep_windows_match_the_star_tail_and_the_graded_envelope(n_gens, d, N):
    # past the suite's other windows: 3 generators at d = 2 and 3, d = 4, N = 5
    alg = QuantizedAlgebra(n_gens, d)
    for n in range(d + 2):
        assert commutator_filtration_Q(alg, n, N).matches, n
    assert all(rep.matches for rep in graded_of_Q(alg, N))
    _assert_reports_match_the_reference(n_gens, d, N)


@pytest.mark.parametrize(
    "shape, message",
    [
        ((0, 1, 3), "got 0, 1 and 3"),
        ((2, -1, 3), "got 2, -1 and 3"),
        ((2, 1, -1), "got 2, 1 and -1"),
    ],
)
def test_u_window_refuses_a_domain_error(shape, message):
    need = "need n_gens >= 1, d >= 0 and max_total >= 0, "
    with pytest.raises(ValueError, match=need + message):
        UWindow(*shape)


def test_window_comparison_is_built_once_per_bound(monkeypatch):
    # graded_of_Q and every level of commutator_filtration_Q read one kept
    # comparison per SV-part bound, whose ranks come from one running cut
    alg = QuantizedAlgebra(2, 2)
    win = UWindow(2, 2, 2 + 2 * alg.d)
    monkeypatch.setitem(quantize._UWINDOW_CACHE, (2, 2, win.max_total), win)
    cuts = []

    class Counting(Echelon):
        def __init__(self):
            super().__init__()
            cuts.append(self)

    monkeypatch.setattr(quantize, "Echelon", Counting)
    for _ in range(2):
        graded_of_Q(alg, 2)
        for n in range(alg.d + 2):
            assert commutator_filtration_Q(alg, n, 2).matches
    assert list(win._windows) == [2]
    tails, ranks = win.window(2)
    assert win.window(2) is win._windows[2]
    assert len(tails) == len(ranks) == alg.d + 2
    assert len(cuts) == 1
    chain = win.filtration(alg.d + 1)
    inside = set(tails[0])
    assert ranks == [_reference_rank_inside(f, inside) for f in chain]
    assert tails[alg.d + 1] == []
    for n, tail in enumerate(tails):
        # each tail is the star >= n part of the SV-part bound's coordinates
        assert tail == [i for i in tails[0] if win.stars[i] >= n]
    win.window(1)
    assert list(win._windows) == [2, 1]
    assert len(cuts) == 2


def _reference_rank_inside(ech, inside):
    """dim(span ech & the coordinate span of the columns ``inside``), one
    elimination per level: the rank of ``ech`` less the rank of its rows
    cut to the columns outside, as that cut is a projection whose kernel is
    the intersection."""
    cut = ({c: v for c, v in row.items() if c not in inside} for row in ech.rows.values())
    return ech.rank - Echelon.spanning(cut).rank


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_window_ranks_equal_one_projection_per_level(n_gens, d, N):
    win = u_window(n_gens, d, N + 2 * d)
    tails, ranks = win.window(N)
    inside = set(tails[0])
    chain = win.filtration(d + 1)
    assert ranks == [_reference_rank_inside(f, inside) for f in chain]


def _reference_intersection_rank(a, b):
    ech = a.copy()
    return b.rank - sum(ech.add(row) for row in b.rows.values())


def reference_window_reports(alg, N):
    """Both reports computed directly, with no kept chain of tails: a
    copy-and-add intersection against the e-image span of the whole window,
    one tail span per level and one P_n span per star slice."""
    win = u_window(alg.n_gens, alg.d, N + 2 * alg.d)
    chain = win.filtration(alg.d + 1)
    window = [m for m in win.monomials if m.poly_degree <= N]
    whole = win.poisson_span(window)
    levels = []
    for n in range(alg.d + 2):
        tail = win.poisson_span([m for m in window if m.star_degree >= n])
        levels.append(
            quantize.FiltrationWindowReport(
                n=n,
                N=N,
                rank_filtration=_reference_intersection_rank(chain[n], whole),
                rank_expected=tail.rank,
                tail_inside_filtration=all(
                    chain[n].contains(row) for row in tail.basis()
                ),
            )
        )
    graded = [
        quantize.GradedRankReport(
            n=n,
            graded_rank=levels[n].rank_filtration - levels[n + 1].rank_filtration,
            envelope_rank=win.poisson_span(
                [m for m in window if m.star_degree == n]
            ).rank,
        )
        for n in range(alg.d + 1)
    ]
    return levels, graded


def _assert_reports_match_the_reference(n_gens, d, N):
    alg = QuantizedAlgebra(n_gens, d)
    levels, graded = reference_window_reports(alg, N)
    assert [commutator_filtration_Q(alg, n, N) for n in range(d + 2)] == levels
    assert graded_of_Q(alg, N) == graded


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_window_reports_equal_the_reference(n_gens, d, N):
    _assert_reports_match_the_reference(n_gens, d, min(N, 5 - n_gens))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3))
def test_each_star_tail_is_the_span_of_its_coordinates(n_gens, d, N):
    # the e-images of the window monomials of star >= n and SV-part <= N
    # span exactly the coordinates of those monomials
    N = min(N, 5 - n_gens)
    win = u_window(n_gens, d, N + 2 * d)
    tails, _ = win.window(N)
    for n, tail in enumerate(tails):
        span = win.poisson_span(
            [m for m in win.monomials if m.star_degree >= n and m.poly_degree <= N]
        )
        assert span.rank == len(tail), n
        assert all(span.contains({i: 1}) for i in tail), n


@settings(deadline=None, max_examples=60)
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, n), max_size=6))
    ),
    st.integers(0, 3),
)
@example((3, [3, 1, 2, 1, 3]), 3)  # tables over the denominators 1, 2, 6 and 12
def test_nc_embed_is_the_capped_e_inverse_of_its_word(case, d):
    n_gens, word = case
    alg = QuantizedAlgebra(n_gens, d)
    got = nc_embed(alg, tuple(word))
    assert got == e_inverse(TensorElement.word(word)).star_truncate(d)
