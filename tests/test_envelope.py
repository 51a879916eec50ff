import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonenv import envelope, quantize
from poissonenv.envelope import (
    EnvelopePresentation,
    _generators_up_to,
    _legs,
    _window_part,
    envelope_truncated,
    gap_witness,
    induced_hom,
    local_model_bracket,
    p1_rank_check,
    poisson_ideal_generators,
)
from poissonenv.freelie import (
    LieBasisElement,
    LieElement,
    bracket_basis,
    generator,
    lyndon_words,
)
from poissonenv.freepoisson import (
    PoissonElement,
    PoissonMonomial,
    monomials_star_maxpoly,
    monomials_star_total,
    multiply,
    poisson_bracket,
    sv_tuples,
)
from poissonenv.linalg import Echelon, merge
from poissonenv.quantize import envelope_window_algebra


def gen(i):
    return PoissonElement.generator(i)


def lie(word):
    return PoissonElement.from_lie(LieElement.basis(LieBasisElement.from_word(word)))


def sq(i):
    return multiply(gen(i), gen(i))


def test_generators_degree_zero_are_relations():
    pres = EnvelopePresentation(2, (sq(1),), 1, 2)
    assert poisson_ideal_generators(pres, 0) == [sq(1)]


def test_generators_degree_one_contains_leibniz_bracket():
    pres = EnvelopePresentation(2, (sq(1),), 1, 2)
    gens = poisson_ideal_generators(pres, 1)
    expected = -2 * multiply(gen(1), lie((1, 2)))
    assert any(g == expected or g == -1 * expected for g in gens)


def test_generators_empty_relations():
    pres = EnvelopePresentation(2, (), 2, 2)
    assert poisson_ideal_generators(pres, 1) == []


def test_generators_degree_exceeds_bound():
    pres = EnvelopePresentation(2, (sq(1),), 1, 2)
    with pytest.raises(ValueError):
        poisson_ideal_generators(pres, 2)


def test_generators_negative_degree_is_refused():
    pres = EnvelopePresentation(2, (sq(1),), 1, 2)
    with pytest.raises(ValueError, match="negative"):
        poisson_ideal_generators(pres, -1)


@pytest.mark.parametrize("n", [True, 1.0])
def test_generators_refuse_a_non_int_degree(n):
    # True would be read as star degree 1
    pres = EnvelopePresentation(2, (sq(1),), 1, 2)
    with pytest.raises(TypeError, match=f"^n must be an int, got {n}$"):
        poisson_ideal_generators(pres, n)


def test_presentation_validation():
    with pytest.raises(ValueError):
        EnvelopePresentation(2, (PoissonElement.zero(),), 1, 2)
    with pytest.raises(ValueError):
        EnvelopePresentation(2, (lie((1, 2)),), 1, 2)
    with pytest.raises(ValueError):
        EnvelopePresentation(2, (sq(1),), 1, 1)  # window below relation degree


@pytest.mark.parametrize(
    "args, message",
    [
        ((2.0, (), 1, 2), "n_gens must be an int, got 2.0"),
        ((2, (), True, 2), "d must be an int, got True"),
        ((2, (), 1, 2.0), "N must be an int, got 2.0"),
    ],
)
def test_presentation_refuses_a_non_int(args, message):
    # a bool d would be read as 0 or 1, and a float fails only inside a range
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        EnvelopePresentation(*args)


def test_free_envelope_matches_enumeration():
    pres = EnvelopePresentation(2, (), 2, 2)
    for piece in envelope_truncated(pres):
        window = monomials_star_maxpoly(2, piece.star_degree, 2)
        assert piece.quotient_rank == len(window)
        assert piece.exact


def test_truncated_polynomial_line():
    pres = EnvelopePresentation(1, (sq(1),), 0, 3)
    pieces = envelope_truncated(pres)
    assert pieces[0].quotient_rank == 2  # basis 1, x


def test_collapsed_generator_kills_two_forms():
    pres = EnvelopePresentation(2, (gen(1),), 1, 3)
    pieces = envelope_truncated(pres)
    assert pieces[1].quotient_rank == 0


def test_p1_free_two_generators():
    pres = EnvelopePresentation(2, (), 1, 1)
    assert p1_rank_check(pres) == (3, 3)


def test_p1_single_generator_vanishes():
    pres = EnvelopePresentation(1, (), 1, 2)
    assert p1_rank_check(pres) == (0, 0)


def test_p1_hyperbola_relation():
    pres = EnvelopePresentation(2, (multiply(gen(1), gen(2)),), 1, 2)
    computed, omega2 = p1_rank_check(pres)
    assert computed == omega2


def test_inhomogeneous_relation_flagged_and_collapses():
    # x1^2 = 1 makes x1 a unit, so dx1 = 0 and the two-forms vanish
    f = sq(1) - PoissonElement.one()
    pres = EnvelopePresentation(2, (f,), 1, 2)
    pieces = envelope_truncated(pres)
    assert not pieces[1].exact
    assert pieces[1].quotient_rank == 0
    computed, omega2 = p1_rank_check(pres)
    assert computed == omega2 == 0


def test_gap_witness_values():
    side, naive = gap_witness()
    assert side.is_zero()
    m1 = PoissonMonomial.of(
        (LieBasisElement.from_word((1, 3)), LieBasisElement.from_word((2, 4)))
    )
    m2 = PoissonMonomial.of(
        (LieBasisElement.from_word((1, 2)), LieBasisElement.from_word((3, 4)))
    )
    assert naive == PoissonElement.monomial(m1) + PoissonElement.monomial(m2)


def test_gap_witness_any_injective_assignment():
    for idx in ((2, 1, 4, 3), (4, 3, 2, 1), (1, 3, 2, 4)):
        side, naive = gap_witness(idx)
        assert side.is_zero() and not naive.is_zero()


def test_gap_witness_reads_its_generator_count_from_the_indices():
    # the naive rule differentiates in every letter up to the largest index,
    # so x5 is not dropped from the image
    side, naive = gap_witness((1, 2, 3, 5))
    assert side.is_zero()
    want = PoissonElement.zero()
    for w1, w2 in (((1, 2), (3, 5)), ((1, 3), (2, 5))):
        m = PoissonMonomial.of(
            (LieBasisElement.from_word(w1), LieBasisElement.from_word(w2))
        )
        want = want + PoissonElement.monomial(m)
    assert naive == want


@pytest.mark.parametrize(
    "indices, message",
    [
        ((0, 1, 2, 3), "distinct generator indices >= 1"),
        ((-1, 2, 3, 4), "distinct generator indices >= 1"),
        ((1, 2, 2, 3), "4 distinct generator"),
        ((1, 2, 3), "4 distinct generator"),
        ((1, 2, 3, 4, 5), "4 distinct generator"),
    ],
)
def test_gap_witness_refuses_a_bad_index(indices, message):
    with pytest.raises(ValueError, match=message):
        gap_witness(indices)


@pytest.mark.parametrize(
    "entry",
    [envelope_truncated, p1_rank_check, lambda pres: envelope_window_algebra(pres, 2)],
    ids=["envelope_truncated", "p1_rank_check", "envelope_window_algebra"],
)
def test_a_relation_letter_past_n_gens_is_refused(entry):
    # x3 is no generator of a 2-generator presentation; building the
    # presentation refuses it before any entry point sees the relation
    with pytest.raises(ValueError, match=r"letter 3 outside 1\.\.2"):
        entry(EnvelopePresentation(2, (multiply(gen(1), gen(3)),), 1, 2))
    with pytest.raises(ValueError, match=r"letter 0 outside 1\.\.2"):
        entry(EnvelopePresentation(2, (sq(1) + multiply(gen(0), gen(2)),), 1, 2))
    entry(EnvelopePresentation(3, (multiply(gen(1), gen(3)),), 1, 2))


def test_local_model_matches_generators():
    assert local_model_bracket(gen(1), gen(2)) == lie((1, 2))


def test_local_model_nested_brackets_are_lie_words():
    inner = local_model_bracket(gen(2), gen(1))
    got = local_model_bracket(gen(1), inner)
    assert got == -1 * lie((1, 1, 2))


def test_local_model_leibniz_value():
    got = local_model_bracket(sq(1), lie((1, 2)))
    assert got == 2 * multiply(gen(1), lie((1, 1, 2)))


def test_local_model_agrees_with_free_bracket():
    pool = monomials_star_maxpoly(2, 0, 2) + monomials_star_maxpoly(2, 1, 2)
    for a in pool:
        for b in pool:
            pa, pb = PoissonElement.monomial(a), PoissonElement.monomial(b)
            assert local_model_bracket(pa, pb) == poisson_bracket(pa, pb)


def _element_level_local_model_bracket(f, g):
    """The local-model bracket built from elements, the reference loop: per
    leg pair, the coefficient monomials multiplied as elements and then
    times the Lie bracket of the legs embedded by ``from_lie``."""
    df = envelope._de_rham(f)
    dg = envelope._de_rham(g)
    out = {}
    for (m1, leg1), c1 in df.items():
        for (m2, leg2), c2 in dg.items():
            br = bracket_basis(leg1, leg2)
            if br.is_zero():
                continue
            coeff = multiply(
                PoissonElement.monomial(m1, c1), PoissonElement.monomial(m2, c2)
            )
            merge(out, multiply(coeff, PoissonElement.from_lie(br)).terms.items())
    return PoissonElement._of(out)


_LOCAL_MODEL_POOL = monomials_star_maxpoly(3, 0, 2) + monomials_star_maxpoly(3, 1, 2)
_SMALL_ELEMENTS = st.dictionaries(
    st.sampled_from(_LOCAL_MODEL_POOL),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    min_size=1,
    max_size=3,
).map(PoissonElement)


@settings(deadline=None, max_examples=60)
@given(f=_SMALL_ELEMENTS, g=_SMALL_ELEMENTS)
def test_local_model_matches_the_element_level_loop(f, g):
    # 1-3 terms of star degree <= 1 and poly degree <= 2 in 3 generators
    got = local_model_bracket(f, g)
    assert got == _element_level_local_model_bracket(f, g)
    assert got == poisson_bracket(f, g)


def test_induced_hom_identity():
    images = {1: gen(1), 2: gen(2)}
    a = multiply(gen(1), lie((1, 2))) + Fraction(1, 3) * lie((1, 1, 2))
    assert induced_hom(images, a) == a


def test_induced_hom_swap():
    images = {1: gen(2), 2: gen(1)}
    assert induced_hom(images, lie((1, 2))) == -1 * lie((1, 2))


def test_induced_hom_square():
    images = {1: sq(1), 2: gen(2)}
    assert induced_hom(images, lie((1, 2))) == 2 * multiply(gen(1), lie((1, 2)))


def test_induced_hom_missing_generator():
    with pytest.raises(ValueError):
        induced_hom({1: gen(1)}, lie((1, 2)))


def test_induced_hom_respects_brackets_random():
    rng = random.Random(23)
    pool = monomials_star_maxpoly(2, 0, 2) + monomials_star_maxpoly(2, 1, 1)

    def rand_elt():
        out = PoissonElement.zero()
        for m in rng.sample(pool, 2):
            out = out + PoissonElement.monomial(m, Fraction(rng.randint(-2, 2)))
        return out

    images = {1: sq(1), 2: gen(1) + 2 * gen(2)}
    for _ in range(15):
        a, b = rand_elt(), rand_elt()
        lhs = induced_hom(images, poisson_bracket(a, b))
        rhs = poisson_bracket(induced_hom(images, a), induced_hom(images, b))
        assert lhs == rhs


# -- the window carve ----------------------------------------------------

_CARVE_COLS = 8
_CARVE_ROWS = st.lists(
    st.dictionaries(
        st.integers(0, _CARVE_COLS - 1),
        st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool),
        max_size=5,
    ),
    max_size=8,
)


def _rank(rows, cols):
    """Rank of ``rows`` restricted to the columns ``cols``."""
    return Echelon.spanning(
        {c: v for c, v in row.items() if c in cols} for row in rows
    ).rank


@settings(deadline=None, max_examples=80)
@given(rows=_CARVE_ROWS, inside=st.frozensets(st.integers(0, _CARVE_COLS - 1)))
def test_window_part_is_the_windowed_span(rows, inside):
    part = _window_part(rows, inside, lambda c: (c % 3, -c))
    span = Echelon.spanning(rows)
    for row in part:
        assert row and set(row) <= inside
        assert span.contains(row)
    # dim(span ∩ inside) = rank(rows) - rank(rows cut to the outside columns)
    everything = range(_CARVE_COLS)
    outside = set(everything) - inside
    assert len(part) == _rank(rows, everything) - _rank(rows, outside)
    assert Echelon.spanning(part).rank == len(part)


class _KeyEchelon:
    """Fraction elimination that clears the smallest column under ``key``:
    the column-ordered echelon the window carve used to run on."""

    def __init__(self, key):
        self.rows = {}
        self.key = key

    def add(self, row):
        row = {c: v for c, v in row.items() if v}
        while row:
            col = min(row, key=self.key)
            piv = self.rows.get(col)
            if piv is None:
                pv = Fraction(row[col])
                self.rows[col] = {c: v / pv for c, v in row.items()}
                return
            merge(row, piv.items(), -row[col])

    def basis(self):
        return [self.rows[c] for c in sorted(self.rows, key=self.key)]


def _reference_carve(groups, inside, degree, key):
    """Each group of rows eliminated outside-first, the outside columns by
    descending ``degree`` and then ``key``, the inside ones by ``key``, and
    the rows added by (leading column, length), an empty row last; keeps
    the basis rows whose every column lies inside."""

    def col_key(c):
        return (True, 0, key(c)) if inside(c) else (False, -degree(c), key(c))

    def row_key(row):
        return (0, col_key(min(row, key=col_key)), len(row)) if row else (1,)

    out = []
    for rows in groups:
        ech = _KeyEchelon(col_key)
        for row in sorted(rows, key=row_key):
            ech.add(row)
        out.extend(row for row in ech.basis() if all(inside(c) for c in row))
    return out


def _reference_ideal_rows(pres, n):
    """The windowed ideal rows, one column-ordered echelon per total block
    up to 3n + N (homogeneous) or over the slack products (otherwise)."""
    gens = {q: poisson_ideal_generators(pres, q) for q in range(n + 1)}
    if pres.homogeneous:
        groups = []
        for total in range(3 * n + pres.N + 1):
            groups.append([])
            for q, gs in gens.items():
                for g in gs:
                    h_total = total - next(iter(g.terms)).total_degree
                    if h_total < 0:
                        continue
                    for h in monomials_star_total(pres.n_gens, n - q, h_total):
                        groups[-1].append(multiply(PoissonElement.monomial(h), g).terms)
    else:
        slack = pres.max_relation_degree
        products = [
            multiply(PoissonElement.monomial(h), g).terms
            for q, gs in gens.items()
            for g in gs
            for h in monomials_star_maxpoly(pres.n_gens, n - q, pres.N + slack)
        ]
        groups = [products]
    return _reference_carve(
        groups,
        lambda m: m.poly_degree <= pres.N,
        lambda m: m.total_degree,
        lambda m: m.sort_key,
    )


def _sv_partial(f, i):
    """d/dx_i of a commutative polynomial (star-degree-0 PoissonElement),
    letter by letter: the reference for the legs of ``_de_rham``."""
    out = {}
    for m, c in f.terms.items():
        letters = [b.word[0] for b in m.factors]
        count = letters.count(i)
        if not count:
            continue
        rest = list(letters)
        rest.remove(i)
        mono = PoissonMonomial.of(tuple(generator(j) for j in rest))
        out[mono] = out.get(mono, 0) + c * count
    return PoissonElement(out)


_POLYNOMIALS = st.integers(1, 3).flatmap(
    lambda n: st.dictionaries(
        st.sampled_from(monomials_star_maxpoly(n, 0, 3)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
        max_size=4,
    ).map(lambda terms: (n, PoissonElement(terms)))
)


@settings(deadline=None, max_examples=80)
@given(_POLYNOMIALS)
@example((1, PoissonElement({PoissonMonomial.of((generator(1), generator(1))): 1})))
def test_legs_are_the_partial_derivatives(case):
    # 0-4 terms of poly degree <= 3 in 1-3 letters, the unit included
    n, f = case
    partials = {generator(i): _sv_partial(f, i).terms for i in range(1, n + 1)}
    assert _legs(f) == {leg: terms for leg, terms in partials.items() if terms}


def _reference_omega2_rank(pres):
    """Rank of windowed Omega^2 modulo I * Omega^2 and Omega^1 ^ dI, from two
    separate row loops and a column-ordered echelon."""
    n, N = pres.n_gens, pres.N
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    slack = 0 if pres.homogeneous else pres.max_relation_degree
    multipliers = []
    for deg in range(N + slack + 1):
        for sv in sv_tuples(n, deg):
            m = PoissonElement.one()
            for a in sv:
                m = multiply(m, gen(a))
            multipliers.append(m)

    def label(mono, pr):
        return (tuple(sorted(b.word[0] for b in mono.factors)), pr)

    rows = []
    for f in pres.relations:
        for m in multipliers:
            for pr in pairs:
                mf = multiply(m, f).terms
                rows.append({label(mono, pr): c for mono, c in mf.items()})
        for m in multipliers:
            for k in range(1, n + 1):
                row = {}
                for b in range(1, n + 1):
                    if b != k:
                        df = _sv_partial(f, b)
                        pr, sign = ((k, b), 1) if k < b else ((b, k), -1)
                        for mono, c in multiply(m, df).terms.items():
                            merge(row, [(label(mono, pr), sign * c)])
                rows.append(row)
    window = [sv for deg in range(N + 1) for sv in sv_tuples(n, deg)]
    kept = _reference_carve(
        [rows],
        lambda c: len(c[0]) <= N,
        lambda c: len(c[0]),
        lambda c: (len(c[0]), c[0], c[1]),
    )
    return len(window) * len(pairs) - len(kept)


_CARVE_PRESENTATIONS = {
    "x1^2": (1, lambda: (sq(1),), 1, 3),
    "x1^2-1": (1, lambda: (sq(1) - PoissonElement.one(),), 1, 2),
    "x1x2": (2, lambda: (multiply(gen(1), gen(2)),), 2, 3),
    "x1^2,x1x2": (2, lambda: (sq(1), multiply(gen(1), gen(2))), 1, 3),
    "x1^2-x2": (2, lambda: (sq(1) - gen(2),), 1, 3),
    "x1x2-1": (2, lambda: (multiply(gen(1), gen(2)) - PoissonElement.one(),), 2, 2),
    "x1x2-x3^2": (3, lambda: (multiply(gen(1), gen(2)) - sq(3),), 2, 2),
    "x1^2,x2x3": (3, lambda: (sq(1), multiply(gen(2), gen(3))), 1, 3),
    "x1x2-x3": (3, lambda: (multiply(gen(1), gen(2)) - gen(3),), 1, 2),
}


@pytest.mark.parametrize("name", _CARVE_PRESENTATIONS)
def test_envelope_matches_column_ordered_carve(name):
    n_gens, relations, d, N = _CARVE_PRESENTATIONS[name]
    pres = EnvelopePresentation(n_gens, relations(), d, N)
    for piece in envelope_truncated(pres):
        dim = len(piece.ambient_basis)
        index = {m: i for i, m in enumerate(piece.ambient_basis)}
        rows = [
            {index[m]: c for m, c in row.items()}
            for row in _reference_ideal_rows(pres, piece.star_degree)
        ]
        assert piece.ideal_span == rows
        assert piece.quotient_rank == dim - len(rows)
        assert piece.exact == pres.homogeneous
    assert p1_rank_check(pres) == (
        envelope_truncated(pres)[1].quotient_rank,
        _reference_omega2_rank(pres),
    )


# -- growing the window ----------------------------------------------------


@st.composite
def _presentations(draw):
    """(n_gens, relations, d) with n <= 3, d <= 2 and 0-2 nonzero relations
    of polynomial degree <= 3, all homogeneous or all drawn freely.

    Two inhomogeneous relations in 3 generators are left out: one such
    example takes 4-16 s at d = 2, against under a second for the rest."""
    n = draw(st.integers(1, 3))
    homogeneous = draw(st.booleans())
    relations = []
    for _ in range(draw(st.integers(0, 2 if homogeneous or n < 3 else 1))):
        deg = draw(st.integers(1, 3))
        pool = [
            m
            for m in monomials_star_maxpoly(n, 0, deg)
            if m.poly_degree == deg or not homogeneous
        ]
        monos = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
        coeffs = st.sampled_from((-2, -1, 1, 2))
        relations.append(PoissonElement({m: draw(coeffs) for m in monos}))
    return n, tuple(relations), draw(st.integers(0, 2))


@settings(deadline=None, max_examples=60)
@given(_presentations())
def test_quotient_ranks_do_not_drop_as_the_window_grows(presentation):
    n_gens, relations, d = presentation
    top = max((m.poly_degree for f in relations for m in f.terms), default=0)
    ranks = []
    for N in range(top, top + 3):
        pieces = envelope_truncated(EnvelopePresentation(n_gens, relations, d, N))
        ranks.append([p.quotient_rank for p in pieces])
    for smaller, larger in zip(ranks, ranks[1:]):
        assert all(a <= b for a, b in zip(smaller, larger)), ranks


# -- the star-degree-0 piece against a Groebner basis ----------------------


def _standard_monomial_count(n_gens, relations, N):
    """The number of monomials of degree <= N that no leading monomial of a
    grevlex Groebner basis of the relations' ideal divides: dim of
    k[x]_{<=N} / (I & k[x]_{<=N}), as grevlex is degree-compatible (Cox,
    Little and O'Shea, Ideals, Varieties, and Algorithms, ch. 9 sec. 3)."""
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{n_gens + 1}")
    polys = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(xs[b.word[0] - 1] for b in m.factors))
            for m, c in f.terms.items()
        )
        for f in relations
    ]
    basis = sympy.groebner(polys, *xs, order="grevlex")
    leads = [sympy.Poly(g, *xs).monoms(order="grevlex")[0] for g in basis.exprs]
    return sum(
        not any(all(a >= b for a, b in zip(e, lead)) for lead in leads)
        for e in product(range(N + 1), repeat=n_gens)
        if sum(e) <= N
    )


def _p0_rank(n_gens, relations, N):
    pres = EnvelopePresentation(n_gens, relations, 0, N)
    return envelope_truncated(pres)[0].quotient_rank


@st.composite
def _inhomogeneous(draw):
    """(n_gens, relations): n <= 3 and 1-2 relations of polynomial degree
    <= 3, the first with terms of two different degrees."""
    n = draw(st.integers(1, 3))
    pool = monomials_star_maxpoly(n, 0, 3)
    coeffs = st.sampled_from((-2, -1, 1, 2))
    degrees = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2, unique=True))
    relations = []
    for k in range(draw(st.integers(1, 2))):
        monos = set(draw(st.lists(st.sampled_from(pool), max_size=2)))
        for deg in degrees if k == 0 else ():
            monos.add(draw(st.sampled_from([m for m in pool if m.poly_degree == deg])))
        if monos:
            relations.append(PoissonElement({m: draw(coeffs) for m in monos}))
    return n, tuple(relations)


@settings(deadline=None, max_examples=40)
@given(_inhomogeneous())
def test_inhomogeneous_p0_rank_bounds_the_standard_monomials(presentation):
    # the carve spans part of I & k[x]_{<=N}, so its quotient is no smaller
    n_gens, relations = presentation
    top = max(m.poly_degree for f in relations for m in f.terms)
    for N in range(top, top + 3):
        assert _p0_rank(n_gens, relations, N) >= _standard_monomial_count(
            n_gens, relations, N
        ), N


def _poly(*terms):
    """A commutative polynomial from (coefficient, letters) pairs."""
    out = PoissonElement.zero()
    for c, letters in terms:
        m = PoissonElement.one(c)
        for i in letters:
            m = multiply(m, gen(i))
        out = out + m
    return out


# 2x1 + x1^2x3 + 2x1x2^2 and -x3^2 + x1^2x2 - x1x3^2, the slow
# inhomogeneous presentation (tests/data/pres_inhomogeneous_cubic.txt)
_CUBIC = (
    _poly((2, (1,)), (1, (1, 1, 3)), (2, (1, 2, 2))),
    _poly((-1, (3, 3)), (1, (1, 1, 2)), (-1, (1, 3, 3))),
)


@pytest.mark.parametrize(
    "relations, ranks",
    [((_poly((1, (1, 2)), (-1, (3,))),), [16, 25, 36]), (_CUBIC, [18, 26, 34])],
)
def test_inhomogeneous_p0_rank_equals_the_standard_monomials(relations, ranks):
    # x1*x2 - x3 and the slow two-relation presentation, at N = 3, 4, 5
    for N, rank in zip((3, 4, 5), ranks):
        assert _p0_rank(3, relations, N) == rank, N
        assert _standard_monomial_count(3, relations, N) == rank, N


@pytest.mark.parametrize(
    "N, ranks, p1", [(3, [18, 12, 46], (12, 12)), (4, [26, 13, 49], (13, 13))]
)
def test_the_slow_inhomogeneous_presentation_keeps_its_ranks(N, ranks, p1):
    # every piece at d = 2, and the two-form check, as the column-ordered
    # carve computed them before the degree-ordered one
    pres = EnvelopePresentation(3, _CUBIC, 2, N)
    pieces = envelope_truncated(pres)
    assert [p.quotient_rank for p in pieces] == ranks
    assert not any(p.exact for p in pieces)
    assert p1_rank_check(pres) == p1


# -- every star piece against a Groebner basis in a product order ----------


def _exponents(weights, lo, hi):
    """The exponent tuples e of positive ``weights`` with lo <= sum_i
    e_i weights[i] <= hi."""
    if not weights:
        return [()] if lo <= 0 <= hi else []
    w, rest = weights[0], weights[1:]
    return [
        (k,) + e for k in range(hi // w + 1) for e in _exponents(rest, lo - k * w, hi - k * w)
    ]


def _product_order_oracle(n_gens, relations, d):
    """count(n, N): the exact dim of W / (I & W) for the window W of star n
    and SV-part degree <= N, n <= d, of PA / P_{>d}A.

    SLV cut to star <= d is a polynomial ring in the letters x and the
    Lyndon elements y of star 1..d, modulo the ideal of the y-monomials of
    star > d.  Under the product order that compares the x-part by grevlex
    first, and so by SV-part degree, and then the y-part by grevlex, the
    window is closed under taking smaller monomials of its star, and the
    ideal is star-graded; so the standard monomials of a Groebner basis that
    lie in W count W / (I & W) (Cox, Little and O'Shea, Ideals, Varieties,
    and Algorithms, ch. 2 secs. 5-9 and ch. 9 sec. 3)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.orderings import ProductOrder, grevlex

    words = sorted(lyndon_words(n_gens, d + 1), key=lambda w: (len(w), w))
    syms = sympy.symbols(f"v:{len(words)}")
    var = dict(zip(words, syms))
    y_stars = [len(w) - 1 for w in words[n_gens:]]
    top = max((m.poly_degree for f in relations for m in f.terms), default=0)
    pres = EnvelopePresentation(n_gens, relations, d, top)
    polys = [
        sum(
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(var[b.word] for b in m.factors))
            for m, c in g.terms.items()
        )
        for level in _generators_up_to(pres, d).values()
        for g in level
    ]
    # the y-monomials of star > d whose every divisor by one variable has
    # star <= d generate the y-monomials of star > d
    for e in _exponents(y_stars, d + 1, 2 * d):
        star = sum(k * w for k, w in zip(e, y_stars))
        if all(star - w <= d for k, w in zip(e, y_stars) if k):
            polys.append(sympy.Mul(*(y**k for y, k in zip(syms[n_gens:], e))))
    order = ProductOrder(
        (grevlex, lambda m: m[:n_gens]), (grevlex, lambda m: m[n_gens:])
    )
    basis = sympy.groebner(polys, *syms, order=order).exprs if polys else []
    leads = [sympy.Poly(g, *syms).monoms(order=order)[0] for g in basis]

    def count(n, N):
        xs = [e for e in product(range(N + 1), repeat=n_gens) if sum(e) <= N]
        return sum(
            not any(all(a >= b for a, b in zip(ex + ey, lead)) for lead in leads)
            for ex in xs
            for ey in _exponents(y_stars, n, n)
        )

    return count


def _assert_bounded_by_the_oracle(n_gens, relations, d, Ns):
    """Every piece's ``quotient_rank`` equals the oracle's count when it is
    flagged exact and is at least that count otherwise; returns the counts."""
    count = _product_order_oracle(n_gens, relations, d)
    counts = []
    for N in Ns:
        pieces = envelope_truncated(EnvelopePresentation(n_gens, relations, d, N))
        counts.append([count(p.star_degree, N) for p in pieces])
        for p, want in zip(pieces, counts[-1]):
            if p.exact:
                assert p.quotient_rank == want, (N, p.star_degree)
            else:
                assert p.quotient_rank >= want, (N, p.star_degree)
    return counts


@settings(deadline=None, max_examples=30)
@given(_presentations().filter(lambda p: p[2] <= 1), st.integers(0, 1))
def test_every_piece_is_bounded_by_the_product_order_oracle(presentation, extra):
    n_gens, relations, d = presentation
    top = max((m.poly_degree for f in relations for m in f.terms), default=0)
    _assert_bounded_by_the_oracle(n_gens, relations, d, [top + extra])


@pytest.mark.parametrize(
    "relation, counts",
    [
        # lower-bound pieces; the library's ranks equal these counts too
        (_poly((1, (1, 2)), (-1, (3,))), [[16, 24, 89], [25, 35, 126]]),
        # the quadric x1*x2 - x3*x3, exact pieces
        (_poly((1, (1, 2)), (-1, (3, 3))), [[16, 25, 95], [25, 36, 132]]),
    ],
)
def test_the_d2_pieces_are_bounded_by_the_product_order_oracle(relation, counts):
    assert _assert_bounded_by_the_oracle(3, (relation,), 2, [3, 4]) == counts


# -- right-normed generators against every insertion position ---------------


def _every_position_generators(pres, n):
    """Star-degree-n ideal generators with the relation f at every position
    of every nested bracket {c_0, {c_1, ... {c_{n-1}, c_n}...}} of f and n
    letters, zeros and repeats dropped."""
    if n == 0:
        return list(pres.relations)
    letters = [gen(i) for i in range(1, pres.n_gens + 1)]
    out, seen = [], set()
    for f in pres.relations:
        for word in product(letters, repeat=n):
            for pos in range(n + 1):
                chain = word[:pos] + (f,) + word[pos:]
                g = chain[-1]
                for c in reversed(chain[:-1]):
                    g = poisson_bracket(c, g)
                key = frozenset(g.terms.items())
                if g.is_zero() or key in seen:
                    continue
                seen.add(key)
                out.append(g)
    return out


def _every_position_levels(pres, n):
    return {q: _every_position_generators(pres, q) for q in range(n + 1)}


def _same_span(a, b):
    """True if the term dicts ``a`` and ``b`` span the same space."""
    index = {}

    def span(rows):
        return Echelon.spanning(
            {index.setdefault(k, len(index)): c for k, c in row.items()}
            for row in rows
        )

    sa, sb = span(a), span(b)
    return sa.rank == sb.rank and all(sa.contains(row) for row in sb.rows.values())


def _with_top_window(presentation):
    n_gens, relations, d = presentation
    top = max((m.poly_degree for f in relations for m in f.terms), default=0)
    return EnvelopePresentation(n_gens, relations, d, top)


@settings(deadline=None, max_examples=80)
@given(_presentations())
def test_right_normed_generators_span_every_position(presentation):
    pres = _with_top_window(presentation)
    for n in range(pres.d + 1):
        new = poisson_ideal_generators(pres, n)
        old = _every_position_generators(pres, n)
        assert all(g in old for g in new)
        assert _same_span([g.terms for g in new], [g.terms for g in old])


def _window_algebra(pres):
    """The window algebra's JSON form, or the refusal of a zero algebra."""
    try:
        return envelope_window_algebra(pres, 3).to_json_dict()
    except ValueError as err:
        return str(err)


def _outputs(pres):
    pieces = envelope_truncated(pres)
    summary = [
        (p.star_degree, p.quotient_rank, p.exact, len(p.ideal_span)) for p in pieces
    ]
    spans = [p.ideal_span for p in pieces]
    algebra = _window_algebra(pres) if pres.homogeneous else None
    return summary, spans, p1_rank_check(pres) if pres.d >= 1 else None, algebra


@settings(deadline=None, max_examples=60)
@given(_presentations())
def test_envelope_outputs_match_every_position_generators(presentation):
    pres = _with_top_window(presentation)
    new = _outputs(pres)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(envelope, "_generators_up_to", _every_position_levels)
        mp.setattr(quantize, "_generators_up_to", _every_position_levels)
        old = _outputs(pres)
    assert new[0] == old[0]
    assert all(_same_span(a, b) for a, b in zip(new[1], old[1]))
    assert new[2:] == old[2:]
