import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonenv import envelope, quantize
from poissonenv.envelope import (
    EnvelopePresentation,
    LocalModelElement,
    _sv_partial,
    _window_part,
    envelope_truncated,
    gap_witness,
    induced_hom,
    local_model_bracket,
    p1_rank_check,
    poisson_ideal_generators,
)
from poissonenv.freelie import LieBasisElement, LieElement
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


def test_presentation_validation():
    with pytest.raises(ValueError):
        EnvelopePresentation(2, (PoissonElement.zero(),), 1, 2)
    with pytest.raises(ValueError):
        EnvelopePresentation(2, (lie((1, 2)),), 1, 2)
    with pytest.raises(ValueError):
        EnvelopePresentation(2, (sq(1),), 1, 1)  # window below relation degree


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
        side, naive = gap_witness(4, idx)
        assert side.is_zero() and not naive.is_zero()


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


def test_local_model_wrapper_type():
    a = LocalModelElement(gen(1))
    b = LocalModelElement(gen(2))
    out = local_model_bracket(a, b)
    assert isinstance(out, LocalModelElement)
    assert out.value == lie((1, 2))


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
    part = _window_part(rows, inside, lambda c: -c)
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


def _reference_carve(groups, inside, key):
    """Each group of rows eliminated outside-first under ``key``, keeping
    the basis rows whose every column lies inside."""
    out = []
    for rows in groups:
        ech = _KeyEchelon(lambda c: (inside(c), key(c)))
        for row in rows:
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
        groups, lambda m: m.poly_degree <= pres.N, lambda m: m.sort_key
    )


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
        [rows], lambda c: len(c[0]) <= N, lambda c: (len(c[0]), c[0], c[1])
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
