import random
from fractions import Fraction
from math import gcd
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poissonenv.envelope import _window_part
from poissonenv.freelie import TensorElement, generator
from poissonenv.freepoisson import PoissonMonomial, _monomial_product, monomials_up_to_total
from poissonenv.linalg import (
    Echelon,
    Rational,
    SpanSolver,
    bilinear,
    linear,
    merge,
    product,
)


def mat(rows):
    """The rows of a dense matrix as coordinate dicts."""
    return [{j: Fraction(v) for j, v in enumerate(row) if v} for row in rows]


def rank(rows):
    return Echelon.spanning(rows).rank


def kernel(rows, n_cols):
    """Basis of {x : rows x = 0}, found by span solving: a column that
    ``SpanSolver`` writes as a combination of the earlier independent
    columns gives that combination minus the column."""
    cols = [{r: row[j] for r, row in enumerate(rows) if j in row} for j in range(n_cols)]
    independent, out = [], []
    for j, col in enumerate(cols):
        coeffs = SpanSolver(len(rows), [cols[i] for i in independent]).solve(col)
        if coeffs is None:
            independent.append(j)
        else:
            out.append({j: -1, **{i: c for i, c in zip(independent, coeffs) if c}})
    return out


def apply(rows, v):
    """rows v, as a dense list."""
    return [sum(c * v.get(j, 0) for j, c in row.items()) for row in rows]


def test_rational_invariants():
    q = Rational(6, -4)
    assert q.denominator > 0
    assert (q.numerator, q.denominator) == (-3, 2)
    assert Rational(0, 7) == Rational(0, 1)


def test_rank_zero_matrix():
    assert rank([{}, {}, {}]) == 0


def test_rank_identity():
    assert rank(mat([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])) == 4


def test_rank_dependent_rows():
    assert rank(mat([[1, 2], [2, 4]])) == 1


def test_solve_in_span_basis_vector():
    e1 = {0: Fraction(1)}
    assert SpanSolver(2, [e1]).solve(e1) == [Fraction(1)]


def test_solve_in_span_not_in_span():
    e1 = {0: Fraction(1)}
    e2 = {1: Fraction(1)}
    assert SpanSolver(2, [e1]).solve(e2) is None


def test_solve_in_span_two_by_two():
    b1 = {0: Fraction(1), 1: Fraction(1)}
    b2 = {0: Fraction(1), 1: Fraction(-1)}
    e1 = {0: Fraction(1)}
    assert SpanSolver(2, [b1, b2]).solve(e1) == [Fraction(1, 2), Fraction(1, 2)]


def test_an_empty_basis_spans_only_zero():
    # the zero target is the empty combination and a nonzero one lies outside
    solver = SpanSolver(3, [])
    assert solver.solve({}) == []
    assert solver.solve({1: Fraction(2)}) is None


def test_solve_recombination_random():
    rng = random.Random(5)
    for _ in range(25):
        dim = rng.randint(2, 8)
        basis = []
        for _ in range(rng.randint(1, dim)):
            row = merge(
                {},
                [
                    (i, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for i in rng.sample(range(dim), rng.randint(1, dim))
                ],
            )
            if row:
                basis.append(row)
        if not basis:
            continue
        target = {}
        for row in basis:
            merge(target, row.items(), rng.randint(-3, 3))
        coeffs = SpanSolver(dim, basis).solve(target)
        assert coeffs is not None
        back = {}
        for c, row in zip(coeffs, basis):
            merge(back, row.items(), c)
        assert back == target


def test_rank_equals_transpose_rank_random():
    rng = random.Random(11)
    for _ in range(8):
        rows = rng.randint(5, 50)
        cols = rng.randint(5, 50)
        entries = {}
        for _ in range(rng.randint(5, 120)):
            entries[(rng.randrange(rows), rng.randrange(cols))] = Fraction(
                rng.randint(-9, 9) or 1, rng.randint(1, 4)
            )
        by_row, by_col = [{} for _ in range(rows)], [{} for _ in range(cols)]
        for (r, c), v in entries.items():
            by_row[r][c] = by_col[c][r] = v
        assert rank(by_row) == rank(by_col)


def test_echelon_normal_form_clears_pivots():
    ech = Echelon()
    ech.add({0: Fraction(1), 1: Fraction(2)})
    ech.add({1: Fraction(1), 2: Fraction(1)})
    res = ech.normal_form({0: Fraction(3), 2: Fraction(1)})
    assert set(res) == {2}
    assert ech.contains({0: Fraction(1), 1: Fraction(2)})


def test_echelon_column_order_intersection():
    # span{(1,1,0), (0,1,1)} meets {first coordinate = 0} in (0,1,1); the
    # window carve clears the outside column first, whatever its label (the
    # key leads with a column's degree, here the same for every column)
    rows = [{"c": 1, "a": 1}, {"a": 1, "b": 1}]
    assert _window_part(rows, {"a", "b"}, lambda c: (1, c)) == [{"a": 1, "b": 1}]


def test_kernel_of_dependent_columns():
    m = mat([[1, 2], [2, 4]])
    basis = kernel(m, 2)
    assert len(basis) == 1
    (v,) = basis
    assert apply(m, v) == [0, 0]  # m v = 0 exactly


def test_kernel_random_matrices():
    rng = random.Random(31)
    for _ in range(10):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        m = [{} for _ in range(rows)]
        for _ in range(rng.randint(0, 18)):
            m[rng.randrange(rows)][rng.randrange(cols)] = Fraction(rng.randint(-5, 5) or 2)
        basis = kernel(m, cols)
        assert len(basis) == cols - rank(m)
        for v in basis:
            assert apply(m, v) == [0] * rows


def test_merge_folds_pairs_and_drops_zeros():
    acc = {0: Fraction(1), 1: Fraction(2)}
    out = merge(acc, [(1, Fraction(1)), (2, Fraction(3)), (0, Fraction(1, 2))], -2)
    assert out is acc
    assert acc == {2: Fraction(-6)}
    assert merge({}, [(5, Fraction(0))]) == {}
    assert merge({3: Fraction(1)}, [(3, Fraction(1)), (3, Fraction(-2))]) == {}


def _canonical(q):
    return q.numerator if q.denominator == 1 else q


def _merge_multiplying(acc, items, scale=1):
    """The merge loop that multiplies every item by the scale, 1 included,
    and stores an integral sum as an int."""
    for k, c in items:
        w = acc.get(k)
        if w is None:
            w = c * scale
            if w:
                acc[k] = _canonical(w)
        else:
            w += c * scale
            if w:
                acc[k] = _canonical(w)
            else:
                del acc[k]
    return acc


_INTS = st.integers(-3, 3)
_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@pytest.mark.parametrize("scale", [1, -1, Fraction(1), Fraction(1, 2)])
@pytest.mark.parametrize("values", [_INTS, _FRACTIONS], ids=["int", "fraction"])
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_merge_matches_the_multiplying_loop(scale, values, data):
    # merge skips the multiply for the int scale 1 only; values and value
    # types must be those of the loop that always multiplies
    keys = st.integers(0, 5)
    acc = data.draw(st.dictionaries(keys, values.filter(bool)))
    items = data.draw(st.lists(st.tuples(keys, values), max_size=8))
    acc = {k: _canonical(v) for k, v in acc.items()}
    got = merge(dict(acc), items, scale)
    want = _merge_multiplying(dict(acc), items, scale)
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}
    assert all(type(v) is int or v.denominator != 1 for v in got.values())


def _naive_sum(pairs):
    """sum c * row over the (c, row) pairs, a row None or empty for 0, added
    term by term in Fractions; zeros dropped, integral values as ints."""
    total = {}
    for c, row in pairs:
        for k, x in (row or {}).items():
            total[k] = total.get(k, 0) + Fraction(c) * x
    return {k: _canonical(v) for k, v in total.items() if v}


def _stored(values):
    return values.filter(bool).map(lambda q: _canonical(Fraction(q)))


def _rows(values):
    """A row: None, empty, or a sparse dict of stored coefficients."""
    row = st.dictionaries(st.integers(0, 6), _stored(values), max_size=4)
    return st.one_of(st.none(), st.just({}), row)


def _negated(row):
    return None if row is None else {k: -c for k, c in row.items()}


@pytest.mark.parametrize("values", [_INTS, _FRACTIONS], ids=["int", "fraction"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_linear_and_bilinear_match_the_double_sum(values, data):
    keys, coeff = st.integers(0, 4), _stored(values)
    # key 5 carries the negated row of key 0 and the same coefficient, so
    # the two rows cancel
    table = data.draw(st.dictionaries(keys, _rows(values)))
    table[5] = _negated(table.get(0))
    v = data.draw(st.dictionaries(keys, coeff))
    v[5] = v.setdefault(0, data.draw(coeff))
    out = data.draw(st.dictionaries(st.integers(0, 6), coeff))
    want = _naive_sum([(1, out)] + [(c, table.get(k)) for k, c in v.items()])
    assert linear(v, table.get) == _naive_sum((c, table.get(k)) for k, c in v.items())
    got = linear(v, table.get, out)
    assert got is out
    pair_table = data.draw(st.dictionaries(st.tuples(keys, keys), _rows(values)))
    for j in range(5):
        pair_table[5, j] = _negated(pair_table.get((0, j)))
    w = data.draw(st.dictionaries(keys, coeff))
    terms = [
        (ci * cj, pair_table.get((i, j))) for i, ci in v.items() for j, cj in w.items()
    ]
    got2 = bilinear(v, w, lambda i, j: pair_table.get((i, j)))
    for result, expected in ((got, want), (got2, _naive_sum(terms))):
        assert result == expected
        # stored coefficients only: no zeros, no Fraction with denominator 1
        assert all(c and (type(c) is int or c.denominator != 1) for c in result.values())


def _per_pair_product(a, b, join):
    """The product loop that merges one joined pair at a time, the
    reference for ``product``."""
    out = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            merge(out, [(join(k1, k2), c1 * c2)])
    return out


# words of 0-2 letters joined by concatenation, and monomials of total
# degree <= 2 in two letters joined by the commutative product: small
# pools, so many pairs join to the same key
_JOINS = {
    "words": ([(), (1,), (2,), (1, 1), (1, 2), (2, 1)], add),
    "monomials": (monomials_up_to_total(2, 2), _monomial_product),
}


@pytest.mark.parametrize("join", _JOINS, ids=list(_JOINS))
@pytest.mark.parametrize("values", [_INTS, _FRACTIONS], ids=["int", "fraction"])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_product_matches_the_per_pair_loop(join, values, data):
    pool, join = _JOINS[join]
    terms = st.dictionaries(st.sampled_from(pool), _stored(values), max_size=3)
    a, b = data.draw(terms), data.draw(terms)
    got, want = product(a, b, join), _per_pair_product(a, b, join)
    # the same terms in the same order, of the same types
    assert list(got.items()) == list(want.items())
    assert [type(c) for c in got.values()] == [type(c) for c in want.values()]


def test_product_drops_the_keys_that_cancel():
    x1, x2 = (PoissonMonomial.of((generator(i),)) for i in (1, 2))
    # (x1 + x2)(x1 - x2): the two x1 x2 terms cancel
    got = product({x1: 1, x2: 1}, {x1: 1, x2: -1}, _monomial_product)
    assert got == {_monomial_product(x1, x1): 1, _monomial_product(x2, x2): -1}
    # (x1/2 + x1x1)(x1x1 - x1/2) in words: the two x1x1x1 terms cancel
    half = Fraction(1, 2)
    got = product({(1,): half, (1, 1): 1}, {(1, 1): 1, (1,): -half}, add)
    assert got == {(1, 1, 1, 1): 1, (1, 1): Fraction(-1, 4)}
    # a single term times a single term, and an integral Fraction stored as an int
    got = product({(1,): Fraction(2, 3)}, {(2,): Fraction(3, 2)}, add)
    assert got == {(1, 2): 1} and type(got[(1, 2)]) is int


_BIG = 10**17


def test_rank_of_integer_rows_is_exact():
    # in floats 10**17 + 1 - 10**17 is 0, and the rank would come out 1
    assert rank([{0: 1, 1: _BIG}, {0: 1, 1: _BIG + 1}]) == 2


def test_kernel_of_integer_rows_is_exact():
    assert kernel([{0: 1, 1: _BIG}, {0: 1, 1: _BIG + 1}], 2) == []


def test_solve_in_span_of_integer_rows_is_exact():
    solver = SpanSolver(2, [{0: 1, 1: _BIG}])
    assert solver.solve({0: 1, 1: _BIG + 1}) is None
    assert solver.solve({0: 3, 1: 3 * _BIG}) == [3]


def test_echelon_divides_int_rows_exactly():
    ech = Echelon()
    assert ech.add({0: 2, 1: _BIG})
    assert ech.rows[0] == {0: 1, 1: _BIG // 2}
    assert ech.basis()[0] == {0: 1, 1: _BIG // 2}
    assert all(type(v) is int for v in ech.basis()[0].values())
    assert ech.add({0: 2, 1: _BIG + 1})
    # normalized rows and normal forms: ints where integral
    assert [type(v) for v in ech.basis()[1].values()] == [int]
    ech = Echelon()
    assert ech.add({0: 2, 1: 3, 2: 4})
    # stored once, as primitive ints; basis() divides by the pivot
    assert ech.rows == {0: {0: 2, 1: 3, 2: 4}}
    assert ech.basis()[0] == {0: 1, 1: Fraction(3, 2), 2: 2}
    assert [type(v) for v in ech.basis()[0].values()] == [int, Fraction, int]
    res = ech.normal_form({0: Fraction(1, 3), 1: 1, 2: Fraction(1, 3)})
    assert res == {1: Fraction(1, 2), 2: Fraction(-1, 3)}
    assert [type(v) for v in res.values()] == [Fraction, Fraction]
    res = ech.normal_form({0: 1, 1: 2, 2: 5})
    assert res == {1: Fraction(1, 2), 2: 3}
    assert [type(v) for v in res.values()] == [Fraction, int]
    nf = ech.normal_form({0: 4, 1: 6, 2: 9})
    assert nf == {2: 1} and type(nf[2]) is int


def test_sparse_entries_enter_as_fractions():
    v = TensorElement({(1,): 2, (2,): "1/3", (3,): "0"})
    assert v.terms == {(1,): 2, (2,): Fraction(1, 3)}
    assert [type(x) for x in v.terms.values()] == [int, Fraction]
    assert [type(x) for x in (2 * v).terms.values()] == [int, Fraction]
    assert (3 * v).terms == {(1,): 6, (2,): 1}
    assert [type(x) for x in (3 * v).terms.values()] == [int, int]
    assert [type(x) for x in (Fraction(3, 2) * v).terms.values()] == [int, Fraction]
    m = TensorElement({(1,): 5, (2,): "-0.5"})
    assert [type(x) for x in m.terms.values()] == [int, Fraction]
    w = TensorElement({(1,): Fraction(4, 2), (2,): "6/3", (3,): True})
    assert w.terms == {(1,): 2, (2,): 2, (3,): 1}
    assert [type(x) for x in w.terms.values()] == [int, int, int]
    for bad in (0.5, 1j):
        with pytest.raises(TypeError, match="inexact"):
            TensorElement({(1,): bad})
        with pytest.raises(TypeError, match="inexact"):
            bad * v


def test_combination_equality_is_type_strict_and_only_tensors_hash():
    from poissonenv.freelie import LieElement, generator
    from poissonenv.freepoisson import PoissonElement

    assert LieElement() != PoissonElement()
    assert LieElement() == LieElement.zero()
    x1 = LieElement.basis(generator(1))
    assert type(x1 + x1) is LieElement and 2 * x1 == x1 + x1
    assert (x1 - x1).is_zero() and -x1 == (-1) * x1 and (0 * x1).is_zero()
    word = TensorElement.word((1, 2), 3)
    assert hash(word) == hash(TensorElement({(1, 2): 3}))
    for unhashable in (x1, PoissonElement.generator(1)):
        with pytest.raises(TypeError):
            hash(unhashable)


def _random_matrix(rng, rows, cols):
    """Small rational matrix; about half the time a row repeats a combination
    of two earlier rows, so dependent rows are common."""
    out = []
    for r in range(rows):
        if r >= 2 and rng.random() < 0.5:
            a, b = rng.sample(out, 2)
            f, g = Fraction(rng.randint(-3, 3), 2), Fraction(rng.randint(-3, 3))
            out.append([f * x + g * y for x, y in zip(a, b)])
        else:
            out.append(
                [
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if rng.random() < 0.6
                    else Fraction(0)
                    for _ in range(cols)
                ]
            )
    return out


def test_rank_kernel_and_span_match_sympy():
    sympy = pytest.importorskip("sympy")

    rng = random.Random(2024)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        dense = _random_matrix(rng, rows, cols)
        m = mat(dense)
        ref = sympy.Matrix(dense)
        assert rank(m) == ref.rank()
        assert len(kernel(m, cols)) == len(ref.nullspace())
        solver = SpanSolver(cols, m)
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(rows)]
        inside = [sum(c * r[j] for c, r in zip(coeffs, dense)) for j in range(cols)]
        outside = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        for target in (inside, outside):
            got = solver.solve(mat([target])[0])
            # target in the row space <=> appending it keeps the sympy rank
            in_span = ref.col_join(sympy.Matrix([target])).rank() == ref.rank()
            assert (got is not None) == in_span
            if got is not None:
                assert ref.T * sympy.Matrix(got) == sympy.Matrix(target)


def test_explicit_zero_entries_are_dropped():
    # a zero entry must not stop elimination at a column of its own
    ech = Echelon()
    ech.add({1: 1})
    assert ech.contains({0: 0, 1: 1})
    assert ech.normal_form({0: 0, 1: 1}) == {}
    assert ech.normal_form({0: Fraction(0), 1: 1, 2: 3}) == {2: 3}
    assert ech.normal_form({0: 0, 1: 2, 2: Fraction(1, 2)}) == {2: Fraction(1, 2)}
    fresh = Echelon()
    assert fresh.add({0: 0, 1: 2})
    assert fresh.rows == {1: {1: 1}}
    assert not fresh.add({0: Fraction(0), 1: Fraction(-3, 7)})
    assert not Echelon().add({0: 0})


class FractionEchelon:
    """The Fraction elimination ``Echelon`` replaced, kept as its reference:
    rows normalized to pivot 1 and cleared by Fraction arithmetic, smallest
    column first.  Rows must come without zero entries."""

    def __init__(self):
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def _lead(self, row):
        rows = self.rows
        while row:
            col = min(row)
            piv = rows.get(col)
            if piv is None:
                return col
            merge(row, piv.items(), -row[col])
        return None

    def reduce(self, row):
        row = dict(row)
        self._lead(row)
        return row

    def add(self, row):
        res = dict(row)
        col = self._lead(res)
        if col is None:
            return False
        pv = Fraction(res[col])
        self.rows[col] = {c: v / pv for c, v in res.items()}
        return True

    def contains(self, row):
        return not self.reduce(row)

    def normal_form(self, row):
        row = dict(row)
        out = {}
        while (col := self._lead(row)) is not None:
            out[col] = row.pop(col)
        return out

    def basis(self):
        return [dict(self.rows[c]) for c in sorted(self.rows)]


_COLS = 7
_ENTRIES = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(min_value=-1, max_value=1, max_denominator=10**15),
    st.sampled_from([0, Fraction(0)]),
)
_ROWS = st.dictionaries(st.integers(0, _COLS - 1), _ENTRIES, max_size=5)


def _nonzero(row):
    return {c: v for c, v in row.items() if v}


def _ordered(row):
    return list(row.items())


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_echelon_matches_fraction_reference(data):
    ech, ref = Echelon(), FractionEchelon()
    added = []
    for row in data.draw(st.lists(_ROWS, max_size=7)):
        assert ech.add(row) == ref.add(_nonzero(row))
        assert ech.rank == ref.rank
        assert list(ech.rows) == list(ref.rows)  # pivots, newest last
        assert [_ordered(r) for r in ech.basis()] == [_ordered(r) for r in ref.basis()]
        added.append(row)
    for col, ints in ech.rows.items():
        # the one stored form of each row: primitive ints, positive pivot
        assert all(type(v) is int for v in ints.values())
        assert min(ints) == col and ints[col] > 0 and gcd(*ints.values()) == 1
    for r in ech.basis():
        assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in r.values())
    queries = data.draw(st.lists(_ROWS, min_size=1, max_size=4))
    for row in added[:3]:
        # a combination of the added rows, plus stray zeros: often inside
        mix = {}
        for other in added:
            merge(mix, _nonzero(other).items(), data.draw(_ENTRIES) or 1)
        merge(mix, _nonzero(row).items())
        queries.append({**dict.fromkeys(range(_COLS), 0), **mix})
    for row in queries:
        plain = _nonzero(row)
        assert _ordered(ech.normal_form(row)) == _ordered(ref.normal_form(plain))
        assert ech.contains(row) == ref.contains(plain)


def _snapshot(ech):
    """The rows of ``ech`` in insertion order, as item lists."""
    return [(c, _ordered(r)) for c, r in ech.rows.items()]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_rows_added_to_a_copy_leave_the_original_alone(data):
    ech = Echelon.spanning(data.draw(st.lists(_ROWS, max_size=5)))
    before = _snapshot(ech)
    queries = data.draw(st.lists(_ROWS, min_size=1, max_size=4))
    answers = [ech.contains(row) for row in queries]
    copy = ech.copy()
    assert _snapshot(copy) == before  # the same rows, in the same order
    for row in data.draw(st.lists(_ROWS, min_size=1, max_size=5)) + queries:
        copy.add(row)
    assert all(copy.contains(row) for row in queries)
    assert _snapshot(ech) == before
    assert ech.rank == len(before)
    assert [ech.contains(row) for row in queries] == answers


@pytest.mark.parametrize("dim", [0, 1, 5])
def test_identity_is_the_span_of_the_unit_rows_added_in_order(dim):
    ech = Echelon.identity(dim)
    assert _snapshot(ech) == _snapshot(Echelon.spanning({i: 1} for i in range(dim)))
    assert not ech.add({c: c + 1 for c in range(dim)})
    assert ech.basis() == [{i: 1} for i in range(dim)]


def _derived_basis(ech):
    """The pivot-1 rows of ``ech``, derived from ``rows`` on every call as
    ``basis`` did before it kept them: each row divided by its pivot, an
    integral value an int, in pivot order."""
    out = []
    for col in sorted(ech.rows):
        row = ech.rows[col]
        p = row[col]
        out.append({c: v // p if v % p == 0 else Fraction(v, p) for c, v in row.items()})
    return out


def _typed(basis):
    """Each row's entries in order, each with its type: int against Fraction."""
    return [[(c, v, type(v)) for c, v in row.items()] for row in basis]


_STEPS = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 3), _ROWS),
    st.tuples(st.just("copy"), st.integers(0, 3)),
    st.tuples(st.just("basis"), st.integers(0, 3)),
)


@settings(deadline=None, max_examples=100)
@given(steps=st.lists(_STEPS, max_size=25))
def test_kept_basis_follows_adds_and_copies(steps):
    # index i picks echelon i modulo the count: copies grow the pool, and
    # every echelon's basis() is compared after every step, so a kept list
    # that outlives its span shows at once
    pool = [Echelon()]
    for kind, i, *row in steps:
        ech = pool[i % len(pool)]
        if kind == "add":
            ech.add(row[0])
        elif kind == "copy":
            pool.append(ech.copy())
        else:
            ech.basis().append({0: 1})
        for e in pool:
            assert _typed(e.basis()) == _typed(_derived_basis(e))


def test_basis_rows_are_kept_until_the_rank_grows():
    ech = Echelon.spanning([{0: 2, 1: 3}, {1: 1, 2: 5}])
    first, again = ech.basis(), ech.basis()
    assert first is not again
    assert all(a is b for a, b in zip(first, again, strict=True))
    # a pivot-1 row is the stored row itself
    assert again[1] is ech.rows[1]
    assert not ech.add({0: 4, 1: 6})  # inside the span: nothing changes
    assert all(a is b for a, b in zip(first, ech.basis(), strict=True))
    assert ech.add({3: 1})
    assert _typed(ech.basis()) == _typed(_derived_basis(ech))
    assert len(ech.basis()) == 3


def test_adding_to_a_copy_leaves_the_original_basis():
    ech = Echelon.spanning([{0: 2, 1: 3}, {2: 1}])
    before = ech.basis()
    copy = ech.copy()
    assert all(a is b for a, b in zip(before, copy.basis(), strict=True))
    assert copy.add({1: 1})
    assert _typed(copy.basis()) == _typed(_derived_basis(copy))
    assert len(copy.basis()) == 3
    after = ech.basis()
    assert _typed(after) == _typed(before) == _typed(_derived_basis(ech))
    assert all(a is b for a, b in zip(before, after, strict=True))


def test_appending_to_the_basis_list_leaves_the_next_call():
    ech = Echelon.spanning([{0: 1, 1: 2}, {1: 3}])
    got = ech.basis()
    got.append({5: 1})
    got.pop(0)
    assert _typed(ech.basis()) == _typed(_derived_basis(ech))
    assert len(ech.basis()) == 2


def _combine(coeffs, rows):
    out = {}
    for c, row in zip(coeffs, rows):
        merge(out, _nonzero(row).items(), c)
    return out


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_span_solver_rebuilds_combinations_and_refuses_the_rest(data):
    # the rows use columns below _COLS, so a target with an entry at _COLS
    # is off their span
    rows = data.draw(st.lists(_ROWS, max_size=6))
    solver = SpanSolver(_COLS + 1, rows)
    ref = FractionEchelon()
    # a row in the span of the earlier ones is left out: coefficient 0
    dependent = [i for i, row in enumerate(rows) if not ref.add(_nonzero(row))]
    coeffs = data.draw(st.lists(_ENTRIES, min_size=len(rows), max_size=len(rows)))
    target = _combine(coeffs, rows)
    other = _nonzero(data.draw(_ROWS))
    for goal, in_span in ((target, True), (other, ref.contains(other))):
        got = solver.solve(goal)
        assert (got is not None) == in_span
        if got is not None:
            assert len(got) == len(rows) and all(got[i] == 0 for i in dependent)
            assert all(type(v) is (int if v.denominator == 1 else Fraction) for v in got)
            assert _combine(got, rows) == goal
    assert solver.solve({**target, _COLS: data.draw(_ENTRIES) or 1}) is None


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_intersection_rank_is_the_dimension_formula(data):
    # the intersection with a coordinate span, by the projection rank that
    # UWindow.window reads: the rank less that of the rows cut to the
    # columns outside
    a = Echelon.spanning(data.draw(st.lists(_ROWS, max_size=6)))
    inside = data.draw(st.sets(st.integers(0, _COLS - 1)))
    units = [{c: 1} for c in inside]
    a_rows = _snapshot(a)
    want = a.rank + len(inside) - Echelon.spanning(a.basis() + units).rank
    cut = Echelon.spanning(
        {c: v for c, v in row.items() if c not in inside} for row in a.rows.values()
    )
    assert a.rank - cut.rank == want
    assert _snapshot(a) == a_rows
