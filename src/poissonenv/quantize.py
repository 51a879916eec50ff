"""The truncated PBW quantization Q_X^(d) for polynomial coordinates.

For a polynomial algebra the local model is the whole free Poisson algebra,
so the quantized product is the PBW star product with every star degree
above d discarded; that truncation is exact because the discarded part is a
two-sided ideal.

The filtration computations run in PBW coordinates (nondecreasing products
of Lyndon basis elements), where the product is concatenation followed by
straightening and the star truncation is the coordinate span of the tuples
of star degree above d.  Every object in sight is graded by total letter
count, so windows by total degree are honest finite quotients and the
computed chains restrict exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import pbw
from .envelope import _generators_up_to, ideal_block
from .filtration import TruncatedAlgebra, filtration_pieces, ideal_closure, span_closure
from .freelie import generator
from .freepoisson import (
    PoissonElement,
    monomials_star_maxpoly,
    monomials_star_total,
    multiply,
    poisson_bracket,
    star_component,
    star_product,
)
from .linalg import Echelon, merge

NCWord = tuple  # sequence of 1-based generator indices; empty = unit


@dataclass(frozen=True)
class QuantizedAlgebra:
    """Q_X^(d): the free Poisson algebra in star degrees <= d with the
    truncated star product."""

    n_gens: int
    d: int

    def __post_init__(self):
        if self.n_gens < 1 or self.d < 0:
            raise ValueError("need n_gens >= 1 and d >= 0")


def bx_component(a, b, p):
    """B^X_p on polynomial representatives: for polynomial coordinates the
    local model is SLV itself, so this is the free star component."""
    return star_component(a, b, p)


def truncated_product(alg, a, b):
    """The associative product sum of B^X_p with star degrees > d dropped."""
    if a.max_star_degree() > alg.d or b.max_star_degree() > alg.d:
        raise ValueError(f"inputs must have star degree <= {alg.d}")
    return star_product(a, b).star_truncate(alg.d)


def nc_embed(alg, w):
    """Image of a noncommutative word under the product of the generators."""
    out = PoissonElement.one()
    for i in w:
        if not 1 <= i <= alg.n_gens:
            raise ValueError(f"letter {i} outside 1..{alg.n_gens}")
        out = truncated_product(alg, out, PoissonElement.generator(i))
    return out


def _tuple_star(t):
    return sum(f.star_degree for f in t)


def _tuple_total(t):
    return sum(len(f.word) for f in t)


class UWindow:
    """Q_X^(d) modulo total degree > max_total, in PBW coordinates."""

    def __init__(self, n_gens, d, max_total):
        self.n_gens = n_gens
        self.d = d
        self.max_total = max_total
        self.tuples = []
        for total in range(max_total + 1):
            for q in range(min(d, total) + 1):
                for m in monomials_star_total(n_gens, q, total):
                    self.tuples.append(m.factors)
        self.index = {t: i for i, t in enumerate(self.tuples)}
        self.totals = [_tuple_total(t) for t in self.tuples]
        self.letters = [(generator(i),) for i in range(1, n_gens + 1)]
        self.dim = len(self.tuples)
        self._rows = {}
        self._pieces = filtration_pieces(self, self.commutator)
        self._chain = []

    def mono_mul(self, t1, t2):
        out = {}
        for t, c in pbw.normal(t1 + t2).items():
            if _tuple_star(t) <= self.d:
                out[self.index[t]] = c
        return out

    def _row(self, i, j):
        """Items of the product of basis vectors i and j (memoized)."""
        row = self._rows.get((i, j))
        if row is None:
            row = tuple(self.mono_mul(self.tuples[i], self.tuples[j]).items())
            self._rows[(i, j)] = row
        return row

    def _pairs(self, v, w):
        """(i, j, c_i * c_j) over the index pairs of v and w inside the window."""
        totals = self.totals
        for i, c1 in v.items():
            room = self.max_total - totals[i]
            for j, c2 in w.items():
                if totals[j] <= room:
                    yield i, j, c1 * c2

    def mul(self, v, w):
        out = {}
        for i, j, c12 in self._pairs(v, w):
            merge(out, self._row(i, j), c12)
        return out

    def commutator(self, v, w):
        """[v, w] in one pass: row(i, j) - row(j, i) for every index pair."""
        out = {}
        for i, j, c12 in self._pairs(v, w):
            merge(out, self._row(i, j), c12)
            merge(out, self._row(j, i), -c12)
        return out

    def basis_vec(self, i):
        return {i: Fraction(1)}

    def generators(self):
        """The letters x_1 .. x_n, which generate the algebra."""
        return [{self.index[t]: Fraction(1)} for t in self.letters]

    def ideal_close(self, seeds):
        """Span of the two-sided ideal generated by ``seeds``: closing under
        product by the generators suffices, since they generate the
        algebra."""
        return ideal_closure(self.mul, self.generators(), seeds)

    def filtration(self, levels):
        """Commutator filtration chain F_0 .. F_levels (list of Echelons).

        The pieces come from ``filtration_pieces`` with the letters as
        generators, drawn as far as ``levels`` needs and kept for later
        calls; past the stable value the list repeats its last piece.
        """
        chain = self._chain
        while len(chain) <= levels:
            piece = next(self._pieces, None)
            chain.append(chain[-1] if piece is None else piece)
        return chain

    def poisson_span(self, monomials):
        """Echelon of the e-images of Poisson monomials, star-truncated."""
        ech = Echelon()
        for m in monomials:
            row = {}
            for t, c in pbw.sym_pbw(m.factors).items():
                if _tuple_star(t) <= self.d:
                    row[self.index[t]] = c
            ech.add(row)
        return ech

    def window_monomials(self, max_poly, min_star=0):
        out = []
        for q in range(min_star, self.d + 1):
            for m in monomials_star_maxpoly(self.n_gens, q, max_poly):
                if m.total_degree <= self.max_total:
                    out.append(m)
        return out


_UWINDOW_CACHE = {}


def u_window(n_gens, d, max_total):
    key = (n_gens, d, max_total)
    if key not in _UWINDOW_CACHE:
        _UWINDOW_CACHE[key] = UWindow(n_gens, d, max_total)
    return _UWINDOW_CACHE[key]


def _span_union_rank(a, b):
    ech = Echelon()
    for row in a.basis():
        ech.add(row)
    for row in b.basis():
        ech.add(row)
    return ech.rank


def _intersection_rank(a, b):
    return a.rank + b.rank - _span_union_rank(a, b)


@dataclass
class FiltrationWindowReport:
    """Window comparison of the computed F_n against the star-graded tail."""

    n: int
    N: int
    rank_filtration: int
    rank_expected: int
    tail_inside_filtration: bool

    @property
    def matches(self):
        return self.tail_inside_filtration and (
            self.rank_filtration == self.rank_expected
        )


def commutator_filtration_Q(alg, n, N):
    """Compare F_n of the commutator filtration of Q_X^(d) with the span of
    the star degrees >= n, inside the (star <= d, poly <= N) window."""
    if n > alg.d + 1:
        raise ValueError("filtration level exceeds d + 1")
    win = u_window(alg.n_gens, alg.d, N + 2 * alg.d)
    chain = win.filtration(n)
    window_span = win.poisson_span(win.window_monomials(N))
    tail_span = win.poisson_span(win.window_monomials(N, min_star=n))
    rank_filtration = _intersection_rank(chain[n], window_span)
    tail_inside = all(chain[n].contains(row) for row in tail_span.basis())
    return FiltrationWindowReport(
        n=n,
        N=N,
        rank_filtration=rank_filtration,
        rank_expected=tail_span.rank,
        tail_inside_filtration=tail_inside,
    )


@dataclass
class GradedRankReport:
    n: int
    graded_rank: int
    envelope_rank: int

    @property
    def matches(self):
        return self.graded_rank == self.envelope_rank


def graded_of_Q(alg, N):
    """Ranks of F_n/F_{n+1} in the window against the graded envelope piece
    P_n (the graded-reconstruction witness for polynomial coordinates)."""
    win = u_window(alg.n_gens, alg.d, N + 2 * alg.d)
    chain = win.filtration(alg.d + 1)
    window_span = win.poisson_span(win.window_monomials(N))
    out = []
    for n in range(alg.d + 1):
        r_n = _intersection_rank(chain[n], window_span)
        r_n1 = _intersection_rank(chain[n + 1], window_span)
        p_n = win.poisson_span(
            [
                m
                for m in win.window_monomials(N)
                if m.star_degree == n
            ]
        ).rank
        out.append(
            GradedRankReport(n=n, graded_rank=r_n - r_n1, envelope_rank=p_n)
        )
    return out


def _capped_right_products(win, cap):
    """Right products by the letters on total-homogeneous vectors, as maps
    for ``span_closure``; a product past total ``cap`` is 0, and is never
    formed.  Closing the letters under them spans all totals 1 .. cap."""

    def right(lv):
        return lambda v: win.mul(v, lv) if win.totals[next(iter(v))] < cap else {}

    return [right(lv) for lv in win.generators()]


@dataclass
class StarIdealReport:
    """Finite sanity check of the topology-equivalence bound: the N-th star
    power of the augmentation star-ideal J sits inside I^m G + G_{>=m}."""

    d: int
    m: int
    alpha: int
    power: int
    max_total: int
    included: bool


def star_ideal_topology_check(n_gens, d, m, alpha=None, extra_totals=2):
    """Check J^{*N} <= I^m G + G_{>=m} in Q^(d) for N = m * alpha^d + d.

    alpha bounds the bidifferential order of the truncated product (its p-th
    component has order <= p), floored at 2 because the base-alpha digit
    bookkeeping behind the bound degenerates below base 2 (at d = 1 the
    literal order 1 makes the inclusion false: x1 * x1 * x2 picks up the
    term x1*(12) of SV-degree 1).  The containment target is a coordinate
    subspace in Poisson coordinates: monomials with SV-part degree >= m or
    star degree >= m.
    """
    if alpha is None:
        alpha = max(2, d)
    power = m * alpha**d + d
    max_total = power + extra_totals
    win = u_window(n_gens, d, max_total)

    target = win.poisson_span(
        [
            mono
            for total in range(power, max_total + 1)
            for q in range(min(d, total) + 1)
            for mono in monomials_star_total(n_gens, q, total)
            if mono.poly_degree >= m or mono.star_degree >= m
        ]
    )

    # J^{*k} elements have total >= k and the final membership test only
    # looks below max_total, so stage k is capped at k + extra_totals.
    # Right closure of the letters is all of total degree >= 1: every word
    # starts with a letter, so sum_i x_i * R is the full positive part.
    maps = _capped_right_products(win, min(1 + extra_totals, max_total))
    j_span = span_closure(maps, win.generators())
    for k in range(2, power + 1):
        maps = _capped_right_products(win, min(k + extra_totals, max_total))
        # J^{*k} = J^{*(k-1)} * J = sum of J^{*(k-1)} x_i R: close on the right
        j_span = span_closure(maps, [f(v) for v in j_span.basis() for f in maps])

    included = all(target.contains(row) for row in j_span.basis())
    return StarIdealReport(
        d=d,
        m=m,
        alpha=alpha,
        power=power,
        max_total=max_total,
        included=included,
    )


# -- finite window algebras (structure-constant form) ------------------------


def poisson_window_algebra(n_gens, d, max_total):
    """The free Poisson algebra cut to star degree <= d and total letter
    count <= max_total, as a TruncatedAlgebra with bracket.

    Both excess gradings span Poisson ideals, so the quotient is an honest
    finite-rank Poisson algebra.
    """
    basis = []
    for total in range(max_total + 1):
        for q in range(min(d, total) + 1):
            basis.extend(monomials_star_total(n_gens, q, total))
    index = {m: i for i, m in enumerate(basis)}

    def coords(element):
        out = {}
        for m, c in element.terms.items():
            if m.star_degree <= d and m.total_degree <= max_total:
                out[index[m]] = c
        return out

    product = {}
    bracket = {}
    for i, m1 in enumerate(basis):
        e1 = PoissonElement.monomial(m1)
        for j, m2 in enumerate(basis):
            e2 = PoissonElement.monomial(m2)
            row = coords(multiply(e1, e2))
            if row:
                product[(i, j)] = row
            row = coords(poisson_bracket(e1, e2))
            if row:
                bracket[(i, j)] = row
    return TruncatedAlgebra(
        dim=len(basis),
        labels=[repr(m) for m in basis],
        unit=index[next(m for m in basis if m.total_degree == 0)],
        product=product,
        bracket=bracket,
        validate=True,
    )


def quantized_window_algebra(n_gens, d, max_total):
    """Q_X^(d) cut to total degree <= max_total, in PBW coordinates, as an
    associative TruncatedAlgebra (no bracket table)."""
    win = UWindow(n_gens, d, max_total)
    product = {}
    for i, t1 in enumerate(win.tuples):
        for j, t2 in enumerate(win.tuples):
            if win.totals[i] + win.totals[j] > max_total:
                continue
            row = win.mono_mul(t1, t2)
            if row:
                product[(i, j)] = row
    unit = win.index[()]
    labels = ["*".join(repr(f) for f in t) or "1" for t in win.tuples]
    return TruncatedAlgebra(
        dim=len(win.tuples),
        labels=labels,
        unit=unit,
        product=product,
        validate=True,
    )


def envelope_window_algebra(pres, max_total):
    """PA/P_{>d}A cut to total degree <= max_total, for a homogeneous
    presentation, as a TruncatedAlgebra with bracket.

    Basis vectors are the non-pivot monomials of the windowed ideal blocks;
    products and brackets are computed in SLV and reduced to normal form.
    """
    if not pres.homogeneous:
        raise ValueError("window algebra needs a homogeneous presentation")
    d = pres.d
    gens = _generators_up_to(pres, d)
    blocks = {}
    basis = []
    for total in range(max_total + 1):
        for q in range(min(d, total) + 1):
            cols, ech = ideal_block(pres, q, total, gens)
            index = {m: i for i, m in enumerate(cols)}
            blocks[(q, total)] = (cols, index, ech)
            pivots = set(ech.rows)
            basis.extend(m for i, m in enumerate(cols) if i not in pivots)
    gindex = {m: i for i, m in enumerate(basis)}

    def reduce_element(element):
        out = {}
        for m, c in element.terms.items():
            if m.star_degree > d or m.total_degree > max_total:
                continue
            cols, index, ech = blocks[(m.star_degree, m.total_degree)]
            normal = ech.normal_form({index[m]: c})
            merge(out, ((gindex[cols[i]], v) for i, v in normal.items()))
        return out

    product = {}
    bracket = {}
    for i, m1 in enumerate(basis):
        e1 = PoissonElement.monomial(m1)
        for j, m2 in enumerate(basis):
            e2 = PoissonElement.monomial(m2)
            row = reduce_element(multiply(e1, e2))
            if row:
                product[(i, j)] = row
            row = reduce_element(poisson_bracket(e1, e2))
            if row:
                bracket[(i, j)] = row
    return TruncatedAlgebra(
        dim=len(basis),
        labels=[repr(m) for m in basis],
        unit=gindex[next(m for m in basis if m.total_degree == 0)],
        product=product,
        bracket=bracket,
        validate=True,
    )
