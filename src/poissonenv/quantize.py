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

from bisect import bisect_right
from dataclasses import dataclass

from . import pbw
from .envelope import EnvelopePresentation, _generators_up_to, ideal_block
from .filtration import FiniteAlgebra, TruncatedAlgebra, filtration_chain, span_closure
from .freelie import generator
from .freepoisson import (
    PoissonElement,
    monomials_star_total,
    monomials_up_to_total,
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


class UWindow(FiniteAlgebra):
    """Q_X^(d) modulo total degree > max_total, in PBW coordinates: the
    coordinates are the window's ``monomials``, and ``index`` maps their
    factor ``tuples`` to coordinates."""

    def __init__(self, n_gens, d, max_total):
        self.n_gens = n_gens
        self.d = d
        self.max_total = max_total
        self.monomials = monomials_up_to_total(n_gens, max_total, d)
        self.tuples = [m.factors for m in self.monomials]
        self.index = {t: i for i, t in enumerate(self.tuples)}
        self.totals = [m.total_degree for m in self.monomials]
        self.letters = [(generator(i),) for i in range(1, n_gens + 1)]
        self.dim = len(self.tuples)
        self.unit = self.index[()]
        self._rows = {}
        self._chain = None

    def _cut(self, table):
        """The terms of a PBW table inside the window, by coordinate.  A table
        of total <= max_total keeps its total under straightening and e, so
        its window terms are those of star <= d: the tuples ``index`` holds."""
        index = self.index
        return {index[t]: c for t, c in table.items() if t in index}

    def mono_mul(self, t1, t2):
        return self._cut(pbw.normal_table(t1 + t2))

    def _row(self, i, j):
        """Coordinate dict of the product of basis vectors i and j (memoized)."""
        row = self._rows.get((i, j))
        if row is None:
            row = self._rows[(i, j)] = self.mono_mul(self.tuples[i], self.tuples[j])
        return row

    def _pairs(self, v, w):
        """(i, j, c_i * c_j) over the index pairs of v and w inside the window,
        in the order of v, then of w.  An i whose room is below the smallest
        total in w has no such pair and is passed over without visiting w."""
        if not w:
            return
        totals = self.totals
        least = min(map(totals.__getitem__, w))
        for i, c1 in v.items():
            room = self.max_total - totals[i]
            if room < least:
                continue
            for j, c2 in w.items():
                if totals[j] <= room:
                    yield i, j, c1 * c2

    def partners(self, basis):
        """Map from v to the rows of the Echelon basis ``basis`` whose
        product and commutator with v can be nonzero: a prefix of ``basis``,
        found by bisection.

        The columns are ordered by total (``monomials_up_to_total``), so a
        vector's smallest column carries its lowest total, and a product of
        v and w is 0 when their lowest totals add up past ``max_total``.  An
        Echelon basis is in pivot order, and a row's pivot is its smallest
        column, so the lowest totals of ``basis`` never decrease: the rows
        that fit beside v are a prefix, in the order of ``basis``.
        """
        totals = self.totals
        lows = [totals[min(w)] for w in basis]
        return lambda v: basis[: bisect_right(lows, self.max_total - totals[min(v)])]

    def generators(self):
        """The letters x_1 .. x_n inside the window, which generate the
        algebra; none when ``max_total`` is 0, as k needs none."""
        return [{self.index[t]: 1} for t in self.letters if t in self.index]

    def filtration(self, levels):
        """Commutator filtration chain F_0 .. F_levels (list of Echelons).

        The chain comes from ``filtration_chain`` with the letters as
        generators, computed on the first call and kept for later ones.
        Callers index the list once per row, and a list index is cheaper
        than a ``FiltrationChain`` one.
        """
        if self._chain is None:
            self._chain = filtration_chain(self, self.commutator)
        return [self._chain[n] for n in range(levels + 1)]

    def poisson_span(self, monomials):
        """Echelon of the e-images of Poisson monomials, star-truncated.

        Each row is the int table k! e(m) of ``pbw.sym_table``: the span does
        not depend on the scale of a row, and ``Echelon`` stores every row
        normalized, so the result equals that of the rows e(m) themselves.
        """
        return Echelon.spanning(self._cut(pbw.sym_table(m.factors)) for m in monomials)

    def window_monomials(self, max_poly, min_star=0):
        """The window's monomials of SV-part degree <= max_poly and star
        degree >= min_star, in the window's order."""
        return [
            m
            for m in self.monomials
            if m.poly_degree <= max_poly and m.star_degree >= min_star
        ]


_UWINDOW_CACHE = {}


def u_window(n_gens, d, max_total):
    key = (n_gens, d, max_total)
    if key not in _UWINDOW_CACHE:
        _UWINDOW_CACHE[key] = UWindow(n_gens, d, max_total)
    return _UWINDOW_CACHE[key]


def _intersection_rank(a, b):
    return a.rank + b.rank - Echelon.spanning(a.basis() + b.basis()).rank


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
    if n < 0:
        raise ValueError(f"need filtration level n >= 0, got {n}")
    if n > alg.d + 1:
        raise ValueError("filtration level exceeds d + 1")
    if N < 0:
        raise ValueError(f"need window N >= 0, got {N}")
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
    if N < 0:
        raise ValueError(f"need window N >= 0, got {N}")
    win = u_window(alg.n_gens, alg.d, N + 2 * alg.d)
    chain = win.filtration(alg.d + 1)
    window = win.window_monomials(N)
    window_span = win.poisson_span(window)
    ranks = [_intersection_rank(chain[n], window_span) for n in range(alg.d + 2)]
    out = []
    for n in range(alg.d + 1):
        p_n = win.poisson_span([m for m in window if m.star_degree == n]).rank
        graded = ranks[n] - ranks[n + 1]
        out.append(GradedRankReport(n=n, graded_rank=graded, envelope_rank=p_n))
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


# totals checked past the power N: the window reaches total N + _EXTRA_TOTALS
_EXTRA_TOTALS = 2


def star_ideal_topology_check(n_gens, d, m):
    """Check J^{*N} <= I^m G + G_{>=m} in Q^(d) for N = m * alpha^d + d,
    with alpha = max(2, d).

    alpha bounds the bidifferential order of the truncated product (its p-th
    component has order <= p), floored at 2 because the base-alpha digit
    bookkeeping behind the bound degenerates below base 2 (at d = 1 the
    literal order 1 makes the inclusion false: x1 * x1 * x2 picks up the
    term x1*(12) of SV-degree 1).  The containment target is a coordinate
    subspace in Poisson coordinates: monomials with SV-part degree >= m or
    star degree >= m.
    """
    alpha = max(2, d)
    power = m * alpha**d + d
    max_total = power + _EXTRA_TOTALS
    win = u_window(n_gens, d, max_total)

    target = win.poisson_span(
        [
            mono
            for mono in win.monomials
            if mono.total_degree >= power
            and (mono.poly_degree >= m or mono.star_degree >= m)
        ]
    )

    # J^{*k} elements have total >= k and the final membership test only
    # looks below max_total, so stage k is capped at k + _EXTRA_TOTALS.
    # Right closure of the letters is all of total degree >= 1: every word
    # starts with a letter, so sum_i x_i * R is the full positive part.
    maps = _capped_right_products(win, min(1 + _EXTRA_TOTALS, max_total))
    j_span = span_closure(maps, win.generators())
    for k in range(2, power + 1):
        maps = _capped_right_products(win, k + _EXTRA_TOTALS)
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
    count <= max_total, as a TruncatedAlgebra with bracket: the window
    algebra of the presentation without relations.

    Both excess gradings span Poisson ideals, so the quotient is an honest
    finite-rank Poisson algebra.
    """
    return envelope_window_algebra(EnvelopePresentation(n_gens, (), d, 0), max_total)


def quantized_window_algebra(n_gens, d, max_total):
    """Q_X^(d) cut to total degree <= max_total, in PBW coordinates, as an
    associative TruncatedAlgebra (no bracket table)."""
    win = UWindow(n_gens, d, max_total)
    every = dict.fromkeys(range(win.dim), 1)
    product = {}
    for i, j, _ in win._pairs(every, every):
        row = win._row(i, j)
        if row:
            product[(i, j)] = row
    return TruncatedAlgebra(
        dim=win.dim,
        labels=[repr(m) for m in win.monomials],
        unit=win.unit,
        product=product,
    )


def envelope_window_algebra(pres, max_total):
    """PA/P_{>d}A cut to total degree <= max_total, for a homogeneous
    presentation, as a TruncatedAlgebra with bracket.

    Basis vectors are the non-pivot monomials of the windowed ideal blocks;
    products and brackets are computed in SLV and reduced to normal form.
    The zero algebra has no unit, so a whole-window ideal is a ValueError.
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
            basis.extend(
                m
                for m in monomials_star_total(pres.n_gens, q, total)
                if index[m] not in ech.rows
            )
    unit = next((m for m in basis if m.total_degree == 0), None)
    if unit is None:
        raise ValueError(
            "the relations generate the whole window, so the window algebra"
            " is zero and has no unit"
        )
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
        unit=gindex[unit],
        product=product,
        bracket=bracket,
    )
