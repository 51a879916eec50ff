"""The truncated PBW quantization Q_X^(d) for polynomial coordinates.

For a polynomial algebra the local model is the whole free Poisson algebra,
so the quantized product is the PBW star product with every star degree
above d discarded; that truncation is exact because the discarded part is a
two-sided ideal.

The filtration computations run in PBW coordinates (nondecreasing products
of Lyndon basis elements), where the product is concatenation followed by
straightening and the star truncation is the coordinate span of the tuples
of star degree above d.  Every product is straightened with the cap d (see
``pbw``), so no term of that span is ever computed.  Every object in sight
is graded by total letter count, so windows by total degree are honest
finite quotients and the computed chains restrict exactly.  The windowed
claims, F_n equal to the star >= n tail and F_n/F_{n+1} of the rank of P_n,
are read off one kept comparison per window and SV-part bound
(``UWindow.window``), where each tail is a coordinate span and the ranks of
every level come from one bottom-up projection of the graded chain.  The
star-ideal check eliminates nothing: the grading makes its ranks counts of
monomials (``_star_power_included``).  ``nc_embed`` and
``truncated_product`` work in symmetric coordinates, with the capped star
product of ``freepoisson``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import pbw
from .envelope import EnvelopePresentation, _generators_up_to, ideal_block
from .filtration import FiniteAlgebra, TruncatedAlgebra, filtration_chain
from .freelie import generator
from .freepoisson import (
    PoissonElement,
    PoissonMonomial,
    _bracket_monomials,
    _int_sum,
    _star_monomials,
    _star_sum,
    _table_sum,
    monomials_star_total,
    monomials_up_to_total,
    plus_tuples,
)
from .linalg import Echelon, _require_ints, linear


@dataclass(frozen=True)
class QuantizedAlgebra:
    """Q_X^(d): the free Poisson algebra in star degrees <= d with the
    truncated star product."""

    n_gens: int
    d: int

    def __post_init__(self):
        _require_ints(n_gens=self.n_gens, d=self.d)
        if self.n_gens < 1 or self.d < 0:
            raise ValueError("need n_gens >= 1 and d >= 0")


def truncated_product(alg, a, b):
    """The associative product sum of B^X_p with star degrees > d dropped.

    No term past star degree d is computed: each monomial pair's table is
    built with every intermediate capped at d (``freepoisson._star_monomials``),
    which is exact because no term of the Berezin-Gutt product f * Q has
    star degree below star f + star Q.  The pairs' int tables are summed
    over the lcm of their denominators, as ``star_product`` sums them, and
    each coefficient is divided once.
    """
    if a.max_star_degree() > alg.d or b.max_star_degree() > alg.d:
        raise ValueError(f"inputs must have star degree <= {alg.d}")
    return _star_sum(a, b, alg.d)


def nc_embed(alg, w):
    """Image of a noncommutative word under the product of the generators:
    the capped star product x_{i1} * ... * x_{ik} of its letters, which is
    e^{-1} of the word with the ideal of star degrees > d dropped.

    The letters are folded in ints over one running denominator: each step
    sums the int star tables of the current monomials with one letter over
    the lcm of their denominators (``freepoisson._int_sum``), and each
    coefficient is divided once, at the end.  A bool or non-int letter
    raises ``TypeError``, one outside 1..n_gens ``ValueError``.
    """
    for i in w:
        _require_ints(letter=i)
        if not 1 <= i <= alg.n_gens:
            raise ValueError(f"letter {i} outside 1..{alg.n_gens}")
    if not w:
        return PoissonElement.one()
    # 1 * x = x; each later letter is one int step over the running den
    terms = [(1, ((PoissonMonomial.of((generator(w[0]),)), 1),), 1)]
    for i in w[1:]:
        x = PoissonMonomial.of((generator(i),))
        acc, den = _int_sum(terms)
        terms = []
        for m, c in acc.items():
            if c:
                ints, d = _star_monomials(m, x, alg.d)
                terms.append((c, ints.items(), d * den))
    return PoissonElement._of(_table_sum(terms))


class UWindow(FiniteAlgebra):
    """Q_X^(d) modulo total degree > max_total, in PBW coordinates: the
    coordinates are the window's ``monomials``, and ``index`` maps their
    factor ``tuples`` to coordinates.  The product of two of them is 0
    exactly when their ``totals`` sum past ``max_total`` or their ``stars``
    past ``d`` (see ``_row``).

    Every straightened product the window reads is capped at star degree
    ``d`` (``pbw``), so nothing past the window is computed.  The chain is
    kept, and so is ``window(N)``, the star tails of each SV-part bound N
    with the chain's ranks inside them.
    """

    def __init__(self, n_gens, d, max_total):
        _require_ints(n_gens=n_gens, d=d, max_total=max_total)
        if n_gens < 1 or d < 0 or max_total < 0:
            raise ValueError(
                "need n_gens >= 1, d >= 0 and max_total >= 0,"
                f" got {n_gens}, {d} and {max_total}"
            )
        self.n_gens = n_gens
        self.d = d
        self.max_total = max_total
        self.monomials = monomials_up_to_total(n_gens, max_total, d)
        self.tuples = [m.factors for m in self.monomials]
        self.index = {t: i for i, t in enumerate(self.tuples)}
        self.totals = [m.total_degree for m in self.monomials]
        self.stars = [m.star_degree for m in self.monomials]
        self.letters = [(generator(i),) for i in range(1, n_gens + 1)]
        self.dim = len(self.tuples)
        self.unit = self.index[()]
        self._rows = {}
        self._windows = {}
        self._chain = None

    @property
    def degrees(self):
        """The grading by total letter count, which straightening keeps:
        ``filtration_chain`` closes the window's chain from the bottom up."""
        return self.totals

    def mono_mul(self, t1, t2):
        """The product of two window tuples whose totals fit the window:
        their concatenation straightened with the cap d, by coordinate.  The
        table is of star <= d and of total <= max_total, which straightening
        keeps, so every term is a tuple that ``index`` holds."""
        index = self.index
        return {index[t]: c for t, c in pbw.normal_table(t1 + t2, self.d).items()}

    def _row(self, i, j):
        """Coordinate dict of the product of basis vectors i and j, memoized.

        It is 0, and nothing is straightened, exactly when the totals of i
        and j sum past ``max_total`` or their star degrees past ``d``:
        straightening keeps the total, a swap keeps a term's star degree and
        a bracket raises it by 1, and a pair inside both bounds keeps its
        sorted concatenation, with coefficient 1.  Inside the bounds only the
        terms of star <= d are straightened (``mono_mul``).
        """
        totals, stars = self.totals, self.stars
        if totals[i] + totals[j] > self.max_total or stars[i] + stars[j] > self.d:
            return {}
        row = self._rows.get((i, j))
        if row is None:
            row = self._rows[(i, j)] = self.mono_mul(self.tuples[i], self.tuples[j])
        return row

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
        """Echelon of the e-images of window monomials, star-truncated: each
        row is the int table k! e(m) cut to the window's tuples, as a span
        does not depend on row scales.  e keeps the total, so the tuples of
        the table that ``index`` holds are exactly its terms of star <= d.

        No library computation calls it, as the grading fixes every rank
        it would give (``window``, ``_star_power_included``).  It stays as
        the tests' independent reference for those ranks and as an entry
        point that the benchmark's tracer wraps by name.
        """
        index = self.index
        return Echelon.spanning(
            {index[t]: c for t, c in pbw.sym_table(m.factors).items() if t in index}
            for m in monomials
        )

    def window(self, max_poly):
        """``(tails, ranks)`` for the SV-part bound ``max_poly``, built once
        and kept: ``graded_of_Q`` and ``commutator_filtration_Q`` read it.

        ``tails[n]``, n = 0 .. d + 1, lists the coordinates of the window
        monomials of SV-part degree <= max_poly and star degree >= n, whose
        span is the star >= n tail, the span of their e-images: e cut to star
        <= d keeps the total, never lowers the star degree, never raises the
        SV-part degree and is unitriangular in the factor count, so it maps
        the span of those tuples onto itself.

        ``ranks[n]`` is the rank of F_n inside the span of ``tails[0]``:
        the rank of F_n less that of its rows cut to the columns outside,
        as that cut is a projection whose kernel is the intersection.
        ``ranks[0]`` is ``len(tails[0])``, as F_0 is the whole window.  For
        n >= 1 the graded chain is closed from the deepest piece up, F_n
        from a copy of F_{n+1} (``Echelon.copy``), so the rows of F_n are
        those of F_{n+1}, the same objects at the same pivots, and some
        more: one running cut, walked from n = d + 1 down to n = 1, adds
        only the rows of F_n whose pivot F_{n+1} lacks.
        """
        # checked before the memo lookup: True would share the key of 1
        _require_ints(max_poly=max_poly)
        if max_poly < 0:
            raise ValueError(f"need SV-part bound max_poly >= 0, got {max_poly}")
        hit = self._windows.get(max_poly)
        if hit is None:
            window = [i for i, m in enumerate(self.monomials) if m.poly_degree <= max_poly]
            tails = [[i for i in window if self.stars[i] >= n] for n in range(self.d + 2)]
            inside = set(window)
            chain = self.filtration(self.d + 1)
            ranks = [len(window)] + [0] * (self.d + 1)
            cut = Echelon()
            above = {}
            for n in range(self.d + 1, 0, -1):
                rows = chain[n].rows
                for col, row in rows.items():
                    if col not in above:
                        cut.add({c: v for c, v in row.items() if c not in inside})
                ranks[n] = len(rows) - cut.rank
                above = rows
            hit = self._windows[max_poly] = (tails, ranks)
        return hit


_UWINDOW_CACHE = {}


def u_window(n_gens, d, max_total):
    # a bool would share the cache key of the int it equals
    _require_ints(n_gens=n_gens, d=d, max_total=max_total)
    key = (n_gens, d, max_total)
    if key not in _UWINDOW_CACHE:
        _UWINDOW_CACHE[key] = UWindow(n_gens, d, max_total)
    return _UWINDOW_CACHE[key]


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
    the star degrees >= n, inside the (star <= d, poly <= N) window: a read
    of the window's kept comparison ``UWindow.window(N)``."""
    _require_ints(n=n, N=N)
    if n < 0:
        raise ValueError(f"need filtration level n >= 0, got {n}")
    if n > alg.d + 1:
        raise ValueError("filtration level exceeds d + 1")
    if N < 0:
        raise ValueError(f"need window N >= 0, got {N}")
    win = u_window(alg.n_gens, alg.d, N + 2 * alg.d)
    tails, ranks = win.window(N)
    piece = win.filtration(n)[n]
    return FiltrationWindowReport(
        n=n,
        N=N,
        rank_filtration=ranks[n],
        rank_expected=len(tails[n]),
        tail_inside_filtration=all(piece.contains({i: 1}) for i in tails[n]),
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
    P_n (the graded-reconstruction witness for polynomial coordinates).

    Both are read off ``UWindow.window(N)``.  The rank of P_n, the span of
    the star-n e-images, is len(tails[n]) - len(tails[n + 1]): e is
    injective, so those images meet the star > n tail only in 0.
    """
    _require_ints(N=N)
    if N < 0:
        raise ValueError(f"need window N >= 0, got {N}")
    tails, ranks = u_window(alg.n_gens, alg.d, N + 2 * alg.d).window(N)
    return [
        GradedRankReport(
            n=n,
            graded_rank=ranks[n] - ranks[n + 1],
            envelope_rank=len(tails[n]) - len(tails[n + 1]),
        )
        for n in range(alg.d + 1)
    ]


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
    star degree >= m.  The test of J^{*N} reads totals up to N + 2; the
    inclusion itself is ``_star_power_included``, a count over the factor
    tuples of positive star, so no window is built.
    """
    _require_ints(n_gens=n_gens, d=d, m=m)
    if n_gens < 1 or d < 0:
        raise ValueError(f"need n_gens >= 1 and d >= 0, got {n_gens} and {d}")
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    alpha = max(2, d)
    power = m * alpha**d + d
    max_total = power + _EXTRA_TOTALS
    included = _star_power_included(n_gens, d, m, power, max_total)
    return StarIdealReport(d, m, alpha, power, max_total, included)


def _star_power_included(n_gens, d, m, power, max_total):
    """Whether, in the window of Q^(d) in ``n_gens`` generators cut to total
    ``max_total``, J^{*power} lies in the e-image span of the window
    monomials of total >= power with SV-part degree >= m or star degree
    >= m.

    1. J^{*power} is the coordinate span of the window tuples of total
       >= power: the window is graded by total and generated by the
       letters, of total 1, so J^{*power} holds every tuple of total
       >= power and no vector of a lower total.
    2. Capped e keeps the total, so the target lies in that span, and it
       is unitriangular in the factor count, so the e-images of distinct
       monomials are independent: the target's rank is its number of
       monomials.  The inclusion holds exactly when every window monomial
       of total in [power, max_total] has SV-part degree >= m or star
       degree >= m.
    3. A monomial is an SV part, any tuple of poly letters, times a plus
       part, a tuple of positive-star factors of star <= d, and its total
       is poly + the plus part's letters.  A monomial of SV-part degree
       < m and star < m, the only kind that can fail, exists at total t
       exactly when some plus part of star q <= min(d, m - 1) has
       0 <= t - letters < m.

    At d = 1, m = 2 and power 3 the plus part (12) of 2 letters fails with
    t = 3: x1*(12) has SV-part degree 1.  One generator has no factor of
    positive star, so there the inclusion holds.
    """
    for q in range(min(d, m - 1) + 1):
        for plus in plus_tuples(n_gens, q):
            letters = sum(len(b.word) for b in plus)
            if max(power, letters) <= min(max_total, letters + m - 1):
                return False
    return True


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
    totals, product = win.totals, {}
    for i in range(win.dim):
        for j in range(win.dim):
            if totals[i] + totals[j] > max_total:
                break  # the basis goes by total, so every later j is too
            if row := win._row(i, j):
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

    Basis vectors are the non-pivot monomials of the windowed ideal blocks,
    in order of total degree.  Each basis pair's product and bracket are read
    off the monomial tables of SLV, and only the pairs whose result can be
    nonzero are computed, each unordered pair once:

    - every term of m1 m2 has star s1 + s2 and total t1 + t2, and every
      term of {m1, m2} star s1 + s2 + 1 and total t1 + t2, while the window
      drops exactly the terms of star > d or total > max_total; so a pair
      with t1 + t2 > max_total or s1 + s2 > d is 0 in both tables, and its
      bracket is 0 when s1 + s2 >= d (the rule of ``UWindow._row``, with
      the bracket's +1);
    - m2 m1 is the monomial m1 m2, so (j, i) has the row of (i, j), and
      every product and bracket row is read off one normal form per
      monomial, in its (star, total) ideal block: the product row is that
      of m1 m2, the bracket row the sum of those of its terms, all of which
      lie in the window;
    - ``bracket_basis`` is antisymmetric, so {m2, m1} is -{m1, m2} term by
      term and, the normal form being linear, row (j, i) is -row (i, j);
      {m, m} = 0.

    The zero algebra has no unit, so a whole-window ideal is a ValueError.
    """
    _require_ints(max_total=max_total)
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
    rows = {}  # window monomial -> its normal form, by basis index

    def row_of(m):
        row = rows.get(m)
        if row is None:
            cols, index, ech = blocks[(m.star_degree, m.total_degree)]
            normal = ech.normal_form({index[m]: 1})
            row = rows[m] = {gindex[cols[i]]: c for i, c in normal.items()}
        return row

    product = {}
    bracket = {}
    for i, m1 in enumerate(basis):
        for j in range(i, len(basis)):
            m2 = basis[j]
            if m1.total_degree + m2.total_degree > max_total:
                break  # the basis goes by total, so every later j is too
            star = m1.star_degree + m2.star_degree
            if star > d:
                continue
            if row := row_of(PoissonMonomial.of(m1.factors + m2.factors)):
                product[(i, j)] = product[(j, i)] = row
            if star < d and j > i:
                if row := linear(_bracket_monomials(m1, m2), row_of):
                    bracket[(i, j)] = row
                    bracket[(j, i)] = {k: -c for k, c in row.items()}
    return TruncatedAlgebra(
        dim=len(basis),
        labels=[repr(m) for m in basis],
        unit=gindex[unit],
        product=product,
        bracket=bracket,
    )
