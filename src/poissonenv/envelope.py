"""Truncated Poisson envelopes of finitely presented commutative algebras.

For A = SV/I the envelope is PA = SLV / <<I>>, where <<I>> is the smallest
ideal closed under both products.  It is generated, as an ordinary ideal, by
the relations together with their right-normed brackets
{x_{j1}, ... {x_{jn}, f}...} with the coordinate generators, built one
star degree from the one below.  Brackets with the relation at any other
position of the chain add nothing: by Jacobi they are combinations of the
right-normed ones.  That generator list is star-graded, so PA inherits the
star grading, and each graded piece is computed here as an exact quotient
within a finite window.

Windows: the reported window is (star degree n, SV-part degree <= N).  For
homogeneous relations the ideal is additionally graded by total letter
count, the computation decomposes into finite (star, total) blocks, and the
window ranks are exact.  For inhomogeneous relations the ideal span is
generated up to a poly-degree slack and intersected with the window, which
yields a lower bound on the ideal (so an upper bound on the quotient rank);
pieces carry an ``exact`` flag either way.  Every windowed span, the ideal's
and the two-form relations' of ``p1_rank_check``, is cut to its window by
the one carve ``_window_part``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .freelie import LieElement, bracket_basis, generator
from .freepoisson import (
    PoissonElement,
    PoissonMonomial,
    monomials_star_maxpoly,
    monomials_star_total,
    multiply,
    poisson_bracket,
    sv_tuples,
)
from .linalg import Echelon, merge


@dataclass(frozen=True)
class EnvelopePresentation:
    """A = polynomial algebra on n_gens generators modulo ``relations``."""

    n_gens: int
    relations: tuple
    d: int
    N: int

    def __post_init__(self):
        if self.n_gens < 1:
            raise ValueError("need at least one generator")
        if self.d < 0:
            raise ValueError("d must be >= 0")
        if self.N < 0:
            raise ValueError(f"need window N >= 0, got {self.N}")
        rels = tuple(self.relations)
        object.__setattr__(self, "relations", rels)
        for f in rels:
            if f.is_zero():
                raise ValueError("relations must be nonzero")
            if f.max_star_degree() != 0:
                raise ValueError("relations must be commutative polynomials")
        if rels and self.N < self.max_relation_degree:
            raise ValueError("window N must cover the relation degrees")

    @property
    def max_relation_degree(self):
        return max(
            (m.poly_degree for f in self.relations for m in f.terms), default=0
        )

    @property
    def homogeneous(self):
        """True if every relation is homogeneous in polynomial degree."""
        for f in self.relations:
            degs = {m.poly_degree for m in f.terms}
            if len(degs) > 1:
                return False
        return True


@dataclass
class GradedQuotientPiece:
    """One star-degree piece of the windowed envelope quotient."""

    star_degree: int
    ambient_basis: list
    ideal_span: list  # row dicts over the indices of ambient_basis
    quotient_rank: int
    exact: bool


def poisson_ideal_generators(pres, n):
    """Ideal generators of star degree exactly n.

    Degree 0 gives the relations themselves; degree n >= 1 gives the
    right-normed brackets {x_{j1}, {x_{j2}, ... {x_{jn}, f}...}} of each
    relation f with letters.  A bracket with f at any other position of the
    chain lies in their span: by Jacobi, the part of the free Lie algebra on
    the letters and f that is linear in f is spanned by the right-normed
    brackets ending in f.  Together with monomial multiples (of all
    lower-degree generators) these span the windowed Poisson ideal.
    """
    if n < 0:
        raise ValueError(f"star degree {n} is negative")
    return _generators_up_to(pres, n)[n]


_sort_key = attrgetter("sort_key")


def _coords(element, index):
    out = {}
    for m, c in element.terms.items():
        i = index.get(m)
        if i is None:
            raise KeyError(f"monomial {m!r} outside ambient window")
        out[i] = c
    return out


def _generators_up_to(pres, n):
    """The ideal generators of star degrees 0..n, as star degree -> list.

    Level 0 is the relations; level k holds {x_j, g} for each level-(k-1)
    generator g and each letter x_j, in that order, zeros and repeats
    dropped.  Degrees above the presentation bound d are refused.
    """
    if n > pres.d:
        raise ValueError(f"star degree {n} exceeds presentation bound {pres.d}")
    letters = [PoissonElement.generator(i) for i in range(1, pres.n_gens + 1)]
    levels = {0: list(pres.relations)}
    for k in range(1, n + 1):
        level = []
        seen = set()
        for g in levels[k - 1]:
            for x in letters:
                h = poisson_bracket(x, g)
                key = frozenset(h.terms.items())
                if h.is_zero() or key in seen:
                    continue
                seen.add(key)
                level.append(h)
        levels[k] = level
    return levels


def _block_products(pres, n, total, gens_by_degree):
    """The nonzero products h * g spanning the (star n, total) block of
    <<I>>: h a monomial, g an ideal generator of star degree <= n."""
    for m_deg, gens in gens_by_degree.items():
        if m_deg > n:
            continue
        for g in gens:
            g_total = next(iter(g.terms)).total_degree
            h_total = total - g_total
            if h_total < 0:
                continue
            for h in monomials_star_total(pres.n_gens, n - m_deg, h_total):
                yield multiply(PoissonElement.monomial(h), g)


def ideal_block(pres, n, total, gens_by_degree):
    """Echelon of the (star n, total letter count) block of <<I>>, spanned
    by products with the ideal generators ``gens_by_degree`` (star degree ->
    generators, as ``_generators_up_to(pres, m)`` gives for an m >= n).

    Only valid for homogeneous presentations, where the ideal is graded by
    total degree.  Returns (block monomials in ``sort_key`` order, echelon
    over block indices).
    """
    block = sorted(monomials_star_total(pres.n_gens, n, total), key=_sort_key)
    index = {m: i for i, m in enumerate(block)}
    products = _block_products(pres, n, total, gens_by_degree)
    return block, Echelon.spanning(_coords(prod, index) for prod in products)


def _window_part(rows, inside, key):
    """A basis of span(rows) intersected with the coordinate span of
    ``inside``, in pivot order: the one carve of a windowed span.

    ``rows`` are dicts over column labels.  The columns that occur are
    numbered with the ones outside the window first, each side in ``key``
    order, so elimination clears the outside columns first.  An echelon
    row's other columns all sort after its pivot, so the rows pivoted
    inside are exactly the rows supported inside.
    """
    rows = list(rows)
    support = {c for row in rows for c in row}
    cols = sorted(support, key=lambda c: (c in inside, key(c)))
    index = {c: i for i, c in enumerate(cols)}
    first = sum(1 for c in cols if c not in inside)
    ech = Echelon.spanning({index[c]: v for c, v in row.items()} for row in rows)
    pivots = [p for p in sorted(ech.rows) if p >= first]
    return [{cols[i]: v for i, v in ech.rows[p].items()} for p in pivots]


def _ideal_window_rows(pres, n):
    """Rows spanning <<I>> within the (star n, poly <= N) window.

    Returns (rows in window coordinates, window monomial list, exact flag).
    For homogeneous relations the window is cut from the (star n, total)
    blocks at its totals, exactly.  Otherwise the ideal is generated with a
    poly-degree slack and carved to the window, a lower bound on the ideal.
    """
    window = monomials_star_maxpoly(pres.n_gens, n, pres.N)
    window_index = {m: i for i, m in enumerate(window)}
    gens_by_degree = _generators_up_to(pres, n)
    if pres.homogeneous:
        totals = sorted({m.total_degree for m in window})
        products = [
            prod
            for total in totals
            for prod in _block_products(pres, n, total, gens_by_degree)
        ]
    else:
        slack = pres.max_relation_degree
        products = [
            multiply(PoissonElement.monomial(h), g)
            for m_deg, gens in gens_by_degree.items()
            for g in gens
            for h in monomials_star_maxpoly(pres.n_gens, n - m_deg, pres.N + slack)
        ]
    part = _window_part((prod.terms for prod in products), window_index, _sort_key)
    rows = [{window_index[m]: c for m, c in row.items()} for row in part]
    return rows, window, pres.homogeneous


def _quotient_piece(pres, n):
    rows, window, exact = _ideal_window_rows(pres, n)
    return GradedQuotientPiece(
        star_degree=n,
        ambient_basis=window,
        ideal_span=rows,
        quotient_rank=len(window) - len(rows),
        exact=exact,
    )


def envelope_truncated(pres):
    """The windowed graded pieces of PA/P_{>d}A, one per star degree <= d."""
    return [_quotient_piece(pres, n) for n in range(pres.d + 1)]


def _sv_partial(f, i):
    """d/dx_i of a commutative polynomial (star-degree-0 PoissonElement)."""
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


def p1_rank_check(pres):
    """Star-degree-1 rank of the envelope vs. the rank of windowed Omega^2.

    The first is computed through the Poisson ideal machinery, the second by
    an independent elimination on two-forms: ambient m * dx_i ^ dx_j with
    deg m <= N, modulo I * Omega^2 and Omega^1 ^ dI.
    """
    computed = _quotient_piece(pres, 1).quotient_rank

    n = pres.n_gens
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    window = {
        (sv, pr)
        for deg in range(pres.N + 1)
        for sv in sv_tuples(n, deg)
        for pr in pairs
    }

    def sv_key(m):
        return tuple(sorted(b.word[0] for b in m.factors))

    slack = 0 if pres.homogeneous else pres.max_relation_degree
    rows = []
    for f in pres.relations:
        partials = {i: _sv_partial(f, i) for i in range(1, n + 1)}
        for deg in range(pres.N + slack + 1):
            for sv in sv_tuples(n, deg):
                m_el = PoissonElement.monomial(
                    PoissonMonomial.of(tuple(generator(a) for a in sv))
                )
                # I * Omega^2 rows: m * f * dx_i ^ dx_j
                mf = multiply(m_el, f)
                for pr in pairs:
                    rows.append({(sv_key(mono), pr): c for mono, c in mf.terms.items()})
                # Omega^1 ^ dI rows: m * dx_k ^ df
                for k in range(1, n + 1):
                    row = {}
                    for b in range(1, n + 1):
                        if b == k:
                            continue
                        coeff = multiply(m_el, partials[b])
                        sign = 1 if k < b else -1
                        pr = (k, b) if k < b else (b, k)
                        terms = coeff.terms.items()
                        merge(row, (((sv_key(mono), pr), c) for mono, c in terms), sign)
                    rows.append(row)

    window_rows = _window_part(rows, window, lambda c: (len(c[0]), c[0], c[1]))
    return computed, len(window) - len(window_rows)


@dataclass(frozen=True)
class LocalModelElement:
    """An element of the local model A (x) SL_+V, A polynomial on the letters."""

    value: PoissonElement


def _as_poisson(a):
    return a.value if isinstance(a, LocalModelElement) else a


def _de_rham(p):
    """The factor-slot differential of the local model.

    Returns the element of (SLV (x) L) as a dict (coefficient monomial,
    Lie leg) -> coefficient.
    """
    out = {}
    for m, c in p.terms.items():
        for i, f in enumerate(m.factors):
            rest = PoissonMonomial.of(m.factors[:i] + m.factors[i + 1 :])
            merge(out, [((rest, f), c)])
    return out


def local_model_bracket(f, g):
    """{p, q} = phi(Dp ^ Dq): differentiate both arguments, pair the legs
    through the free Lie bracket, and contract the coefficients.

    For polynomial coefficients this coincides with the free Poisson bracket.
    """
    wrap = isinstance(f, LocalModelElement) or isinstance(g, LocalModelElement)
    df = _de_rham(_as_poisson(f))
    dg = _de_rham(_as_poisson(g))
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
    out = PoissonElement._of(out)
    return LocalModelElement(out) if wrap else out


def induced_hom(images, a):
    """The Poisson-universal extension of generator images.

    Each Lyndon basis factor is replaced by the iterated Poisson bracket of
    the images of its letters; letter factors map straight through; the
    result is extended multiplicatively and linearly.
    """

    def theta_tree(tree):
        if isinstance(tree, int):
            try:
                return images[tree]
            except KeyError:
                raise ValueError(f"unassigned generator x{tree}") from None
        return poisson_bracket(theta_tree(tree[0]), theta_tree(tree[1]))

    p = _as_poisson(a)
    out = {}
    for m, c in p.terms.items():
        acc = PoissonElement.one(c)
        for f in m.factors:
            acc = multiply(acc, theta_tree(f.bracketing))
        merge(out, acc.terms.items())
    return PoissonElement._of(out)


def gap_witness(n_gens=4, indices=(1, 2, 3, 4)):
    """A Leibniz relation that the naive transport rule fails to respect.

    ``envelope_side`` evaluates {a1, a3{a2,a4}} + {a1, a2{a3,a4}}
    - {a1, {a2 a3, a4}} honestly (it is 0 by the Leibniz rule).
    ``naive_image`` pushes the same three terms through the ill-defined rule
    b*{c0,{c1,...}} -> b*[dc0,[dc1,...]] term by term, which leaves the
    nonzero element (13)(24) + (12)(34).
    """
    if n_gens < 4:
        raise ValueError("need at least 4 generators")
    if len(set(indices)) != 4:
        raise ValueError("indices must be injective")
    a1, a2, a3, a4 = (PoissonElement.generator(i) for i in indices)

    t1 = poisson_bracket(a1, multiply(a3, poisson_bracket(a2, a4)))
    t2 = poisson_bracket(a1, multiply(a2, poisson_bracket(a3, a4)))
    t3 = poisson_bracket(a1, poisson_bracket(multiply(a2, a3), a4))
    envelope_side = t1 + t2 - t3

    def naive_tree(tree):
        # tree: a commutative polynomial (leaf) or a pair of trees; value is
        # an element of A (x) L as leg -> polynomial coefficient
        if isinstance(tree, PoissonElement):
            out = {}
            for i in range(1, n_gens + 1):
                da = _sv_partial(tree, i)
                if not da.is_zero():
                    out[generator(i)] = da
            return out
        left = naive_tree(tree[0])
        right = naive_tree(tree[1])
        out = {}
        for leg1, c1 in left.items():
            for leg2, c2 in right.items():
                for b, v in bracket_basis(leg1, leg2).terms.items():
                    coeff = v * multiply(c1, c2)
                    if b in out:
                        out[b] = out[b] + coeff
                    else:
                        out[b] = coeff
        return out

    def transport(coeff, *trees):
        acc = coeff
        for tree in trees:
            val = naive_tree(tree)
            term = PoissonElement.zero()
            for leg, cof in val.items():
                term = term + multiply(
                    cof, PoissonElement.from_lie(LieElement.basis(leg))
                )
            acc = multiply(acc, term)
        return acc

    one = PoissonElement.one()
    # The three terms, pre-expanded by the Leibniz rule into the rule's
    # domain b * (products of nested brackets of algebra elements):
    n1 = transport(one, (a1, a3), (a2, a4)) + transport(a3, (a1, (a2, a4)))
    n2 = transport(one, (a1, a2), (a3, a4)) + transport(a2, (a1, (a3, a4)))
    n3 = transport(one, (a1, (multiply(a2, a3), a4)))
    naive_image = n1 + n2 - n3
    return envelope_side, naive_image
