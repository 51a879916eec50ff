"""The free Poisson algebra SLV with its bigrading and PBW star product.

A monomial is a multiset of Lyndon basis elements.  Two gradings matter:

* star degree: the sum of the factors' star degrees (the shifted Lie
  grading, extended multiplicatively);
* sym degree: the plain number of factors (the symmetric-power grading).

The Poisson bracket is the biderivation extending the Lie bracket.  The star
product transports concatenation through the symmetrization map e:
B(a, b) = e^{-1}(e(a) e(b)); its graded component B_p lowers sym degree by p
and raises star degree by p.  B_0 is the commutative product and B_1 is half
the Poisson bracket.

B is computed in PBW coordinates, one monomial pair at a time, on ints:
k! e(m) of each k-factor monomial comes from the int table ``pbw.sym_table``,
the product is the sum of c1 c2 ``pbw.normal_table(t1 + t2)`` over the
terms of the two tables, an int vector that is k1! k2! e(m1) e(m2), and one
triangular peel ``pbw.e_inverse_pbw`` over the scale k1! k2! maps it back.
Only the peel's results are divided by its scale.
``symmetrize`` and ``e_inverse`` are e and e^{-1} through the word basis of
the tensor algebra; they are the independent reference B is tested against.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import factorial
from operator import attrgetter

from . import pbw
from .freelie import TensorElement, bracket_basis, generator, lyndon_basis_of_length
from .linalg import ONE, Combination, merge


class PoissonMonomial:
    """A commutative product of Lie basis elements, canonically sorted.

    Gradings carried by every monomial: ``star_degree`` (sum of factor star
    degrees), ``sym_degree`` (factor count), ``poly_degree`` (letter factors,
    the SV part), ``plus_degree`` (positive-star factors) and
    ``total_degree`` (every letter, including those inside Lie factors).

    Monomials are interned, as Lie basis elements are: ``of`` returns the
    one shared instance for a multiset of factors, so its degrees, sort key
    and hash are computed once.  Direct construction from an already sorted
    tuple still works and gives a monomial that compares and hashes equal to
    the shared one; equality is by factors, never by identity.
    """

    __slots__ = (
        "factors",
        "star_degree",
        "sym_degree",
        "poly_degree",
        "plus_degree",
        "total_degree",
        "sort_key",
        "_hash",
    )

    def __init__(self, factors):
        self.factors = factors
        self.star_degree = sum(f.star_degree for f in factors)
        self.sym_degree = len(factors)
        self.poly_degree = sum(1 for f in factors if f.star_degree == 0)
        self.plus_degree = self.sym_degree - self.poly_degree
        self.total_degree = sum(len(f.word) for f in factors)
        self.sort_key = (
            self.star_degree,
            self.total_degree,
            tuple(f.sort_key for f in factors),
        )
        self._hash = hash(factors)

    @classmethod
    def of(cls, factors):
        """The shared monomial of any iterable of factors, in any order.

        ``_MONOMIALS`` is looked up with the tuple as given and, on a miss,
        with its sorted form; the tuple as given is then kept as an alias,
        so the next lookup of the same unsorted tuple skips the sort.
        """
        if type(factors) is not tuple:
            factors = tuple(factors)
        m = _MONOMIALS.get(factors)
        if m is None:
            key = tuple(sorted(factors, key=_factor_sort_key))
            m = _MONOMIALS.get(key)
            if m is None:
                m = _MONOMIALS[key] = cls(key)
            _MONOMIALS[factors] = m
        return m

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PoissonMonomial) and self.factors == other.factors
        )

    def __repr__(self):
        if not self.factors:
            return "1"
        return "*".join(repr(f) for f in self.factors)


_factor_sort_key = attrgetter("sort_key")

# factor tuple, sorted or as first seen -> the shared PoissonMonomial
_MONOMIALS = {}

MONOMIAL_ONE = PoissonMonomial.of(())


class PoissonElement(Combination):
    """Exact rational combination of Poisson monomials."""

    __slots__ = ()

    @classmethod
    def one(cls, coeff=1):
        return cls({MONOMIAL_ONE: coeff})

    @classmethod
    def monomial(cls, m, coeff=1):
        return cls({m: coeff})

    @classmethod
    def generator(cls, i):
        return cls._of({PoissonMonomial.of((generator(i),)): ONE})

    @classmethod
    def from_lie(cls, a):
        """Embed a Lie element as a sum of single-factor monomials."""
        return cls._of({PoissonMonomial.of((b,)): c for b, c in a.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PoissonElement):
            return multiply(self, other)
        return self.__rmul__(other)

    def sym_part(self, p):
        return PoissonElement._of(
            {m: c for m, c in self.terms.items() if m.sym_degree == p}
        )

    def star_part(self, q):
        return PoissonElement._of(
            {m: c for m, c in self.terms.items() if m.star_degree == q}
        )

    def bigraded_part(self, p, q):
        return PoissonElement._of(
            {
                m: c
                for m, c in self.terms.items()
                if m.sym_degree == p and m.star_degree == q
            }
        )

    def star_truncate(self, d):
        return PoissonElement._of(
            {m: c for m, c in self.terms.items() if m.star_degree <= d}
        )

    def sym_degrees(self):
        return sorted({m.sym_degree for m in self.terms})

    def max_star_degree(self):
        return max((m.star_degree for m in self.terms), default=0)

    def __repr__(self):
        from .exprparse import format_poisson

        return format_poisson(self)


def multiply(a, b):
    """Commutative product; both gradings add."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            merge(out, [(PoissonMonomial.of(m1.factors + m2.factors), c1 * c2)])
    return PoissonElement._of(out)


_BRACKET_MONO_CACHE = {}


def _bracket_monomials(m1, m2):
    key = (m1.factors, m2.factors)
    hit = _BRACKET_MONO_CACHE.get(key)
    if hit is not None:
        return hit
    out = {}
    for i, f in enumerate(m1.factors):
        rest1 = m1.factors[:i] + m1.factors[i + 1 :]
        for j, g in enumerate(m2.factors):
            rest2 = m2.factors[:j] + m2.factors[j + 1 :]
            for b, c in bracket_basis(f, g).terms.items():
                merge(out, [(PoissonMonomial.of(rest1 + rest2 + (b,)), c)])
    _BRACKET_MONO_CACHE[key] = out
    return out


def poisson_bracket(a, b):
    """The biderivation extending the Lie bracket; raises star degree by
    the brackets' +1 on each paired factor."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            merge(out, _bracket_monomials(m1, m2).items(), c1 * c2)
    return PoissonElement._of(out)


def symmetrize(a):
    """The PBW symmetrization map e into the tensor algebra."""
    out = {}
    for m, c in a.terms.items():
        merge(out, pbw.symmetrize_factors(m.factors).terms.items(), c)
    return TensorElement._of(out)


def e_inverse(t):
    """The inverse of symmetrize: the unique a with symmetrize(a) == t."""
    out = {}
    for w, c in t.terms.items():
        for factors, v in pbw.e_inverse_word(w).items():
            merge(out, [(PoissonMonomial.of(factors), c * v)])
    return PoissonElement._of(out)


_STAR_MONO_CACHE = {}


def _star_monomials(m1, m2):
    key = (m1.factors, m2.factors)
    hit = _STAR_MONO_CACHE.get(key)
    if hit is None:
        f1, f2 = m1.factors, m2.factors
        e2 = pbw.sym_table(f2).items()
        prod = {}
        for t1, c1 in pbw.sym_table(f1).items():
            for t2, c2 in e2:
                merge(prod, pbw.normal_table(t1 + t2).items(), c1 * c2)
        scale = factorial(len(f1)) * factorial(len(f2))
        hit = {
            PoissonMonomial.of(t): c
            for t, c in pbw.e_inverse_pbw(prod, scale).items()
        }
        _STAR_MONO_CACHE[key] = hit
    return hit


def star_product(a, b):
    """The PBW quantized product B(a, b) = e^{-1}(e(a) e(b)).

    Each monomial pair is multiplied in PBW coordinates: k! e(m1) and
    k! e(m2) from ``pbw.sym_table``, their product by normal ordering the
    concatenated factor tuples, and e^{-1} by one triangular peel over the
    product of the two scales (``pbw.e_inverse_pbw``).
    The word-space ``e_inverse(symmetrize(a) * symmetrize(b))`` gives the
    same element.
    """
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            merge(out, _star_monomials(m1, m2).items(), c1 * c2)
    return PoissonElement._of(out)


def star_components(a, b):
    """Every B_p at once: a dict p -> B_p for p = 0 .. the largest sum of a
    sym degree of ``a`` and one of ``b`` (empty if either is zero); B_p is
    zero past that.

    One pass over the monomial pairs: the terms of each pair's star table
    ``_star_monomials(m1, m2)`` are summed per sym-degree sum s = sym m1 +
    sym m2, and a term m of sum s belongs to B_p with p = s - sym m.  Only
    one sum reaches a given (m, p), so the pieces are disjoint.
    """
    if not a.terms or not b.terms:
        return {}
    by_sum = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            s = m1.sym_degree + m2.sym_degree
            merge(by_sum.setdefault(s, {}), _star_monomials(m1, m2).items(), c1 * c2)
    top = a.sym_degrees()[-1] + b.sym_degrees()[-1]
    out = {p: {} for p in range(top + 1)}
    for s, terms in by_sum.items():
        for m, c in terms.items():
            out[s - m.sym_degree][m] = c
    return {p: PoissonElement._of(terms) for p, terms in out.items()}


def star_component(a, b, p):
    """B_p: the component of the star product dropping sym degree by p.

    Applied bilinearly over the sym-homogeneous components of the inputs.
    On star-homogeneous inputs it is also the component raising star degree
    by exactly p.
    """
    return star_components(a, b).get(p, PoissonElement())


def bigraded_component(a, p, q):
    """Projection onto sym degree p and star degree q."""
    return a.bigraded_part(p, q)


def sv_tuples(n_gens, degree):
    """Nondecreasing letter tuples of the given length (monomials of SV)."""
    return list(combinations_with_replacement(range(1, n_gens + 1), degree))


def plus_tuples(n_gens, star):
    """Multisets of positive-star Lyndon elements with star degrees summing
    to ``star``, as nondecreasing factor tuples."""
    if star == 0:
        return [()]
    pool = []
    for s in range(1, star + 1):
        pool.extend(lyndon_basis_of_length(n_gens, s + 1))
    pool.sort(key=lambda b: b.sort_key)
    out = []

    def rec(lo, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for idx in range(lo, len(pool)):
            b = pool[idx]
            if b.star_degree > remaining:
                continue
            acc.append(b)
            rec(idx, remaining - b.star_degree, acc)
            acc.pop()

    rec(0, star, [])
    return out


def monomials_star_total(n_gens, star, total):
    """All monomials with the exact star degree and total letter count."""
    out = []
    for plus in plus_tuples(n_gens, star):
        lie_letters = sum(len(b.word) for b in plus)
        poly = total - lie_letters
        if poly < 0:
            continue
        for sv in sv_tuples(n_gens, poly):
            out.append(PoissonMonomial.of(tuple(generator(i) for i in sv) + plus))
    return out


def monomials_up_to_total(n_gens, max_total, max_star=None):
    """All monomials with total letter count <= max_total (and star degree
    <= max_star, when given), by total, then by star degree."""
    out = []
    for total in range(max_total + 1):
        cap = total if max_star is None else min(total, max_star)
        for q in range(cap + 1):
            out.extend(monomials_star_total(n_gens, q, total))
    return out


def monomials_star_maxpoly(n_gens, star, max_poly):
    """All monomials with the exact star degree and SV-part degree <= max_poly."""
    out = []
    for plus in plus_tuples(n_gens, star):
        for p in range(max_poly + 1):
            for sv in sv_tuples(n_gens, p):
                out.append(
                    PoissonMonomial.of(tuple(generator(i) for i in sv) + plus)
                )
    return out
