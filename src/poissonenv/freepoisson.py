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

B is computed one monomial pair at a time, without PBW coordinates.  Left
multiplication by a Lie basis element f, read in symmetric coordinates, is
f * P = sum_S (B_k / k!) (nested brackets of S into f) (P - S) over the
sub-multisets S of P of size k, with B_k the Bernoulli numbers (Berezin
1967; Gutt 1983).  A monomial acts through e(m) = (1/k) sum_f mult_f f e(m/f).
Only ``bracket_basis`` and commutative products are used, on ints over one
denominator per pair table.
``symmetrize`` and ``e_inverse`` are e and e^{-1} through the word basis of
the tensor algebra; they are the independent reference B is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, groupby
from math import factorial, gcd, lcm
from operator import attrgetter

from . import pbw
from .freelie import TensorElement, bracket_basis, generator, lyndon_basis_of_length
from .linalg import Combination, _require_ints, bilinear, linear, merge, product, quotient


class PoissonMonomial:
    """A commutative product of Lie basis elements, canonically sorted.

    Gradings carried by every monomial: ``star_degree`` (sum of factor star
    degrees), ``sym_degree`` (factor count), ``poly_degree`` (letter factors,
    the SV part) and ``total_degree`` (every letter, including those inside
    Lie factors).

    Monomials are interned, as Lie basis elements are: ``of`` returns the
    one shared instance for a multiset of factors, so its degrees, sort key
    and hash are computed once.  Direct construction from an already sorted
    tuple still works and gives a monomial that compares and hashes equal to
    the shared one; equality is by factors, never by identity.

    ``forms`` is None until the monomial is first printed; ``exprparse``
    then keeps its printed text and JSON factor list there.
    """

    __slots__ = (
        "factors",
        "star_degree",
        "sym_degree",
        "poly_degree",
        "total_degree",
        "sort_key",
        "_hash",
        "forms",
    )

    def __init__(self, factors):
        self.factors = factors
        self.star_degree = sum(f.star_degree for f in factors)
        self.sym_degree = len(factors)
        self.poly_degree = sum(1 for f in factors if f.star_degree == 0)
        self.total_degree = sum(len(f.word) for f in factors)
        self.sort_key = (
            self.star_degree,
            self.total_degree,
            tuple(f.sort_key for f in factors),
        )
        self._hash = hash(factors)
        self.forms = None

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

    @classmethod
    def _of_sorted(cls, factors):
        """``of`` for a tuple already in factor order: nothing to sort."""
        m = _MONOMIALS.get(factors)
        if m is None:
            m = _MONOMIALS[factors] = cls(factors)
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
        return cls._of({PoissonMonomial.of((generator(i),)): 1})

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


def _monomial_product(m1, m2):
    """The commutative product of two monomials: the join of ``multiply``."""
    return PoissonMonomial.of(m1.factors + m2.factors)


def multiply(a, b):
    """Commutative product; both gradings add."""
    return PoissonElement._of(product(a.terms, b.terms, _monomial_product))


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
            terms = bracket_basis(f, g).terms
            if terms:  # an empty row, as {f, f} = 0, builds no list
                rest = rest1 + m2.factors[:j] + m2.factors[j + 1 :]
                merge(out, [(PoissonMonomial.of(rest + (b,)), c) for b, c in terms.items()])
    _BRACKET_MONO_CACHE[key] = out
    return out


def poisson_bracket(a, b):
    """The biderivation extending the Lie bracket; raises star degree by
    the brackets' +1 on each paired factor."""
    return PoissonElement._of(bilinear(a.terms, b.terms, _bracket_monomials))


def symmetrize(a):
    """The PBW symmetrization map e into the tensor algebra."""
    return TensorElement._of(linear(a.terms, lambda m: pbw.sym_word_table(m.factors)))


def e_inverse(t):
    """The inverse of symmetrize: the unique a with symmetrize(a) == t."""
    out = {}
    for w, c in t.terms.items():
        row = pbw.e_inverse_word(w).items()
        merge(out, [(PoissonMonomial.of(factors), v) for factors, v in row], c)
    return PoissonElement._of(out)


_STAR_MONO_CACHE = {}
# the star table of a capped pair with no term left
_EMPTY_TABLE = ({}, 1)
# (S, f) -> N(S, f), S a nondecreasing factor tuple and f a Lie basis element
_NESTED_CACHE = {}
# n -> (D, w) with w[k] = D B_k / k! for k <= n
_BERNOULLI_CACHE = {}


def _bernoulli_weights(n):
    """(D, w): w[k] = D B_k / k! for k = 0 .. n, all ints, with B_1 = -1/2
    and D the lcm of the denominators of the B_k / k! (memoized).

    The B_k / k! are the Taylor coefficients of z / (e^z - 1), whose product
    with (e^z - 1) / z = sum_i z^i / (i + 1)! is 1; so
    B_k / k! = -sum_{j < k} (B_j / j!) / (k - j + 1)!.
    """
    hit = _BERNOULLI_CACHE.get(n)
    if hit is None:
        b = [Fraction(1)]
        for k in range(1, n + 1):
            b.append(-sum(b[j] / factorial(k - j + 1) for j in range(k)))
        den = lcm(*[q.denominator for q in b])
        hit = den, [q.numerator * (den // q.denominator) for q in b]
        _BERNOULLI_CACHE[n] = hit
    return hit


def _nested(s, f):
    """N(S, f) = sum_{g distinct in S} [g, N(S - g, f)], N((), f) = f: the
    nested brackets [g_1, [g_2, ... [g_k, f] ...]] summed over the distinct
    orders of the multiset S, as {basis element: int} (memoized; callers
    only read it)."""
    key = (s, f)
    hit = _NESTED_CACHE.get(key)
    if hit is None:
        if not s:
            hit = {f: 1}
        else:
            acc = {}
            get = acc.get
            for i, g in enumerate(s):
                if i and s[i - 1] == g:
                    continue
                for b, c in _nested(s[:i] + s[i + 1 :], f).items():
                    for t, v in bracket_basis(g, b).terms.items():
                        acc[t] = get(t, 0) + c * v
            hit = {t: c for t, c in acc.items() if c}
        _NESTED_CACHE[key] = hit
    return hit


def _submultisets(factors, room):
    """(S, P - S, prod_g P_g! / (P_g - S_g)!, |S|) for every sub-multiset S
    of the nondecreasing ``factors`` P with |S| <= room, built one distinct
    factor g at a time: the number of ordered picks of |S| distinct
    positions of P that give S, over the distinct orders of S."""
    subs = [((), (), 1, 0)]
    for g, run in groupby(factors):
        n = len(tuple(run))
        picks = []
        falling = 1
        for t in range(min(n, room) + 1):
            picks.append(((g,) * t, (g,) * (n - t), falling, t))
            falling *= n - t
        subs = [
            (s + ps, rest + pr, w * pw, k + t)
            for s, rest, w, k in subs
            for ps, pr, pw, t in picks
            if k + t <= room
        ]
    return subs


def _star_monomials(m1, m2, cap=None):
    """The star table of a monomial pair as (ints, den): the table is the
    dict monomial -> ints[monomial] / den, with every int nonzero, den > 0
    and gcd(den, *ints.values()) == 1 (memoized; callers only read it, and
    ``_int_sum`` sums tables in this form).

    For m1 = f_1 ... f_k, e(m1) = (1/k) sum_f mult_f f e(m1/f) over the
    distinct factors f of multiplicity mult_f, so

        m1 * m2 = (1/k) sum_f mult_f f * ((m1/f) * m2).

    Left multiplication by a Lie basis element f, read in symmetric
    coordinates (Berezin 1967; Gutt 1983), is grouped by the sub-multiset S
    of each monomial Q = l_1 ... l_n that the brackets pick:

        f * Q = sum_S (B_k / k!) prod_g Q_g! / (Q_g - S_g)! N(S, f) (Q - S)

    with k = |S| (``_submultisets``, ``_nested``, ``_bernoulli_weights``).
    Only ``bracket_basis`` and commutative products are used, never PBW
    coordinates, on ints over one common denominator (``_left_sum``), which
    is reduced once per table.
    When m1 has more factors than m2, the table is read off that of
    (m2, m1) by B_p(m1, m2) = (-1)^p B_p(m2, m1): the antipode of U (-1 on
    Lie elements) reverses products and maps e(a) to e((-1)^sym a).

    With ``cap``, only its terms of star degree <= cap, filed under
    (m1.factors, m2.factors, cap); ``({}, 1)`` when none is left.  A term
    of f * Q has star degree star f + star Q + k, so (m1/f) * m2 is read at
    cap - star f and k is at most cap - star f - star Q.  The pair's terms
    have star degree star m1 + star m2 + p for p < sym m1 + sym m2, so a
    cap past that reads the full table.
    """
    if cap is not None:
        room = cap - m1.star_degree - m2.star_degree
        if room >= max(m1.sym_degree + m2.sym_degree - 1, 0):
            cap = None
        elif room < 0:
            return _EMPTY_TABLE
    key = (m1.factors, m2.factors) if cap is None else (m1.factors, m2.factors, cap)
    hit = _STAR_MONO_CACHE.get(key)
    if hit is None:
        f1 = m1.factors
        if not f1:
            hit = {m2: 1}, 1
        elif m1.sym_degree > m2.sym_degree:
            # the recursion runs over the factors of m1: take the shorter side
            s = m1.sym_degree + m2.sym_degree
            ints, den = _star_monomials(m2, m1, cap)
            hit = {m: -c if (s - m.sym_degree) % 2 else c for m, c in ints.items()}, den
        else:
            acc, den = _left_sum(f1, m2, cap)
            ints = {m: c for m, c in acc.items() if c}
            g = gcd(den, *ints.values())
            if g != 1:
                ints = {m: c // g for m, c in ints.items()}
                den //= g
            hit = ints, den
        _STAR_MONO_CACHE[key] = hit
    return hit


def _left_sum(f1, m2, cap):
    """(acc, den): (1/k) sum_f mult_f f * ((m1/f) * m2) for the monomial m1
    of the nonempty ``f1``, as an int vector over den that may hold zeros
    and need not be in lowest terms.  Each sub-table is read as stored."""
    parts = []
    den = 1
    for i, f in enumerate(f1):
        if i and f1[i - 1] == f:
            continue
        sub = None if cap is None else cap - f.star_degree
        rest = PoissonMonomial.of(f1[:i] + f1[i + 1 :])
        ints, d = _star_monomials(rest, m2, sub)
        d_w, weights = _bernoulli_weights(max((q.sym_degree for q in ints), default=0))
        parts.append((f, f1.count(f), ints, sub, d * d_w, weights))
        den = lcm(den, d * d_w)
    acc = {}
    get = acc.get
    of, interned = PoissonMonomial.of, _MONOMIALS.get
    for f, mult, ints, sub, d, weights in parts:
        scale = mult * (den // d)
        for q, c in ints.items():
            c *= scale
            # a bracket may pick at most sub - star q factors of q
            room = q.sym_degree if sub is None else sub - q.star_degree
            for s, rest, pick, k in _submultisets(q.factors, room):
                w = c * pick * weights[k]
                if not w:
                    continue
                for b, v in _nested(s, f).items():
                    t = (b,) + rest
                    m = interned(t) or of(t)
                    acc[m] = get(m, 0) + v * w
    return acc, den * len(f1)


def _int_sum(terms):
    """(acc, den) with acc / den = sum_t n_t * ints_t / d_t over the
    (n_t, ints_t, d_t) of the list ``terms``: ints n_t and d_t > 0, and
    ints_t an iterable of (key, int) pairs, such as a star table's items.
    ``acc`` is a dict of ints over den, the lcm of the d_t, and may hold
    zeros; a term's items are read once."""
    den = lcm(*[d for _, _, d in terms])
    acc = {}
    get = acc.get
    for n, items, d in terms:
        n *= den // d
        for m, v in items:
            acc[m] = get(m, 0) + v * n
    return acc, den


def _table_sum(terms):
    """sum_t n_t * ints_t / d_t over the (n_t, ints_t, d_t) of the list
    ``terms``, as in ``_int_sum``: a dict of nonzero stored coefficients,
    each divided once with ``quotient``.  A single term, such as a product
    of two monomials, is divided in one pass with no sum: its n and ints
    are nonzero, as a star table's are."""
    if len(terms) == 1:
        ((n, items, den),) = terms
        return {m: quotient(v * n, den) for m, v in items}
    acc, den = _int_sum(terms)
    return {m: quotient(v, den) for m, v in acc.items() if v}


def _pair_tables(a, b, cap=None):
    """The ``_int_sum`` terms (n, items, d) of every pair of terms c1 m1 of
    ``a`` and c2 m2 of ``b``, in the order of a loop over ``a`` then ``b``:
    c1 c2 times the pair's star table (capped at ``cap``) is n * items / d."""
    out = []
    for m1, c1 in a.terms.items():
        n1, d1 = c1.numerator, c1.denominator
        for m2, c2 in b.terms.items():
            ints, den = _star_monomials(m1, m2, cap)
            out.append((n1 * c2.numerator, ints.items(), d1 * c2.denominator * den))
    return out


def star_product(a, b):
    """The PBW quantized product B(a, b) = e^{-1}(e(a) e(b)).

    Each monomial pair's star table comes from the Berezin-Gutt left
    multiplication (``_star_monomials``), with no straightening and no
    peel.  The word-space ``e_inverse(symmetrize(a) * symmetrize(b))``
    gives the same element.
    """
    return _star_sum(a, b, None)


def _star_sum(a, b, cap):
    """The star product of ``a`` and ``b`` summed pair by pair, with the
    terms of star degree > cap dropped when ``cap`` is given: the pairs'
    int tables are summed over one denominator (``_int_sum``), and each
    coefficient is divided once."""
    return PoissonElement._of(_table_sum(_pair_tables(a, b, cap)))


def star_components(a, b):
    """Every B_p at once: a dict p -> B_p for p = 0 .. the largest sum of a
    sym degree of ``a`` and one of ``b`` (empty if either is zero); B_p is
    zero past that.

    One pass over the monomial pairs: a term m of the star table of a pair
    (m1, m2) belongs to B_p with p = sym m1 + sym m2 - sym m, so the pieces
    are disjoint.  Each pair's int table is split by p, and each B_p is
    summed as ``star_product`` sums the whole.
    """
    if not a.terms or not b.terms:
        return {}
    top = a.sym_degrees()[-1] + b.sym_degrees()[-1]
    parts = {p: [] for p in range(top + 1)}
    syms = [m1.sym_degree + m2.sym_degree for m1 in a.terms for m2 in b.terms]
    for (n, items, d), s in zip(_pair_tables(a, b), syms):
        split = {}
        for m, c in items:
            split.setdefault(s - m.sym_degree, []).append((m, c))
        for p, part in split.items():
            parts[p].append((n, part, d))
    return {p: PoissonElement._of(_table_sum(terms)) for p, terms in parts.items()}


def star_component(a, b, p):
    """B_p: the component of the star product dropping sym degree by p.

    Applied bilinearly over the sym-homogeneous components of the inputs:
    only the B_p terms of each pair's int table, those of sym degree
    sym m1 + sym m2 - p, are summed, as ``star_product`` sums the whole.
    On star-homogeneous inputs it is also the component raising star
    degree by exactly p.  A negative p raises ``ValueError``, a bool or
    non-int p ``TypeError``.
    """
    _require_ints(p=p)
    if p < 0:
        raise ValueError(f"need p >= 0, got {p}")
    terms = []
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            ints, den = _star_monomials(m1, m2)
            want = m1.sym_degree + m2.sym_degree - p
            items = [(m, c) for m, c in ints.items() if m.sym_degree == want]
            d = c1.denominator * c2.denominator * den
            terms.append((c1.numerator * c2.numerator, items, d))
    return PoissonElement._of(_table_sum(terms))


def sv_tuples(n_gens, degree):
    """Nondecreasing letter tuples of the given length (monomials of SV)."""
    return list(combinations_with_replacement(range(1, n_gens + 1), degree))


def _sv_parts(n_gens, degree):
    """``sv_tuples`` as generator tuples.  A generator sorts before every
    factor of positive star, so an SV part then a plus part is in factor
    order, and the enumerators intern it with ``PoissonMonomial._of_sorted``."""
    return [tuple(generator(i) for i in sv) for sv in sv_tuples(n_gens, degree)]


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


def _plus_parts(n_gens, star):
    """The plus parts of ``plus_tuples``, each with its letter count."""
    return [(p, sum(len(b.word) for b in p)) for p in plus_tuples(n_gens, star)]


def monomials_star_total(n_gens, star, total):
    """All monomials with the exact star degree and total letter count, by
    plus part, then SV part."""
    out = []
    for p, letters in _plus_parts(n_gens, star):
        if letters <= total:
            sv = _sv_parts(n_gens, total - letters)
            out += [PoissonMonomial._of_sorted(s + p) for s in sv]
    return out


def monomials_up_to_total(n_gens, max_total, max_star=None):
    """All monomials with total letter count <= max_total (and star degree
    <= max_star, when given), by total, then star degree: the blocks of
    ``monomials_star_total`` in turn.  The SV parts of each degree and the
    plus parts of each star degree are built once per call."""
    top = max_total if max_star is None else min(max_total, max_star)
    sv = [_sv_parts(n_gens, t) for t in range(max_total + 1)]
    plus = [_plus_parts(n_gens, q) for q in range(top + 1)]
    out = []
    for t in range(max_total + 1):
        for parts in plus[: t + 1]:
            for p, letters in parts:
                if letters <= t:
                    out += [PoissonMonomial._of_sorted(s + p) for s in sv[t - letters]]
    return out


def monomials_star_maxpoly(n_gens, star, max_poly):
    """All monomials with the exact star degree and SV-part degree <= max_poly,
    by plus part, then SV-part degree, then SV part."""
    sv = [s for k in range(max_poly + 1) for s in _sv_parts(n_gens, k)]
    plus = plus_tuples(n_gens, star)
    return [PoissonMonomial._of_sorted(s + p) for p in plus for s in sv]
