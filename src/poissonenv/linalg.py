"""Exact sparse linear algebra over the rationals.

A vector is a coordinate dict, column -> nonzero coefficient, and a
combination stores only its nonzero terms.  This module owns how a sparse
exact row is updated and eliminated: ``merge`` is the one add-and-drop-zero
step, ``linear`` and ``bilinear`` the one linear and bilinear extension of
a table of rows, ``product`` the one product of two dicts by a join of
their keys, ``Combination`` the one base of the algebra elements, and
``Echelon`` the one elimination routine (rank is
``Echelon.spanning(rows).rank``, and ``SpanSolver`` feeds its rows through
it).  ``Echelon.copy`` starts a new span from one already eliminated, so a
caller that holds a subspace grows a larger one without adding its rows
again: the filtration chain of a graded algebra is closed from its deepest
piece up, each piece grown from a copy of the one below it, and
``associated_graded`` picks each grade's rows independent modulo a copy of
the piece below.  Elimination is deterministic: it always clears the
smallest column index of the row at hand; there is no other pivot rule and
no column order to choose.  It runs on integers: ``Echelon`` scales each
row it is given to integers once, clears columns by integer
cross-multiplication and stores every pivot row once, as primitive
integers; ``basis`` derives the rows normalized to pivot 1 on its first read
and keeps them until the span grows.  ``normal_form`` is the one residue
routine.  No floating point anywhere.

A stored coefficient is an ``int`` exactly when its value is integral, and
otherwise a reduced ``fractions.Fraction``; never a Fraction with
denominator 1, a float or a bool.  Most coefficients are integers, and int
arithmetic is far cheaper than Fraction arithmetic.  Conversion happens
once, where a value enters: the constructor of ``Combination`` and the
scalar of ``__rmul__`` keep an int, turn a Fraction with denominator 1 into
its numerator, convert a decimal string (an integer one with ``int``, any
other as ``Fraction`` reads it), refuse a ``float`` or ``complex``
with ``TypeError``, since a binary float is not the rational its user
meant, and refuse a zero denominator with ``ValueError``.  Inside the
library, ``merge``, ``__rmul__`` and ``Echelon`` store an integral result as
an int, so results built from stored coefficients (``Combination._of``) are
not checked a second time.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

# The type of a non-integral stored coefficient.  An integral one is an
# int, so a stored coefficient c satisfies ``type(c) in (int, Rational)``,
# and ``isinstance(c, Rational)`` is False for most of them.
Rational = Fraction


def canonical(q):
    """``q``, an int or a Fraction, as a stored coefficient: a Fraction
    with denominator 1 becomes its numerator."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def quotient(n, d):
    """n / d for ints, d > 0, as a stored coefficient."""
    return n // d if n % d == 0 else Fraction(n, d)


def _require_ints(**args):
    """Refuse a bool or non-int argument with a ``TypeError`` naming it, before
    a comparison or a range reads it as a number it is not."""
    for name, value in args.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"{name} must be an int, got {value!r}")


def _coefficient(c):
    """``c`` as a stored coefficient: the one conversion of a value entering
    the library.  A string of an optional "-" and decimal digits is read
    with ``int``, which gives it the value ``Fraction`` gives it and, as
    Fraction does, refuses one longer than the interpreter converts."""
    if type(c) is int:
        return c
    if type(c) is str and (c.isdecimal() or (c[:1] == "-" and c[1:].isdecimal())):
        return int(c)
    if isinstance(c, (float, complex)):
        raise TypeError(f"inexact coefficient {c!r}; use an int, a Fraction or a string")
    try:
        return canonical(c if type(c) is Fraction else Fraction(c))
    except ZeroDivisionError:
        raise ValueError(f"coefficient {c!r} has a zero denominator") from None


def _clean(entries):
    """The nonzero values of a mapping entering the library, as stored
    coefficients."""
    out = {}
    for k, v in entries.items():
        if type(v) is not int:
            v = _coefficient(v)
        if v:
            out[k] = v
    return out


def merge(acc, items, scale=1):
    """Fold ``scale * c`` into ``acc[k]`` for every pair (k, c) of ``items``.

    ``acc`` is a dict of nonzero stored coefficients and stays one: a key
    whose sum is zero is dropped, and an integral Fraction is stored as its
    numerator.  Items and scale are ints or Fractions.  Returns ``acc``.

    An integral Fraction scale is taken as its int.  With the scale 1 the
    items are added as they are: ``c * 1`` equals ``c``.  Any other scale
    takes the multiplying loop.
    """
    get = acc.get
    if type(scale) is Fraction and scale.denominator == 1:
        scale = scale.numerator
    if type(scale) is int and scale == 1:
        for k, c in items:
            w = get(k)
            if w is None:
                if not c:
                    continue
                w = c
            else:
                w += c
                if not w:
                    del acc[k]
                    continue
            acc[k] = w.numerator if type(w) is Fraction and w.denominator == 1 else w
        return acc
    for k, c in items:
        w = get(k)
        if w is None:
            w = c * scale
            if not w:
                continue
        else:
            w += c * scale
            if not w:
                del acc[k]
                continue
        acc[k] = w.numerator if type(w) is Fraction and w.denominator == 1 else w
    return acc


def linear(v, table, out=None):
    """``out`` plus sum_k v[k] table(k), for a coordinate dict ``v`` and
    ``table(k)`` the row of key k: a dict of stored coefficients, or None
    or empty for 0.  ``out`` is updated in place and returned; without it
    the result is a new dict.

    Loops that keep their own copy, one reason each:
    - ``FiniteAlgebra.commutator`` merges two rows per pair in one pass;
    - ``product`` joins two keys, no table;
    - the star readers (``freepoisson._int_sum``) sum int tables over one
      denominator and divide each coefficient once;
    - ``pbw._normal``, ``pbw.sym_table`` scale by multiplicity in their memo;
    - ``freepoisson.e_inverse``, ``_bracket_monomials`` rekey each row's
      factor tuples as monomials, one ``merge`` per row.
    """
    out = {} if out is None else out
    for k, c in v.items():
        row = table(k)
        if row:
            merge(out, row.items(), c)
    return out


def bilinear(v, w, table):
    """sum_{i,j} v[i] w[j] table(i, j) as a new dict, for coordinate dicts
    ``v`` and ``w``, each row read as in ``linear``."""
    out = {}
    for i, ci in v.items():
        for j, cj in w.items():
            row = table(i, j)
            if row:
                merge(out, row.items(), ci * cj)
    return out


def product(a, b, join):
    """sum_{i,j} a[i] b[j] join(i, j) as a new dict, for coordinate dicts
    ``a`` and ``b`` and ``join`` the product of two keys as one key: the
    commutative product of monomials (``freepoisson.multiply``) or the
    concatenation of words (``TensorElement.__mul__``, the parser).  A
    single term times a single term is one key; otherwise each left term
    is one ``merge``."""
    if len(a) == 1 and len(b) == 1:
        ((k1, c1),) = a.items()
        ((k2, c2),) = b.items()
        return {join(k1, k2): canonical(c1 * c2)}
    out = {}
    for k1, c1 in a.items():
        merge(out, [(join(k1, k2), c2) for k2, c2 in b.items()], c1)
    return out


class Combination:
    """Exact rational combination of hashable keys, the base of the algebra
    elements: ``terms`` maps each key to its nonzero stored coefficient (an
    int, or a Fraction that is not integral).

    The constructor is the boundary: it keeps an int or a non-integral
    ``Fraction``, turns an integral Fraction into an int, converts a decimal
    string, refuses a float, and drops zeros.  Results computed from stored
    coefficients are built by ``_of``, which takes its dict as it is.

    Arithmetic returns the type of the left operand.  Equality holds only
    between elements of the same type, so elements of different algebras
    never compare equal; subclasses that define ``__hash__`` are hashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _clean(terms) if terms else {}

    @classmethod
    def _of(cls, terms):
        """An element owning ``terms``, a dict of nonzero stored coefficients
        computed inside the library (by ``merge`` from stored coefficients)."""
        self = cls.__new__(cls)
        self.terms = terms
        return self

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def __add__(self, other):
        return self._of(merge(dict(self.terms), other.terms.items()))

    def __sub__(self, other):
        return self._of(merge(dict(self.terms), other.terms.items(), -1))

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def __rmul__(self, c):
        c = _coefficient(c)
        if not c:
            return type(self)()
        return self._of({k: canonical(c * v) for k, v in self.terms.items()})


class Echelon:
    """Incremental row-echelon container for span/membership computations.

    ``rows`` maps each pivot column to its row as primitive integers with
    a positive pivot, newest pivot last; it is the only stored form.
    ``basis`` derives the rows normalized to pivot 1 from it once per span:
    the first call keeps the list, later calls return a new list over the
    same row dicts, and an ``add`` that raises the rank drops it.  A copy
    shares the kept list until its own span grows.  A row whose pivot is
    already 1 is the stored row itself, so basis rows are read-only, as the
    ``pbw.normal_table`` memo entries are: callers read them and never
    modify them.  A row
    entering ``add``, ``contains`` or ``normal_form`` is scaled once by the
    lcm of its denominators, its zero entries dropped.  Results are stored
    coefficients, equal to those of Fraction elimination.  Elimination
    always clears the smallest column index of the row being reduced; a
    caller that wants other columns cleared first numbers them first (see
    ``envelope._window_part``, which numbers the columns outside a window
    first, highest degree first, and adds its rows by leading column).
    """

    def __init__(self):
        self.rows = {}  # pivot col -> row dict, primitive ints, pivot > 0
        self._basis = None  # basis() of rows, or None until it is read

    @classmethod
    def spanning(cls, rows):
        """Echelon of the span of ``rows``, added in order."""
        ech = cls()
        for row in rows:
            ech.add(row)
        return ech

    @classmethod
    def identity(cls, dim):
        """Echelon of the whole space on the columns 0 .. dim - 1: the unit
        rows {i: {i: 1}} in index order.  They are echelon rows already, so
        nothing is eliminated; ``spanning`` over the unit vectors gives the
        same rows in the same order."""
        ech = cls()
        ech.rows = {i: {i: 1} for i in range(dim)}
        return ech

    def copy(self):
        """An Echelon of the same span that grows on its own.

        The row dicts are shared, not copied: a pivot row is never mutated
        after it is inserted, so only the map is new.  It keeps the
        insertion order, newest pivot last.  The kept ``basis`` list is
        shared too, and the copy drops it on its first ``add`` that raises
        the rank.
        """
        out = Echelon()
        out.rows = dict(self.rows)
        out._basis = self._basis
        return out

    @property
    def rank(self):
        return len(self.rows)

    def _lead(self, row):
        """Clear ``row``, a dict of nonzero ints, against the pivot rows,
        smallest column first, until that column has no pivot.

        Column c with pivot entry p and row entry a is cleared by
        row <- (p/g) row - (a/g) pivot row, g = gcd(a, p): the row stays
        integral and grows by the factor p/g.  Returns (col, row, scale):
        the column left (None once the row is 0), the row and the product
        of the factors, so the residue is row / scale in units of the row
        that came in.  Subtracting a pivot row only introduces entries at
        larger columns, so the sweep terminates.
        """
        rows = self.rows
        scale = 1
        while row:
            col = min(row)
            piv = rows.get(col)
            if piv is None:
                return col, row, scale
            a, p = row[col], piv[col]
            g = gcd(a, p)
            if g != 1:
                a //= g
                p //= g
            if p != 1:
                row = {c: v * p for c, v in row.items()}
                scale *= p
            merge(row, piv.items(), -a)
        return None, row, scale

    def add(self, row):
        """Insert ``row`` into the echelon; returns True if the rank grew."""
        col, row, _ = self._lead(int_row(row)[0])
        if col is None:
            return False
        g = gcd(*row.values())
        if row[col] < 0:
            g = -g
        if g != 1:
            row = {c: v // g for c, v in row.items()}
        self.rows[col] = row
        self._basis = None
        return True

    def contains(self, row):
        return self._lead(int_row(row)[0])[0] is None

    def normal_form(self, row):
        """Fully reduce ``row``: the result has no support on pivot columns."""
        row, den = int_row(row)
        out = {}
        while True:
            col, row, scale = self._lead(row)
            if col is None:
                return out
            den *= scale
            out[col] = quotient(row.pop(col), den)

    def basis(self):
        """Current echelon rows normalized to pivot 1, as stored
        coefficients, ordered by pivot column: a new list of read-only
        rows, derived once per span."""
        kept = self._basis
        if kept is None:
            kept = self._basis = []
            for col in sorted(self.rows):
                row = self.rows[col]
                p = row[col]
                kept.append(row if p == 1 else {c: quotient(v, p) for c, v in row.items()})
        return list(kept)


def int_row(row):
    """(ints, den): the nonzero values of ``row`` (ints or Fractions) times
    den, the lcm of their denominators, as ints in the order of ``row``."""
    den = lcm(*[v.denominator for v in row.values()])
    if den == 1:
        return {c: v.numerator for c, v in row.items() if v}, 1
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}, den




class SpanSolver:
    """Expresses targets as exact rational combinations of fixed rows.

    Rows and targets are coordinate dicts whose columns lie in
    ``range(dim)``.  Row i enters one ``Echelon`` tagged with an extra
    column ``dim + i``, so every echelon row carries the combination of rows
    it stands for.  A row whose untagged part reduces to zero depends on the
    earlier ones and is left out; its coefficient is 0.  So every pivot is
    an untagged column, and the normal form of a target in the span has
    only tag columns left: minus its coefficients.
    """

    def __init__(self, dim, rows):
        self.dim = dim
        self.rows = list(rows)
        self._ech = Echelon()
        for i, row in enumerate(self.rows):
            res = self._ech.normal_form({**row, dim + i: 1})
            if min(res) < dim:
                self._ech.add(res)

    def solve(self, target):
        """Coefficients c with sum(c[i] * rows[i]) == target, or None."""
        res = self._ech.normal_form(target)
        if res and min(res) < self.dim:
            return None
        return [-res.get(self.dim + i, 0) for i in range(len(self.rows))]
