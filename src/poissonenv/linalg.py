"""Exact sparse linear algebra over the rationals.

A vector is a coordinate dict, column -> nonzero coefficient, and a
combination stores only its nonzero terms.  This module owns how a sparse
exact row is updated and eliminated: ``merge`` is the one add-and-drop-zero
step, ``Combination`` the one base of the algebra elements, and ``Echelon``
the one elimination routine (rank is ``Echelon.spanning(rows).rank``, and
``SpanSolver`` feeds its rows through it).  Elimination is deterministic: it
always clears the smallest column index of the row at hand; there is no
other pivot rule and no column order to choose.  It runs on integers: ``Echelon``
scales each row it is given to integers once, clears columns by integer
cross-multiplication and keeps every pivot row as primitive integers beside
its normalized form.  No floating point anywhere.

A stored coefficient is an ``int`` exactly when its value is integral, and
otherwise a reduced ``fractions.Fraction``; never a Fraction with
denominator 1, a float or a bool.  Most coefficients are integers, and int
arithmetic is far cheaper than Fraction arithmetic.  Conversion happens
once, where a value enters: the constructor of ``Combination`` and the
scalar of ``__rmul__`` keep an int, turn a Fraction with denominator 1 into
its numerator, convert a decimal string, refuse a ``float`` or ``complex``
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

ZERO = 0
ONE = 1


def canonical(q):
    """``q``, an int or a Fraction, as a stored coefficient: a Fraction
    with denominator 1 becomes its numerator."""
    return q.numerator if type(q) is Fraction and q.denominator == 1 else q


def quotient(n, d):
    """n / d for ints, d > 0, as a stored coefficient."""
    return n // d if n % d == 0 else Fraction(n, d)


def _coefficient(c):
    """``c`` as a stored coefficient: the one conversion of a value entering
    the library."""
    if type(c) is int:
        return c
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

    ``rows`` maps each pivot column to its row normalized to pivot
    coefficient 1, as stored coefficients, newest pivot last.  Elimination
    runs on integers: ``_ints`` keeps the same rows as primitive integers
    with a positive pivot, and a row entering ``add``, ``reduce``,
    ``contains`` or ``normal_form`` is scaled once by the lcm of its
    denominators, its zero entries dropped.  Results are stored
    coefficients, equal to those of Fraction elimination.  Elimination
    always clears the smallest column index of the row being reduced; a
    caller that wants other columns cleared first numbers them first (see
    ``envelope._window_part``).
    """

    def __init__(self):
        self.rows = {}  # pivot col -> row dict, pivot 1, stored coefficients
        self._ints = {}  # pivot col -> the same row, primitive ints, pivot > 0

    @classmethod
    def spanning(cls, rows):
        """Echelon of the span of ``rows``, added in order."""
        ech = cls()
        for row in rows:
            ech.add(row)
        return ech

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
        ints = self._ints
        scale = 1
        while row:
            col = min(row)
            piv = ints.get(col)
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

    def reduce(self, row):
        """Return the residue of ``row`` (a dict) after elimination."""
        row, den = int_row(row)
        _, row, scale = self._lead(row)
        den *= scale
        if den == 1:
            return row
        return {c: quotient(v, den) for c, v in row.items()}

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
        self._ints[col] = row
        p = row[col]
        if p == 1:
            self.rows[col] = dict(row)
        else:
            self.rows[col] = {c: quotient(v, p) for c, v in row.items()}
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
        """Current echelon rows, ordered by pivot column."""
        return [dict(self.rows[c]) for c in sorted(self.rows)]


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
    earlier ones and is left out; its coefficient is 0.
    """

    def __init__(self, dim, rows):
        self.dim = dim
        self.rows = list(rows)
        self._ech = Echelon()
        for i, row in enumerate(self.rows):
            res = self._ech.reduce({**row, dim + i: ONE})
            if min(res) < dim:
                self._ech.add(res)

    def solve(self, target):
        """Coefficients c with sum(c[i] * rows[i]) == target, or None."""
        res = self._ech.reduce(target)
        if res and min(res) < self.dim:
            return None
        return [-res.get(self.dim + i, ZERO) for i in range(len(self.rows))]
