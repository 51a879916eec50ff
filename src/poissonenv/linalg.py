"""Exact sparse linear algebra over the rationals.

Vectors, matrices and combinations store only nonzero entries.  This module
owns how a sparse exact row is updated and eliminated: ``merge`` is the one
add-and-drop-zero step, ``Combination`` the one base of the algebra
elements, and ``Echelon`` the one elimination routine (rank, kernel and span
solving feed their rows through it).  Elimination is deterministic: it
always clears the smallest column index of the row at hand; there is no
other pivot rule and no column order to choose.  It runs on integers: ``Echelon``
scales each row it is given to integers once, clears columns by integer
cross-multiplication and keeps every pivot row as primitive integers beside
its normalized form.  No floating point anywhere.

A stored coefficient is an ``int`` exactly when its value is integral, and
otherwise a reduced ``fractions.Fraction``; never a Fraction with
denominator 1, a float or a bool.  Most coefficients are integers, and int
arithmetic is far cheaper than Fraction arithmetic.  Conversion happens
once, where a value enters: the constructors of ``Combination``,
``SparseVector`` and ``SparseMatrix`` and the scalar of ``__rmul__`` keep an
int, turn a Fraction with denominator 1 into its numerator, convert a
decimal string, and refuse a ``float`` or ``complex`` with ``TypeError``,
since a binary float is not the rational its user meant.  Inside the
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
    return canonical(c if type(c) is Fraction else Fraction(c))


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


class DimensionMismatch(ValueError):
    """Raised when vectors of different dimensions are combined."""


class SparseVector:
    """Immutable sparse vector: ``dim`` and a map index -> nonzero coefficient."""

    __slots__ = ("dim", "entries")

    def __init__(self, dim, entries=None):
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "entries", _clean(entries or {}))
        for i in self.entries:
            if not 0 <= i < dim:
                raise IndexError(f"index {i} out of range for dim {dim}")

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("SparseVector is immutable")

    def __getitem__(self, i):
        return self.entries.get(i, ZERO)

    def __eq__(self, other):
        return (
            isinstance(other, SparseVector)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, frozenset(self.entries.items())))

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if self.dim != other.dim:
            raise DimensionMismatch(f"{self.dim} != {other.dim}")
        return SparseVector(self.dim, merge(dict(self.entries), other.entries.items()))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = _coefficient(c)
        if not c:
            return SparseVector(self.dim)
        entries = {i: canonical(c * v) for i, v in self.entries.items()}
        return SparseVector(self.dim, entries)

    def __repr__(self):
        return f"SparseVector({self.dim}, {self.entries!r})"


class SparseMatrix:
    """Immutable sparse matrix: shape plus a map (row, col) -> nonzero coefficient."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries=None):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", _clean(entries or {}))
        for r, c in self.entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise IndexError(f"entry ({r},{c}) outside {rows}x{cols}")

    def __setattr__(self, *a):  # pragma: no cover - guard only
        raise AttributeError("SparseMatrix is immutable")

    @classmethod
    def from_rows(cls, vectors):
        """Stack SparseVectors (all the same dim) as the rows of a matrix."""
        vectors = list(vectors)
        if not vectors:
            return cls(0, 0)
        dim = vectors[0].dim
        entries = {}
        for r, v in enumerate(vectors):
            if v.dim != dim:
                raise DimensionMismatch(f"{v.dim} != {dim}")
            for c, x in v.entries.items():
                entries[(r, c)] = x
        return cls(len(vectors), dim, entries)

    def row_dicts(self):
        rows = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def transpose(self):
        return SparseMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"


def rank(m):
    """Rank over the rationals: the rows of ``m`` fed into an ``Echelon``,
    whose smallest-column rule is the only pivot rule."""
    return Echelon.spanning(m.row_dicts()).rank


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
    """Expresses targets as exact rational combinations of fixed basis vectors.

    Basis vector i enters one ``Echelon`` tagged with an extra column
    ``dim + i``, so every echelon row carries the combination of basis
    vectors it stands for.  A vector whose untagged part reduces to zero
    depends on the earlier ones and is left out; its coefficient is 0.  An
    empty basis has no dimension of its own and takes that of each target.
    """

    def __init__(self, basis):
        self.basis = list(basis)
        self.dim = self.basis[0].dim if self.basis else None
        self._ech = Echelon()
        for i, v in enumerate(self.basis):
            if v.dim != self.dim:
                raise DimensionMismatch(f"{v.dim} != {self.dim}")
            _add_independent(self._ech, {**v.entries, self.dim + i: ONE}, self.dim)

    def solve(self, target):
        """Coefficients c with sum(c[i] * basis[i]) == target, or None."""
        dim = target.dim if self.dim is None else self.dim
        if target.dim != dim:
            raise DimensionMismatch(f"{target.dim} != {dim}")
        res = self._ech.reduce(target.entries)
        if res and min(res) < dim:
            return None
        return [-res.get(dim + i, ZERO) for i in range(len(self.basis))]


def _add_independent(ech, row, dim):
    """Add ``row`` to ``ech`` unless its part below column ``dim`` reduces to
    zero; return the residue."""
    res = ech.reduce(row)
    if min(res) < dim:
        ech.add(res)
    return res


def solve_in_span(basis, target):
    """Express ``target`` in the span of ``basis`` vectors.

    Returns the list of exact rational coefficients, or None if the target is
    definitely not in the span.  Raises DimensionMismatch on shape errors.
    """
    return SpanSolver(basis).solve(target)


def kernel(m):
    """Basis of the right kernel {x : m x = 0}, as SparseVectors.

    Column j enters one ``Echelon`` tagged with an extra column
    ``m.rows + j``; every column that reduces to zero against the earlier
    ones leaves the combination of columns that witnesses it.
    """
    ech = Echelon()
    out = []
    for j, col in enumerate(m.transpose().row_dicts()):
        res = _add_independent(ech, {**col, m.rows + j: ONE}, m.rows)
        if min(res) >= m.rows:
            out.append(SparseVector(m.cols, {k - m.rows: c for k, c in res.items()}))
    return out
