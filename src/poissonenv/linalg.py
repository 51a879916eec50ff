"""Exact sparse linear algebra over the rationals.

Scalars are arbitrary-precision ``fractions.Fraction`` values (always reduced,
positive denominator).  Vectors, matrices and combinations store only nonzero
entries.  This module owns how a sparse exact row is updated and eliminated:
``merge`` is the one add-and-drop-zero step, ``Combination`` the one base of
the algebra elements, and ``Echelon`` the one elimination routine (rank,
kernel and span solving feed their rows through it).  Elimination is
deterministic: it always clears the smallest column of the row at hand, in
the echelon's column order; there is no other pivot rule.  No floating point
anywhere.

Conversion to ``Fraction`` happens once, where a value enters: the
constructors of ``Combination``, ``SparseVector`` and ``SparseMatrix`` and
the scalar of ``__rmul__`` convert ints and decimal strings, and refuse a
``float`` or ``complex`` with ``TypeError``, since a binary float is not the
rational its user meant.  A coefficient that already is a ``Fraction`` is
kept as it is.  Inside the library, sums and products of Fractions are
Fractions again, so results built by ``merge`` from stored coefficients
(``Combination._of``) are not checked a second time.
"""

from __future__ import annotations

from fractions import Fraction

# The ground field: exact rationals.
Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


def _fraction(c):
    """``c`` as a Fraction: the one conversion of a value entering the library."""
    if isinstance(c, (float, complex)):
        raise TypeError(f"inexact coefficient {c!r}; use an int, a Fraction or a string")
    return Fraction(c)


def _clean(entries):
    """The nonzero values of a mapping entering the library, as Fractions;
    a value that already is a Fraction is kept as it is."""
    out = {}
    for k, v in entries.items():
        if type(v) is not Fraction:
            v = _fraction(v)
        if v:
            out[k] = v
    return out


def merge(acc, items, scale=1):
    """Fold ``scale * c`` into ``acc[k]`` for every pair (k, c) of ``items``.

    ``acc`` is a dict of nonzero coefficients and stays one: a key whose sum
    is zero is dropped.  Returns ``acc``.

    With the default scale, the int 1, the items are added as they are.
    That is exact and keeps every type: ``c * 1`` equals ``c`` and has its
    type.  Any other scale, ``Fraction(1)`` included (``int * Fraction(1)``
    is a Fraction), takes the multiplying loop.
    """
    get = acc.get
    if type(scale) is int and scale == 1:
        for k, c in items:
            w = get(k)
            if w is None:
                if c:
                    acc[k] = c
            else:
                w += c
                if w:
                    acc[k] = w
                else:
                    del acc[k]
        return acc
    for k, c in items:
        w = get(k)
        if w is None:
            w = c * scale
            if w:
                acc[k] = w
        else:
            w += c * scale
            if w:
                acc[k] = w
            else:
                del acc[k]
    return acc


class Combination:
    """Exact rational combination of hashable keys, the base of the algebra
    elements: ``terms`` maps each key to its nonzero Fraction coefficient.

    The constructor is the boundary: it keeps a coefficient that is already a
    ``Fraction``, converts an int or a decimal string, refuses a float, and
    drops zeros.  Results computed from stored coefficients are built by
    ``_of``, which takes its dict as it is.

    Arithmetic returns the type of the left operand.  Equality holds only
    between elements of the same type, so elements of different algebras
    never compare equal; subclasses that define ``__hash__`` are hashable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _clean(terms) if terms else {}

    @classmethod
    def _of(cls, terms):
        """An element owning ``terms``, a dict of nonzero Fractions computed
        inside the library (by ``merge`` from stored coefficients)."""
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
        if type(c) is not Fraction:
            c = _fraction(c)
        if not c:
            return type(self)()
        return self._of({k: c * v for k, v in self.terms.items()})


class DimensionMismatch(ValueError):
    """Raised when vectors of different dimensions are combined."""


class SparseVector:
    """Immutable sparse vector: ``dim`` and a map index -> nonzero Rational."""

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
        if type(c) is not Fraction:
            c = _fraction(c)
        if not c:
            return SparseVector(self.dim)
        return SparseVector(self.dim, {i: c * v for i, v in self.entries.items()})

    def __repr__(self):
        return f"SparseVector({self.dim}, {self.entries!r})"


class SparseMatrix:
    """Immutable sparse matrix: shape plus a map (row, col) -> nonzero Rational."""

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

    def row(self, r):
        return {c: v for (i, c), v in self.entries.items() if i == r}

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
    ech = Echelon()
    for row in m.row_dicts():
        ech.add(row)
    return ech.rank


class Echelon:
    """Incremental row-echelon container for span/membership computations.

    Rows are stored normalized with pivot coefficient 1, keyed by pivot
    column, newest pivot last.  Elimination always clears the smallest
    column of the row being reduced.  ``col_key`` optionally reorders
    columns (smaller key = eliminated first), which is how
    subspace-with-coordinate-subspace intersections are carved out.
    """

    def __init__(self, col_key=None):
        self.rows = {}  # pivot col -> row dict
        self._key = col_key or (lambda c: c)

    @property
    def rank(self):
        return len(self.rows)

    def _lead(self, row):
        """Subtract pivot rows from ``row`` in place, smallest column first,
        until that column has no pivot; return it (None once ``row`` is 0).

        Subtracting a pivot row only introduces entries at key-larger
        columns, so the sweep terminates.
        """
        rows, key = self.rows, self._key
        while row:
            col = min(row, key=key)
            piv = rows.get(col)
            if piv is None:
                return col
            merge(row, piv.items(), -row[col])
        return None

    def reduce(self, row):
        """Return the residue of ``row`` (a dict) after elimination."""
        row = dict(row)
        self._lead(row)
        return row

    def add(self, row):
        """Insert ``row`` into the echelon; returns True if the rank grew."""
        res = dict(row)
        col = self._lead(res)
        if col is None:
            return False
        pv = res[col]
        if type(pv) is not Fraction:
            pv = Fraction(pv)  # an int row must not be divided in float
        self.rows[col] = {c: v / pv for c, v in res.items()}
        return True

    def contains(self, row):
        return not self.reduce(row)

    def normal_form(self, row):
        """Fully reduce ``row``: the result has no support on pivot columns."""
        row = dict(row)
        out = {}
        while (col := self._lead(row)) is not None:
            out[col] = row.pop(col)
        return out

    def basis(self):
        """Current echelon rows, ordered by pivot column."""
        return [dict(self.rows[c]) for c in sorted(self.rows, key=self._key)]


class SpanSolver:
    """Expresses targets as exact rational combinations of fixed basis vectors.

    Basis vector i enters one ``Echelon`` tagged with an extra column
    ``dim + i``, so every echelon row carries the combination of basis
    vectors it stands for.  A vector whose untagged part reduces to zero
    depends on the earlier ones and is left out; its coefficient is 0.
    """

    def __init__(self, basis):
        self.basis = list(basis)
        self.dim = self.basis[0].dim if self.basis else 0
        self._ech = Echelon()
        for i, v in enumerate(self.basis):
            if v.dim != self.dim:
                raise DimensionMismatch(f"{v.dim} != {self.dim}")
            _add_independent(self._ech, {**v.entries, self.dim + i: ONE}, self.dim)

    def solve(self, target):
        """Coefficients c with sum(c[i] * basis[i]) == target, or None."""
        if target.dim != self.dim:
            raise DimensionMismatch(f"{target.dim} != {self.dim}")
        res = self._ech.reduce(target.entries)
        if res and min(res) < self.dim:
            return None
        return [-res.get(self.dim + i, ZERO) for i in range(len(self.basis))]


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
