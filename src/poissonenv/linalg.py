"""Exact sparse linear algebra over the rationals.

Scalars are arbitrary-precision ``fractions.Fraction`` values (always reduced,
positive denominator).  Vectors and matrices store only nonzero entries.
Everything here is deterministic: elimination picks the smallest available
column, and among candidate pivot rows the numerator with the smallest bit
length wins.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

# The ground field: exact rationals.
Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class DimensionMismatch(ValueError):
    """Raised when vectors of different dimensions are combined."""


def _clean(entries):
    return {k: v for k, v in entries.items() if v != 0}


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
        out = dict(self.entries)
        for i, v in other.entries.items():
            w = out.get(i, ZERO) + v
            if w:
                out[i] = w
            else:
                out.pop(i, None)
        return SparseVector(self.dim, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        c = Fraction(c)
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


def _pivot_key(value):
    # Deterministic pivot preference: small numerator bit length, then small
    # denominator bit length.
    return (value.numerator.bit_length(), value.denominator.bit_length())


def rank(m):
    """Rank over the rationals by exact Gaussian elimination.

    Pivot choice: smallest column index first, then the candidate entry whose
    numerator has the smallest bit length (ties broken by denominator bit
    length, then row order), so results and intermediate states are
    reproducible.
    """
    rows = [r for r in m.row_dicts() if r]
    rk = 0
    while rows:
        col = min(min(r) for r in rows)
        cand = [i for i, r in enumerate(rows) if col in r]
        best = min(cand, key=lambda i: (_pivot_key(rows[i][col]), i))
        pivot_row = rows.pop(best)
        pv = pivot_row[col]
        rk += 1
        nxt = []
        for r in rows:
            x = r.get(col)
            if x:
                f = x / pv
                for c, v in pivot_row.items():
                    w = r.get(c, ZERO) - f * v
                    if w:
                        r[c] = w
                    else:
                        r.pop(c, None)
            if r:
                nxt.append(r)
        rows = nxt
    return rk


class Echelon:
    """Incremental row-echelon container for span/membership computations.

    Rows are stored normalized with pivot coefficient 1, keyed by pivot
    column.  ``col_key`` optionally reorders columns (smaller key = eliminated
    first), which is how subspace-with-coordinate-subspace intersections are
    carved out.
    """

    def __init__(self, col_key=None):
        self.rows = {}  # pivot col -> row dict
        self._key = col_key or (lambda c: c)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, row):
        """Return the residue of ``row`` (a dict) after elimination."""
        row = dict(row)
        while row:
            col = min(row, key=self._key)
            piv = self.rows.get(col)
            if piv is None:
                return row
            f = row[col]
            for c, v in piv.items():
                w = row.get(c, ZERO) - f * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
        return row

    def add(self, row):
        """Insert ``row`` into the echelon; returns True if the rank grew."""
        res = self.reduce(row)
        if not res:
            return False
        col = min(res, key=self._key)
        pv = res[col]
        self.rows[col] = {c: v / pv for c, v in res.items()}
        return True

    def contains(self, row):
        return not self.reduce(row)

    def normal_form(self, row):
        """Fully reduce ``row``: the result has no support on pivot columns.

        Subtracting a pivot row only introduces entries at key-larger
        columns, so a single ascending sweep terminates.
        """
        row = dict(row)
        out = {}
        while row:
            col = min(row, key=self._key)
            piv = self.rows.get(col)
            if piv is None:
                out[col] = row.pop(col)
                continue
            f = row[col]
            for c, v in piv.items():
                w = row.get(c, ZERO) - f * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
        return out

    def basis(self):
        """Current echelon rows, ordered by pivot column."""
        return [dict(self.rows[c]) for c in sorted(self.rows, key=self._key)]


class SpanSolver:
    """Expresses targets as exact rational combinations of fixed basis vectors."""

    def __init__(self, basis):
        self.basis = list(basis)
        self.dim = self.basis[0].dim if self.basis else 0
        self._ech = []  # list of (row dict, coeff dict over basis indices)
        for i, v in enumerate(self.basis):
            if v.dim != self.dim:
                raise DimensionMismatch(f"{v.dim} != {self.dim}")
            self._insert(dict(v.entries), {i: ONE})

    def _reduce(self, row, coeff):
        for prow, pcoeff in self._ech:
            col = min(prow)
            f = row.get(col)
            if not f:
                continue
            for c, v in prow.items():
                w = row.get(c, ZERO) - f * v
                if w:
                    row[c] = w
                else:
                    row.pop(c, None)
            for c, v in pcoeff.items():
                w = coeff.get(c, ZERO) - f * v
                if w:
                    coeff[c] = w
                else:
                    coeff.pop(c, None)
        return row, coeff

    def _insert(self, row, coeff):
        row, coeff = self._reduce(row, coeff)
        if not row:
            return
        pv = row[min(row)]
        self._ech.append(
            (
                {c: v / pv for c, v in row.items()},
                {c: v / pv for c, v in coeff.items()},
            )
        )
        self._ech.sort(key=lambda rc: min(rc[0]))

    def solve(self, target):
        """Coefficients c with sum(c[i] * basis[i]) == target, or None."""
        if target.dim != self.dim:
            raise DimensionMismatch(f"{target.dim} != {self.dim}")
        row, coeff = self._reduce(dict(target.entries), {})
        if row:
            return None
        return [-coeff.get(i, ZERO) for i in range(len(self.basis))]


def solve_in_span(basis, target):
    """Express ``target`` in the span of ``basis`` vectors.

    Returns the list of exact rational coefficients, or None if the target is
    definitely not in the span.  Raises DimensionMismatch on shape errors.
    """
    return SpanSolver(basis).solve(target)


def kernel(m):
    """Basis of the right kernel {x : m x = 0}, as SparseVectors.

    Columns are fed through a tagged elimination; every column that reduces
    to zero yields the combination of columns that witnesses it.
    """
    cols = m.transpose().row_dicts()
    ech = []  # (reduced column, tag over original column indices)
    out = []
    for j, col in enumerate(cols):
        row, tag = dict(col), {j: ONE}
        for prow, ptag in ech:
            c = min(prow)
            f = row.get(c)
            if not f:
                continue
            for k, v in prow.items():
                w = row.get(k, ZERO) - f * v
                if w:
                    row[k] = w
                else:
                    row.pop(k, None)
            for k, v in ptag.items():
                w = tag.get(k, ZERO) - f * v
                if w:
                    tag[k] = w
                else:
                    tag.pop(k, None)
        if not row:
            out.append(SparseVector(m.cols, tag))
        else:
            pv = row[min(row)]
            ech.append(
                (
                    {k: v / pv for k, v in row.items()},
                    {k: v / pv for k, v in tag.items()},
                )
            )
            ech.sort(key=lambda rt: min(rt[0]))
    return out
