"""Filtrations of finite-rank algebras given by structure constants.

The commutator filtration is the smallest descending chain with
F_p F_q <= F_{p+q} and [F_p, F_q] <= F_{p+q+1}; its defining recursion

    F_{n+1} = sum_{p=1}^{n} F_p F_{n+1-p} + sum_{p=0}^{n} <[F_p, F_{n-p}]>

is iterated by one function, ``filtration_chain``, on a ``FiniteAlgebra``:
these algebras or the PBW windows of ``quantize``.  Three changes keep every
span: one ideal closure of all the brackets replaces one per summand (a sum
of ideals is the ideal of the union); the p = n summand goes (by antisymmetry
it is the p = 0 one); and [F_0, F_n] becomes [x, F_n] over algebra
generators x (the same ideal, by the Leibniz rule).  The nil-Poisson
filtration replaces commutators by the Poisson bracket.  Chains are iterated
to stabilization; the stable value need not be zero (upper-triangular
matrices stabilize at the strictly-upper part), and whether it vanishes is
the nilcommutativity certificate.  A ``FiltrationChain`` holds the pieces
as Echelons, and ``chain[n]`` past the end is the stable piece.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import factorial, lcm

from .linalg import Echelon, SparseMatrix, SparseVector, SpanSolver, _clean, merge


def _table_mul(table, v, w):
    """Product of coordinate dicts under a structure-constant table."""
    out = {}
    for i, ci in v.items():
        for j, cj in w.items():
            row = table.get((i, j))
            if row:
                merge(out, row.items(), ci * cj)
    return out


def _is_index(x, dim):
    return type(x) is int and 0 <= x < dim


def _integer_table(table):
    """``table`` times the lcm of its denominators, as int rows without zeros.

    Returns the scaled table and the scale.  The validated identities are
    homogeneous in the structure constants, so they hold for the scaled table
    (with the unit law comparing against the scale) iff they hold for
    ``table``.
    """
    scale = lcm(1, *(c.denominator for row in table.values() for c in row.values()))
    out = {}
    for key, row in table.items():
        row = {k: c.numerator * (scale // c.denominator) for k, c in row.items() if c}
        if row:
            out[key] = row
    return out, scale


def _nonzero(name, table):
    """Copy of a structure-constant table as stored coefficients, without
    zeros or empty rows.  A float or a bool constant raises ``TypeError``
    naming its (i, j, k) entry: it is not the rational its user meant."""
    out = {}
    for key, row in table.items():
        for k, c in row.items():
            if isinstance(c, (bool, float, complex)):
                raise TypeError(
                    f"{name} entry {(*key, k)}: coefficient {c!r} is a"
                    f" {type(c).__name__}; use an int, a Fraction or a string"
                )
        row = _clean(row)
        if row:
            out[key] = row
    return out


def _support(table, dim):
    """``out[a]`` = {b : table[a, b] != 0}."""
    out = [set() for _ in range(dim)]
    for a, b in table:
        out[a].add(b)
    return out


class FiniteAlgebra:
    """A finite-rank unital algebra in coordinates: a vector is a dict from
    basis index to nonzero stored coefficient.

    A subclass sets ``dim`` and ``unit`` and gives ``_row(i, j)``, the
    coordinate dict of basis_i * basis_j (empty when it is 0).  It may
    narrow ``_pairs`` to the index pairs whose row can be nonzero,
    ``partners`` to the rows of a basis whose products with a given vector
    can be nonzero, and ``generators`` to a smaller generating set.  The
    product, the commutator, the ideal closure and ``filtration_chain`` are
    built on these, once for every subclass.
    """

    def _pairs(self, v, w):
        """(i, j, c_i * c_j) over every index pair of v and w, in the order
        of v, then of w."""
        for i, c1 in v.items():
            for j, c2 in w.items():
                yield i, j, c1 * c2

    def mul(self, v, w):
        out = {}
        row = self._row
        for i, j, c12 in self._pairs(v, w):
            r = row(i, j)
            if r:
                merge(out, r.items(), c12)
        return out

    def commutator(self, v, w):
        """[v, w] in one pass: row(i, j) - row(j, i) for every index pair."""
        out = {}
        row = self._row
        for i, j, c12 in self._pairs(v, w):
            r = row(i, j)
            if r:
                merge(out, r.items(), c12)
            r = row(j, i)
            if r:
                merge(out, r.items(), -c12)
        return out

    def partners(self, basis):
        """Map from a vector v to the rows of ``basis`` whose product and
        commutator with v can be nonzero, as a sublist in the order of
        ``basis``: here every row, as nothing rules any out."""
        return lambda v: basis

    def basis_vec(self, i):
        return {i: 1}

    def unit_vec(self):
        return {self.unit: 1}

    def generators(self):
        """Algebra generators: all basis vectors, as no smaller set is known."""
        return [self.basis_vec(i) for i in range(self.dim)]

    def ideal_close(self, seeds):
        """Echelon spanning the two-sided ideal generated by ``seeds``: the
        span closed under products by each generator on the left and on the
        right, which suffices because the generators generate the algebra."""
        maps = []
        for b in self.generators():
            maps += [lambda v, b=b: self.mul(b, v), lambda v, b=b: self.mul(v, b)]
        return span_closure(maps, seeds)


class TruncatedAlgebra(FiniteAlgebra):
    """Finite-rank unital algebra with sparse structure constants.

    ``product[(i, j)]`` is the coordinate dict of basis_i * basis_j; an
    optional ``bracket`` table makes it a Poisson algebra.

    Every construction validates the tables: first that ``unit`` and every
    table index lie in [0, dim), then the unit law, associativity and (when a
    bracket is present) antisymmetry, Jacobi and Leibniz on all basis triples,
    raising ``ValueError`` at the first failing one.  The checks run on
    integer copies of the tables, each scaled by the lcm of its denominators
    (every identity is homogeneous in the constants, so none changes).  They
    visit only the triples where some side of the identity can be nonzero,
    found from the nonzero pattern of the tables, and skip associativity
    triples through the unit, which the unit law settles.  The visited
    triples keep (i, j, k) order, so the reported triple is the first
    failing one of the full O(dim^3) loop.
    """

    def __init__(self, dim, labels, unit, product, bracket=None):
        self.dim = dim
        self.labels = list(labels)
        self.unit = unit
        self.product = _nonzero("product", product)
        self.bracket = None if bracket is None else _nonzero("bracket", bracket)
        if len(self.labels) != dim:
            raise ValueError("label count must match dim")
        # indices are checked on the tables as given, zero entries included
        self._check_indices(product, bracket)
        self._validate()

    # -- arithmetic on coordinate dicts ------------------------------------
    def _row(self, i, j):
        return self.product.get((i, j), {})

    def brk(self, v, w):
        if self.bracket is None:
            raise ValueError("algebra carries no bracket")
        return _table_mul(self.bracket, v, w)

    def _check_indices(self, product, bracket):
        dim = self.dim
        if not _is_index(self.unit, dim):
            raise ValueError(f"unit {self.unit!r} is not a basis index in [0, {dim})")
        tables = [("product", product)]
        if bracket is not None:
            tables.append(("bracket", bracket))
        for name, table in tables:
            for key, row in table.items():
                if not (
                    type(key) is tuple
                    and len(key) == 2
                    and all(_is_index(x, dim) for x in key)
                ):
                    raise ValueError(
                        f"{name} entry {key!r} has an index outside [0, {dim})"
                    )
                for k in row:
                    if not _is_index(k, dim):
                        raise ValueError(
                            f"{name} entry {key!r} -> {k!r} has an index "
                            f"outside [0, {dim})"
                        )

    def _validate(self):
        dim = self.dim
        basis = [{i: 1} for i in range(dim)]
        P, p_scale = _integer_table(self.product)
        p_right = _support(P, dim)
        for i in range(dim):
            want = {i: p_scale}
            if P.get((self.unit, i)) != want or P.get((i, self.unit)) != want:
                raise ValueError(f"unit law fails at basis {i}")
        # with the unit law holding, every triple containing the unit is
        # associative; otherwise (e_i e_j) e_k and e_i (e_j e_k) are 0 unless
        # e_j e_k != 0 or e_m e_k != 0 for some m in e_i e_j
        rest = [i for i in range(dim) if i != self.unit]
        for i in rest:
            for j in rest:
                ij = P.get((i, j), {})
                ks = set(p_right[j])
                for m in ij:
                    ks |= p_right[m]
                ks.discard(self.unit)
                for k in sorted(ks):
                    lhs = _table_mul(P, ij, basis[k])
                    if lhs != _table_mul(P, basis[i], P.get((j, k), {})):
                        raise ValueError(f"associativity fails at {(i, j, k)}")
        if self.bracket is None:
            return
        B, _ = _integer_table(self.bracket)
        b_right = _support(B, dim)
        for i in range(dim):
            for j in range(dim):
                if merge(dict(B.get((i, j), {})), B.get((j, i), {}).items()):
                    raise ValueError(f"bracket not antisymmetric at {(i, j)}")
        # the bracket is antisymmetric from here, so {e_a, e_b} != 0 iff
        # {e_b, e_a} != 0.  When {e_i, -} = 0 every Jacobi and Leibniz term
        # of (i, j, k) is 0; otherwise a term can be nonzero only for k with
        # e_j e_k, {e_j, e_k} or {e_i, e_k} != 0, or e_m e_k or {e_m, e_k}
        # != 0 for some m in {e_i, e_j}
        for i in range(dim):
            if not b_right[i]:
                continue
            for j in range(dim):
                ij = B.get((i, j), {})
                ks = p_right[j] | b_right[j] | b_right[i]
                for m in ij:
                    ks |= p_right[m] | b_right[m]
                for k in sorted(ks):
                    jac = _table_mul(B, basis[i], B.get((j, k), {}))
                    merge(jac, _table_mul(B, basis[j], B.get((k, i), {})).items())
                    merge(jac, _table_mul(B, basis[k], ij).items())
                    if jac:
                        raise ValueError(f"Jacobi fails at {(i, j, k)}")
                    leib = _table_mul(B, basis[i], P.get((j, k), {}))
                    merge(leib, _table_mul(P, basis[j], B.get((i, k), {})).items(), -1)
                    merge(leib, _table_mul(P, ij, basis[k]).items(), -1)
                    if leib:
                        raise ValueError(f"Leibniz fails at {(i, j, k)}")

    # -- serialization ------------------------------------------------------
    def to_json_dict(self):
        def table(t):
            return [
                [i, j, k, str(c)]
                for (i, j), row in sorted(t.items())
                for k, c in sorted(row.items())
            ]

        out = {
            "dim": self.dim,
            "labels": [str(l) for l in self.labels],
            "unit": self.unit,
            "product": table(self.product),
        }
        if self.bracket is not None:
            out["bracket"] = table(self.bracket)
        return out

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError(f"algebra data is a {type(data).__name__}, not an object")
        for field in ("dim", "labels", "unit", "product"):
            if field not in data:
                raise ValueError(f"missing field {field!r}")
        if type(data["dim"]) is not int:  # a bool is not a dimension either
            raise ValueError(f"dim {data['dim']!r} is not an int")
        if not isinstance(data["labels"], list):
            raise ValueError(f"labels {data['labels']!r} is not a list")

        def table(name, rows):
            if not (
                isinstance(rows, list)
                and all(isinstance(r, list) and len(r) == 4 for r in rows)
            ):
                raise ValueError(f"{name} is not a list of [i, j, k, coeff] entries")
            # entries for the same (i, j, k) add up; the constructor drops the
            # zero sums once the index check has seen every entry
            t = {}
            for i, j, k, c in rows:
                # a float is already rounded, and Fraction(True) is 1: refuse
                # both rather than load an algebra nobody wrote down
                try:
                    exact = None if isinstance(c, (bool, float, complex)) else Fraction(c)
                except (TypeError, ValueError):
                    exact = None
                if exact is None:
                    raise ValueError(
                        f"{name} entry ({i}, {j}, {k}): coefficient {c!r} is"
                        " not an int or a decimal string"
                    )
                row = t.setdefault((i, j), {})
                row[k] = row.get(k, 0) + exact
            return t

        bracket = data.get("bracket")  # [] is a zero bracket, not a missing one
        return cls(
            dim=data["dim"],
            labels=data["labels"],
            unit=data["unit"],
            product=table("product", data["product"]),
            bracket=None if bracket is None else table("bracket", bracket),
        )

    def dump(self, fp):
        json.dump(self.to_json_dict(), fp, indent=1)

    @classmethod
    def load(cls, fp):
        return cls.from_json_dict(json.load(fp))


@dataclass
class FiltrationChain:
    """Descending chain F_0 >= F_1 >= ... down to its stable value.

    ``pieces`` holds the computed pieces as Echelons, F_0 first; ``chain[n]``
    is F_n, and every n past the end gives the last (stable) piece.
    """

    pieces: list

    # chain[n] never runs out, so iterating by index would never stop
    __iter__ = None

    def __getitem__(self, n):
        return self.pieces[min(n, len(self.pieces) - 1)]

    @property
    def stable_is_zero(self):
        return self.pieces[-1].rank == 0

    @property
    def length(self):
        return len(self.pieces)

    def rank(self, n):
        return self[n].rank

    def piece_basis(self, n):
        return self[n].basis()

    def ranks(self):
        return [p.rank for p in self.pieces]


def span_closure(maps, seeds):
    """Echelon spanning the smallest subspace that contains ``seeds`` and is
    closed under every linear map in ``maps``: a worklist that applies each
    map, in order, to every vector that raises the rank."""
    ech = Echelon()
    queue = list(seeds)
    while queue:
        v = queue.pop()
        if not v or not ech.add(v):
            continue
        for f in maps:
            image = f(v)
            if image:
                queue.append(image)
    return ech


def filtration_chain(alg, pair_map):
    """F_0, F_1, ... down to the stable value, for the antisymmetric
    ``pair_map`` on the ``FiniteAlgebra`` ``alg``."""
    full = Echelon.spanning(alg.basis_vec(i) for i in range(alg.dim))
    pieces = [full]
    bases = [full.basis()]
    partners = [alg.partners(bases[0])]
    gens = alg.generators()
    while pieces[-1].rank:
        n = len(pieces) - 1
        # p = 0 is [x, F_n], which p = n repeats except at n = 0; a pair
        # left out by ``partners`` is 0, which the filters drop anyway
        brackets = (
            pair_map(v, w)
            for p in range(max(n, 1))
            for v in (gens if p == 0 else bases[p])
            for w in partners[n - p](v)
        )
        new = alg.ideal_close(filter(None, brackets))
        for p in range(1, n + 1):
            for v in bases[p]:
                for w in partners[n + 1 - p](v):
                    prod = alg.mul(v, w)
                    if prod:
                        new.add(prod)
        if new.rank == pieces[n].rank:
            # descending chain: equal rank means equal span; stable from here
            break
        pieces.append(new)
        bases.append(new.basis())
        partners.append(alg.partners(bases[-1]))
    return FiltrationChain(pieces)


def commutator_filtration(alg):
    """Iterate the commutator-filtration recursion to stabilization."""
    return filtration_chain(alg, alg.commutator)


def nil_poisson_filtration(alg):
    """The Poisson analogue, driven by the bracket table."""
    if alg.bracket is None:
        raise ValueError("nil-Poisson filtration needs a bracket")
    return filtration_chain(alg, alg.brk)


def chain_is_admissible(alg, pieces, use_bracket=False):
    """Check the defining containments for a hand-supplied descending chain.

    ``pieces`` maps n -> list of coordinate dicts; the chain is padded with
    its last piece.  Verifies F_p F_q <= F_{p+q} and bracket/commutator of
    F_p, F_q inside F_{p+q+1}.
    """
    chain = FiltrationChain([Echelon.spanning(basis) for basis in pieces])
    pair = alg.brk if use_bracket else alg.commutator
    top = chain.length + 1
    for p in range(top):
        for q in range(top):
            for v in chain[p].basis():
                for w in chain[q].basis():
                    if not chain[p + q].contains(alg.mul(v, w)):
                        return False
                    if not chain[p + q + 1].contains(pair(v, w)):
                        return False
    return True


def associated_graded(alg, chain):
    """The graded Poisson algebra sum F_n/F_{n+1} of a vanishing chain.

    Grade representatives are chosen deterministically from the chain's
    echelon bases; the product of grades p and q is projected to grade
    p + q, and the commutator (degree +1) induces the bracket.
    """
    if not chain.stable_is_zero:
        raise ValueError("associated graded needs a chain that reaches zero")
    # grade n holds the rows of F_n's echelon basis independent mod F_{n+1};
    # its representatives are flat[offsets[n]:offsets[n + 1]]
    labels, grade_of, flat, offsets = [], [], [], []
    for n in range(chain.length):
        ech = Echelon.spanning(chain[n + 1].basis())
        offsets.append(len(flat))
        for row in chain[n].basis():
            if ech.add(row):
                labels.append(f"g{n}.{len(flat) - offsets[n]}")
                grade_of.append(n)
                flat.append(row)
    offsets.append(len(flat))
    dim = len(flat)
    # the chain reaches 0, so the representatives of all grades are a basis
    # of F_0, and those of grades >= g a basis of F_g
    solver = SpanSolver([SparseVector(alg.dim, row) for row in flat])

    def project(vec, grade):
        """Coordinates of ``vec`` on the grade representatives mod F_{grade+1}:
        ``vec`` lies in F_grade exactly when its coordinates below the grade
        vanish."""
        if not vec:
            return {}
        if grade >= chain.length:  # F_grade = 0 and vec != 0
            raise ValueError("chain is not multiplicative")
        coeffs = solver.solve(SparseVector(alg.dim, vec))
        start, stop = offsets[grade], offsets[grade + 1]
        if coeffs is None or any(coeffs[:start]):
            raise ValueError("vector not inside its filtration grade")
        return {k: coeffs[k] for k in range(start, stop) if coeffs[k]}

    product = {}
    bracket = {}
    for a in range(dim):
        for b in range(dim):
            ga, gb = grade_of[a], grade_of[b]
            prod = alg.mul(flat[a], flat[b])
            row = project(prod, ga + gb)
            if row:
                product[(a, b)] = row
            com = alg.commutator(flat[a], flat[b])
            row = project(com, ga + gb + 1)
            if row:
                bracket[(a, b)] = row
    unit_row = project(alg.unit_vec(), 0)
    if list(unit_row.values()) == [1] and len(unit_row) == 1:
        unit = next(iter(unit_row))
    else:
        raise ValueError("unit does not project to a graded basis vector")
    return TruncatedAlgebra(
        dim=dim,
        labels=labels,
        unit=unit,
        product=product,
        bracket=bracket,
    )


@dataclass(frozen=True)
class EndoMap:
    """A linear map given by its matrix; columns are images of basis vectors."""

    matrix: SparseMatrix

    @cached_property
    def _by_column(self):
        cols = {}
        for (i, j), c in self.matrix.entries.items():
            cols.setdefault(j, {})[i] = c
        return cols

    def apply(self, vec):
        out = {}
        for j, c in vec.items():
            col = self._by_column.get(j)
            if col:
                merge(out, col.items(), c)
        return out

    @classmethod
    def from_columns(cls, dim, columns):
        entries = {}
        for j, col in enumerate(columns):
            for i, c in col.items():
                entries[(i, j)] = c
        return cls(SparseMatrix(dim, dim, entries))

    def columns(self):
        return [dict(self._by_column.get(j, {})) for j in range(self.matrix.cols)]


@dataclass
class ContractionReport:
    """Outcome of the endomorphism contraction test."""

    is_endomorphism: bool
    identity_mod_f1: bool
    difference_identities_hold: bool
    inclusions: list  # per n: D(F_n) <= F_{n+1}
    identity_on_top: bool
    top_index: int

    @property
    def passed(self):
        return (
            self.is_endomorphism
            and self.identity_mod_f1
            and self.difference_identities_hold
            and all(self.inclusions)
            and self.identity_on_top
        )


def endo_contraction_check(alg, f, chain, use_bracket=True):
    """Verify the contraction behaviour of an endomorphism fixing F_0/F_1.

    Checks, in order: f is a unital multiplicative (and bracket-preserving,
    for the Poisson variant) endomorphism; f == id modulo F_1; the
    difference D = f - id satisfies
        D{p,q} = {Dp,q} + {p,Dq} + {Dp,Dq}
        D(pq)  = (Dp) q + p (Dq) + (Dp)(Dq)
    on all basis pairs (f{p,q} = {fp,fq} and f(pq) = f(p) f(q) with
    f = id + D); D(F_n) <= F_{n+1} for every computed degree; hence f
    restricts to the identity on the last nonzero piece.
    """
    pair = alg.brk if use_bracket else alg.commutator
    cols = f.columns()

    ok_endo = f.apply(alg.unit_vec()) == alg.unit_vec()
    for i in range(alg.dim):
        if not ok_endo:
            break
        vi = alg.basis_vec(i)
        fi = cols[i]
        for j in range(alg.dim):
            vj = alg.basis_vec(j)
            fj = cols[j]
            if f.apply(alg.mul(vi, vj)) != alg.mul(fi, fj):
                ok_endo = False
                break
            if use_bracket and f.apply(alg.brk(vi, vj)) != alg.brk(fi, fj):
                ok_endo = False
                break

    f1 = chain[1]

    def D(vec):
        return merge(f.apply(vec), vec.items(), -1)

    d_cols = [D(alg.basis_vec(i)) for i in range(alg.dim)]
    identity_mod_f1 = all(f1.contains(col) for col in d_cols)

    # every pair is checked, zero products included: f(e_i) f(e_j) and the
    # D terms can be nonzero where e_i e_j = 0
    identities = True
    for i in range(alg.dim):
        vi, dvi = alg.basis_vec(i), d_cols[i]
        for j in range(alg.dim):
            vj, dvj = alg.basis_vec(j), d_cols[j]
            lhs = dict(D(pair(vi, vj)))
            merge(lhs, pair(dvi, vj).items(), -1)
            merge(lhs, pair(vi, dvj).items(), -1)
            merge(lhs, pair(dvi, dvj).items(), -1)
            if lhs:
                identities = False
                break
            lhs = dict(D(alg.mul(vi, vj)))
            merge(lhs, alg.mul(dvi, vj).items(), -1)
            merge(lhs, alg.mul(vi, dvj).items(), -1)
            merge(lhs, alg.mul(dvi, dvj).items(), -1)
            if lhs:
                identities = False
                break
        if not identities:
            break

    inclusions = []
    top = chain.length - 1
    for n in range(chain.length):
        nxt = chain[n + 1]
        inclusions.append(all(nxt.contains(D(row)) for row in chain[n].basis()))
    identity_on_top = all(not D(row) for row in chain[top].basis())

    return ContractionReport(
        is_endomorphism=ok_endo,
        identity_mod_f1=identity_mod_f1,
        difference_identities_hold=identities,
        inclusions=inclusions,
        identity_on_top=identity_on_top,
        top_index=top,
    )


def exp_nilpotent_endo(alg, derivation_cols):
    """exp of a nilpotent derivation, as an EndoMap.

    The derivation is given by its columns; it must vanish after at most
    ``dim`` iterations, which holds for every degree-raising derivation of a
    truncated graded algebra.
    """
    derivation = EndoMap.from_columns(alg.dim, derivation_cols)
    columns = []
    for i in range(alg.dim):
        total = dict(alg.basis_vec(i))
        term = dict(alg.basis_vec(i))
        k = 0
        while term:
            k += 1
            if k > alg.dim:
                raise ValueError("derivation is not nilpotent")
            term = derivation.apply(term)
            merge(total, term.items(), Fraction(1, factorial(k)))
        columns.append(total)
    return EndoMap.from_columns(alg.dim, columns)


def hamiltonian_derivation(alg, c_vec):
    """The inner Poisson derivation {c, -} as column dicts."""
    return [alg.brk(c_vec, alg.basis_vec(i)) for i in range(alg.dim)]


def inner_derivation(alg, u_vec):
    """The associative inner derivation [u, -] as column dicts."""
    return [alg.commutator(u_vec, alg.basis_vec(i)) for i in range(alg.dim)]
