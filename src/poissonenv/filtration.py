"""Filtrations of finite-rank algebras given by structure constants.

The commutator filtration is the smallest descending chain with F_0 = A,
F_p F_q <= F_{p+q} and [F_p, F_q] <= F_{p+q+1}; its defining recursion

    F_{n+1} = sum_{p=1}^{n} F_p F_{n+1-p} + sum_{p=0}^{n} <[F_p, F_{n-p}]>

is iterated by one function, ``filtration_chain``, on a ``FiniteAlgebra``:
these algebras or the PBW windows of ``quantize``.  It takes F_n to be the
ideal J_n of a seed list G_n, built from the algebra generators X, G_1 and
the list below alone, each list cut to a linearly independent subset of
itself:

    G_1 = [X, X],    G_{n+1} = [X, G_n] + G_1 G_n.

Proof that J_n = F_n, with J_0 = A.  Below s is in G_n, g1 in G_1, x and y
in X, and a, b, c, d, e in A.  J_n <= F_n: each seed lies in F_n, as
[F_0, F_n] and F_1 F_n lie in F_{n+1}.  F_n <= J_n follows by induction on
the recursion once (P) J_p J_q <= J_{p+q} and (C) [J_p, J_q] <= J_{p+q+1}
hold.  J descends: [x, s] = xs - sx and g1 s lie in J_n.  For a word w in
X, [w, s] = sum w'[x, s]w'' lies in J_{n+1}; hence [A, A] <= J_1.  Then:
 (B) J_1 J_n + J_n J_1 <= J_{n+1}.  On the left, g1 b s = g1 s b +
     g1 [b, s].  On the right, s e g1 = e s g1 + [s, e] g1 and s g1 =
     g1 s + [s, g1], where by Jacobi [s, [x, y]] = [y, [x, s]] -
     [x, [y, s]] lies in the span of G_{n+2}, inside J_{n+1}.
 (A) [A, J_n] <= J_{n+1}: Leibniz on [a, c s d], then (B).
 (P) g b u lies in J_{p+q} for g in G_p and u in J_q, by induction on p
     from (B), over the two shapes of g.  For g = g1 g', g b u =
     g1 (g' b u), then (B).  For g = [x, g'], [x, g'] b u = [x, g' b u]
     - g' [x, b] u - g' b [x, u], then (A), (B) and the induction.
 (D) [g, h] lies in J_{p+q+1} for g in G_p and h in G_q, by induction on
     p: Jacobi for g = [x, g'], Leibniz for g = g1 g'.
 (C) follows from Leibniz, (A), (P) and (D).
The nil-Poisson filtration replaces commutators by the Poisson bracket of a
commutative product.  The same steps hold with {,}: (B) is immediate there,
(A) follows from Leibniz, and J descends because J = F and the recursion
descends.  Once J_{n+1} = J_n, (A) and (B) put G_{n+1} in
[A, J_{n+1}] + J_1 J_{n+1} <= J_{n+2}, so equal ranks mean the chain is
stable from there.  Chains are iterated to stabilization; the stable value
need not be zero (upper-triangular matrices stabilize at the
strictly-upper part), and whether it vanishes is the nilcommutativity
certificate.  A ``FiltrationChain`` holds the pieces as Echelons, and
``chain[n]`` past the end is the stable piece.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .linalg import Echelon, SpanSolver, _clean, merge


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
    coordinate dict of basis_i * basis_j (empty when it is 0), and it may
    narrow ``generators`` to a smaller generating set: those are its only
    hooks.  The product, the commutator, the ideal closure and
    ``filtration_chain`` are built on them, once for every subclass.
    """

    def mul(self, v, w):
        out = {}
        row = self._row
        for i, c1 in v.items():
            for j, c2 in w.items():
                r = row(i, j)
                if r:
                    merge(out, r.items(), c1 * c2)
        return out

    def commutator(self, v, w):
        """[v, w] in one pass: row(i, j) - row(j, i) for every index pair."""
        out = {}
        row = self._row
        for i, c1 in v.items():
            for j, c2 in w.items():
                r, s = row(i, j), row(j, i)
                if r or s:
                    c12 = c1 * c2
                    merge(out, r.items(), c12)
                    merge(out, s.items(), -c12)
        return out

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
                # both rather than load an algebra nobody wrote down; "1/0"
                # names no number either
                try:
                    exact = None if isinstance(c, (bool, float, complex)) else Fraction(c)
                except (TypeError, ValueError, ZeroDivisionError):
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
    is F_n, every n past the end gives the last (stable) piece, and a
    negative n raises ``IndexError``.
    """

    pieces: list

    # chain[n] never runs out, so iterating by index would never stop
    __iter__ = None

    def __getitem__(self, n):
        if n < 0:
            raise IndexError(f"filtration level {n} is negative")
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
    ``pair_map`` on the ``FiniteAlgebra`` ``alg``: F_n is the ideal of the
    seed list G_n of the module docstring, built from the generators, G_1
    and G_{n-1} alone, with ``pair_map`` taking a generator first."""
    pieces = [Echelon.spanning(alg.basis_vec(i) for i in range(alg.dim))]
    # seeds is G_n and first is G_1; with the generators as G_0, G_1 is
    # [x, G_0], and an empty G_1 gives F_1 = 0, which ends the loop
    gens = seeds = alg.generators()
    first = []
    while pieces[-1].rank:
        level = itertools.chain(
            (pair_map(x, g) for x in gens for g in seeds),
            (alg.mul(g1, g) for g1 in first for g in seeds),
        )
        ech = Echelon()
        seeds = [v for v in level if v and ech.add(v)]
        first = first or seeds
        new = alg.ideal_close(seeds)
        if new.rank == pieces[-1].rank:
            # descending chain: equal rank means equal span; stable from here
            break
        pieces.append(new)
    return FiltrationChain(pieces)


def commutator_filtration(alg):
    """Iterate the commutator-filtration recursion to stabilization."""
    return filtration_chain(alg, alg.commutator)


def nil_poisson_filtration(alg):
    """The Poisson analogue, driven by the bracket table.  Its seeds need
    a commutative product: the first pair (i, j) with e_i e_j != e_j e_i
    raises ``ValueError``."""
    if alg.bracket is None:
        raise ValueError("nil-Poisson filtration needs a bracket")
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            if alg._row(i, j) != alg._row(j, i):
                raise ValueError(
                    "nil-Poisson filtration needs a commutative product;"
                    f" e_i e_j != e_j e_i at {(i, j)}"
                )
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
    solver = SpanSolver(alg.dim, flat)

    def project(vec, grade):
        """Coordinates of ``vec`` on the grade representatives mod F_{grade+1}:
        ``vec`` lies in F_grade exactly when its coordinates below the grade
        vanish."""
        if not vec:
            return {}
        if grade >= chain.length:  # F_grade = 0 and vec != 0
            raise ValueError("chain is not multiplicative")
        coeffs = solver.solve(vec)
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


class EndoMap:
    """A linear map given by its columns: column j, a coordinate dict, is
    the image of basis vector j.  Column values are converted as they enter,
    like the terms of a ``Combination``."""

    def __init__(self, columns):
        self._cols = [_clean(col) for col in columns]

    def apply(self, vec):
        out = {}
        cols = self._cols
        for j, c in vec.items():
            merge(out, cols[j].items(), c)
        return out

    def columns(self):
        return [dict(col) for col in self._cols]


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
    # with f = id + D, f(pq) - f(p) f(q) = D(pq) - (Dp) q - p (Dq) - (Dp)(Dq),
    # and the same for the bracket, so one pass over the basis pairs decides
    # both; the commutator identity follows from the product one.  Every
    # pair is checked, zero products included: f(e_i) f(e_j) can be nonzero
    # where e_i e_j = 0
    cols = f.columns()
    identities = True
    for i in range(alg.dim):
        vi, fi = alg.basis_vec(i), cols[i]
        for j in range(alg.dim):
            vj, fj = alg.basis_vec(j), cols[j]
            if f.apply(alg.mul(vi, vj)) != alg.mul(fi, fj) or (
                use_bracket and f.apply(alg.brk(vi, vj)) != alg.brk(fi, fj)
            ):
                identities = False
                break
        if not identities:
            break
    ok_endo = identities and f.apply(alg.unit_vec()) == alg.unit_vec()

    f1 = chain[1]

    def D(vec):
        return merge(f.apply(vec), vec.items(), -1)

    identity_mod_f1 = all(f1.contains(D(alg.basis_vec(i))) for i in range(alg.dim))

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
    derivation = EndoMap(derivation_cols)
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
    return EndoMap(columns)


def hamiltonian_derivation(alg, c_vec):
    """The inner Poisson derivation {c, -} as column dicts."""
    return [alg.brk(c_vec, alg.basis_vec(i)) for i in range(alg.dim)]


def inner_derivation(alg, u_vec):
    """The associative inner derivation [u, -] as column dicts."""
    return [alg.commutator(u_vec, alg.basis_vec(i)) for i in range(alg.dim)]
