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

Order of construction.  An algebra without a declared grading closes its
pieces top-down, F_1, F_2, ..., each ideal from its seeds alone, and stops
at the first equal ranks.  A positively graded one (``degrees``: the unit
in degree 0, every other basis vector in a positive one) builds every seed
list first and closes from the deepest level up, each F_n grown from a
copy of F_{n+1}.  The lists run out: G_1 = [X, X] has degrees >= 2, and
[x, s] and g1 s raise the least degree by at least 1, so the least degree
in G_n is at least n + 1, and G_n is empty once n reaches the top degree.
The closure is exact: J_{n+1} is an ideal, and it lies inside J_n because
J descends, so the closure of G_n together with J_{n+1} is J_n, and the
rows of J_{n+1} need no maps applied.  It needs the products by the
generators on one side only.  Let L be the closure of G_n and J_{n+1}
under x v, x in X: L lies in J_n, and for v in L, v x = x v - [x, v] with
[x, v] in J_{n+1} <= L by (A), so L is closed on the right too and is the
two-sided J_n.  For the nil-Poisson filtration the product is commutative,
and v x = x v.  The lists running out makes the last piece 0, and J stops
descending only where it is stable, so the two orders give the same pieces.
F_0 = A is the identity Echelon in either order, with nothing eliminated.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .linalg import (
    Echelon,
    SpanSolver,
    _clean,
    _coefficient,
    _require_ints,
    bilinear,
    linear,
    merge,
)


def _integer_table(table):
    """``table``, stored without zeros, times the lcm of its denominators,
    as int rows.  Returns the scaled table and the scale; a table of ints is
    returned as it is, with the scale 1.  The validated identities are
    homogeneous in the structure constants, so they hold for the scaled
    table (with the unit law comparing against the scale) iff they hold for
    ``table``.
    """
    fractional = [c for row in table.values() for c in row.values() if type(c) is not int]
    if not fractional:
        return table, 1
    scale = lcm(*(c.denominator for c in fractional))
    return {
        key: {k: c.numerator * (scale // c.denominator) for k, c in row.items()}
        for key, row in table.items()
    }, scale


def _least_asymmetric(table, sign):
    """The least pair (i, j), i <= j, where ``table[i, j]`` differs from
    ``sign`` times ``table[j, i]``, or None.  The condition is symmetric in
    (i, j) and holds where neither is a key, so the failing pairs come in
    swapped couples with a key among them: only the keys are read."""
    return min(
        (
            min(ij, ij[::-1])
            for ij, row in table.items()
            if merge(dict(row), table.get(ij[::-1], {}).items(), -sign)
        ),
        default=None,
    )


def _stored(name, table, dim):
    """Copy of a structure-constant table as stored coefficients, without
    zeros or empty rows, in one walk over its entries, zeros included: an
    index outside [0, dim) raises ``ValueError``, and a float or a bool
    constant ``TypeError`` naming its (i, j, k) entry, as it is not the
    rational its user meant.  An int constant is taken as it is."""
    out = {}
    for key, row in table.items():
        i, j = key if type(key) is tuple and len(key) == 2 else (None, None)
        if not (type(i) is int and 0 <= i < dim and type(j) is int and 0 <= j < dim):
            raise ValueError(f"{name} entry {key!r} has an index outside [0, {dim})")
        stored = {}
        for k, c in row.items():
            if not (type(k) is int and 0 <= k < dim):
                raise ValueError(
                    f"{name} entry {key!r} -> {k!r} has an index outside [0, {dim})"
                )
            if type(c) is not int:
                if isinstance(c, (bool, float, complex)):
                    raise TypeError(
                        f"{name} entry {(*key, k)}: coefficient {c!r} is a"
                        f" {type(c).__name__}; use an int, a Fraction or a string"
                    )
                c = _coefficient(c)
            if c:
                stored[k] = c
        if stored:
            out[key] = stored
    return out


def _by_left_index(table):
    """``out[a][b]`` = table[a, b], only for the rows present."""
    out = {}
    for (a, b), row in table.items():
        out.setdefault(a, {})[b] = row
    return out


def _inverted(rows):
    """``out[m]`` = the keys a of ``rows`` whose row ``rows[a]`` has the key m."""
    out = {}
    for a, row in rows.items():
        for m in row:
            out.setdefault(m, []).append(a)
    return out


def _packed(table, powers):
    """``out[m]`` = sum_k powers[k] table[m, k]: basis_m times the packed
    vector sum_k powers[k] basis_k, for each m with a row in ``table``."""
    out = {}
    for (m, k), row in table.items():
        merge(out.setdefault(m, {}), row.items(), powers[k])
    return out


def _report_first_digit(i, j, t, dim, sides):
    """Raise ``ValueError`` at the first failing triple (i, j, k) of a pair
    whose packed comparison differs, ``sides`` holding each identity's name
    and its two packed sides at (i, j): the least t-adic valuation of a
    coordinate of their differences, the earlier identity winning a tie."""
    first = dim
    for name, lhs, rhs in sides:
        for c in merge(lhs, rhs.items(), -1).values():
            k = 0
            while k < first and c % t == 0:
                c //= t
                k += 1
            if k < first:
                first, failing = k, name
    if first == dim:
        raise RuntimeError(f"packed difference at {(i, j)} has no digit below t^{dim}")
    raise ValueError(f"{failing} fails at {(i, j, first)}")


class FiniteAlgebra:
    """A finite-rank unital algebra in coordinates: a vector is a dict from
    basis index to nonzero stored coefficient.

    A subclass sets ``dim`` and ``unit`` and gives ``_row(i, j)``, the
    coordinate dict of basis_i * basis_j (empty when it is 0).  It may
    narrow ``generators`` to a smaller generating set, and it may declare
    ``degrees``, a grading: a list giving each basis vector its degree, 0
    for the unit and positive for every other one, such that
    basis_i * basis_j lies in degree ``degrees[i] + degrees[j]``.  Those are
    its only hooks.  The product, the commutator, the ideal maps and
    ``filtration_chain`` are built on them, once for every subclass: the
    products by each generator on both sides (``_ideal_maps``), which
    ``ideal_close`` closes a span under, and on the left alone
    (``_left_maps``), which close each piece of a graded chain.  A declared
    grading lets the chain be built from its deepest level up.
    """

    degrees = None

    def mul(self, v, w):
        return bilinear(v, w, self._row)

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
        return span_closure(Echelon(), self._ideal_maps(), seeds)

    def _ideal_maps(self):
        """Products by each generator, on the left and on the right."""
        maps = []
        for b in self.generators():
            maps += [lambda v, b=b: self.mul(b, v), lambda v, b=b: self.mul(v, b)]
        return maps

    def _left_maps(self):
        """Products by each generator on the left, the maps that close each
        piece of a graded chain (see ``filtration_chain``)."""
        return [lambda v, b=b: self.mul(b, v) for b in self.generators()]


class TruncatedAlgebra(FiniteAlgebra):
    """Finite-rank unital algebra with sparse structure constants.

    ``product[(i, j)]`` is the coordinate dict of basis_i * basis_j; an
    optional ``bracket`` table makes it a Poisson algebra.

    Every construction validates the tables: first the label count and the
    unit, then each table's indices and constants entry by entry, then the
    unit law, associativity and (when a bracket is present) antisymmetry,
    Jacobi and Leibniz on all basis triples, raising ``ValueError`` at the
    first failing one.  The checks run on integer copies P and B of the
    tables, each scaled by the lcm of its denominators (every identity is
    homogeneous in the constants, so none changes).

    Each identity is checked once per basis pair (i, j) for every k at once,
    by Kronecker substitution.  Let b be the largest absolute row sum of P
    and B, t = 3 b^2 + 1, and v = sum_k t^k e_k.  At a fixed (i, j), each
    coordinate D_k of an identity's difference at (i, j, k) is a sum of at
    most three terms sum_m x_m y_m, x a row of P or B (sum_m |x_m| <= b) and
    each y_m an entry (|y_m| <= b), so |D_k| <= 3 b^2 = t - 1.  Then
    sum_k t^k D_k = 0 forces every D_k = 0: the lowest nonzero D_k would be
    divisible by t.  So the identity at (i, j, v), formed from
    the products e_m v, {e_m, v} built once per algebra, is exact and
    equivalent to the identity at every (i, j, k).  A packed difference
    names its first failing k too: in a coordinate sum_k t^k D_k the lowest
    nonzero D_k0 is not divisible by t, so k0 is its t-adic valuation.  The
    least valuation over a pair's differences, Jacobi before Leibniz on a
    tie, is the first failing triple of the full O(dim^3) loop; one not
    below dim, which the lemma rules out, raises ``RuntimeError``.

    Only the pairs where a side of an identity can be nonzero are visited,
    in row-major order, so the cost follows the nonzero entries, not dim^2;
    a skipped pair has both sides 0 and cannot fail, so the first failing
    pair and its message are those of the full scan.  Associativity pairs
    through the unit are skipped, as the unit law settles them; any other
    (i, j) is visited when e_j v has an e_m term with e_i e_m != 0.
    Jacobi and Leibniz visit an i only if {e_i, -} != 0, and then the j
    where {e_i, v} meets e_j's row in B or P, or {e_j, v} or e_j v meets
    e_i's row in B.  A key (i, j) needs no clause of its own: the e_j
    coordinate of e_j v has the nonzero digit e_j e_unit = e_j, so m = j
    is such an m.  The candidates come from inverted indexes, m -> the a
    with a row (a, m), and m -> the j whose packed row has an e_m term.
    Antisymmetry visits only the pairs that are keys of B, each standing
    for itself and its swap, and names the least failing one, the first of
    a row-major scan of all pairs.

    Admission walks each entry once, an int constant taken as it is; the
    JSON loader reads each coefficient with ``linalg._coefficient``.
    """

    def __init__(self, dim, labels, unit, product, bracket=None):
        _require_ints(dim=dim)
        self.dim = dim
        self.labels = list(labels)
        self.unit = unit
        if len(self.labels) != dim:
            raise ValueError("label count must match dim")
        if not (type(unit) is int and 0 <= unit < dim):
            raise ValueError(f"unit {unit!r} is not a basis index in [0, {dim})")
        self.product = _stored("product", product, dim)
        self.bracket = None if bracket is None else _stored("bracket", bracket, dim)
        self._validate()

    # -- arithmetic on coordinate dicts ------------------------------------
    def _row(self, i, j):
        return self.product.get((i, j), {})

    def brk(self, v, w):
        if self.bracket is None:
            raise ValueError("algebra carries no bracket")
        return bilinear(v, w, lambda i, j: self.bracket.get((i, j)))

    def _validate(self):
        dim, unit = self.dim, self.unit
        P, p_scale = _integer_table(self.product)
        for i in range(dim):
            want = {i: p_scale}
            if P.get((unit, i)) != want or P.get((i, unit)) != want:
                raise ValueError(f"unit law fails at basis {i}")
        tables = [P]
        if self.bracket is not None:
            B, _ = _integer_table(self.bracket)
            tables.append(B)
        b = max(sum(map(abs, row.values())) for T in tables for row in T.values())
        t = 3 * b * b + 1
        powers = [t**k for k in range(dim)]
        # e_m v, with the packed vector v = sum_k t^k e_k, and e_a w as the
        # combination of the rows e_a e_m by the coordinates w_m
        Pv, P_left = _packed(P, powers), _by_left_index(P)
        # m -> the j with an e_m term in e_j v
        Pv_at = _inverted(Pv)
        # with the unit law holding, every pair through the unit is
        # associative; of the others, a side can be nonzero only where e_j v
        # has an e_m term with e_i e_m != 0 (m = j for a key (i, j) of P)
        for i in sorted(P_left):
            if i == unit:
                continue
            Pi = P_left[i]
            js = set()
            for m in Pi:
                js.update(Pv_at.get(m, ()))
            js.discard(unit)
            for j in sorted(js):
                # (e_i e_j) v = e_i (e_j v)
                lhs = linear(P.get((i, j), {}), Pv.get)
                rhs = linear(Pv.get(j, {}), Pi.get)
                if lhs != rhs:
                    _report_first_digit(i, j, t, dim, [("associativity", lhs, rhs)])
        if self.bracket is None:
            return
        # the least failing pair is the first of a row-major scan
        bad = _least_asymmetric(B, -1)
        if bad is not None:
            raise ValueError(f"bracket not antisymmetric at {bad}")
        # {v, w} = -{w, v} from here, so {e_m, v} is the one packed bracket
        Bv, B_left = _packed(B, powers), _by_left_index(B)
        # m -> the a with a row (a, m) in B or P, and the j with an e_m term
        # in {e_j, v}
        B_at, P_at, Bv_at = _inverted(B_left), _inverted(P_left), _inverted(Bv)
        # when {e_i, -} = 0 every Jacobi and Leibniz term at (i, j, k) is 0,
        # so only the i with a bracket row are visited, and of their pairs
        # only those where {e_i, v} meets e_j's row in B or P, or {e_j, v} or
        # e_j v meets e_i's row in B: elsewhere every side is 0
        for i, Bi in sorted(B_left.items()):
            Bvi = Bv.get(i, {})
            js = set()
            for m in Bvi:
                js.update(B_at.get(m, ()), P_at.get(m, ()))
            for m in Bi:
                js.update(Bv_at.get(m, ()), Pv_at.get(m, ()))
            for j in sorted(js):
                ij = B.get((i, j), {})
                # Jacobi: {e_i, {e_j, v}} = {e_j, {e_i, v}} + {{e_i, e_j}, v}
                jac = linear(ij, Bv.get, linear(Bvi, B_left.get(j, {}).get))
                # Leibniz: {e_i, e_j v} = e_j {e_i, v} + {e_i, e_j} v
                leib = linear(ij, Pv.get, linear(Bvi, P_left.get(j, {}).get))
                jac_rhs = linear(Bv.get(j, {}), Bi.get)
                leib_rhs = linear(Pv.get(j, {}), Bi.get)
                if jac != jac_rhs or leib != leib_rhs:
                    sides = [("Jacobi", jac, jac_rhs), ("Leibniz", leib, leib_rhs)]
                    _report_first_digit(i, j, t, dim, sides)

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
            # entries for the same (i, j, k) add up; the constructor's walk
            # checks the index of every entry, zero sums included, then drops them
            t = {}
            for i, j, k, c in rows:
                # a list index is no dict key, and a float or a bool no index
                if not (type(i) is int and type(j) is int and type(k) is int):
                    raise ValueError(f"{name} entry {(i, j, k)} has a non-int index")
                # each coefficient is read by ``_coefficient``, the library's
                # one reader: an int or an integer string as an int, any other
                # string as Fraction reads it; a float is already rounded, and
                # Fraction(True) is 1: refuse both rather than load an algebra
                # nobody wrote down; "1/0" names no number either
                try:
                    if type(c) is bool:
                        raise TypeError
                    exact = _coefficient(c)
                except (TypeError, ValueError):
                    raise ValueError(
                        f"{name} entry ({i}, {j}, {k}): coefficient {c!r} is"
                        " not an int or a decimal string"
                    ) from None
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
        try:
            data = json.load(fp)
        except RecursionError:
            raise ValueError("algebra file is nested too deeply to read") from None
        return cls.from_json_dict(data)


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

    def ranks(self):
        return [p.rank for p in self.pieces]


def span_closure(ech, maps, seeds):
    """Grow ``ech``, whose span is already closed under ``maps``, to the
    smallest subspace that contains its span and ``seeds`` and is closed
    under every linear map in ``maps``: a worklist that applies each map, in
    order, to every vector that raises the rank.  Returns ``ech``."""
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


def _seed_lists(alg, pair_map):
    """G_1, G_2, ... of the module docstring, without end: each list built
    from the generators, G_1 and the list below alone, with ``pair_map``
    taking a generator first, and cut to a linearly independent subset of
    itself.  Once a list is empty, every later one is."""
    # with the generators as G_0, G_1 is [x, G_0]
    gens = seeds = alg.generators()
    first = []
    while True:
        level = itertools.chain(
            (pair_map(x, g) for x in gens for g in seeds),
            (alg.mul(g1, g) for g1 in first for g in seeds),
        )
        ech = Echelon()
        seeds = [v for v in level if v and ech.add(v)]
        first = first or seeds
        yield seeds


def filtration_chain(alg, pair_map):
    """F_0, F_1, ... down to the stable value, for the antisymmetric
    ``pair_map`` on the ``FiniteAlgebra`` ``alg``: F_n is the ideal of the
    seed list G_n of the module docstring.

    F_0 is ``Echelon.identity``.  Without ``alg.degrees`` the pieces are
    closed top-down, each from its seeds alone under the products by the
    generators on both sides, until two ranks agree.  With it, every seed
    list is built first, and the pieces are closed from the deepest up,
    each from a copy of the piece below under the products by the
    generators on the left alone, which the module docstring shows exact
    for the commutator and for the bracket of a commutative product.  A
    seed list that has not run out by the top degree raises
    ``RuntimeError``: the declared degrees do not grade ``alg``.
    """
    pieces = [Echelon.identity(alg.dim)]
    lists = _seed_lists(alg, pair_map)
    if alg.degrees is None:
        while pieces[-1].rank:
            new = alg.ideal_close(next(lists))
            if new.rank == pieces[-1].rank:
                # descending chain: equal rank means equal span; stable from here
                break
            pieces.append(new)
        return FiltrationChain(pieces)
    top = max(alg.degrees)
    levels = []
    for n, seeds in enumerate(lists, 1):
        if not seeds:
            break
        if n >= top:  # the least degree in G_n is at least n + 1
            raise RuntimeError(
                f"seed list G_{n} is not empty, but the declared degrees end"
                f" at {top}: they do not grade the algebra"
            )
        levels.append(seeds)
    # F_n for n past the last list is 0; each piece above grows from a copy
    # of the one below, so the maps run only on rows that raise the rank,
    # and the products by the generators on the left close it: v x is
    # x v - [x, v], and [x, v] lies in the copy by (A).  The left side, as
    # a letter on the left of a PBW tuple straightens in a few swaps, where
    # one on the right crosses every larger factor
    maps = alg._left_maps()
    below = Echelon()
    deep = [below]
    for seeds in reversed(levels):
        below = span_closure(below.copy(), maps, seeds)
        deep.append(below)
    return FiltrationChain(pieces + deep[::-1])


def commutator_filtration(alg):
    """Iterate the commutator-filtration recursion to stabilization."""
    return filtration_chain(alg, alg.commutator)


def nil_poisson_filtration(alg):
    """The Poisson analogue, driven by the bracket table.  Its seeds need
    a commutative product: the first pair (i, j) with e_i e_j != e_j e_i
    raises ``ValueError``."""
    if alg.bracket is None:
        raise ValueError("nil-Poisson filtration needs a bracket")
    bad = _least_asymmetric(alg.product, 1)
    if bad is not None:
        raise ValueError(
            "nil-Poisson filtration needs a commutative product;"
            f" e_i e_j != e_j e_i at {bad}"
        )
    return filtration_chain(alg, alg.brk)


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
        ech = chain[n + 1].copy()
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
        return linear(vec, self._cols.__getitem__)

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
        inclusions.append(all(nxt.contains(D(row)) for row in chain[n].rows.values()))
    identity_on_top = all(not D(row) for row in chain[top].rows.values())

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
