"""Poincare-Birkhoff-Witt machinery for the tensor algebra as U(LV).

The tensor algebra has a second useful basis besides words: concatenation
products l_1 l_2 ... l_k of Lyndon basis elements with nondecreasing
(word length, word) keys.  ``normal_table`` rewrites any product into that
basis by the straightening rule

    l_i l_j  =  l_j l_i + [l_i, l_j]        (when l_i > l_j)

where the bracket term has one factor fewer, so the rewriting terminates.
It returns its memo entry, which callers only read; ``normal`` is the
public form and returns a fresh copy.

Symmetrization e and its inverse live here too.  e of a k-factor monomial
in PBW coordinates is the sorted product plus terms with fewer factors, so e
is unitriangular with respect to the factor count.  Its 1/k! weights are
kept out of the arithmetic: ``sym_table`` memoizes k! e(m), whose entries
are all ints, and ``sym_pbw`` divides a copy by k! for callers that want e
itself.  The one inverse, ``e_inverse_pbw``, peels a PBW vector, brought
to ints over one common integer scale, from the top: it records the terms
of maximal factor count divided by the scale, multiplies the vector and the
scale by k!, subtracts the top terms' tables, which cancels them exactly,
and repeats on the strictly shorter rest.  ``e_inverse_word`` is that peel
applied to the straightened letters of the word.  The star product in
``freepoisson`` does not come through here: it multiplies in symmetric
coordinates directly.

Capping.  ``normal_table`` and ``sym_table`` take an optional ``cap`` and
then return only the terms of star degree <= cap (the sum of the factors'
star degrees).  This is exact:

* A swap keeps a term's star degree and its factor count.  A bracket term
  has one factor fewer and star degree one more, since the bracket of two
  Lie basis elements of star degrees a and b is a combination of basis
  elements of star degree a + b + 1.  So star + factor count, which is the
  letter count, is the same for every term of ``normal_table(t)``, and a
  term has star degree <= cap exactly when it has at least
  letters(t) - cap factors.  Each sub-table the straightening reads (the swapped tuple, each
  bracket tuple) has the same star + factor count, so it is read with the
  same least factor count: a capped table needs only capped sub-tables.
* e never lowers star degree and keeps the letter count: k! e(m) is a sum
  of straightened reorderings of m.  In the recursion
  k! e(m) = sum_f mult_f f ((k-1)! e(m/f)), a term of f t has at most
  len(t) + 1 factors, so (k-1)! e(m/f) is read with the least count less 1
  and f t straightened with that of m.

Carrying the least factor count, instead of the room cap - star, keeps one
bound for the whole recursion.  The no-bite rule: when star(t) +
len(t) - 1 <= cap, the least count is at most 1 and no term of a nonempty
t's table passes the cap, so a capped call returns the full memo entry
itself, and the full path is the one with no cap.  Otherwise a capped
table is memoized by (factors, least count) in its own table, read-only
like the full one, and a cap below star(t) gives an empty dict.  One
recursion body serves both paths (``_normal``, ``_sym``).

``sym_word_table`` computes e in the word basis straight from its
definition, the average over factor orders, and memoizes it read-only as
``normal_table`` does; ``symmetrize_factors`` is the public form and returns
a fresh copy.  Together with ``e_inverse_word`` it is the word-space
reference that the star product is tested against.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, gcd, prod

from .freelie import (
    TensorElement,
    bracket_basis,
    expand_to_tensor,
    generator,
)
from .linalg import int_row, merge, quotient


_NORMAL_CACHE = {}
_NORMAL_CAP_CACHE = {}


def _least(factors, cap):
    """The least factor count of a term of star degree <= cap in the table
    of ``factors``: its letter count less the cap (a basis element is the
    tuple of its word's letters)."""
    return sum(map(len, factors)) - cap


def normal_table(factors, cap=None):
    """PBW normal form of a tuple of basis elements (memoized): the memo
    entry itself, which callers read and never modify, as ``sym_table``'s.

    With ``cap``, only the terms of star degree <= cap (see the module
    docstring); a cap that cannot bite returns the full entry."""
    if cap is None:
        hit = _NORMAL_CACHE.get(factors)
        return hit if hit is not None else _normal(factors, 0)
    least = _least(factors, cap)
    return _normal(factors, least) if least <= len(factors) else {}


def _normal(factors, least):
    """``normal_table`` of a nonempty ``factors`` (or of () at least <= 0)
    keeping only its terms of at least ``least`` factors; least <= 1 keeps
    every term.  The swapped tuple and each bracket tuple keep the bound."""
    if least <= 1:
        cache, key = _NORMAL_CACHE, factors
    elif least > len(factors):
        return {}
    else:
        cache, key = _NORMAL_CAP_CACHE, (factors, least)
    hit = cache.get(key)
    if hit is None:
        swap_at = None
        for i in range(len(factors) - 1):
            if factors[i].sort_key > factors[i + 1].sort_key:
                swap_at = i
                break
        if swap_at is None:
            hit = {factors: 1}
        else:
            i = swap_at
            swapped = factors[:i] + (factors[i + 1], factors[i]) + factors[i + 2 :]
            hit = dict(_normal(swapped, least))
            for b, c in bracket_basis(factors[i], factors[i + 1]).terms.items():
                rest = _normal(factors[:i] + (b,) + factors[i + 2 :], least)
                merge(hit, rest.items(), c)
        cache[key] = hit
    return hit


def normal(factors):
    """PBW normal form of a concatenation product of basis elements, as a
    fresh dict mapping nondecreasing factor tuples to coefficients."""
    return dict(normal_table(tuple(factors)))


def pbw_to_tensor(factors):
    out = TensorElement.one()
    for f in factors:
        out = out * expand_to_tensor(f)
    return out


_SYM_WORD_CACHE = {}


def sym_word_table(factors):
    """e(l_1 ... l_k) of a tuple of basis elements in the word basis, the
    average of the concatenations over all factor orders (memoized): the
    memo entry itself, a dict word -> coefficient that callers only read."""
    hit = _SYM_WORD_CACHE.get(factors)
    if hit is None:
        # each distinct order stands for prod(mult_f!) of the k! orders
        mult = prod(map(factorial, Counter(factors).values()))
        weight = Fraction(mult, factorial(len(factors)))
        hit = {}
        for perm in sorted(set(permutations(factors))):
            merge(hit, pbw_to_tensor(perm).terms.items(), weight)
        _SYM_WORD_CACHE[factors] = hit
    return hit


def symmetrize_factors(factors):
    """e(l_1 ... l_k) as a fresh TensorElement: ``sym_word_table`` copied."""
    return TensorElement._of(dict(sym_word_table(tuple(factors))))


_SYM_PBW_CACHE = {}
_SYM_CAP_CACHE = {}


def sym_table(factors, cap=None):
    """k! e(m) of the monomial m of a nondecreasing k-factor tuple, in PBW
    coordinates, as ints (memoized).

    The first-factor recursion e(m) = (1/k) sum_f f e(m/f) over the k factor
    positions, grouped by distinct factor f of multiplicity mult_f and
    multiplied by k!, reads

        k! e(m) = sum_f mult_f f ((k-1)! e(m/f)),

    and ``normal_table`` has integer coefficients, so every entry is an int.
    The recursion is the definitional average over all orders, grouped by
    which factor comes first.  The table is the memo entry itself: callers
    read it and never modify it.  With ``cap``, only the terms of star
    degree <= cap; a cap that cannot bite returns the full entry.
    """
    if cap is None:
        hit = _SYM_PBW_CACHE.get(factors)
        return hit if hit is not None else _sym(factors, 0)
    least = _least(factors, cap)
    return _sym(factors, least) if least <= len(factors) else {}


def _sym(factors, least):
    """``sym_table`` of ``factors`` keeping only its terms of at least
    ``least`` factors, under the same bound as ``_normal``.

    A term f t of the recursion has at most len(t) + 1 factors, so m/f is
    read with the bound less 1, and f t is straightened with the bound of m.
    """
    if least <= 1:
        cache, key = _SYM_PBW_CACHE, factors
    elif least > len(factors):
        return {}
    else:
        cache, key = _SYM_CAP_CACHE, (factors, least)
    hit = cache.get(key)
    if hit is None:
        k = len(factors)
        if k == 0:
            hit = {(): 1}
        else:
            hit = {}
            i = 0
            while i < k:
                f = factors[i]
                j = i
                while j < k and factors[j] == f:
                    j += 1
                rest = _sym(factors[:i] + factors[i + 1 :], least - 1)
                for t, c in rest.items():
                    merge(hit, _normal((f,) + t, least).items(), (j - i) * c)
                i = j
        cache[key] = hit
    return hit


def sym_pbw(factors):
    """e of a monomial, in any factor order, expressed in the PBW basis: a
    fresh dict factor-tuple -> coefficient, ``sym_table`` divided by k!."""
    factors = tuple(sorted(factors, key=lambda f: f.sort_key))
    k = factorial(len(factors))
    return {t: quotient(c, k) for t, c in sym_table(factors).items()}


def e_inverse_pbw(vec):
    """e^{-1} of the PBW vector ``vec``, as a dict factor-tuple ->
    coefficient.

    ``vec`` maps nondecreasing factor tuples to coefficients and is not
    modified.  Triangular induction on the factor count: a PBW monomial t
    is the only term of its factor count in e(t), so the top part of the
    vector is its own e^{-1} there, and subtracting its symmetrization
    strictly lowers the maximal factor count.

    The peel runs on ints over one common scale, which starts as the lcm of
    the vector's denominators (``int_row``).  At top factor count k, each
    top term c t is recorded as c / scale; the vector is then multiplied by
    k! and c ``sym_table(t)`` subtracted, which cancels the top terms
    exactly, and the scale is multiplied by k!.  The gcd of the vector's
    values and the scale is divided out of both.
    """
    current, scale = int_row(vec)
    result = {}
    guard = max(map(len, current), default=0) + 1
    while current:
        guard -= 1
        if guard < 0:  # pragma: no cover - triangularity violated
            raise RuntimeError("e_inverse failed to terminate")
        top_count = max(map(len, current))
        top = [(t, c) for t, c in current.items() if len(t) == top_count]
        for t, c in top:  # earlier rounds only recorded longer tuples
            result[t] = quotient(c, scale)
        k = factorial(top_count)
        if k != 1:
            current = {t: c * k for t, c in current.items()}
            scale *= k
        for t, c in top:
            merge(current, sym_table(t).items(), -c)
        if any(len(t) >= top_count for t in current):  # pragma: no cover
            raise RuntimeError("symmetrization is not unitriangular")
        g = gcd(scale, *current.values())
        if g != 1:
            current = {t: c // g for t, c in current.items()}
            scale //= g
    return result


_EINV_WORD_CACHE = {}


def e_inverse_word(word):
    """e^{-1} of a single word, as a dict factor-tuple -> coefficient
    (memoized): the peel ``e_inverse_pbw`` of the word's PBW normal form."""
    word = tuple(word)
    hit = _EINV_WORD_CACHE.get(word)
    if hit is None:
        hit = e_inverse_pbw(normal_table(tuple(generator(i) for i in word)))
        _EINV_WORD_CACHE[word] = hit
    return dict(hit)
