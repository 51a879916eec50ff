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

Capping.  ``normal_table`` takes an optional ``cap`` and then returns only
the terms of star degree <= cap (the sum of the factors' star degrees).
This is exact: a swap keeps a term's star degree and factor count, and a
bracket term has one factor fewer and star degree one more.  So star +
factor count, the letter count, is the same for every term of
``normal_table(t)`` and for every sub-table its straightening reads, and a
term has star degree <= cap exactly when it has at least letters(t) - cap
factors.  That least factor count is one bound for the whole recursion,
and the memo is keyed by (factors, least count).  Every term of a nonempty
t's table has a factor, so a least count <= 1 (a cap of at least
star(t) + len(t) - 1) keeps every term and is filed as 1: a cap that
cannot bite returns the full memo entry itself.  The uncapped call passes
the count 0, so the empty tuple's table is {(): 1}; a least count above
len(t), a cap below star(t), gives an empty dict.

``sym_word_table`` computes e in the word basis by the same first-factor
recursion, e(m) = (1/k) sum_f mult_f f e(m/f) with f expanded to words, so
it visits at most 2^k sub-multisets of m instead of k! factor orders, and
memoizes it read-only as ``normal_table`` does; ``symmetrize_factors`` is
the public form, takes the factors in any order and returns a fresh copy.
Together with ``e_inverse_word`` it is the word-space reference that the
star product is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import factorial, gcd

from .freelie import (
    TensorElement,
    bracket_basis,
    expand_to_tensor,
    generator,
)
from .linalg import int_row, merge, quotient


_NORMAL_CACHE = {}


def normal_table(factors, cap=None):
    """PBW normal form of a tuple of basis elements (memoized): the memo
    entry itself, which callers read and never modify, as ``sym_table``'s.

    With ``cap``, only the terms of star degree <= cap (see the module
    docstring); a cap that cannot bite returns the full entry."""
    return _normal(factors, 0 if cap is None else sum(map(len, factors)) - cap)


def _first_factors(factors):
    """Each distinct factor f of a nondecreasing tuple, with its
    multiplicity and the tuple less one f."""
    i = 0
    for f, group in groupby(factors):
        mult = sum(1 for _ in group)
        yield f, mult, factors[:i] + factors[i + 1 :]
        i += mult


def _normal(factors, least):
    """``normal_table`` of ``factors`` keeping only its terms of at least
    ``least`` factors, memoized by (factors, least) with every least <= 1
    filed as 1, the full table.  The swapped tuple and each bracket tuple
    keep the bound."""
    if least > len(factors):
        return {}
    key = (factors, least if least > 1 else 1)
    hit = _NORMAL_CACHE.get(key)
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
        _NORMAL_CACHE[key] = hit
    return hit


def normal(factors):
    """PBW normal form of a concatenation product of basis elements, as a
    fresh dict mapping nondecreasing factor tuples to coefficients."""
    return dict(normal_table(tuple(factors)))


_SYM_WORD_CACHE = {}


def sym_word_table(factors):
    """e(l_1 ... l_k) of a nondecreasing tuple of basis elements in the word
    basis (memoized): the memo entry itself, a dict word -> coefficient that
    callers only read.

    The first-factor recursion of ``sym_table`` with each f expanded to
    words, e(m) = (1/k) sum_f mult_f f e(m/f), which is the average of the
    concatenations over all factor orders grouped by the first factor.
    """
    hit = _SYM_WORD_CACHE.get(factors)
    if hit is None:
        k = len(factors)
        hit = {} if k else {(): 1}
        for f, mult, rest in _first_factors(factors):
            rest = sym_word_table(rest).items()
            for u, a in expand_to_tensor(f).terms.items():
                merge(hit, [(u + w, c) for w, c in rest], Fraction(mult * a, k))
        _SYM_WORD_CACHE[factors] = hit
    return hit


def symmetrize_factors(factors):
    """e(l_1 ... l_k), the factors in any order, as a fresh TensorElement:
    ``sym_word_table`` copied."""
    factors = tuple(sorted(factors, key=lambda f: f.sort_key))
    return TensorElement._of(dict(sym_word_table(factors)))


_SYM_PBW_CACHE = {}


def sym_table(factors):
    """k! e(m) of the monomial m of a nondecreasing k-factor tuple, in PBW
    coordinates, as ints (memoized).

    The first-factor recursion e(m) = (1/k) sum_f f e(m/f) over the k factor
    positions, grouped by distinct factor f of multiplicity mult_f and
    multiplied by k!, reads

        k! e(m) = sum_f mult_f f ((k-1)! e(m/f)),

    and ``normal_table`` has integer coefficients, so every entry is an int.
    The recursion is the definitional average over all orders, grouped by
    which factor comes first.  The table is the memo entry itself: callers
    read it and never modify it.
    """
    hit = _SYM_PBW_CACHE.get(factors)
    if hit is None:
        hit = {} if factors else {(): 1}
        for f, mult, rest in _first_factors(factors):
            for t, c in sym_table(rest).items():
                merge(hit, normal_table((f,) + t).items(), mult * c)
        _SYM_PBW_CACHE[factors] = hit
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
