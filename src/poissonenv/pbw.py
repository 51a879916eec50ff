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
itself.  The one inverse, ``e_inverse_pbw``, peels an int PBW vector over
one common integer scale from the top: it records the terms of maximal
factor count divided by the scale, multiplies the vector and the scale by
k!, subtracts the top terms' tables, which cancels them exactly, and
repeats on the strictly shorter rest.  ``e_inverse_word`` is that peel
applied to the straightened letters of the word, and the star product in
``freepoisson`` applies it to a product of two ``sym_table`` vectors over
the scale k1! k2!.

``symmetrize_factors`` computes e in the word basis straight from its
definition, the average over factor orders.  Together with
``e_inverse_word`` it is the word-space reference that the PBW-coordinate
star product is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial, gcd

from .freelie import (
    TensorElement,
    bracket_basis,
    expand_to_tensor,
    generator,
)
from .linalg import canonical, int_row, merge, quotient


_NORMAL_CACHE = {}


def normal_table(factors):
    """PBW normal form of a tuple of basis elements (memoized): the memo
    entry itself, which callers read and never modify, as ``sym_table``'s."""
    hit = _NORMAL_CACHE.get(factors)
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
            hit = dict(normal_table(swapped))
            for b, c in bracket_basis(factors[i], factors[i + 1]).terms.items():
                rest = normal_table(factors[:i] + (b,) + factors[i + 2 :])
                merge(hit, rest.items(), c)
        _NORMAL_CACHE[factors] = hit
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


def symmetrize_factors(factors):
    """e(l_1 ... l_k): average the concatenations over all factor orders."""
    factors = tuple(factors)
    k = len(factors)
    if k == 0:
        return TensorElement.one()
    mult = 1
    seen = {}
    for f in factors:
        seen[f] = seen.get(f, 0) + 1
    for m in seen.values():
        mult *= factorial(m)
    weight = canonical(Fraction(mult, factorial(k)))
    out = {}
    for perm in sorted(set(permutations(factors))):
        merge(out, pbw_to_tensor(perm).terms.items(), weight)
    return TensorElement._of(out)


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
                rest = sym_table(factors[:i] + factors[i + 1 :])
                for t, c in rest.items():
                    merge(hit, normal_table((f,) + t).items(), (j - i) * c)
                i = j
        _SYM_PBW_CACHE[factors] = hit
    return hit


def sym_pbw(factors):
    """e of a monomial, in any factor order, expressed in the PBW basis: a
    fresh dict factor-tuple -> coefficient, ``sym_table`` divided by k!."""
    factors = tuple(sorted(factors, key=lambda f: f.sort_key))
    k = factorial(len(factors))
    return {t: quotient(c, k) for t, c in sym_table(factors).items()}


def e_inverse_pbw(vec, scale=1):
    """e^{-1} of the PBW vector vec / scale, as a dict factor-tuple ->
    coefficient.

    ``vec`` maps nondecreasing factor tuples to coefficients and is not
    modified; ``scale`` is a positive int.  Triangular induction on the
    factor count: a PBW monomial t is the only term of its factor count in
    e(t), so the top part of the vector is its own e^{-1} there, and
    subtracting its symmetrization strictly lowers the maximal factor count.

    The peel runs on ints over one common scale.  A vector with Fraction
    values is first brought to the lcm of its denominators (``int_row``).
    At top factor count k, each top term c t is recorded as c / scale; the
    vector is then multiplied by k! and c ``sym_table(t)`` subtracted, which
    cancels the top terms exactly, and the scale is multiplied by k!.  The
    gcd of the vector's values and the scale is divided out of both.
    """
    current, den = int_row(vec)
    scale *= den
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
