"""The tensor side checked against sympy's noncommutative algebra.

sympy multiplies noncommutative symbols and expands products with its own
arithmetic, so it is an oracle independent of ``TensorElement``, the PBW
rewriting and the Lyndon bracketing of this library.  The standard
bracketing of a Lyndon word is recomputed here from its definition.
"""

import itertools
import random
from math import factorial

import pytest

from poissonenv import pbw
from poissonenv.freelie import TensorElement, expand_to_tensor, lyndon_basis_of_length

sympy = pytest.importorskip("sympy")

_X = {i: sympy.Symbol(f"x{i}", commutative=False) for i in range(1, 4)}


def _is_lyndon(w):
    return all(w < w[i:] for i in range(1, len(w)))


def _bracketing(w):
    """Standard bracketing: w = uv with v the longest proper Lyndon suffix."""
    if len(w) == 1:
        return w[0]
    i = next(i for i in range(1, len(w)) if _is_lyndon(w[i:]))
    return (_bracketing(w[:i]), _bracketing(w[i:]))


def _commutator(tree):
    if isinstance(tree, int):
        return _X[tree]
    a, b = _commutator(tree[0]), _commutator(tree[1])
    return a * b - b * a


def _word(w):
    return sympy.Mul(*(_X[i] for i in w))


def _to_sympy(t):
    """A TensorElement as a sympy expression, coefficient by coefficient."""
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * _word(w) for w, c in t.terms.items())
    )


def _equal(t, expr):
    return sympy.expand(_to_sympy(t) - expr) == 0


def _basis(n_gens, max_len):
    return [b for n in range(1, max_len + 1) for b in lyndon_basis_of_length(n_gens, n)]


@pytest.mark.parametrize("n_gens", [2, 3])
def test_lyndon_expansion_matches_sympy_commutators(n_gens):
    basis = _basis(n_gens, 4)
    assert all(_is_lyndon(b.word) for b in basis)
    for b in basis:
        assert _equal(expand_to_tensor(b), sympy.expand(_commutator(_bracketing(b.word)))), b


def _random_factors(rng, n_gens):
    pool = _basis(n_gens, 3)
    out = []
    while len(out) < 4:
        f = rng.choice(pool)
        if sum(len(g.word) for g in out) + len(f.word) > 6:
            break
        out.append(f)
    return tuple(out)


def pbw_to_tensor(factors):
    """The concatenation product of the factors' word expansions."""
    out = TensorElement.one()
    for f in factors:
        out = out * expand_to_tensor(f)
    return out


def _product(factors):
    return sympy.Mul(*(_commutator(_bracketing(f.word)) for f in factors))


@pytest.mark.parametrize("n_gens", [2, 3])
def test_pbw_normal_form_matches_sympy_product(n_gens):
    rng = random.Random(n_gens)
    for _ in range(25):
        factors = _random_factors(rng, n_gens)
        nf = pbw.normal(factors)
        assert all(
            all(a.sort_key <= b.sort_key for a, b in zip(t, t[1:])) for t in nf
        ), factors
        total = sympy.Add(
            *(
                sympy.Rational(c.numerator, c.denominator) * _to_sympy(pbw_to_tensor(t))
                for t, c in nf.items()
            )
        )
        assert sympy.expand(total - _product(factors)) == 0, factors


@pytest.mark.parametrize("n_gens", [2, 3])
def test_symmetrize_factors_matches_sympy_average(n_gens):
    rng = random.Random(10 + n_gens)
    cases = [_random_factors(rng, n_gens) for _ in range(15)]
    g1 = lyndon_basis_of_length(n_gens, 1)[0]
    cases += [(g1, g1, g1), (g1,)]
    for factors in cases:
        orders = list(itertools.permutations(factors))
        average = sympy.Add(*(_product(p) for p in orders)) / factorial(len(factors))
        assert _equal(pbw.symmetrize_factors(factors), average), factors
