"""Interned monomials and the memo tables behind them.

``PoissonMonomial.of`` hands out one shared instance per multiset of
factors, as ``LieBasisElement.from_word`` does per word.  Identity is only a
shortcut: equality and hashing stay by factors, so results must not change
when the tables are emptied and the instances are built again.
"""

import importlib
import itertools as it
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poissonenv
from poissonenv import acceptance, freelie, freepoisson, pbw
from poissonenv.exprparse import (
    format_poisson,
    parse,
    poisson_from_json,
    poisson_to_json,
    tensor_from_json,
)
from poissonenv.freelie import TensorElement
from poissonenv.freelie import lyndon_basis_of_length
from poissonenv.freepoisson import (
    PoissonElement,
    PoissonMonomial,
    e_inverse,
    monomials_star_total,
    multiply,
    poisson_bracket,
    star_product,
)
from poissonenv.quantize import QuantizedAlgebra, nc_embed

_FACTORS = [b for length in range(1, 4) for b in lyndon_basis_of_length(3, length)]
_factor_tuples = st.lists(st.sampled_from(_FACTORS), max_size=5).map(tuple)


def _sorted(factors):
    return tuple(sorted(factors, key=lambda f: f.sort_key))


@settings(deadline=None, max_examples=40)
@given(_factor_tuples)
def test_every_permutation_gives_the_same_sorted_monomial(factors):
    m = PoissonMonomial.of(factors)
    assert m.factors == _sorted(factors)
    for perm in it.permutations(factors):
        assert PoissonMonomial.of(perm) is m
    assert PoissonMonomial.of(_sorted(factors)) is m


@settings(deadline=None, max_examples=40)
@given(_factor_tuples)
def test_any_iterable_gives_the_same_monomial(factors):
    m = PoissonMonomial.of(factors)
    assert PoissonMonomial.of(list(factors)) is m
    assert PoissonMonomial.of(reversed(factors)) is m
    assert PoissonMonomial.of(f for f in factors) is m


@settings(deadline=None, max_examples=40)
@given(_factor_tuples)
def test_direct_construction_equals_the_interned_monomial(factors):
    shared = PoissonMonomial.of(factors)
    direct = PoissonMonomial(_sorted(factors))
    assert direct is not shared
    assert direct == shared and shared == direct
    assert hash(direct) == hash(shared)
    assert {shared: "entry"}[direct] == "entry"
    assert (direct.sort_key, direct.star_degree, direct.total_degree) == (
        shared.sort_key,
        shared.star_degree,
        shared.total_degree,
    )


_POOL = [
    m for total in range(1, 4) for q in range(total) for m in monomials_star_total(2, q, total)
]


@st.composite
def _elements(draw):
    monos = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3, unique=True))
    return PoissonElement({m: draw(st.integers(-3, 3).filter(bool)) for m in monos})


@settings(deadline=None, max_examples=40)
@given(_elements(), _elements())
def test_products_survive_emptying_the_intern_tables(a, b):
    ops = (multiply, poisson_bracket, star_product)
    before = [op(a, b) for op in ops]
    freepoisson._MONOMIALS.clear()
    freelie._ELEMENT_CACHE.clear()
    # the old instances against the memo tables, and fresh ones built anew
    fresh_a, fresh_b = (poisson_from_json(poisson_to_json(x)) for x in (a, b))
    assert fresh_a == a and fresh_b == b
    for op, want in zip(ops, before):
        for x, y in ((a, b), (fresh_a, fresh_b)):
            got = op(x, y)
            assert got == want
            assert format_poisson(got) == format_poisson(want)


def test_basis_elements_are_values_across_clear_caches():
    w = (1, 1, 2)
    before = freelie.LieBasisElement.from_word(w)
    x1 = freelie.generator(1)
    t = (x1, before)
    memo = {t: "entry"}
    poissonenv.clear_caches()
    after = freelie.LieBasisElement.from_word(w)
    assert after is not before
    assert after == before and not after != before
    assert hash(before) == hash(after) == hash(w)
    assert memo[(freelie.generator(1), after)] == "entry"
    # never equal to the plain word, from either side
    assert before != w and w != before
    assert not before == w and not w == before
    assert {w: "word", before: "element"}[after] == "element"

    backward = (after, freelie.generator(1))
    table = pbw.normal_table(backward)
    assert pbw.normal_table(backward) is table
    fresh = pbw.normal(backward)
    assert fresh == table and fresh is not table
    assert pbw.normal(list(backward)) is not fresh


def _module_dicts():
    """Every module-level dict of the package and of each of its modules,
    by qualified name: the memo tables, found rather than listed."""
    modules = [poissonenv] + [
        importlib.import_module(f"poissonenv.{info.name}")
        for info in pkgutil.iter_modules(poissonenv.__path__)
    ]
    return {
        f"{mod.__name__}.{name}": value
        for mod in modules
        for name, value in vars(mod).items()
        if isinstance(value, dict) and not name.startswith("__")
    }


def test_every_module_level_dict_is_a_registered_memo_table():
    registered = {id(table) for table in poissonenv._MEMO_TABLES}
    tables = _module_dicts()
    assert tables
    assert [name for name, t in tables.items() if id(t) not in registered] == []


def test_clear_caches_empties_every_table_between_checks():
    found = _module_dicts()
    tables = list(found.values())
    checks = dict(acceptance.ALL_CHECKS)
    for name in ("06-star-associativity", "09-local-model-bracket", "15-star-ideal-topology"):
        passed, detail = checks[name]()
        assert passed, f"{name}: {detail}"
        assert any(tables)
        poissonenv.clear_caches()
        assert not any(tables)
        # emptied in place: the modules still hold the very same dicts
        assert all(_module_dicts()[key] is t for key, t in found.items())


def _refuse_then_print_x1(call):
    """``call`` on emptied tables raises TypeError, and the letter x1 built
    afterwards still prints as x1: the refused letter was not interned."""
    poissonenv.clear_caches()
    with pytest.raises(TypeError):
        call()
    assert format_poisson(parse("x1*x2 + (12)", 2)) == "x1*x2 + (12)"
    assert repr(freelie.generator(1)) == "x1"


def _poisson_json(letter):
    factors = [{"word": [letter]}]
    return {"kind": "poisson", "terms": [{"coeff": "1", "factors": factors}]}


def _tensor_json(letter):
    return {"kind": "tensor", "terms": [{"coeff": "1", "word": [letter, 2]}]}


_REFUSED = {
    "nc_embed": lambda letter: nc_embed(QuantizedAlgebra(2, 1), (letter,)),
    "from_word": lambda letter: freelie.LieBasisElement.from_word((letter,)),
    "e_inverse": lambda letter: e_inverse(TensorElement.word((letter, 2))),
    "poisson_from_json": lambda letter: poisson_from_json(_poisson_json(letter)),
    "tensor_from_json": lambda letter: tensor_from_json(_tensor_json(letter)),
}


@pytest.mark.parametrize("letter", [1.0, True])
@pytest.mark.parametrize("name", sorted(_REFUSED))
def test_a_float_or_bool_letter_is_refused_before_it_is_interned(name, letter):
    # 1.0 and True hash and compare equal to 1: interned, they would be
    # filed under the word (1,) and print as x1.0 or xTrue from then on
    _refuse_then_print_x1(lambda: _REFUSED[name](letter))


def test_the_refusal_names_the_word():
    poissonenv.clear_caches()
    with pytest.raises(TypeError, match=r"^letters must be ints, got the word \(1\.0, 2\)$"):
        freelie.LieBasisElement.from_word((1.0, 2))
    with pytest.raises(TypeError, match=r"^letter must be an int, got True$"):
        nc_embed(QuantizedAlgebra(2, 1), (1, True))


@pytest.mark.parametrize("letter", [1.0, True, "1"])
def test_a_tensor_word_refuses_a_non_int_letter_whatever_is_cached(letter):
    # the int word built first: the refusal reads the letters, not a cache
    TensorElement.word((1, 2))
    message = rf"^letter must be an int, got {re.escape(repr(letter))}$"
    with pytest.raises(TypeError, match=message):
        TensorElement.word((letter, 2))
    with pytest.raises(TypeError, match=message):
        tensor_from_json(_tensor_json(letter))
