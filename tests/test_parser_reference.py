"""The term-dict parser and the printers against element-building references.

``exprparse._Parser`` works over term dicts and builds elements only for
{,}, [,], ** and the result; the printers read each basis element's stored
text.  The references below are the element-building parser and the
printers they replaced, kept as they were apart from their names (the
old coefficient printer ``format_rational`` among them); the
reference printers compute each factor's text from its word, as ``repr``
did.  The reference scanner still reads digits with ``str.isdigit``, so the
generated text stays ASCII.  On every input both parsers must give an equal
element, or a ``ParseError`` with an equal message and offset, and every
printer the same string or JSON structure.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from poissonenv.exprparse import (
    ParseError,
    format_poisson,
    format_tensor,
    parse,
    poisson_to_json,
    tensor_to_json,
)
from poissonenv.freelie import (
    LieBasisElement,
    LieElement,
    TensorElement,
    expand_to_tensor,
    is_lyndon,
    lie_bracket,
)
from poissonenv.freepoisson import (
    PoissonElement,
    PoissonMonomial,
    monomials_star_total,
    multiply,
    poisson_bracket,
    star_product,
)
from poissonenv.linalg import merge

# -- the element-building parser ----------------------------------------------


def _reference_tokenize(src):
    tokens = []  # (kind, value, position)
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if src.startswith("**", i):
            tokens.append(("op", "**", i))
            i += 2
            continue
        if c in "+-*{}[](),/":
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            tokens.append(("int", src[i:j], i))
            i = j
            continue
        if c == "x":
            j = i + 1
            while j < n and src[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("generator needs an index", i)
            tokens.append(("gen", int(src[i + 1 : j]), i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _reference_as_lie(p):
    terms = {}
    for m, c in p.terms.items():
        if m.sym_degree != 1:
            return None
        terms[m.factors[0]] = c
    return LieElement(terms)


class _ReferenceParser:
    def __init__(self, src, n_gens, mode):
        self.src = src
        self.n_gens = n_gens
        self.mode = mode
        self.tokens = _reference_tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, at = self.next()
        if kind != "op" or val != value:
            raise ParseError(f"expected {value!r}", at)

    def const(self, q):
        if self.mode == "tensor":
            return TensorElement({(): q})
        return PoissonElement.one(q)

    def gen_elt(self, i, at):
        if not 1 <= i <= self.n_gens:
            raise ParseError(f"unknown generator x{i}", at)
        if self.mode == "tensor":
            return TensorElement.word((i,))
        return PoissonElement.generator(i)

    def lyndon_elt(self, word, at):
        b = LieBasisElement.from_word(word)
        if self.mode == "tensor":
            return expand_to_tensor(b)
        return PoissonElement.from_lie(LieElement.basis(b))

    def mul_op(self, a, b):
        if self.mode == "tensor":
            return a * b
        return multiply(a, b)

    def bracket_op(self, a, b, kind, at):
        if self.mode == "tensor":
            if kind == "{":
                raise ParseError("Poisson bracket is not a tensor operation", at)
            return a * b - b * a
        if kind == "{":
            return poisson_bracket(a, b)
        la = _reference_as_lie(a)
        lb = _reference_as_lie(b)
        if la is None or lb is None:
            raise ParseError("Lie bracket needs Lie-algebra operands", at)
        return PoissonElement.from_lie(lie_bracket(la, lb))

    def parse(self):
        out = self.sum()
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError("trailing input", at)
        return out

    def sum(self):
        first = self.starprod()
        out = dict(first.terms)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                merge(out, self.starprod().terms.items(), 1 if val == "+" else -1)
            else:
                return first._of(out)

    def starprod(self):
        out = self.prod()
        while True:
            kind, val, at = self.peek()
            if kind == "op" and val == "**":
                if self.mode == "tensor":
                    raise ParseError("star product is not a tensor operation", at)
                self.next()
                out = star_product(out, self.prod())
            else:
                return out

    def prod(self):
        out = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = self.mul_op(out, self.unary())
            else:
                return out

    def unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return -self.unary()
        return self.atom()

    def atom(self):
        kind, val, at = self.next()
        if kind == "int":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, at3 = self.next()
                if k3 != "int":
                    raise ParseError("expected denominator", at3)
                den = int(v3)
                if not den:
                    raise ParseError("zero denominator", at3)
                return self.const(Fraction(num, den))
            return self.const(num)
        if kind == "gen":
            return self.gen_elt(val, at)
        if kind == "op" and val == "(":
            k2, v2, at2 = self.peek()
            if k2 == "int" and len(v2) >= 2:
                word = tuple(int(c) for c in v2)
                after = self.tokens[self.pos + 1]
                if (
                    all(1 <= c <= self.n_gens for c in word)
                    and is_lyndon(word)
                    and after[:2] == ("op", ")")
                ):
                    self.next()
                    self.next()
                    return self.lyndon_elt(word, at2)
            out = self.sum()
            self.expect(")")
            return out
        if kind == "op" and val in "{[":
            close = "}" if val == "{" else "]"
            a = self.sum()
            self.expect(",")
            b = self.sum()
            self.expect(close)
            return self.bracket_op(a, b, val, at)
        raise ParseError("expected an expression", at)


# -- the printers -------------------------------------------------------------


def format_rational(q):
    """The coefficient printer the library had before it printed stored
    coefficients with ``str``."""
    if type(q) is int:
        return str(q)
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _reference_factor_text(b):
    if len(b.word) == 1:
        return f"x{b.word[0]}"
    return "(" + "".join(str(i) for i in b.word) + ")"


def _reference_format_terms(terms):
    out = ""
    for c, factors in terms:
        mag = abs(c)
        if mag != 1 or not factors:
            factors = [format_rational(mag)] + factors
        body = "*".join(factors)
        if not out:
            out = body if c > 0 else "-" + body
        else:
            out += (" + " if c > 0 else " - ") + body
    return out or "0"


def _reference_format_poisson(p):
    return _reference_format_terms(
        (p.terms[m], [_reference_factor_text(b) for b in m.factors])
        for m in sorted(p.terms, key=lambda m: m.sort_key)
    )


def _reference_format_tensor(t):
    return _reference_format_terms(
        (t.terms[w], [f"x{i}" for i in w])
        for w in sorted(t.terms, key=lambda w: (len(w), w))
    )


def _reference_poisson_to_json(p):
    terms = []
    for m in sorted(p.terms, key=lambda m: m.sort_key):
        terms.append(
            {
                "coeff": format_rational(p.terms[m]),
                "factors": [{"word": list(b.word)} for b in m.factors],
            }
        )
    return {"kind": "poisson", "terms": terms}


def _reference_tensor_to_json(t):
    terms = []
    for w in sorted(t.terms, key=lambda w: (len(w), w)):
        terms.append({"coeff": format_rational(t.terms[w]), "word": list(w)})
    return {"kind": "tensor", "terms": terms}


# -- random text from the grammar ---------------------------------------------
# Each helper draws (text, bound), the bound a cap on the letters of any
# monomial of the value.  Products and brackets stay within 6 letters and a
# star product within 5, so that no case reaches the star product's cliff.
# The grammar is covered with few draws: a sum of at most two products, with
# at most one star product, and a product of at most two (negated) atoms.

_WORDS = ("1", "11", "12", "13", "21", "112", "122", "123", "132", "212")


def _leaf(draw):
    kind = draw(st.sampled_from(("int", "fraction", "generator", "generator", "word")))
    if kind == "int":
        return str(draw(st.integers(0, 12))), 0
    if kind == "fraction":
        return f"{draw(st.integers(0, 9))}/{draw(st.sampled_from((1, 2, 3, 4, 0)))}", 0
    if kind == "generator":
        return f"x{draw(st.sampled_from((1, 2, 1, 2, 3)))}", 1
    word = draw(st.sampled_from(_WORDS))
    return f"({word})", len(word)


def _atom(draw, depth, poisson):
    kinds = ("leaf", "leaf", "leaf", "paren", "lie") + (("poisson",) if poisson else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf" or depth >= 2:
        return _leaf(draw)
    a, ba = _sum(draw, depth + 1, poisson)
    if kind == "paren":
        return f"({a})", ba
    b, bb = _sum(draw, depth + 1, poisson)
    if ba + bb > 6:
        return f"({a})", ba
    opening, closing = ("{", "}") if kind == "poisson" else ("[", "]")
    return f"{opening}{a}, {b}{closing}", ba + bb


def _prod(draw, depth, poisson):
    text, bound = _atom(draw, depth, poisson)
    text = draw(st.sampled_from(("", "", "-", "--"))) + text
    if draw(st.booleans()):
        t, b = _atom(draw, depth, poisson)
        if bound + b <= 6:
            text, bound = f"{text}*{t}", bound + b
    return text, bound


def _sum(draw, depth, poisson):
    text, bound = _prod(draw, depth, poisson)
    if poisson and bound <= 3 and draw(st.booleans()):
        t, b = _prod(draw, depth, poisson)
        if bound + b <= 5:
            text, bound = f"{text} ** {t}", bound + b
    if draw(st.booleans()):
        t, b = _prod(draw, depth, poisson)
        text += draw(st.sampled_from((" + ", " - ", "+", "-"))) + t
        bound = max(bound, b)
    return text, bound


@st.composite
def _sources(draw):
    """(text, n_gens, mode): grammar text, sometimes with one character
    deleted or inserted.  No '*' is inserted, so an edit never makes a new
    star product.  Tensor text uses {,} and ** only in one case of ten,
    since either ends it in a ParseError."""
    n_gens = draw(st.sampled_from((2, 3)))
    mode = draw(st.sampled_from(("poisson", "tensor")))
    poisson = mode == "poisson" or draw(st.integers(0, 9)) == 0
    text, _ = _sum(draw, 0, poisson)
    edit = draw(st.sampled_from(("none", "none", "delete", "insert")))
    if edit != "none":
        at = draw(st.integers(0, len(text) - 1))
        if edit == "delete":
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + draw(st.sampled_from("+-/(){}[], x0123a")) + text[at:]
    return text, n_gens, mode


def _outcome(parser, src, n_gens, mode):
    try:
        return parser(src, n_gens, mode)
    except ParseError as err:
        return ("ParseError", err.message, err.position)


def _stored(c):
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(deadline=None, max_examples=200)
@given(_sources())
# integral products of fractions, which must be stored as ints
@example(("1/2*2", 2, "poisson"))
@example(("2*3/4*(12)*2/3 - -4/6*3", 2, "tensor"))
def test_parser_matches_the_element_building_parser(case):
    src, n_gens, mode = case
    got = _outcome(parse, src, n_gens, mode)
    want = _outcome(
        lambda s, n, m: _ReferenceParser(s, n, m).parse(), src, n_gens, mode
    )
    assert got == want, src
    if not isinstance(got, tuple):
        assert all(_stored(c) for c in got.terms.values()), src


# -- random elements for the printers -----------------------------------------

_COEFFS = (1, -1, 2, -3, 12, Fraction(1, 2), Fraction(-1, 2), Fraction(-7, 3))
_POOL = [m for t in (1, 2, 3, 4) for q in range(t) for m in monomials_star_total(3, q, t)]
_POOL.append(PoissonMonomial.of(()))


@st.composite
def _poisson_elements(draw):
    monos = draw(st.lists(st.sampled_from(_POOL), max_size=5, unique=True))
    return PoissonElement({m: draw(st.sampled_from(_COEFFS)) for m in monos})


@st.composite
def _tensor_elements(draw):
    words = draw(
        st.lists(
            st.lists(st.integers(1, 3), max_size=4).map(tuple), max_size=5, unique=True
        )
    )
    return TensorElement({w: draw(st.sampled_from(_COEFFS)) for w in words})


@settings(deadline=None, max_examples=200)
@given(_poisson_elements(), _tensor_elements())
@example(
    PoissonElement({_POOL[0]: Fraction(-7, 3), PoissonMonomial.of(()): Fraction(1, 2)}),
    TensorElement({(1, 2): Fraction(-1, 2), (): Fraction(1, 2)}),
)
def test_printers_match_the_reference_printers(p, t):
    assert format_poisson(p) == _reference_format_poisson(p)
    assert poisson_to_json(p) == _reference_poisson_to_json(p)
    assert format_tensor(t) == _reference_format_tensor(t)
    assert tensor_to_json(t) == _reference_tensor_to_json(t)
    lie = LieElement({m.factors[0]: c for m, c in p.terms.items() if m.sym_degree == 1})
    assert repr(lie) == _reference_format_terms(
        (lie.terms[b], [_reference_factor_text(b)])
        for b in sorted(lie.terms, key=lambda b: b.sort_key)
    )
