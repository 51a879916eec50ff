"""Surface syntax for Poisson and tensor expressions, plus printers and JSON.

Grammar (precedence from loosest to tightest):

    sum      :=  starprod (('+' | '-') starprod)*
    starprod :=  prod ('**' prod)*          star product (poisson mode only)
    prod     :=  unary ('*' unary)*         commutative / concatenation
    unary    :=  '-' unary | atom
    atom     :=  rational | generator | lyndon | '(' sum ')'
               | '{' sum ',' sum '}'        Poisson bracket (poisson mode)
               | '[' sum ',' sum ']'        Lie bracket / commutator

Generators are written x1..xn; rationals as p/q.  A parenthesized digit
string of length >= 2 whose digits are valid generators and form a Lyndon
word denotes the corresponding basis element, e.g. (112); a parenthesized
plain integer must be written without the parentheses.  In tensor mode '*'
is concatenation, '[a,b]' the commutator, and '{,}' and '**' are rejected.

Printing emits the same syntax; parse(print(x)) == x on canonical forms.
"""

from __future__ import annotations

from fractions import Fraction

from .freelie import (
    LieBasisElement,
    LieElement,
    TensorElement,
    expand_to_tensor,
    is_lyndon,
    lie_bracket,
)
from .freepoisson import (
    PoissonElement,
    PoissonMonomial,
    multiply,
    poisson_bracket,
    star_product,
)
from .linalg import merge


class ParseError(ValueError):
    """Syntax or semantic error at a byte offset of the source string."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position


def _tokenize(src):
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


class _Parser:
    def __init__(self, src, n_gens, mode):
        self.src = src
        self.n_gens = n_gens
        self.mode = mode
        self.tokens = _tokenize(src)
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

    # -- semantic helpers ---------------------------------------------------
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
        la = _as_lie(a)
        lb = _as_lie(b)
        if la is None or lb is None:
            raise ParseError("Lie bracket needs Lie-algebra operands", at)
        return PoissonElement.from_lie(lie_bracket(la, lb))

    # -- grammar ------------------------------------------------------------
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


def _as_lie(p):
    """View a PoissonElement as a LieElement if every term is a single
    Lie basis factor; None otherwise."""
    terms = {}
    for m, c in p.terms.items():
        if m.sym_degree != 1:
            return None
        terms[m.factors[0]] = c
    return LieElement(terms)


def parse(src, n_gens, mode="poisson"):
    """Parse ``src`` into a PoissonElement (or TensorElement in tensor mode).

    Raises ParseError (with a byte offset) on bad syntax or unknown
    generators, and ValueError on an unknown mode or ``n_gens < 1``.
    """
    if mode not in ("poisson", "tensor"):
        raise ValueError(f"unknown mode {mode!r}")
    if n_gens < 1:
        raise ValueError(f"need n_gens >= 1, got {n_gens}")
    return _Parser(src, n_gens, mode).parse()


# -- printing -----------------------------------------------------------------


def format_rational(q):
    if type(q) is int:
        return str(q)
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _format_terms(terms):
    """Signed sum of (coefficient, factor strings) terms: a coefficient 1 is
    left out before factors, and no terms print as 0."""
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


def format_poisson(p):
    """Canonical text form, e.g. ``x1*x2 + 1/2*(12)``."""
    return _format_terms(
        (p.terms[m], [repr(b) for b in m.factors])
        for m in sorted(p.terms, key=lambda m: m.sort_key)
    )


def format_tensor(t):
    """Canonical text form with '*' as concatenation, e.g. ``x1*x2 - x2*x1``."""
    return _format_terms(
        (t.terms[w], [f"x{i}" for i in w])
        for w in sorted(t.terms, key=lambda w: (len(w), w))
    )


# -- JSON forms ---------------------------------------------------------------


def poisson_to_json(p):
    terms = []
    for m in sorted(p.terms, key=lambda m: m.sort_key):
        terms.append(
            {
                "coeff": format_rational(p.terms[m]),
                "factors": [{"word": list(b.word)} for b in m.factors],
            }
        )
    return {"kind": "poisson", "terms": terms}


def poisson_from_json(data):
    out = {}
    for term in data["terms"]:
        factors = tuple(
            LieBasisElement.from_word(tuple(f["word"])) for f in term["factors"]
        )
        m = PoissonElement.monomial(PoissonMonomial.of(factors), term["coeff"])
        merge(out, m.terms.items())
    return PoissonElement._of(out)


def tensor_to_json(t):
    terms = []
    for w in sorted(t.terms, key=lambda w: (len(w), w)):
        terms.append({"coeff": format_rational(t.terms[w]), "word": list(w)})
    return {"kind": "tensor", "terms": terms}


def tensor_from_json(data):
    out = {}
    for term in data["terms"]:
        w = TensorElement.word(tuple(term["word"]), term["coeff"])
        merge(out, w.terms.items())
    return TensorElement._of(out)
