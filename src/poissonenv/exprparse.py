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
from operator import add, attrgetter

from .freelie import (
    LieBasisElement,
    LieElement,
    TensorElement,
    expand_to_tensor,
    generator,
    is_lyndon,
    lie_bracket,
)
from .freepoisson import (
    MONOMIAL_ONE,
    PoissonElement,
    PoissonMonomial,
    poisson_bracket,
    star_product,
)
from .linalg import canonical, merge, quotient


class ParseError(ValueError):
    """Syntax or semantic error at a byte offset of the source string."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position


def _tokenize(src):
    tokens = []  # (kind, value, offset); an operator's kind is its text
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c in "+-*{}[](),/":
            if c == "*" and src.startswith("*", i + 1):
                c = "**"
            tokens.append((c, c, i))
            i += len(c)
        elif c.isspace():
            i += 1
        # decimal digits only: int() refuses other digits, such as '²'
        elif c.isdecimal() or c == "x":
            j = i + 1
            while j < n and src[j].isdecimal():
                j += 1
            if c != "x":
                tokens.append(("int", src[i:j], i))
            elif j == i + 1:
                raise ParseError("generator needs an index", i)
            else:
                tokens.append(("gen", int(src[i + 1 : j]), i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


def _monomial_product(m1, m2):
    return PoissonMonomial.of(m1.factors + m2.factors)


class _Parser:
    """Recursive descent over term dicts.

    Every grammar method returns a fresh dict key -> stored coefficient,
    which its caller may modify: a key is a PoissonMonomial, or a word in
    tensor mode, and the product of two keys is the commutative product or
    the concatenation.  Elements are built only for the operations that
    need them ({,}, [,] and **) and for the result.
    """

    def __init__(self, src, n_gens, mode):
        self.n_gens = n_gens
        self.tensor = mode == "tensor"
        self.unit = () if self.tensor else MONOMIAL_ONE
        self.join = add if self.tensor else _monomial_product
        self.tokens = _tokenize(src)
        self.pos = 0

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, _, at = self.next()
        if kind != value:
            raise ParseError(f"expected {value!r}", at)

    # -- semantic helpers ---------------------------------------------------
    def mul(self, a, b):
        join = self.join
        if len(a) == 1 and len(b) == 1:
            ((k1, c1),) = a.items()
            ((k2, c2),) = b.items()
            return {join(k1, k2): canonical(c1 * c2)}
        out = {}
        for k1, c1 in a.items():
            merge(out, [(join(k1, k2), c2) for k2, c2 in b.items()], c1)
        return out

    def bracket(self, a, b, kind, at):
        if self.tensor:
            if kind == "{":
                raise ParseError("Poisson bracket is not a tensor operation", at)
            return merge(self.mul(a, b), self.mul(b, a).items(), -1)
        if kind == "{":
            return poisson_bracket(PoissonElement._of(a), PoissonElement._of(b)).terms
        la = _as_lie(a)
        lb = _as_lie(b)
        if la is None or lb is None:
            raise ParseError("Lie bracket needs Lie-algebra operands", at)
        return PoissonElement.from_lie(lie_bracket(la, lb)).terms

    # -- grammar ------------------------------------------------------------
    def parse(self):
        out = self.sum()
        kind, _, at = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("trailing input", at)
        return (TensorElement if self.tensor else PoissonElement)._of(out)

    def sum(self):
        out = self.starprod()
        while True:
            kind = self.tokens[self.pos][0]
            if kind != "+" and kind != "-":
                return out
            self.pos += 1
            merge(out, self.starprod().items(), 1 if kind == "+" else -1)

    def starprod(self):
        out = self.prod()
        while True:
            kind, _, at = self.tokens[self.pos]
            if kind != "**":
                return out
            if self.tensor:
                raise ParseError("star product is not a tensor operation", at)
            self.pos += 1
            b = self.prod()
            out = star_product(PoissonElement._of(out), PoissonElement._of(b)).terms

    def prod(self):
        out = self.unary()
        while self.tokens[self.pos][0] == "*":
            self.pos += 1
            out = self.mul(out, self.unary())
        return out

    def unary(self):
        if self.tokens[self.pos][0] == "-":
            self.pos += 1
            return {k: -c for k, c in self.unary().items()}
        return self.atom()

    def atom(self):
        kind, val, at = self.next()
        if kind == "gen":
            if not 1 <= val <= self.n_gens:
                raise ParseError(f"unknown generator x{val}", at)
            if self.tensor:
                return {(val,): 1}
            return {PoissonMonomial.of((generator(val),)): 1}
        if kind == "int":
            q = int(val)
            if self.tokens[self.pos][0] == "/":
                self.pos += 1
                k3, v3, at3 = self.next()
                if k3 != "int":
                    raise ParseError("expected denominator", at3)
                den = int(v3)
                if not den:
                    raise ParseError("zero denominator", at3)
                q = quotient(q, den)
            return {self.unit: q} if q else {}
        if kind == "(":
            k2, v2, at2 = self.tokens[self.pos]
            if (
                k2 == "int"
                and len(v2) >= 2
                and self.tokens[self.pos + 1][0] == ")"
                and all(1 <= int(c) <= self.n_gens for c in v2)
            ):
                word = tuple(map(int, v2))
                if is_lyndon(word):
                    self.pos += 2
                    b = LieBasisElement.from_word(word)
                    if self.tensor:
                        return dict(expand_to_tensor(b).terms)
                    return {PoissonMonomial.of((b,)): 1}
            out = self.sum()
            self.expect(")")
            return out
        if kind == "{" or kind == "[":
            a = self.sum()
            self.expect(",")
            b = self.sum()
            self.expect("}" if kind == "{" else "]")
            return self.bracket(a, b, kind, at)
        raise ParseError("expected an expression", at)


def _as_lie(terms):
    """View a term dict of Poisson monomials as a LieElement if every term
    is a single Lie basis factor; None otherwise."""
    out = {}
    for m, c in terms.items():
        if m.sym_degree != 1:
            return None
        out[m.factors[0]] = c
    return LieElement(out)


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
    out = []
    for c, factors in terms:
        text = format_rational(c)
        if text[0] == "-":
            out.append(" - " if out else "-")
            text = text[1:]
        elif out:
            out.append(" + ")
        if factors:
            if text != "1":
                out.append(text + "*")
            out.append("*".join(factors))
        else:
            out.append(text)
    return "".join(out) or "0"


_sort_key = attrgetter("sort_key")


def format_poisson(p):
    """Canonical text form, e.g. ``x1*x2 + 1/2*(12)``."""
    terms = p.terms
    return _format_terms(
        (terms[m], [b.text for b in m.factors]) for m in sorted(terms, key=_sort_key)
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
    for m in sorted(p.terms, key=_sort_key):
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
