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
    PoissonElement,
    PoissonMonomial,
    _monomial_product,
    poisson_bracket,
    star_product,
)
from .linalg import _require_ints, canonical, merge, product, quotient


class ParseError(ValueError):
    """Syntax or semantic error at a byte offset of the source string."""

    def __init__(self, message, position):
        super().__init__(f"{message} at offset {position}")
        self.message = message
        self.position = position


def _int(digits, at):
    """``int(digits)``, or a ParseError at ``at`` for a run of digits longer
    than the interpreter converts (``sys.get_int_max_str_digits``)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long", at) from None


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
                tokens.append(("gen", _int(src[i + 1 : j], i), i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# the deepest nesting of parentheses and brackets that parses
_MAX_NESTING = 200


class _Parser:
    """Recursive descent over term dicts.

    ``sum``, ``starprod``, ``prod`` and ``atom`` each return a fresh dict
    key -> stored coefficient, which its caller may modify: a key is a
    PoissonMonomial, or a word in tensor mode, and the product of two keys
    is the commutative product or the concatenation.  Elements are built
    only for the operations that need them ({,}, [,] and **) and for the
    result.
    """

    def __init__(self, src, n_gens, mode):
        self.n_gens = n_gens
        self.tensor = mode == "tensor"
        self.join = add if self.tensor else _monomial_product
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0  # parentheses and brackets open around the position

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value):
        kind, _, at = self.next()
        if kind != value:
            raise ParseError(f"expected {value!r}", at)

    # -- semantic helpers ---------------------------------------------------
    def bracket(self, a, b, kind, at):
        if self.tensor:
            if kind == "{":
                raise ParseError("Poisson bracket is not a tensor operation", at)
            return merge(product(a, b, add), product(b, a, add).items(), -1)
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
        """A product of signed operands.  Scalars, generators and (in poisson
        mode) Lyndon atoms fold into one coefficient and one factor list;
        only compound operands go through ``product``.  Concatenation does not
        commute, so in tensor mode the letters read so far are multiplied in
        before each compound operand."""
        tokens = self.tokens
        tensor = self.tensor
        coeff = 1
        factors = []
        out = None
        while True:
            kind, val, at = tokens[self.pos]
            self.pos += 1
            if kind == "-":
                coeff = -coeff
                continue
            if kind == "gen":
                if not 1 <= val <= self.n_gens:
                    raise ParseError(f"unknown generator x{val}", at)
                factors.append(val if tensor else generator(val))
            elif kind == "int":
                coeff *= self.rational(val, at)
            else:
                b = self.lyndon_atom(at) if kind == "(" else None
                if b is not None and not tensor:
                    factors.append(b)
                else:
                    if b is not None:
                        operand = dict(expand_to_tensor(b).terms)
                    else:
                        operand = self.atom(kind, at)
                    if tensor and factors:
                        run = {tuple(factors): 1}
                        out = run if out is None else product(out, run, add)
                        factors = []
                    out = operand if out is None else product(out, operand, self.join)
            if tokens[self.pos][0] != "*":
                break
            self.pos += 1
        if not coeff:
            return {}
        key = tuple(factors) if tensor else PoissonMonomial.of(factors)
        if out is None:
            return {key: canonical(coeff)}
        if factors:
            out = product(out, {key: 1}, self.join)
        if coeff != 1:
            out = {k: canonical(c * coeff) for k, c in out.items()}
        return out

    def rational(self, digits, at):
        """The integer ``digits``, or a fraction if a '/' follows it."""
        q = _int(digits, at)
        if self.tokens[self.pos][0] == "/":
            self.pos += 1
            k3, v3, at3 = self.next()
            if k3 != "int":
                raise ParseError("expected denominator", at3)
            den = _int(v3, at3)
            if not den:
                raise ParseError("zero denominator", at3)
            q = quotient(q, den)
        return q

    def lyndon_atom(self, at):
        """After the '(' at ``at``: the basis element of a parenthesized
        Lyndon word of at least two valid letters, its digits and ')'
        consumed, or None.  Its standard bracketing of L letters is built and
        expanded by recursion up to L - 1 levels deep, so those levels count
        against ``_MAX_NESTING``."""
        k2, v2, _ = self.tokens[self.pos]
        if (
            k2 == "int"
            and len(v2) >= 2
            and self.tokens[self.pos + 1][0] == ")"
            and all(1 <= int(c) <= self.n_gens for c in v2)
        ):
            word = tuple(map(int, v2))
            if is_lyndon(word):
                if self.depth + len(word) - 1 > _MAX_NESTING:
                    raise ParseError(
                        f"Lyndon atom of {len(word)} letters nests deeper than"
                        f" {_MAX_NESTING} levels",
                        at,
                    )
                self.pos += 2
                return LieBasisElement.from_word(word)
        return None

    def atom(self, kind, at):
        """A compound operand, its first token ``kind`` at ``at`` consumed:
        a parenthesized sum or a bracket.  Each level of nesting takes four
        Python frames, so levels past ``_MAX_NESTING`` are refused before
        the interpreter's recursion limit is reached."""
        if kind != "(" and kind != "{" and kind != "[":
            raise ParseError("expected an expression", at)
        if self.depth == _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels", at)
        self.depth += 1
        if kind == "(":
            out = self.sum()
            self.expect(")")
        else:
            a = self.sum()
            self.expect(",")
            b = self.sum()
            self.expect("}" if kind == "{" else "]")
            out = self.bracket(a, b, kind, at)
        self.depth -= 1
        return out


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
    generators, ValueError on an unknown mode or ``n_gens < 1``, and
    TypeError on a bool or non-int ``n_gens``.
    """
    if mode not in ("poisson", "tensor"):
        raise ValueError(f"unknown mode {mode!r}")
    _require_ints(n_gens=n_gens)
    if n_gens < 1:
        raise ValueError(f"need n_gens >= 1, got {n_gens}")
    return _Parser(src, n_gens, mode).parse()


# -- printing -----------------------------------------------------------------


def _format_terms(terms):
    """Signed sum of (coefficient, factor text) terms, the factors already
    joined by '*' and the unit's text empty: a coefficient 1 is left out
    before factors, and no terms print as 0."""
    out = []
    for c, factors in terms:
        text = str(c)
        if text[0] == "-":
            out.append(" - " if out else "-")
            text = text[1:]
        elif out:
            out.append(" + ")
        if factors:
            if text != "1":
                out.append(text + "*")
            out.append(factors)
        else:
            out.append(text)
    return "".join(out) or "0"


_sort_key = attrgetter("sort_key")


def _word_key(w):
    return len(w), w


def _forms(m):
    """(printed text, JSON factor list) of the monomial ``m``, built on its
    first print and kept in ``m.forms``."""
    forms = m.forms
    if forms is None:
        factors = m.factors
        forms = m.forms = (
            "*".join([b.text for b in factors]),
            [{"word": list(b.word)} for b in factors],
        )
    return forms


def format_poisson(p):
    """Canonical text form, e.g. ``x1*x2 + 1/2*(12)``."""
    terms = p.terms
    return _format_terms((terms[m], _forms(m)[0]) for m in sorted(terms, key=_sort_key))


def format_tensor(t):
    """Canonical text form with '*' as concatenation, e.g. ``x1*x2 - x2*x1``."""
    terms = t.terms
    return _format_terms(
        (terms[w], "*".join([f"x{i}" for i in w])) for w in sorted(terms, key=_word_key)
    )


# -- JSON forms ---------------------------------------------------------------


def poisson_to_json(p):
    """ElementJSON of a PoissonElement: ``{"kind": "poisson", "terms":
    [{"coeff": "p/q", "factors": [{"word": [...]}, ...]}, ...]}``, the terms
    in canonical order.

    Each term's ``"factors"`` list is its monomial's one shared list, built
    on the monomial's first print (``_forms``), so it is read-only: a caller
    that wants to change it must copy it.  The outer dict, the terms list
    and each term dict are fresh on every call.
    """
    terms = p.terms
    return {
        "kind": "poisson",
        "terms": [
            {"coeff": str(terms[m]), "factors": _forms(m)[1]}
            for m in sorted(terms, key=_sort_key)
        ],
    }


def _json_word(letters):
    """A JSON letter list as a word, refusing a bool or non-int letter with
    ``TypeError``: ``1.0`` and ``true`` equal the letter 1 but are not it."""
    word = tuple(letters)
    for i in word:
        _require_ints(letter=i)
    return word


def poisson_from_json(data):
    out = {}
    for term in data["terms"]:
        factors = tuple(
            LieBasisElement.from_word(_json_word(f["word"])) for f in term["factors"]
        )
        m = PoissonElement.monomial(PoissonMonomial.of(factors), term["coeff"])
        merge(out, m.terms.items())
    return PoissonElement._of(out)


# word -> its JSON list, shared by every tensor_to_json that prints the word
_WORD_LISTS = {}


def tensor_to_json(t):
    """ElementJSON of a TensorElement: ``{"kind": "tensor", "terms":
    [{"coeff": "p/q", "word": [...]}, ...]}``, the words in canonical order.

    Each ``"word"`` list is shared by every call that prints the same word
    (``_WORD_LISTS``), so it is read-only: copy it before changing it.
    """
    terms = t.terms
    out = []
    for w in sorted(terms, key=_word_key):
        word = _WORD_LISTS.get(w)
        if word is None:
            word = _WORD_LISTS[w] = list(w)
        out.append({"coeff": str(terms[w]), "word": word})
    return {"kind": "tensor", "terms": out}


def tensor_from_json(data):
    out = {}
    for term in data["terms"]:
        w = TensorElement.word(term["word"], term["coeff"])
        merge(out, w.terms.items())
    return TensorElement._of(out)
