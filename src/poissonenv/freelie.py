"""Free Lie algebra on generators x1..xn inside the tensor algebra.

Words are tuples of 1-based generator indices.  The Lie algebra basis is the
set of Lyndon words, each carrying its standard (right) factorization as a
bracketing.  The grading is shifted: a basis element of word length k has
star degree k - 1, so the generators themselves sit in degree 0 and the
bracket adds degrees plus one.

Brackets of basis elements are rewritten in the Lyndon basis by the
classical recursion on standard factorizations (Reutenauer, *Free Lie
Algebras*, 1993, ch. 4-5), which never leaves the basis.  The tensor algebra
gives the independent reference: ``rewrite_in_basis`` expands into words and
solves an exact linear system against the expanded Lyndon basis of the
matching word length.

Basis elements are interned by word and are tuples of their letters, so a
tuple of them hashes in C; equality stays by value.
"""

from __future__ import annotations

from itertools import product as cartesian
from operator import add

from .linalg import (
    Combination,
    Echelon,
    SpanSolver,
    _require_ints,
    bilinear,
    linear,
    product,
)


def is_lyndon(word):
    """True if ``word`` is strictly smaller than all its proper rotations."""
    n = len(word)
    if n == 0:
        return False
    for i in range(1, n):
        if word[i:] + word[:i] <= word:
            return False
    return True


def _standard_factorization(word):
    # w = uv with v the longest proper Lyndon suffix; u is then Lyndon too.
    for i in range(1, len(word)):
        if is_lyndon(word[i:]):
            return word[:i], word[i:]
    raise ValueError(f"{word} has no standard factorization")


class LieBasisElement(tuple):
    """A Lyndon word together with its standard bracketing.

    The element is the tuple of its word's letters, so it hashes in C, to
    ``hash(word)``.  Equality is by value and type-strict: an element never
    equals its plain word tuple, which ``word`` holds.  ``left`` and
    ``right`` are the basis elements of the standard factorization (both
    None for a letter).  ``bracketing`` is the same tree as nested words: a
    bare int for a letter, or a pair ``(left, right)`` of sub-bracketings.
    ``text`` is the printed form, ``x1`` or ``(112)``, which ``repr``
    returns.  Instances are immutable by convention and interned by word.
    """

    __hash__ = tuple.__hash__

    def __new__(cls, word, left=None, right=None):
        self = tuple.__new__(cls, word)
        self.word = word
        self.left = left
        self.right = right
        if left is None:
            self.bracketing = word[0]
        else:
            self.bracketing = (left.bracketing, right.bracketing)
        self.star_degree = len(word) - 1
        self.sort_key = (len(word), word)
        if len(word) == 1:
            self.text = f"x{word[0]}"
        else:
            self.text = "(" + "".join(map(str, word)) + ")"
        return self

    @classmethod
    def from_word(cls, word):
        """The shared element of a Lyndon word of int letters.  A float or
        bool letter is refused with ``TypeError`` before interning: it hashes
        and compares equal to its int, so the element built from it would be
        the one every later lookup of the int word returns, printed as
        ``x1.0`` or ``xTrue``.  The check runs on a cache miss only, so it
        guarantees that no such letter is interned, not that every call
        raises: once the int word is interned, a float or bool word equal
        to it returns that element."""
        word = tuple(word)
        elt = _ELEMENT_CACHE.get(word)
        if elt is None:
            for i in word:
                if type(i) is not int:
                    raise TypeError(f"letters must be ints, got the word {word!r}")
            if not is_lyndon(word):
                raise ValueError(f"{word} is not a Lyndon word")
            if len(word) == 1:
                elt = cls(word)
            else:
                u, v = _standard_factorization(word)
                elt = cls(word, cls.from_word(u), cls.from_word(v))
            _ELEMENT_CACHE[word] = elt
        return elt

    def __eq__(self, other):
        return type(other) is LieBasisElement and tuple.__eq__(self, other)

    def __ne__(self, other):  # tuple.__ne__ would match the plain word
        return not self == other

    def __repr__(self):
        return self.text


_ELEMENT_CACHE = {}


def generator(i):
    """The basis element for the single letter x_i."""
    return LieBasisElement.from_word((i,))


class TensorElement(Combination):
    """Exact rational combination of noncommutative words (element of TV).

    The empty word is the unit.  ``*`` is the concatenation product.
    """

    __slots__ = ()

    @classmethod
    def word(cls, w, coeff=1):
        return cls({tuple(w): coeff})

    @classmethod
    def one(cls):
        return cls({(): 1})

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __mul__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return TensorElement._of(product(self.terms, other.terms, add))

    def word_lengths(self):
        return sorted({len(w) for w in self.terms})

    def length_component(self, length):
        return TensorElement._of(
            {w: c for w, c in self.terms.items() if len(w) == length}
        )

    def __repr__(self):
        from .exprparse import format_tensor

        return format_tensor(self)


class LieElement(Combination):
    """Exact rational combination of Lyndon basis elements."""

    __slots__ = ()

    @classmethod
    def basis(cls, elt, coeff=1):
        return cls({elt: coeff})

    def __repr__(self):
        from .exprparse import _format_terms

        return _format_terms(
            (self.terms[b], b.text)
            for b in sorted(self.terms, key=lambda b: b.sort_key)
        )


def lyndon_words(n_gens, max_len):
    """All Lyndon words over 1..n_gens of length <= max_len (Duval, lex order)."""
    # a non-int letter bound never ends the walk, and True reads as 1
    _require_ints(n_gens=n_gens, max_len=max_len)
    if n_gens < 1 or max_len < 1:
        return []
    out = []
    w = [1]
    while w:
        out.append(tuple(w))
        w = (w * (max_len // len(w) + 1))[:max_len]
        while w and w[-1] == n_gens:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(out, key=lambda u: (len(u), u))


_BASIS_CACHE = {}


def lyndon_basis_of_length(n_gens, length):
    """Lyndon basis elements of exact word length, in word order."""
    # before the lookup: (True, 1) and (2, 1.0) are the keys of (1, 1), (2, 1)
    _require_ints(n_gens=n_gens, length=length)
    key = (n_gens, length)
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = [
            LieBasisElement.from_word(w)
            for w in lyndon_words(n_gens, length)
            if len(w) == length
        ]
    return _BASIS_CACHE[key]


def lyndon_basis(n_gens, max_star_degree):
    """Lyndon basis grouped by star degree 0..max_star_degree.

    The count in degree s is the Witt number W(s+1) over n_gens letters.
    """
    _require_ints(n_gens=n_gens, max_star_degree=max_star_degree)
    if n_gens < 1:
        raise ValueError("need at least one generator")
    if max_star_degree < 0:
        raise ValueError(f"need star degree >= 0, got {max_star_degree}")
    return [
        lyndon_basis_of_length(n_gens, s + 1) for s in range(max_star_degree + 1)
    ]


def _mobius(n):
    mu, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            mu = -mu
        p += 1
    if n > 1:
        mu = -mu
    return mu


def witt_number(n_gens, length):
    """Dimension of the word-length-``length`` piece of the free Lie algebra."""
    _require_ints(n_gens=n_gens, length=length)
    if length < 1:
        raise ValueError(f"need word length >= 1, got {length}")
    total = 0
    for d in range(1, length + 1):
        if length % d == 0:
            total += _mobius(d) * n_gens ** (length // d)
    if total % length:  # pragma: no cover - Witt's formula violated
        raise RuntimeError(f"Witt sum {total} not divisible by {length}")
    return total // length


_EXPAND_CACHE = {}


def _expand_tree(tree):
    if isinstance(tree, int):
        return TensorElement.word((tree,))
    key = tree
    out = _EXPAND_CACHE.get(key)
    if out is None:
        a = _expand_tree(tree[0])
        b = _expand_tree(tree[1])
        out = a * b - b * a
        _EXPAND_CACHE[key] = out
    return out


def expand_to_tensor(a):
    """Image of a Lie element under the inclusion LV in TV."""
    if isinstance(a, LieBasisElement):
        return _expand_tree(a.bracketing)
    return TensorElement._of(
        linear(a.terms, lambda b: _expand_tree(b.bracketing).terms)
    )


def _word_index(word, n_gens):
    idx = 0
    for a in word:
        idx = idx * n_gens + (a - 1)
    return idx


def _tensor_vector(t, n_gens):
    """Coordinates of ``t``, whose words have one length and letters in
    1..n_gens, at the base-``n_gens`` indices of its words."""
    return {_word_index(w, n_gens): c for w, c in t.terms.items()}


_REWRITE_SOLVERS = {}


def _rewrite_solver(n_gens, length):
    key = (n_gens, length)
    if key not in _REWRITE_SOLVERS:
        basis = lyndon_basis_of_length(n_gens, length)
        rows = [_tensor_vector(expand_to_tensor(b), n_gens) for b in basis]
        _REWRITE_SOLVERS[key] = (basis, SpanSolver(n_gens**length, rows))
    return _REWRITE_SOLVERS[key]


def rewrite_in_basis(t, n_gens=None):
    """Lyndon-basis coordinates of a tensor element, or None if not in LV.

    Raises ValueError on a letter outside 1..n_gens (n_gens defaults to the
    largest letter).  A given ``n_gens`` that is a bool or not an int raises
    TypeError.
    """
    if n_gens is not None:
        _require_ints(n_gens=n_gens)
    if t.is_zero():
        return LieElement.zero()
    if () in t.terms:
        return None
    letters = set().union(*t.terms)
    if n_gens is None:
        n_gens = max(letters)
    for a in sorted(letters):
        if not 1 <= a <= n_gens:
            raise ValueError(f"letter {a} outside 1..{n_gens}")
    out = {}
    for length in t.word_lengths():
        comp = t.length_component(length)
        basis, solver = _rewrite_solver(n_gens, length)
        coeffs = solver.solve(_tensor_vector(comp, n_gens))
        if coeffs is None:
            return None
        for b, c in zip(basis, coeffs):
            if c:
                out[b] = c
    return LieElement(out)


_BRACKET_CACHE = {}


def bracket_basis(a, b):
    """[a, b] for basis elements, expressed in the Lyndon basis (memoized).

    The classical rewriting on standard factorizations: for a < b, if a is a
    letter or the right standard factor a'' of a = (a', a'') satisfies
    a'' >= b, then ab is Lyndon with standard factorization (a, b) and the
    bracket is that single basis element; otherwise Jacobi gives
    [a, b] = [a', [a'', b]] - [a'', [a', b]].  The coefficients are integers.
    ``rewrite_in_basis`` of the tensor commutator is the reference.
    """
    if a.word == b.word:
        return LieElement.zero()
    key = (a.word, b.word)
    out = _BRACKET_CACHE.get(key)
    if out is None:
        if a.word > b.word:
            out = -bracket_basis(b, a)
        elif a.left is None or a.right.word >= b.word:
            # (a, b) is the standard factorization of ab: intern it as such
            word = a.word + b.word
            elt = _ELEMENT_CACHE.setdefault(word, LieBasisElement(word, a, b))
            out = LieElement.basis(elt)
        else:
            terms = (
                lie_bracket(LieElement.basis(a.left), bracket_basis(a.right, b))
                - lie_bracket(LieElement.basis(a.right), bracket_basis(a.left, b))
            ).terms
            # list the terms in basis order, as lyndon_basis_of_length does
            order = sorted(terms, key=lambda k: k.sort_key)
            out = LieElement({k: terms[k] for k in order})
        _BRACKET_CACHE[key] = out
    return out


def lie_bracket(a, b):
    """Lie bracket of two Lie elements, in the Lyndon basis."""
    return LieElement._of(
        bilinear(a.terms, b.terms, lambda x, y: bracket_basis(x, y).terms)
    )


def left_normed_tensor(letters):
    """[x_{i1},[x_{i2},[...,[x_{ik},x_{ik+1}]...]]] expanded in TV.

    These left-normed brackets are the classical spanning set of the free Lie
    algebra; they are the independent oracle against which the Lyndon basis
    dimensions are checked.
    """
    letters = tuple(letters)
    out = TensorElement.word((letters[-1],))
    for i in reversed(letters[:-1]):
        xi = TensorElement.word((i,))
        out = xi * out - out * xi
    return out


def _compositions(total):
    # all ordered compositions of ``total`` into parts >= 1
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def tensor_filtration_basis(n_gens, word_len, n):
    """Basis of F_n TV intersected with words of exact length ``word_len``.

    F_n TV is spanned by concatenation products of homogeneous Lie elements
    whose star degrees sum to at least n.  The spanning set (all ordered
    products of Lyndon basis expansions) is reduced to a basis by exact
    elimination, in a deterministic order.
    """
    _require_ints(n_gens=n_gens, word_len=word_len, n=n)
    if word_len < 1:
        raise ValueError("word_len must be positive")
    picked = []
    ech = Echelon()
    for comp in _compositions(word_len):
        if word_len - len(comp) < n:
            continue  # max achievable star degree falls short
        pools = [lyndon_basis_of_length(n_gens, part) for part in comp]
        for combo in cartesian(*pools):
            if sum(b.star_degree for b in combo) < n:
                continue
            t = TensorElement.one()
            for b in combo:
                t = t * expand_to_tensor(b)
            if ech.add(_tensor_vector(t, n_gens)):
                picked.append(t)
    return picked
