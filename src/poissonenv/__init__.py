"""Exact computer algebra for free Lie/Poisson algebras, PBW star products,
Poisson envelopes of presented commutative algebras, and commutator /
nil-Poisson filtrations."""

from .envelope import (
    EnvelopePresentation,
    GradedQuotientPiece,
    envelope_truncated,
    gap_witness,
    induced_hom,
    local_model_bracket,
    p1_rank_check,
    poisson_ideal_generators,
)
from .exprparse import ParseError, format_poisson, format_tensor, parse
from .filtration import (
    EndoMap,
    FiltrationChain,
    TruncatedAlgebra,
    associated_graded,
    commutator_filtration,
    endo_contraction_check,
    nil_poisson_filtration,
)
from .freelie import (
    LieBasisElement,
    LieElement,
    TensorElement,
    expand_to_tensor,
    lie_bracket,
    lyndon_basis,
    rewrite_in_basis,
    tensor_filtration_basis,
    witt_number,
)
from .freepoisson import (
    PoissonElement,
    PoissonMonomial,
    e_inverse,
    multiply,
    poisson_bracket,
    star_component,
    star_product,
    symmetrize,
)
from .linalg import Echelon, Rational, SpanSolver
from .quantize import (
    QuantizedAlgebra,
    commutator_filtration_Q,
    graded_of_Q,
    nc_embed,
    star_ideal_topology_check,
    truncated_product,
)

from . import exprparse as _exprparse
from . import freelie as _freelie
from . import freepoisson as _freepoisson
from . import pbw as _pbw
from . import quantize as _quantize

# every module-level memo table of the library
_MEMO_TABLES = (
    _exprparse._WORD_LISTS,
    _freelie._ELEMENT_CACHE,
    _freelie._BASIS_CACHE,
    _freelie._EXPAND_CACHE,
    _freelie._REWRITE_SOLVERS,
    _freelie._BRACKET_CACHE,
    _freepoisson._MONOMIALS,
    _freepoisson._BRACKET_MONO_CACHE,
    _freepoisson._STAR_MONO_CACHE,
    _freepoisson._NESTED_CACHE,
    _freepoisson._BERNOULLI_CACHE,
    _pbw._NORMAL_CACHE,
    _pbw._SYM_PBW_CACHE,
    _pbw._SYM_WORD_CACHE,
    _pbw._EINV_WORD_CACHE,
    _quantize._UWINDOW_CACHE,
)


def clear_caches():
    """Empty every module-level memo table, to bound a long-lived process.

    The tables only memoize pure functions, and interned Lie basis elements
    and Poisson monomials compare and hash by value, so instances built
    before and after the call mix freely and results are unchanged; they are
    recomputed cold.  Each table is emptied in place, so code that holds a
    reference to one keeps working.
    """
    for table in _MEMO_TABLES:
        table.clear()


__all__ = [
    "Echelon",
    "EndoMap",
    "EnvelopePresentation",
    "FiltrationChain",
    "GradedQuotientPiece",
    "LieBasisElement",
    "LieElement",
    "ParseError",
    "PoissonElement",
    "PoissonMonomial",
    "QuantizedAlgebra",
    "Rational",
    "SpanSolver",
    "TensorElement",
    "TruncatedAlgebra",
    "associated_graded",
    "clear_caches",
    "commutator_filtration",
    "commutator_filtration_Q",
    "e_inverse",
    "endo_contraction_check",
    "envelope_truncated",
    "expand_to_tensor",
    "format_poisson",
    "format_tensor",
    "gap_witness",
    "graded_of_Q",
    "induced_hom",
    "lie_bracket",
    "local_model_bracket",
    "lyndon_basis",
    "multiply",
    "nc_embed",
    "nil_poisson_filtration",
    "p1_rank_check",
    "parse",
    "poisson_bracket",
    "poisson_ideal_generators",
    "rewrite_in_basis",
    "star_component",
    "star_ideal_topology_check",
    "star_product",
    "symmetrize",
    "tensor_filtration_basis",
    "truncated_product",
    "witt_number",
]
