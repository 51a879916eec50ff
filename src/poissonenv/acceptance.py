"""The acceptance suite: every checkable desk-scale claim, exactly.

Each check returns a CheckResult; all arithmetic is exact rational, so every
comparison is equality with zero tolerance.  The checks are deliberately
built on independent oracles where the contract demands one (brute-force
enumeration, left-normed spanning sets, solve-based membership) rather than
on the code paths they certify.
"""

from __future__ import annotations

import itertools as it
import random
from dataclasses import dataclass

from . import envelope as env
from . import filtration as filt
from . import quantize as qz
from .exprparse import parse
from .freelie import (
    LieBasisElement,
    TensorElement,
    _tensor_vector,
    is_lyndon,
    left_normed_tensor,
    lyndon_basis,
    tensor_filtration_basis,
    witt_number,
)
from .freepoisson import (
    PoissonElement,
    PoissonMonomial,
    e_inverse,
    monomials_star_total,
    monomials_up_to_total,
    multiply,
    poisson_bracket,
    star_component,
    star_components,
    star_product,
    symmetrize,
)
from .linalg import Echelon, merge


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# -- 1 -------------------------------------------------------------------


def check_witt_lyndon():
    """Lyndon counts per degree match the Witt numbers, the brute-force
    rotation-minimal enumeration, and the left-normed spanning rank."""
    for n in (1, 2, 3):
        basis = lyndon_basis(n, 5)
        for s in range(6):
            length = s + 1
            count = len(basis[s])
            expected = witt_number(n, length)
            if count != expected:
                return _result(
                    "witt", False, f"count {count} != witt {expected} (n={n}, s={s})"
                )
            brute = [
                w
                for w in it.product(range(1, n + 1), repeat=length)
                if is_lyndon(w)
            ]
            if sorted(b.word for b in basis[s]) != sorted(brute):
                return _result("witt", False, f"enumeration mismatch n={n} s={s}")
            ech = Echelon()
            for tup in it.product(range(1, n + 1), repeat=length):
                if length >= 2 and tup[-1] == tup[-2]:
                    continue  # innermost bracket vanishes
                ech.add(_tensor_vector(left_normed_tensor(tup), n))
            if ech.rank != expected:
                return _result(
                    "witt",
                    False,
                    f"left-normed rank {ech.rank} != witt {expected} (n={n}, s={s})",
                )
    return _result("witt", True, "n_gens 1..3, star degree <= 5")


# -- 2 -------------------------------------------------------------------


def check_pbw_bijectivity():
    for length in range(1, 7):
        monos = monomials_up_to_total(2, length)
        monos = [m for m in monos if m.total_degree == length]
        if len(monos) != 2**length:
            return _result(
                "pbw", False, f"{len(monos)} monomials != 2^{length} words"
            )
        for w in it.product((1, 2), repeat=length):
            t = TensorElement.word(w)
            if symmetrize(e_inverse(t)) != t:
                return _result("pbw", False, f"e o e_inverse misses word {w}")
        for m in monos:
            p = PoissonElement.monomial(m)
            if e_inverse(symmetrize(p)) != p:
                return _result("pbw", False, f"e_inverse o e misses {m!r}")
    return _result("pbw", True, "word length <= 6, n_gens = 2")


# -- 3 -------------------------------------------------------------------


def check_symmetrized_filtration():
    for length in range(1, 6):
        all_monos = [
            m for m in monomials_up_to_total(2, length) if m.total_degree == length
        ]
        for n in range(length + 1):
            filt_basis = tensor_filtration_basis(2, length, n)
            e_images = [
                symmetrize(PoissonElement.monomial(m))
                for m in all_monos
                if m.star_degree >= n
            ]
            ech_f = Echelon.spanning(_tensor_vector(t, 2) for t in filt_basis)
            ech_e = Echelon.spanning(_tensor_vector(t, 2) for t in e_images)
            if ech_f.rank != ech_e.rank:
                return _result(
                    "e-filtration", False, f"rank mismatch l={length} n={n}"
                )
            for t in e_images:
                if not ech_f.contains(_tensor_vector(t, 2)):
                    return _result(
                        "e-filtration", False, f"e image escapes F_{n} at l={length}"
                    )
            for t in filt_basis:
                if not ech_e.contains(_tensor_vector(t, 2)):
                    return _result(
                        "e-filtration", False, f"F_{n} escapes e image at l={length}"
                    )
    return _result("e-filtration", True, "word length <= 5, all n")


# -- 4 -------------------------------------------------------------------


def check_star_component_bigrading():
    monos = monomials_up_to_total(2, 5)
    pairs = [
        (a, b)
        for a in monos
        for b in monos
        if a.total_degree + b.total_degree <= 5
    ]
    for a, b in pairs:
        pa = PoissonElement.monomial(a)
        pb = PoissonElement.monomial(b)
        full = star_product(pa, pb)
        for p in range(4):
            by_sym = star_component(pa, pb, p)
            by_star = full.star_part(a.star_degree + b.star_degree + p)
            if by_sym != by_star:
                return _result(
                    "bp-bigrading", False, f"extraction mismatch {a!r},{b!r} p={p}"
                )
    return _result("bp-bigrading", True, f"{len(pairs)} monomial pairs, p <= 3")


# -- 5 -------------------------------------------------------------------


def check_graded_dimensions():
    for length in range(1, 6):
        ranks = [
            len(tensor_filtration_basis(2, length, n)) for n in range(length + 2)
        ]
        for n in range(length + 1):
            p_dim = len(monomials_star_total(2, n, length))
            if p_dim != ranks[n] - ranks[n + 1]:
                return _result(
                    "graded-dims",
                    False,
                    f"dim P_{n} = {p_dim} != {ranks[n]} - {ranks[n+1]} at l={length}",
                )
    return _result("graded-dims", True, "word length <= 5, n_gens = 2")


# -- 6 -------------------------------------------------------------------


def check_star_associativity():
    monos = monomials_up_to_total(2, 6)
    triples = [
        (a, b, c)
        for a in monos
        for b in monos
        for c in monos
        if a.total_degree + b.total_degree + c.total_degree <= 6
    ]
    algs = [qz.QuantizedAlgebra(2, d) for d in range(4)]
    zero = PoissonElement()
    for a, b, c in triples:
        pa, pb, pc = (PoissonElement.monomial(m) for m in (a, b, c))
        ab = star_product(pa, pb)
        bc = star_product(pb, pc)
        left = star_product(ab, pc)
        right = star_product(pa, bc)
        if left != right:
            return _result("associativity", False, f"B fails at {a!r},{b!r},{c!r}")
        # B_i(B_j(a, b), c) and B_i(a, B_j(b, c)) for i, j < 4, one
        # star_components pass each
        ab_p, bc_p = star_components(pa, pb), star_components(pb, pc)
        left_p = [star_components(ab_p.get(j, zero), pc) for j in range(4)]
        right_p = [star_components(pa, bc_p.get(j, zero)) for j in range(4)]
        for p in range(4):
            lhs, rhs = {}, {}
            for i in range(p + 1):
                j = p - i
                merge(lhs, left_p[j].get(i, zero).terms.items())
                merge(rhs, right_p[j].get(i, zero).terms.items())
            if lhs != rhs:
                return _result(
                    "associativity", False, f"hbar order {p} fails at {a!r},{b!r},{c!r}"
                )
        for alg in algs:
            if max(m.star_degree for m in (a, b, c)) > alg.d:
                continue
            tl = qz.truncated_product(alg, qz.truncated_product(alg, pa, pb), pc)
            tr = qz.truncated_product(alg, pa, qz.truncated_product(alg, pb, pc))
            if tl != tr:
                return _result(
                    "associativity", False, f"truncated d={alg.d} fails"
                )
    return _result("associativity", True, f"{len(triples)} monomial triples")


# -- 7 -------------------------------------------------------------------


def check_gap_counterexample():
    target = PoissonElement.zero()
    for w1, w2 in (((1, 3), (2, 4)), ((1, 2), (3, 4))):
        m = PoissonMonomial.of(
            (LieBasisElement.from_word(w1), LieBasisElement.from_word(w2))
        )
        target = target + PoissonElement.monomial(m)
    for idx in ((1, 2, 3, 4), (2, 3, 4, 1)):
        side, naive = env.gap_witness(4, idx)
        if not side.is_zero():
            return _result("gap", False, f"envelope side nonzero for {idx}")
        if naive.is_zero():
            return _result("gap", False, f"naive image zero for {idx}")
    side, naive = env.gap_witness(4)
    if naive != target:
        return _result("gap", False, "naive image differs from (13)(24)+(12)(34)")
    return _result("gap", True, "0 vs (13)(24)+(12)(34) != 0")


# -- 8 -------------------------------------------------------------------


def check_p1_omega2():
    x = [None] + [PoissonElement.generator(i) for i in range(1, 4)]
    cases = []
    for n in (1, 2, 3):
        cases.append(("free", env.EnvelopePresentation(n, (), 1, 2)))
    cases.append(
        ("x1^2", env.EnvelopePresentation(2, (multiply(x[1], x[1]),), 1, 3))
    )
    cases.append(
        ("x1*x2", env.EnvelopePresentation(2, (multiply(x[1], x[2]),), 1, 3))
    )
    quadric = multiply(x[1], x[1]) + multiply(x[2], x[3])
    cases.append(("x1^2+x2*x3", env.EnvelopePresentation(3, (quadric,), 1, 2)))
    for label, pres in cases:
        computed, omega2 = env.p1_rank_check(pres)
        if computed != omega2:
            return _result(
                "p1-omega2", False, f"{label}: {computed} != {omega2}"
            )
        if pres.relations and not env.envelope_truncated(pres)[1].exact:
            return _result("p1-omega2", False, f"{label}: not flagged exact")
    return _result("p1-omega2", True, f"{len(cases)} presentations agree")


# -- 9 -------------------------------------------------------------------


def check_local_model():
    monos = [
        m
        for m in monomials_up_to_total(2, 8, max_star=3)
        if m.poly_degree <= 2 and m.star_degree <= 3
    ]
    pairs = 0
    for a in monos:
        for b in monos:
            if a.star_degree + b.star_degree > 3:
                continue
            pa, pb = PoissonElement.monomial(a), PoissonElement.monomial(b)
            if env.local_model_bracket(pa, pb) != poisson_bracket(pa, pb):
                return _result(
                    "local-model", False, f"brackets differ at {a!r},{b!r}"
                )
            pairs += 1
    rng = random.Random(17)
    pool = [m for m in monos if m.star_degree <= 1]

    def rand_elt():
        out = {}
        for m in rng.sample(pool, 3):
            merge(out, [(m, rng.randint(-3, 3))])
        return PoissonElement(out)

    for _ in range(100):
        f, g, h = rand_elt(), rand_elt(), rand_elt()
        lb = env.local_model_bracket
        leibniz = lb(f, multiply(g, h)) - multiply(g, lb(f, h)) - multiply(
            h, lb(f, g)
        )
        if not leibniz.is_zero():
            return _result("local-model", False, "Leibniz fails")
        jacobi = lb(f, lb(g, h)) + lb(g, lb(h, f)) + lb(h, lb(f, g))
        if not jacobi.is_zero():
            return _result("local-model", False, "Jacobi fails")
    return _result("local-model", True, f"{pairs} pairs + 100 random triples")


# -- 10 ------------------------------------------------------------------


def check_filtration_window():
    for d in range(4):
        alg = qz.QuantizedAlgebra(2, d)
        for N in (1, 2, 3):
            for n in range(d + 2):
                rep = qz.commutator_filtration_Q(alg, n, N)
                if not rep.matches:
                    return _result(
                        "filtration-window",
                        False,
                        f"d={d} n={n} N={N}: {rep.rank_filtration} != {rep.rank_expected}",
                    )
    return _result("filtration-window", True, "all n <= d <= 3 at N <= 3")


# -- 11 ------------------------------------------------------------------


def check_nc_embedding():
    alg = qz.QuantizedAlgebra(2, 3)
    images = []
    for length in range(5):
        for w in it.product((1, 2), repeat=length):
            images.append(qz.nc_embed(alg, w))
    index = {}
    ech = Echelon()
    count = 0
    for p in images:
        row = {}
        for m, c in p.terms.items():
            row[index.setdefault(m, len(index))] = c
        if ech.add(row):
            count += 1
    if count != len(images):
        return _result(
            "nc-embedding", False, f"only {count} of {len(images)} independent"
        )
    return _result("nc-embedding", True, f"{len(images)} word images independent")


# -- 12 ------------------------------------------------------------------


def check_graded_witness():
    for d in range(4):
        alg = qz.QuantizedAlgebra(2, d)
        for N in (1, 2, 3):
            for rep in qz.graded_of_Q(alg, N):
                if not rep.matches:
                    return _result(
                        "graded-witness",
                        False,
                        f"graded_of_Q d={d} n={rep.n} N={N}: "
                        f"{rep.graded_rank} != {rep.envelope_rank}",
                    )
    for d in (1, 2, 3):
        cap = 4
        algbra = qz.quantized_window_algebra(2, d, cap)
        chain = filt.commutator_filtration(algbra)
        graded = filt.associated_graded(algbra, chain)
        by_grade = {}
        for label in graded.labels:
            g = int(label.split(".")[0][1:])
            by_grade[g] = by_grade.get(g, 0) + 1
        for n in range(d + 1):
            expected = sum(
                len(monomials_star_total(2, n, t)) for t in range(cap + 1)
            )
            if by_grade.get(n, 0) != expected:
                return _result(
                    "graded-witness",
                    False,
                    f"associated_graded d={d} grade {n}: {by_grade.get(n, 0)} != {expected}",
                )
    return _result("graded-witness", True, "graded ranks match P_n windows, d <= 3")


# -- 13 ------------------------------------------------------------------


def check_endomorphism_contraction():
    A = qz.poisson_window_algebra(2, 2, 5)
    chain = filt.nil_poisson_filtration(A)
    label_index = {lab: i for i, lab in enumerate(A.labels)}

    def coord_vec(expr):
        p = parse(expr, 2)
        out = {}
        for m, c in p.terms.items():
            out[label_index[repr(m)]] = c
        return out

    # star-1 Hamiltonians: {c,-} raises star degree by 2, so it survives the
    # d = 2 truncation and its exponential is a nontrivial Poisson endo
    hams = ["(12)", "x1*(12)", "x2*(12)", "x1*x1*(12)", "x1*x2*(12)"]
    passed = 0
    for ham in hams:
        cols = filt.hamiltonian_derivation(A, coord_vec(ham))
        f = filt.exp_nilpotent_endo(A, cols)
        rep = filt.endo_contraction_check(A, f, chain, use_bracket=True)
        nontrivial = any(
            f.apply(A.basis_vec(i)) != A.basis_vec(i) for i in range(A.dim)
        )
        if not (rep.passed and nontrivial):
            return _result("endo-contraction", False, f"hamiltonian {ham} fails")
        passed += 1

    Q = qz.quantized_window_algebra(2, 2, 4)
    qchain = filt.commutator_filtration(Q)
    qlabel = {lab: i for i, lab in enumerate(Q.labels)}
    for u in ("(12)", "x1*(12)"):
        cols = filt.inner_derivation(Q, {qlabel[u]: 1})
        f = filt.exp_nilpotent_endo(Q, cols)
        rep = filt.endo_contraction_check(Q, f, qchain, use_bracket=False)
        nontrivial = any(
            f.apply(Q.basis_vec(i)) != Q.basis_vec(i) for i in range(Q.dim)
        )
        if not (rep.passed and nontrivial):
            return _result("endo-contraction", False, f"inner {u} fails")
        passed += 1

    # scaling the generators is a Poisson endomorphism but not id mod F_1:
    # the check must report the precondition violation
    cols = []
    for i in range(A.dim):
        m = _label_monomial(A, i)
        cols.append({i: 2 ** (m.sym_degree + m.star_degree)})
    f = filt.EndoMap(cols)
    rep = filt.endo_contraction_check(A, f, chain, use_bracket=True)
    if rep.identity_mod_f1 or not rep.is_endomorphism:
        return _result("endo-contraction", False, "precondition violation not reported")
    return _result("endo-contraction", True, f"{passed} nontrivial endomorphisms pass")


def _label_monomial(alg, i):
    label = alg.labels[i]
    p = parse(label, 2)
    (m, c) = next(iter(p.terms.items()))
    return m


# -- 14 ------------------------------------------------------------------


def check_differential_order():
    # arguments reach word length 4 once a multiplier letter lands on them;
    # letter multipliers suffice for the order criterion because commutation
    # against a product peels into commutators against its factors
    args = monomials_up_to_total(2, 3)
    fixed = monomials_up_to_total(2, 2)
    letters = [PoissonElement.generator(i) for i in (1, 2)]
    for p in range(3):
        for b in fixed:
            pb = PoissonElement.monomial(b)

            def op(a, pb=pb, p=p):
                return star_component(a, pb, p)

            for mults in it.product(letters, repeat=p + 1):
                current = op
                for m in mults:
                    def current(a, op=current, m=m):
                        return op(multiply(m, a)) - multiply(m, op(a))
                for a in args:
                    val = current(PoissonElement.monomial(a))
                    if not val.is_zero():
                        return _result(
                            "order-p",
                            False,
                            f"(p+1)-fold commutator nonzero: p={p} b={b!r} a={a!r}",
                        )
    return _result("order-p", True, "B_p has order <= p for p <= 2")


# -- 15 ------------------------------------------------------------------


def check_star_ideal_topology():
    for d in (0, 1, 2):
        for m in (1, 2):
            rep = qz.star_ideal_topology_check(2, d, m)
            if not rep.included:
                return _result(
                    "star-ideal",
                    False,
                    f"J^*{rep.power} escapes I^{m}G + G_>={m} at d={d}",
                )
    return _result("star-ideal", True, "inclusions hold for d <= 2, m <= 2")


ALL_CHECKS = [
    ("01-witt-lyndon-dimensions", check_witt_lyndon),
    ("02-pbw-bijectivity", check_pbw_bijectivity),
    ("03-symmetrized-filtration", check_symmetrized_filtration),
    ("04-star-component-bigrading", check_star_component_bigrading),
    ("05-graded-dimension-match", check_graded_dimensions),
    ("06-star-associativity", check_star_associativity),
    ("07-gap-counterexample", check_gap_counterexample),
    ("08-p1-equals-omega2", check_p1_omega2),
    ("09-local-model-bracket", check_local_model),
    ("10-filtration-window", check_filtration_window),
    ("11-nc-embedding", check_nc_embedding),
    ("12-graded-witness", check_graded_witness),
    ("13-endo-contraction", check_endomorphism_contraction),
    ("14-differential-order", check_differential_order),
    ("15-star-ideal-topology", check_star_ideal_topology),
]


def run(names=None):
    """Run the selected (or all) acceptance checks, sorted by name."""
    selected = []
    for name, fn in sorted(ALL_CHECKS):
        if names is None or name in names or any(name.startswith(p) for p in names):
            selected.append((name, fn))
    if not selected:
        raise ValueError(f"no acceptance checks match {names}")
    results = []
    for name, fn in selected:
        res = fn()
        results.append(CheckResult(name=name, passed=res.passed, detail=res.detail))
    return results
