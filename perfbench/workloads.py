"""The benchmark workloads, each with its reason:

``star``       cold star products, pair total degree 2..6 in 3 generators:
               the pbw e / e^-1 path and freelie's bracket cache
``window``     windowed commutator filtrations of Q^(d) over a fixed sweep:
               UWindow.mul, with linalg.Echelon.add and pbw.normal next
``presented``  envelopes of quadric presentations and their
               structure-constant algebras: envelope and filtration, with
               TruncatedAlgebra._validate, O(dim^3)
``queries``    a warm session, parse -> operation -> JSON over a Zipf-skewed
               pool: memo-cache hits and exprparse instead of cold fills

Each workload turns a seed into a fixed list of operations (the inputs), then
the worker runs them in order, one caller, closed loop.  An operation is
``Op(kind, tag, fn, args)``; ``fn`` looks library functions up on their module
at call time, so tracing installed after set-up still sees every call.
``tag`` names the operation's input size, for the per-layer scaling curves.

After the timed phase ``check`` verifies every result by an independent
identity and ``canonical`` renders each result as the exact output that the
correctness digest covers: ranks, flags, and elements in the Lyndon/PBW
basis.  Echelon rows and associated-graded representatives are left out of
the digest because a change of elimination order may legitimately change
them.
"""

import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import poissonenv as pe
from poissonenv import exprparse, filtration, freepoisson, quantize


@dataclass
class Op:
    kind: str
    tag: str
    fn: object
    args: tuple


def _completed(ops, results):
    """(index, op, result) of the ops that returned; the worker records an op
    that raised as None and counts it as failed already."""
    return ((i, op, res) for i, (op, res) in enumerate(zip(ops, results))
            if res is not None)


COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-3), Fraction(1, 2))


def _pjson(p):
    return json.dumps(exprparse.poisson_to_json(p), sort_keys=True)


DESIGN_SEED = 2000


class Draw:
    """The two random streams an input is made from.

    ``shape`` decides which monomials, words and sizes each input has and
    starts from DESIGN_SEED, so it is the same for every seed: every seed then
    does the same amount of work, and the figures of different seeds compare.
    ``value`` starts from the workload seed and draws the coefficients and the
    order of the queries, so each seed has its own exact inputs and outputs.
    """

    def __init__(self, seed):
        self.shape = random.Random(DESIGN_SEED)
        self.value = random.Random(seed)

    def coeff(self):
        return self.value.choice(COEFFS)

    def element(self, pool, n_terms):
        out = pe.PoissonElement.zero()
        for m in self.shape.sample(pool, n_terms):
            out = out + pe.PoissonElement.monomial(m, self.coeff())
        return out

    def picks(self, count):
        """Basis positions in [0, 1) with coefficients, for _pick."""
        return tuple((self.shape.random(), self.coeff()) for _ in range(count))


def _monomial_pools(n_gens, max_total):
    """Monomials by total letter count, every star degree included."""
    return {
        t: [m for q in range(t) for m in freepoisson.monomials_star_total(n_gens, q, t)]
        for t in range(1, max_total + 1)
    }


# -- star ---------------------------------------------------------------------
# Cold star products: the word-space e / e^-1 path of pbw and the bracket
# cache of freelie.  Pair total degree 2..6 in 3 generators; degree 7-8 is the
# known cliff (4x4 takes about a minute), so it is kept out.

STAR_GENS = 3
STAR_PAIRS = {2: 6, 3: 12, 4: 24, 5: 24, 6: 18}  # pairs per total degree
# The shape of each pair (degree split, term count, whether it also asks for
# a B_p) is fixed by its position, and its monomials and the order come from
# Draw.shape; the seed draws the coefficients.


def _star(a, b):
    return pe.star_product(a, b)


def _star_component(a, b, p):
    return pe.star_component(a, b, p)


class Star:
    name = "star"

    def __init__(self, seed):
        rng = Draw(seed)
        pools = _monomial_pools(STAR_GENS, 5)
        shapes = []
        for total, count in STAR_PAIRS.items():
            for k in range(count):
                ta = 1 + k % (total - 1)
                j = k // (total - 1)
                # every 4th round also asks for B_p, p = 0, 1, 2 in turn; B_p
                # is checked on single monomials, which are sym-homogeneous
                p = (j // 4) % 3 if j % 4 == 0 else None
                n_terms = 1 if j % 2 == 0 else 2
                shapes.append((total, ta, n_terms, p))
        rng.shape.shuffle(shapes)
        self.ops = []
        for total, ta, n_terms, p in shapes:
            a = rng.element(pools[ta], n_terms)
            b = rng.element(pools[total - ta], n_terms)
            self.ops.append(Op("star_product", f"deg{total}", _star, (a, b)))
            if p is not None:
                self.ops.append(
                    Op("star_component", f"deg{total}", _star_component, (a, b, p))
                )
        # associativity oracle on small triples (total degree <= 4)
        self.triples = []
        for degs in ((1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1)) * 3:
            self.triples.append(tuple(rng.element(pools[t], 1) for t in degs))

    def check(self, results):
        bad = []
        products = {}
        for i, op, res in _completed(self.ops, results):
            a, b = op.args[:2]
            if op.kind == "star_product":
                lhs = pe.symmetrize(res)
                rhs = pe.symmetrize(a) * pe.symmetrize(b)
                if lhs != rhs:
                    bad.append(i)
                products[(id(a), id(b))] = res
            else:
                # B_p is the sym-degree (sa + sb - p) part of the checked
                # product; on monomials it also raises star degree by exactly p
                p = op.args[2]
                (ma,), (mb,) = a.terms, b.terms
                full = products.get((id(a), id(b)))
                if full is None:  # its product raised: nothing to check against
                    bad.append(i)
                    continue
                expected = full.sym_part(ma.sym_degree + mb.sym_degree - p)
                star = ma.star_degree + mb.star_degree + p
                if res != expected or any(m.star_degree != star for m in res.terms):
                    bad.append(i)
        return bad

    def extra_check(self):
        for a, b, c in self.triples:
            left = pe.star_product(pe.star_product(a, b), c)
            right = pe.star_product(a, pe.star_product(b, c))
            if left != right:
                return f"star product not associative at {a!r}, {b!r}, {c!r}"
        return None

    def canonical(self, op, res):
        return _pjson(res)


# -- window -------------------------------------------------------------------
# Windowed commutator filtrations of Q^(d): UWindow.mul, Echelon.add and the
# cached pbw.normal.  The sweep is fixed; the window elements whose filtration
# memberships are checked take basis positions from Draw.shape and
# coefficients from the seed.

WINDOW_CONFIGS = [  # (n_gens, d, N); the window's max total is N + 2d
    (2, 1, 1),
    (2, 1, 2),
    (2, 2, 1),
    (2, 2, 2),
    (2, 3, 0),
    (3, 1, 1),
    (3, 1, 2),
    (3, 1, 3),
]
STAR_IDEAL_CONFIGS = [(2, 0, 1), (2, 1, 1), (2, 0, 2), (2, 1, 2), (2, 2, 1), (3, 1, 1)]
WINDOW_ELEMENT_CHECKS = 24  # per config, half commutators, half products


def window_tag(n_gens, d, max_total):
    return f"n{n_gens}_d{d}_t{max_total}"


def _pick(basis, picks):
    """A combination of basis rows chosen by (position in [0, 1), coeff)."""
    out = {}
    for pos, c in picks:
        for k, v in basis[int(pos * len(basis))].items():
            w = out.get(k, 0) + c * v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
    return out


def _graded(n_gens, d, N):
    return pe.graded_of_Q(pe.QuantizedAlgebra(n_gens, d), N)


def _filtration_q(n_gens, d, n, N):
    return pe.commutator_filtration_Q(pe.QuantizedAlgebra(n_gens, d), n, N)


def _commutator_in_f1(n_gens, d, N, picks_u, picks_v):
    """[u, v] lies in F_1 for window elements u, v."""
    win = quantize.u_window(n_gens, d, N + 2 * d)
    chain = win.filtration(1)
    full = chain[0].basis()
    return chain[1].contains(win.commutator(_pick(full, picks_u), _pick(full, picks_v)))


def _product_in_fpq(n_gens, d, N, p, q, picks_u, picks_v):
    """F_p . F_q lies in F_{p+q}, on one element of each."""
    win = quantize.u_window(n_gens, d, N + 2 * d)
    chain = win.filtration(d + 1)
    u = _pick(chain[p].basis(), picks_u)
    v = _pick(chain[q].basis(), picks_v)
    return chain[p + q].contains(win.mul(u, v))


def _star_ideal(n_gens, d, m):
    return pe.star_ideal_topology_check(n_gens, d, m)


class Window:
    name = "window"

    def __init__(self, seed):
        rng = Draw(seed)
        self.ops = []
        for n_gens, d, N in WINDOW_CONFIGS:
            tag = window_tag(n_gens, d, N + 2 * d)
            self.ops.append(Op("graded_of_Q", tag, _graded, (n_gens, d, N)))
            for n in range(d + 2):
                self.ops.append(
                    Op("filtration_Q", tag, _filtration_q, (n_gens, d, n, N))
                )
            levels = [(p, q) for p in range(1, d + 1) for q in range(1, d + 2 - p)]
            for k in range(WINDOW_ELEMENT_CHECKS):
                picks = (rng.picks(1 + k % 3), rng.picks(1 + (k // 3) % 3))
                if k % 2 == 0:
                    args = (n_gens, d, N) + picks
                    self.ops.append(Op("commutator_in_F1", tag, _commutator_in_f1, args))
                else:
                    p, q = levels[(k // 2) % len(levels)]
                    args = (n_gens, d, N, p, q) + picks
                    self.ops.append(Op("product_in_Fpq", tag, _product_in_fpq, args))
        for n_gens, d, m in STAR_IDEAL_CONFIGS:
            self.ops.append(
                Op("star_ideal_check", f"star_ideal_n{n_gens}_d{d}_m{m}", _star_ideal,
                   (n_gens, d, m))
            )

    def check(self, results):
        bad = []
        for i, op, res in _completed(self.ops, results):
            if op.kind == "graded_of_Q":
                ok = all(r.matches for r in res)
            elif op.kind == "filtration_Q":
                ok = res.matches
            elif op.kind == "star_ideal_check":
                ok = res.included
            else:
                ok = res is True
            if not ok:
                bad.append(i)
        return bad

    def extra_check(self):
        return None

    def canonical(self, op, res):
        if op.kind == "graded_of_Q":
            return json.dumps([[r.n, r.graded_rank, r.envelope_rank] for r in res])
        if op.kind == "filtration_Q":
            return json.dumps(
                [res.n, res.N, res.rank_filtration, res.rank_expected,
                 res.tail_inside_filtration]
            )
        if op.kind == "star_ideal_check":
            return json.dumps([res.power, res.max_total, res.included])
        return json.dumps(res)


# -- presented ----------------------------------------------------------------
# Envelopes of homogeneous quadric presentations and the structure-constant
# algebras built from them: envelope and filtration dominate, with
# TruncatedAlgebra._validate (O(dim^3)) a large share.  One two-term quadric
# per presentation (monomials from Draw.shape, coefficients from the seed)
# keeps the window dimension fixed by the shape.

PRESENTED_SHAPES = [  # (n_gens, d, max_total of the window algebra)
    (2, 1, 5),
    (2, 2, 4),
    (3, 1, 2),
    (3, 2, 2),
]
PRESENTED_WINDOW_N = 2
LOCAL_MODEL_PAIRS = 25  # per presentation


def _envelope(pres):
    return pe.envelope_truncated(pres)


def _p1(pres):
    return pe.p1_rank_check(pres)


def _window_algebra(state, pres, max_total):
    state["A"] = quantize.envelope_window_algebra(pres, max_total)
    return state["A"]


def _commutator_filtration(state):
    return pe.commutator_filtration(state["A"])


def _nil_poisson(state):
    state["chain"] = pe.nil_poisson_filtration(state["A"])
    return state["chain"]


def _associated_graded(state):
    return pe.associated_graded(state["A"], state["chain"])


def _endo(state, picks):
    A = state["A"]
    c_vec = {int(pos * A.dim): c for pos, c in picks}
    f = filtration.exp_nilpotent_endo(A, filtration.hamiltonian_derivation(A, c_vec))
    return pe.endo_contraction_check(A, f, state["chain"], use_bracket=True)


def _json_round_trip(state):
    buf = io.StringIO()
    state["A"].dump(buf)
    buf.seek(0)
    return pe.TruncatedAlgebra.load(buf)


def _tamper(data):
    """Set one structure constant that is 0 in every window algebra: the unit
    coefficient of e_i e_i, e_i the first basis vector other than the unit.

    The copy is then not associative: for any other e_k, (e_i e_i) e_k gains
    e_k while e_i (e_i e_k) is unchanged, because the algebra is graded by
    total degree and the unit sits alone in degree 0, so no product of
    positive-degree vectors has a unit or an e_i component.
    """
    data = json.loads(json.dumps(data))
    unit = data["unit"]
    i = 1 if unit == 0 else 0
    data["product"].append([i, i, unit, "1"])
    return data


def _load_tampered(state):
    """True when the tampered copy is rejected with ValueError."""
    text = json.dumps(_tamper(state["A"].to_json_dict()))
    try:
        pe.TruncatedAlgebra.load(io.StringIO(text))
    except ValueError:
        return True
    return False


def _local_model(f, g):
    return pe.local_model_bracket(f, g)


def _quadric(rng, n_gens):
    pairs = [(i, j) for i in range(1, n_gens + 1) for j in range(i, n_gens + 1)]
    out = pe.PoissonElement.zero()
    for i, j in rng.shape.sample(pairs, 2):
        x = pe.PoissonElement.generator(i) * pe.PoissonElement.generator(j)
        out = out + rng.value.choice(COEFFS[:4]) * x
    return out


def _quadric_hilbert(n_gens, max_degree):
    """dim of (SV / one quadric) in degrees <= max_degree, in closed form."""
    return sum(comb(n_gens + k - 1, k) - comb(n_gens + k - 3, k - 2) if k >= 2
               else comb(n_gens + k - 1, k) for k in range(max_degree + 1))


class Presented:
    name = "presented"

    def __init__(self, seed):
        rng = Draw(seed)
        self.ops = []
        for n_gens, d, max_total in PRESENTED_SHAPES:
            pres = pe.EnvelopePresentation(
                n_gens, (_quadric(rng, n_gens),), d, PRESENTED_WINDOW_N
            )
            state = {}
            tag = f"n{n_gens}_d{d}_t{max_total}"
            self.ops += [
                Op("envelope_truncated", tag, _envelope, (pres,)),
                Op("p1_rank_check", tag, _p1, (pres,)),
                Op("window_algebra", tag, _window_algebra, (state, pres, max_total)),
                Op("commutator_filtration", tag, _commutator_filtration, (state,)),
                Op("nil_poisson_filtration", tag, _nil_poisson, (state,)),
                Op("associated_graded", tag, _associated_graded, (state,)),
                Op("endo_contraction", tag, _endo, (state, rng.picks(2))),
                Op("json_round_trip", tag, _json_round_trip, (state,)),
                Op("tampered_load", tag, _load_tampered, (state,)),
            ]
            pools = _monomial_pools(n_gens, 3)
            pool = [m for t in (1, 2, 3) for m in pools[t]
                    if m.star_degree <= 1 and m.poly_degree <= 2]
            for k in range(LOCAL_MODEL_PAIRS):
                f = rng.element(pool, 1 + k % 3)
                g = rng.element(pool, 1 + (k // 3) % 3)
                self.ops.append(Op("local_model_bracket", tag, _local_model, (f, g)))

    def check(self, results):
        bad = []
        for i, op, res in _completed(self.ops, results):
            state = op.args[0] if isinstance(op.args[0], dict) else None
            if op.kind == "envelope_truncated":
                pres = op.args[0]
                ok = (all(p.exact for p in res) and len(res) == pres.d + 1
                      and res[0].quotient_rank == _quadric_hilbert(pres.n_gens, pres.N))
            elif op.kind == "p1_rank_check":
                ok = res[0] == res[1]
            elif op.kind == "window_algebra":
                # labels without a bracket factor are the star-degree-0 basis
                star0 = sum(1 for lab in res.labels if "(" not in lab)
                ok = star0 == _quadric_hilbert(op.args[1].n_gens, op.args[2])
            elif op.kind == "commutator_filtration":
                # the window algebra is commutative: F_1 = 0
                ok = res.ranks() == [state["A"].dim, 0]
            elif op.kind == "nil_poisson_filtration":
                ranks = res.ranks()
                ok = (res.stable_is_zero and ranks[0] == state["A"].dim
                      and all(x > y for x, y in zip(ranks, ranks[1:])))
            elif op.kind == "associated_graded":
                ranks = state["chain"].ranks() + [0]
                grades = [sum(1 for lab in res.labels if lab.startswith(f"g{n}."))
                          for n in range(len(ranks) - 1)]
                ok = grades == [x - y for x, y in zip(ranks, ranks[1:])]
            elif op.kind == "endo_contraction":
                ok = res.passed
            elif op.kind == "json_round_trip":
                ok = res.to_json_dict() == state["A"].to_json_dict()
            elif op.kind == "tampered_load":
                ok = res is True
            else:
                ok = res == pe.poisson_bracket(*op.args)
            if not ok:
                bad.append(i)
        return bad

    def extra_check(self):
        return None

    def canonical(self, op, res):
        kind = op.kind
        if kind == "envelope_truncated":
            return json.dumps([[p.star_degree, p.quotient_rank, p.exact] for p in res])
        if kind == "p1_rank_check":
            return json.dumps(list(res))
        if kind in ("window_algebra", "json_round_trip"):
            return json.dumps([res.dim, res.labels])
        if kind in ("commutator_filtration", "nil_poisson_filtration"):
            return json.dumps([res.ranks(), res.stable_is_zero])
        if kind == "associated_graded":
            return json.dumps(res.labels)
        if kind == "endo_contraction":
            return json.dumps([res.is_endomorphism, res.identity_mod_f1,
                               res.difference_identities_hold, res.inclusions,
                               res.identity_on_top, res.top_index])
        if kind == "tampered_load":
            return json.dumps(res)
        return _pjson(res)


# -- queries ------------------------------------------------------------------
# A warm library session: parse -> operation -> JSON and text, over a pool of
# small requests with skewed (Zipf) popularity.  The set-up pass computes
# every request once, so the timed phase reads the memo caches instead of
# filling them, and exprparse carries a real share of each request.

QUERY_GENS = 3
QUERY_POOL = 300
QUERY_DRAWS = 10000
QUERY_ZIPF = 0.8
QUERY_KINDS = ("bracket", "bp", "star", "e", "einv", "ncembed", "expand")


def _factor_text(f):
    return f"x{f.word[0]}" if len(f.word) == 1 else "(" + "".join(map(str, f.word)) + ")"


def _element_text(rng, pool, n_terms):
    """Expression text of a random element, written by hand (not by the
    library's printer, which is under test)."""
    bits = []
    for m in rng.shape.sample(pool, n_terms):
        c = rng.coeff()
        body = "*".join(_factor_text(f) for f in m.factors)
        coeff = f"{abs(c.numerator)}/{c.denominator}" if c.denominator != 1 else str(abs(c))
        term = body if abs(c) == 1 else f"{coeff}*{body}"
        sign = "-" if c < 0 else "+"
        bits.append(f"{sign} {term}")
    text = " ".join(bits)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def _word_text(rng, length):
    return "*".join(f"x{rng.shape.randint(1, QUERY_GENS)}" for _ in range(length))


def _lie_text(rng, lie_pool, n_terms):
    return " + ".join(f"{rng.value.randint(1, 3)}*{_factor_text(f)}"
                      for f in rng.shape.sample(lie_pool, n_terms))


def _request(kind, texts, param):
    """Serve one request: returns (result, JSON dict, text form)."""
    n = QUERY_GENS
    if kind == "einv":
        result = pe.e_inverse(exprparse.parse(texts[0], n, mode="tensor"))
    else:
        args = [exprparse.parse(t, n) for t in texts]
        if kind == "bracket":
            result = pe.poisson_bracket(*args)
        elif kind == "bp":
            result = pe.star_component(args[0], args[1], param)
        elif kind == "star":
            result = pe.truncated_product(pe.QuantizedAlgebra(n, param), *args)
        elif kind == "e":
            result = pe.symmetrize(args[0])
        elif kind == "ncembed":
            result = pe.nc_embed(pe.QuantizedAlgebra(n, param), _word_of(texts[0]))
        else:  # expand
            lie = pe.LieElement({m.factors[0]: c for m, c in args[0].terms.items()})
            result = pe.expand_to_tensor(lie)
    if isinstance(result, pe.TensorElement):
        return result, exprparse.tensor_to_json(result), exprparse.format_tensor(result)
    return result, exprparse.poisson_to_json(result), exprparse.format_poisson(result)


def _word_of(text):
    return tuple(int(c) for c in text)


def _serve(request):
    return _request(*request)


class Queries:
    name = "queries"

    def __init__(self, seed):
        rng = Draw(seed)
        pools = _monomial_pools(QUERY_GENS, 3)
        small = pools[1] + pools[2]
        lie_pool = [m.factors[0] for t in (1, 2, 3) for m in pools[t] if m.sym_degree == 1]
        # pool index = popularity rank; kinds and input sizes rotate with the
        # rank, so every seed puts the same kinds and sizes in the same places
        self.pool = []
        for k in range(QUERY_POOL):
            kind = QUERY_KINDS[k % len(QUERY_KINDS)]
            r = k // len(QUERY_KINDS)
            if kind in ("bracket", "star"):
                texts = (_element_text(rng, small, 1 + r % 2),
                         _element_text(rng, small, 1 + (r // 2) % 2))
                param = 1 + r % 2
            elif kind == "bp":
                # single monomials, so the component identities apply
                texts = (_element_text(rng, small, 1), _element_text(rng, small, 1))
                param = r % 3
            elif kind == "e":
                texts, param = (_element_text(rng, pools[1 + r % 3], 2),), None
            elif kind == "einv":
                words = [_word_text(rng, 1 + (r + i) % 4) for i in range(1 + r % 2)]
                texts = (" - ".join(f"{rng.value.randint(1, 3)}*{w}" for w in words),)
                param = None
            elif kind == "ncembed":
                word = "".join(str(rng.shape.randint(1, QUERY_GENS)) for _ in range(1 + r % 4))
                texts, param = (word,), r % 3
            else:
                texts, param = (_lie_text(rng, lie_pool, 1 + r % 2),), None
            self.pool.append((kind, texts, param))
        # untimed warm-up: every request once, cold
        for request in self.pool:
            _serve(request)
        weights = [1 / (rank + 1) ** QUERY_ZIPF for rank in range(QUERY_POOL)]
        draws = rng.shape.choices(range(QUERY_POOL), weights=weights, k=QUERY_DRAWS)
        rng.value.shuffle(draws)
        self.ops = [Op(self.pool[i][0], "", _serve, (self.pool[i],)) for i in draws]

    def check(self, results):
        # each distinct request is checked once; every repeat of it must
        # return an equal result
        first = {}
        bad = []
        for i, op, res in _completed(self.ops, results):
            key = id(op.args[0])
            if key not in first:
                first[key] = (res[0], self._check_one(op.args[0], *res))
            expected, ok = first[key]
            if not ok or res[0] != expected:
                bad.append(i)
        return bad

    @staticmethod
    def _check_one(request, result, data, text):
        kind, texts, param = request
        n = QUERY_GENS
        tensor = isinstance(result, pe.TensorElement)
        if tensor:
            if exprparse.tensor_from_json(data) != result:
                return False
            if exprparse.parse(text, n, mode="tensor") != result:
                return False
        else:
            if exprparse.poisson_from_json(data) != result:
                return False
            if exprparse.parse(text, n) != result:
                return False
        if kind == "einv":
            return pe.symmetrize(result) == exprparse.parse(texts[0], n, mode="tensor")
        if kind == "ncembed":
            word = pe.TensorElement.word(_word_of(texts[0]))
            return result == pe.e_inverse(word).star_truncate(param)
        args = [exprparse.parse(t, n) for t in texts]
        if kind == "bracket":
            return pe.poisson_bracket(args[1], args[0]) == -result
        if kind == "bp":
            if param == 0:
                return result == pe.multiply(args[0], args[1])
            if param == 1:
                return result == Fraction(1, 2) * pe.poisson_bracket(args[0], args[1])
            return result == pe.star_component(args[1], args[0], 2)
        if kind == "star":
            full = pe.star_product(args[0], args[1])
            if pe.symmetrize(full) != pe.symmetrize(args[0]) * pe.symmetrize(args[1]):
                return False
            return result == full.star_truncate(param)
        if kind == "e":
            return pe.e_inverse(result) == args[0]
        lie = pe.LieElement({m.factors[0]: c for m, c in args[0].terms.items()})
        return pe.rewrite_in_basis(result, n) == lie

    def extra_check(self):
        return None

    def canonical(self, op, res):
        return json.dumps(res[1], sort_keys=True) + "\n" + res[2]


WORKLOADS = {w.name: w for w in (Star, Window, Presented, Queries)}
