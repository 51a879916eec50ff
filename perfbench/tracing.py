"""Span tracing around poissonenv's layer entry points, installed from outside.

``install`` replaces each traced function or method by a wrapper, in every
``poissonenv`` module that binds it, so calls made inside the library (a
module calling its own global, or a name imported from another module) are
traced as well as the benchmark's own calls.

A span is (name, start, end, parent).  Self time is the span's duration minus
the time its child spans cover.  The window workload opens hundreds of
thousands of spans, so each span is folded into its (name, tag) total as it
closes, with its duration added to its parent's covered time, instead of
being stored one by one; the worker writes the totals out at the end.  The
operation spans themselves are the per-operation latencies the worker
records anyway.  ``tag`` is the input size of the running operation, set by
the worker; it splits the totals into the scaling curves.

Per-element arithmetic called millions of times (``TruncatedAlgebra.mul``,
``UWindow.mono_mul``) is deliberately left unwrapped: its time counts as self
time of the entry point that called it.
"""

import sys
from time import perf_counter

# (span name, module, attribute path).  A dotted path names a method.
ENTRY_POINTS = [
    ("linalg.echelon_add", "linalg", "Echelon.add"),
    ("linalg.span_solve", "linalg", "SpanSolver.__init__"),
    ("linalg.span_solve", "linalg", "SpanSolver.solve"),
    ("freelie.bracket_basis", "freelie", "bracket_basis"),
    ("freelie.rewrite_in_basis", "freelie", "rewrite_in_basis"),
    ("freelie.expand_to_tensor", "freelie", "expand_to_tensor"),
    ("pbw.normal", "pbw", "normal"),
    ("pbw.sym_pbw", "pbw", "sym_pbw"),
    ("pbw.symmetrize_factors", "pbw", "symmetrize_factors"),
    ("pbw.e_inverse_word", "pbw", "e_inverse_word"),
    ("freepoisson.star_product", "freepoisson", "star_product"),
    ("freepoisson.star_component", "freepoisson", "star_component"),
    ("freepoisson.poisson_bracket", "freepoisson", "poisson_bracket"),
    ("freepoisson.multiply", "freepoisson", "multiply"),
    ("freepoisson.symmetrize", "freepoisson", "symmetrize"),
    ("freepoisson.e_inverse", "freepoisson", "e_inverse"),
    ("quantize.uwindow_mul", "quantize", "UWindow.mul"),
    ("quantize.uwindow_filtration", "quantize", "UWindow.filtration"),
    ("quantize.uwindow_poisson_span", "quantize", "UWindow.poisson_span"),
    ("quantize.ideal_close", "quantize", "UWindow.ideal_close"),
    ("quantize.star_ideal_check", "quantize", "star_ideal_topology_check"),
    ("quantize.truncated_product", "quantize", "truncated_product"),
    ("quantize.window_algebra_build", "quantize", "envelope_window_algebra"),
    ("quantize.window_algebra_build", "quantize", "quantized_window_algebra"),
    ("quantize.window_algebra_build", "quantize", "poisson_window_algebra"),
    ("filtration.algebra_init", "filtration", "TruncatedAlgebra.__init__"),
    ("filtration.filtration", "filtration", "commutator_filtration"),
    ("filtration.filtration", "filtration", "nil_poisson_filtration"),
    ("filtration.associated_graded", "filtration", "associated_graded"),
    ("filtration.endo_contraction", "filtration", "endo_contraction_check"),
    ("filtration.exp_endo", "filtration", "exp_nilpotent_endo"),
    ("filtration.exp_endo", "filtration", "hamiltonian_derivation"),
    ("envelope.envelope_truncated", "envelope", "envelope_truncated"),
    ("envelope.ideal_block", "envelope", "ideal_block"),
    ("envelope.p1_rank_check", "envelope", "p1_rank_check"),
    ("envelope.local_model_bracket", "envelope", "local_model_bracket"),
    ("exprparse.parse", "exprparse", "parse"),
    ("exprparse.format", "exprparse", "format_poisson"),
    ("exprparse.format", "exprparse", "format_tensor"),
    ("exprparse.format", "exprparse", "poisson_to_json"),
    ("exprparse.format", "exprparse", "tensor_to_json"),
    ("exprparse.format", "exprparse", "poisson_from_json"),
    ("exprparse.format", "exprparse", "tensor_from_json"),
]


def _coeff_bits(q):
    return max(q.numerator.bit_length(), q.denominator.bit_length())


class Tracer:
    """Collects span totals; one instance per traced process."""

    def __init__(self):
        self.tag = ""  # input-size tag of the running operation
        self.totals = {}  # (name, tag) -> [calls, self seconds, total seconds]
        self.echelon_grew = 0
        self.coeff_max_bits = 0
        self.star_pairs = 0
        self.dim_cubed = 0
        # child-time accumulators of the open spans; the bottom slot is the
        # time covered by root spans
        self._stack = [0.0]

    def _close(self, name, start):
        dur = perf_counter() - start
        child = self._stack.pop()
        slot = self.totals.get((name, self.tag))
        if slot is None:
            slot = self.totals[(name, self.tag)] = [0, 0.0, 0.0]
        slot[0] += 1
        slot[1] += dur - child
        slot[2] += dur
        self._stack[-1] += dur

    def op(self, name, fn, *args):
        """Run ``fn(*args)`` as a root span; returns its result."""
        self._stack.append(0.0)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._close("bench." + name, start)

    def wrap(self, name, fn):
        stack = self._stack
        close = self._close

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, start)

        if name == "linalg.echelon_add":

            def traced_add(ech, row):
                grew = traced(ech, row)
                if grew:
                    self.echelon_grew += 1
                    # a new pivot column is inserted last in the row dict
                    new_row = next(reversed(ech.rows.values()))
                    bits = max(map(_coeff_bits, new_row.values()))
                    if bits > self.coeff_max_bits:
                        self.coeff_max_bits = bits
                return grew

            return traced_add
        if name == "freepoisson.star_product":

            def traced_star(a, b):
                self.star_pairs += len(a.terms) * len(b.terms)
                return traced(a, b)

            return traced_star
        if name == "filtration.algebra_init":

            def traced_init(alg, dim, *args, **kwargs):
                validate = kwargs.get("validate", args[4] if len(args) > 4 else True)
                if validate:
                    self.dim_cubed += dim**3
                return traced(alg, dim, *args, **kwargs)

            return traced_init
        return traced

    def install(self):
        """Wrap every entry point in ENTRY_POINTS, wherever it is bound."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "poissonenv"]
        for name, module, path in ENTRY_POINTS:
            owner = sys.modules["poissonenv." + module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self.wrap(name, getattr(cls, attr)))
                continue
            original = getattr(owner, path)
            traced = self.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)

    def _sum(self, field, name, tag=None):
        return sum(v[field] for (n, t), v in self.totals.items()
                   if n == name and tag in (None, t))

    def calls(self, name):
        return self._sum(0, name)

    def self_s(self, name, tag=None):
        return self._sum(1, name, tag)

    def total_s(self, name, tag=None):
        """Span time including children: the scaling curves use it."""
        return self._sum(2, name, tag)

    def layer_self_s(self):
        """Self time summed per layer (the span name's first component)."""
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, _), (_, s, _) in self.totals.items():
            out[name.split(".")[0]] += s
        return out


def cache_sizes():
    """Entry counts of the memo caches the per-layer metrics read."""
    from poissonenv import freelie, freepoisson, pbw

    return {
        "bracket": len(freelie._BRACKET_CACHE),
        "star_mono": len(freepoisson._STAR_MONO_CACHE),
        "pbw": len(pbw._NORMAL_CACHE) + len(pbw._SYM_PBW_CACHE) + len(pbw._EINV_WORD_CACHE),
    }


LAYERS = ("linalg", "freelie", "pbw", "freepoisson", "quantize", "filtration",
          "envelope", "exprparse", "bench")


def _scaling():
    """span -> input-size tags of the scaling curves, which the star and the
    window workload fill."""
    import workloads

    window = [workloads.window_tag(n, d, N + 2 * d) for n, d, N in workloads.WINDOW_CONFIGS]
    return {
        "freepoisson.star_product": [f"deg{t}" for t in workloads.STAR_PAIRS],
        "quantize.uwindow_filtration": window,
    }


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [
        ("linalg.echelon_add.calls", "count", "lower"),
        ("linalg.echelon_add.self_s", "s", "lower"),
        ("linalg.echelon_add.useful_ratio", "ratio", "higher"),
        ("linalg.span_solve.self_s", "s", "lower"),
        ("linalg.coeff_max_bits", "bits", "lower"),
        ("freelie.bracket_basis.calls", "count", "lower"),
        ("freelie.bracket_basis.misses", "count", "lower"),
        ("freelie.bracket_basis.self_s", "s", "lower"),
        ("freelie.rewrite_in_basis.self_s", "s", "lower"),
        ("freelie.expand_to_tensor.self_s", "s", "lower"),
        ("pbw.normal.calls", "count", "lower"),
        ("pbw.normal.self_s", "s", "lower"),
        ("pbw.sym_pbw.self_s", "s", "lower"),
        ("pbw.symmetrize_factors.self_s", "s", "lower"),
        ("pbw.e_inverse_word.calls", "count", "lower"),
        ("pbw.e_inverse_word.self_s", "s", "lower"),
        ("pbw.cache_entries", "count", "lower"),
        ("freepoisson.star_product.calls", "count", "lower"),
        ("freepoisson.star_product.self_s", "s", "lower"),
        ("freepoisson.star_mono.hit_ratio", "ratio", "higher"),
        ("freepoisson.poisson_bracket.self_s", "s", "lower"),
        ("freepoisson.symmetrize.self_s", "s", "lower"),
        ("freepoisson.e_inverse.self_s", "s", "lower"),
        ("quantize.uwindow_mul.calls", "count", "lower"),
        ("quantize.uwindow_mul.self_s", "s", "lower"),
        ("quantize.uwindow_filtration.self_s", "s", "lower"),
        ("quantize.ideal_close.self_s", "s", "lower"),
        ("quantize.star_ideal_check.self_s", "s", "lower"),
        ("quantize.window_algebra_build.self_s", "s", "lower"),
        ("filtration.algebra_init.self_s", "s", "lower"),
        ("filtration.algebra_init.dim_cubed", "count", "lower"),
        ("filtration.filtration.self_s", "s", "lower"),
        ("filtration.associated_graded.self_s", "s", "lower"),
        ("filtration.endo_contraction.self_s", "s", "lower"),
        ("filtration.exp_endo.self_s", "s", "lower"),
        ("envelope.envelope_truncated.self_s", "s", "lower"),
        ("envelope.ideal_block.calls", "count", "lower"),
        ("envelope.ideal_block.self_s", "s", "lower"),
        ("envelope.p1_rank_check.self_s", "s", "lower"),
        ("envelope.local_model_bracket.self_s", "s", "lower"),
        ("exprparse.parse.self_s", "s", "lower"),
        ("exprparse.format.self_s", "s", "lower"),
    ]
    spec += [(f"layer.{layer}.self_s", "s", "lower") for layer in LAYERS]
    for kind in ("self_s", "total_s"):
        for span, tags in _scaling().items():
            spec += [(f"{span}.{kind}.{tag}", "s", "lower") for tag in tags]
    spec.append(("trace.overhead_s", "s", "lower"))
    return spec


def per_layer(tracer, before, after):
    """Per-layer metrics of one traced replication (all but trace.overhead_s)."""
    out = {}
    for name, _, _ in per_layer_spec():
        parts = name.split(".")
        if len(parts) == 3 and parts[0] != "layer":
            span = ".".join(parts[:2])
            if parts[2] == "calls":
                out[name] = tracer.calls(span)
            elif parts[2] == "self_s":
                out[name] = tracer.self_s(span)
    for span, tags in _scaling().items():
        for tag in tags:
            out[f"{span}.self_s.{tag}"] = tracer.self_s(span, tag)
            out[f"{span}.total_s.{tag}"] = tracer.total_s(span, tag)
    for layer, s in tracer.layer_self_s().items():
        out[f"layer.{layer}.self_s"] = s
    adds = tracer.calls("linalg.echelon_add")
    out["linalg.echelon_add.useful_ratio"] = tracer.echelon_grew / adds if adds else 0.0
    out["linalg.coeff_max_bits"] = tracer.coeff_max_bits
    out["freelie.bracket_basis.misses"] = after["bracket"] - before["bracket"]
    out["pbw.cache_entries"] = after["pbw"]
    fills = after["star_mono"] - before["star_mono"]
    pairs = tracer.star_pairs
    out["freepoisson.star_mono.hit_ratio"] = 1 - fills / pairs if pairs else 0.0
    out["filtration.algebra_init.dim_cubed"] = tracer.dim_cubed
    return out


def span_totals(tracer):
    """Every (span, tag) total, for the result file."""
    return [[name, tag, calls, self_s, total_s]
            for (name, tag), (calls, self_s, total_s) in sorted(tracer.totals.items())]
