"""Command-line front end.

Each subcommand maps onto one library operation; ElementJSON output is
available everywhere via --json.  Exit codes: 0 success, 1 domain error,
2 parse error, 3 failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import acceptance
from .envelope import EnvelopePresentation, envelope_truncated, gap_witness
from .exprparse import (
    ParseError,
    _as_lie,
    format_poisson,
    format_tensor,
    parse,
    poisson_to_json,
    tensor_to_json,
)
from .filtration import (
    TruncatedAlgebra,
    commutator_filtration,
    nil_poisson_filtration,
)
from .freelie import expand_to_tensor, lyndon_basis
from .freepoisson import e_inverse, poisson_bracket, star_component, symmetrize
from .quantize import QuantizedAlgebra, graded_of_Q, nc_embed, truncated_product


def _emit(args, text, payload):
    if args.json:
        print(json.dumps(payload, indent=1))
    else:
        print(text)


def _poisson_out(args, element):
    _emit(args, format_poisson(element), poisson_to_json(element))


def _tensor_out(args, element):
    _emit(args, format_tensor(element), tensor_to_json(element))


def cmd_lyndon(args):
    rows = []
    for degree, elements in enumerate(lyndon_basis(args.n, args.d)):
        for b in elements:
            rows.append({"word": list(b.word), "star_degree": degree})
    text = "\n".join(
        "".join(str(i) for i in r["word"]) + f"  star_degree={r['star_degree']}"
        for r in rows
    )
    _emit(args, text, {"basis": rows})
    return 0


def cmd_bracket(args):
    a = parse(args.expr[0], args.n)
    b = parse(args.expr[1], args.n)
    _poisson_out(args, poisson_bracket(a, b))
    return 0


def cmd_expand(args):
    a = _as_lie(parse(args.expr, args.n).terms)
    if a is None:
        print("error: expression is not a Lie element", file=sys.stderr)
        return 1
    _tensor_out(args, expand_to_tensor(a))
    return 0


def cmd_e(args):
    _tensor_out(args, symmetrize(parse(args.expr, args.n)))
    return 0


def cmd_einv(args):
    _poisson_out(args, e_inverse(parse(args.expr, args.n, mode="tensor")))
    return 0


def cmd_bp(args):
    a = parse(args.expr[0], args.n)
    b = parse(args.expr[1], args.n)
    _poisson_out(args, star_component(a, b, args.p))
    return 0


def cmd_star(args):
    alg = QuantizedAlgebra(args.n, args.d)
    a = parse(args.expr[0], args.n)
    b = parse(args.expr[1], args.n)
    _poisson_out(args, truncated_product(alg, a, b))
    return 0


def _read_presentation(path, d, N):
    with open(path) as fp:
        lines = [
            (number, line.strip())
            for number, line in enumerate(fp, 1)
            if line.strip() and not line.strip().startswith("#")
        ]
    header = lines[0][1].split() if lines else []
    count = header[1] if len(header) == 2 and header[0] == "gens" else ""
    if not (count.isascii() and count.isdigit()):
        raise ValueError("presentation file must start with 'gens N'")
    n_gens = int(count)
    relations = []
    for number, line in lines[1:]:
        try:
            relations.append(parse(line, n_gens))
        except ParseError as exc:
            raise ParseError(f"{exc.message} on line {number}", exc.position) from None
    return EnvelopePresentation(n_gens=n_gens, relations=tuple(relations), d=d, N=N)


def cmd_envelope(args):
    pres = _read_presentation(args.file, args.d, args.N)
    pieces = envelope_truncated(pres)
    rows = [
        {
            "star_degree": p.star_degree,
            "ambient": len(p.ambient_basis),
            "ideal_rank": len(p.ideal_span),
            "quotient_rank": p.quotient_rank,
            "exact": p.exact,
        }
        for p in pieces
    ]
    text = "\n".join(
        f"star_degree {r['star_degree']}: quotient_rank={r['quotient_rank']} "
        f"(ambient {r['ambient']}, ideal {r['ideal_rank']}, "
        f"{'exact' if r['exact'] else 'lower-bound'})"
        for r in rows
    )
    _emit(args, text, {"pieces": rows})
    return 0


def cmd_gap_witness(args):
    side, naive = gap_witness()
    text = (
        f"envelope side: {format_poisson(side)}; "
        f"naive image: {format_poisson(naive)} "
        f"[{'nonzero' if not naive.is_zero() else 'zero'}]"
    )
    _emit(
        args,
        text,
        {
            "envelope_side": poisson_to_json(side),
            "naive_image": poisson_to_json(naive),
            "naive_nonzero": not naive.is_zero(),
        },
    )
    return 0


def cmd_filtration(args):
    with open(args.file) as fp:
        alg = TruncatedAlgebra.load(fp)
    chain = commutator_filtration(alg)
    payload = {
        "commutator_ranks": chain.ranks(),
        "nilcommutative": chain.stable_is_zero,
    }
    lines = [
        "commutator filtration ranks: " + " ".join(map(str, chain.ranks())),
        f"nilcommutative: {'yes' if chain.stable_is_zero else 'no (stable nonzero)'}",
    ]
    if alg.bracket is not None:
        pchain = nil_poisson_filtration(alg)
        payload["nil_poisson_ranks"] = pchain.ranks()
        payload["nil_poisson_vanishes"] = pchain.stable_is_zero
        lines.append(
            "nil-Poisson filtration ranks: " + " ".join(map(str, pchain.ranks()))
        )
    _emit(args, "\n".join(lines), payload)
    return 0


def cmd_graded(args):
    alg = QuantizedAlgebra(args.n, args.d)
    reports = graded_of_Q(alg, args.N)
    rows = [
        {
            "n": r.n,
            "graded_rank": r.graded_rank,
            "envelope_rank": r.envelope_rank,
            "matches": r.matches,
        }
        for r in reports
    ]
    text = "\n".join(
        f"n={r['n']}: graded_rank={r['graded_rank']} "
        f"envelope_rank={r['envelope_rank']} "
        f"{'ok' if r['matches'] else 'MISMATCH'}"
        for r in rows
    )
    _emit(args, text, {"pieces": rows})
    return 0 if all(r["matches"] for r in rows) else 1


def cmd_ncembed(args):
    alg = QuantizedAlgebra(args.n, args.d)
    # "1,12" is the letters 1 and 12; without a comma each digit is a letter
    pieces = args.word.split(",") if "," in args.word else args.word
    try:
        word = tuple(map(int, pieces))
    except ValueError:
        raise ValueError(f"word {args.word!r}: letters must be integers") from None
    _poisson_out(args, nc_embed(alg, word))
    return 0


def cmd_verify(args):
    names = [args.suite] if args.suite else None
    results = acceptance.run(names)
    failed = 0
    payload = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if not args.json:
            print(f"{status} {r.name}: {r.detail}")
        payload.append({"name": r.name, "passed": r.passed, "detail": r.detail})
        failed += 0 if r.passed else 1
    if args.json:
        print(json.dumps({"results": payload, "failed": failed}, indent=1))
    return 0 if failed == 0 else 3


def build_parser():
    ap = argparse.ArgumentParser(
        prog="poissonenv",
        description=(
            "Exact computer algebra for free Lie/Poisson algebras, PBW star "
            "products, Poisson envelopes and filtrations."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", help="emit JSON output")
        return p

    p = add("lyndon", cmd_lyndon, help="list the Lyndon basis")
    p.add_argument("-n", type=int, required=True, help="number of generators")
    p.add_argument("-d", type=int, required=True, help="maximum star degree")

    p = add("bracket", cmd_bracket, help="Poisson bracket of two expressions")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("expr", nargs=2)

    p = add("expand", cmd_expand, help="expand a Lie element in the tensor algebra")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("expr")

    p = add("e", cmd_e, help="PBW symmetrization into the tensor algebra")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("expr")

    p = add("einv", cmd_einv, help="inverse symmetrization of a tensor expression")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("expr")

    p = add("bp", cmd_bp, help="star-product component B_p")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("expr", nargs=2)

    p = add("star", cmd_star, help="truncated star product at star degree <= d")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("expr", nargs=2)

    p = add("envelope", cmd_envelope, help="windowed Poisson envelope ranks")
    p.add_argument("file")
    p.add_argument("-d", type=int, required=True, help="maximum star degree")
    p.add_argument("-N", type=int, required=True, help="polynomial degree window")

    add("gap-witness", cmd_gap_witness, help="the naive-rule counterexample")

    p = add("filtration", cmd_filtration, help="filtrations of a structure-constant algebra")
    p.add_argument("file")

    p = add("graded", cmd_graded, help="graded ranks of the quantized algebra")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-N", type=int, required=True)

    p = add("ncembed", cmd_ncembed, help="embed a noncommutative word")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("word")

    p = add("verify", cmd_verify, help="run the acceptance suite")
    p.add_argument("--suite", help="run only the named check (prefix allowed)")

    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError, OSError, KeyError) as exc:
        # an OverflowError is a count too large for a range, such as -n 10**20
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
