"""Replay hand mutations of the library against its tests.

Each entry of ``MUTANTS`` names a file under ``src/poissonenv``, an exact
source text that occurs there once, its replacement, the tests that should
tell the two apart (pytest arguments, relative to the repository root) and
the expected verdict: killed, or equivalent, with a one-line reason why no
test can tell the mutant from the program.  For each entry the tool copies
``src`` and ``tests`` into a temporary directory, applies the replacement
there, runs the tests with a timeout and prints what it sees:

- killed: a selected test failed, or the run passed the timeout;
- survived: every selected test passed.

Hypothesis runs with a fixed seed, so a verdict replays.  Each "killed"
entry is also killed by a fixed test or an ``@example`` of its selection,
so its verdict does not hang on the random examples that a given
hypothesis release draws from that seed.  A listed verdict
that the run does not give is a mismatch: a "killed" entry that survives is
a fault the tests no longer see, and a survivor needs a reason to be
listed as equivalent.  The tool exits with status 1 on any mismatch.
Before the mutants, the union of the selected tests runs once on the
unmutated copy, and the tool stops with status 2 if it fails.

    python3 tools/mutants.py

Only the standard library; the tests need pytest and hypothesis, as the
Tier-1 suite does.  The runs are not part of Tier-1: the Tier-1 test
``tests/test_mutants.py`` checks only that every source text still occurs
exactly once in its file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds per pytest run; the slowest entry takes about 20


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/poissonenv
    source: str
    replacement: str
    tests: tuple  # pytest arguments
    equivalent: str | None = None  # the reason, for an equivalent mutant


_VALIDATION = ("tests/test_filtration.py",)
# the window chains against the Hilbert series, the two-sided closure and
# the star tails
_GRADED = "hilbert or left_products or deep_windows or window_reports"
# the window's ranks against their references
_RANKS = "window_ranks or window_reports or deep_windows"

MUTANTS = [
    # -- one coefficient reader --------------------------------------------
    Mutant(
        "reader-int-as-fraction",
        "linalg.py",
        "        return int(c)\n",
        "        return Fraction(c)\n",
        ("tests/test_coefficients.py",),
    ),
    Mutant(
        "reader-no-minus-clause",
        "linalg.py",
        'c.isdecimal() or (c[:1] == "-" and c[1:].isdecimal())',
        "c.isdecimal()",
        ("tests/test_coefficients.py", "tests/test_filtration.py"),
        equivalent="Fraction reads '-' and digits to the same int, and refuses"
        " an over-long one with int's message",
    ),
    Mutant(
        "loader-takes-a-bool",
        "filtration.py",
        "                    if type(c) is bool:\n",
        "                    if False:\n",
        ("tests/test_filtration.py", "-k", "json"),
    ),
    # -- one coefficient printer -------------------------------------------
    Mutant(
        "printer-repr",
        "exprparse.py",
        "        text = str(c)\n",
        "        text = repr(c)\n",
        ("tests/test_parser_reference.py",),
    ),
    Mutant(
        "tensor-json-raw-coefficient",
        "exprparse.py",
        '{"coeff": str(terms[w]), "word": word}',
        '{"coeff": terms[w], "word": word}',
        ("tests/test_parser.py",),
    ),
    # -- one transposed-pair scan ------------------------------------------
    Mutant(
        "asymmetry-sign",
        "filtration.py",
        "table.get(ij[::-1], {}).items(), -sign)",
        "table.get(ij[::-1], {}).items(), sign)",
        _VALIDATION,
    ),
    Mutant(
        "asymmetry-names-the-key",
        "filtration.py",
        "            min(ij, ij[::-1])\n",
        "            ij\n",
        ("tests/test_filtration.py", "-k", "only_key_is_its_swap"),
    ),
    # -- zeros leave a table once ------------------------------------------
    Mutant(
        "integer-table-drops-zeros",
        "filtration.py",
        "(scale // c.denominator) for k, c in row.items()}",
        "(scale // c.denominator) for k, c in row.items() if c}",
        _VALIDATION,
        equivalent="_stored strips the zeros before _integer_table reads a table",
    ),
    Mutant(
        "integer-table-drops-empty-rows",
        "filtration.py",
        "        for key, row in table.items()\n    }, scale",
        "        for key, row in table.items()\n        if row\n    }, scale",
        _VALIDATION,
        equivalent="_stored strips the empty rows before _integer_table reads a"
        " table",
    ),
    # -- one rank routine ----------------------------------------------------
    Mutant(
        "nc-embedding-one-column",
        "acceptance.py",
        "{index.setdefault(m, len(index)): c for m, c in p.terms.items()}",
        "{index.setdefault(m, 0): c for m, c in p.terms.items()}",
        ("tests/test_acceptance.py", "-k", "nc-embedding"),
    ),
    # -- the quantized window algebra's pairs ------------------------------
    Mutant(
        "quantized-pairs-past-the-bound",
        "quantize.py",
        "            if totals[i] + totals[j] > max_total:\n",
        "            if totals[i] + totals[j] > max_total + 1:\n",
        ("tests/test_quantize.py", "-k", "quantized_window_algebra"),
    ),
    Mutant(
        "quantized-pairs-no-break",
        "quantize.py",
        "                break  # the basis goes by total, so every later j is too\n"
        "            if row := win._row(i, j):",
        "                continue\n            if row := win._row(i, j):",
        ("tests/test_quantize.py", "-k", "quantized_window_algebra"),
        equivalent="the pairs past the bound are skipped either way; the break"
        " only ends the row's loop early",
    ),
    # -- validation's candidate pairs ------------------------------------------
    Mutant(
        "validate-no-associativity-pairs",
        "filtration.py",
        "                js.update(Pv_at.get(m, ()))\n",
        "                pass\n",
        _VALIDATION,
    ),
    Mutant(
        "validate-associativity-through-the-unit",
        "filtration.py",
        "            js.discard(unit)\n",
        "",
        _VALIDATION,
        equivalent="with the unit law checked first, every pair through the unit"
        " is associative, so visiting it reports nothing",
    ),
    Mutant(
        "validate-bracket-meets-B",
        "filtration.py",
        "js.update(B_at.get(m, ()), P_at.get(m, ()))",
        "js.update(P_at.get(m, ()))",
        _VALIDATION,
    ),
    Mutant(
        "validate-bracket-meets-P",
        "filtration.py",
        "js.update(B_at.get(m, ()), P_at.get(m, ()))",
        "js.update(B_at.get(m, ()))",
        _VALIDATION,
    ),
    Mutant(
        "validate-packed-bracket-meets-Bi",
        "filtration.py",
        "js.update(Bv_at.get(m, ()), Pv_at.get(m, ()))",
        "js.update(Pv_at.get(m, ()))",
        _VALIDATION,
    ),
    Mutant(
        "validate-packed-product-meets-Bi",
        "filtration.py",
        "js.update(Bv_at.get(m, ()), Pv_at.get(m, ()))",
        "js.update(Bv_at.get(m, ()))",
        _VALIDATION,
    ),
    # -- the key-join product and the legs -----------------------------------
    Mutant(
        "product-single-term-swapped",
        "linalg.py",
        "return {join(k1, k2): canonical(c1 * c2)}",
        "return {join(k2, k1): canonical(c1 * c2)}",
        ("tests/test_linalg.py", "-k", "product"),
    ),
    Mutant(
        "product-single-term-not-canonical",
        "linalg.py",
        "return {join(k1, k2): canonical(c1 * c2)}",
        "return {join(k1, k2): c1 * c2}",
        ("tests/test_linalg.py", "-k", "product"),
    ),
    Mutant(
        "product-overwrites-a-collision",
        "linalg.py",
        "merge(out, [(join(k1, k2), c2) for k2, c2 in b.items()], c1)",
        "out.update((join(k1, k2), c1 * c2) for k2, c2 in b.items())",
        ("tests/test_linalg.py", "-k", "product"),
    ),
    Mutant(
        "legs-without-multiplicity",
        "envelope.py",
        "merge(out, [((rest, f), c)])",
        "out[(rest, f)] = c",
        ("tests/test_envelope.py", "-k", "legs"),
    ),
    # -- the window algebra's pair rule ----------------------------------------
    Mutant(
        "window-bracket-at-star-d",
        "quantize.py",
        "if star < d and j > i:",
        "if star <= d and j > i:",
        ("tests/test_quantize.py", "-k", "window_algebra"),
    ),
    Mutant(
        "window-bracket-on-the-diagonal",
        "quantize.py",
        "if star < d and j > i:",
        "if star < d and j >= i:",
        ("tests/test_quantize.py", "-k", "window_algebra"),
    ),
    Mutant(
        "window-no-total-stop",
        "quantize.py",
        "            if m1.total_degree + m2.total_degree > max_total:\n",
        "            if False:\n",
        ("tests/test_quantize.py", "-k", "window_algebra"),
    ),
    Mutant(
        "window-mirror-not-negated",
        "quantize.py",
        "bracket[(j, i)] = {k: -c for k, c in row.items()}",
        "bracket[(j, i)] = row",
        ("tests/test_quantize.py", "-k", "window_algebra"),
    ),
    # -- one normal form per window monomial ----------------------------------
    Mutant(
        "window-row-memo-never-filled",
        "quantize.py",
        "row = rows[m] = {gindex",
        "row = {gindex",
        ("tests/test_quantize.py", "-k", "window_algebra"),
    ),
    Mutant(
        "window-bracket-row-as-product-row",
        "quantize.py",
        "linear(_bracket_monomials(m1, m2), row_of)",
        "row_of(PoissonMonomial.of(m1.factors + m2.factors))",
        ("tests/test_quantize.py", "-k", "window_algebra"),
    ),
    Mutant(
        "window-row-not-reduced",
        "quantize.py",
        "normal = ech.normal_form({index[m]: 1})",
        "normal = {index[m]: 1}",
        ("tests/test_quantize.py", "-k", "window_algebra"),
    ),
    # -- check 13's one endomorphism loop --------------------------------------
    Mutant(
        "endo-check-always-brackets",
        "acceptance.py",
        "use_bracket=alg.bracket is not None",
        "use_bracket=True",
        ("tests/test_acceptance.py", "-k", "endo"),
    ),
    # -- the window's product rows and ranks ------------------------------------
    Mutant(
        "window-cut-takes-every-row",
        "quantize.py",
        "                    if col not in above:\n",
        "                    if True:\n",
        ("tests/test_quantize.py", "-k", _RANKS),
        equivalent="a row whose pivot F_{n+1} holds is already in the cut, so"
        " adding it again leaves the rank",
    ),
    Mutant(
        "window-rank-off-by-one",
        "quantize.py",
        "ranks[n] = len(rows) - cut.rank",
        "ranks[n] = len(rows) - cut.rank - (n == 1)",
        ("tests/test_quantize.py", "-k", _RANKS),
    ),
    Mutant(
        "row-total-clause-inclusive",
        "quantize.py",
        "totals[i] + totals[j] > self.max_total",
        "totals[i] + totals[j] >= self.max_total",
        ("tests/test_quantize.py", "-k", "u_window"),
    ),
    Mutant(
        "row-star-clause-one-past",
        "quantize.py",
        "stars[i] + stars[j] > self.d:",
        "stars[i] + stars[j] > self.d + 1:",
        ("tests/test_quantize.py", "-k", "u_window"),
    ),
    Mutant(
        "submultisets-room-strict",
        "freepoisson.py",
        "if k + t <= room",
        "if k + t < room",
        ("tests/test_freepoisson.py",),
    ),
    Mutant(
        "normal-files-least-as-is",
        "pbw.py",
        "(factors, least if least > 1 else 1)",
        "(factors, least)",
        ("tests/test_capped.py", "-k", "normal_table"),
    ),
    # -- the star-ideal inclusion count ----------------------------------------
    Mutant(
        "star-power-room",
        "quantize.py",
        "min(max_total, letters + m - 1)",
        "min(max_total, letters + m)",
        ("tests/test_quantize.py", "-k", "star_power or inclusion or star_ideal"),
    ),
    Mutant(
        "star-power-plus-stars",
        "quantize.py",
        "for q in range(min(d, m - 1) + 1):",
        "for q in range(min(d, m - 1)):",
        ("tests/test_quantize.py", "-k", "star_power or inclusion or star_ideal"),
    ),
    # -- the kept Echelon basis ------------------------------------------------
    Mutant(
        "basis-kept-past-a-rank-raise",
        "linalg.py",
        "        self.rows[col] = row\n        self._basis = None\n",
        "        self.rows[col] = row\n",
        ("tests/test_linalg.py", "-k", "basis or copy"),
    ),
    # -- the graded chain's one-sided closure and its F_0 -----------------------
    Mutant(
        "graded-closure-from-nothing",
        "filtration.py",
        "below = span_closure(below.copy(), maps, seeds)",
        "below = span_closure(Echelon(), maps, seeds)",
        ("tests/test_window_hilbert.py", "tests/test_quantize.py", "-k", _GRADED),
    ),
    Mutant(
        "f0-without-its-last-unit-row",
        "filtration.py",
        "pieces = [Echelon.identity(alg.dim)]",
        "pieces = [Echelon.identity(alg.dim - 1)]",
        ("tests/test_quantize.py", "-k", "unit_rows"),
    ),
    # -- star tables as ints over one denominator -------------------------------
    Mutant(
        "int-sum-first-denominator",
        "freepoisson.py",
        "    den = lcm(*[d for _, _, d in terms])\n",
        "    den = terms[0][2]\n",
        ("tests/test_freepoisson.py", "-k", "oracle or star_component"),
    ),
    Mutant(
        "pair-table-drops-the-right-denominator",
        "freepoisson.py",
        "d1 * c2.denominator * den",
        "d1 * den",
        ("tests/test_freepoisson.py", "-k", "oracle or star_component"),
    ),
    Mutant(
        "star-table-not-reduced",
        "freepoisson.py",
        "            g = gcd(den, *ints.values())\n",
        "            g = 1\n",
        ("tests/test_freepoisson.py", "-k", "lowest_terms"),
    ),
    Mutant(
        "empty-capped-table-over-zero",
        "freepoisson.py",
        "_EMPTY_TABLE = ({}, 1)",
        "_EMPTY_TABLE = ({}, 0)",
        ("tests/test_capped.py",),
    ),
    Mutant(
        "single-table-sum-drops-the-coefficient",
        "freepoisson.py",
        "        return {m: quotient(v * n, den) for m, v in items}\n",
        "        return {m: quotient(v, den) for m, v in items}\n",
        ("tests/test_freepoisson.py", "-k", "star_component"),
    ),
    Mutant(
        "nc-embed-first-letter-twice",
        "quantize.py",
        "    for i in w[1:]:\n",
        "    for i in w:\n",
        ("tests/test_quantize.py", "-k", "nc_embed"),
    ),
    Mutant(
        "nc-embed-final-division-skipped",
        "quantize.py",
        "    return PoissonElement._of(_table_sum(terms))\n",
        "    return PoissonElement._of(_int_sum(terms)[0])\n",
        ("tests/test_quantize.py", "-k", "nc_embed"),
    ),
    Mutant(
        "nc-embed-running-denominator-dropped",
        "quantize.py",
        "terms.append((c, ints.items(), d * den))",
        "terms.append((c, ints.items(), d))",
        ("tests/test_quantize.py", "-k", "nc_embed"),
    ),
    Mutant(
        "from-word-interns-a-float",
        "freelie.py",
        "                if type(i) is not int:\n",
        "                if False:\n",
        ("tests/test_interning.py", "-k", "refused"),
    ),
    Mutant(
        "graded-closure-by-right-products",
        "filtration.py",
        "return [lambda v, b=b: self.mul(b, v) for b in self.generators()]",
        "return [lambda v, b=b: self.mul(v, b) for b in self.generators()]",
        ("tests/test_window_hilbert.py", "tests/test_quantize.py", "-k", _GRADED),
        equivalent="the mirror lemma: x v = v x + [x, v], with [x, v] in the piece"
        " below, so right products close each piece as well",
    ),
]


def _pytest(cwd, args):
    """(passed, seconds) of one pytest run in ``cwd`` on its own ``src``;
    a run past ``TIMEOUT`` counts as failed."""
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    cmd += ["--hypothesis-seed=0", *args]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return done.returncode == 0, time.perf_counter() - start


def _copy(dest):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)


def main():
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        tests = []
        for m in MUTANTS:
            # one run per distinct selection: a -k expression holds for its files only
            if m.tests not in tests:
                tests.append(m.tests)
        for selection in tests:
            passed, _ = _pytest(base, selection)
            if not passed:
                print(f"unmutated tests fail: {' '.join(selection)}")
                return 2
        mismatches = 0
        for m in MUTANTS:
            work = Path(tmp) / m.name
            shutil.copytree(base, work)
            target = work / "src" / "poissonenv" / m.path
            text = target.read_text(encoding="utf-8")
            if text.count(m.source) != 1:
                print(f"{m.name}: source text occurs {text.count(m.source)} times")
                mismatches += 1
                continue
            target.write_text(text.replace(m.source, m.replacement), encoding="utf-8")
            passed, seconds = _pytest(work, m.tests)
            shutil.rmtree(work)
            got = "survived" if passed else "killed"
            want = "survived" if m.equivalent else "killed"
            if got != want:
                verdict = f"{got}, listed as {want}: MISMATCH"
            else:
                verdict = f"survived, equivalent: {m.equivalent}" if passed else got
            print(f"{m.name}: {verdict} ({seconds:.1f} s)", flush=True)
            mismatches += got != want
    print(f"{len(MUTANTS) - mismatches} of {len(MUTANTS)} entries gave their listed verdict")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
