import json
import sys
from fractions import Fraction

import pytest

from poissonenv.cli import main
from poissonenv.filtration import TruncatedAlgebra
from poissonenv.quantize import poisson_window_algebra


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lyndon_listing(capsys):
    code, out, _ = run_cli(capsys, "lyndon", "-n", "2", "-d", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("1 ")
    assert any(line.startswith("112") for line in lines)
    assert len(lines) == 5


def test_star_command(capsys):
    code, out, _ = run_cli(capsys, "star", "-n", "2", "-d", "1", "x1", "x2")
    assert code == 0
    assert out.strip() == "x1*x2 + 1/2*(12)"


def test_bracket_command(capsys):
    code, out, _ = run_cli(capsys, "bracket", "-n", "2", "x1", "x2")
    assert code == 0
    assert out.strip() == "(12)"


def test_expand_command(capsys):
    code, out, _ = run_cli(capsys, "expand", "-n", "2", "(12)")
    assert code == 0
    assert out.strip() == "x1*x2 - x2*x1"


def test_e_and_einv_commands(capsys):
    code, out, _ = run_cli(capsys, "e", "-n", "2", "x1*x2")
    assert code == 0
    assert out.strip() == "1/2*x1*x2 + 1/2*x2*x1"
    code, out, _ = run_cli(capsys, "einv", "-n", "2", "x1*x2")
    assert code == 0
    assert out.strip() == "x1*x2 + 1/2*(12)"


def test_bp_command(capsys):
    code, out, _ = run_cli(capsys, "bp", "-n", "2", "-p", "1", "x1*x1", "x2*x2")
    assert code == 0
    assert out.strip() == "2*x1*x2*(12)"


def test_gap_witness_text(capsys):
    code, out, _ = run_cli(capsys, "gap-witness")
    assert code == 0
    assert out.startswith("envelope side: 0; naive image: ")
    assert "[nonzero]" in out


def test_ncembed_json(capsys):
    code, out, _ = run_cli(capsys, "ncembed", "-n", "2", "-d", "1", "12", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "poisson"
    assert {"coeff": "1/2", "factors": [{"word": [1, 2]}]} in data["terms"]


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bracket", "-n", "2", "{x1,", "x2")
    assert code == 2
    assert "parse error" in err


def test_zero_denominator_is_a_parse_error(capsys):
    code, _, err = run_cli(capsys, "bracket", "-n", "2", "1/0", "x1")
    assert code == 2
    assert "zero denominator" in err


@pytest.mark.parametrize(
    "expr",
    [
        "x" + "1" * 5000,
        pytest.param(
            "1" * 5000,
            marks=pytest.mark.skipif(
                not hasattr(sys, "get_int_max_str_digits"),
                reason="no int conversion limit",
            ),
        ),
    ],
    ids=["generator", "literal"],
)
def test_an_overlong_digit_run_is_a_parse_error(capsys, expr):
    code, out, err = run_cli(capsys, "e", "-n", "2", expr)
    assert code == 2 and out == ""
    assert "at offset 0" in err


@pytest.mark.parametrize("expr, at", [("x1²", 2), ("2²", 1)])
def test_superscript_digit_is_a_parse_error(capsys, expr, at):
    code, out, err = run_cli(capsys, "e", "-n", "2", expr)
    assert code == 2 and out == ""
    assert f"unexpected character '²' at offset {at}" in err


@pytest.mark.parametrize(
    "word, image",
    [("1,12", "x1*x12"), ("12,1", "x1*x12"), ("12", "x1*x2"), ("1,2,2", "x1*x2*x2")],
)
def test_ncembed_reads_commas_as_letter_separators(capsys, word, image):
    # with a comma the letters are the comma-separated integers; without
    # one, each digit is a letter
    code, out, _ = run_cli(capsys, "ncembed", "-n", "12", "-d", "0", word)
    assert code == 0
    assert out.strip() == image


@pytest.mark.parametrize("word", ["1,x", "1,,2", "a", "1,"])
def test_ncembed_refuses_a_letter_that_is_not_an_integer(capsys, word):
    code, out, err = run_cli(capsys, "ncembed", "-n", "12", "-d", "0", word)
    assert code == 1 and out == ""
    assert f"word {word!r}" in err and "invalid literal" not in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "ncembed", "-n", "2", "-d", "1", "13")
    assert code == 1
    assert "error" in err


def test_envelope_command(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("gens 2\nx1*x1\n")
    code, out, _ = run_cli(capsys, "envelope", str(path), "-d", "1", "-N", "3")
    assert code == 0
    assert "star_degree 0" in out and "exact" in out


def test_envelope_command_refuses_a_negative_window(tmp_path, capsys):
    # with no relation to bound N from below, an empty window would answer
    # two pieces of rank 0
    path = tmp_path / "free.txt"
    path.write_text("gens 2\n")
    code, out, err = run_cli(capsys, "envelope", str(path), "-d", "1", "-N", "-1")
    assert code == 1
    assert out == ""
    assert err == "error: need window N >= 0, got -1\n"


def test_envelope_bad_file(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text("nonsense\n")
    code, _, err = run_cli(capsys, "envelope", str(path), "-d", "1", "-N", "2")
    assert code == 1


def test_filtration_command(tmp_path, capsys):
    path = tmp_path / "alg.json"
    with open(path, "w") as fp:
        poisson_window_algebra(2, 1, 3).dump(fp)
    code, out, _ = run_cli(capsys, "filtration", str(path))
    assert code == 0
    assert "commutator filtration ranks:" in out
    assert "nil-Poisson filtration ranks:" in out


def test_filtration_command_keeps_a_zero_bracket(tmp_path, capsys):
    # k[x]/(x^2) with a zero bracket is written as "bracket": []
    one = Fraction(1)
    product = {(0, 0): {0: one}, (0, 1): {1: one}, (1, 0): {1: one}}
    path = tmp_path / "dual.json"
    with open(path, "w") as fp:
        TruncatedAlgebra(2, ["1", "x"], 0, product, bracket={}).dump(fp)
    code, out, _ = run_cli(capsys, "filtration", str(path))
    assert code == 0
    assert "nil-Poisson filtration ranks: 2 0" in out
    code, out, _ = run_cli(capsys, "filtration", "--json", str(path))
    assert code == 0
    assert json.loads(out)["nil_poisson_ranks"] == [2, 0]


def test_filtration_rejects_out_of_range_index(tmp_path, capsys):
    data = poisson_window_algebra(2, 1, 3).to_json_dict()
    data["product"].append([data["dim"] + 5, 1, 1, "1"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "filtration", str(path))
    assert code == 1
    assert out == ""
    assert f"product entry ({data['dim'] + 5}, 1)" in err


def test_filtration_refuses_a_float_coefficient(tmp_path, capsys):
    # k[x]/(x^2) with x*x = 0.1*x: the float must not load as 3602879701896397/2^55
    product = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    data = TruncatedAlgebra(2, ["1", "x"], 0, product).to_json_dict()
    data["product"].append([1, 1, 1, 0.1])
    path = tmp_path / "float.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "filtration", str(path))
    assert code == 1
    assert out == ""
    assert "product entry (1, 1, 1): coefficient 0.1" in err
    data["product"][-1][3] = "1/10"
    path.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "filtration", str(path))
    assert code == 0
    assert "commutator filtration ranks:" in out


def test_filtration_refuses_a_zero_denominator(tmp_path, capsys):
    product = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    data = TruncatedAlgebra(2, ["1", "x"], 0, product).to_json_dict()
    data["product"].append([1, 1, 1, "1/0"])
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "filtration", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: product entry (1, 1, 1): coefficient '1/0'")


def _dual_numbers_json():
    # k[x]/(x^2) with a zero bracket
    product = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}
    return TruncatedAlgebra(2, ["1", "x"], 0, product, bracket={}).to_json_dict()


# id -> (edit of a valid algebra file, field the error must name)
MALFORMED = {
    "array": (lambda data: [data], "object"),
    "float-dim": (lambda data: {**data, "dim": 2.0}, "dim"),
    # the one-dimensional algebra k, whose dim would load as 1
    "bool-dim": (
        lambda _: {"dim": True, "labels": ["1"], "unit": 0, "product": [[0, 0, 0, 1]]},
        "dim",
    ),
    "int-product": (lambda data: {**data, "product": 5}, "product"),
    "int-entry": (lambda data: {**data, "product": [5]}, "product"),
    "int-labels": (lambda data: {**data, "labels": 7}, "labels"),
    "int-bracket": (lambda data: {**data, "bracket": 3}, "bracket"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_filtration_rejects_a_malformed_file(tmp_path, capsys, case):
    change, field = MALFORMED[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(change(_dual_numbers_json())))
    code, out, err = run_cli(capsys, "filtration", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["dim", "labels", "unit", "product"])
def test_filtration_names_a_missing_field(tmp_path, capsys, field):
    data = _dual_numbers_json()
    del data[field]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "filtration", str(path))
    assert code == 1
    assert out == ""
    assert f"missing field '{field}'" in err
    assert "Traceback" not in err


def test_graded_command(capsys):
    code, out, _ = run_cli(capsys, "graded", "-n", "2", "-d", "1", "-N", "1")
    assert code == 0
    assert "n=1: graded_rank=3 envelope_rank=3 ok" in out


def test_graded_command_at_total_zero(capsys):
    code, out, _ = run_cli(capsys, "graded", "-n", "2", "-d", "0", "-N", "0")
    assert code == 0
    assert out == "n=0: graded_rank=1 envelope_rank=1 ok\n"


def test_graded_command_refuses_a_negative_window(capsys):
    # an empty window would pass every rank comparison vacuously
    code, out, err = run_cli(capsys, "graded", "-n", "2", "-d", "1", "-N", "-1")
    assert code == 1
    assert out == ""
    assert "need window N >= 0, got -1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "-n", "-1", "1", "1"],
        ["bp", "-n", "-1", "-p", "0", "1", "1"],
        ["e", "-n", "-1", "1"],
        ["einv", "-n", "-1", "1"],
        ["expand", "-n", "0", "x1"],
    ],
)
def test_nonpositive_generator_count_is_a_domain_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "need n_gens >= 1" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["lyndon", "-n", "2", "-d", "-1"], "need star degree >= 0, got -1"),
        (["bp", "-n", "2", "-p", "-1", "x1", "x2"], "need p >= 0, got -1"),
    ],
)
def test_negative_degree_is_a_domain_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "07-gap-counterexample")
    assert code == 0
    assert out.startswith("PASS 07-gap-counterexample")


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "nonexistent")
    assert code == 1


def test_verify_failure_exit_code(monkeypatch, capsys):
    import poissonenv.acceptance as acc

    monkeypatch.setattr(
        acc,
        "ALL_CHECKS",
        [("00-forced", lambda: acc.CheckResult("00-forced", False, "forced"))],
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    assert out.startswith("FAIL 00-forced")


def test_verify_json_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "07-gap", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    assert data["results"][0]["name"] == "07-gap-counterexample"
