import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leftdef import cli
from leftdef import spectrum as spec_mod
from leftdef.cli import main, parse_preset
from leftdef.coeffs import Sequence, make_preset
from leftdef.operators import (
    InitKind,
    Solution,
    apply_L,
    solve_recurrence,
    wronskian_constancy_report,
    wronskian_sequence,
)


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_parse_preset_grammar():
    name, params = parse_preset("constant:p=1,q=0,w=1")
    assert name == "constant"
    assert params == {"p": 1.0, "q": 0.0, "w": 1.0}
    assert parse_preset("random") == ("random", {})
    with pytest.raises(ValueError, match="^bad preset parameter 'p'$"):
        parse_preset("constant:p")


def test_cached_parser_matches_fresh_parsers(capsys):
    # One parser serves every command of a process: no option value or
    # default of one subcommand may leak into the next.
    commands = [
        ("verify", "--suite", "lemma1", "--cases", "3", "--format", "json"),
        ("spectrum", "--preset", "random", "--seed", "3", "--n", "5"),
        ("bounds", "--preset", "constant:p=1,q=1,w=1", "--n", "6", "--format", "json"),
        ("spectrum", "--preset", "constant:p=1,q=0,w=1", "--n", "4", "--method", "pencil"),
        ("verify", "--cases", "-1"),
    ]
    cached = [run_cli(capsys, *argv) for argv in commands]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in commands:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert cached == fresh
    assert [status for status, _, _ in cached] == [0, 0, 0, 0, 2]


def test_solve_linear_solution(capsys):
    status, out, _ = run_cli(
        capsys, "solve", "--preset", "constant:p=1,q=0,w=1",
        "--lambda", "0", "--u0", "0", "--u1", "1", "--n", "5")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,u"
    assert lines[1:] == [f"{n},{n}" for n in range(7)]


def test_solve_deterministic_output(capsys):
    args = ("solve", "--preset", "random:", "--seed", "42", "--length", "20",
            "--lambda", "1.5", "--u0", "1", "--u1", "0.5", "--n", "10")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_apply_csv(capsys):
    status, out, _ = run_cli(
        capsys, "apply", "--preset", "constant:p=1,q=0,w=1",
        "--u", "0,1,4,9,16")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,Lu"
    assert [l.split(",")[1] for l in lines[1:]] == ["-2", "-2", "-2"]


def test_norm_json(capsys):
    status, out, _ = run_cli(
        capsys, "norm", "--preset", "constant:p=1,q=1,w=1", "--length", "10",
        "--u", "0,0,0,0,1,0,0,0,0,0", "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["h1_norm"] == pytest.approx(np.sqrt(3))
    assert doc["l2_norm"] == pytest.approx(1.0)


def test_bounds_from_file(tmp_path, capsys):
    doc = tmp_path / "c.json"
    doc.write_text('{"p": [1,1,1,1], "q": [0,1,0,0], "w": [1,1,1]}')
    status, out, _ = run_cli(capsys, "bounds", "--coeffs", str(doc),
                             "--n", "1", "--format", "json")
    assert status == 0
    d = json.loads(out)
    assert d == {"r": 1, "C_r": 1.0, "C_N": 2.0}


def test_wronskian_command(capsys):
    status, out, _ = run_cli(
        capsys, "wronskian", "--preset", "constant:p=1,q=0,w=1",
        "--lambda", "0", "--phi0", "1", "--phi1", "1",
        "--theta0", "0", "--theta1", "1", "--n", "8")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("constancy,")
    assert lines[-1].endswith("holds")
    # every interior W value is 1
    for line in lines[1:-1]:
        _, re, im = line.split(",")
        assert float(re) == pytest.approx(1.0)
        assert float(im) == 0.0


def test_spectrum_both_methods_agree(capsys):
    status, out, _ = run_cli(
        capsys, "spectrum", "--preset", "constant:p=1,q=0,w=1",
        "--length", "10", "--n", "8", "--method", "both")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,shooting,pencil"
    exact = [4 * np.sin(k * np.pi / 18) ** 2 for k in range(1, 9)]
    for line, ref in zip(lines[1:], exact):
        _, a, b = line.split(",")
        assert float(a) == pytest.approx(ref, abs=1e-8)
        assert float(b) == pytest.approx(ref, abs=1e-8)


def test_verify_exit_status_and_summary(capsys):
    status, out, _ = run_cli(capsys, "verify", "--suite", "all",
                             "--seed", "42", "--cases", "20")
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,cases,failures,worst"
    assert lines[-1].startswith("total,")
    rows = [line.split(",") for line in lines[1:]]
    assert [len(row) for row in rows] == [4] * len(rows)
    assert [failures for _, _, failures, _ in rows] == ["0"] * len(rows)


def test_verify_single_suite(capsys):
    status, out, _ = run_cli(capsys, "verify", "--suite", "lemma1",
                             "--seed", "7", "--cases", "15")
    assert status == 0
    assert "lemma1,15,0," in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.csv"
    status, out, _ = run_cli(
        capsys, "solve", "--preset", "constant:p=1,q=0,w=1",
        "--lambda", "0", "--u0", "0", "--u1", "1", "--n", "3",
        "--out", str(target))
    assert status == 0
    assert out == ""
    assert target.read_text().splitlines()[1] == "0,0"


def test_module_error_exit_1(capsys):
    # nonpositive p entry -> validation error, exit 1, one-line message
    status, out, err = run_cli(
        capsys, "solve", "--preset", "constant:p=-1",
        "--lambda", "0", "--u0", "0", "--u1", "1", "--n", "3")
    assert status == 1
    assert err.count("\n") == 1
    assert err.startswith("error:")


def test_config_error_exit_2(capsys):
    status, out, err = run_cli(
        capsys, "solve", "--lambda", "0", "--u0", "0", "--u1", "1", "--n", "3")
    assert status == 2
    assert err.startswith("config-error:")


def test_config_error_missing_init(capsys):
    status, _, err = run_cli(
        capsys, "solve", "--preset", "constant:p=1", "--lambda", "0", "--n", "3")
    assert status == 2


@pytest.mark.parametrize("init, message", [
    (("--u0", "0", "--u1", "1", "--pdu0", "2"), "give either --u0/--u1 or --u1/--pdu0, not both"),
    (("--pdu0", "2"), "--pdu0 needs --u1"),
], ids=["both", "pdu0-alone"])
def test_conflicting_initial_data_is_config_error(capsys, init, message):
    status, out, err = run_cli(
        capsys, "solve", "--preset", "constant:p=1", "--lambda", "0", "--n", "3", *init)
    assert (status, out, err) == (2, "", f"config-error: {message}\n")


@pytest.mark.parametrize("preset, message", [
    pytest.param("constant:p=abc", "preset parameter 'p' is not a number: 'abc'",
                 id="constant:p=abc"),
    pytest.param("nosuch", "unknown preset 'nosuch', choose from constant, power, periodic, "
                 "random", id="nosuch"),
])
def test_bad_preset_is_config_error(capsys, preset, message):
    status, out, err = run_cli(
        capsys, "solve", "--preset", preset,
        "--lambda", "0", "--u0", "0", "--u1", "1", "--n", "3")
    assert (status, out, err) == (2, "", f"config-error: {message}\n")


@pytest.mark.parametrize("preset, key", [("constant:P=2", "'P'"), ("power:p=3", "'p'"),
                                         ("random:seed=5", "'seed'")])
def test_unknown_inline_preset_parameter_is_config_error(capsys, preset, key):
    status, out, err = run_cli(capsys, "spectrum", "--preset", preset, "--n", "3")
    assert status == 2
    assert out == ""
    assert err.startswith("config-error:") and err.count("\n") == 1
    assert f"no parameter {key}" in err


def test_invalid_inline_preset_value_still_exits_1(capsys):
    status, out, err = run_cli(capsys, "spectrum", "--preset", "constant:p=-1", "--n", "3")
    assert status == 1
    assert err.startswith("error: ValidationError: p(0)")


@pytest.mark.parametrize("doc", [
    {"preset": {"name": "constant", "params": {"p": [1, 2]}}},
    {"preset": {"name": "random", "length": None}},
    {"p": {"a": 1}, "q": [0, 0, 0], "w": [1, 1, 1]},
    {"preset": {"name": "constant", "params": {"P": 2}}},
    {"preset": {"name": "random", "params": {"p_range": [1, 1e400]}, "length": 8}},
    {"preset": {"name": "random", "params": {"p_range": [1, 0.5]}}},
    {"preset": {"name": "random", "params": {"q_range": [2, 1]}}},
    {"preset": {"name": "random", "params": {"w_range": [1, -1]}}},
], ids=["list-param", "null-length", "mapping-p", "unknown-param", "infinite-range",
        "reversed-p-range", "reversed-q-range", "reversed-w-range"])
def test_malformed_coeffs_document_exits_1(tmp_path, capsys, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    status, out, err = run_cli(capsys, "spectrum", "--coeffs", str(path), "--n", "2")
    assert status == 1
    assert out == ""
    assert err.startswith("error: ValidationError: ") and err.count("\n") == 1


def test_scalar_periodic_parameter_is_one_entry_cycle(capsys):
    status, out, err = run_cli(
        capsys, "spectrum", "--preset", "periodic:p=2", "--n", "4")
    assert status == 0
    assert err == ""
    assert len(out.strip().splitlines()) == 5


def test_inline_range_parameter_is_config_error(capsys):
    status, out, err = run_cli(
        capsys, "spectrum", "--preset", "random:p_range=1", "--n", "3")
    assert status == 2
    assert out == ""
    assert err.startswith("config-error:")
    assert err.count("\n") == 1


def test_spectrum_zero_weights(tmp_path, capsys):
    status, out, _ = run_cli(
        capsys, "spectrum", "--preset", "constant:w=0", "--n", "4", "--length", "8")
    assert status == 0
    assert out.strip().splitlines() == ["k,shooting,pencil"]

    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"preset": {"name": "periodic",
                                          "params": {"w": [1, 0, -2]}, "length": 10}}))
    status, out, _ = run_cli(capsys, "spectrum", "--coeffs", str(doc), "--n", "8",
                             "--method", "both", "--format", "json")
    assert status == 0
    shoot, pencil = json.loads(out)
    assert shoot["no_finite_count"] == pencil["no_finite_count"] == 3
    assert len(shoot["eigenvalues"]) == len(pencil["eigenvalues"]) == 5
    np.testing.assert_allclose(shoot["eigenvalues"], pencil["eigenvalues"], rtol=1e-10)


def test_spectrum_tiny_weight_exits_1(tmp_path, capsys):
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"p": [1, 1, 1, 1], "q": [0, 0, 0, 0],
                               "w": [1, 1e-300, -1]}))
    for window in ([], ["--lambda-max", "0"]):  # a window leaves out no check
        status, out, err = run_cli(capsys, "spectrum", "--coeffs", str(doc), "--n", "3",
                                   "--method", "pencil", *window)
        assert status == 1
        assert out == ""
        assert err.startswith("error: SolverOverflowError")


def test_spectrum_both_exits_1_when_the_methods_disagree(tmp_path, capsys):
    # The congruence loses this spectrum without overflowing: the pencil
    # returns -1.2329 on row 1 where the counts give -2.5863, and 1.0710 on
    # row 3 where they give 0.30003.  Shooting alone answers.
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"p": [1] * 8, "q": [0] * 8,
                               "w": [1, -1, 1e-16, 2, -0.5, 1e-16, 1]}))
    argv = ("spectrum", "--coeffs", str(doc), "--n", "7")
    status, out, err = run_cli(capsys, *argv)
    assert status == 1
    assert out == ""
    assert err.startswith("error: DisagreementError: row 1: pencil -1.232921784495")
    assert "shooting -2.58627305745" in err and "more than 1e-08" in err
    status, out, _ = run_cli(capsys, *argv, "--method", "shooting")
    assert status == 0
    assert float(csv_table(out)[1][2][1]) == pytest.approx(0.30002754750318, rel=1e-12)


@pytest.mark.parametrize("tol", ["1e-6", "1e-3"])
def test_spectrum_both_agrees_within_a_coarse_tol(tmp_path, capsys, tol):
    # Two mirror halves joined by p(4) = 1e-7: eigenvalues come in pairs
    # 6e-9 apart, closer than tol, so both share one bracket and shooting
    # reads their midpoint, 6.7e-8 from the pencil's.  The columns agree to
    # tol, not to 1e-8.
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"p": [1.0, 1.5, 2.0, 1.2, 1e-7, 1.2, 2.0, 1.5, 1.0],
                               "q": [0.3] * 9,
                               "w": [1.0, -2.0, 1.5, 0.7, 0.7, 1.5, -2.0, 1.0]}))
    status, out, err = run_cli(capsys, "spectrum", "--coeffs", str(doc), "--n", "8",
                               "--tol", tol)
    assert (status, err) == (0, "")
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    shoot, pencil = (np.array([float(r[i]) for r in rows]) for i in (1, 2))
    assert len(rows) == 8
    gap = np.abs(shoot - pencil) / np.maximum(1.0, np.abs(shoot))
    assert 1e-8 < gap.max() <= float(tol)


@pytest.mark.parametrize("method", ["shooting", "pencil", "both"])
def test_spectrum_one_sided_window_beyond_range(capsys, method):
    common = ("spectrum", "--preset", "constant:p=1,q=0,w=1", "--n", "4",
              "--method", method)
    header = "k,shooting,pencil" if method == "both" else f"k,{method}"
    for window in (("--lambda-min", "5"), ("--lambda-max", "-5")):
        status, out, _ = run_cli(capsys, *common, *window)
        assert status == 0
        assert out.strip().splitlines() == [header]
    status, out, err = run_cli(capsys, *common, "--lambda-min", "5", "--lambda-max", "1")
    assert status == 1
    assert "lambda_min < lambda_max" in err


@pytest.mark.parametrize("method", ["shooting", "pencil", "both"])
@pytest.mark.parametrize("window", [("--lambda-min", "nan"), ("--lambda-max", "inf"),
                                    ("--lambda-min", "3", "--lambda-max", "1"),
                                    ("--lambda-min", "1", "--lambda-max", "1")])
def test_spectrum_bad_window_exits_1_for_every_method(capsys, method, window):
    status, out, err = run_cli(capsys, "spectrum", "--preset", "constant:p=1,q=0,w=1",
                               "--n", "4", "--method", method, *window)
    assert status == 1
    assert out == ""
    assert err == "error: ValidationError: need finite lambda_min < lambda_max\n"


@pytest.mark.parametrize("window, ks", [
    (("--lambda-min", "2"), [3, 4]),
    (("--lambda-max", "1.5"), [1, 2]),
    (("--lambda-min", "0.5", "--lambda-max", "3"), [2, 3]),
])
def test_spectrum_window_applies_to_both_methods_csv(capsys, window, ks):
    status, out, _ = run_cli(capsys, "spectrum", "--preset", "constant:p=1,q=0,w=1",
                             "--n", "4", *window)
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,shooting,pencil"
    assert len(lines) == 1 + len(ks)
    for row, k in enumerate(ks, start=1):
        idx, a, b = lines[row].split(",")
        exact = 4 * np.sin(k * np.pi / 10) ** 2
        assert int(idx) == row
        assert float(a) == pytest.approx(exact, abs=1e-8)
        assert float(b) == pytest.approx(exact, abs=1e-8)


def test_spectrum_window_applies_to_both_methods_json(capsys):
    status, out, _ = run_cli(capsys, "spectrum", "--preset", "constant:p=1,q=0,w=1",
                             "--n", "4", "--lambda-min", "2", "--format", "json")
    assert status == 0
    shooting, pencil = json.loads(out)
    exact = [4 * np.sin(k * np.pi / 10) ** 2 for k in (3, 4)]
    np.testing.assert_allclose(shooting["eigenvalues"], exact, atol=1e-8)
    np.testing.assert_allclose(pencil["eigenvalues"], exact, atol=1e-8)
    assert len(pencil["residuals"]) == 2
    assert all(r < 1e-12 for r in pencil["residuals"])
    status, out, _ = run_cli(capsys, "spectrum", "--preset", "constant:p=1,q=0,w=1",
                             "--n", "4", "--lambda-max", "-1", "--method", "pencil",
                             "--format", "json")
    assert status == 0
    assert json.loads(out) == [{"method": "pencil", "eigenvalues": [], "residuals": [],
                                "no_finite_count": 0}]


def test_verify_negative_cases_is_config_error(capsys):
    status, out, err = run_cli(capsys, "verify", "--cases", "-1")
    assert status == 2
    assert out == ""
    assert err.startswith("config-error:") and "--cases" in err
    status, out, _ = run_cli(capsys, "verify", "--suite", "lemma1", "--cases", "0")
    assert status == 0
    assert "lemma1,0,0," in out


def test_verify_json_format(capsys):
    status, out, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "3",
                             "--cases", "2", "--format", "json")
    assert status == 0
    rows = json.loads(out)
    _, csv, _ = run_cli(capsys, "verify", "--suite", "all", "--seed", "3", "--cases", "2")
    want = [line.split(",") for line in csv.strip().splitlines()[1:-1]]
    assert [(r["suite"], r["cases"], r["failures"]) for r in rows] == \
        [(name, 2, int(failures)) for name, _, failures, _ in want]
    assert [r["worst"] for r in rows] == [float(worst) for *_, worst in want]


@pytest.mark.parametrize("argv", [
    ("verify", "--seed", "-1"),
    ("spectrum", "--preset", "random", "--seed", "-1", "--n", "4"),
])
def test_negative_seed_is_config_error(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err.startswith("config-error:") and "--seed" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_spectrum_non_finite_tol_exits_1(capsys, tol):
    for method in ("shooting", "pencil", "both"):  # the pencil alone does not use tol
        status, out, err = run_cli(capsys, "spectrum", "--preset", "constant:p=1,q=0,w=1",
                                   "--n", "4", "--method", method, "--tol", tol)
        assert status == 1
        assert out == ""
        assert err == "error: ValidationError: need finite tol > 0\n"


SOLVE = ("solve", "--preset", "constant:p=1", "--n", "3")
WRONSKIAN = ("wronskian", "--preset", "constant:p=1", "--lambda", "0", "--n", "3")


@pytest.mark.parametrize("argv, option", [
    (SOLVE + ("--lambda", "abc", "--u0", "0", "--u1", "1"), "--lambda"),
    (SOLVE + ("--lambda", "0", "--u0", "1,2", "--u1", "1"), "--u0"),
    (SOLVE + ("--lambda", "0", "--u0", "0", "--u1", "x"), "--u1"),
    (SOLVE + ("--lambda", "0", "--u1", "x", "--pdu0", "1"), "--u1"),
    (SOLVE + ("--lambda", "0", "--u1", "1", "--pdu0", "1j1"), "--pdu0"),
    (("wronskian", "--preset", "constant:p=1", "--lambda", "", "--n", "3"), "--lambda"),
    (WRONSKIAN + ("--phi0", "abc"), "--phi0"),
    (WRONSKIAN + ("--phi1", "abc"), "--phi1"),
    (WRONSKIAN + ("--theta0", "abc"), "--theta0"),
    (WRONSKIAN + ("--theta1", "abc"), "--theta1"),
    (("norm", "--preset", "constant:p=1", "--u", "abc"), "--u"),
    (("apply", "--preset", "constant:p=1", "--u", "0,1,,2"), "--u"),
])
def test_malformed_number_is_config_error(capsys, argv, option):
    status, out, err = run_cli(capsys, *argv)
    assert status == 2
    assert out == ""
    assert err.startswith(f"config-error: {option} is not a number")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("norm", "--preset", "constant:p=1", "--u", "1,nan"),
    SOLVE + ("--lambda", "inf", "--u0", "0", "--u1", "1"),
])
def test_well_formed_invalid_number_exits_1(capsys, argv):
    status, out, err = run_cli(capsys, *argv)
    assert status == 1
    assert out == ""
    assert err.startswith("error: ValidationError")


@pytest.mark.parametrize("argv", [
    ("--preset", "constant:p=5,q=1,w=1"),
    ("--seed", "-1"),
    ("--length", "5"),
    ("--seed", "9"),
], ids=["preset", "negative-seed", "length", "seed"])
def test_option_ignored_next_to_coeffs_is_config_error(tmp_path, capsys, argv):
    doc = tmp_path / "c.json"
    doc.write_text('{"p": [1,1,1,1], "q": [0,1,0,0], "w": [1,1,1]}')
    status, out, err = run_cli(capsys, "bounds", "--coeffs", str(doc), *argv, "--n", "1")
    assert status == 2
    assert out == ""
    assert err.startswith("config-error:") and argv[0] in err
    assert err.count("\n") == 1


# Round trips: every CSV cell and JSON value reads back to the library's own double.

RANDOM = ("--preset", "random", "--seed", "3", "--length", "20")
VP = InitKind.VALUE_PAIR


def random_coeffs():
    return make_preset("random", {}, length=20, rng_seed=3)


def hexes(values):
    return [float(v).hex() for v in values]


def csv_table(out):
    header, *rows = out.splitlines()
    return header, [row.split(",") for row in rows]


SEQUENCES = {
    "solve-real": (("solve", "--lambda", "1.5", "--u0", "1", "--u1", "0.5", "--n", "10"),
                   "u", lambda c: solve_recurrence(c, 1.5 + 0j, VP, 1 + 0j, 0.5 + 0j, 10).values),
    "solve-complex": (("solve", "--lambda", "1.5+0.5j", "--u0", "1", "--u1", "0.5j", "--n", "10"),
                      "u", lambda c: solve_recurrence(c, 1.5 + 0.5j, VP, 1 + 0j, 0.5j, 10).values),
    "apply-real": (("apply", "--u", "0.1,-2.5,7,1e-300,3"), "Lu",
                   lambda c: apply_L(c, Sequence(0, np.array([0.1, -2.5, 7, 1e-300, 3],
                                                             dtype=complex)))),
    "apply-complex": (("apply", "--u", "1+2j,0,3-1j,4,5j"), "Lu",
                      lambda c: apply_L(c, Sequence(0, np.array([1 + 2j, 0, 3 - 1j, 4, 5j])))),
}


@pytest.mark.parametrize("case", SEQUENCES)
def test_sequence_round_trip(capsys, case):
    argv, name, reference = SEQUENCES[case]
    seq = reference(random_coeffs())
    is_complex = case.endswith("complex")
    assert bool(np.any(seq.values.imag != 0)) == is_complex
    want = [hexes(seq.values.real), hexes(seq.values.imag)][:1 + is_complex]
    ns = list(range(seq.offset, seq.end))

    status, out, _ = run_cli(capsys, argv[0], *RANDOM, *argv[1:])
    assert status == 0
    header, rows = csv_table(out)
    assert header == ("n,re,im" if is_complex else f"n,{name}")
    assert [int(row[0]) for row in rows] == ns
    assert [hexes(col) for col in list(zip(*rows))[1:]] == want

    status, out, _ = run_cli(capsys, argv[0], *RANDOM, *argv[1:], "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert doc["offset"] == seq.offset
    assert [e["n"] for e in doc[name]] == ns
    values = [e["value"] if is_complex else [e["value"]] for e in doc[name]]
    assert all(type(x) is float for value in values for x in value)
    assert [[x.hex() for x in col] for col in zip(*values)] == want


def test_wronskian_round_trip(capsys):
    c = random_coeffs()
    phi = solve_recurrence(c, 0.3 - 1j, VP, 1 + 0j, 1 + 0j, 15)
    theta = solve_recurrence(c, 0.3 - 1j, VP, 0j, 1 + 0j, 15)
    w = wronskian_sequence(c, phi.values, theta.values)
    rep = wronskian_constancy_report(c, phi, theta)
    argv = ("wronskian", *RANDOM, "--lambda", "0.3-1j", "--n", "15")

    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    header, rows = csv_table(out)
    assert header == "n,re,im"
    *rows, constancy = rows
    assert [int(row[0]) for row in rows] == list(range(w.offset, w.end))
    assert hexes(row[1] for row in rows) == hexes(w.values.real)
    assert hexes(row[2] for row in rows) == hexes(w.values.imag)
    assert constancy[::2] == ["constancy", "holds" if rep.holds else "FAILS"]
    assert float(constancy[1]).hex() == float(rep.lhs).hex()

    status, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert [e["n"] for e in doc["wronskian"]] == list(range(w.offset, w.end))
    assert hexes(e["value"][0] for e in doc["wronskian"]) == hexes(w.values.real)
    assert hexes(e["value"][1] for e in doc["wronskian"]) == hexes(w.values.imag)
    assert doc["constancy"] == {"max_drift": rep.lhs, "bound": rep.rhs, "holds": rep.holds}


EDGE_CELLS = [-0.0, 5e-324, 1e308, -1e308, 0.1, 0.0, -2.5]


def fstring_csv(header, seq, footer=()):
    """The CSV text of the writer that formatted each row with an f-string."""
    values = seq.values
    if np.iscomplexobj(values):
        rows = [f"{n},{z.real:.17g},{z.imag:.17g}" for n, z in enumerate(values, seq.offset)]
    else:
        rows = [f"{n},{v:.17g}" for n, v in enumerate(values, seq.offset)]
    return "\n".join([header, *rows, *footer]) + "\n"


def complex_edge_cells():
    return np.array(EDGE_CELLS) + 1j * np.array(EDGE_CELLS[::-1])


@pytest.mark.parametrize("command, offset, name", [("solve", 0, "u"), ("apply", 1, "Lu")])
@pytest.mark.parametrize("is_complex", [False, True])
def test_sequence_csv_bytes(tmp_path, capsys, monkeypatch, command, offset, name, is_complex):
    seq = Sequence(offset, complex_edge_cells() if is_complex else np.array(EDGE_CELLS))
    monkeypatch.setattr(cli, "solve_recurrence", lambda *args: Solution(0j, seq))
    monkeypatch.setattr(cli, "apply_L", lambda *args: seq)
    argv = {"solve": ("solve", *RANDOM, "--lambda", "1", "--u0", "0", "--u1", "1", "--n", "5"),
            "apply": ("apply", *RANDOM, "--u", "0,1,2")}[command]
    want = fstring_csv("n,re,im" if is_complex else f"n,{name}", seq)
    assert run_cli(capsys, *argv) == (0, want, "")
    out = tmp_path / "out.csv"
    assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == want.encode()


def test_wronskian_csv_bytes(tmp_path, capsys, monkeypatch):
    w = Sequence(0, complex_edge_cells())
    monkeypatch.setattr(cli, "wronskian_sequence", lambda *args: w)
    c = random_coeffs()
    rep = wronskian_constancy_report(c, solve_recurrence(c, 0.3 + 0j, VP, 1 + 0j, 1 + 0j, 15),
                                     solve_recurrence(c, 0.3 + 0j, VP, 0j, 1 + 0j, 15))
    footer = [f"constancy,{rep.lhs:.17g},{'holds' if rep.holds else 'FAILS'}"]
    want = fstring_csv("n,re,im", w, footer)
    argv = ("wronskian", *RANDOM, "--lambda", "0.3", "--n", "15")
    assert run_cli(capsys, *argv) == (0, want, "")
    out = tmp_path / "out.csv"
    assert run_cli(capsys, *argv, "--out", str(out)) == (0, "", "")
    assert out.read_bytes() == want.encode()


def test_spectrum_both_round_trip(capsys):
    # Shooting starts from the pencil's eigenvalues and certifies them by counts.
    c = random_coeffs()
    pencil = spec_mod.eigen_pencil(c, 12)
    want = [spec_mod.eigen_shooting(c, 12, guesses=pencil.eigenvalues), pencil]
    argv = ("spectrum", *RANDOM, "--n", "12", "--method", "both")

    status, out, _ = run_cli(capsys, *argv)
    assert status == 0
    header, rows = csv_table(out)
    assert header == "k,shooting,pencil"
    assert [int(row[0]) for row in rows] == list(range(1, 13))
    assert [hexes(col) for col in list(zip(*rows))[1:]] == [hexes(r.eigenvalues) for r in want]

    status, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert status == 0
    doc = json.loads(out)
    assert [d["method"] for d in doc] == ["shooting", "pencil"]
    for d, r in zip(doc, want):
        assert hexes(d["eigenvalues"]) == hexes(r.eigenvalues)
        assert hexes(d["residuals"]) == hexes(r.residuals)
        assert d["no_finite_count"] == r.no_finite_count


@pytest.mark.parametrize("short, empty", [("eigen_shooting", 0), ("eigen_pencil", 1)])
def test_spectrum_csv_pads_shorter_column(capsys, monkeypatch, short, empty):
    # Columns of unequal length are padded, not compared.
    solver, calls = getattr(spec_mod, short), []

    def one_fewer(*args, **kwargs):
        calls.append(kwargs)
        r = solver(*args, **kwargs)
        return dataclasses.replace(r, eigenvalues=r.eigenvalues[:-1])

    monkeypatch.setattr(spec_mod, short, one_fewer)
    status, out, _ = run_cli(capsys, "spectrum", "--preset", "constant:p=1,q=0,w=1",
                             "--n", "4", "--method", "both")
    assert status == 0
    assert len(calls) == 1
    header, rows = csv_table(out)
    assert header == "k,shooting,pencil"
    assert [len(row) for row in rows] == [3] * 4
    assert all("" not in row for row in rows[:3])
    k, *cells = rows[3]
    assert k == "4" and cells[empty] == ""
    assert float(cells[1 - empty]) == pytest.approx(4 * np.sin(4 * np.pi / 10) ** 2)


SCIPY_FREE_CHILD = """
import contextlib, io, sys
from leftdef import cli

const = ["--preset", "constant:p=1,q=0,w=1"]
commands = [
    ["verify", "--suite", "all", "--cases", "10"],
    ["solve", *const, "--lambda", "0", "--u0", "0", "--u1", "1", "--n", "5"],
    ["wronskian", *const, "--lambda", "0", "--n", "8"],
    ["bounds", "--preset", "constant:p=1,q=1,w=1", "--n", "6"],
    ["apply", *const, "--u", "0,1,4,9,16"],
    ["norm", *const, "--length", "5", "--u", "0,1,0,0,0"],
    ["spectrum", *const, "--n", "8", "--method", "shooting"],
]
with contextlib.redirect_stdout(io.StringIO()):
    statuses = [cli.main(argv) for argv in commands]
    assert statuses == [0] * len(commands), statuses
    loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
    assert not loaded, loaded[:3]
    assert cli.main(["spectrum", *const, "--n", "8", "--method", "pencil"]) == 0
assert "scipy.linalg" in sys.modules
"""


def test_only_the_pencil_imports_scipy():
    # This process already holds scipy, so a fresh interpreter runs every
    # command but the pencil, checks that scipy is still unloaded, then runs
    # the pencil, which loads it.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", SCIPY_FREE_CHILD], env=env,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
