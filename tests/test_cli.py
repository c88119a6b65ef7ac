import json

import numpy as np
import pytest

from leftdef.cli import main, parse_preset


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_parse_preset_grammar():
    name, params = parse_preset("constant:p=1,q=0,w=1")
    assert name == "constant"
    assert params == {"p": 1.0, "q": 0.0, "w": 1.0}
    assert parse_preset("random") == ("random", {})
    with pytest.raises(ValueError):
        parse_preset("constant:p")


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
    assert all(",0," in line or line.endswith(",0,") or ",0," in line
               for line in lines[1:-1])


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


@pytest.mark.parametrize("preset", ["constant:p=abc", "nosuch"])
def test_bad_preset_is_config_error(capsys, preset):
    status, out, err = run_cli(
        capsys, "solve", "--preset", preset,
        "--lambda", "0", "--u0", "0", "--u1", "1", "--n", "3")
    assert status == 2
    assert out == ""
    assert err.startswith("config-error:")
    assert err.count("\n") == 1


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
    assert pencil["no_finite_count"] == 3
    assert len(shoot["eigenvalues"]) == len(pencil["eigenvalues"]) == 5
    np.testing.assert_allclose(shoot["eigenvalues"], pencil["eigenvalues"], rtol=1e-10)


def test_spectrum_tiny_weight_exits_1(tmp_path, capsys):
    doc = tmp_path / "c.json"
    doc.write_text(json.dumps({"p": [1, 1, 1, 1], "q": [0, 0, 0, 0],
                               "w": [1, 1e-300, -1]}))
    status, out, err = run_cli(capsys, "spectrum", "--coeffs", str(doc), "--n", "3",
                               "--method", "pencil")
    assert status == 1
    assert out == ""
    assert err.startswith("error: SolverOverflowError")


def test_spectrum_one_sided_window_beyond_range(capsys):
    common = ("spectrum", "--preset", "constant:p=1,q=0,w=1", "--n", "4",
              "--method", "shooting")
    for window in (("--lambda-min", "5"), ("--lambda-max", "-5")):
        status, out, _ = run_cli(capsys, *common, *window)
        assert status == 0
        assert out.strip().splitlines() == ["k,shooting"]
    status, out, err = run_cli(capsys, *common, "--lambda-min", "5", "--lambda-max", "1")
    assert status == 1
    assert "lambda_min < lambda_max" in err


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
