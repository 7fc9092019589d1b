"""CLI surface: parsing, evaluation, inversion, suite reports, exit codes,
and byte-for-byte deterministic output."""

import json
import subprocess
import sys

import pytest

from thetakit.cli import (EXIT_NONCONVERGENCE, EXIT_PASS, EXIT_SUITE_FAILURE,
                          EXIT_USAGE, main, parse_complex)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("text,value", [
    ("1.3i", 1.3j), ("i", 1j), ("-i", -1j), ("0.5", 0.5 + 0j),
    ("0.2+1.1i", 0.2 + 1.1j), ("-0.3-0.7i", -0.3 - 0.7j), ("2+i", 2 + 1j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


def test_parse_complex_rejects_garbage():
    import argparse

    with pytest.raises(argparse.ArgumentTypeError):
        parse_complex("one plus two i")


def test_eval_x_at_square_point(capsys):
    code, out, _ = run_main(["eval", "x", "--tau", "i"], capsys)
    assert code == EXIT_PASS
    assert abs(complex(out.strip().strip("()")) - 0.5) < 1e-12


def test_eval_jet_output(capsys):
    code, out, _ = run_main(["eval", "picard-y", "--tau", "1.2i", "--jet", "2"],
                            capsys)
    assert code == EXIT_PASS
    assert "c0" in out and "c2" in out


def test_eval_v_dispatches_to_its_recipe(capsys):
    code, out, _ = run_main(["eval", "v", "--tau", "1i"], capsys)
    assert code == EXIT_PASS
    assert abs(complex(out.strip().strip("()")) - 2 ** -0.25) < 1e-12


@pytest.mark.parametrize("argv", [
    ["suite", "--seed", "3", "run", "apery"],
    ["eval", "x", "--tau", "1i", "--seed", "9", "--tol", "theta=1",
     "--grid", "0,1,2,3,4", "--catalog", "/nonexistent"],
])
def test_suite_options_belong_to_suite_run(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_eval_unknown_function(capsys):
    code, _, err = run_main(["eval", "frobnicate"], capsys)
    assert code == EXIT_USAGE
    assert "unknown function" in err


def test_invert_roundtrip(capsys):
    code, out, _ = run_main(["invert", "x", "0.3+0.2i"], capsys)
    assert code == EXIT_PASS
    assert "round-trip residual" in out
    resid = float(out.strip().splitlines()[-1].split("=")[1])
    assert resid < 1e-11


def test_invert_cusp_exit_code(capsys):
    code, _, err = run_main(["invert", "s", "8.999"], capsys)
    assert code == EXIT_NONCONVERGENCE
    assert "cusp" in err


def test_suite_unknown_name(capsys):
    code, _, err = run_main(["suite", "run", "nonsense"], capsys)
    assert code == EXIT_USAGE
    assert "unknown suite" in err


def test_suite_json_and_determinism(capsys):
    code1, out1, _ = run_main(["suite", "run", "apery", "--format", "json"],
                              capsys)
    code2, out2, _ = run_main(["suite", "run", "apery", "--format", "json"],
                              capsys)
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["passed"] is True
    checks = payload["suites"][0]["checks"]
    assert list(checks[0]) == ["check_id", "ref", "inputs", "residual",
                               "tolerance", "pass", "note"]


def test_suite_csv_field_order(capsys):
    code, out, _ = run_main(["suite", "run", "apery", "--format", "csv"],
                            capsys)
    assert code == EXIT_PASS
    header = out.splitlines()[0]
    assert header == "suite,check_id,ref,inputs,residual,tolerance,pass,note"


def test_suite_failure_exit_code(capsys, tmp_path):
    # an absurd tolerance override forces a failure exit
    code, out, _ = run_main(["suite", "run", "theta", "--tol", "theta=1e-30"],
                            capsys)
    assert code == EXIT_SUITE_FAILURE


def test_config_file_and_env(capsys, tmp_path, monkeypatch):
    cfgfile = tmp_path / "conf"
    cfgfile.write_text("seed = 3\n# comment\ntol.theta = 1e-9\n")
    monkeypatch.setenv("THETAKIT_CONFIG", str(cfgfile))
    code, out, _ = run_main(["suite", "run", "theta"], capsys)
    assert code == EXIT_PASS
    monkeypatch.delenv("THETAKIT_CONFIG")


def test_console_script_entry_point():
    out = subprocess.run([sys.executable, "-m", "thetakit.cli", "suite",
                          "list"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "toroidal" in out.stdout


@pytest.mark.parametrize("config,argv", [
    ("seed=abc\n", []),
    ("bad config line\n", []),
    (None, ["--grid", "0,1,2,3,x"]),
    (None, ["--grid", "0,1,1,2,0"]),
    (None, ["--config", "/nonexistent/thetakit.conf"]),
    ("sed = 3\n", []),
    ("jobs = 2\n", []),
    ("tol.p6 = 1e-3\n", []),
    ("tol.torus = 1e-3\n", []),
    (None, ["--tol", "nonsense=1e-30"]),
    (None, ["--tol", "p6=1e-3"]),
])
def test_bad_suite_configuration_is_a_usage_error(config, argv, capsys,
                                                  tmp_path):
    if config is not None:
        cfgfile = tmp_path / "conf"
        cfgfile.write_text(config)
        argv = argv + ["--config", str(cfgfile)]
    code, out, err = run_main(["suite", "run", "theta"] + argv, capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("tau", ["-1i", "0.3-0.1i"])
def test_eval_tau_outside_upper_half_plane(tau, capsys):
    code, out, err = run_main(["eval", "vartheta", f"--tau={tau}"], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: tau must satisfy Im(tau) > 0")
    assert err.count("\n") == 1
