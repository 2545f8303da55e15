"""Command-line interface tests: exit codes, CSV/JSON output, config-file
merging, --dry-run, and run-to-run determinism."""

import json
import math
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from fracperiodic.cli import _COMMANDS, run
from fracperiodic.spectral import PeriodicFunction

TWO_PI = 2.0 * math.pi


def write_function(path, **kwargs):
    u = PeriodicFunction.from_modes(**kwargs)
    path.write_text(u.to_json() + "\n")
    return u


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_eig_free_spectrum(tmp_path):
    out = tmp_path / "eig.csv"
    code = run(["eig", "--s", "0.5", "--T", str(TWO_PI), "--count", "4",
                "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["index", "eigenvalue"]
    vals = [float(r[1]) for r in rows]
    assert np.allclose(vals, [0.0, 1.0, 1.0, 2.0], atol=1e-10)


def test_apply_multiplier(tmp_path):
    inp = tmp_path / "u.json"
    write_function(inp, T=TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    out = tmp_path / "lu.json"
    code = run(["apply", "--s", "0.5", "--input", str(inp), "--out", str(out)])
    assert code == 0
    v = PeriodicFunction.from_dict(json.loads(out.read_text()))
    assert abs(v.sin_coeffs[0] - 1.0) < 1e-12  # (-dxx)^{1/2} sin x = sin x


def test_solve_deterministic(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run(["solve", "--s", "0.5", "--T", "8", "--N", "48", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # byte-identical across runs


def test_overwritten_output_holds_exactly_the_new_bytes(tmp_path):
    # the file is written in place and cut only where the old text was longer
    out, fresh = tmp_path / "branch.csv", tmp_path / "fresh.csv"
    longer, shorter = (["continue", "--s", "0.5", "--steps", n, "--out"] for n in ("12", "4"))
    assert run(longer + [str(out)]) == 0
    assert run(shorter + [str(out)]) == 0 and run(shorter + [str(fresh)]) == 0
    assert out.read_bytes() == fresh.read_bytes()
    assert run(longer + [str(fresh)]) == 0 and run(longer + [str(out)]) == 0
    assert out.read_bytes() == fresh.read_bytes()


def test_output_to_dev_null_exits_0(tmp_path, capsys):
    # a character device cannot be truncated: ftruncate raises EINVAL there
    argv = ["continue", "--s", "0.5", "--steps", "4", "--out"]
    assert run(argv + [os.devnull]) == 0
    summary = capsys.readouterr()
    assert run(argv + [str(tmp_path / "branch.csv")]) == 0
    assert capsys.readouterr() == summary


def test_solve_linear_fredholm_violation(tmp_path, capsys):
    k = tmp_path / "k.json"
    g = tmp_path / "g.json"
    write_function(k, T=TWO_PI, sin_coeffs=[], cos_coeffs=[0.0])
    write_function(g, T=TWO_PI, sin_coeffs=[], cos_coeffs=[1.0])
    code = run(["solve-linear", "--s", "0.5", "--k", str(k), "--g", str(g)])
    assert code == 1  # constants span the kernel; g is not orthogonal
    assert "SolvabilityViolation" in capsys.readouterr().err


@pytest.mark.parametrize("mu", [None, "1"])
def test_solve_linear_g_of_another_period_is_usage_error(tmp_path, capsys, mu):
    # g's coefficients used to be read as if they had k's period: exit 0, wrong u
    k = tmp_path / "k.json"
    g = tmp_path / "g.json"
    write_function(k, T=6.0, sin_coeffs=[0.1], cos_coeffs=[1.5, 0.2])
    write_function(g, T=9.0, sin_coeffs=[1.0], cos_coeffs=[0.0, 0.3])
    out = tmp_path / "u.json"
    argv = ["solve-linear", "--s", "0.5", "--k", str(k), "--g", str(g), "--N", "16", "--out", str(out)]
    assert run(argv + (["--mu", mu] if mu else [])) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "period" in err


def test_missing_required_is_usage_error(capsys):
    assert run(["eig", "--s", "0.5"]) == 2
    assert "T" in capsys.readouterr().err


REQUIRED = {
    "apply": ("s", "input"),
    "eig": ("s", "T"),
    "solve-linear": ("s", "k", "g"),
    "solve": ("s", "T"),
    "min-period": ("s", "T-hi"),
    "continue": ("s",),
    "t0-bound": ("s",),
    "hamiltonian": ("s", "T"),
    "modica": ("s", "T"),
    "energy-scan": ("s",),
    "test-bound": ("s", "T"),
    "extend": ("s", "input"),
}


@pytest.mark.parametrize("cmd", sorted(REQUIRED))
def test_each_required_option_is_named_when_missing(cmd, capsys):
    assert sorted(REQUIRED) == sorted(_COMMANDS)
    given = {name: "1" for name in REQUIRED[cmd]}
    argv = [cmd, "--dry-run"]
    assert run(argv + [t for name, v in given.items() for t in ("--" + name, v)]) == 0  # no others
    capsys.readouterr()
    for left_out in REQUIRED[cmd]:
        rest = [t for name, v in given.items() if name != left_out for t in ("--" + name, v)]
        assert run(argv + rest) == 2
        assert capsys.readouterr().err == f"usage error: {cmd}: missing required option(s): {left_out}\n"


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    # one parser serves every run() in the process: reusing it changes nothing
    argvs = (["eig", "--s", "0.5", "--T", "8"], ["eig", "--s", "0.5", "--T", "8", "--dry-run"],
             ["eig", "--s", "0.5"], ["eig", "--bogus", "1"], ["frobnicate"], ["--help"],
             ["modica", "--help"], ["solve-linear", "--s", "0.5", "--k", str(tmp_path / "nope.json"),
                                    "--g", str(tmp_path / "nope.json")])
    for argv in argvs:
        outputs = [(run(argv), *capsys.readouterr()) for _ in range(2)]
        assert outputs[0] == outputs[1], argv
        assert outputs[0][1] or outputs[0][2], argv


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_bad_potential_spec(tmp_path):
    assert run(["solve", "--s", "0.5", "--T", "8", "--potential", "sextic"]) == 2


def test_bad_period_is_usage_error(tmp_path, capsys):
    # hamiltonian and modica must check T before they size N = int(1.5 * T)
    for argv in (["solve", "--s", "0.5", "--T", "nan"],
                 ["solve", "--s", "0.5", "--T", "-1"],
                 ["min-period", "--s", "0.5", "--T-hi", "inf"],
                 *([cmd, "--s", "0.5", "--T", T] for cmd in ("hamiltonian", "modica") for T in ("inf", "nan", "-1"))):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists()
        assert capsys.readouterr().err.startswith("usage error: period must be positive and finite"), argv


def test_tiny_period_is_usage_error(tmp_path, capsys):
    # (2 pi N / T)^(2s) above 1e150 overflows the class norms, which square it:
    # these exited 0 after an overflow RuntimeWarning (a traceback under -W error)
    for argv in (*(["solve", "--s", "0.5", "--T", T] for T in ("1e-300", "1e-200", "1e-160")),
                 ["solve", "--s", "0.9", "--T", "1e-150"],
                 ["hamiltonian", "--s", "0.5", "--T", "1e-300"]):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"usage error: period T={argv[-1]} is too small"), argv
    # just above the bound at s = 1/2, N = 64: (2 pi 64 / T) = 9.9e149
    out = tmp_path / "sol.json"
    assert run(["solve", "--s", "0.5", "--T", "4.06e-148", "--out", str(out)]) == 0
    assert "classification=trivial" in capsys.readouterr().err


def test_tiny_period_in_a_certificate_is_usage_error(tmp_path, capsys):
    # at s = 0.1 the solve passes the multiplier bound, (2 pi N / T)^(2s) is
    # about 1e60, but U_x grows like 2 pi N / T: the first two exited 0 with
    # C_T = nan and C_hat = nan after an overflow RuntimeWarning, the third
    # exited 1 with an IdentityViolation at a deviation of 1.4e18
    for argv in (["hamiltonian", "--s", "0.1", "--T", "1e-300"],
                 ["modica", "--s", "0.1", "--T", "1e-300"],
                 ["hamiltonian", "--s", "0.1", "--T", "1e-100"]):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"usage error: period T={argv[-1]} is too small"), argv


def test_bad_tolerance_and_step_are_usage_errors(tmp_path):
    # --tol 0 never ends the bisection, --tol nan skips it; --ds 0 divides 0/0
    # in the tangent, and one step leaves no second point for it
    argvs = [["min-period", "--s", "0.5", "--T-hi", "9", "--tol", tol]
             for tol in ("0", "-1", "nan", "inf")]
    argvs += [["continue", "--s", "0.5", "--ds", ds] for ds in ("0", "-0.05", "nan", "inf")]
    argvs += [["continue", "--s", "0.5", "--steps", steps] for steps in ("1", "0")]
    for argv in argvs:
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists()


def test_overflowing_order_and_step_are_usage_errors(tmp_path, capsys):
    # t0-bound --s 1e-300 let an OverflowError escape run; --ds 1e-300 and
    # 1e300 broke the continuation step with NaN and overflow warnings
    for argv, name in ((["t0-bound", "--s", "1e-300"], "s = 1e-300"),
                       (["continue", "--s", "0.5", "--ds", "1e-300"], "ds_arc"),
                       (["continue", "--s", "0.5", "--ds", "1e300"], "ds_arc")):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"usage error: {name}"), argv


def test_non_double_well_potential_rejected(tmp_path):
    out = tmp_path / "sol.json"
    assert run(["solve", "--s", "0.5", "--T", "8", "--potential", "poly:1,0,1",
                "--out", str(out)]) == 2
    assert not out.exists()
    assert run(["solve", "--s", "0.5", "--T", "8", "--potential", "quartic:-1"]) == 2


def test_removed_flags_are_usage_errors(tmp_path):
    # every computation is sequential and deterministic: no worker count, no seed
    cfg = tmp_path / "run.cfg"
    cfg.write_text("jobs = 2\n")
    for argv in (["min-period", "--s", "0.5", "--T-hi", "8", "--jobs", "2"],
                 ["energy-scan", "--s", "0.25", "--T-list", "16", "--jobs", "2"],
                 ["solve", "--s", "0.5", "--T", "8", "--seed", "0"],
                 ["energy-scan", "--s", "0.25", "--T-list", "16", "--seed", "0"],
                 ["energy-scan", "--s", "0.25", "--T-list", "16", "--config", str(cfg)]):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()


def readme_commands():
    """Argument lists of the `fracperiodic ...` lines in the README's sh blocks."""
    lines, in_sh = [], False
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
        elif in_sh and line.startswith("fracperiodic "):
            lines.append(shlex.split(line)[1:])
    return lines


def test_readme_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert commands
    for i, argv in enumerate(commands):
        out = tmp_path / f"example{i}.out"
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(out)
        else:
            argv += ["--out", str(out)]
        assert run(argv) == 0, argv
        assert out.stat().st_size > 0


def test_missing_input_file(tmp_path):
    assert run(["apply", "--s", "0.5", "--input", str(tmp_path / "nope.json")]) == 2


def test_dry_run_prints_resolved_config(capsys):
    code = run(["eig", "--s", "0.25", "--T", "8", "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    cfg = dict(line.split("=", 1) for line in out)
    assert cfg["s"] == "0.25" and cfg["T"] == "8.0"
    assert cfg["count"] == "4" and cfg["N"] == "32"  # defaults surfaced
    assert out == sorted(out)


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nT = 8\ncount = 6\n")
    code = run(["eig", "--s", "0.5", "--config", str(cfg), "--count", "3",
                "--dry-run"])
    assert code == 0
    got = dict(line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines())
    assert got["T"] == "8.0"      # from config file
    assert got["count"] == "3"    # flag overrides config


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("period = 8\n")
    assert run(["eig", "--s", "0.5", "--T", "8", "--config", str(cfg)]) == 2
    assert "period" in capsys.readouterr().err


def test_config_line_without_equals_sign_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# a comment\n\nT = 8\ncount 3\n")
    assert run(["eig", "--s", "0.5", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"usage error: {cfg}:4: expected key=value, got 'count 3'\n"


def test_t0_bound_csv(tmp_path, capsys):
    out = tmp_path / "t0.csv"
    code = run(["t0-bound", "--s", "0.5", "--lambda-grid", "1.5",
                "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["lambda", "period", "amplitude", "residual"]
    assert abs(float(rows[0][1]) - 3.0 * math.pi) < 1e-12
    assert "bound=" in capsys.readouterr().err


def test_test_bound_regions(tmp_path):
    out = tmp_path / "tb.csv"
    code = run(["test-bound", "--s", "0.5", "--T", "16", "--d", "1",
                "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["region", "value", "bound"]
    names = [r[0] for r in rows]
    assert names[:4] == ["far", "plateau", "mixed", "layer"]
    for r in rows[:4]:
        assert float(r[1]) <= float(r[2]) * (1.0 + 1e-9)


def test_extend_points(tmp_path):
    inp = tmp_path / "u.json"
    write_function(inp, T=TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    out = tmp_path / "field.csv"
    code = run(["extend", "--s", "0.5", "--input", str(inp),
                "--points", "1.0,0.0;1.0,1.0", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out)
    # s = 1/2: U(x, y) = e^{-y} sin x
    assert abs(float(rows[0][2]) - math.sin(1.0)) < 1e-10
    assert abs(float(rows[1][2]) - math.exp(-1.0) * math.sin(1.0)) < 1e-8


def test_extend_poisson_matches_bessel(tmp_path):
    inp = tmp_path / "u.json"
    write_function(inp, T=5.0, sin_coeffs=[1.0, -0.3, 0.2], cos_coeffs=[0.4, 0.1, 0.0, -0.5])
    values = {}
    for method in ("bessel", "poisson"):
        out = tmp_path / f"{method}.csv"
        assert run(["extend", "--s", "0.3", "--input", str(inp), "--method", method,
                    "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["x", "y", "U"]
        values[method] = np.array(rows, dtype=float)
    assert np.array_equal(values["bessel"][:, :2], values["poisson"][:, :2])
    assert np.max(np.abs(values["bessel"][:, 2] - values["poisson"][:, 2])) < 1e-6


def test_apply_non_finite_input_is_usage_error(tmp_path):
    inp = tmp_path / "u.json"
    inp.write_text('{"T": 6.283185307179586, "N": 1, "odd": true, "a": [NaN], "b": [0.0, 0.0]}\n')
    out = tmp_path / "lu.json"
    code = run(["apply", "--s", "0.5", "--input", str(inp), "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_t0_bound_grid_off_the_branch_is_usage_error(tmp_path, capsys):
    for grid in ("0.5,1.1", "nan", "1.0"):
        out = tmp_path / "t0.csv"
        assert run(["t0-bound", "--s", "0.5", "--lambda-grid", grid, "--out", str(out)]) == 2
        assert not out.exists()
        assert "lambda_grid" in capsys.readouterr().err


def test_continue_past_the_wells_exits_1(tmp_path, capsys):
    out = tmp_path / "branch.csv"
    assert run(["continue", "--s", "0.3", "--ds", "0.5", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("BranchLost: amplitude")


def test_t0_bound_past_the_wells_exits_1(tmp_path, capsys):
    out = tmp_path / "t0.csv"
    assert run(["t0-bound", "--s", "0.5", "--lambda-grid", "100", "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err.startswith("BranchLost: amplitude 1.04419 >= 1 at lambda = 100")


def test_continue_non_finite_lambda_start_is_usage_error(tmp_path, capsys):
    out = tmp_path / "branch.csv"
    assert run(["continue", "--s", "0.5", "--lambda-start", "nan", "--out", str(out)]) == 2
    assert not out.exists()
    assert "lambda_start" in capsys.readouterr().err


def test_certificate_settings_that_disable_them_are_usage_errors(tmp_path, capsys):
    # --tol nan passed every deviation; --n-samples 0 and --nx 0 divided by zero
    cases = [("hamiltonian", "--tol", "nan", "tol"), ("hamiltonian", "--tol", "-1", "tol"),
             ("hamiltonian", "--n-samples", "0", "n_samples"), ("modica", "--tol", "nan", "tol"),
             ("modica", "--nx", "0", "nx"), ("modica", "--ny", "0", "ny")]
    for cmd, flag, value, name in cases:
        out = tmp_path / "cert.csv"
        assert run([cmd, "--s", "0.5", "--T", "8", flag, value, "--out", str(out)]) == 2, flag
        assert not out.exists()
        assert f"usage error: {name} must be" in capsys.readouterr().err


def test_eig_negative_count_is_usage_error(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    assert run(["eig", "--s", "0.5", "--T", "8", "--count", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert "count" in capsys.readouterr().err


def test_energy_scan_needs_two_distinct_periods(tmp_path, capsys):
    for periods in ("16", "16,16", "16,16,32"):
        out = tmp_path / "scan.csv"
        assert run(["energy-scan", "--s", "0.25", "--T-list", periods, "--out", str(out)]) == 2
        assert not out.exists()
        assert "T_list" in capsys.readouterr().err


def test_csv_bytes_pinned(tmp_path):
    from fracperiodic.cli import _write_csv

    values = [0, 7, -3, 0.1, 1.0 / 3.0, -0.0, 0.0, math.nan, math.inf, -math.inf,
              5e-324, 1.7976931348623157e308, np.float64(2.5e-17), np.float32(0.1)]
    rows = [(v, -v, f"r{i}") for i, v in enumerate(values)]
    out = tmp_path / "t.csv"
    _write_csv(str(out), ["a", "b", "name"], rows)
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b,name"
    assert lines[1:7] == ["0,0,r0", "7,-7,r1", "-3,3,r2", "0.10000000000000001,-0.10000000000000001,r3",
                          "0.33333333333333331,-0.33333333333333331,r4", "-0,0,r5"]
    assert lines[8:11] == ["nan,nan,r7", "inf,-inf,r8", "-inf,inf,r9"]
    # every cell as the per-value rule formats it
    assert lines[1:] == [",".join(format(float(v), ".17g") if isinstance(v, (int, float, np.floating))
                                  else str(v) for v in row) for row in rows]
    table = np.array([[v, -v] for v in values[3:12]], dtype=float)
    _write_csv(str(out), ["a", "b"], table.tolist())   # rows of plain floats: the same digits
    assert out.read_text().splitlines()[1:] == [ln.rsplit(",", 1)[0] for ln in lines[4:13]]


def test_extend_with_an_unknown_method_is_usage_error(tmp_path, capsys):
    inp, out = tmp_path / "u.json", tmp_path / "field.csv"
    write_function(inp, T=TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    assert run(["extend", "--s", "0.5", "--input", str(inp), "--method", "foo", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "usage error: method must be bessel or poisson\n"
    assert not out.exists()


@pytest.mark.parametrize("method", ["bessel", "poisson"])
def test_extend_points_off_the_half_strip_are_usage_errors(tmp_path, capsys, method):
    inp = tmp_path / "u.json"
    write_function(inp, T=TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    for points, name in (("nan,1", "x"), ("inf,1", "x"), ("1,-1", "y"), ("1,nan", "y"),
                         ("1,inf", "y"), ("1,0;1,-1e-9", "y")):
        out = tmp_path / "field.csv"
        assert run(["extend", "--s", "0.3", "--input", str(inp), "--method", method,
                    "--points", points, "--out", str(out)]) == 2, points
        assert not out.exists()
        assert f"usage error: {name} must be finite" in capsys.readouterr().err


SKEW = "poly:0.25,0,-0.5,0.075,0.25,-0.15,0,0.075"   # a double well that is not even


def test_non_even_well_in_a_symmetric_class_is_usage_error(tmp_path, capsys):
    argvs = [["solve", "--s", "0.5", "--T", "20", "--N", "32", "--symmetry", sym] for sym in ("odd", "even")]
    argvs += [["continue", "--s", "0.5", "--steps", "5"], ["t0-bound", "--s", "0.5", "--lambda-grid", "1.5"],
              ["min-period", "--s", "0.5", "--T-hi", "8"]]
    for argv in argvs:
        out = tmp_path / "out"
        assert run(argv + ["--potential", SKEW, "--out", str(out)]) == 2, argv
        assert not out.exists()
        assert "class needs an even potential" in capsys.readouterr().err


def test_invalid_ranges_are_usage_errors(tmp_path, capsys):
    for argv, name in ((["t0-bound", "--s", "0.5", "--lambda-grid", ","], "lambda_grid"),
                       (["test-bound", "--s", "0.5", "--T", "8", "--d", "1e-200"], "layer width d"),
                       (["test-bound", "--s", "0.5", "--T", "8", "--d", "0.06"], "layer width d")):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists()
        assert f"usage error: {name} must" in capsys.readouterr().err


def test_energy_scan_slope_so_far_uses_the_library_fit(tmp_path, capsys):
    # at s = 1/2 the fit is J against ln T, in the column as on stderr
    out = tmp_path / "scan.csv"
    assert run(["energy-scan", "--s", "0.5", "--T-list", "8,12,16", "--out", str(out)]) == 0
    slope = capsys.readouterr().err.split("slope=")[1].split()[0]
    header, rows = read_csv(out)
    assert header[2] == "slope_so_far" and rows[0][2] == "nan"
    assert rows[-1][2] == slope


def summary(err):
    """The one stderr summary line as (key, value) pairs, in order."""
    (line,) = err.splitlines()
    return [tuple(field.split("=", 1)) for field in line.split(" ")]


def test_solve_linear_coercive_and_fredholm_run(tmp_path, capsys):
    k = tmp_path / "k.json"
    g = tmp_path / "g.json"
    write_function(k, T=TWO_PI, sin_coeffs=[0.1], cos_coeffs=[1.5, 0.2])
    write_function(g, T=TWO_PI, sin_coeffs=[1.0, 0.5], cos_coeffs=[0.0, 0.3])
    out = tmp_path / "coercive.json"
    assert run(["solve-linear", "--s", "0.5", "--k", str(k), "--g", str(g), "--N", "16",
                "--mu", "0.5", "--out", str(out)]) == 0
    fields = dict(summary(capsys.readouterr().err))
    assert list(fields) == ["stability_constant", "residual"]
    assert float(fields["stability_constant"]) > 0 and float(fields["residual"]) < 1e-12
    u = PeriodicFunction.from_dict(json.loads(out.read_text()))
    assert u.N == 16 and u.T == TWO_PI

    out = tmp_path / "unique.json"
    assert run(["solve-linear", "--s", "0.5", "--k", str(k), "--g", str(g), "--N", "16",
                "--out", str(out)]) == 0
    assert capsys.readouterr().err == "kernel_dim=0 unique=True\n"
    assert PeriodicFunction.from_dict(json.loads(out.read_text())).N == 16

    # k = 0: the constants span the kernel, g has mean 0, and u = g / |m|^{2s} exactly
    write_function(k, T=TWO_PI, sin_coeffs=[], cos_coeffs=[0.0])
    out = tmp_path / "fredholm.json"
    assert run(["solve-linear", "--s", "0.5", "--k", str(k), "--g", str(g), "--N", "16",
                "--out", str(out)]) == 0
    assert capsys.readouterr().err == "kernel_dim=1 unique=False\n"
    u = PeriodicFunction.from_dict(json.loads(out.read_text()))
    assert np.allclose(u.sin_coeffs[:2], [1.0, 0.25], atol=1e-12)
    assert np.allclose(u.cos_coeffs[:2], [0.0, 0.3], atol=1e-12)
    assert np.max(np.abs(u.sin_coeffs[2:])) < 1e-12 and np.max(np.abs(u.cos_coeffs[2:])) < 1e-12


def test_continue_writes_the_branch_and_its_points(tmp_path, capsys):
    out = tmp_path / "branch.csv"
    points = tmp_path / "points"
    assert run(["continue", "--s", "0.5", "--steps", "5", "--points-dir", str(points),
                "--out", str(out)]) == 0
    assert summary(capsys.readouterr().err) == [("bifurcation_lambda", "1"), ("direction", "supercritical")]
    header, rows = read_csv(out)
    assert header == ["lambda", "amplitude", "residual", "sigma_min"]
    assert len(rows) == 5
    table = np.array(rows, dtype=float)
    assert np.all(np.diff(table[:, 0]) > 0) and np.max(table[:, 2]) < 1e-10
    assert sorted(p.name for p in points.iterdir()) == [f"point_{i:04d}.json" for i in range(5)]
    for i in range(5):
        u = PeriodicFunction.from_dict(json.loads((points / f"point_{i:04d}.json").read_text()))
        assert u.odd and u.T == TWO_PI


def test_hamiltonian_writes_the_first_integral(tmp_path, capsys):
    out = tmp_path / "ham.csv"
    assert run(["hamiltonian", "--s", "0.5", "--T", "8", "--out", str(out)]) == 0
    fields = dict(summary(capsys.readouterr().err))
    assert list(fields) == ["C_T", "max_deviation"]
    header, rows = read_csv(out)
    assert header == ["x", "w", "F_u", "deviation"]
    assert len(rows) == 64
    x, w, f_u, deviation = np.array(rows, dtype=float).T
    assert np.array_equal(x, np.arange(64) * (8.0 / 64))
    assert float(fields["max_deviation"]) <= 1e-5 and np.max(np.abs(deviation)) <= 1e-5
    assert np.allclose(w - f_u - deviation, float(fields["C_T"]), rtol=0, atol=1e-12)


def test_modica_writes_the_half_strip_scan(tmp_path, capsys):
    out = tmp_path / "modica.csv"
    assert run(["modica", "--s", "0.5", "--T", "8", "--out", str(out)]) == 0
    fields = dict(summary(capsys.readouterr().err))
    assert list(fields) == ["C_hat", "lower_bound", "argmax"]
    header, rows = read_csv(out)
    assert header == ["x", "y", "v_hat"]
    assert len(rows) == 64 * 64
    # the grid maximum sits on the y = 0 row, and C_hat is printed with the CSV digits
    x_max, y_max = fields["argmax"].strip("()").split(",")
    assert y_max == "0" and [x_max, "0", fields["C_hat"]] in rows
    assert max(float(r[2]) for r in rows) == float(fields["C_hat"])
    assert abs(float(fields["lower_bound"]) - float(fields["C_hat"])) < 1e-10


@pytest.mark.parametrize("potential", ["quartic:nan", "quartic:inf", "poly:nan", "poly:0.25,0,-0.5,0,nan"])
def test_non_finite_potential_is_usage_error(tmp_path, capsys, potential):
    # check_shape cannot see NaN (every comparison with it is false), so the
    # coefficients are checked where the well is built; min-period must not blame T
    for argv in (["solve", "--s", "0.5", "--T", "8", "--N", "16"],
                 ["energy-scan", "--s", "0.5", "--T-list", "8,12"],
                 ["hamiltonian", "--s", "0.5", "--T", "8"], ["modica", "--s", "0.5", "--T", "8"],
                 ["min-period", "--s", "0.5", "--T-hi", "8"]):
        out = tmp_path / "out"
        assert run(argv + ["--potential", potential, "--out", str(out)]) == 2, argv
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "must be finite" in err, (argv, err)


@pytest.mark.parametrize("cmd", ["apply", "extend", "solve-linear"])
def test_function_json_without_a_key_is_usage_error(tmp_path, capsys, cmd):
    good = tmp_path / "good.json"
    write_function(good, T=TWO_PI, sin_coeffs=[1.0], cos_coeffs=[0.5, 0.0])
    for text, key in (('{"T": 6.283185307179586, "b": [0.0, 1.0]}', "'a'"),
                      ('{"T": 6.283185307179586, "a": [1.0], "b": ["x", 1.0]}', "'b'"),
                      ('{"T": 6.283185307179586, "odd": "no", "a": [1.0], "b": [0.0, 1.0]}', "'odd'")):
        bad = tmp_path / "bad.json"
        bad.write_text(text + "\n")
        inputs = {"apply": ["--input", bad], "extend": ["--input", bad],
                  "solve-linear": ["--k", good, "--g", bad, "--mu", "1"]}[cmd]
        out = tmp_path / "out"
        assert run([cmd, "--s", "0.5", *map(str, inputs), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("usage error: function JSON") and key in err


def test_negative_truncation_and_non_finite_shift_are_usage_errors(tmp_path, capsys):
    # --N -3 reached numpy's "negative dimensions are not allowed"; --mu inf
    # exited 0 with residual=nan, and --mu nan was reported as not coercive
    k = tmp_path / "k.json"
    g = tmp_path / "g.json"
    write_function(k, T=TWO_PI, sin_coeffs=[0.1], cos_coeffs=[1.5, 0.2])
    write_function(g, T=TWO_PI, sin_coeffs=[1.0], cos_coeffs=[0.0, 0.3])
    linear = ["solve-linear", "--s", "0.5", "--k", str(k), "--g", str(g)]
    cases = [(["eig", "--s", "0.5", "--T", "8", "--N", "-3"], "out.csv", "N must be"),
             (linear + ["--N", "-1"], "u.json", "N must be"),
             (linear + ["--N", "-1", "--mu", "1"], "u.json", "N must be"),
             (linear + ["--mu", "inf"], "u.json", "mu must be finite"),
             (linear + ["--mu=-inf"], "u.json", "mu must be finite"),
             (linear + ["--mu", "nan"], "u.json", "mu must be finite")]
    for argv, name, msg in cases:
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 2, argv
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and msg in err, argv


@pytest.mark.parametrize("extra", [[], ["--nx", "5", "--ny", "7"]])
def test_modica_csv_is_the_write_csv_text_of_its_rows(tmp_path, monkeypatch, extra):
    # each x and y is formatted once; the text is what _write_csv makes of the
    # rows (x, y, v_hat) with y outer, byte for byte
    from fracperiodic import cli, diagnostics

    reports = []
    check = diagnostics.modica_check

    def spy(*args, **kwargs):
        reports.append(check(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(diagnostics, "modica_check", spy)
    out, ref = tmp_path / "modica.csv", tmp_path / "ref.csv"
    assert run(["modica", "--s", "0.5", "--T", "8.05", *extra, "--out", str(out)]) == 0
    rep = reports[0]
    rows = np.column_stack((np.tile(rep.x, rep.y.size), np.repeat(rep.y, rep.x.size), rep.v_hat.ravel()))
    cli._write_csv(str(ref), ["x", "y", "v_hat"], rows.tolist())
    assert out.read_bytes() == ref.read_bytes()


def test_period_below_the_newton_resolution_is_usage_error(tmp_path, capsys):
    # at s = 0.2 the class norm of a first harmonic shrinks like T^0.1: at
    # T = 1e-100 this exited 0 with classification=nonconstant and the first
    # start, amplitude 0.2, unmoved at residual 2.9e-11
    out = tmp_path / "sol.json"
    assert run(["solve", "--s", "0.2", "--T", "1e-100", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("usage error: period T=1e-100 is too small at s=0.2 "
                                              "for the Newton tolerance 1e-10")
    assert run(["solve", "--s", "0.2", "--T", "1e-30", "--out", str(out)]) == 0
    assert "classification=trivial" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["hamiltonian", "modica"])
@pytest.mark.parametrize("s", ["1e-300", "6e-17"])
def test_certificate_at_a_vanishing_order_is_usage_error(tmp_path, capsys, cmd, s):
    # beta = 2s - 1 of the y^-a rule rounds to 2 + beta = 1: this failed as
    # "usage error: Eigenvalues did not converge" after a RuntimeWarning at
    # 1e-300, and exited 0 with nan in the output at 6e-17
    out = tmp_path / "out.csv"
    assert run([cmd, "--s", s, "--T", "8", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("usage error: Gauss-Jacobi weight r^beta needs 2 + beta > 1")


@pytest.mark.parametrize("s", ["1e-300", "1e-17"])
def test_test_bound_at_a_vanishing_order_is_usage_error(tmp_path, capsys, s):
    # p = 1 + 2s of zeta(p, q) rounds to 1: this exited 0 with nan in
    # gagliardo_total, total and j_bound, and with a traceback under -W error
    out = tmp_path / "bound.csv"
    assert run(["test-bound", "--s", s, "--T", "8", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("usage error: Hurwitz zeta(p, q) needs p > 1, got p = 1 + 2s = 1.0")


def test_t0_bound_on_a_subcritical_well_is_usage_error(tmp_path, capsys):
    out = tmp_path / "t0.csv"
    argv = ["t0-bound", "--s", "0.5", "--potential", "poly:0.5,0,-0.5,0,-0.5,0,0.5", "--out", str(out)]
    assert run(argv) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("usage error: the branch leaves lambda = 1 toward lambda < 1 "
                                              "(subcritical")
