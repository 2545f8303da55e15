"""Command-line interface tests: exit codes, CSV/JSON output, config-file
merging, --dry-run, and run-to-run determinism."""

import json
import math

import numpy as np

from fracperiodic.cli import run
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
        code = run(["solve", "--s", "0.5", "--T", "8", "--N", "48",
                    "--seed", "0", "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]  # byte-identical across runs


def test_solve_linear_fredholm_violation(tmp_path, capsys):
    k = tmp_path / "k.json"
    g = tmp_path / "g.json"
    write_function(k, T=TWO_PI, sin_coeffs=[], cos_coeffs=[0.0])
    write_function(g, T=TWO_PI, sin_coeffs=[], cos_coeffs=[1.0])
    code = run(["solve-linear", "--s", "0.5", "--k", str(k), "--g", str(g)])
    assert code == 1  # constants span the kernel; g is not orthogonal
    assert "SolvabilityViolation" in capsys.readouterr().err


def test_missing_required_is_usage_error(capsys):
    assert run(["eig", "--s", "0.5"]) == 2
    assert "T" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_bad_potential_spec(tmp_path):
    assert run(["solve", "--s", "0.5", "--T", "8", "--potential", "sextic"]) == 2


def test_bad_period_is_usage_error(tmp_path):
    for argv in (["solve", "--s", "0.5", "--T", "nan"],
                 ["solve", "--s", "0.5", "--T", "-1"],
                 ["min-period", "--s", "0.5", "--T-hi", "inf"]):
        out = tmp_path / "out"
        assert run(argv + ["--out", str(out)]) == 2
        assert not out.exists()


def test_non_double_well_potential_rejected(tmp_path):
    out = tmp_path / "sol.json"
    assert run(["solve", "--s", "0.5", "--T", "8", "--potential", "poly:1,0,1",
                "--out", str(out)]) == 2
    assert not out.exists()
    assert run(["solve", "--s", "0.5", "--T", "8", "--potential", "quartic:-1"]) == 2


def test_jobs_below_one_is_usage_error():
    assert run(["min-period", "--s", "0.5", "--T-hi", "8", "--jobs", "0"]) == 2
    assert run(["energy-scan", "--s", "0.25", "--T-list", "16", "--jobs", "-1"]) == 2


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
