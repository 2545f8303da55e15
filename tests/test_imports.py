"""Import cost: the package runs on numpy alone.  A fresh interpreter
imports it and runs every CLI subcommand, and no scipy module is ever
loaded, neither at import nor deferred inside a call."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy",)

SCRIPT = f"""
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, {str(SRC)!r})
HEAVY = {HEAVY!r}

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in HEAVY)

loaded = {{}}
import fracperiodic as fp
from fracperiodic import cli
loaded["import"] = heavy()
tmp = tempfile.mkdtemp()

def path(name):
    return os.path.join(tmp, name)

def write(name, u):
    with open(path(name), "w") as fh:
        fh.write(u.to_json())
    return path(name)

u = write("u.json", fp.PeriodicFunction.from_modes(6.0, sin_coeffs=[1.0, 0.2], cos_coeffs=[0.1, 0.0, 0.3]))
k = write("k.json", fp.PeriodicFunction.from_modes(6.0, sin_coeffs=[0.0], cos_coeffs=[1.0, 0.2]))
commands = {{
    "apply": ["--s", "0.4", "--input", u],
    "eig": ["--s", "0.4", "--T", "6.0", "--count", "3", "--N", "8"],
    "solve-linear": ["--s", "0.4", "--k", k, "--g", u, "--N", "8", "--mu", "1.0"],
    "solve": ["--s", "0.5", "--T", "8.0", "--N", "16"],
    "min-period": ["--s", "0.5", "--T-hi", "8.0", "--tol", "0.5"],
    "continue": ["--s", "0.5", "--steps", "3"],
    "t0-bound": ["--s", "0.5", "--lambda-grid", "1.01,1.1"],
    "hamiltonian": ["--s", "0.5", "--T", "8.0", "--n-samples", "16"],
    "modica": ["--s", "0.5", "--T", "8.0", "--nx", "8", "--ny", "8"],
    "energy-scan": ["--s", "0.5", "--T-list", "8,12"],
    "test-bound": ["--s", "0.5", "--T", "16.0"],
    "extend": ["--s", "0.4", "--input", u, "--method", "poisson"],
}}
codes = {{}}
with contextlib.redirect_stderr(io.StringIO()):
    for cmd, argv in commands.items():
        codes[cmd] = cli.run([cmd, *argv, "--out", path(cmd + ".out")])
    codes["solve-linear fredholm"] = cli.run(["solve-linear", "--s", "0.4", "--k", k, "--g", u,
                                              "--N", "8", "--out", path("fredholm.out")])
    codes["extend bessel"] = cli.run(["extend", "--s", "0.4", "--input", u, "--out", path("bessel.out")])
loaded["commands"] = sorted(set(cli._COMMANDS) - set(commands))   # subcommands left out
loaded["codes"] = codes
loaded["calls"] = heavy()
blas = set()
if os.path.exists("/proc/self/maps"):
    with open("/proc/self/maps") as fh:
        blas = {{ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}}
loaded["openblas"] = len(blas)
print(json.dumps(loaded))
"""


def test_no_scipy_module_loaded_by_import_or_any_subcommand():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=300, check=True)
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded["commands"] == []
    assert set(loaded["codes"].values()) == {0}, loaded["codes"]
    assert loaded["import"] == [] and loaded["calls"] == []
    assert loaded["openblas"] <= 1
