"""Import cost: the package loads no adaptive quadrature or root finder
from scipy, and neither do the routes that used to need them."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse")

SCRIPT = f"""
import json, sys
sys.path.insert(0, {str(SRC)!r})
loaded = {{}}
import fracperiodic as fp
loaded["import"] = [m for m in {HEAVY!r} if m in sys.modules]
u = fp.PeriodicFunction.from_modes(6.0, sin_coeffs=[1.0, 0.2], cos_coeffs=[0.1, 0.0, 0.3])
field = fp.extend_poisson(u, fp.FracOrder(0.4))
field.value([0.5, 1.5], [0.0, 0.7])
fp.dirichlet_to_neumann(field)
fp.detect_bifurcation_points(fp.FracOrder(0.4), fp.DoubleWell.quartic(), 3)
loaded["calls"] = [m for m in {HEAVY!r} if m in sys.modules]
print(json.dumps(loaded))
"""


def test_no_quadrature_or_optimizer_modules_loaded():
    proc = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          timeout=120, check=True)
    loaded = json.loads(proc.stdout.strip().splitlines()[-1])
    assert loaded == {"import": [], "calls": []}
