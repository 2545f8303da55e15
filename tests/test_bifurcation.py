"""Branch tests: bifurcation-point detection, pseudo-arclength tracing,
criticality classification, and the realized-period report."""

import math

import numpy as np
import pytest

from fracperiodic.bifurcation import (
    classify_criticality,
    continue_branch,
    detect_bifurcation_points,
    verify_T0_bound,
)
from fracperiodic.spectral import DoubleWell, FracOrder, frac_laplacian

TWO_PI = 2.0 * math.pi


def well():
    return DoubleWell.quartic()


# -- detection ---------------------------------------------------------------


def test_detection_matches_power_law():
    for s in (0.25, 0.5, 0.75):
        found = detect_bifurcation_points(FracOrder(s), well(), 5)
        expected = [float(m) ** (2 * s) for m in range(1, 6)]
        assert len(found) == 5
        assert np.max(np.abs(np.array(found) - expected)) < 1e-8


def test_detection_first_point_always_one():
    for s in (0.15, 0.5, 0.85):
        found = detect_bifurcation_points(FracOrder(s), well(), 1)
        assert abs(found[0] - 1.0) < 1e-8


def test_detection_requires_negative_curvature():
    bad = DoubleWell.from_poly([0.25, 0.0, 0.5, 0.0, 0.25])  # F''(0) = +1
    with pytest.raises(ValueError):
        detect_bifurcation_points(FracOrder(0.5), bad, 2)


def sign_scan_points(frac, well, m_max, N):
    """Bifurcation points by the determinant sign scan plus brentq: the
    reference for the pencil-eigenvalue detector."""
    from scipy.optimize import brentq

    from fracperiodic.bifurcation import _RescaledSystem

    sys = _RescaledSystem(frac, well, N)
    zero = np.zeros(N)

    def det_sign_log(lam):
        sign, logdet = np.linalg.slogdet(sys.jac_u(zero, lam))
        return sign * math.exp(min(logdet / N, 50.0))

    targets = np.arange(1, m_max + 1) ** (2.0 * frac.s)
    gap = min(np.diff(np.concatenate(([0.0], targets)))) if m_max > 1 else targets[0]
    grid = np.arange(1e-6, targets[-1] + 0.5 * gap, gap / 4.0)
    vals = np.array([det_sign_log(lam) for lam in grid])
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(det_sign_log, grid[i], grid[i + 1], xtol=1e-13))
    return roots[:m_max]


@pytest.mark.parametrize("potential", [
    DoubleWell.quartic(),
    DoubleWell.quartic(2.5),
    DoubleWell.from_poly([0.25, 0.0, -0.5, 0.0, 0.25]),
    DoubleWell.from_poly([0.3, 0.0, -0.9, 0.0, 0.45, 0.0, 0.15]),
])
def test_detection_matches_sign_scan(potential):
    for s in (0.15, 0.5, 0.85):
        for m_max in (1, 4, 9):
            N = max(24, m_max + 8)
            found = detect_bifurcation_points(FracOrder(s), potential, m_max)
            ref = sign_scan_points(FracOrder(s), potential, m_max, N)
            assert len(found) == len(ref) == m_max
            assert np.max(np.abs(np.array(found) - ref)) < 1e-10


# -- continuation ------------------------------------------------------------


def test_branch_supercritical_pitchfork():
    br = continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=50, ds_arc=0.05)
    lams = br.lambdas()
    amps = br.amplitudes()
    assert np.all(lams > 1.0)
    assert np.all(np.diff(amps) > 0.0)  # amplitude strictly increasing
    for p in br.points:
        assert p.residual <= 1e-9
        x = np.linspace(0.0, TWO_PI, 257)
        assert np.max(np.abs(p.u(x))) < 1.0
    c, r2 = br.pitchfork_fit()
    assert c > 0.0 and r2 > 0.99
    assert br.direction == "supercritical"


def test_branch_sign_symmetry():
    # (lambda, -u) solves the same rescaled equation: the well is even
    frac = FracOrder(0.5)
    br = continue_branch(frac, well(), lambda_start=1.0, steps=10, ds_arc=0.05)
    p = br.points[-1]
    x = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    for u in (p.u, -p.u):
        g = frac_laplacian(u, frac)
        vals = g(x) + p.lam * well().f1(u(x))
        assert np.max(np.abs(vals)) < 1e-6  # pointwise: includes truncation tail


def test_branch_rescaling_round_trip():
    br = continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=5, ds_arc=0.05)
    u = br.points[-1].u
    back = u.rescaled(5.0).rescaled(TWO_PI)
    assert np.max(np.abs(back.sin_coeffs - u.sin_coeffs)) < 1e-10


# -- criticality -------------------------------------------------------------


def test_classify_quartic_supercritical():
    for s in (0.3, 0.5, 0.7):
        assert classify_criticality(FracOrder(s), well(), 1) == "supercritical"


def test_classify_synthetic_subcritical():
    # F = 1/4 - u^2/2 - u^4/4: F''(0) = -1, F''''(0) = -6
    soft = DoubleWell.from_poly([0.25, 0.0, -0.5, 0.0, -0.25])
    assert classify_criticality(FracOrder(0.5), soft, 1) == "subcritical"


def test_classify_cubic_term_inconclusive():
    skew = DoubleWell.from_poly([0.25, 0.0, -0.5, 0.1, 0.25])
    assert classify_criticality(FracOrder(0.5), skew, 1) == "inconclusive"


def test_classify_agrees_with_branch_fit():
    for s in (0.3, 0.5, 0.7):
        frac = FracOrder(s)
        label = classify_criticality(frac, well(), 1)
        br = continue_branch(frac, well(), lambda_start=1.0, steps=12, ds_arc=0.03)
        assert label == br.direction


# -- realized periods --------------------------------------------------------


def test_t0_realized_period_three_pi():
    rep = verify_T0_bound(FracOrder(0.5), well(), lambda_grid=[1.5])
    e = rep.entries[0]
    assert abs(e.period - 3.0 * math.pi) < 1e-12
    assert e.residual_rescaled <= 1e-9


def test_t0_bound_approached_from_above():
    rep = verify_T0_bound(FracOrder(0.5), well(), lambda_grid=[1.001, 1.01, 1.1, 2.0, 4.0])
    assert abs(rep.bound - TWO_PI) < 1e-12
    assert rep.min_period > rep.bound
    assert rep.min_period - rep.bound < 0.01  # grid reaches within 1e-2
    assert rep.max_residual <= 1e-9


def test_t0_rescaling_formula_quarter():
    rep = verify_T0_bound(FracOrder(0.25), well(), lambda_grid=[2.0])
    assert abs(rep.entries[0].period - 8.0 * math.pi) < 1e-12


def test_t0_scaled_well_bound():
    rep = verify_T0_bound(FracOrder(0.5), DoubleWell.quartic(4.0), lambda_grid=[1.01, 1.5])
    assert abs(rep.bound - math.pi / 2.0) < 1e-12
    assert rep.min_period > rep.bound
