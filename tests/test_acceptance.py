"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (run with -s to see them on success)."""

import math

import numpy as np
import pytest

from fracperiodic.bifurcation import (
    continue_branch,
    detect_bifurcation_points,
    verify_T0_bound,
)
from fracperiodic.cli import run
from fracperiodic.diagnostics import (
    energy_scan,
    hamiltonian_check,
    modica_check,
    test_function_bound as competitor_bound,
)
from fracperiodic.errors import IdentityViolation, InequalityViolation, SolvabilityViolation
from fracperiodic.extension import dirichlet_to_neumann, extend_bessel, extend_poisson
from fracperiodic.linear import GalerkinOperator, solve_fredholm
from fracperiodic.semilinear import SolveConfig, find_min_period, minimize_energy
from fracperiodic.spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    frac_laplacian,
    singular_integral_oracle,
)

TWO_PI = 2.0 * math.pi


def well():
    return DoubleWell.quartic()


def report(n, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {n} — {desc}")
    assert ok, f"criterion {n}: {desc}"


def random_function(rng, T, N):
    return PeriodicFunction(T=T, sin_coeffs=rng.standard_normal(N),
                            cos_coeffs=rng.standard_normal(N + 1), odd=False)


def test_criterion_1_spectrum_exactness(tmp_path):
    ok = True
    for s in (0.25, 0.5, 0.75):
        out = tmp_path / f"eig_{s}.csv"
        code = run(["eig", "--s", str(s), "--T", str(TWO_PI), "--count", "21",
                    "--N", "16", "--out", str(out)])
        ok = ok and code == 0
        vals = [float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:]]
        expected = sorted([0.0] + [float(m) ** (2 * s) for m in range(1, 11)] * 2)
        ok = ok and np.max(np.abs(np.array(vals) - expected)) < 1e-10
    report(1, "eig reproduces {0} u {m^{2s}} for m <= 10 within 1e-10", ok)


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(50):
        s = float(rng.uniform(0.1, 0.9))
        T = float(rng.uniform(4.0, 12.0))
        u = random_function(rng, T, int(rng.integers(1, 9)))
        frac = FracOrder(s)
        mult = frac_laplacian(u, frac)
        for x in rng.uniform(0.0, T, 16):
            lhs = singular_integral_oracle(u, frac, float(x))
            worst = max(worst, abs(lhs - mult(float(x))))
    report(2, f"singular-integral oracle vs multiplier, max err {worst:.2e} <= 1e-6",
           worst <= 1e-6)


def test_criterion_3_extension_cross_validation():
    rng = np.random.default_rng(200)
    worst = 0.0
    for _ in range(10):
        s = float(rng.uniform(0.15, 0.85))
        u = random_function(rng, TWO_PI, 4)
        fb = extend_bessel(u, FracOrder(s))
        fp = extend_poisson(u, FracOrder(s))
        for _ in range(20):
            x0, y0 = float(rng.uniform(0, TWO_PI)), float(rng.uniform(0.05, 3.0))
            worst = max(worst, abs(fb.value(x0, y0) - fp.value(x0, y0)))
    # closed form at s = 1/2
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0, -0.4], cos_coeffs=[0.2, 0.0, 0.3])
    fb = extend_bessel(u, FracOrder(0.5))
    fp = extend_poisson(u, FracOrder(0.5))
    worst_cf = 0.0
    for x0 in (0.3, 2.1, 5.0):
        for y0 in (0.2, 1.0, 2.5):
            ref = u.cos_coeffs[0]
            for m in range(1, u.N + 1):
                ref += math.exp(-m * y0) * (u.sin_coeffs[m - 1] * math.sin(m * x0)
                                            + u.cos_coeffs[m] * math.cos(m * x0))
            worst_cf = max(worst_cf, abs(fb.value(x0, y0) - ref), abs(fp.value(x0, y0) - ref))
    report(3, f"bessel vs poisson {worst:.2e} <= 1e-6; s=1/2 closed form {worst_cf:.2e} <= 1e-8",
           worst <= 1e-6 and worst_cf <= 1e-8)


def test_criterion_4_dtn_consistency():
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(10):
        s = float(rng.uniform(0.15, 0.85))
        u = random_function(rng, TWO_PI, 4)
        frac = FracOrder(s)
        dtn = dirichlet_to_neumann(extend_bessel(u, frac))
        ref = frac_laplacian(u, frac)
        worst = max(worst,
                    float(np.max(np.abs(dtn.sin_coeffs - ref.sin_coeffs))),
                    float(np.max(np.abs(dtn.cos_coeffs - ref.cos_coeffs))))
    report(4, f"DtN of extension equals multiplier, max err {worst:.2e} <= 1e-6",
           worst <= 1e-6)


def test_criterion_5_fredholm_alternative():
    op0 = GalerkinOperator(frac=FracOrder(0.5), T=TWO_PI, N=16,
                           k=PeriodicFunction.constant(TWO_PI, 0.0))
    op1 = GalerkinOperator(frac=FracOrder(0.5), T=TWO_PI, N=16,
                           k=PeriodicFunction.constant(TWO_PI, 1.0))
    g_sin = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    g_cos = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[], cos_coeffs=[0.0, 1.0])
    g_one = PeriodicFunction.constant(TWO_PI, 1.0)
    unique = solve_fredholm(op1, g_sin)
    ortho = solve_fredholm(op0, g_cos)
    violated = False
    try:
        solve_fredholm(op0, g_one)
    except SolvabilityViolation:
        violated = True
    ok = (unique.unique and unique.kernel.dim == 0
          and not ortho.unique and ortho.kernel.dim == 1
          and abs(ortho.solution.cos_coeffs[1] - 1.0) < 1e-9
          and violated)
    report(5, "Fredholm trichotomy: unique / kernel-orthogonal / violation", ok)


def test_criterion_6_bifurcation_threshold():
    ok = True
    for s in (0.25, 0.5, 0.75):
        found = detect_bifurcation_points(FracOrder(s), well(), 5)
        expected = [float(m) ** (2 * s) for m in range(1, 6)]
        ok = ok and np.max(np.abs(np.array(found) - expected)) < 1e-8
    br = continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=40, ds_arc=0.05)
    _, r2 = br.pitchfork_fit()
    ok = ok and np.all(br.lambdas() > 1.0) and r2 > 0.99 and br.direction == "supercritical"
    report(6, f"bifurcation points at m^(2s) within 1e-8; pitchfork fit R2 = {r2:.4f} > 0.99", ok)


def test_criterion_7_t0_bound():
    frac = FracOrder(0.5)
    rep = verify_T0_bound(frac, well())
    est = find_min_period(frac, well(), T_hi=8.0, tol=0.05)
    ok = (rep.min_period > rep.bound
          and rep.min_period - rep.bound < 1e-2 * rep.bound
          and rep.max_residual <= 1e-8
          and est <= rep.bound + 0.05)
    report(7, f"realized periods reach {rep.min_period:.4f} above bound {rep.bound:.4f}; "
              f"min-period estimate {est:.4f} <= bound + tol", ok)


def test_criterion_8_hamiltonian_identity():
    frac = FracOrder(0.5)
    sol = minimize_energy(8.0, frac, well(), SolveConfig(N=48))
    rep = hamiltonian_check(sol, frac, well())
    control_failed = False
    bump = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.0, 0.05], cos_coeffs=None)
    try:
        hamiltonian_check(sol.u + bump, frac, well())
    except IdentityViolation:
        control_failed = True
    ok = rep.max_deviation <= 1e-5 and control_failed
    report(8, f"w - F(u) constant to {rep.max_deviation:.2e} <= 1e-5; "
              "perturbed control trips the check", ok)


def test_criterion_9_modica():
    frac = FracOrder(0.5)
    sol = minimize_energy(8.0, frac, well(), SolveConfig(symmetry="even", N=48))
    rep = modica_check(sol, frac, well(), nx=64, ny=64)
    ok = (rep.c_hat > 0.0
          and float(np.max(rep.v_hat)) <= rep.c_hat + 1e-10
          and rep.argmax[1] == 0.0
          and rep.c_hat >= rep.c_hat_lower - 1e-5)
    report(9, f"v_hat <= C_hat = {rep.c_hat:.6f} on 64x64 grid, argmax on y = 0, "
              f"C_hat >= lower bound {rep.c_hat_lower:.6f} - 1e-5", ok)


def test_criterion_9_perturbed_control_trips_the_check():
    # criterion 9's control, as criterion 8 has one: adding 0.3 cos(4 w x) to
    # the even minimizer leaves a trace that solves nothing, and v_hat then
    # exceeds C_hat inside the half-strip
    frac = FracOrder(0.5)
    sol = minimize_energy(8.0, frac, well(), SolveConfig(symmetry="even", N=48))
    bump = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.0] * 4, cos_coeffs=[0.0] * 4 + [0.3])
    with pytest.raises(InequalityViolation):
        modica_check(sol.u + bump, frac, well(), nx=64, ny=64)


def test_criterion_10_energy_scaling():
    Ts = [16.0, 32.0, 64.0, 128.0]
    sub = energy_scan(FracOrder(0.25), well(), Ts)
    sup = energy_scan(FracOrder(0.75), well(), Ts)
    half = energy_scan(FracOrder(0.5), well(), Ts)
    ok = (abs(sub.slope - 0.5) <= 0.15
          and sup.ratio <= 1.3
          and half.sigma < 0.5)
    report(10, f"slope {sub.slope:.3f} in 0.5 +- 0.15 (s=0.25); ratio {sup.ratio:.3f} <= 1.3 "
               f"(s=0.75); sigma {half.sigma:.3f} < 1/2 at T=128 (s=0.5)", ok)


def test_criterion_11_test_function_bound():
    frac = FracOrder(0.5)
    ok = True
    for T in (16.0, 32.0, 64.0):
        rep = competitor_bound(frac, T, 2.0, well())
        for _name, value, bound in rep.regions():
            ok = ok and np.isfinite(bound) and value <= bound * (1.0 + 1e-9)
        sol = minimize_energy(T, frac, well(), SolveConfig(N=max(64, int(1.5 * T))))
        ok = ok and sol.energy <= rep.j_bound
    report(11, "four regional estimates below closed-form constants; J(U_T) <= bound "
               "for every scanned T", ok)
