"""Workloads of the fracperiodic benchmark: seeded inputs, the fixed task
list of one pass, and the correctness check of every task.

Each workload is built from a seed; the package only ever sees the
generated inputs.  A task is one timed call into the public API (or one
in-process CLI invocation).  Its check runs after it, outside the timed
region, and compares the result against a route that does not share the
timed code path: the benchmark's own FFT evaluation of the Fourier series,
its own multipliers and constants, or a second construction in the package
(Bessel against Poisson).  A check returns the problems it found and the
named values that are compared against ``reference.json`` for the default
seed.

Why these four workloads: each layer that the roadmap plans to optimise
does most of the work in one workload and almost none in another, so a
later change can show its gain on one and "no change" on the other.

- large_period: large N, so the time goes to dense point evaluation,
  grid transforms and Jacobian assembly (roadmap item 2).
- near_critical: N <= 32, so transforms are tiny and the time is the
  number of descent and Newton iterations near the critical period
  (roadmap item 3).
- certify: extension profiles, the Poisson kernel, quadrature oracles and
  the linear layer, with the minimizers precomputed in set-up so that no
  semilinear work is timed.
- cli_suite: all twelve subcommands in process through ``cli.run``; the
  only workload that measures argument handling and CSV formatting.
"""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import fracperiodic as fp
from fracperiodic import cli

DEFAULT_SEED = 0
WORKLOADS = ("large_period", "near_critical", "certify", "cli_suite")


@dataclass
class Task:
    """One timed call; ``group`` names the end-to-end timing it feeds."""

    label: str
    group: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple]


@dataclass
class Workload:
    name: str
    seed: int
    inputs: dict
    tasks: list
    tmpdir: str = None

    def close(self):
        if self.tmpdir:
            shutil.rmtree(self.tmpdir, ignore_errors=True)
            self.tmpdir = None


# ---------------------------------------------------------------------------
# the benchmark's own numerics: used only by the checks


def d_s(s):
    """Dirichlet-to-Neumann constant 2^{2s-1} Gamma(s) / Gamma(1-s)."""
    return 2.0 ** (2 * s - 1) * math.gamma(s) / math.gamma(1 - s)


def symbols(T, N, power):
    """(2 pi m / T)^power for m = 1..N."""
    return (2.0 * math.pi * np.arange(1, N + 1) / T) ** power


def grid(T, a, b, M):
    """b_0 + sum a_m sin(w m x) + b_m cos(w m x) at x_j = j T / M, by inverse FFT."""
    N = len(a)
    if M <= 2 * N:
        raise ValueError("grid too coarse for the series")
    X = np.zeros(M // 2 + 1, dtype=complex)
    X[0] = M * b[0]
    X[1 : N + 1] = 0.5 * M * (np.asarray(b[1:]) - 1j * np.asarray(a))
    return np.fft.irfft(X, M)


def project(values, N):
    """Grid samples -> (sin coefficients a_1..a_N, cos coefficients b_0..b_N)."""
    c = np.fft.rfft(values) / len(values)
    b = np.concatenate(([c[0].real], 2.0 * c[1 : N + 1].real))
    return -2.0 * c[1 : N + 1].imag, b


def point_values(T, a, b, x):
    """Direct trigonometric sum at arbitrary points."""
    m = np.arange(1, len(a) + 1)
    ph = np.multiply.outer(np.asarray(x, dtype=float), m) * (2.0 * math.pi / T)
    return b[0] + np.sin(ph) @ a + np.cos(ph) @ b[1:]


def quartic_f(u, scale=1.0):
    return scale * (1.0 - u**2) ** 2 / 4.0


def quartic_f1(u, scale=1.0):
    return scale * (u**3 - u)


def coeffs(u):
    return np.asarray(u.sin_coeffs, dtype=float), np.asarray(u.cos_coeffs, dtype=float)


def dirichlet(T, a, b, s):
    """<u, (-d_xx)^s u> over one period by Parseval."""
    lam = symbols(T, len(a), 2 * s)
    return 0.5 * T * float(lam @ (a**2 + b[1:] ** 2))


def semilinear_residual(T, a, b, s, coupling=1.0):
    """L^2 norm of the Galerkin residual (-d_xx)^s u + coupling F'(u), with
    F'(u) projected onto the modes of u by FFT on a grid fine enough to be
    exact for the cubic nonlinearity."""
    N = len(a)
    M = 8 * (N + 1)
    pa, pb = project(quartic_f1(grid(T, a, b, M)), N)
    lam = symbols(T, N, 2 * s)
    ra = lam * a + coupling * pa
    rb = np.concatenate(([coupling * pb[0]], lam * b[1:] + coupling * pb[1:]))
    return math.sqrt(T * (rb[0] ** 2 + 0.5 * float(ra @ ra + rb[1:] @ rb[1:])))


def half_energy(T, a, b, s):
    """J(u) = <u, Lu> / (4 d_s) + int_0^{T/2} F(u) for a u with F(u(-x)) = F(u(x))."""
    M = 8 * (len(a) + 1)
    pot = 0.5 * T * float(np.mean(quartic_f(grid(T, a, b, M))))
    return dirichlet(T, a, b, s) / (4.0 * d_s(s)) + pot


def rel_err(x, ref):
    return abs(x - ref) / max(abs(ref), 1e-300)


class Problems:
    """Collects failed conditions and reference values for one check."""

    def __init__(self):
        self.items = []
        self.values = {}

    def require(self, ok, what):
        if not ok:
            self.items.append(what)

    def value(self, key, v):
        self.values[key] = float(v)

    def result(self):
        return self.items, self.values


def check_solution(sol, T, s, expect, p, prefix):
    """Residual, classification, |u| < 1 and energy of a minimize_energy result."""
    a, b = coeffs(sol.u)
    p.require(sol.classification == expect, f"classification {sol.classification} != {expect}")
    p.require(abs(sol.u.T - T) <= 1e-12 * T, f"period {sol.u.T} != {T}")
    if expect == "nonconstant":
        res = semilinear_residual(T, a, b, s)
        p.require(res <= 1e-8, f"FFT residual {res:.3e} > 1e-8")
        amp = float(np.max(np.abs(grid(T, a, b, 4 * (len(a) + 1)))))
        p.require(amp < 1.0, f"|u| reaches {amp:.6f} >= 1")
        p.require(rel_err(sol.amplitude, amp) <= 1e-9, f"amplitude {sol.amplitude} vs grid {amp}")
        J = half_energy(T, a, b, s)
        p.require(rel_err(sol.energy, J) <= 1e-9, f"energy {sol.energy} vs Parseval+grid {J}")
    else:
        p.require(float(np.max(np.abs(a))) + float(np.max(np.abs(b[1:]), initial=0.0)) == 0.0,
                  "trivial solution has nonzero modes")
    p.value(f"{prefix}.energy", sol.energy)
    p.value(f"{prefix}.amplitude", sol.amplitude)


# ---------------------------------------------------------------------------
# large_period


def build_large_period(seed):
    rng = np.random.default_rng(seed)
    s_min, s_scan = 0.5, 0.25
    T_big = float(rng.uniform(195.0, 205.0))
    N_big = 512
    T_scan = [float(t * rng.uniform(0.98, 1.02)) for t in (16.0, 32.0, 64.0, 128.0)]
    inputs = {"minimize_energy": {"s": s_min, "T": T_big, "N": N_big, "symmetry": "odd"},
              "energy_scan": {"s": s_scan, "T_list": T_scan}}
    well = fp.DoubleWell.quartic()

    def run_min():
        return fp.minimize_energy(T_big, fp.FracOrder(s_min), well, fp.SolveConfig(N=N_big))

    def check_min(sol):
        p = Problems()
        check_solution(sol, T_big, s_min, "nonconstant", p, "minimize_energy")
        p.require(sol.u.N == N_big, f"truncation {sol.u.N} != {N_big}")
        return p.result()

    def run_scan():
        return fp.energy_scan(fp.FracOrder(s_scan), well, T_scan)

    def check_scan(rep):
        p = Problems()
        Ts = np.array([e[0] for e in rep.entries])
        Js = np.array([e[1] for e in rep.entries])
        p.require(np.allclose(Ts, sorted(T_scan), rtol=0, atol=0), "scan periods differ from the inputs")
        p.require(rep.regime == "sub-half", f"regime {rep.regime} for s = {s_scan}")
        p.require(bool(np.all(Js > 0)) and bool(np.all(np.diff(Js) > 0)), "J(T) not positive increasing")
        slope = float(np.polyfit(np.log(Ts), np.log(Js), 1)[0])
        p.require(rel_err(rep.slope, slope) <= 1e-9, f"slope {rep.slope} vs refit {slope}")
        p.require(0.0 < slope < 1.0, f"log-log slope {slope} outside (0, 1)")
        sig = Js / (0.25 * Ts)   # sigma = J / (F(0) T), F(0) = 1/4
        p.require(np.allclose(rep.sigma_values, sig, rtol=1e-12, atol=0), "sigma values inconsistent with J")
        p.require(rep.sigma < 0.5, f"sigma {rep.sigma} >= 1/2 at the largest period")
        for i, J in enumerate(Js):
            p.value(f"energy_scan.J{i}", J)
        return p.result()

    tasks = [Task("minimize_energy", "minimize_energy", run_min, check_min),
             Task("energy_scan", "energy_scan", run_scan, check_scan)]
    return Workload("large_period", seed, inputs, tasks)


# ---------------------------------------------------------------------------
# near_critical


def build_near_critical(seed):
    # narrow ranges: the iteration counts near the critical period, and so
    # the pass time, move by up to a fifth across s in [0.49, 0.51]
    rng = np.random.default_rng(seed)
    s = float(rng.uniform(0.498, 0.502))
    T_hi = float(rng.uniform(9.95, 10.05))
    tol = 0.05
    bound = 2.0 * math.pi        # 2 pi (-F''(0))^{-1/(2s)} with F''(0) = -1
    T_below = float(bound * rng.uniform(0.978, 0.982))
    T_above = float(bound * rng.uniform(1.018, 1.022))
    N = 32
    ds = float(rng.uniform(0.045, 0.055))
    steps = 50
    inputs = {"s": s, "find_min_period": {"T_hi": T_hi, "tol": tol},
              "minimize_energy": {"N": N, "T_below": T_below, "T_above": T_above},
              "continue_branch": {"lambda_start": 1.0, "steps": steps, "ds_arc": ds},
              "verify_T0_bound": {"lambda_grid": "default"}}
    well = fp.DoubleWell.quartic()
    frac = fp.FracOrder(s)

    def check_fmp(est):
        p = Problems()
        p.require(est <= bound + tol, f"estimate {est} exceeds bound {bound} + tol")
        p.require(est > bound / 4.0, f"estimate {est} below the bracket")
        p.value("find_min_period.estimate", est)
        return p.result()

    def make_min(T, expect, label):
        def run():
            return fp.minimize_energy(T, frac, well, fp.SolveConfig(N=N))

        def check(sol):
            p = Problems()
            check_solution(sol, T, s, expect, p, label)
            return p.result()

        return Task(label, "minimize_energy", run, check)

    def check_branch(br):
        p = Problems()
        p.require(len(br.points) == steps, f"{len(br.points)} branch points, expected {steps}")
        p.require(abs(br.bifurcation_lambda - 1.0) <= 1e-12, f"bifurcation at {br.bifurcation_lambda}")
        expect = "supercritical"   # quartic well: positive cubic normal-form coefficient
        p.require(br.direction == expect, f"direction {br.direction} != {expect}")
        worst = 0.0
        for pt in br.points:
            a, b = coeffs(pt.u)
            worst = max(worst, semilinear_residual(2.0 * math.pi, a, b, s, coupling=pt.lam))
        p.require(worst <= 1e-8, f"branch FFT residual {worst:.3e} > 1e-8")
        lam = np.array([pt.lam for pt in br.points])
        amp = np.array([pt.amplitude for pt in br.points])
        p.require(bool(np.all(lam > 1.0)) and bool(np.all(amp > 0.0)), "branch left the supercritical side")
        p.value("continue_branch.last_lambda", lam[-1])
        p.value("continue_branch.last_amplitude", amp[-1])
        return p.result()

    def check_t0(rep):
        p = Problems()
        p.require(abs(rep.bound - bound) <= 1e-12, f"bound {rep.bound} != {bound}")
        for e in rep.entries:
            period = 2.0 * math.pi * e.lam ** (1.0 / (2.0 * s))
            p.require(rel_err(e.period, period) <= 1e-12, f"period {e.period} != {period}")
            p.require(e.residual_rescaled <= 1e-9, f"residual {e.residual_rescaled:.3e} at lambda {e.lam}")
            p.require(0.0 < e.amplitude < 1.0, f"amplitude {e.amplitude} at lambda {e.lam}")
        p.require(rep.min_period > bound, f"realized period {rep.min_period} <= bound")
        p.value("verify_T0_bound.min_period", rep.min_period)
        p.value("verify_T0_bound.max_amplitude", max(e.amplitude for e in rep.entries))
        return p.result()

    tasks = [
        Task("find_min_period", "find_min_period",
             lambda: fp.find_min_period(frac, well, T_hi, tol=tol), check_fmp),
        make_min(T_below, "trivial", "minimize_energy.below"),
        make_min(T_above, "nonconstant", "minimize_energy.above"),
        Task("continue_branch", "continue_branch",
             lambda: fp.continue_branch(frac, well, 1.0, steps, ds), check_branch),
        Task("verify_T0_bound", "verify_T0_bound",
             lambda: fp.verify_T0_bound(frac, well), check_t0),
    ]
    return Workload("near_critical", seed, inputs, tasks)


# ---------------------------------------------------------------------------
# certify


def low_mode(rng, T, n_sin, n_cos, scale, const=0.0):
    a = rng.uniform(-scale, scale, n_sin)
    b = np.concatenate(([const], rng.uniform(-scale, scale, n_cos)))
    return fp.PeriodicFunction.from_modes(T, sin_coeffs=a, cos_coeffs=b)


def build_certify(seed):
    """Set-up solves the odd and even minimizers, so no timed task does
    semilinear work."""
    rng = np.random.default_rng(seed)
    two_pi = 2.0 * math.pi
    s = float(rng.uniform(0.45, 0.55))
    T = float(rng.uniform(7.5, 8.5))
    N = 48
    frac = fp.FracOrder(s)
    well = fp.DoubleWell.quartic()
    odd = fp.minimize_energy(T, frac, well, fp.SolveConfig(symmetry="odd", N=N))
    even = fp.minimize_energy(T, frac, well, fp.SolveConfig(symmetry="even", N=N))

    s_low = float(rng.uniform(0.3, 0.7))
    frac_low = fp.FracOrder(s_low)
    trace = low_mode(rng, two_pi, 2, 2, 0.5, const=float(rng.uniform(-0.2, 0.2)))
    pts = [(float(rng.uniform(0.0, two_pi)), float(rng.uniform(0.1, 2.0))) for _ in range(4)]
    x_oracle = rng.uniform(0.0, two_pi, 8)

    s_lin = float(rng.uniform(0.3, 0.7))
    frac_lin = fp.FracOrder(s_lin)
    N_lin = 256
    k = low_mode(rng, two_pi, 2, 2, 0.25, const=1.5)   # k >= 0.5 > 0: L is invertible
    g = low_mode(rng, two_pi, 3, 3, 1.0)
    mu = float(rng.uniform(0.4, 0.6))
    count = 8

    inputs = {
        "s": s, "T": T, "N": N,
        "low_mode": {"s": s_low, "trace": trace.to_dict(), "poisson_points": pts,
                     "oracle_x": x_oracle.tolist()},
        "linear": {"s": s_lin, "N": N_lin, "k": k.to_dict(), "g": g.to_dict(), "mu": mu,
                   "count": count},
    }

    for sol, kind in ((odd, "odd"), (even, "even")):
        if sol.classification != "nonconstant":
            raise RuntimeError(f"set-up: {kind} minimizer at T = {T} is {sol.classification}")

    def check_ham(rep):
        p = Problems()
        p.require(rep.max_deviation <= 1e-5, f"Hamiltonian deviation {rep.max_deviation:.3e}")
        p.require(len(rep.x) == 64, "sample count")
        p.require(rep.c_t < 0.0, f"C_T = {rep.c_t} is not negative")
        p.value("hamiltonian_check.c_t", rep.c_t)
        return p.result()

    def check_modica(rep):
        # for an even solution U_x vanishes on x = T/2, so the extension
        # integral there must equal the boundary supremum C_hat
        p = Problems()
        p.require(rep.argmax[1] == 0.0, f"grid maximum off the boundary at {rep.argmax}")
        p.require(rep.c_hat > 0.0, f"C_hat = {rep.c_hat}")
        p.require(rel_err(rep.c_hat_lower, rep.c_hat) <= 1e-6,
                  f"C_hat {rep.c_hat} vs axis integral {rep.c_hat_lower}")
        p.require(rep.v_hat.shape == (64, 64), f"grid shape {rep.v_hat.shape}")
        p.value("modica_check.c_hat", rep.c_hat)
        return p.result()

    ea, eb = coeffs(even.u)

    def check_energy(val):
        p = Problems()
        ref = dirichlet(T, ea, eb, s) / d_s(s)
        p.require(rel_err(val, ref) <= 1e-8, f"extension energy {val} vs Parseval {ref}")
        p.value("extension_energy", val)
        return p.result()

    def check_dtn(v):
        p = Problems()
        lam = symbols(T, N, 2 * s)
        va, vb = coeffs(v)
        err = max(float(np.max(np.abs(va - lam * ea))), float(np.max(np.abs(vb[1:] - lam * eb[1:]))),
                  abs(vb[0]))
        p.require(err <= 1e-10, f"DtN vs multiplier {err:.3e}")
        p.value("dirichlet_to_neumann.norm", v.coeff_norm())
        return p.result()

    def run_poisson():
        field = fp.extend_poisson(trace, frac_low)
        return [float(field.value(x, y)) for x, y in pts]

    def check_poisson(vals):
        p = Problems()
        field = fp.extend_bessel(trace, frac_low)
        for (x, y), v in zip(pts, vals):
            ref = float(field.value(x, y))
            p.require(abs(v - ref) <= 1e-6, f"Poisson {v} vs Bessel {ref} at ({x:.3f}, {y:.3f})")
        for i, v in enumerate(vals):
            p.value(f"poisson_route.{i}", v)
        return p.result()

    ta, tb = coeffs(trace)

    def check_oracle(vals):
        p = Problems()
        lam = symbols(two_pi, len(ta), 2 * s_low)
        ref = point_values(two_pi, lam * ta, np.concatenate(([0.0], lam * tb[1:])), x_oracle)
        err = float(np.max(np.abs(vals - ref)))
        p.require(err <= 1e-6, f"singular integral vs multiplier {err:.3e}")
        p.value("oracle.sum", float(np.sum(vals)))
        return p.result()

    def check_gagliardo(val):
        p = Problems()
        ref = dirichlet(two_pi, ta, tb, s_low)
        p.require(rel_err(val, ref) <= 1e-7, f"Gagliardo {val} vs Parseval {ref}")
        p.value("gagliardo_energy", val)
        return p.result()

    ka, kb = coeffs(k)
    ga, gb = coeffs(g)
    M_lin = 4 * (N_lin + 1)
    k_grid = grid(two_pi, np.pad(ka, (0, N_lin - len(ka))), np.pad(kb, (0, N_lin + 1 - len(kb))), M_lin)
    g_grid = grid(two_pi, np.pad(ga, (0, N_lin - len(ga))), np.pad(gb, (0, N_lin + 1 - len(gb))), M_lin)

    def op_residual(u, shift, rhs_grid, power):
        """max |(-d_xx)^{power/2} u + (k + shift) u - rhs| on the grid."""
        ua, ub = coeffs(u.truncate(N_lin))
        lam = symbols(two_pi, N_lin, power)
        lu = grid(two_pi, lam * ua, np.concatenate(([0.0], lam * ub[1:])), M_lin)
        uu = grid(two_pi, ua, ub, M_lin)
        return float(np.max(np.abs(lu + (k_grid + shift) * uu - rhs_grid))), uu

    def run_linear():
        op = fp.GalerkinOperator(frac=frac_lin, T=two_pi, N=N_lin, k=k)
        return (fp.eigenvalue_set(op, count), fp.solve_coercive(op, mu, g), fp.solve_fredholm(op, g),
                fp.schrodinger_fractional_spectrum(k, frac_lin, count, N=N_lin))

    def check_linear(out):
        eig, coer, fred, schr = out
        p = Problems()
        lams = [lam for lam, _ in eig]
        p.require(bool(np.all(np.diff(lams) >= 0)), "eigenvalues not sorted")
        for lam, v in eig:
            r, vv = op_residual(v, -lam, 0.0, 2 * s_lin)
            p.require(r <= 1e-8 * max(1.0, abs(lam)) * float(np.max(np.abs(vv))),
                      f"eigenpair {lam:.6f}: pointwise residual {r:.3e}")
        r, _ = op_residual(coer.u, mu, g_grid, 2 * s_lin)
        p.require(r <= 1e-8, f"coercive solve: pointwise residual {r:.3e}")
        p.require(fred.unique, f"Fredholm kernel of dimension {fred.kernel.dim} for k > 0")
        r, _ = op_residual(fred.solution, 0.0, g_grid, 2 * s_lin)
        p.require(r <= 1e-8, f"Fredholm solve: pointwise residual {r:.3e}")
        for mu_s, v in schr:
            lam2 = max(mu_s, 0.0) ** (1.0 / s_lin)
            r, vv = op_residual(v, -lam2, 0.0, 2.0)   # (-d_xx + V) v = lambda v
            p.require(r <= 1e-8 * max(1.0, lam2) * float(np.max(np.abs(vv))),
                      f"Schroedinger pair {mu_s:.6f}: pointwise residual {r:.3e}")
        for i, lam in enumerate(lams):
            p.value(f"linear.eig{i}", lam)
        p.value("linear.stability_constant", coer.stability_constant)
        p.value("linear.fredholm_norm", fred.solution.coeff_norm())
        for i, (mu_s, _) in enumerate(schr):
            p.value(f"linear.schrodinger{i}", mu_s)
        return p.result()

    tasks = [
        Task("hamiltonian_check", "hamiltonian_check",
             lambda: fp.hamiltonian_check(odd, frac, well), check_ham),
        Task("modica_check", "modica_check", lambda: fp.modica_check(even, frac, well), check_modica),
        Task("extension_energy", "extension_energy",
             lambda: fp.extension_energy(fp.extend_bessel(even.u, frac)), check_energy),
        Task("dirichlet_to_neumann", "dirichlet_to_neumann",
             lambda: fp.dirichlet_to_neumann(fp.extend_bessel(even.u, frac)), check_dtn),
        Task("poisson_route", "poisson_route", run_poisson, check_poisson),
        Task("singular_integral_oracle", "oracle",
             lambda: fp.singular_integral_oracle(trace, frac_low, x_oracle), check_oracle),
        Task("gagliardo_energy", "oracle", lambda: fp.gagliardo_energy(trace, frac_low), check_gagliardo),
        Task("linear_solve", "linear_solve", run_linear, check_linear),
    ]
    return Workload("certify", seed, inputs, tasks)


# ---------------------------------------------------------------------------
# cli_suite

CSV_HEADERS = {
    "eig": ["index", "eigenvalue"],
    "min-period": ["estimate", "bound", "tol"],
    "continue": ["lambda", "amplitude", "residual", "sigma_min"],
    "t0-bound": ["lambda", "period", "amplitude", "residual"],
    "hamiltonian": ["x", "w", "F_u", "deviation"],
    "modica": ["x", "y", "v_hat"],
    "energy-scan": ["T", "J", "slope_so_far", "sigma"],
    "test-bound": ["region", "value", "bound"],
    "extend": ["x", "y", "U"],
}
JSON_OUTPUTS = ("apply", "solve-linear", "solve")


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().strip().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def build_cli_suite(seed, tmp_root):
    rng = np.random.default_rng(seed)
    two_pi = 2.0 * math.pi
    tmpdir = tempfile.mkdtemp(prefix=f"cli_suite-{seed}-", dir=tmp_root)

    def path(name):
        return os.path.join(tmpdir, name)

    def write(name, u):
        with open(path(name), "w") as fh:
            fh.write(u.to_json() + "\n")
        return path(name)

    u_in = low_mode(rng, two_pi, 3, 3, 1.0)
    k_in = low_mode(rng, two_pi, 2, 2, 0.25, const=1.5)
    g_in = low_mode(rng, two_pi, 2, 2, 1.0)
    cfg = {
        "apply": {"s": float(rng.uniform(0.3, 0.7))},
        "eig": {"s": float(rng.uniform(0.3, 0.7)), "T": float(two_pi * rng.uniform(0.9, 1.1))},
        "solve-linear": {"s": float(rng.uniform(0.3, 0.7)), "mu": float(rng.uniform(0.4, 0.6))},
        "solve": {"s": 0.5, "T": float(rng.uniform(7.8, 8.2))},
        # T-hi moves the bisection midpoints nearest the critical period, whose
        # cost dominates the command, so it stays at the test-scale value
        "min-period": {"s": 0.5, "T-hi": 8.0},
        "continue": {"s": float(rng.uniform(0.45, 0.55))},
        "t0-bound": {"s": float(rng.uniform(0.45, 0.55))},
        "hamiltonian": {"s": 0.5, "T": float(rng.uniform(7.8, 8.2))},
        "modica": {"s": 0.5, "T": float(rng.uniform(7.8, 8.2))},
        "energy-scan": {"s": 0.25},
        "test-bound": {"s": float(rng.uniform(0.4, 0.6)), "T": float(rng.uniform(15.0, 17.0))},
        "extend": {"s": float(rng.uniform(0.3, 0.7))},
    }
    f_u, f_k, f_g = write("u.json", u_in), write("k.json", k_in), write("g.json", g_in)
    argv = {
        "apply": ["--input", f_u],
        "eig": ["--count", "4"],
        "solve-linear": ["--k", f_k, "--g", f_g],
        "solve": ["--N", "48"],
        "min-period": [],
        "continue": [],
        "t0-bound": ["--lambda-grid", "1.01,1.1,1.5"],
        "hamiltonian": [],
        "modica": [],
        "energy-scan": ["--T-list", "16,32,64,128"],
        "test-bound": ["--d", "1"],
        "extend": ["--input", f_u],
    }
    tasks = []
    inputs = {"argv": {}, "u": u_in.to_dict(), "k": k_in.to_dict(), "g": g_in.to_dict()}
    for cmd, extra in argv.items():
        out = path(cmd + (".json" if cmd in JSON_OUTPUTS else ".csv"))
        full = [cmd] + [t for key, val in cfg[cmd].items() for t in ("--" + key, repr(val))]
        full += extra + ["--out", out]
        inputs["argv"][cmd] = [a.replace(tmpdir, "<tmp>") for a in full]
        tasks.append(Task(f"cli.{cmd}", f"cli.{cmd}", _cli_runner(full),
                          _cli_checker(cmd, cfg[cmd], out, u_in)))
    return Workload("cli_suite", seed, inputs, tasks, tmpdir=tmpdir)


def _cli_runner(argv):
    def run():
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return cli.run(argv)
    return run


def _cli_checker(cmd, cfg, out, u_in):
    def check(code):
        p = Problems()
        if code != 0:
            p.require(False, f"{cmd}: exit code {code}")
            return p.result()
        if cmd in JSON_OUTPUTS:
            with open(out) as fh:
                d = json.load(fh)
            p.require(set(d) == {"T", "N", "odd", "a", "b"}, f"{cmd}: JSON keys {sorted(d)}")
            if cmd == "apply":
                a, b = coeffs(u_in)
                lam = symbols(u_in.T, len(a), 2 * cfg["s"])
                err = max(float(np.max(np.abs(np.array(d["a"]) - lam * a))),
                          float(np.max(np.abs(np.array(d["b"][1:]) - lam * b[1:]))), abs(d["b"][0]))
                p.require(err <= 1e-12, f"apply: multiplier mismatch {err:.3e}")
            if cmd == "solve":
                a, b = np.array(d["a"]), np.array(d["b"])
                res = semilinear_residual(d["T"], a, b, cfg["s"])
                p.require(res <= 1e-8, f"solve: FFT residual {res:.3e}")
                p.value("solve.energy", half_energy(d["T"], a, b, cfg["s"]))
            p.value(f"{cmd}.coeff_sum", float(np.sum(d["a"]) + np.sum(d["b"])))
            return p.result()
        header, rows = read_csv(out)
        p.require(header == CSV_HEADERS[cmd], f"{cmd}: header {header}")
        num = np.array([[float(v) for v in r[1:]] for r in rows]) if cmd == "test-bound" else \
            np.array([[float(v) for v in r] for r in rows])
        if cmd == "eig":
            # k = 0: spectrum {0} u {(2 pi m / T)^{2s}} twice each
            sym = symbols(cfg["T"], 2, 2 * cfg["s"])
            ref = np.array([0.0, sym[0], sym[0], sym[1]])
            p.require(np.allclose(num[:, 1], ref, rtol=1e-10, atol=1e-10), f"eig: {num[:, 1]} vs {ref}")
        elif cmd == "min-period":
            est, bound, tol = num[0]
            p.require(abs(bound - 2.0 * math.pi) <= 1e-12 and est <= bound + tol, f"min-period: {num[0]}")
        elif cmd == "continue":
            p.require(len(rows) == 50 and float(np.max(num[:, 2])) <= 1e-10, "continue: residual column")
        elif cmd == "t0-bound":
            per = 2.0 * math.pi * num[:, 0] ** (1.0 / (2.0 * cfg["s"]))
            p.require(np.allclose(num[:, 1], per, rtol=1e-12, atol=0), "t0-bound: period column")
            p.require(float(np.max(num[:, 3])) <= 1e-9, "t0-bound: residual column")
        elif cmd == "hamiltonian":
            p.require(len(rows) == 64 and float(np.max(np.abs(num[:, 3]))) <= 1e-5, "hamiltonian: deviation")
        elif cmd == "modica":
            p.require(len(rows) == 64 * 64, f"modica: {len(rows)} rows")
            boundary = num[num[:, 1] == 0.0, 2]
            p.require(float(np.max(num[:, 2])) <= float(np.max(boundary)) + 1e-5, "modica: v_hat above C_hat")
        elif cmd == "energy-scan":
            p.require(len(rows) == 4 and bool(np.all(np.diff(num[:, 1]) > 0)), "energy-scan: J column")
        elif cmd == "test-bound":
            p.require([r[0] for r in rows[:4]] == ["far", "plateau", "mixed", "layer"], "test-bound: regions")
            p.require(bool(np.all(num[:4, 0] <= num[:4, 1] * (1.0 + 1e-9))), "test-bound: value above bound")
        elif cmd == "extend":
            a, b = coeffs(u_in)
            on_trace = num[:, 1] == 0.0
            ref = point_values(u_in.T, a, b, num[on_trace, 0])
            p.require(bool(np.any(on_trace)) and np.allclose(num[on_trace, 2], ref, rtol=0, atol=1e-12),
                      "extend: U(x, 0) != u(x)")
        p.value(f"{cmd}.sum", float(np.sum(num[np.isfinite(num)])))
        return p.result()

    return check


def build(name, seed, tmp_root):
    if name == "large_period":
        return build_large_period(seed)
    if name == "near_critical":
        return build_near_critical(seed)
    if name == "certify":
        return build_certify(seed)
    if name == "cli_suite":
        return build_cli_suite(seed, tmp_root)
    raise ValueError(f"unknown workload {name!r}")
