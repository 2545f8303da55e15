"""Semilinear solver tests: energy minimization in symmetry classes,
Newton refinement, and the minimal-period bisection."""

import itertools
import math

import numpy as np
import pytest

from fracperiodic import semilinear, spectral
from fracperiodic.errors import InconsistentBracket, NoConvergence
from fracperiodic.semilinear import (
    SolveConfig,
    find_min_period,
    minimize_energy,
    newton_refine,
)
from fracperiodic.spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    frac_laplacian,
    linearization_bound,
    singular_integral_oracle,
)

TWO_PI = 2.0 * math.pi


def well():
    return DoubleWell.quartic()


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(symmetry="diagonal")
    with pytest.raises(ValueError):
        SolveConfig(N=4)


@pytest.mark.parametrize("N", [8.5, 64.0, "64", None])
def test_solve_config_rejects_a_truncation_that_is_not_an_integer(N):
    # 8.5 reached the class tables and died there with a bare TypeError
    with pytest.raises(ValueError, match=r"^truncation N must be an integer at least 8, got "):
        SolveConfig(N=N)
    assert SolveConfig(N=np.int64(64)).N == 64


def test_odd_solution_above_threshold():
    sol = minimize_energy(8.0, FracOrder(0.5), well(), SolveConfig(N=48))
    assert sol.nonconstant
    assert 0.0 < sol.amplitude < 1.0
    assert sol.residual <= 1e-9
    assert sol.u.odd and sol.u(0.0) == 0.0
    # strictly below the trivial level J(0) = F(0) T / 2 = 1
    assert sol.energy < well().f(0.0) * 8.0 / 2.0


def test_trivial_below_threshold():
    sol = minimize_energy(4.0, FracOrder(0.5), well(), SolveConfig(N=32))
    assert sol.classification == "trivial"
    assert abs(sol.energy - 4.0 / 8.0) < 1e-12  # F(0) T / 2 = T / 8


def test_solution_inside_wells():
    for s in (0.3, 0.5, 0.7):
        sol = minimize_energy(10.0, FracOrder(s), well(), SolveConfig(N=48))
        assert sol.nonconstant
        x = np.linspace(0.0, 10.0, 400)
        assert np.max(np.abs(sol.u(x))) < 1.0


def test_translation_quotient_unique(monkeypatch):
    # the sign-normalized odd minimizer does not depend on how many starts reach it
    for s in (0.3, 0.5, 0.7):
        ref = minimize_energy(8.0, FracOrder(s), well(), SolveConfig(N=48))
        for starts in (1, 3):
            with monkeypatch.context() as m:
                m.setattr(semilinear, "MULTISTARTS", starts)
                b = minimize_energy(8.0, FracOrder(s), well(), SolveConfig(N=48))
            assert np.max(np.abs(ref.u.sin_coeffs - b.u.sin_coeffs)) < 1e-6


def test_odd_solution_monotone_on_half_period():
    sol = minimize_energy(8.0, FracOrder(0.5), well(), SolveConfig(N=48))
    x = np.linspace(0.0, 4.0, 200)
    vals = sol.u(x)
    peak = int(np.argmax(vals))
    # positive hump on (0, T/2) with a single interior maximum
    assert np.all(vals[1:-1] > 0.0)
    assert np.all(np.diff(vals[: peak + 1]) > -1e-12)
    assert np.all(np.diff(vals[peak:]) < 1e-12)


def test_residual_certified_by_oracle():
    rng = np.random.default_rng(3)
    frac = FracOrder(0.5)
    sol = minimize_energy(8.0, frac, well(), SolveConfig(N=48))
    rhs = frac_laplacian(sol.u, frac)
    for x in rng.uniform(0.0, 8.0, 8):
        lhs = singular_integral_oracle(sol.u, frac, float(x))
        assert abs(lhs + well().f1(sol.u(float(x)))) < 1e-5
        assert abs(lhs - rhs(float(x))) < 1e-6


def test_even_class_solution():
    sol = minimize_energy(8.0, FracOrder(0.5), well(), SolveConfig(symmetry="even", N=48))
    assert sol.nonconstant
    assert sol.u(0.0) > 0.0 > sol.u(4.0)  # cone normalization at y = 0


@pytest.mark.parametrize("T,N,s", [(6.6, 32, 0.25), (6.6, 32, 0.5), (6.6, 32, 0.7), (6.6, 32, 0.75),
                                   (8.0, 48, 0.25)])
def test_even_class_does_not_collapse_to_the_wells(T, N, s):
    # the even class with a mean let every start descend to u = +-1, which
    # the |u| < 1 filter rejects, so these were reported "trivial"; the
    # half-wave even minimizer is the odd one translated by T / 4
    frac = FracOrder(s)
    even = minimize_energy(T, frac, well(), SolveConfig(symmetry="even", N=N))
    odd = minimize_energy(T, frac, well(), SolveConfig(symmetry="odd", N=N))
    assert even.classification == odd.classification == "nonconstant"
    assert abs(even.energy - odd.energy) <= 1e-12 * abs(odd.energy)
    assert even.u.cos_coeffs[0] == 0.0 and not np.any(even.u.sin_coeffs)


def test_cli_even_class_below_the_old_collapse(tmp_path, capsys):
    from fracperiodic.cli import run

    out = tmp_path / "u.json"
    assert run(["solve", "--s", "0.5", "--T", "6.6", "--symmetry", "even", "--N", "32", "--out", str(out)]) == 0
    summary = dict(kv.split("=") for kv in capsys.readouterr().err.split())
    assert summary["classification"] == "nonconstant"
    odd = minimize_energy(6.6, FracOrder(0.5), well(), SolveConfig(N=32))
    assert abs(float(summary["energy"]) - odd.energy) <= 1e-12 * odd.energy


def test_even_class_descent_converges_quadratically(monkeypatch):
    # the Hessian's direction toward the constants +-1 (eigenvalue -0.606)
    # forced a shift that slowed each descent to 21-35 steps; the half-wave
    # class has no such direction, so the modified Newton steps converge fast
    calls, steps = [], []
    residual, descent = semilinear._SymmetryClass.residual, semilinear._descent

    def counted(self, *args):
        calls.append(None)
        return residual(self, *args)

    def counted_descent(*args):
        before = len(calls)
        out = descent(*args)
        steps.append(len(calls) - before - 1)   # one residual per step and one at the exit test
        return out

    monkeypatch.setattr(semilinear._SymmetryClass, "residual", counted)
    monkeypatch.setattr(semilinear, "_descent", counted_descent)
    sol = minimize_energy(8.0, FracOrder(0.5), well(), SolveConfig(symmetry="even", N=48))
    assert sol.nonconstant
    assert len(steps) == 3 and max(steps) <= 8


def test_descent_evaluates_each_iterate_once_on_the_grid(monkeypatch):
    # one grid evaluation at entry and one per line-search trial; the accepted
    # trial's values serve its residual, Jacobian and energy.  A values call
    # evaluates on the grid when it returns a new array, not the kept one
    values, energies = [], []
    cls_values, cls_energy = semilinear._SymmetryClass.values, semilinear._SymmetryClass.energy_full
    kept = {}   # class -> the array its last values call returned

    def counted_values(self, c):
        out = cls_values(self, c)
        if out is not kept.get(self):
            values.append(None)
            kept[self] = out
        return out

    def counted_energy(self, *args):   # once at entry and once per trial
        energies.append(None)
        return cls_energy(self, *args)

    monkeypatch.setattr(semilinear._SymmetryClass, "values", counted_values)
    monkeypatch.setattr(semilinear._SymmetryClass, "energy_full", counted_energy)
    cls = semilinear._SymmetryClass("odd", 40.0, 64, FracOrder(0.5), half_wave=True)
    for c0 in semilinear._starts(cls):
        values.clear()
        energies.clear()
        semilinear._descent(cls, c0, well())
        assert len(energies) >= 3 and len(values) == len(energies)


@pytest.mark.parametrize("symmetry", ["odd", "even"])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("T,N", [(8.0, 48), (40.0, 64), (201.4, 512)])
def test_amplitude_is_the_maximum_of_the_solution(symmetry, s, T, N):
    # the class grid of M = 4(N + 1) points holds the peaks of a half-wave
    # solution, x = T/4 (odd) and x = 0 (even), so the amplitude is the
    # maximum of |u| on the 200 001-point grid j T / 200000, j = 0..200000
    # (the last point repeats the first); PeriodicFunction.amplitude, on
    # 2N + 2 points, misses the odd class's peak
    sol = minimize_energy(T, FracOrder(s), well(), SolveConfig(symmetry=symmetry, N=N))
    assert sol.nonconstant
    assert abs(sol.amplitude - np.max(np.abs(sol.u.sample(200_000)))) <= 1e-15


def test_newton_refine_fixed_point():
    frac = FracOrder(0.5)
    sol = minimize_energy(8.0, frac, well(), SolveConfig(N=48))
    again = newton_refine(sol.u, 8.0, frac, well())
    assert np.max(np.abs(again.u.sin_coeffs - sol.u.sin_coeffs)) < 1e-12


def test_newton_refine_perturbed(monkeypatch):
    frac = FracOrder(0.5)
    sol = minimize_energy(8.0, frac, well(), SolveConfig(N=48))
    bump = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.0, 1e-3], cos_coeffs=None)
    monkeypatch.setattr(semilinear, "MAX_NEWTON", 5)
    refined = newton_refine(sol.u + bump, 8.0, frac, well())
    assert refined.residual <= 1e-10
    assert np.max(np.abs(refined.u.sin_coeffs - sol.u.sin_coeffs)) < 1e-9


def test_newton_convergence_order():
    # residual sequence of raw Newton steps contracts at order >= 1.8
    from fracperiodic.semilinear import _SymmetryClass

    frac = FracOrder(0.5)
    cls = _SymmetryClass("odd", 8.0, 32, frac)
    sol = minimize_energy(8.0, frac, well(), SolveConfig(N=32))
    c = cls.from_function(sol.u)
    c[0] += 0.05
    history = []
    for _ in range(8):
        res = cls.residual(c, well())
        rnorm = cls.l2_norm(res)
        history.append(rnorm)
        if rnorm < 1e-13:
            break
        c = c - np.linalg.solve(cls.jacobian(c, well()), res)
    rates = [math.log(history[i + 1]) / math.log(history[i])
             for i in range(len(history) - 1)
             if 1e-13 < history[i] < 0.1 and history[i + 1] > 1e-15]
    assert rates and max(rates) >= 1.8


def test_truncation_doubling_stable():
    frac = FracOrder(0.5)
    a = minimize_energy(8.0, frac, well(), SolveConfig(N=32))
    b = minimize_energy(8.0, frac, well(), SolveConfig(N=64))
    assert np.max(np.abs(b.u.truncate(32).sin_coeffs - a.u.sin_coeffs)) < 1e-8


def test_min_period_default_well():
    frac = FracOrder(0.5)
    est = find_min_period(frac, well(), T_hi=8.0, tol=0.05)
    assert est <= TWO_PI + 0.05


def test_min_period_scaled_well():
    # -F''(0) = 4 halves the threshold at s = 1/2
    frac = FracOrder(0.5)
    est = find_min_period(frac, DoubleWell.quartic(4.0), T_hi=4.0, tol=0.05)
    assert est <= math.pi + 0.05


def test_min_period_near_local_limit():
    # s -> 1 should approach the classical threshold 2 pi (reported check)
    est = find_min_period(FracOrder(0.95), well(), T_hi=9.0, tol=0.1)
    assert abs(est - TWO_PI) / TWO_PI < 0.15


def test_min_period_rejects_low_bracket():
    with pytest.raises(ValueError):
        find_min_period(FracOrder(0.5), well(), T_hi=3.0)


def test_min_period_raises_when_a_solution_lies_below_the_bracket():
    # F = (1 - u^2)^2 (1 + 1.8 u^2) / 4 has F''(0) = -0.1, so the linearization
    # bound is 20 pi at s = 1/2, but interface solutions exist far below it
    flat_top = DoubleWell.from_poly([0.25, 0.0, -0.05, 0.0, -0.65, 0.0, 0.45])
    flat_top.check_shape()
    with pytest.raises(InconsistentBracket, match="below the bound"):
        find_min_period(FracOrder(0.5), flat_top, T_hi=70.0)


def test_min_period_raises_when_no_solution_is_found_at_t_hi(monkeypatch):
    # no Newton run meets a tolerance of 1e-300, so every start is dropped
    monkeypatch.setattr(spectral, "NEWTON_TOL", 1e-300)
    with pytest.raises(InconsistentBracket, match="no nonconstant solution found at T_hi = 8"):
        find_min_period(FracOrder(0.5), well(), T_hi=8.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_min_period_rejects_bad_tol(tol):
    # tol <= 0 never ends the bisection; nan or inf would skip it and return T_hi
    with pytest.raises(ValueError, match="tol"):
        find_min_period(FracOrder(0.5), well(), T_hi=9.0, tol=tol)


def test_near_critical_solve_takes_few_iterations(monkeypatch):
    # at T = 6.2 the first-harmonic curvature (2 pi / T)^(2s) + F''(0) is
    # nearly 0; a gradient descent needs thousands of residual evaluations here
    calls = []
    residual = semilinear._SymmetryClass.residual

    def counted(self, *args):
        calls.append(None)
        return residual(self, *args)

    monkeypatch.setattr(semilinear._SymmetryClass, "residual", counted)
    frac, cfg = FracOrder(0.5), SolveConfig(N=32)
    assert minimize_energy(6.2, frac, well(), cfg).classification == "trivial"
    assert len(calls) <= 200
    assert minimize_energy(6.0, frac, well(), cfg).classification == "trivial"
    assert minimize_energy(6.4, frac, well(), cfg).nonconstant


@pytest.mark.parametrize("symmetry,T,multistarts", [
    ("odd", 6.4, 6), ("odd", 8.0, 6), ("odd", 40.0, 6), ("odd", 8.0, 2),
])
def test_mirror_starts_dropped_exactly(monkeypatch, symmetry, T, multistarts):
    # the well is even, so the mirror -c of a start has the negated iterates:
    # putting every mirror back next to its start changes no bit of the minimizer
    frac = FracOrder(0.5)
    cfg = SolveConfig(symmetry=symmetry, N=64 if T > 10 else 32)
    monkeypatch.setattr(semilinear, "MULTISTARTS", multistarts)
    kept = semilinear._starts
    assert len(kept(semilinear._SymmetryClass(symmetry, T, cfg.N, frac, True))) < multistarts
    dropped = minimize_energy(T, frac, well(), cfg)
    monkeypatch.setattr(semilinear, "_starts", lambda c: [v for c0 in kept(c) for v in (c0, -c0)])
    both = minimize_energy(T, frac, well(), cfg)
    assert dropped.classification == both.classification == "nonconstant"
    assert np.max(np.abs(dropped.u.sin_coeffs - both.u.sin_coeffs)) <= 1e-12
    assert np.max(np.abs(dropped.u.cos_coeffs - both.u.cos_coeffs)) <= 1e-12
    assert abs(dropped.energy - both.energy) <= 1e-12


@pytest.mark.parametrize("T", [0.0, -1.0, math.nan, math.inf])
def test_bad_period_rejected(T):
    frac = FracOrder(0.5)
    with pytest.raises(ValueError):
        minimize_energy(T, frac, well(), SolveConfig(N=32))
    u0 = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.5], cos_coeffs=None)
    with pytest.raises(ValueError):
        newton_refine(u0, T, frac, well())
    if T > 0:
        with pytest.raises(ValueError):
            find_min_period(frac, well(), T_hi=T)


@pytest.mark.parametrize("symmetry", ["odd", "even"])
@pytest.mark.parametrize("N,T", [(128, 40.0), (256, 100.0)])
def test_coarse_stage_keeps_the_minimizer(monkeypatch, symmetry, N, T):
    for s in (0.3, 0.5, 0.7):
        frac, cfg = FracOrder(s), SolveConfig(symmetry=symmetry, N=N)
        staged = minimize_energy(T, frac, well(), cfg)
        with monkeypatch.context() as m:
            m.setattr(semilinear, "COARSE_MIN_N", math.inf)
            single = minimize_energy(T, frac, well(), cfg)
        assert staged.classification == single.classification == "nonconstant"
        assert abs(staged.energy - single.energy) <= 1e-9 * abs(single.energy)
        assert abs(staged.amplitude - single.amplitude) <= 1e-9 * single.amplitude
        assert staged.residual <= spectral.NEWTON_TOL


@pytest.mark.parametrize("symmetry", ["odd", "even"])
@pytest.mark.parametrize("N,T", [(32, 8.0), (64, 20.0)])
def test_small_N_skips_the_coarse_stage(monkeypatch, symmetry, N, T):
    frac, cfg = FracOrder(0.5), SolveConfig(symmetry=symmetry, N=N)
    ref = minimize_energy(T, frac, well(), cfg)
    monkeypatch.setattr(semilinear, "COARSE_MIN_N", math.inf)
    single = minimize_energy(T, frac, well(), cfg)
    assert np.array_equal(ref.u.sin_coeffs, single.u.sin_coeffs)
    assert np.array_equal(ref.u.cos_coeffs, single.u.cos_coeffs)
    assert (ref.energy, ref.amplitude, ref.residual) == (single.energy, single.amplitude, single.residual)


def test_fine_level_factorizations_per_start(monkeypatch):
    # after the N / 4 descent, each start needs about one descent step and
    # one Newton step at N = 512: at most 2 factorizations or dense solves
    # of the half-wave class, which has ceil(N / 2) = 256 unknowns
    T, N = 201.4, 512
    frac, cfg = FracOrder(0.5), SolveConfig(N=N)
    calls = []
    cholesky, solve = np.linalg.cholesky, np.linalg.solve
    K = (N + 1) // 2

    def counted(f):
        def wrapped(A, *args, **kwargs):
            if np.shape(A) == (K, K):
                calls.append(f.__name__)
            return f(A, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "cholesky", counted(cholesky))
    monkeypatch.setattr(np.linalg, "solve", counted(solve))
    sol = minimize_energy(T, frac, well(), cfg)
    starts = semilinear._starts(semilinear._SymmetryClass("odd", T, N, frac, True))
    assert sol.nonconstant and sol.residual <= spectral.NEWTON_TOL
    assert 0 < len(calls) <= 2 * len(starts)


def test_numpy_cholesky_reads_only_the_lower_triangle():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((40, 40))
    S = A @ A.T + 40.0 * np.eye(40)
    H = np.tril(S) + np.triu(rng.standard_normal((40, 40)), 1)   # noise above the diagonal
    assert np.array_equal(np.linalg.cholesky(H), np.linalg.cholesky(S))


def nw_shifts(H):
    """tau_0, tau_1, .. of Nocedal & Wright, Alg. 3.3, with beta = 1e-3."""
    beta, low = 1e-3, float(np.min(np.diag(H)))
    tau = 0.0 if low > 0.0 else beta - low
    while True:
        yield tau
        tau = max(2.0 * tau, beta)


def _equicorrelated(n, diag, off):
    """diag on the diagonal, off elsewhere: eigenvalues diag + (n - 1) off
    (once) and diag - off."""
    return np.full((n, n), off) + (diag - off) * np.eye(n)


def _spd(n):
    A = np.random.default_rng(n).standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


@pytest.mark.parametrize("H, first", [
    (_spd(20), 0),
    (_equicorrelated(10, -1.0, 0.06), 1),   # eigenvalues -0.46, -1.06; tau_0 = 1.001
    (_equicorrelated(12, 1.0, 2.0), 11),    # eigenvalue -1 with a positive diagonal
])
def test_shift_is_the_first_positive_definite_one(H, first):
    lowest = np.linalg.eigvalsh(H)[0]
    taus = list(itertools.islice(nw_shifts(H), 64))
    k = next(k for k, tau in enumerate(taus) if lowest + tau > 0.0)
    assert k == first
    assert lowest + taus[k] >= 1e-2 and (k == 0 or lowest + taus[k - 1] <= -1e-2)   # a clear margin
    shifted = semilinear._shifted(H.copy())
    assert np.array_equal(shifted, H + taus[k] * np.eye(H.shape[0]))


@pytest.mark.parametrize("symmetry", ["odd"])
@pytest.mark.parametrize("N", [32, 512])   # the dense and the FFT side of FFT_MIN_N
def test_half_wave_jacobians_are_exactly_symmetric(symmetry, N):
    # the shift test reads the lower triangle and the LU solve both, so the
    # descent needs J == J^T bit for bit
    cls = semilinear._solve_class(symmetry, 1.5 * N, N, FracOrder(0.4), well(), half_wave=True)
    c = np.random.default_rng(N).standard_normal(cls.mult.size) * 0.3 / np.arange(1, cls.mult.size + 1)
    J = cls.jacobian(c, well())
    assert np.array_equal(J, J.T)


@pytest.mark.parametrize("symmetry", ["odd"])
def test_descent_step_solves_the_shifted_system(monkeypatch, symmetry):
    frac, T, N = FracOrder(0.5), 20.0, 64
    cls = semilinear._solve_class(symmetry, T, N, frac, well(), half_wave=True)
    c0 = np.zeros(cls.mult.size)
    c0[0] = 0.2   # the smallest multistart, near the unstable u = 0
    solves = []
    solve = np.linalg.solve

    def recorded(A, b):
        x = solve(A, b)
        solves.append((A.copy(), b, x))
        return x

    monkeypatch.setattr(np.linalg, "solve", recorded)
    monkeypatch.setattr(semilinear, "MAX_DESCENT", 1)
    semilinear._descent(cls, c0.copy(), well())
    [(A, b, x)] = solves
    J = cls.jacobian(c0, well())
    assert np.linalg.eigvalsh(J)[0] < 0.0   # the start is a saddle: the step must shift
    eye = np.eye(J.shape[0])
    assert any(np.array_equal(A, J + tau * eye) for tau in itertools.islice(nw_shifts(J), 1, 64))
    assert np.array_equal(b, cls.residual(c0, well()))
    assert np.linalg.eigvalsh(A)[0] > 0.0
    backward = np.linalg.norm(A @ x - b) / (np.linalg.norm(A, np.inf) * np.linalg.norm(x) + np.linalg.norm(b))
    assert backward <= 1e-13


def test_fine_stage_once_per_distinct_coarse_minimizer(monkeypatch):
    T, frac, cfg = 201.4, FracOrder(0.5), SolveConfig(N=512)
    calls = []
    newton = semilinear._newton

    def counted(*args, **kwargs):
        calls.append(None)
        return newton(*args, **kwargs)

    monkeypatch.setattr(semilinear, "_newton", counted)
    deduped = minimize_energy(T, frac, well(), cfg)
    n_deduped = len(calls)
    calls.clear()
    monkeypatch.setattr(semilinear, "DISTINCT_L2", 0.0)   # finish every start
    every = minimize_energy(T, frac, well(), cfg)
    assert n_deduped == 1 < len(calls)   # the starts all descend onto one coarse minimizer
    assert deduped.classification == every.classification == "nonconstant"
    assert abs(deduped.energy - every.energy) <= 1e-12 * abs(every.energy)
    assert abs(deduped.amplitude - every.amplitude) <= 1e-12 * every.amplitude


def _every_start_finished(monkeypatch, solve):
    """solve() as it is, and again with every start finished (DISTINCT_L2 = 0),
    with the number of Newton runs of each."""
    calls = []
    newton = semilinear._newton

    def counted(*args, **kwargs):
        calls.append(None)
        return newton(*args, **kwargs)

    monkeypatch.setattr(semilinear, "_newton", counted)
    merged = solve()
    n_merged = len(calls)
    calls.clear()
    with monkeypatch.context() as m:
        m.setattr(semilinear, "DISTINCT_L2", 0.0)
        every = solve()
    return merged, n_merged, every, len(calls)


@pytest.mark.parametrize("symmetry", ["odd", "even"])
@pytest.mark.parametrize("s,T,N", [(0.25, 16.0, 64), (0.5, 8.0, 48)])
def test_starts_merge_onto_the_minimizer_found_below_the_coarse_stage(monkeypatch, symmetry, s, T, N):
    # below COARSE_MIN_N the starts stop descending once they reach the first
    # start's minimizer: one Newton run, and the minimizer every start finds
    frac, cfg = FracOrder(s), SolveConfig(symmetry=symmetry, N=N)
    merged, n_merged, every, n_every = _every_start_finished(
        monkeypatch, lambda: minimize_energy(T, frac, well(), cfg))
    assert n_merged == 1 < n_every
    assert merged.classification == every.classification == "nonconstant"
    for a, b in ((merged.u.sin_coeffs, every.u.sin_coeffs), (merged.u.cos_coeffs, every.u.cos_coeffs)):
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-10
    assert abs(merged.energy - every.energy) <= 1e-10


@pytest.mark.parametrize("symmetry", ["odd", "even"])
@pytest.mark.parametrize("T", [TWO_PI * (1.0 - 1e-4), TWO_PI * (1.0 + 1e-4)])
def test_merging_keeps_the_classification_at_the_bifurcation(monkeypatch, symmetry, T):
    # trivial endpoints absorb no start, so a small nonconstant minimizer
    # next to u = 0 is still found on both sides of 2 pi
    frac, cfg = FracOrder(0.5), SolveConfig(symmetry=symmetry, N=32)
    merged, _, every, _ = _every_start_finished(monkeypatch, lambda: minimize_energy(T, frac, well(), cfg))
    assert merged.classification == every.classification == ("nonconstant" if T > TWO_PI else "trivial")


@pytest.mark.parametrize("tol", [1e-3, 1e-6])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_min_period_is_unchanged_by_merging(monkeypatch, s, tol):
    # the predicate stops at the first nonconstant start, before any endpoint
    # could absorb another, so the bisection takes the same path bit for bit
    frac = FracOrder(s)
    T_hi = 1.3 * linearization_bound(frac, well())
    merged, _, every, _ = _every_start_finished(monkeypatch, lambda: find_min_period(frac, well(), T_hi, tol=tol))
    assert merged == every


def test_failed_fine_stage_does_not_suppress_its_duplicates(monkeypatch):
    T, frac, cfg = 201.4, FracOrder(0.5), SolveConfig(N=512)
    ref = minimize_energy(T, frac, well(), cfg)
    calls = []
    newton = semilinear._newton

    def first_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise NoConvergence("forced failure of the first fine stage")
        return newton(*args, **kwargs)

    monkeypatch.setattr(semilinear, "_newton", first_fails)
    sol = minimize_energy(T, frac, well(), cfg)
    assert len(calls) == 2   # the next duplicate finishes in place of the failed one
    assert sol.classification == "nonconstant"
    assert abs(sol.energy - ref.energy) <= 1e-12 * abs(ref.energy)


def test_min_period_ends_at_adjacent_doubles(monkeypatch):
    # below the spacing of doubles near 2 pi, hi - lo never drops under tol:
    # the bisection has to end when lo and hi are adjacent, not loop forever
    calls = []
    starts = semilinear._nonconstant_starts

    def counted(*args):
        calls.append(None)
        if len(calls) > 200:
            raise AssertionError("the bisection did not end after 200 predicate calls")
        return starts(*args)

    monkeypatch.setattr(semilinear, "_nonconstant_starts", counted)
    frac, cfg = FracOrder(0.5), SolveConfig(N=32)
    est = find_min_period(frac, well(), T_hi=8.0, tol=1e-300)
    assert minimize_energy(est, frac, well(), cfg).nonconstant
    assert not minimize_energy(np.nextafter(est, 0.0), frac, well(), cfg).nonconstant


# -- the period bisection's predicate ----------------------------------------------


def bisect_with_minimize_energy(frac, potential, T_hi, tol, cfg):
    """find_min_period's bracket, with minimize_energy(T, ...).nonconstant as
    the predicate at every period."""
    lo, hi = linearization_bound(frac, potential) / 4.0, T_hi
    assert not minimize_energy(lo, frac, potential, cfg).nonconstant
    assert minimize_energy(hi, frac, potential, cfg).nonconstant
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if minimize_energy(mid, frac, potential, cfg).nonconstant:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("s,scale,symmetry,N", [
    (0.3, 1.0, "odd", 128), (0.3, 4.0, "even", 32), (0.5, 1.0, "even", 128),
    (0.5, 4.0, "odd", 32), (0.7, 1.0, "odd", 32), (0.7, 4.0, "even", 128),
])
def test_min_period_predicate_is_minimize_energy(monkeypatch, s, scale, symmetry, N):
    # stopping at the first nonconstant start answers the same question, in
    # either symmetry (N = 128 runs the coarse stage)
    frac, potential = FracOrder(s), DoubleWell.quartic(scale)
    T_hi, cfg = 1.3 * linearization_bound(frac, potential), SolveConfig(symmetry=symmetry, N=N)
    monkeypatch.setattr(semilinear, "MIN_PERIOD_N", N)
    est = find_min_period(frac, potential, T_hi, tol=0.05)
    assert est == bisect_with_minimize_energy(frac, potential, T_hi, 0.05, cfg)


def test_min_period_packages_no_solution(monkeypatch):
    def forbidden(*args):
        raise AssertionError("find_min_period computed an energy")

    monkeypatch.setattr(semilinear, "energy_functional", forbidden)
    assert find_min_period(FracOrder(0.5), well(), T_hi=8.0) <= TWO_PI + 0.05


def test_min_period_stops_at_the_first_nonconstant_start(monkeypatch):
    calls = []
    descent = semilinear._descent

    def counted(*args):
        calls.append(None)
        return descent(*args)

    monkeypatch.setattr(semilinear, "_descent", counted)
    find_min_period(FracOrder(0.5), well(), T_hi=8.0)
    assert len(calls) < 30   # every start of every bisection step descended 30 times


def test_all_trivial_solve_computes_one_energy(monkeypatch):
    # the trivial starts are not packaged, only the reported u = 0
    calls = []
    energy = semilinear.energy_functional

    def counted(*args):
        calls.append(None)
        return energy(*args)

    monkeypatch.setattr(semilinear, "energy_functional", counted)
    sol = minimize_energy(4.0, FracOrder(0.5), well(), SolveConfig(N=32))
    assert sol.classification == "trivial" and sol.amplitude == 0.0
    assert len(calls) == 1


# a double well that is not even: odd-order coefficients 0.075 and -0.15
SKEW = DoubleWell.from_poly([0.25, 0.0, -0.5, 0.075, 0.25, -0.15, 0.0, 0.075])


@pytest.mark.parametrize("symmetry", ["odd", "even"])
def test_symmetric_classes_reject_a_non_even_well(symmetry):
    # the odd class would drop the even part of F'(u) and report a small
    # class residual for a u whose full residual is large
    SKEW.check_shape()
    with pytest.raises(ValueError, match=f"the {symmetry} class needs an even potential"):
        minimize_energy(20.0, FracOrder(0.5), SKEW, SolveConfig(symmetry=symmetry, N=32))
    with pytest.raises(ValueError, match="the odd class needs an even potential"):   # its class is odd
        find_min_period(FracOrder(0.5), SKEW, T_hi=8.0)


def test_newton_refine_rejects_a_non_even_well_only_on_odd_input():
    frac = FracOrder(0.5)
    odd = minimize_energy(8.0, frac, well(), SolveConfig(N=32)).u
    with pytest.raises(ValueError, match="the odd class needs an even potential"):
        newton_refine(odd, 8.0, frac, SKEW)
    # the full class holds the solutions of any well
    full = PeriodicFunction(T=8.0, sin_coeffs=odd.sin_coeffs, cos_coeffs=odd.cos_coeffs)
    assert newton_refine(full, 8.0, frac, SKEW).residual <= 1e-10


def test_period_below_the_newton_resolution_is_rejected(monkeypatch):
    # the class norm carries sqrt(T/2): where a first harmonic of the smallest
    # nonconstant amplitude has a residual below the Newton tolerance, no
    # route solves, and just inside the bound the tolerance still sees it
    frac, amp = FracOrder(0.2), semilinear.NONCONSTANT_AMPLITUDE
    match = r"period T=1e-100 is too small at s=0.2 for the Newton tolerance 1e-10"
    with pytest.raises(ValueError, match=match):
        minimize_energy(1e-100, frac, well())
    with pytest.raises(ValueError, match=match):
        newton_refine(PeriodicFunction.from_modes(1e-100, [0.2]), 1e-100, frac, well())
    with monkeypatch.context() as m:
        m.setattr(spectral, "NEWTON_TOL", 1e-3)
        with pytest.raises(ValueError, match="for the Newton tolerance 0.001"):
            find_min_period(FracOrder(0.5), well(), 8.0)
    for T, accepted in ((1e-100, True), (1e-42, True), (1e-30, False)):
        cls = semilinear._SymmetryClass("odd", T, 64, frac, half_wave=True)
        c = np.zeros_like(cls.mult)
        c[0] = amp
        assert (cls.l2_norm(cls.residual(c, well())) <= 1e-10) == accepted, T
    assert not minimize_energy(1e-30, frac, well()).nonconstant
