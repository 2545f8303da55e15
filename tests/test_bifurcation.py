"""Branch tests: bifurcation-point detection, pseudo-arclength tracing,
criticality classification, and the realized-period report."""

import math

import numpy as np
import pytest

from fracperiodic import bifurcation, semilinear
from fracperiodic.bifurcation import (
    _corrector,
    _first_point,
    classify_criticality,
    continue_branch,
    detect_bifurcation_points,
    verify_T0_bound,
)
from fracperiodic.errors import BranchLost, NoConvergence, StepFailure
from fracperiodic.semilinear import newton_refine
from fracperiodic.spectral import (
    NEWTON_TOL,
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    _SymmetryClass,
    frac_laplacian,
    gram,
)

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


@pytest.mark.parametrize("m_max", [-1, 0, 2.5])
def test_detection_rejects_m_max_below_one_or_not_an_integer(m_max):
    # m_max <= 0 returned [] without complaint, and 2.5 was accepted
    with pytest.raises(ValueError, match=r"^m_max must be an integer at least 1, got "):
        detect_bifurcation_points(FracOrder(0.5), well(), m_max)


def sign_scan_points(frac, well, m_max, N):
    """Bifurcation points by the determinant sign scan plus brentq: the
    reference for the pencil-eigenvalue detector."""
    from scipy.optimize import brentq

    cls = _SymmetryClass("odd", TWO_PI, N, frac)
    curvature = -float(well.f2(0.0))
    zero = np.zeros(N)

    def det_sign_log(lam):
        sign, logdet = np.linalg.slogdet(cls.jacobian(zero, well, lam / curvature))
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


def test_continue_branch_rejects_bad_step():
    frac = FracOrder(0.5)
    for ds in (0.0, -0.05, math.nan, math.inf):
        with pytest.raises(ValueError, match="ds_arc"):
            continue_branch(frac, well(), lambda_start=1.0, steps=5, ds_arc=ds)
    for steps in (1, 0):
        with pytest.raises(ValueError, match="steps"):
            continue_branch(frac, well(), lambda_start=1.0, steps=steps, ds_arc=0.05)


@pytest.mark.parametrize("ds", [1e-300, 1e-14, 1.25, 1e300])
def test_continue_branch_rejects_a_step_outside_the_admitted_range(ds):
    # 1e-300 divided 0 / 0 in the tangent and 1e300 overflowed F'; from 1.25
    # the predictor jumps off the branch, below 1e-13 lambda stops advancing
    with pytest.raises(ValueError, match=r"ds_arc must lie in \[1e-12, 1\]"):
        continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=5, ds_arc=ds)


@pytest.mark.parametrize("ds", [bifurcation.DS_ARC_MIN, 0.045, 0.055, bifurcation.DS_ARC_MAX])
def test_continue_branch_admits_the_range_ends(ds):
    br = continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=6, ds_arc=ds)
    assert br.direction == "supercritical"
    assert np.all(np.diff(br.lambdas()) > 0.0)   # every step advances lambda


@pytest.mark.parametrize("N,m", [pytest.param(24, 1, id="24"), pytest.param(64, 1, id="64"),
                                 pytest.param(24, 2, id="24-m2"), pytest.param(24, 3, id="24-m3")])
def test_sigma_min_matches_svd(N, m):
    # G_u is symmetric, so its smallest |eigenvalue| is its smallest singular value;
    # it spans the whole odd class also where the branch (odd m) runs in the half-wave class
    br = continue_branch(FracOrder(0.5), well(), lambda_start=float(m), steps=8, ds_arc=0.05, N=N)
    cls = _SymmetryClass("odd", TWO_PI, N, FracOrder(0.5))
    for p in br.points:   # -F''(0) = 1: the coupling is lambda
        G_u = cls.jacobian(cls.from_function(p.u), well(), p.lam)
        svd = np.linalg.svd(G_u, compute_uv=False)[-1]
        assert abs(p.sigma_min - svd) <= 1e-12


SUBCRITICAL = DoubleWell.from_poly([0.5, 0.0, -0.5, 0.0, -0.5, 0.0, 0.5])


@pytest.mark.parametrize("potential", [DoubleWell.quartic(), SUBCRITICAL], ids=["quartic", "subcritical"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_half_wave_branch_matches_the_whole_odd_class(monkeypatch, s, m, potential):
    # the branch of an odd m runs in the half-wave class, an even m's in the
    # whole odd class; the reference runs every m through the plain corrector
    # in the whole odd class and takes the amplitude from u
    frac = FracOrder(s)
    got = continue_branch(frac, potential, lambda_start=m ** (2 * s), steps=12, ds_arc=0.05)
    solve_class = bifurcation._solve_class
    monkeypatch.setattr(bifurcation, "_solve_class",
                        lambda *args, half_wave=False: solve_class(*args))
    monkeypatch.setattr(bifurcation, "_corrector", _plain_corrector)
    ref = continue_branch(frac, potential, lambda_start=m ** (2 * s), steps=12, ds_arc=0.05)
    assert len(got.points) == len(ref.points) == 12 and got.direction == ref.direction
    for p, q in zip(got.points, ref.points):
        assert abs(p.lam - q.lam) <= 1e-13
        assert abs(p.amplitude - q.u.amplitude()) <= 1e-13
        assert np.max(np.abs(p.u.sin_coeffs - q.u.sin_coeffs)) <= 1e-13
        assert abs(p.sigma_min - q.sigma_min) <= 1e-12
        assert p.residual <= NEWTON_TOL
        # max |u| on the same 2N + 2 points, synthesized by another route
        assert abs(p.amplitude - p.u.amplitude()) <= 4 * np.spacing(1.0) * p.amplitude
        if m % 2:   # the half-wave class holds the odd harmonics only
            assert not np.any(p.u.sin_coeffs[1::2])


def test_corrector_lands_on_branch_and_arclength_row():
    cls, N = _SymmetryClass("odd", TWO_PI, 24, FracOrder(0.5)), 24
    z_prev = _first_point(cls, well(), 1.0, 1.0)[0]
    z = _first_point(cls, well(), 1.0, 1.0, eps=2e-3)[0]
    tangent = (z - z_prev) / np.linalg.norm(z - z_prev)
    target = z + 0.05 * tangent
    start = target + 1e-3 * np.random.default_rng(5).standard_normal(N + 1) / np.arange(1, N + 2)
    got, a, rnorm = _corrector(cls, well(), 1.0, start, tangent, target)
    # the corrector returns the view it evaluated last, whose grid values its class keeps
    assert a.base is got and np.array_equal(a, got[:-1]) and cls._last[0] is a
    assert rnorm == cls.l2_norm(cls.residual(got[:-1], well(), got[-1])) <= NEWTON_TOL
    assert abs(tangent @ (got - target)) <= 1e-12
    assert got[-1] > 1.0 and got[0] > 0.04   # past the pitchfork, amplitude grown
    # z already solves G = 0, so only the arclength row can move it onto the target plane
    moved = _corrector(cls, well(), 1.0, z, tangent, target)[0]
    assert abs(tangent @ (moved - target)) <= 1e-12
    with pytest.raises(NoConvergence):
        _corrector(cls, well(), 1.0, start, tangent, target, max_iter=1)


@pytest.mark.parametrize("N", [-1, 0, 2.5, math.nan])
def test_branch_and_t0_bound_reject_a_truncation_that_is_not_an_integer_from_one(N):
    # -1 failed with "math domain error", 0 ran at DEFAULT_N and 2.5 raised a bare TypeError
    with pytest.raises(ValueError, match=r"^truncation N must be an integer at least 1, got "):
        continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=5, ds_arc=0.05, N=N)
    with pytest.raises(ValueError, match=r"^truncation N must be an integer at least 1, got "):
        verify_T0_bound(FracOrder(0.5), well(), lambda_grid=[1.5], N=N)


@pytest.mark.parametrize("N,n", [(None, bifurcation.DEFAULT_N), (1, 1), (3.0, 3)])
def test_branch_and_t0_bound_truncation(N, n):
    br = continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=5, ds_arc=0.05, N=N)
    assert {p.u.N for p in br.points} == {n} and br.direction == "supercritical"
    assert verify_T0_bound(FracOrder(0.5), well(), lambda_grid=[1.5], N=N).max_residual <= 1e-9


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


@pytest.mark.parametrize("m", [2, 5, 100, np.int64(3), 3.0])
def test_classify_higher_modes(m):
    # int phi^4 = 3 / (4 pi) at every m >= 1: the label follows the sign of F^(4)(0)
    soft = DoubleWell.from_poly([0.25, 0.0, -0.5, 0.0, -0.25])
    assert classify_criticality(FracOrder(0.4), well(), m) == "supercritical"
    assert classify_criticality(FracOrder(0.4), soft, m) == "subcritical"


@pytest.mark.parametrize("m", [0, -1, 0.5, math.nan, 1.5, 2.25, math.inf])
def test_classify_rejects_a_mode_below_one(m):
    # sin(0 x) vanishes, so m = 0 has no normal form; sin(m x) is 2 pi-periodic
    # only for an integer m, and int phi^4 = 3 / (4 pi) only there
    with pytest.raises(ValueError, match="mode m"):
        classify_criticality(FracOrder(0.5), well(), m)


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


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("potential", [
    DoubleWell.quartic(),
    DoubleWell.quartic(2.5),
    DoubleWell.from_poly([0.25, 0.0, -0.5, 0.0, 0.25]),
    DoubleWell.from_poly([0.3, 0.0, -0.9, 0.0, 0.45, 0.0, 0.15]),
])
def test_detection_matches_scipy_generalized_eigh(s, potential):
    from scipy.linalg import eigh

    N, frac = 24, FracOrder(s)
    cls = _SymmetryClass("odd", TWO_PI, N, frac)
    B = gram("odd", N, potential.f2(cls.values(np.zeros(N)))) / -float(potential.f2(0.0))
    ref = eigh(np.diag(cls.mult), -B, eigvals_only=True)
    got = detect_bifurcation_points(frac, potential, 10)   # at N = DEFAULT_N = 24
    assert np.max(np.abs(np.array(got) / ref[:10] - 1.0)) <= 1e-12


def test_continue_branch_rejects_non_finite_lambda_start():
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lambda_start"):
            continue_branch(FracOrder(0.5), well(), lambda_start=lam, steps=5, ds_arc=0.05)


def test_continue_branch_past_the_wells_is_branch_lost():
    # at s = 0.3 and ds = 0.5 the branch used to reach amplitude 1.0142 at
    # lambda = 24.74 with no error; no solution of a double well with wells
    # at +-1 reaches them, so the first point with amplitude >= 1 ends it
    with pytest.raises(BranchLost, match=r"amplitude 1\.\d+ >= 1 at lambda = 21\.\d+ \(N = 24\)"):
        continue_branch(FracOrder(0.3), well(), lambda_start=1.0, steps=50, ds_arc=0.5)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_t0_bound_past_the_wells_is_branch_lost(s):
    # at lambda = 100 the period is 628 at s = 1/2 while N stays 24, and the
    # refined solution reached amplitude 1.0741, 1.0442 and 1.0049 with no error
    with pytest.raises(BranchLost, match=r"amplitude 1\.\d+ >= 1 at lambda = 100 \(N = 24\)"):
        verify_T0_bound(FracOrder(s), well(), lambda_grid=[100.0])


def _spy_on_refines(monkeypatch):
    """Record (class, start, coefficients, residual norm) of each
    realized-period refine of verify_T0_bound: the Newton runs of MAX_NEWTON
    iterations, where those of the branch take 30."""
    refined = []
    newton = bifurcation._newton

    def spy(residual, jacobian, z, max_iter, norm):
        start = z.copy()
        out = newton(residual, jacobian, z, max_iter, norm)
        if max_iter == bifurcation.MAX_NEWTON:
            refined.append((norm.__self__, start, *out))
        return out

    monkeypatch.setattr(bifurcation, "_newton", spy)
    return refined


@pytest.mark.parametrize("s,N", [(0.5, None), (0.7, None), (0.3, 96)])
def test_t0_entry_amplitude_is_the_maximum_of_the_solution(monkeypatch, s, N):
    # the period-T class grid of 4(N + 1) points holds the peak x = T/4 of
    # each refined solution, so the amplitude is the maximum of |u| on the
    # 200 001-point grid j T / 200000.  At s = 0.3 and N = 24 the solutions
    # from lambda = 2.5 on are under-resolved and peak beside T/4, up to
    # 1.2e-4 above the entry; at N = 96 they peak at T/4 again.
    refined = _spy_on_refines(monkeypatch)
    rep = verify_T0_bound(FracOrder(s), well(), N=N)
    assert len(refined) == len(rep.entries)
    for e, (cls, _, c, _) in zip(rep.entries, refined):
        assert abs(e.amplitude - np.max(np.abs(cls.to_function(c).sample(200_000)))) <= 1e-15


@pytest.mark.parametrize("grid", [[0.5, 1.1], [1.0], [1.1, math.nan], [math.inf]])
def test_t0_bound_rejects_grid_off_the_branch(grid):
    with pytest.raises(ValueError, match="lambda_grid"):
        verify_T0_bound(FracOrder(0.5), well(), lambda_grid=grid)


@pytest.mark.parametrize("N", [None, 6, 16])   # N = 6 is padded to 8 on period T
def test_t0_entries_match_newton_refine(monkeypatch, N):
    # each entry is newton_refine(u, T) of the rescaled continuation
    # solution u, bit for bit; the spy records the starts of those solves
    refined = _spy_on_refines(monkeypatch)
    frac = FracOrder(0.5)
    rep = verify_T0_bound(frac, well(), N=N)
    n = N or bifurcation.DEFAULT_N
    assert len(refined) == len(rep.entries)
    for e, (_, z, _, _) in zip(rep.entries, refined):
        assert z.size == max(n, 8) and not np.any(z[n:])
        u = _SymmetryClass("odd", TWO_PI, n, frac).to_function(z[:n]).rescaled(e.period)
        ref = newton_refine(u, e.period, frac, well())
        assert (e.amplitude, e.residual_rescaled) == (ref.amplitude, ref.residual)


def test_t0_bound_does_not_call_newton_refine(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("verify_T0_bound called newton_refine")

    monkeypatch.setattr(semilinear, "newton_refine", forbidden)
    assert verify_T0_bound(FracOrder(0.5), well(), lambda_grid=[1.5]).max_residual <= 1e-9


SKEW = DoubleWell.from_poly([0.25, 0.0, -0.5, 0.075, 0.25, -0.15, 0.0, 0.075])   # not even


def test_branch_and_t0_bound_reject_a_non_even_well():
    with pytest.raises(ValueError, match="the odd class needs an even potential"):
        continue_branch(FracOrder(0.5), SKEW, lambda_start=1.0, steps=5, ds_arc=0.05)
    with pytest.raises(ValueError, match="the odd class needs an even potential"):
        verify_T0_bound(FracOrder(0.5), SKEW, lambda_grid=[1.5])


def test_t0_bound_rejects_an_order_whose_period_overflows(monkeypatch):
    # 2 pi lambda^(1/(2s)) overflows at s = 1e-300; the check runs before
    # any continuation work
    def forbidden(*args, **kwargs):
        raise AssertionError("verify_T0_bound started the continuation")

    monkeypatch.setattr(bifurcation, "_first_point", forbidden)
    with pytest.raises(ValueError, match=r"s = 1e-300 is too small"):
        verify_T0_bound(FracOrder(1e-300), well(), lambda_grid=[1.5])


def test_t0_bound_rejects_an_empty_grid():
    with pytest.raises(ValueError, match="lambda_grid must hold one or more"):
        verify_T0_bound(FracOrder(0.5), well(), lambda_grid=[])


# -- the exported failures ---------------------------------------------------


def _corrector_after_two(monkeypatch, then):
    """Run the real corrector for the two starting points of continue_branch,
    and then(args) for every later call; returns the call list."""
    calls = []

    def patched(*args):
        calls.append(None)
        return _corrector(*args) if len(calls) <= 2 else then(args)

    monkeypatch.setattr(bifurcation, "_corrector", patched)
    return calls


def test_continue_branch_step_failure(monkeypatch):
    # no input found makes every corrector attempt fail, so the corrector is
    # patched: after MAX_STEP_RETRIES halvings of ds the step is given up
    def fail(args):
        raise NoConvergence("forced")

    calls = _corrector_after_two(monkeypatch, fail)
    ds = 0.05 * 0.5 ** bifurcation.MAX_STEP_RETRIES
    with pytest.raises(StepFailure, match=f"continuation step failed below ds = {ds:.2e}"):
        continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=5, ds_arc=0.05)
    assert len(calls) == 2 + bifurcation.MAX_STEP_RETRIES


def test_continue_branch_collapse_is_branch_lost(monkeypatch):
    # the trivial branch u = 0 solves the equation at every lambda; a
    # corrector that lands on it (patched: no input found does) ends the branch
    def trivial(args):
        z, _, rnorm = _corrector(*args)
        z = np.concatenate((np.zeros(z.size - 1), z[-1:]))   # fresh: an evaluated array is never modified
        return z, z[:-1], rnorm

    _corrector_after_two(monkeypatch, trivial)
    with pytest.raises(BranchLost, match="amplitude collapsed to the trivial branch"):
        continue_branch(FracOrder(0.5), well(), lambda_start=1.0, steps=5, ds_arc=0.05)


@pytest.mark.parametrize("ds", [0.05, 0.1, 0.2, 0.5])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_a_step_that_lands_on_the_trivial_branch_is_retried_smaller(s, ds):
    # u = 0 solves at every lambda, and on the subcritical mode-3 branch some
    # arclength planes meet it: Newton lands there (at s = 0.5, ds = 0.1 the
    # plane after lambda = 2.3166 meets it at lambda = 1.2204), and half the
    # step keeps the branch
    branch = continue_branch(FracOrder(s), SUBCRITICAL, 3.0 ** (2 * s), 12, ds)
    assert len(branch.points) == 12
    assert all(p.amplitude > 1e-10 and p.residual <= NEWTON_TOL for p in branch.points)


def test_t0_bound_subdivides_a_step_that_collapses(monkeypatch):
    # one step from the first point (lambda near 1) to 20 lands near the
    # trivial branch; the step is split in 2, 4, .. until every sub-step holds.
    # The error class is replaced by a recording subclass, nothing else.
    lost = []

    class Recorded(BranchLost):
        def __init__(self, message):
            lost.append(message)
            super().__init__(message)

    monkeypatch.setattr(bifurcation, "BranchLost", Recorded)
    rep = verify_T0_bound(FracOrder(0.5), well(), lambda_grid=[20.0])
    assert lost and set(lost) == {"collapsed toward the trivial branch"}
    assert rep.max_residual <= 1e-9 and 0.9 < rep.entries[0].amplitude < 1.0


@pytest.mark.parametrize("s", [0.5, 0.8])
def test_t0_bound_collapse_is_branch_lost(s):
    # even 64 sub-steps from lambda near 1 to 1000 fall onto the trivial branch
    with pytest.raises(BranchLost, match="collapsed toward the trivial branch"):
        verify_T0_bound(FracOrder(s), well(), lambda_grid=[1000.0])


# -- one grid evaluation per Newton iterate ----------------------------------


def _count_grid_evaluations(monkeypatch):
    """Spy on _SymmetryClass.values and on _newton in bifurcation and
    semilinear.  Returns (evaluations, runs): evaluations gets an entry for
    every grid evaluation, a values call that returns a new array rather than
    the one its class kept, and runs, for every _newton call, (residual calls,
    evaluations inside it, whether it starts from the array its class
    evaluated last, evaluations up to its return)."""
    evaluations, runs = [], []
    kept = {}   # class -> (the array it evaluated last, its values)
    cls_values = _SymmetryClass.values

    def counted_values(self, c):
        out = cls_values(self, c)
        if out is not kept.get(self, (None, None))[1]:
            evaluations.append(None)
            kept[self] = c, out
        return out

    def spied(newton):
        def spy(residual, jacobian, z, max_iter, norm):
            calls, before = [], len(evaluations)
            warm = any(z is c for c, _ in kept.values())

            def counted_residual(z):
                calls.append(None)
                return residual(z)

            try:
                return newton(counted_residual, jacobian, z, max_iter, norm)
            finally:
                runs.append((len(calls), len(evaluations) - before, warm, len(evaluations)))
        return spy

    monkeypatch.setattr(_SymmetryClass, "values", counted_values)
    for module in (bifurcation, semilinear):
        monkeypatch.setattr(module, "_newton", spied(module._newton))
    return evaluations, runs


def test_newton_iterates_are_evaluated_on_the_grid_once(monkeypatch):
    # the corrector evaluated each iterate three times (residual, Jacobian and
    # the G_lambda column), the fixed-lambda and refine steps twice; a Newton
    # run that starts from the descent's last iterate evaluates it no more
    _, runs = _count_grid_evaluations(monkeypatch)
    frac = FracOrder(0.5)
    continue_branch(frac, well(), lambda_start=1.0, steps=8, ds_arc=0.05)
    verify_T0_bound(frac, well(), lambda_grid=[1.01, 1.5], N=6)
    u = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.8, 0.0, 0.1])
    newton_refine(u, 8.0, frac, well())
    newton_refine(u + PeriodicFunction.constant(8.0, 0.01), 8.0, frac, well())   # full class
    semilinear.minimize_energy(8.0, frac, well(), semilinear.SolveConfig(N=32))
    assert len(runs) >= 12 and sum(r for r, *_ in runs) > len(runs)   # most runs take Newton steps
    assert all(values == residuals - warm for residuals, values, warm, _ in runs), runs
    assert any(warm for _, _, warm, _ in runs)


@pytest.mark.parametrize("solve", [
    lambda frac: semilinear.minimize_energy(8.0, frac, well(), semilinear.SolveConfig(N=32)),
    lambda frac: semilinear.minimize_energy(8.0, frac, well(), semilinear.SolveConfig(symmetry="even", N=32)),
    lambda frac: newton_refine(PeriodicFunction.from_modes(8.0, [0.8, 0.0, 0.1]), 8.0, frac, well()),
    lambda frac: verify_T0_bound(frac, well(), lambda_grid=[1.01, 1.5], N=6),
], ids=["minimize-odd", "minimize-even", "newton-refine", "t0-bound"])
def test_nothing_is_evaluated_on_the_grid_after_the_last_newton_run(monkeypatch, solve):
    # the amplitude, the nonconstant test and the sign of the solution read
    # the grid values of Newton's last iterate, which its class kept
    evaluations, runs = _count_grid_evaluations(monkeypatch)
    solve(FracOrder(0.5))
    assert runs and len(evaluations) == runs[-1][3], runs


def test_branch_points_are_read_from_the_corrector_s_last_evaluation(monkeypatch):
    # make_point evaluated every branch point on the grid once more; it now
    # reads the values the corrector's last residual left in its class, so
    # every evaluation happens inside a Newton run
    evaluations, runs = _count_grid_evaluations(monkeypatch)
    for lam in (1.0, 2.0):   # mode 1 in the half-wave class, mode 2 in the whole odd class
        continue_branch(FracOrder(0.5), well(), lambda_start=lam, steps=8, ds_arc=0.05)
    assert len(runs) == 16 and sum(inside for _, inside, _, _ in runs) == len(evaluations), runs


def _plain_corrector(cls, well, scale, z, tangent, target, max_iter=30):
    """The corrector with closures that share nothing: each call evaluates its
    iterate afresh, and so does the branch point built from its return."""
    def residual(z):
        return np.append(cls.residual(z[:-1], well, z[-1] * scale), tangent @ (z - target))

    def jacobian(z):
        n = cls.idx.size + 1
        J = np.empty((n, n))
        J[:-1, :-1] = cls.jacobian(z[:-1], well, z[-1] * scale)
        J[:-1, -1] = scale * cls.project(well.f1(cls.values(z[:-1])))
        J[-1] = tangent
        return J

    def norm(r):
        return cls.l2_norm(r[:-1]) if abs(r[-1]) <= 1e-12 else math.inf

    z, rnorm = semilinear._newton(residual, jacobian, z, max_iter, norm)
    return z, z[:-1], rnorm


def _plain_pair(self, well, k=1.0):
    """newton_pair with closures that evaluate a copy of each iterate, so the
    class's kept values serve neither."""
    return (lambda c: self.residual(c.copy(), well, k)), (lambda c: self.jacobian(c.copy(), well, k))


def _bits(*arrays):
    return [np.asarray(a, dtype=float).tobytes() for a in arrays]


def _outputs(frac, wl):
    br = continue_branch(frac, wl, lambda_start=1.0, steps=12, ds_arc=0.1)
    out = _bits(*[v for p in br.points for v in (p.lam, p.amplitude, p.residual, p.sigma_min, p.u.sin_coeffs)])
    if wl.label == "quartic":   # the subcritical branch turns back below lambda = 1
        rep = verify_T0_bound(frac, wl, lambda_grid=[1.01, 1.2, 1.6], N=6)
        out += _bits(*[v for e in rep.entries for v in (e.amplitude, e.residual_rescaled)])
    for sym in ("odd", "even"):
        sol = semilinear.minimize_energy(8.0, frac, wl, semilinear.SolveConfig(symmetry=sym, N=32))
        ref = newton_refine(sol.u + PeriodicFunction.from_modes(8.0, [0.0, 0.0, 0.01]), 8.0, frac, wl)
        out += _bits(sol.u.cos_coeffs, sol.u.sin_coeffs, sol.residual, ref.u.sin_coeffs, ref.residual)
    return out


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_shared_newton_closures_match_plain_ones_bit_for_bit(monkeypatch, s):
    subcritical = DoubleWell.from_poly([0.5, 0.0, -0.5, 0.0, -0.5, 0.0, 0.5])
    shared = [_outputs(FracOrder(s), wl) for wl in (well(), subcritical)]
    monkeypatch.setattr(bifurcation, "_corrector", _plain_corrector)
    monkeypatch.setattr(_SymmetryClass, "newton_pair", _plain_pair)
    assert shared == [_outputs(FracOrder(s), wl) for wl in (well(), subcritical)]


def test_newton_closures_on_another_array_are_not_stale(monkeypatch):
    # _newton hands jacobian the array of the latest residual call; handed
    # any other array, the closures evaluate it afresh
    frac, k = FracOrder(0.5), 0.7
    cls = _SymmetryClass("odd", TWO_PI, 12, frac)
    z1, z2 = (np.random.default_rng(seed).uniform(-0.3, 0.3, cls.N + 1) for seed in (1, 2))
    z1[-1] = z2[-1] = 1.2
    residual, jacobian = cls.newton_pair(well(), k)
    residual(z1[:-1])
    assert np.array_equal(jacobian(z2[:-1]), cls.jacobian(z2[:-1], well(), k))
    assert np.array_equal(jacobian(z1[:-1].copy()), cls.jacobian(z1[:-1], well(), k))

    pairs = []
    newton = bifurcation._newton

    def spy(residual, jacobian, z, max_iter, norm):
        pairs.append((residual, jacobian))
        return newton(residual, jacobian, z, max_iter, norm)

    monkeypatch.setattr(bifurcation, "_newton", spy)
    tangent = np.zeros(cls.N + 1)
    tangent[0] = 1.0
    _corrector(cls, well(), k, z1, tangent, z1)
    residual, jacobian = pairs[0]   # the corrector's bordered system, scale k
    residual(z1)
    J = jacobian(z2)
    assert np.array_equal(J[:-1, :-1], cls.jacobian(z2[:-1], well(), z2[-1] * k))
    assert np.array_equal(J[:-1, -1], k * cls.project(well().f1(cls.values(z2[:-1]))))


@pytest.mark.parametrize("N", [6, 7])
def test_t0_refine_runs_at_truncation_8_below_it(monkeypatch, N):
    refined = _spy_on_refines(monkeypatch)
    rep = verify_T0_bound(FracOrder(0.5), well(), lambda_grid=[1.01, 1.5], N=N)
    assert len(refined) == len(rep.entries) == 2
    assert all(cls.N == 8 and c.size == 8 for cls, _, c, _ in refined)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_t0_bound_on_a_subcritical_well_is_a_value_error(s):
    # the branch leaves lambda = 1 toward lambda < 1: the pitchfork predictor
    # took math.sqrt of a negative ratio and failed with "math domain error"
    subcritical = DoubleWell.from_poly([0.5, 0.0, -0.5, 0.0, -0.5, 0.0, 0.5])
    assert classify_criticality(FracOrder(s), subcritical, 1) == "subcritical"
    with pytest.raises(ValueError, match=r"^the branch leaves lambda = 1 toward lambda < 1 \(subcritical: "
                                         r"its first point is at lambda = 0\.99\d+\); verify_T0_bound follows "
                                         r"supercritical branches only$"):
        verify_T0_bound(FracOrder(s), subcritical)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_mode_m_branch_is_the_mode_1_branch_compressed(s, m):
    # (-d_xx)^s of u(x) = v(m x) is m^{2s} ((-d_xx)^s v)(m x), so the branch
    # from lambda = m^{2s} is v(m x) with v on the mode-1 branch at coupling
    # lambda / m^{2s}: only the multiples of m carry a coefficient, and
    # v_k = a_{m k} solves the mode-1 equation in the odd class at N / m.
    # Control: at the branch's end the coupling lambda / m^s solves nothing
    frac, N = FracOrder(s), 24 * m
    branch = continue_branch(frac, well(), float(m) ** (2 * s), 30, 0.05, N=N)
    cls = _SymmetryClass("odd", TWO_PI, N // m, frac)
    for p in branch.points:
        a = p.u.sin_coeffs
        assert np.max(np.abs(np.delete(a, np.s_[m - 1 :: m]))) <= 1e-12
        assert cls.l2_norm(cls.residual(a[m - 1 :: m], well(), p.lam / m ** (2 * s))) <= 1e-9
    end = branch.points[-1]
    assert cls.l2_norm(cls.residual(end.u.sin_coeffs[m - 1 :: m], well(), end.lam / m**s)) > 0.1
