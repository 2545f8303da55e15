"""The transform layer against dense sin/cos matrices built here: grid
synthesis/analysis, the symmetry classes (transforms, residual, Jacobian,
norm, energy) on both sides of the dense/FFT switch and their Toeplitz +-
Hankel Gram matrices, the bifurcation residual and Jacobian, and the
uniform-grid evaluator of PeriodicFunction."""

import functools
import math

import numpy as np
import pytest

from fracperiodic import semilinear, spectral
from fracperiodic.bifurcation import verify_T0_bound
from fracperiodic.diagnostics import energy_scan
from fracperiodic.semilinear import COARSE_MIN_N, SolveConfig, find_min_period, minimize_energy
from fracperiodic.spectral import FFT_MIN_N, _SymmetryClass
from fracperiodic.spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    grid_analysis,
    grid_synthesis,
    gram,
    potential_energy_half,
)

RTOL = 1e-12


def assert_rel(got, ref, rtol=RTOL):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


# test id -> (symmetry, half_wave) of _SymmetryClass
CLASSES = {"odd": ("odd", False), "full": ("full", False), "odd-half": ("odd", True)}


def dense_basis(symmetry, N, M, half_wave=False):
    """Columns of the class basis on the M-point grid, and the projection
    weight of each row (1 for the mean, 2 for the trig modes)."""
    phase = 2.0 * math.pi * np.outer(np.arange(M), np.arange(1, N + 1)) / M
    S, C = np.sin(phase), np.cos(phase)
    if half_wave:   # the odd harmonics 1, 3, ..
        S, C = S[:, ::2], C[:, ::2]
    one = np.ones((M, 1))
    B = {"odd": S, "full": np.hstack([one, C, S])}[symmetry]
    weight = np.full(B.shape[1], 2.0)
    if symmetry == "full":
        weight[0] = 1.0
    return B, weight


def random_coeffs(rng, n):
    return rng.standard_normal(n) * 0.5 / (1.0 + np.arange(n))


def dense_multipliers(symmetry, T, N, s, half_wave=False):
    lam = (2.0 * math.pi / T * np.arange(1, N + 1)) ** (2.0 * s)
    if half_wave:
        lam = lam[::2]
    return {"odd": lam, "full": np.concatenate(([0.0], lam, lam))}[symmetry]


@pytest.mark.parametrize("N", [32, 300])
@pytest.mark.parametrize("name", list(CLASSES))
def test_symmetry_class_matches_dense(name, N):
    T = 7.3
    symmetry, half_wave = CLASSES[name]
    cls = _SymmetryClass(symmetry, T, N, FracOrder(0.4), half_wave)
    assert cls.fft == (N >= FFT_MIN_N)
    B, weight = dense_basis(symmetry, N, cls.M, half_wave)
    mult = dense_multipliers(symmetry, T, N, 0.4, half_wave)
    rng = np.random.default_rng(N)
    c = random_coeffs(rng, B.shape[1])
    u = B @ c
    assert_rel(cls.values(c), u)
    assert_rel(cls.project(u), (weight / cls.M) * (B.T @ u))
    assert_rel(cls.linear_part(c), mult * c)
    well = DoubleWell.quartic()
    for k in (1.0, 1.7):
        assert_rel(cls.residual(c, well, k), mult * c + k * (weight / cls.M) * (B.T @ well.f1(u)))
        J = k * weight[:, None] * (B.T @ ((well.f2(u) / cls.M)[:, None] * B)) + np.diag(mult)
        assert_rel(cls.jacobian(c, well, k), J)
    # the grid integrates polynomials up to degree 4N exactly
    norm = math.sqrt(T * np.mean(u**2))
    assert abs(cls.l2_norm(c) - norm) <= RTOL * norm
    energy = 0.5 * T * np.mean(u * (B @ (mult * c))) + T * np.mean(well.f(u))
    assert abs(cls.energy_full(c, well) - energy) <= RTOL * abs(energy)
    f = cls.to_function(c)
    assert f.odd == (symmetry == "odd")
    assert_rel(f(cls.x), u)
    assert np.array_equal(cls.from_function(f), c)


@pytest.mark.parametrize("N", [16, 17, 64, 300])
@pytest.mark.parametrize("symmetry", ["odd"])
def test_half_wave_class_is_the_odd_harmonic_block(symmetry, N):
    # F' is odd and F'' even for an even well, so the full-class residual of
    # a half-wave u vanishes on the even harmonics and its Jacobian couples
    # odd harmonics only to odd harmonics
    T, frac, well = 7.3, FracOrder(0.4), DoubleWell.quartic()
    half = _SymmetryClass(symmetry, T, N, frac, True)
    full = _SymmetryClass("full", T, N, frac)
    assert half.idx.size == math.ceil(N / 2) and half.fft == full.fft == (N >= FFT_MIN_N)
    c = random_coeffs(np.random.default_rng(N), half.idx.size)
    cf = np.zeros(2 * N + 1)
    cf[half.idx] = c
    rest = np.setdiff1d(full.idx, half.idx)
    r, J = full.residual(cf, well), full.jacobian(cf, well)
    assert_rel(half.residual(c, well), r[half.idx])
    assert np.max(np.abs(r[rest])) <= RTOL * np.max(np.abs(r))
    assert_rel(half.jacobian(c, well), J[np.ix_(half.idx, half.idx)])
    assert np.max(np.abs(J[np.ix_(rest, half.idx)])) <= RTOL * np.max(np.abs(J))
    e = full.energy_full(cf, well)
    assert abs(half.energy_full(c, well) - e) <= RTOL * abs(e)
    assert abs(half.l2_norm(c) - full.l2_norm(cf)) <= RTOL * full.l2_norm(cf)


@pytest.mark.parametrize("N", [32, 300])
def test_rescaled_jacobian_matches_dense(N):
    # G(lambda, a) is the odd 2 pi class residual with coupling k = lambda / -F''(0)
    well = DoubleWell.quartic(2.0)
    cls = _SymmetryClass("odd", 2.0 * math.pi, N, FracOrder(0.5))
    S, _ = dense_basis("odd", N, cls.M)
    a = random_coeffs(np.random.default_rng(7), N)
    k = 1.7 / 2.0   # F''(0) = -2
    lam_m = dense_multipliers("odd", 2.0 * math.pi, N, 0.5)
    u = S @ a
    f1 = well.f1(u) / cls.M
    assert_rel(cls.residual(a, well, k), lam_m * a + k * 2.0 * (S.T @ f1))
    f2 = well.f2(u) / cls.M
    J = np.diag(lam_m) + k * 2.0 * (S.T @ (f2[:, None] * S))
    assert_rel(cls.jacobian(a, well, k), J)


def random_function(T=5.0, N=40, seed=3):
    rng = np.random.default_rng(seed)
    return PeriodicFunction(T=T, sin_coeffs=random_coeffs(rng, N),
                            cos_coeffs=random_coeffs(rng, N + 1))


@pytest.mark.parametrize("M", [1, 2, 7, 20, 81, 82, 200])
def test_sample_matches_pointwise(M):
    # M < 2N + 2 folds modes onto their aliases
    u = random_function()
    assert_rel(u.sample(M), u(np.arange(M) * (u.T / M)))


def test_grid_values_match_pointwise():
    u = random_function()
    assert_rel(u.grid_values(), u(u.grid()))


def test_potential_energy_half_matches_pointwise():
    u = random_function()
    well = DoubleWell.quartic()
    n = max(8 * u.N + 64, 256)
    x = np.linspace(0.0, u.T / 2.0, n + 1)
    ref = float(np.trapezoid(well.f(u(x)), x))
    assert abs(potential_energy_half(u, well) - ref) <= RTOL * abs(ref)


def gram_moments(cls, g):
    """g_k and h_k (k = 0..2N) as gram reads them: from one rfft of g for
    the full class and from FFT_MIN_N on, else from the class's table of
    cosine-moment rows, every step-th k (h_k is never read there)."""
    if cls.symmetry == "full" or cls.fft:
        spec = np.fft.rfft(g) / cls.M
        return spec.real, -spec.imag
    step = 2 if cls.half_wave else 1
    gc = np.zeros(2 * cls.N + 1)
    gc[::step] = spectral._tables(cls.symmetry, cls.N, cls.half_wave)[2] @ g[: cls.M // step]
    return gc, None


def scipy_gram(cls, g):
    """gram built with scipy.linalg.toeplitz/hankel, block by block."""
    from scipy.linalg import hankel, toeplitz

    gc, gs = gram_moments(cls, g)
    N = cls.N
    if cls.symmetry != "full":   # modes 1, 1 + step, ..: g_|m-n| - g_{m+n}
        step, n = (2 if cls.half_wave else 1), cls.idx.size
        dist = toeplitz(gc[: step * n : step])
        tot = hankel(gc[2 : 2 + step * n : step], gc[2 + step * (n - 1) : 2 + step * (2 * n - 1) : step])
        return dist - tot
    dist = toeplitz(gc[: N + 1])
    tot = hankel(gc[: N + 1], gc[N : 2 * N + 1])
    sc = hankel(gs[: N + 1], gs[N : 2 * N + 1]) + toeplitz(gs[: N + 1], -gs[: N + 1])
    cc = np.block([[dist + tot, sc.T[:, 1:]], [sc[1:], (dist - tot)[1:, 1:]]])
    cc[0] *= 0.5
    return cc


@pytest.mark.parametrize("N", [32, 300, 512, 17])
@pytest.mark.parametrize("name", list(CLASSES))
def test_gram_strided_blocks_bit_identical(name, N):
    # the strided Toeplitz/Hankel views against scipy's, on the same moments:
    # those of the rfft where gram takes one, else those of the class table
    symmetry, half_wave = CLASSES[name]
    cls = _SymmetryClass(symmetry, 7.3, N, FracOrder(0.5), half_wave)
    g = np.random.default_rng(N).standard_normal(cls.M)
    got = gram(symmetry, N, g, half_wave)
    assert got.shape == (cls.idx.size, cls.idx.size)
    assert np.array_equal(got, scipy_gram(cls, g))
    assert got.flags.writeable   # jacobian adds the multiplier in place


@pytest.mark.parametrize("N", [17, 32])
@pytest.mark.parametrize("name", ["odd", "odd-half"])
def test_gram_matches_closed_form(name, N):
    # g = sum_k p_k cos(2 pi k j / M) + q_k sin(..) over k < M/2 has the
    # moments g_0 = p_0 and g_k = p_k / 2, so gram is g_|m-n| - g_{m+n}
    # over the class's modes m, n, with no rounded reference
    symmetry, half_wave = CLASSES[name]
    cls = _SymmetryClass(symmetry, 7.3, N, FracOrder(0.5), half_wave)
    rng = np.random.default_rng(N)
    K = 2 * N + 1   # one past gram's reach, below the aliasing of M / 2
    p, q = rng.standard_normal(K + 1), rng.standard_normal(K + 1)
    if half_wave:   # T/2-periodic: even k only
        p[1::2] = q[1::2] = 0.0
    phase = 2.0 * math.pi * (np.outer(np.arange(cls.M), np.arange(K + 1)) % cls.M) / cls.M
    g = np.cos(phase) @ p + np.sin(phase) @ q
    moment = np.concatenate(([p[0]], 0.5 * p[1:], np.zeros(cls.M)))
    m = np.arange(1, N + 1)[:: 2 if half_wave else 1]
    ref = moment[np.abs(m[:, None] - m)] - moment[m[:, None] + m]
    got = gram(symmetry, N, g, half_wave)
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(g))


def fft_side(cls):
    """values and project of the FFT route, at any N."""
    return (lambda c: grid_synthesis(cls.M, *cls._layout(c)),
            lambda u: np.concatenate(grid_analysis(u, cls.N))[cls.idx])


@pytest.mark.parametrize("N", [17, 32, 128, 194, 255])
@pytest.mark.parametrize("name", list(CLASSES))
def test_dense_tables_agree_with_fft_to_roundoff(name, N):
    symmetry, half_wave = CLASSES[name]
    cls = _SymmetryClass(symmetry, 7.3, N, FracOrder(0.4), half_wave)
    assert not cls.fft
    values, project = fft_side(cls)
    c = random_coeffs(np.random.default_rng(N), cls.idx.size)
    assert_rel(cls.values(c), values(c), 2e-15)
    f1 = DoubleWell.quartic().f1(values(c))   # what the solver projects
    assert_rel(cls.project(f1), project(f1), 2e-15)


@pytest.mark.parametrize("N", [32, 300])
@pytest.mark.parametrize("name", list(CLASSES))
def test_transforms_do_not_depend_on_the_period(name, N):
    symmetry, half_wave = CLASSES[name]
    a, b = (_SymmetryClass(symmetry, T, N, FracOrder(0.4), half_wave) for T in (7.3, 31.0))
    c = random_coeffs(np.random.default_rng(N), a.idx.size)
    u = np.random.default_rng(N + 1).standard_normal(a.M)
    assert np.array_equal(a.values(c), b.values(c))
    assert np.array_equal(a.project(u), b.project(u))


@pytest.mark.parametrize("N", [32, 300])   # the dense and the FFT route
@pytest.mark.parametrize("name", list(CLASSES))
def test_values_are_kept_for_the_very_array_evaluated_last(name, N):
    symmetry, half_wave = CLASSES[name]
    cls = _SymmetryClass(symmetry, 7.3, N, FracOrder(0.4), half_wave)
    values, _ = fft_side(cls)
    rng = np.random.default_rng(N)
    c, other = (random_coeffs(rng, cls.idx.size) for _ in range(2))
    u = cls.values(c)
    assert cls.values(c) is u
    copy = cls.values(c.copy())   # equal contents, another array: evaluated afresh
    assert copy is not u and np.array_equal(copy, u)
    v = cls.values(other)
    assert v is not copy and np.array_equal(v, cls.values(other.copy()))
    assert_rel(v, values(other), 2e-15)
    assert np.max(np.abs(v - u)) > 0.1


def counted_tables(monkeypatch):
    """Replace the table cache by an empty one of the same size that counts
    the builds per (symmetry, N, half_wave)."""
    builds = {}
    build = spectral._tables.__wrapped__

    def counted(*key):
        builds[key] = builds.get(key, 0) + 1
        return build(*key)

    maxsize = spectral._tables.cache_parameters()["maxsize"]
    monkeypatch.setattr(spectral, "_tables", functools.lru_cache(maxsize=maxsize)(counted))
    return builds


@pytest.mark.parametrize("N", [24, 160])
def test_verify_T0_bound_builds_each_table_once(monkeypatch, N):
    builds = counted_tables(monkeypatch)
    verify_T0_bound(FracOrder(0.5), DoubleWell.quartic(), [1.05, 1.5, 2.0], N=N)
    assert builds == {("odd", N, True): 1, ("odd", N, False): 1}   # the branch, the realized-period refine


@pytest.mark.parametrize("N", [32, 128])
def test_find_min_period_builds_each_table_once(monkeypatch, N):
    builds = counted_tables(monkeypatch)
    monkeypatch.setattr(semilinear, "MIN_PERIOD_N", N)
    find_min_period(FracOrder(0.5), DoubleWell.quartic(), 10.0, tol=0.5)
    coarse = [("odd", N // 4, True)] if N >= COARSE_MIN_N else []
    assert builds == dict.fromkeys([("odd", N, True)] + coarse, 1)


def test_a_repeated_large_period_round_builds_no_table():
    # the minimizer at N = 512 (coarse stage at N = 128) and the energy scan
    # (N = max(64, 1.5 T), coarse stage at N // 4 from N = 128 on) use five
    # odd half-wave table sets, all of which the cache keeps for the next round
    def one_round():
        minimize_energy(201.4, FracOrder(0.5), DoubleWell.quartic(), SolveConfig(N=512))
        energy_scan(FracOrder(0.25), DoubleWell.quartic(), [16.0, 32.0, 64.0, 128.0])

    one_round()
    misses = spectral._tables.cache_info().misses
    one_round()
    assert spectral._tables.cache_info().misses == misses


@pytest.mark.parametrize("symmetry,T,N", [("odd", 201.4, 512), ("even", 40.0, 128), ("odd", 8.0, 48)])
def test_minimizer_is_identical_with_cold_and_warm_tables(symmetry, T, N):
    # the tables are shared read-only: a solve on tables that earlier solves
    # used gives the same bytes as one on freshly built tables
    def solve():
        sol = minimize_energy(T, FracOrder(0.5), DoubleWell.quartic(), SolveConfig(symmetry=symmetry, N=N))
        return (sol.u.sin_coeffs.tobytes(), sol.u.cos_coeffs.tobytes(), sol.residual, sol.energy,
                sol.amplitude, sol.classification)

    spectral._tables.cache_clear()
    cold = solve()
    assert solve() == cold
