"""The transform layer against dense sin/cos matrices built here: grid
synthesis/analysis, the symmetry classes (transforms, residual, Jacobian,
norm, energy) on both sides of the dense/FFT switch and their Toeplitz +-
Hankel Gram matrices, the bifurcation residual and Jacobian, and the
uniform-grid evaluator of PeriodicFunction."""

import math

import numpy as np
import pytest

from fracperiodic.spectral import FFT_MIN_N, _SymmetryClass
from fracperiodic.spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    gram,
    potential_energy_half,
)

RTOL = 1e-12


def assert_rel(got, ref, rtol=RTOL):
    assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))


def dense_basis(symmetry, N, M):
    """Columns of the class basis on the M-point grid, and the projection
    weight of each row (1 for the mean, 2 for the trig modes)."""
    phase = 2.0 * math.pi * np.outer(np.arange(M), np.arange(1, N + 1)) / M
    S, C = np.sin(phase), np.cos(phase)
    one = np.ones((M, 1))
    B = {"odd": S, "even": np.hstack([one, C]), "full": np.hstack([one, C, S])}[symmetry]
    weight = np.full(B.shape[1], 2.0)
    if symmetry != "odd":
        weight[0] = 1.0
    return B, weight


def random_coeffs(rng, n):
    return rng.standard_normal(n) * 0.5 / (1.0 + np.arange(n))


def dense_multipliers(symmetry, T, N, s):
    lam = (2.0 * math.pi / T * np.arange(1, N + 1)) ** (2.0 * s)
    return {"odd": lam, "even": np.concatenate(([0.0], lam)),
            "full": np.concatenate(([0.0], lam, lam))}[symmetry]


@pytest.mark.parametrize("N", [32, 300])
@pytest.mark.parametrize("symmetry", ["odd", "even", "full"])
def test_symmetry_class_matches_dense(symmetry, N):
    T = 7.3
    cls = _SymmetryClass(symmetry, T, N, FracOrder(0.4))
    assert cls.fft == (N >= FFT_MIN_N)
    B, weight = dense_basis(symmetry, N, cls.M)
    mult = dense_multipliers(symmetry, T, N, 0.4)
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


@pytest.mark.parametrize("n_grid", [None, 10, 64])
def test_potential_energy_half_matches_pointwise(n_grid):
    u = random_function()
    well = DoubleWell.quartic()
    n = n_grid or max(8 * u.N + 64, 256)
    x = np.linspace(0.0, u.T / 2.0, n + 1)
    ref = float(np.trapezoid(well.f(u(x)), x))
    assert abs(potential_energy_half(u, well, n_grid) - ref) <= RTOL * abs(ref)


def scipy_gram(cls, g):
    """gram built with scipy.linalg.toeplitz/hankel, block by block."""
    from scipy.linalg import hankel, toeplitz

    spec = np.fft.rfft(g) / cls.M
    gc, gs = spec.real, -spec.imag
    N = cls.N
    if cls.symmetry == "odd":
        return toeplitz(gc[:N]) - hankel(gc[2 : N + 2], gc[N + 1 : 2 * N + 1])
    dist = toeplitz(gc[: N + 1])
    tot = hankel(gc[: N + 1], gc[N : 2 * N + 1])
    cc = dist + tot
    if cls.symmetry == "full":
        sc = hankel(gs[: N + 1], gs[N : 2 * N + 1]) + toeplitz(gs[: N + 1], -gs[: N + 1])
        cc = np.block([[cc, sc.T[:, 1:]], [sc[1:], (dist - tot)[1:, 1:]]])
    cc[0] *= 0.5
    return cc


@pytest.mark.parametrize("N", [32, 300, 512])
@pytest.mark.parametrize("symmetry", ["odd", "even", "full"])
def test_gram_strided_blocks_bit_identical(symmetry, N):
    cls = _SymmetryClass(symmetry, 7.3, N, FracOrder(0.5))
    g = np.random.default_rng(N).standard_normal(cls.M)
    got = gram(symmetry, N, g)
    assert np.array_equal(got, scipy_gram(cls, g))
    assert got.flags.writeable   # jacobian adds the multiplier in place
