"""Galerkin operator assembly and the three solvability regimes:
coercive shift, Fredholm alternative, eigenvalue sets."""

import math
import warnings

import numpy as np
import pytest

from fracperiodic.errors import NegativePotential, NotCoercive, SolvabilityViolation
from fracperiodic.linear import (
    GalerkinOperator,
    _galerkin_matrix,
    eigenvalue_set,
    function_to_coords,
    schrodinger_fractional_spectrum,
    solve_coercive,
    solve_fredholm,
)
from fracperiodic.spectral import FracOrder, PeriodicFunction

TWO_PI = 2.0 * math.pi


def zero_k(T=TWO_PI):
    return PeriodicFunction.constant(T, 0.0)


def make_op(s=0.5, T=TWO_PI, N=16, k=None):
    return GalerkinOperator(frac=FracOrder(s), T=T, N=N, k=k or zero_k(T))


# -- assembly ----------------------------------------------------------------


def test_matrix_symmetric():
    k = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.2], cos_coeffs=[0.1, 0.3])
    op = make_op(s=0.35, k=k)
    assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-12


def test_matrix_diagonal_without_potential():
    op = make_op(s=0.5, N=8)
    expected = np.zeros(17)
    lam = np.arange(1, 9).astype(float)  # m^{2s} = m at s = 1/2
    expected[1::2] = lam
    expected[2::2] = lam
    assert np.allclose(op.matrix, np.diag(expected), atol=1e-12)


# -- coercive solve ----------------------------------------------------------


def test_coercive_diagonal_example():
    g = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    res = solve_coercive(make_op(), 1.0, g)
    assert abs(res.u.sin_coeffs[0] - 0.5) < 1e-12  # (1 + 1) u = g
    assert res.residual <= 1e-10 * max(1.0, g.l2_norm())


def test_coercive_zero_rhs():
    res = solve_coercive(make_op(), 1.0, zero_k())
    assert res.u.coeff_norm() == 0.0


def test_coercive_constant_equation():
    k = PeriodicFunction.constant(TWO_PI, 1.0)
    g = PeriodicFunction.constant(TWO_PI, 1.0)
    res = solve_coercive(make_op(s=0.3, k=k), 0.0, g)
    x = np.linspace(0, TWO_PI, 9)
    assert np.allclose(res.u(x), 1.0, atol=1e-10)


def test_not_coercive_raises():
    k = PeriodicFunction.constant(TWO_PI, -2.0)
    with pytest.raises(NotCoercive):
        solve_coercive(make_op(k=k), 0.0, zero_k())


def test_coercive_cholesky_matches_dense_solve():
    rng = np.random.default_rng(17)
    k = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=rng.uniform(-0.5, 0.5, 3),
                                    cos_coeffs=rng.uniform(-0.5, 0.5, 4))
    g = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=rng.standard_normal(5),
                                    cos_coeffs=rng.standard_normal(6))
    op = make_op(s=0.4, N=24, k=k)
    mu = 1.2
    res = solve_coercive(op, mu, g)
    A = op.matrix + mu * np.eye(op.matrix.shape[0])
    ref = np.linalg.solve(A, function_to_coords(g, op.N))
    got = function_to_coords(res.u, op.N)
    assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


def test_not_coercive_at_the_threshold():
    # L + mu with mu just below -lambda_min is indefinite; just above it is not
    k = PeriodicFunction.constant(TWO_PI, -2.0)
    op = make_op(k=k)
    with pytest.raises(NotCoercive):
        solve_coercive(op, 2.0 - 1e-6, zero_k())
    assert solve_coercive(op, 2.0 + 1e-6, zero_k()).u.coeff_norm() == 0.0


# -- Fredholm alternative ----------------------------------------------------


def test_fredholm_kernel_orthogonal():
    g = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[], cos_coeffs=[0.0, 1.0])
    res = solve_fredholm(make_op(), g)
    assert res.kernel.dim == 1  # constants
    assert not res.unique
    assert abs(res.solution.cos_coeffs[1] - 1.0) < 1e-9
    assert abs(res.solution.cos_coeffs[0]) < 1e-9  # minimal norm: no kernel part


def test_fredholm_kernel_solve_reads_no_uninitialized_memory():
    g = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[], cos_coeffs=[0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_fredholm(make_op(), g)
    assert res.kernel.dim == 1
    assert np.all(np.isfinite(res.solution.cos_coeffs))


def svd_fredholm(A, gc):
    """Kernel projector and minimal-norm solution from a full SVD: the
    reference for the symmetric-eigensolver route."""
    U, sv, Vt = np.linalg.svd(A)
    null = sv < 1e-9 * sv[0]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=~null)
    return Vt[null].T @ Vt[null], Vt.T @ (inv * (U.T @ gc))


@pytest.mark.parametrize("kernel_dim", [0, 1, 2])
def test_fredholm_matches_svd_route(kernel_dim):
    # k = 0: constants; k = -1 at s = 1/2: cos x, sin x (eigenvalue m - 1 = 0);
    # k = 1: no kernel
    rng = np.random.default_rng(kernel_dim)
    k = {0: 1.0, 1: 0.0, 2: -1.0}[kernel_dim]
    op = make_op(k=PeriodicFunction.constant(TWO_PI, k))
    A = op.matrix
    P_ref, _ = svd_fredholm(A, np.zeros(A.shape[0]))
    # data orthogonal to the kernel
    gc = rng.standard_normal(A.shape[0])
    gc -= P_ref @ gc
    g = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=gc[2::2] / math.sqrt(math.pi),
                                    cos_coeffs=np.concatenate(([gc[0] / math.sqrt(TWO_PI)],
                                                               gc[1::2] / math.sqrt(math.pi))))
    res = solve_fredholm(op, g)
    assert res.kernel.dim == kernel_dim
    P = sum((np.outer(c, c) for c in (function_to_coords(v, op.N) for v in res.kernel.vectors)),
            np.zeros_like(A))
    assert np.max(np.abs(P - P_ref)) < 1e-12
    _, ref = svd_fredholm(A, function_to_coords(g, op.N))
    assert np.max(np.abs(function_to_coords(res.solution, op.N) - ref)) < 1e-12


def test_fredholm_violation():
    g = PeriodicFunction.constant(TWO_PI, 1.0)
    with pytest.raises(SolvabilityViolation):
        solve_fredholm(make_op(), g)


def test_fredholm_unique():
    k = PeriodicFunction.constant(TWO_PI, 1.0)
    g = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    res = solve_fredholm(make_op(k=k), g)
    assert res.unique and res.kernel.dim == 0
    assert abs(res.solution.sin_coeffs[0] - 0.5) < 1e-10


def test_fredholm_dichotomy_random():
    rng = np.random.default_rng(41)
    for _ in range(6):
        k = PeriodicFunction.from_modes(
            TWO_PI,
            sin_coeffs=rng.uniform(-0.4, 0.4, 2),
            cos_coeffs=np.concatenate([[rng.uniform(0.5, 2.0)], rng.uniform(-0.4, 0.4, 2)]),
        )
        g = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=rng.standard_normal(3),
                                        cos_coeffs=rng.standard_normal(4))
        res = solve_fredholm(make_op(s=rng.uniform(0.2, 0.8), k=k), g)
        # bounded positive k: unique solvability, empty kernel
        assert res.unique


# -- eigenvalues -------------------------------------------------------------


def test_eigenvalue_set_free():
    pairs = eigenvalue_set(make_op(), 4)
    vals = [lam for lam, _ in pairs]
    assert np.allclose(vals, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_eigenvalue_shift_by_constant():
    c = 0.7
    k = PeriodicFunction.constant(TWO_PI, c)
    base = [lam for lam, _ in eigenvalue_set(make_op(N=12), 6)]
    shifted = [lam for lam, _ in eigenvalue_set(make_op(N=12, k=k), 6)]
    assert np.allclose(np.array(shifted) - np.array(base), c, atol=1e-12)


def test_eigenvalue_truncation_refinement():
    k = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[], cos_coeffs=[0.0, 0.3])
    coarse = [lam for lam, _ in eigenvalue_set(make_op(N=16, k=k), 3)]
    fine = [lam for lam, _ in eigenvalue_set(make_op(N=32, k=k), 3)]
    assert np.allclose(coarse, fine, atol=1e-8)


def test_free_multiplicities():
    pairs = eigenvalue_set(make_op(N=12), 9)
    vals = np.array([lam for lam, _ in pairs])
    # {0} simple, then m^{2s} with multiplicity 2 (sin and cos pair)
    assert abs(vals[0]) < 1e-12
    for m in (1, 2, 3, 4):
        assert np.sum(np.abs(vals - float(m)) < 1e-10) == 2


def test_eigenvalues_nondecreasing():
    k = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.2], cos_coeffs=[1.0, 0.1])
    vals = [lam for lam, _ in eigenvalue_set(make_op(N=16, k=k), 20)]
    assert np.all(np.diff(vals) >= -1e-12)


@pytest.mark.parametrize("count", [0, 1, 6, 33])
def test_eigenvalue_subset_matches_full_spectrum(count):
    # the partial eigensolve returns the bottom of the full spectrum, in order
    k = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.3, -0.1], cos_coeffs=[1.0, 0.2, 0.4])
    op = make_op(s=0.4, N=16, k=k)
    full = np.linalg.eigvalsh(op.matrix)
    pairs = eigenvalue_set(op, count)
    assert len(pairs) == count
    assert np.allclose([lam for lam, _ in pairs], full[:count], rtol=0, atol=1e-12)
    for lam, v in pairs:
        c = function_to_coords(v, 16)
        assert np.linalg.norm(op.matrix @ c - lam * c) < 1e-10
    # Schrodinger: the bottom of the full spectrum of -d_xx + k, to the power s
    A = _galerkin_matrix(TWO_PI, 16, np.arange(1, 17) ** 2.0, k)
    ref = np.clip(np.linalg.eigvalsh(A), 0.0, None)[:count] ** 0.4
    sch = schrodinger_fractional_spectrum(k, FracOrder(0.4), count, N=16)
    assert np.allclose([lam for lam, _ in sch], ref, rtol=0, atol=1e-12)


# -- fractional Schrodinger spectrum -----------------------------------------


def test_schrodinger_free():
    V = PeriodicFunction.constant(TWO_PI, 0.0)
    pairs = schrodinger_fractional_spectrum(V, FracOrder(0.5), 3, N=16)
    vals = [lam for lam, _ in pairs]
    assert np.allclose(vals, [0.0, 1.0, 1.0], atol=1e-10)


def test_schrodinger_constant_potential():
    V = PeriodicFunction.constant(TWO_PI, 4.0)
    s = 0.3
    pairs = schrodinger_fractional_spectrum(V, FracOrder(s), 7, N=16)
    vals = sorted(lam for lam, _ in pairs)
    expected = sorted([4.0**s] + [float(m * m + 4) ** s for m in (1, 1, 2, 2, 3, 3)])
    assert np.allclose(vals, expected, atol=1e-10)


def test_schrodinger_negative_potential_rejected():
    V = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[], cos_coeffs=[0.0, 1.0])
    with pytest.raises(NegativePotential):
        schrodinger_fractional_spectrum(V, FracOrder(0.5), 2)


def test_schrodinger_power_consistency():
    # the same A underlies every power: (lambda^{1/2})^2 = (lambda^{1/4})^4,
    # and the eigenvectors agree up to sign
    V = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[], cos_coeffs=[1.0, 1.0])
    N = 16
    half = schrodinger_fractional_spectrum(V, FracOrder(0.5), 5, N=N)
    quarter = schrodinger_fractional_spectrum(V, FracOrder(0.25), 5, N=N)
    for (lh, _), (lq, _) in zip(half, quarter):
        assert abs(lh**2 - lq**4) < 1e-10
    # the ground state is simple: its eigenvector is shared up to sign
    x = np.linspace(0.0, TWO_PI, 4 * N, endpoint=False)
    vh, vq = half[0][1](x), quarter[0][1](x)
    overlap = abs(float(vh @ vq)) / math.sqrt(float((vh @ vh) * (vq @ vq)))
    assert overlap > 1.0 - 1e-10
