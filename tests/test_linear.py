"""Galerkin operator assembly and the three solvability regimes:
coercive shift, Fredholm alternative, eigenvalue sets."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fracperiodic import linear
from fracperiodic.errors import NegativePotential, NotCoercive, SolvabilityViolation
from fracperiodic.linear import (
    KERNEL_RTOL,
    GalerkinOperator,
    _galerkin_matrix,
    _leading_solve,
    _lowest_eigh,
    eigenvalue_set,
    function_to_coords,
    schrodinger_fractional_spectrum,
    solve_coercive,
    solve_fredholm,
)
from fracperiodic.spectral import FracOrder, PeriodicFunction, frac_laplacian, gram

TWO_PI = 2.0 * math.pi


def zero_k(T=TWO_PI):
    return PeriodicFunction.constant(T, 0.0)


def make_op(s=0.5, T=TWO_PI, N=16, k=None):
    return GalerkinOperator(frac=FracOrder(s), T=T, N=N, k=k or zero_k(T))


def test_coefficient_of_another_period_is_rejected():
    with pytest.raises(ValueError, match="coefficient k must have period T"):
        GalerkinOperator(frac=FracOrder(0.5), T=TWO_PI, N=8, k=zero_k(8.0))


def test_apply_is_the_fractional_laplacian_at_k_zero():
    rng = np.random.default_rng(3)
    T, N = 5.0, 12
    u = PeriodicFunction.from_modes(T, sin_coeffs=rng.normal(size=N), cos_coeffs=rng.normal(size=N + 1))
    for s in (0.3, 0.5, 0.8):
        got, ref = make_op(s=s, T=T, N=N).apply(u), frac_laplacian(u, FracOrder(s))
        assert got.T == T and got.N == N
        assert np.allclose(got.sin_coeffs, ref.sin_coeffs, rtol=1e-12, atol=1e-12)
        assert np.allclose(got.cos_coeffs, ref.cos_coeffs, rtol=1e-12, atol=1e-12)


def test_apply_is_the_matrix_product():
    rng = np.random.default_rng(4)
    T, N = 7.0, 10
    k = PeriodicFunction.from_modes(T, sin_coeffs=0.3 * rng.normal(size=3), cos_coeffs=[1.0, 0.2, -0.4, 0.1])
    op = make_op(s=0.6, T=T, N=N, k=k)
    u = PeriodicFunction.from_modes(T, sin_coeffs=rng.normal(size=N + 3), cos_coeffs=rng.normal(size=N + 4))
    got = function_to_coords(op.apply(u), N)
    assert np.allclose(got, op.matrix @ function_to_coords(u, N), rtol=0, atol=1e-13)


# -- assembly ----------------------------------------------------------------


def dense_galerkin(T, N, lam, k):
    """Orthonormal-basis Galerkin matrix by the dense quadrature product
    E^T diag(k w) E on the 4(N+1)-point grid, with E the sampled basis."""
    M = 4 * (N + 1)
    x = np.arange(M) * (T / M)
    E = np.empty((M, 2 * N + 1))
    E[:, 0] = 1.0 / math.sqrt(T)
    phase = np.multiply.outer(x, (2.0 * math.pi / T) * np.arange(1, N + 1))
    E[:, 1::2] = math.sqrt(2.0 / T) * np.cos(phase)
    E[:, 2::2] = math.sqrt(2.0 / T) * np.sin(phase)
    A = E.T @ ((k(x) * (T / M))[:, None] * E)
    A[np.arange(1, 2 * N + 1), np.arange(1, 2 * N + 1)] += np.repeat(lam, 2)
    return A


@pytest.mark.parametrize("N", [16, 300])
def test_matrix_matches_dense_quadrature(N):
    rng = np.random.default_rng(N)
    T = 7.3
    k = PeriodicFunction(T=T, sin_coeffs=rng.standard_normal(N) / (1.0 + np.arange(N)) ** 2,
                         cos_coeffs=rng.standard_normal(N + 1) / (1.0 + np.arange(N + 1)) ** 2)
    op = make_op(s=0.37, T=T, N=N, k=k)
    ref = dense_galerkin(T, N, (2.0 * math.pi / T * np.arange(1, N + 1)) ** 0.74, k)
    assert np.max(np.abs(op.matrix - ref)) <= 1e-12 * np.max(np.abs(ref))


def band(A, w=None):
    """The lower band L[d, i] = A[i + d, i] of the dense symmetric A, of width w
    (2N, the whole matrix, by default), zero past the last row."""
    w = len(A) - 1 if w is None else w
    return np.array([np.pad(np.diagonal(A, -d), (0, d)) for d in range(w + 1)])


def dense(L):
    """The dense symmetric matrix of the lower band L, one diagonal at a time."""
    n = L.shape[1]
    return sum(np.diag(L[d, : n - d], -d) + (np.diag(L[d, : n - d], d) if d else 0.0) for d in range(len(L)))


def dense_fill(T, N, lam, k):
    """(A, w): the Galerkin matrix filled densely, one sub-diagonal at a time, and
    its band width w = 2 min(deg k, 2N) + 1: the oracle of the band assembly."""
    n, K = 2 * N + 1, min(k.N, 2 * N)
    b, a = np.zeros(K + 2), np.zeros(K + 2)
    b[: K + 1], a[1 : K + 1] = 0.5 * k.cos_coeffs[: K + 1], 0.5 * k.sin_coeffs[:K]
    A = np.zeros((n, n))
    flat = A.reshape(-1)
    for d in range(1, min(2 * K + 1, n - 1) + 1):
        v = flat[d * n :: n + 1]
        v[1::2], v[2::2] = (a[d // 2], -a[d // 2 + 1]) if d % 2 else (b[d // 2],) * 2
        flat[d :: n + 1][: n - d] = v
    h = min(K, N)
    p = np.minimum(np.add.outer(np.arange(1, h + 1), np.arange(1, h + 1)), K + 1)
    H = np.array([[b[p], a[p]], [a[p], -b[p]]])
    A[1 : 2 * h + 1, 1 : 2 * h + 1] += H.transpose(2, 0, 3, 1).reshape(2 * h, 2 * h)
    A[0, 1 : 2 * h + 1] = math.sqrt(2.0) * np.stack((b[1 : h + 1], a[1 : h + 1]), axis=1).ravel()
    A[1:, 0] = A[0, 1:]
    flat[:: n + 1] += 2.0 * b[0]
    flat[n + 1 :: n + 1] += np.repeat(lam, 2)
    return A, 2 * K + 1


def loop_rows(A, w):
    """Row sums of |A| over its band, one diagonal at a time."""
    n, flat = A.shape[0], A.reshape(-1)
    rows = np.abs(A.diagonal())
    for d in range(1, min(w, n - 1) + 1):
        v = np.abs(flat[d * n :: n + 1])
        rows[d:] += v
        rows[:-d] += v
    return rows


@pytest.mark.parametrize("N", [0, 1, 16, 256])
def test_band_is_the_dense_fill_bit_for_bit(N):
    # every width, from the diagonal alone (deg k = 0) to the whole matrix (5N):
    # the band holds the dense fill's entries exactly, zero past the last row;
    # its row sums, of at most 2w + 1 terms >= 0, are the diagonal loop's up to
    # the round-off of summing them in another order
    rng = np.random.default_rng(N + 3)
    T = 7.3
    lam = (2.0 * math.pi / T * np.arange(1, N + 1)) ** 0.74
    for modes in (0, 2, 2 * N + 3, 5 * N):
        k = PeriodicFunction.from_modes(T, sin_coeffs=rng.standard_normal(modes),
                                        cos_coeffs=rng.standard_normal(modes + 1))
        L, (A, w) = _galerkin_matrix(T, N, lam, k), dense_fill(T, N, lam, k)
        assert L.shape == (min(w, 2 * N) + 1, 2 * N + 1)
        assert np.array_equal(L, band(A, len(L) - 1))
        ref = loop_rows(A, w)
        assert np.all(np.abs(linear._band_rows(L) - ref) <= 2 * (2 * len(L) - 1) * EPS * ref)


def reordered_gram(T, N, lam, k):
    """The matrix as first assembled: gram's full class fancy-indexed into
    [b_0, b_1, a_1, ...], rescaled to the orthonormal basis, symmetrized."""
    order = np.zeros(2 * N + 1, dtype=int)
    order[1::2] = np.arange(1, N + 1)
    order[2::2] = np.arange(N + 1, 2 * N + 1)
    A = gram("full", N, k.sample(4 * (N + 1)))[np.ix_(order, order)]
    A[0, 1:] *= math.sqrt(2.0)
    A[1:, 0] /= math.sqrt(2.0)
    diag = A.reshape(-1)[:: 2 * N + 2]
    diag[1::2] += lam
    diag[2::2] += lam
    return 0.5 * (A + A.T)


@pytest.mark.parametrize("N", [0, 1, 16, 256])
def test_matrix_matches_the_reordered_gram_within_a_few_ulp(N):
    # up to degree 2N + 3 the sampled route does not alias: the band fill
    # agrees with it to round-off of ||A||_max, or of the samples of k, at most
    # kappa = sum |coefficients|, when they are larger; it is zero off the band
    rng = np.random.default_rng(N + 1)
    T = 7.3
    lam = (2.0 * math.pi / T * np.arange(1, N + 1)) ** 0.74
    i, j = np.indices((2 * N + 1, 2 * N + 1))
    for modes in (0, 2, N + 3, 2 * N + 3):
        k = PeriodicFunction.from_modes(T, sin_coeffs=rng.standard_normal(modes),
                                        cos_coeffs=rng.standard_normal(modes + 1))
        L, ref = _galerkin_matrix(T, N, lam, k), reordered_gram(T, N, lam, k)
        w = len(L) - 1
        assert w == min(2 * min(modes, 2 * N) + 1, 2 * N)
        A = dense(L)
        assert A.flags.c_contiguous and np.array_equal(A, A.T)
        assert np.array_equal(L, band(A, w))   # zero past the last row
        kappa = np.sum(np.abs(k.cos_coeffs)) + np.sum(np.abs(k.sin_coeffs))
        assert np.max(np.abs(A - ref)) <= 8 * EPS * max(np.max(np.abs(ref)), kappa)
        assert not np.any(A[np.abs(i - j) > w])


@pytest.mark.parametrize("N", [1, 4, 16])
def test_matrix_is_the_leading_block_at_any_degree(N):
    # past degree 2N + 3 the modes of k that reach the matrix are still exact:
    # it is the leading block of the quadrature matrix at a truncation N' >= deg k
    rng = np.random.default_rng(N + 7)
    T = 7.3
    for modes in (2 * N + 4, 5 * N, 5 * N + 9):
        k = PeriodicFunction.from_modes(T, sin_coeffs=rng.standard_normal(modes),
                                        cos_coeffs=rng.standard_normal(modes + 1))
        lam = (2.0 * math.pi / T * np.arange(1, modes + 1)) ** 0.74
        ref = dense_galerkin(T, modes, lam, k)[: 2 * N + 1, : 2 * N + 1]
        A = dense(_galerkin_matrix(T, N, lam[:N], k))
        assert np.max(np.abs(A - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_matrix_symmetric():
    k = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.2], cos_coeffs=[0.1, 0.3])
    op = make_op(s=0.35, k=k)
    assert np.max(np.abs(op.matrix - op.matrix.T)) < 1e-12


def test_matrix_is_built_on_first_access_read_only_and_kept():
    op = make_op(N=8, k=PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.2], cos_coeffs=[1.0, 0.3]))
    assert "matrix" not in vars(op)   # the operator holds only its band
    A = op.matrix
    assert op.matrix is A and not A.flags.writeable
    assert np.array_equal(band(A, len(op._band) - 1), op._band)


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


@pytest.mark.parametrize("scale", [1.0, 1e-14, 1e-20])
def test_coercive_solve_keeps_small_cosine_solutions(scale):
    # (L + 1 + 1/2) u = g with L = 1 on mode 1: b_1 = 0.4 g_1 at every scale;
    # a solution is odd only when its cosine part is round-off of its largest entry
    op = make_op(s=0.5, N=8, k=PeriodicFunction.constant(TWO_PI, 1.0))
    g = PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[0.0, scale])
    res = solve_coercive(op, 0.5, g)
    assert not res.u.odd
    assert abs(res.u.cos_coeffs[1] - 0.4 * scale) <= 1e-12 * 0.4 * scale
    assert abs(res.stability_constant - 0.4) <= 1e-12
    odd = solve_coercive(op, 0.5, PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.0, scale])).u
    assert odd.odd and not np.any(odd.cos_coeffs)


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


def test_operator_and_coercive_solve_reject_bad_n_and_mu():
    # N = -1 reached numpy's "negative dimensions are not allowed"; mu = inf
    # returned a NaN residual and mu = nan was reported as not coercive
    with pytest.raises(ValueError, match="N must be nonnegative"):
        make_op(N=-1)
    for mu in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="mu must be finite"):
            solve_coercive(make_op(), mu, zero_k())


@pytest.mark.parametrize("N", [2.5, 8.0, "8"])
def test_operator_rejects_a_non_integer_n(N):
    # N = 2.5 failed inside PeriodicFunction.sample with numpy's TypeError
    with pytest.raises(ValueError, match="N must be nonnegative and an integer"):
        make_op(N=N)


@pytest.mark.parametrize("N", [True, -3, 2.5, 8.0, "8", math.nan])
def test_operator_and_schrodinger_share_one_check_of_n(N):
    # N = True was accepted as N = 1; in the Schrodinger spectrum N = 16.5
    # failed deep inside with numpy's TypeError, and N = -3 was reported as
    # "count exceeds the Galerkin dimension"
    with pytest.raises(ValueError, match="truncation N must be nonnegative and an integer"):
        make_op(N=N)
    with pytest.raises(ValueError, match="truncation N must be nonnegative and an integer"):
        schrodinger_fractional_spectrum(PeriodicFunction.constant(TWO_PI, 1.0), FracOrder(0.5), 1, N=N)


@pytest.mark.parametrize("count", [True, 2.5, 8.5, 8.0, math.nan, -1, 34])
def test_eigenvalue_set_and_schrodinger_share_one_check_of_count(count):
    # 8.5 and nan failed with "slice indices must be integers", 2.5 with an
    # IndexError in the Schrodinger spectrum, and True was read as 1
    with pytest.raises(ValueError, match="count"):
        eigenvalue_set(make_op(N=16), count)
    with pytest.raises(ValueError, match="count"):
        schrodinger_fractional_spectrum(PeriodicFunction.constant(TWO_PI, 1.0), FracOrder(0.5), count, N=16)


def test_schrodinger_takes_n_zero_as_given():
    # N = 0 became max(V.N, 16) through `N or ...`: it is the one-mode
    # truncation, whose only eigenvalue is the mean of V
    V = PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[1.5, 0.25])
    (lam, v), = schrodinger_fractional_spectrum(V, FracOrder(0.5), 1, N=0)
    assert lam == 1.5**0.5 and v.N == 0
    with pytest.raises(ValueError, match="count"):
        schrodinger_fractional_spectrum(V, FracOrder(0.5), 2, N=0)
    assert len(schrodinger_fractional_spectrum(V, FracOrder(0.5), 33, N=None)) == 33   # N = 16


def test_certify_linear_path_holds_no_dense_matrix():
    # perfbench's certify config: the operator at N = 256, eigenvalue_set(op, 8),
    # both solves and the Schrodinger spectrum trace at most 1 MiB at their peak;
    # one dense 513 x 513 matrix alone is 2 MiB
    rng = np.random.default_rng(0)
    k = low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5)
    g = low_mode_potential(rng, TWO_PI, 3, 1.0, 0.0)
    tracemalloc.start()
    try:
        op = make_op(s=0.45, N=256, k=k)
        assert len(eigenvalue_set(op, 8)) == 8
        solve_coercive(op, 0.5, g)
        assert solve_fredholm(op, g).unique
        schrodinger_fractional_spectrum(k, FracOrder(0.45), 8, N=256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_matrix_row_sums_are_taken_once(monkeypatch):
    # ||A||_inf, the eigensolve tolerance and the solve certificate all read
    # the row sums of |A|: taken once per matrix, from its band, with no
    # pass over an array the size of the whole matrix
    op = make_op(N=64, k=low_mode_potential(np.random.default_rng(2), TWO_PI, 2, 0.25, 1.5))
    g = low_mode_potential(np.random.default_rng(3), TWO_PI, 3, 1.0, 0.5)
    passes, sums = [], []
    absolute, band_rows = np.abs, linear._band_rows

    def counted(a, *args, **kwargs):
        if np.size(a) >= (2 * op.N + 1) ** 2:
            passes.append(None)
        return absolute(a, *args, **kwargs)

    def summed(L):
        sums.append(len(L) - 1)
        return band_rows(L)

    monkeypatch.setattr(np, "abs", counted)
    monkeypatch.setattr(linear, "_band_rows", summed)
    eigenvalue_set(op, 8)
    solve_coercive(op, 0.5, g)
    solve_fredholm(op, g)
    schrodinger_fractional_spectrum(op.k, FracOrder(0.5), 8, N=64)
    assert not passes and sums == [5, 5]


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


@pytest.mark.parametrize("kernel_dim, k0, k1", [(0, 1.0, 0.0), (1, 0.0, 0.0), (2, -1.0, 0.0), (2, -3.0, 0.0),
                                                (0, -50.0, 1.0)],
                         ids=["0", "1", "2", "interior", "full_fallback"])
def test_fredholm_matches_svd_route(kernel_dim, k0, k1):
    # k = 0: constants; k = -1 at s = 1/2: cos x, sin x (eigenvalue m - 1 = 0);
    # k = 1: no kernel; k = -lambda_3 = -3: cos 3x, sin 3x, with five negative
    # eigenvalues below them; k = -50 + cos x: no kernel, but Weyl's count
    # reaches 2N + 1, so the low eigenblock is the full eigh
    rng = np.random.default_rng(kernel_dim)
    op = make_op(k=PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[k0, k1]))   # k = k0 + k1 cos x
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
    assert res.kernel.threshold == KERNEL_RTOL * np.max(np.sum(np.abs(A), axis=1))
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


def test_eigenvalue_set_rejects_negative_count():
    assert eigenvalue_set(make_op(), 0) == []
    with pytest.raises(ValueError, match="count"):
        eigenvalue_set(make_op(), -2)


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
    A = dense(_galerkin_matrix(TWO_PI, 16, np.arange(1, 17) ** 2.0, k))
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


def cos40_potential():
    """0.5 + 0.6 cos 40x, of min -0.1: the 8(N + 1) = 40 nodes of N = 4 all sit on its maxima."""
    return PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[0.5] + [0.0] * 39 + [0.6])


def test_schrodinger_sign_check_reads_every_mode_of_the_potential():
    with pytest.raises(NegativePotential):
        schrodinger_fractional_spectrum(cos40_potential(), FracOrder(0.5), 3, N=4)
    # degree 1000 at N = 4: the check samples V by one FFT on its 8008 nodes; a
    # pointwise evaluation there holds 8008 x 1000 sin and cos tables, 64 MB each
    V = PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[0.5] + [0.0] * 999 + [0.6])
    tracemalloc.start()
    try:
        with pytest.raises(NegativePotential):
            schrodinger_fractional_spectrum(V, FracOrder(0.5), 3, N=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_schrodinger_accepts_a_potential_that_touches_zero_on_a_node():
    # 1 + cos x is 0 at the node x = pi of N = 4's 40; its FFT samples read -4e-17 there
    V = PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[1.0, 1.0])
    assert schrodinger_fractional_spectrum(V, FracOrder(0.5), 1, N=4)[0][0] >= 0.0


def test_coercivity_shift_reads_every_mode_of_the_coefficient():
    # gamma = max(0, -min k) + 0.1 = 0.2 up to the grid's miss of the minimum; it read 0.1
    assert abs(make_op(N=4, k=cos40_potential()).gamma - 0.2) <= 0.01


def test_schrodinger_negative_potential_rejected():
    V = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[], cos_coeffs=[0.0, 1.0])
    with pytest.raises(NegativePotential):
        schrodinger_fractional_spectrum(V, FracOrder(0.5), 2)


@pytest.mark.parametrize("count", [-2, 34, 40])
def test_schrodinger_rejects_count_off_the_basis(count):
    # count was clamped at 0 from below and cut at 2N + 1 = 33 from above
    V = PeriodicFunction.constant(TWO_PI, 1.0)
    with pytest.raises(ValueError, match="count"):
        schrodinger_fractional_spectrum(V, FracOrder(0.5), count, N=16)


def test_schrodinger_count_bounds_included():
    V = PeriodicFunction.constant(TWO_PI, 1.0)
    assert schrodinger_fractional_spectrum(V, FracOrder(0.5), 0, N=16) == []
    assert len(schrodinger_fractional_spectrum(V, FracOrder(0.5), 33, N=16)) == 33


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


def test_dense_kernels_match_scipy():
    from scipy.linalg import cho_factor, cho_solve, eigh

    rng = np.random.default_rng(11)
    k = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=rng.uniform(-0.5, 0.5, 4),
                                    cos_coeffs=rng.uniform(-0.5, 0.5, 5))
    op = make_op(s=0.4, N=24, k=k)
    ref = eigh(op.matrix, eigvals_only=True, subset_by_index=[0, 5])
    got = np.array([lam for lam, _ in eigenvalue_set(op, 6)])
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    g = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=rng.uniform(-1, 1, 6),
                                    cos_coeffs=rng.uniform(-1, 1, 7))
    mu = op.gamma
    gc = function_to_coords(g, op.N)
    want = cho_solve(cho_factor(op.matrix + mu * np.eye(op.matrix.shape[0])), gc)
    uc = function_to_coords(solve_coercive(op, mu, g).u, op.N)
    assert np.linalg.norm(uc - want) <= 1e-12 * np.linalg.norm(want)


def test_solves_reject_data_of_another_period():
    # g's coefficients used to be read as if g had the operator's period
    k = PeriodicFunction.from_modes(6.0, sin_coeffs=[0.1], cos_coeffs=[1.5, 0.2])
    op = GalerkinOperator(frac=FracOrder(0.5), T=6.0, N=16, k=k)
    g = PeriodicFunction.from_modes(9.0, sin_coeffs=[1.0], cos_coeffs=[0.0, 0.3])
    with pytest.raises(ValueError, match="period"):
        solve_coercive(op, 1.0, g)
    with pytest.raises(ValueError, match="period"):
        solve_fredholm(op, g)


# -- certified leading-block eigensolve ----------------------------------------

EPS = np.finfo(float).eps


def schrodinger_matrix(V, N):
    return dense(_galerkin_matrix(V.T, N, (2.0 * math.pi / V.T * np.arange(1, N + 1)) ** 2, V))


def low_mode_potential(rng, T, modes, scale, const):
    return PeriodicFunction.from_modes(T, sin_coeffs=rng.uniform(-scale, scale, modes),
                                       cos_coeffs=np.concatenate(([const], rng.uniform(-scale, scale, modes))))


def block_rows(Q):
    """Rows up to the last nonzero one: the dimension of the certified block."""
    return 1 + int(np.flatnonzero(np.any(Q, axis=1))[-1])


def is_full_eigh(A, count, w, Q):
    wf, Qf = np.linalg.eigh(A)
    return np.array_equal(w, wf[:count]) and np.array_equal(Q, Qf[:, :count])


def test_lowest_eigh_matches_scipy_subset():
    from scipy.linalg import eigh

    rng = np.random.default_rng(5)
    for N, count in ((64, 1), (64, 9), (256, 9), (256, 21)):   # no cos/sin pair is cut
        A = schrodinger_matrix(low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5), N)
        w, Q = _lowest_eigh(band(A), count)
        assert block_rows(Q) < 2 * N + 1   # a leading block was certified
        ref, R = eigh(A, subset_by_index=[0, count - 1])
        assert np.max(np.abs(w - ref)) <= 1e-11 * max(1.0, float(np.max(np.abs(ref))))
        # the spans agree, whatever the basis inside a near-degenerate pair
        assert np.linalg.norm(Q - R @ (R.T @ Q), 2) <= 1e-8


def test_lowest_eigh_cuts_below_a_near_degenerate_pair():
    # V = 1.5 + two low modes of size 0.25 at N = 256: cos 4 and sin 4 are the
    # 8th and 9th eigenvectors and split far below the certificate's margin,
    # so only a cut at c = 9 or above certifies count = 8
    rng = np.random.default_rng(0)
    A = schrodinger_matrix(low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5), 256)
    wf, Qf = np.linalg.eigh(A)
    assert wf[8] - wf[7] < 1e-6
    for count in (8, 9):
        w, Q = _lowest_eigh(band(A), count)
        assert block_rows(Q) == {8: 33, 9: 37}[count]   # p = 16 or 18: modes <= p suffice
        assert np.max(np.abs(w - wf[:count])) <= 1e-11 * max(1.0, float(wf[count - 1]))
        r = np.linalg.norm(A @ Q - Q * w, axis=0)
        assert r.max() <= EPS * np.max(np.sum(np.abs(A), axis=1))
    # the pair spans the plane of the full eigh's pair: the sine of the
    # largest principal angle is at most 1e-8
    pair, ref = Q[:, 7:9], Qf[:, 7:9]
    assert np.linalg.norm(pair - ref @ (ref.T @ pair), 2) <= 1e-8


def test_lowest_eigh_falls_back_to_the_full_eigh_bit_for_bit():
    rng = np.random.default_rng(2)
    for N in (16, 64):
        A = schrodinger_matrix(low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5), N)
        assert is_full_eigh(A, 2 * N + 1, *_lowest_eigh(band(A), 2 * N + 1))
        # a potential with modes up to N couples the lowest modes to every block
        V = low_mode_potential(rng, TWO_PI, N, 0.3, 2.0 * N)
        A = schrodinger_matrix(V, N)
        assert is_full_eigh(A, 8, *_lowest_eigh(band(A), 8))


def test_lowest_eigh_does_not_miss_an_eigenvalue_outside_the_block():
    # B = 0 makes every Ritz residual zero, but the last diagonal entry is
    # the second-lowest eigenvalue: the Gershgorin bound of C rules out every cut
    A = np.diag(np.arange(1.0, 66.0))
    A[-1, -1] = 1.5
    w, Q = _lowest_eigh(band(A), 2)
    assert np.array_equal(w, [1.0, 1.5])
    assert is_full_eigh(A, 2, w, Q)


def test_lowest_eigh_does_not_keep_a_ritz_value_above_a_coupled_eigenvalue():
    # A[1, 17] = 5 couples the second mode of the p = 8 block to the first
    # mode outside it: the first Ritz vector has zero residual, and a cut at
    # c = 2 passes the inertia test, but A's lowest eigenvalue is near 0.748,
    # below the Ritz value 1; the second Ritz vector's residual of 5 rules the cut out
    A = np.diag(np.concatenate(([1.0, 1.0000001], np.arange(10.0, 25.0), np.arange(100.0, 123.0))))
    A[1, 17] = A[17, 1] = 5.0
    wf = np.linalg.eigvalsh(A)
    assert wf[0] < 0.75
    w, Q = _lowest_eigh(band(A), 1)
    assert abs(w[0] - wf[0]) <= 1e-13
    assert np.linalg.norm(A @ Q - Q * w) <= EPS * np.max(np.sum(np.abs(A), axis=1))


def test_schrodinger_spectrum_sweep_against_the_full_eigh():
    # random low-mode V >= 0: eigenvalues as from the full eigh, every block
    # pair's residual in the full matrix at most eps ||A||_inf, and every
    # fallback bit-identical to the full eigh
    rng = np.random.default_rng(17)
    for trial in range(9):
        N = (16, 64, 256)[trial % 3]
        T = float(rng.uniform(3.0, 12.0))
        V = low_mode_potential(rng, T, int(rng.integers(1, 5)), 0.3, float(rng.uniform(1.3, 3.0)))
        A = schrodinger_matrix(V, N)
        assert np.min(V(np.linspace(0.0, T, 8 * (N + 1), endpoint=False))) >= 0.0
        wf = np.linalg.eigvalsh(A)
        tol = EPS * np.max(np.sum(np.abs(A), axis=1))
        for count in (0, 1, 8, 2 * N + 1):
            w, Q = _lowest_eigh(band(A), count)
            assert w.shape == (count,) and Q.shape == (2 * N + 1, count)
            assert np.all(np.abs(w - wf[:count]) <= 1e-11 * np.maximum(1.0, np.abs(wf[:count])))
            if count and not is_full_eigh(A, count, w, Q):
                assert np.linalg.norm(A @ Q - Q * w, axis=0).max() <= tol
            s = float(rng.uniform(0.2, 0.8))
            pairs = schrodinger_fractional_spectrum(V, FracOrder(s), count, N=N)
            assert [lam for lam, _ in pairs] == [float(lam**s) for lam in np.clip(w, 0.0, None)]


# -- certified leading-block solve ---------------------------------------------


def backward_error(M, x, b):
    return np.linalg.norm(M @ x - b) / (np.max(np.sum(np.abs(M), axis=1)) * np.linalg.norm(x) + np.linalg.norm(b))


@pytest.mark.parametrize("N", [16, 64, 256])
def test_leading_solve_matches_scipy(N):
    from scipy.linalg import solve

    rng = np.random.default_rng(N)
    blocks = set()
    for _ in range(4):
        T = float(rng.uniform(3.0, 12.0))
        op = make_op(s=float(rng.uniform(0.2, 0.8)), T=T, N=N,
                     k=low_mode_potential(rng, T, 2, 0.3, float(rng.uniform(-0.5, 2.0))))
        b = function_to_coords(low_mode_potential(rng, T, 3, 1.0, float(rng.uniform(-1.0, 1.0))), N)
        for shift in (0.0, op.gamma + float(rng.uniform(0.0, 1.0))):
            M = op.matrix + shift * np.eye(2 * N + 1)
            x, r = _leading_solve(op._band, shift, b)
            ref = solve(M, b)
            assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            assert backward_error(M, x, b) <= EPS
            # the residual it returns, read on the block's rows of the band, is the dense one's
            scale = np.max(np.sum(np.abs(M), axis=1)) * np.linalg.norm(x) + np.linalg.norm(b)
            assert abs(r - np.linalg.norm(M @ x - b)) <= 16 * EPS * scale
            blocks.add(block_rows(x[:, None]))
    if N > 16:   # at N = 16 the one block below 2N + 1, of modes <= 8, does not suffice for these k
        assert min(blocks) < 2 * N + 1


def test_leading_solve_falls_back_to_the_full_solve_bit_for_bit():
    rng = np.random.default_rng(8)
    for N in (16, 64, 256):
        op = make_op(s=0.45, N=N, k=low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5))
        b = function_to_coords(low_mode_potential(rng, TWO_PI, 3, 1.0, 0.2), N)
        b[-1] = 0.5   # a mode at N: no leading block holds b
        for shift in (0.0, 0.7):
            want = np.linalg.solve(op.matrix + shift * np.eye(2 * N + 1), b)
            x, r = _leading_solve(op._band, shift, b)
            assert np.array_equal(x, want)
            assert r == np.linalg.norm(op.matrix @ want + shift * want - b)


def test_linear_solves_run_no_full_eigh_at_the_certify_config(monkeypatch):
    # perfbench's certify workload: N = 256, k = 1.5 + two low modes of size
    # 0.25, g with three low modes; only leading blocks of the Galerkin
    # matrix are diagonalized or factored
    shapes = []

    def recording(f):
        def call(a, *args, **kwargs):
            shapes.append((f.__name__, np.shape(a)))
            return f(a, *args, **kwargs)
        return call

    monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "solve", recording(np.linalg.solve))
    rng = np.random.default_rng(0)
    N = 256
    for _ in range(3):
        op = make_op(s=float(rng.uniform(0.3, 0.7)), N=N, k=low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5))
        g = low_mode_potential(rng, TWO_PI, 3, 1.0, float(rng.uniform(-1.0, 1.0)))
        assert len(eigenvalue_set(op, 8)) == 8
        solve_coercive(op, float(rng.uniform(0.4, 0.6)), g)
        assert solve_fredholm(op, g).unique
    assert {name for name, _ in shapes} == {"eigh", "solve"}
    assert all(shape[0] < 2 * N + 1 for _, shape in shapes)


def test_one_operator_climbs_the_block_ladder_once(monkeypatch):
    # at the certify config, eigenvalue_set(op, 8), the coercivity test and
    # the Fredholm kernel all read the pairs of one ladder: every block size
    # is diagonalized once, in increasing order
    sizes = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        sizes.append(np.shape(a)[0])
        return eigh(a, *args, **kwargs)

    rng = np.random.default_rng(0)
    op = make_op(s=float(rng.uniform(0.3, 0.7)), N=256, k=low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5))
    g = low_mode_potential(rng, TWO_PI, 3, 1.0, float(rng.uniform(-1.0, 1.0)))
    monkeypatch.setattr(np.linalg, "eigh", recording)
    assert len(eigenvalue_set(op, 8)) == 8
    solve_coercive(op, float(rng.uniform(0.4, 0.6)), g)
    assert solve_fredholm(op, g).unique
    assert sizes and sizes == sorted(set(sizes)) and sizes[0] == 17


def test_lowest_eigh_is_the_same_with_the_row_sums_supplied():
    # off the band of V's two modes nearly every entry of the sampled route's
    # matrix is nonzero round-off, which the trailing bound must read, from
    # the row sums or from C itself
    rng = np.random.default_rng(6)
    for N, count in ((64, 3), (64, 9), (256, 8), (256, 21)):
        A = reordered_gram(TWO_PI, N, np.arange(1, N + 1) ** 2.0, low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5))
        i, j = np.indices(A.shape)
        assert np.count_nonzero(A[np.abs(i - j) > 8]) > 0.99 * np.count_nonzero(np.abs(i - j) > 8)
        rows = np.sum(np.abs(A), axis=1)
        w, Q = _lowest_eigh(band(A), count, rows)
        assert block_rows(Q) < 2 * N + 1
        w0, Q0 = _lowest_eigh(band(A), count)
        assert np.array_equal(w, w0) and np.array_equal(Q, Q0)


def test_lowest_eigh_does_not_miss_an_eigenvalue_outside_the_block_with_row_sums():
    A = np.diag(np.arange(1.0, 66.0))
    A[-1, -1] = 1.5
    w, Q = _lowest_eigh(band(A), 2, np.sum(np.abs(A), axis=1))
    assert np.array_equal(w, [1.0, 1.5])
    assert is_full_eigh(A, 2, w, Q)


def test_eigenvalues_do_not_alias_a_coefficient_of_high_degree():
    # k = 1.5 + 0.5 cos 20x at N = 4 couples no two basis modes: the
    # eigenvalues are 1.5 + (0, 1, 1, 2, 2, ...) at s = 1/2
    k = PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[1.5] + [0.0] * 19 + [0.5])
    assert [lam for lam, _ in eigenvalue_set(make_op(N=4, k=k), 3)] == [1.5, 2.5, 2.5]
    # in general the pairs are those of the leading block at a truncation N' >= deg k
    rng = np.random.default_rng(12)
    N, s = 8, 0.45
    for modes in (2 * N + 3, 2 * N + 4, 5 * N):
        k = low_mode_potential(rng, TWO_PI, modes, 0.25 / modes, 1.5)   # k >= 1 > 0
        big = make_op(s=s, N=modes, k=k).matrix[: 2 * N + 1, : 2 * N + 1]
        got = [lam for lam, _ in eigenvalue_set(make_op(s=s, N=N, k=k), 2 * N + 1)]
        ref = np.linalg.eigvalsh(big)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        ref = np.linalg.eigvalsh(schrodinger_matrix(k, modes)[: 2 * N + 1, : 2 * N + 1]) ** s
        got = [lam for lam, _ in schrodinger_fractional_spectrum(k, FracOrder(s), 2 * N + 1, N=N)]
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_band_trimmed_ladder_makes_the_cuts_of_the_untrimmed_one():
    # random symmetric matrices of band width w on a growing diagonal: the
    # ladder that reads only B's w x w corner certifies the same cuts
    rng = np.random.default_rng(21)
    cuts = []
    for trial in range(24):
        n, w = int(rng.choice([65, 129, 257])), int(rng.integers(1, 12))
        A = np.diag(np.sort(rng.uniform(0.0, 4.0, n)) + np.arange(n) ** 1.2)
        for d in range(1, w + 1):
            v = rng.uniform(-0.3, 0.3, n - d) * (rng.random(n - d) < 0.7)
            A[np.arange(d, n), np.arange(n - d)] = A[np.arange(n - d), np.arange(d, n)] = v
        rows = np.sum(np.abs(A), axis=1)
        for count in (1, 5, 17):
            wb, Qb = linear._certified_pairs(band(A, w), count, rows)
            wd, Qd = linear._certified_pairs(band(A), count, rows)
            assert len(wb) == len(wd)
            assert np.max(np.abs(wb - wd)) <= 1e-13 * np.max(np.abs(wd))
            assert np.max(np.abs(np.abs(Qb.T @ Qd) - np.eye(len(wd)))) <= 1e-12
            cuts.append(len(wd) < n)
    assert sum(cuts) > 0.75 * len(cuts)   # most ladders stop at a leading block


def test_pairs_served_from_the_operator_agree_with_a_fresh_ladder_to_the_certificate():
    # count 20 leaves the pairs of a block with p >= 20; count 3 is served
    # from them (a fresh ladder starts at p = 8), and count 40 climbs again
    rng = np.random.default_rng(9)
    k = low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5)
    op = make_op(s=0.45, N=256, k=k)
    A = op.matrix
    tol = EPS * np.max(np.sum(np.abs(A), axis=1))
    for count in (20, 3, 40):
        pairs = eigenvalue_set(op, count)
        w = np.array([lam for lam, _ in pairs])
        Q = np.stack([function_to_coords(v, op.N) for _, v in pairs], axis=1)
        assert np.linalg.norm(A @ Q - Q * w, axis=0).max() <= tol
        fresh = np.array([lam for lam, _ in eigenvalue_set(make_op(s=0.45, N=256, k=k), count)])
        assert np.all(np.abs(w - fresh) <= 1e-13 * np.maximum(1.0, np.abs(fresh)))
    # k = 0.3 cos x shifted by its sixth eigenvalue has a one-dimensional kernel
    c = eigenvalue_set(make_op(N=64, k=PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[0.0, 0.3])), 6)[5][0]
    k = PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[-c, 0.3])
    zero = PeriodicFunction.from_modes(TWO_PI, cos_coeffs=[0.0])
    op = make_op(N=64, k=k)
    eigenvalue_set(op, 30)
    served, fresh = solve_fredholm(op, zero).kernel, solve_fredholm(make_op(N=64, k=k), zero).kernel
    assert served.dim == fresh.dim == 1
    Z, Zf = (np.stack([function_to_coords(v, 64) for v in b.vectors], axis=1) for b in (served, fresh))
    assert np.linalg.norm(Z - Zf @ (Zf.T @ Z), 2) <= 1e-8


def test_the_solve_reads_the_leading_blocks_of_the_eigen_ladder(monkeypatch):
    # at N = 32 with a degree-2 k neither the 17- nor the 33-row leading block certifies:
    # the eigen-ladder builds the blocks of 22 and 38 rows (B's corner included) and the
    # full 65 rows, and the solve reads the first two back, with the bits of a solve that
    # builds its own
    rng = np.random.default_rng(0)
    op = make_op(s=0.45, N=32, k=low_mode_potential(rng, TWO_PI, 2, 0.25, 1.5))
    g = low_mode_potential(rng, TWO_PI, 3, 1.0, 0.0)
    eigenvalue_set(op, 4)
    kept = dict(op._blocks)
    assert sorted(kept) == [22, 38]
    built = []
    leading = linear._leading

    def counted(L, m, blocks=None):
        if blocks is None or m not in blocks:
            built.append(m)
        return leading(L, m, blocks)

    monkeypatch.setattr(linear, "_leading", counted)
    sol = solve_coercive(op, 0.5, g)
    monkeypatch.undo()
    assert built == [65] and all(op._blocks[m] is kept[m] for m in kept)
    alone, res = linear._leading_solve(op._band, 0.5, linear.function_to_coords(g, op.N))
    ref = linear.coords_to_function(op.T, alone)
    assert np.array_equal(sol.u.sin_coeffs, ref.sin_coeffs) and np.array_equal(sol.u.cos_coeffs, ref.cos_coeffs)
    assert sol.residual == res
