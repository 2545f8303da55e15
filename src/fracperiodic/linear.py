"""Galerkin realization of L = (-d_xx)^s + k(x) on the periodic Fourier
basis, with the coercive solve, Fredholm alternative and eigenvalue set.

The matrix acts on coordinates in the orthonormal basis
{1/sqrt(T), sqrt(2/T) cos(w m x), sqrt(2/T) sin(w m x)} so that the L^2
inner product is the Euclidean dot product of coordinate vectors.  Solves and
eigenpairs come from certified leading blocks unless a certificate fails.
"""

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NegativePotential, NotCoercive, SolvabilityViolation
from .spectral import FracOrder, PeriodicFunction

__all__ = [
    "GalerkinOperator",
    "KernelBasis",
    "CoerciveSolve",
    "FredholmSolve",
    "solve_coercive",
    "solve_fredholm",
    "eigenvalue_set",
    "schrodinger_fractional_spectrum",
]

KERNEL_RTOL = 1e-9        # eigenvalues below this times ||A||_inf in modulus span the kernel
COERCIVITY_MARGIN = 0.1   # gamma = max(0, -min k) + margin
ORTH_TOL = 1e-9           # Fredholm data may have a kernel component up to this (relative)


def _galerkin_matrix(T, N, lam, k):
    """diag(lam) on the cos/sin pairs plus multiplication by k, symmetric, exact
    for every degree of k, filled only on its band, at O(N K) cost.

    With k = b_0 + sum b_j cos + a_j sin, in the order [b_0, b_1, a_1, ...], the
    block of modes m, n >= 1 is Toeplitz in q = m - n, [[b'_q, -a_q], [a_q, b'_q]]/2
    (b'_0 = 2 b_0, b'_q = b_q, a_-q = -a_q), plus Hankel in p = m + n,
    [[b_p, a_p], [a_p, -b_p]]/2 (Boyd, Chebyshev and Fourier Spectral Methods,
    2001, ch. 8); the mean row is (b_j, a_j)/sqrt(2).  Only modes j <= K =
    min(k.N, 2N) reach A, so A[i, j] = 0 once |i - j| > w = 2K + 1.  Returns (A, w).
    """
    n, K = 2 * N + 1, min(k.N, 2 * N)
    b, a = np.zeros(K + 2), np.zeros(K + 2)   # b_j / 2 and a_j / 2, zero at j = K + 1 (and a_0)
    b[: K + 1], a[1 : K + 1] = 0.5 * k.cos_coeffs[: K + 1], 0.5 * k.sin_coeffs[:K]
    A = np.empty((n, n))
    A.fill(0.0)   # 0.2-0.3 ms faster than np.zeros per certify linear_solve (2-core VM)
    flat = A.reshape(-1)
    for d in range(1, min(2 * K + 1, n - 1) + 1):
        v = flat[d * n :: n + 1]   # A[i, i - d], i = d..n-1; v[0] is the mean column, set below
        v[1::2], v[2::2] = (a[d // 2], -a[d // 2 + 1]) if d % 2 else (b[d // 2],) * 2   # rows sin_m, cos_m
        flat[d :: n + 1][: n - d] = v
    h = min(K, N)   # the Hankel part: modes m, n <= h, zero once m + n > K
    p = np.minimum(np.add.outer(np.arange(1, h + 1), np.arange(1, h + 1)), K + 1)
    H = np.array([[b[p], a[p]], [a[p], -b[p]]])   # H[cos/sin row, cos/sin column, m - 1, n - 1]
    A[1 : 2 * h + 1, 1 : 2 * h + 1] += H.transpose(2, 0, 3, 1).reshape(2 * h, 2 * h)
    A[0, 1 : 2 * h + 1] = math.sqrt(2.0) * np.stack((b[1 : h + 1], a[1 : h + 1]), axis=1).ravel()
    A[1:, 0] = A[0, 1:]
    flat[:: n + 1] += 2.0 * b[0]
    flat[n + 1 :: n + 1] += np.repeat(lam, 2)
    return A, 2 * K + 1


def _band_rows(A, w):
    """Row sums of |A|, A symmetric and zero once |i - j| > w."""
    n, flat = A.shape[0], A.reshape(-1)
    rows = np.abs(A.diagonal())
    for d in range(1, min(w, n - 1) + 1):
        v = np.abs(flat[d * n :: n + 1])
        rows[d:] += v
        rows[:-d] += v
    return rows


def coords_to_function(T, c):
    """Coordinate vector in the orthonormal basis -> PeriodicFunction; odd
    when every cosine coordinate is at most 1e-14 times the largest entry."""
    N = (c.shape[0] - 1) // 2
    b = np.empty(N + 1)
    a = np.empty(N)
    b[0] = c[0] / math.sqrt(T)
    b[1:] = c[1::2] * math.sqrt(2.0 / T)
    a[:] = c[2::2] * math.sqrt(2.0 / T)
    tiny = 1e-14 * np.max(np.abs(c))
    odd = bool(abs(c[0]) <= tiny and np.all(np.abs(c[1::2]) <= tiny))
    if odd:
        b = np.zeros_like(b)
    return PeriodicFunction(T=T, sin_coeffs=a, cos_coeffs=b, odd=odd)


def function_to_coords(u: PeriodicFunction, N):
    v = u.truncate(N)
    c = np.empty(2 * N + 1)
    c[0] = v.cos_coeffs[0] * math.sqrt(u.T)
    c[1::2] = v.cos_coeffs[1:] * math.sqrt(u.T / 2.0)
    c[2::2] = v.sin_coeffs * math.sqrt(u.T / 2.0)
    return c


@dataclass(frozen=True)
class GalerkinOperator:
    """Assembled symmetric matrix of (-d_xx)^s + k(x) in the trig basis, dense and read-only: exact
    for every degree of k, filled on its band at O(N K) cost; its row sums and certificates read the band."""

    frac: FracOrder
    T: float
    N: int
    k: PeriodicFunction
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.k.T != self.T:
            raise ValueError("coefficient k must have period T")
        if not isinstance(self.N, numbers.Integral) or self.N < 0:
            raise ValueError(f"truncation N must be nonnegative and an integer, got {self.N!r}")
        lam = (2.0 * math.pi / self.T * np.arange(1, self.N + 1)) ** (2.0 * self.frac.s)
        A, w = _galerkin_matrix(self.T, self.N, lam, self.k)
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "_width", w)   # A[i, j] = 0 once |i - j| > w
        object.__setattr__(self, "_symbol", lam)   # lambda_m on the pair of mode m, m = 1..N
        object.__setattr__(self, "_ladder", (lam[:0], A[:, :0]))   # (w, Q): every certified pair so far

    @cached_property
    def _rows(self):
        """Row sums of |A| from its band: every norm and bound of the matrix reads them."""
        return _band_rows(self.matrix, self._width)

    def _pairs(self, count):
        """The lowest `count` eigenpairs, from the last ladder's pairs, or a new ladder's."""
        if len(self._ladder[0]) < count:
            object.__setattr__(self, "_ladder", _certified_pairs(self.matrix, count, self._rows, self._width))
        return self._ladder[0][:count], self._ladder[1][:, :count]

    @cached_property
    def _low(self):
        """(w, Q, t): the lowest eigenpairs, shared by both solves, with every w <= t =
        KERNEL_RTOL ||A||_inf (Weyl: the i-th is >= D_i - kappa, D = (0, lambda_1, lambda_1,
        ...), kappa = sum |coefficients of k| >= sup |k| >= ||k-block||_2)."""
        t = KERNEL_RTOL * (float(np.max(self._rows)) or 1.0)
        kappa = float(np.sum(np.abs(self.k.cos_coeffs)) + np.sum(np.abs(self.k.sin_coeffs)))
        return (*self._pairs(1 + 2 * int(np.sum(self._symbol <= t + kappa))), t)

    @property
    def gamma(self):
        kmin = float(np.min(self.k.sample(8 * (max(self.N, self.k.N) + 1))))
        return max(0.0, -kmin) + COERCIVITY_MARGIN

    def apply(self, u: PeriodicFunction) -> PeriodicFunction:
        c = self.matrix @ function_to_coords(u, self.N)
        return coords_to_function(self.T, c)


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of the numerical kernel of an assembled operator."""

    vectors: tuple
    threshold: float

    @property
    def dim(self):
        return len(self.vectors)


@dataclass(frozen=True)
class CoerciveSolve:
    u: PeriodicFunction
    stability_constant: float
    residual: float


@dataclass(frozen=True)
class FredholmSolve:
    solution: PeriodicFunction
    kernel: KernelBasis

    @property
    def unique(self):
        return self.kernel.dim == 0


def solve_coercive(op: GalerkinOperator, mu: float, g: PeriodicFunction) -> CoerciveSolve:
    """Solve (L + mu) u = g; requires mu >= gamma so the shifted form is coercive.

    Raises NotCoercive unless the lowest eigenvalue w_0 of the matrix has
    w_0 + mu > 0; then u comes from _leading_solve, with a normwise backward
    error of at most eps when a leading block certifies it."""
    if not math.isfinite(mu):
        raise ValueError(f"shift mu must be finite, got {mu!r}")
    if g.T != op.T:
        raise ValueError(f"right-hand side g must have the operator's period {op.T!r}, got {g.T!r}")
    w0 = op._low[0][0]
    if not w0 + mu > 0.0:
        raise NotCoercive(f"L + mu is not positive definite (mu={mu:g}): lowest eigenvalue {w0 + mu:.3e}")
    gc = function_to_coords(g, op.N)
    uc = _leading_solve(op.matrix, mu, gc, op._rows)
    res = float(np.linalg.norm(op.matrix @ uc + mu * uc - gc))
    gn = float(np.linalg.norm(gc))
    u = coords_to_function(op.T, uc)
    stability = float(np.linalg.norm(uc)) / gn if gn > 0 else 0.0
    return CoerciveSolve(u=u, stability_constant=stability, residual=res)


def solve_fredholm(op: GalerkinOperator, g: PeriodicFunction) -> FredholmSolve:
    """Fredholm alternative for L u = g on the truncated basis.

    The kernel Z holds the eigenvectors with |w| < KERNEL_RTOL ||A||_inf.  With
    a trivial kernel the unique solution is returned.  Otherwise the data must
    satisfy <g, v> = 0 for every kernel vector (SolvabilityViolation if not);
    the minimal-norm solution, of (A + ||A||_inf Z Z^T) u = (I - Z Z^T) g, is
    returned together with the kernel basis.
    """
    if g.T != op.T:
        raise ValueError(f"right-hand side g must have the operator's period {op.T!r}, got {g.T!r}")
    w, Q, thresh = op._low
    Z = Q[:, np.abs(w) < thresh]
    gc = function_to_coords(g, op.N)
    kernel = KernelBasis(vectors=tuple(coords_to_function(op.T, v) for v in Z.T), threshold=thresh)
    A, rows = op.matrix, op._rows
    if kernel.dim:
        proj = Z.T @ gc
        worst = float(proj[np.argmax(np.abs(proj))])
        if abs(worst) > ORTH_TOL * max(1.0, float(np.linalg.norm(gc))):
            raise SolvabilityViolation(worst)
        A, gc = A + (thresh / KERNEL_RTOL) * (Z @ Z.T), gc - Z @ proj
        rows = None   # a new matrix: _leading_solve sums its rows
    return FredholmSolve(solution=coords_to_function(op.T, _leading_solve(A, 0.0, gc, rows)), kernel=kernel)


def _check_count(count, dim):
    if count > dim:
        raise ValueError("count exceeds the Galerkin dimension 2N+1")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count!r}")


def eigenvalue_set(op: GalerkinOperator, count: int):
    """Lowest `count` eigenpairs of the symmetric Galerkin matrix, nondecreasing."""
    _check_count(count, op.matrix.shape[0])
    w, Q = op._pairs(count)
    return [(float(lam), coords_to_function(op.T, v)) for lam, v in zip(w, Q.T)]


def _lowest_eigh(A, count, rows=None, width=None):
    """(w, Q): the lowest `count` eigenpairs of the symmetric A, w ascending;
    rows holds the row sums of |A|, and width a w' >= |i - j| at every A[i, j] != 0,
    when the caller has them.

    From the leading block P = A[:d, :d] (modes <= p, d = 2p+1; B = A[:d, d:],
    C = A[d:, d:]) when, at some cut c >= count with mu = (w[c-1] + w[c]) / 2 and
    tol = eps ||A||_inf, ||B^T Q[:, :c]||_F <= tol and w[c-1] + tol < mu (A has c
    eigenvalues within tol of w[:c]), and mu < g, the Gershgorin bound of C, with
    ||B||_F^2 / (g - mu) < w[c] - mu (inertia additivity: exactly c below mu); see
    Parlett, The Symmetric Eigenvalue Problem, ch. 10-11.  Otherwise the full eigh.
    The row sums of |C| are rows[d:] less the column sums of |B|: O(w'^2 d + n) per
    trial block past its eigh.  A GalerkinOperator keeps the pairs below its last ladder's highest
    certified cut for its eigenvalue sets, coercivity test and Fredholm kernel.
    """
    w, Q = _certified_pairs(A, count, rows, width)
    return w[:count], Q[:, :count]


def _certified_pairs(A, count, rows, width=None):
    """The ladder of _lowest_eigh: every pair below the highest certified cut, or all of them.
    The residuals, the Gershgorin bound and ||B||_F read only B's w' x w' corner, its nonzeros."""
    n = A.shape[0]
    rows = np.sum(np.abs(A), axis=1) if rows is None else rows
    width = n if width is None else width
    tol = np.finfo(float).eps * float(np.max(rows))
    p = max(8, count)
    while 2 * p + 1 < n:
        d = 2 * p + 1
        w, Q = np.linalg.eigh(A[:d, :d])
        B, diag, rc = A[max(0, d - width) : d, d : d + width], A.diagonal()[d:], rows[d:].copy()
        res = np.sqrt(np.cumsum(np.sum((B.T @ Q[d - len(B) :]) ** 2, axis=0)))   # res[c-1]: of Q[:, :c]
        rc[: B.shape[1]] -= np.sum(np.abs(B), axis=0)   # the row sums of |C|
        g = float(np.min(diag + np.abs(diag) - rc))
        c = np.arange(max(count, 1), d)   # the cuts
        mu = 0.5 * (w[c - 1] + w[c])
        c = c[(res[c - 1] <= tol) & (w[c - 1] + tol < mu) & (mu < g) & (np.sum(B * B) < (w[c] - mu) * (g - mu))]
        if len(c):
            return w[: c[-1]], np.vstack([Q[:, : c[-1]], np.zeros((n - d, c[-1]))])
        p *= 2
    return np.linalg.eigh(A)


def _leading_solve(A, shift, b, rows=None):
    """x with (A + shift) x = b, A symmetric, rows the row sums of |A| (summed here when None):
    from the leading block (modes <= p, p doubling from max(8, the highest mode of b)) when
    ||(A + shift) x - b||_2 <= eps (||A + shift||_inf ||x||_2 + ||b||_2), a normwise backward
    error of at most eps (Rigal and Gaches 1967; Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 7.1); otherwise the full LU solve."""
    n, diag = A.shape[0], A.diagonal()
    rows = np.sum(np.abs(A), axis=1) if rows is None else rows
    scale = float(np.max(rows - np.abs(diag) + np.abs(diag + shift)))
    p = max(8, len(np.trim_zeros(b, "b")) // 2)
    while 2 * p + 1 < n:
        d = 2 * p + 1
        x = np.zeros(n)
        x[:d] = np.linalg.solve(A[:d, :d] + shift * np.eye(d), b[:d])
        if np.linalg.norm(A[:, :d] @ x[:d] + shift * x - b) <= np.finfo(float).eps * (
                scale * np.linalg.norm(x) + np.linalg.norm(b)):
            return x
        p *= 2
    return np.linalg.solve(A + shift * np.eye(n), b)


def schrodinger_fractional_spectrum(V: PeriodicFunction, frac: FracOrder, count: int, N=None):
    """Eigenpairs of [-d_xx + V]^s: same eigenvectors as A = -d_xx + V,
    eigenvalues lambda_m^s, realized through the matrix power A^s = Q L^s Q^T.
    lambda -> lambda^s is nondecreasing, so the lowest eigenpairs of A give
    the lowest of A^s in the same order.  Requires 0 <= count <= 2N+1.
    """
    N = N or max(V.N, 16)
    _check_count(count, 2 * N + 1)
    kappa = float(np.sum(np.abs(V.cos_coeffs)) + np.sum(np.abs(V.sin_coeffs)))   # >= sup |V|
    if np.any(V.sample(8 * (max(N, V.N) + 1)) < -64.0 * np.finfo(float).eps * kappa):   # the FFT's round-off
        raise NegativePotential("potential must be nonnegative on the grid")
    A, w = _galerkin_matrix(V.T, N, (2.0 * math.pi / V.T * np.arange(1, N + 1)) ** 2, V)
    evals, Q = _lowest_eigh(A, count, _band_rows(A, w), w)
    evals = np.clip(evals, 0.0, None)  # round-off can push the zero mode negative
    return [(float(lam**frac.s), coords_to_function(V.T, v)) for lam, v in zip(evals, Q.T)]
