"""Galerkin realization of L = (-d_xx)^s + k(x) on the periodic Fourier
basis, with the coercive solve, Fredholm alternative and eigenvalue set.

The matrix A acts on coordinates in the orthonormal basis {1/sqrt(T), sqrt(2/T) cos(w m x),
sqrt(2/T) sin(w m x)} so that the L^2 inner product is the Euclidean dot product of coordinate vectors.
A is held as its lower band L[d, i] = A[i + d, i] (LAPACK's symmetric band layout; a dense A is the band
of width 2N), which row sums, products and the certified leading blocks of the solves and eigenpairs read.
Only the full eigh and LU fallbacks, the Fredholm deflation A + ||A||_inf Z Z^T and, on first access,
GalerkinOperator.matrix build A densely."""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NegativePotential, NotCoercive, SolvabilityViolation
from .spectral import FracOrder, PeriodicFunction, _check_types

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
    """The lower band L[d, i] = A[i + d, i] of diag(lam) on the cos/sin pairs plus
    multiplication by k, symmetric, exact for every degree of k, at O(N K) cost.

    With k = b_0 + sum b_j cos + a_j sin, in the order [b_0, b_1, a_1, ...], the
    block of modes m, n >= 1 is Toeplitz in q = m - n, [[b'_q, -a_q], [a_q, b'_q]]/2
    (b'_0 = 2 b_0, b'_q = b_q, a_-q = -a_q), plus Hankel in p = m + n,
    [[b_p, a_p], [a_p, -b_p]]/2 (Boyd, Chebyshev and Fourier Spectral Methods,
    2001, ch. 8); the mean row is (b_j, a_j)/sqrt(2).  Only modes j <= K = min(k.N, 2N) reach A, so
    A[i, j] = 0 once |i - j| > 2K + 1: L has min(2K + 1, 2N) + 1 rows, and zeros where i + d >= n.
    """
    n, K = 2 * N + 1, min(k.N, 2 * N)
    b, a = np.zeros(K + 2), np.zeros(K + 2)   # b_j / 2 and a_j / 2, zero at j = K + 1 (and a_0)
    b[: K + 1], a[1 : K + 1] = 0.5 * k.cos_coeffs[: K + 1], 0.5 * k.sin_coeffs[:K]
    w = min(2 * K + 1, n - 1)
    L = np.zeros((w + 1, n))
    L[2::2, 1:] = b[1 : w // 2 + 1, None]                 # even d: b_{d/2} on both rows
    L[1::2, 1::2] = a[: (w + 1) // 2, None]               # odd d, cos column: a_{(d-1)/2}
    L[1::2, 2::2] = -a[1 : (w + 1) // 2 + 1, None]        # odd d, sin column: -a_{(d+1)/2}
    h = min(K, N)   # the Hankel part: modes m, n <= h, zero once m + n > K, at d = 2q + s and
    p = np.minimum(np.add.outer(np.arange(h), 2 * np.arange(1, h + 1)), K + 1)   # column 2n - 1 + t:
    H = np.array([[b, -b], [a, np.append(a[1:], 0.0)]])[:, :, p]   # H[s, t, q, n - 1], p = 2n + q
    L[: 2 * h, 1 : 2 * h + 1] += H.transpose(2, 0, 3, 1).reshape(2 * h, 2 * h)
    np.copyto(L, 0.0, where=np.arange(n) >= n - np.arange(w + 1)[:, None])   # i + d past the last row
    L[1 : 2 * h + 1 : 2, 0] = math.sqrt(2.0) * b[1 : h + 1]   # the mean column
    L[2 : 2 * h + 1 : 2, 0] = math.sqrt(2.0) * a[1 : h + 1]
    L[0] += 2.0 * b[0]
    L[0, 1:] += np.repeat(lam, 2)
    return L


def _band_rows(L):
    """Row sums of |A| from its lower band: the sums over j >= i and over j < i; row d of Z, read with
    a row stride one shorter, is shifted right by d, so that its entry i is |A[i, i - d]|."""
    r, n = L.shape
    Z = np.zeros((r, n + r))
    upper = np.abs(L, out=Z[:, :n])   # |A[i, i + d]|
    return upper.sum(axis=0) + Z.reshape(-1)[: r * (n + r - 1)].reshape(r, -1)[1:, :n].sum(axis=0)


def _band_matvec(L, x):
    """A @ x from the lower band L of the symmetric A, one pair of off-diagonals at a time."""
    n, y = len(x), L[0] * x
    for d, v in enumerate(L[1:, : n - 1], 1):
        y[d:] += v[: n - d] * x[: n - d]
        y[: n - d] += v[: n - d] * x[d:]
    return y


def _leading(L, m, blocks=None):
    """The leading m x m block of the symmetric A of lower band L (all of A at m = n).  Given the dict
    blocks, a block smaller than A is kept there and read back: an operator's two ladders share it."""
    if blocks is not None and m in blocks:
        return blocks[m]
    A = np.zeros((m, m))
    flat = A.reshape(-1)
    for d in range(min(len(L), m)):   # the sub- and the super-diagonal d
        flat[d * m :: m + 1] = flat[d : (m - d) * (m + 1) : m + 1] = L[d, : m - d]
    return A if blocks is None or m == L.shape[1] else blocks.setdefault(m, A)


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
    """The coordinates of u's modes up to N (zero past u.N)."""
    c, m = np.zeros(2 * N + 1), min(N, u.N)
    c[0] = u.cos_coeffs[0] * math.sqrt(u.T)
    c[1 : 2 * m + 1 : 2] = u.cos_coeffs[1 : m + 1] * math.sqrt(u.T / 2.0)
    c[2 : 2 * m + 1 : 2] = u.sin_coeffs[:m] * math.sqrt(u.T / 2.0)
    return c


@dataclass(frozen=True)
class GalerkinOperator:
    """Assembled symmetric matrix of (-d_xx)^s + k(x) in the trig basis, exact for every degree
    of k, held as its lower band at O(N K) cost; `matrix` is the dense, read-only copy."""

    frac: FracOrder
    T: float
    N: int
    k: PeriodicFunction

    def __post_init__(self):
        if self.k.T != self.T:
            raise ValueError("coefficient k must have period T")
        _check_sizes(self.N)
        lam = (2.0 * math.pi / self.T * np.arange(1, self.N + 1)) ** (2.0 * self.frac.s)
        object.__setattr__(self, "_band", _galerkin_matrix(self.T, self.N, lam, self.k))
        object.__setattr__(self, "_symbol", lam)   # lambda_m on the pair of mode m, m = 1..N
        object.__setattr__(self, "_ladder", (lam[:0], np.zeros((2 * self.N + 1, 0))))   # the certified pairs
        object.__setattr__(self, "_blocks", {})   # the leading blocks both ladders share

    @cached_property
    def matrix(self):
        """The dense matrix, read-only, built from the band on first access."""
        A = _leading(self._band, 2 * self.N + 1)
        A.flags.writeable = False
        return A

    @cached_property
    def _rows(self):
        """Row sums of |A| from its band: every norm and bound of the matrix reads them."""
        return _band_rows(self._band)

    def _pairs(self, count):
        """The lowest `count` eigenpairs, from the last ladder's pairs, or a new ladder's."""
        if len(self._ladder[0]) < count:
            object.__setattr__(self, "_ladder", _certified_pairs(self._band, count, self._rows, self._blocks))
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
        return coords_to_function(self.T, _band_matvec(self._band, function_to_coords(u, self.N)))


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
    w_0 + mu > 0; then u and its residual come from _leading_solve, with a
    normwise backward error of at most eps when a leading block certifies it."""
    if not math.isfinite(mu):
        raise ValueError(f"shift mu must be finite, got {mu!r}")
    if g.T != op.T:
        raise ValueError(f"right-hand side g must have the operator's period {op.T!r}, got {g.T!r}")
    w0 = op._low[0][0]
    if not w0 + mu > 0.0:
        raise NotCoercive(f"L + mu is not positive definite (mu={mu:g}): lowest eigenvalue {w0 + mu:.3e}")
    gc = function_to_coords(g, op.N)
    uc, res = _leading_solve(op._band, mu, gc, op._rows, op._blocks)
    gn = float(np.linalg.norm(gc))
    u = coords_to_function(op.T, uc)
    stability = float(np.linalg.norm(uc)) / gn if gn > 0 else 0.0
    return CoerciveSolve(u=u, stability_constant=stability, residual=res)


def solve_fredholm(op: GalerkinOperator, g: PeriodicFunction) -> FredholmSolve:
    """Fredholm alternative for L u = g on the truncated basis.

    The kernel Z holds the eigenvectors with |w| < KERNEL_RTOL ||A||_inf.  With
    a trivial kernel the unique solution is returned.  Otherwise the data must
    satisfy <g, v> = 0 for every kernel vector (SolvabilityViolation if not);
    the minimal-norm solution, of (A + ||A||_inf Z Z^T) u = (I - Z Z^T) g by one
    dense solve, is returned together with the kernel basis.
    """
    if g.T != op.T:
        raise ValueError(f"right-hand side g must have the operator's period {op.T!r}, got {g.T!r}")
    w, Q, thresh = op._low
    Z = Q[:, np.abs(w) < thresh]
    gc = function_to_coords(g, op.N)
    kernel = KernelBasis(vectors=tuple(coords_to_function(op.T, v) for v in Z.T), threshold=thresh)
    if kernel.dim:
        proj = Z.T @ gc
        worst = float(proj[np.argmax(np.abs(proj))])
        if abs(worst) > ORTH_TOL * max(1.0, float(np.linalg.norm(gc))):
            raise SolvabilityViolation(worst)
        u = np.linalg.solve(_leading(op._band, len(gc)) + (thresh / KERNEL_RTOL) * (Z @ Z.T), gc - Z @ proj)
    else:
        u, _ = _leading_solve(op._band, 0.0, gc, op._rows, op._blocks)
    return FredholmSolve(solution=coords_to_function(op.T, u), kernel=kernel)


def _check_sizes(N, count=0):
    """ValueError unless the truncation N and the count are integers, not bools, with 0 <= count <= 2N + 1."""
    for name, value in (("truncation N", N), ("count", count)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
            raise ValueError(f"{name} must be nonnegative and an integer, got {value!r}")
    if count > 2 * N + 1:
        raise ValueError(f"count {count} exceeds the Galerkin dimension 2N+1 = {2 * N + 1}")


def eigenvalue_set(op: GalerkinOperator, count: int):
    """Lowest `count` eigenpairs of the symmetric Galerkin matrix, nondecreasing."""
    _check_types(op=(op, GalerkinOperator))
    _check_sizes(op.N, count)
    w, Q = op._pairs(count)
    return [(float(lam), coords_to_function(op.T, v)) for lam, v in zip(w, Q.T)]


def _lowest_eigh(L, count, rows=None):
    """(w, Q): the lowest `count` eigenpairs of the symmetric A of lower band L, w
    ascending; rows holds the row sums of |A| when the caller has them.

    From the leading block P = A[:d, :d] (modes <= p, d = 2p+1; B = A[:d, d:],
    C = A[d:, d:]) when, at some cut c >= count with mu = (w[c-1] + w[c]) / 2 and
    tol = eps ||A||_inf, ||B^T Q[:, :c]||_F <= tol and w[c-1] + tol < mu (A has c
    eigenvalues within tol of w[:c]), and mu < g, the Gershgorin bound of C, with
    ||B||_F^2 / (g - mu) < w[c] - mu (inertia additivity: exactly c below mu); see
    Parlett, The Symmetric Eigenvalue Problem, ch. 10-11.  Otherwise the full eigh.
    The row sums of |C| are rows[d:] less the column sums of |B|: O(w^2 d + n) per
    trial block past its eigh.  A GalerkinOperator keeps the pairs below its last ladder's highest
    certified cut for its eigenvalue sets, coercivity test and Fredholm kernel.
    """
    w, Q = _certified_pairs(L, count, rows)
    return w[:count], Q[:, :count]


def _certified_pairs(L, count, rows=None, blocks=None):
    """The ladder of _lowest_eigh: every pair below the highest certified cut, or all of them. P and
    B's w x w corner, its nonzeros, are built from the band; the residuals, Gershgorin bound and ||B||_F read it."""
    width, n = len(L) - 1, L.shape[1]
    rows = _band_rows(L) if rows is None else rows
    tol = np.finfo(float).eps * float(np.max(rows))
    p = max(8, count)
    while 2 * p + 1 < n:
        d = 2 * p + 1
        D = _leading(L, min(n, d + width), blocks)   # P = D[:d, :d] and B's nonzero corner
        w, Q = np.linalg.eigh(D[:d, :d])
        B, rc = D[max(0, d - width) : d, d:], rows[d:].copy()
        res = np.sqrt(np.cumsum(np.sum((B.T @ Q[d - len(B) :]) ** 2, axis=0)))   # res[c-1]: of Q[:, :c]
        rc[: B.shape[1]] -= np.sum(np.abs(B), axis=0)   # the row sums of |C|
        g = float(np.min(L[0, d:] + np.abs(L[0, d:]) - rc))
        c = np.arange(max(count, 1), d)   # the cuts
        mu = 0.5 * (w[c - 1] + w[c])
        c = c[(res[c - 1] <= tol) & (w[c - 1] + tol < mu) & (mu < g) & (np.sum(B * B) < (w[c] - mu) * (g - mu))]
        if len(c):
            return w[: c[-1]], np.vstack([Q[:, : c[-1]], np.zeros((n - d, c[-1]))])
        p *= 2
    return np.linalg.eigh(_leading(L, n))


def _leading_solve(L, shift, b, rows=None, blocks=None):
    """(x, r): x with (A + shift) x = b, A symmetric of lower band L, rows the row sums of |A| (summed
    here when None), and r = ||(A + shift) x - b||_2: from the leading block (modes <= p, p doubling
    from max(8, the highest mode of b)) when r <= eps (||A + shift||_inf ||x||_2 + ||b||_2), a normwise
    backward error of at most eps (Rigal and Gaches 1967; Higham, Accuracy and Stability of Numerical
    Algorithms, Thm 7.1), r read on rows < d + w, as b and x vanish past d; else from the full LU."""
    n, diag = L.shape[1], L[0]
    rows = _band_rows(L) if rows is None else rows
    scale = float(np.max(rows - np.abs(diag) + np.abs(diag + shift)))
    p = max(8, len(np.trim_zeros(b, "b")) // 2)
    while True:
        d = min(n, 2 * p + 1)
        M = _leading(L, min(n, d + len(L) - 1), blocks)[:, :d]
        x = np.zeros(n)
        x[:d] = np.linalg.solve(M[:d] + shift * np.eye(d), b[:d])
        r = float(np.linalg.norm(M @ x[:d] + shift * x[: len(M)] - b[: len(M)]))
        if d == n or r <= np.finfo(float).eps * (scale * np.linalg.norm(x) + np.linalg.norm(b)):
            return x, r
        p *= 2


def schrodinger_fractional_spectrum(V: PeriodicFunction, frac: FracOrder, count: int, N=None):
    """Eigenpairs of [-d_xx + V]^s: same eigenvectors as A = -d_xx + V,
    eigenvalues lambda_m^s, realized through the matrix power A^s = Q L^s Q^T.
    lambda -> lambda^s is nondecreasing, so the lowest eigenpairs of A give
    the lowest of A^s in the same order.  N = None is max(V.N, 16); requires 0 <= count <= 2N+1.
    """
    N = max(V.N, 16) if N is None else N
    _check_sizes(N, count)
    kappa = float(np.sum(np.abs(V.cos_coeffs)) + np.sum(np.abs(V.sin_coeffs)))   # >= sup |V|
    if np.any(V.sample(8 * (max(N, V.N) + 1)) < -64.0 * np.finfo(float).eps * kappa):   # the FFT's round-off
        raise NegativePotential("potential must be nonnegative on the grid")
    L = _galerkin_matrix(V.T, N, (2.0 * math.pi / V.T * np.arange(1, N + 1)) ** 2, V)
    evals, Q = _lowest_eigh(L, count)
    evals = np.clip(evals, 0.0, None)  # round-off can push the zero mode negative
    return [(float(lam**frac.s), coords_to_function(V.T, v)) for lam, v in zip(evals, Q.T)]
