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
from .spectral import FracOrder, PeriodicFunction, gram_blocks

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
    """diag(lam) on the cos/sin pairs plus multiplication by k, symmetric.

    The k-multiplication is the full-class ``gram`` of k on a dealiased grid:
    a product of two basis modes has trig degree <= 2N, times deg(k) <= N,
    so 4(N+1) nodes integrate it exactly.  Its blocks go straight into the
    order [b_0, b_1, a_1, ...]; the mean row and column, scaled to the
    orthonormal basis (weight 1 on the mean, 2 elsewhere), are averaged.
    """
    cc, sc, ss = gram_blocks(N, k.sample(4 * (N + 1)))
    A = np.empty((2 * N + 1, 2 * N + 1))
    A[1::2, 1::2], A[2::2, 2::2] = cc[1:, 1:], ss[1:, 1:]
    A[2::2, 1::2], A[1::2, 2::2] = sc[1:, 1:], sc[1:, 1:].T
    A[0, 0] = cc[0, 0] * 0.5
    e = np.stack((cc[1:, 0], sc[1:, 0]), axis=1).ravel()   # gram's mean column; its row is e / 2
    A[0, 1:] = A[1:, 0] = 0.5 * (e * 0.5 * math.sqrt(2.0) + e / math.sqrt(2.0))
    A.reshape(-1)[2 * N + 2 :: 2 * N + 2] += np.repeat(lam, 2)   # the diagonal past the mean
    return A


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
    """Assembled symmetric matrix of (-d_xx)^s + k(x) in the trig basis."""

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
        A = _galerkin_matrix(self.T, self.N, lam, self.k)
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "_symbol", lam)   # lambda_m on the pair of mode m, m = 1..N
        object.__setattr__(self, "_ladder", (lam[:0], A[:, :0]))   # (w, Q): every certified pair so far

    @cached_property
    def _rows(self):
        """Row sums of |A|: every norm and bound of the matrix reads them."""
        return np.sum(np.abs(self.matrix), axis=1)

    def _pairs(self, count):
        """The lowest `count` eigenpairs, from the last ladder's pairs, or a new ladder's."""
        if len(self._ladder[0]) < count:
            object.__setattr__(self, "_ladder", _certified_pairs(self.matrix, count, self._rows))
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
        kmin = float(np.min(self.k.sample(8 * (self.N + 1))))
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


def _lowest_eigh(A, count, rows=None):
    """(w, Q): the lowest `count` eigenpairs of the symmetric A, w ascending;
    rows holds the row sums of |A| when the caller has them.

    From the leading block P = A[:d, :d] (modes <= p, d = 2p+1; B = A[:d, d:],
    C = A[d:, d:]) when, at some cut c >= count with mu = (w[c-1] + w[c]) / 2 and
    tol = eps ||A||_inf, ||B^T Q[:, :c]||_F <= tol and w[c-1] + tol < mu (A has c
    eigenvalues within tol of w[:c]), and mu < g, the Gershgorin bound of C, with
    ||B||_F^2 / (g - mu) < w[c] - mu (inertia additivity: exactly c below mu); see
    Parlett, The Symmetric Eigenvalue Problem, ch. 10-11.  Otherwise the full eigh.
    The row sums of |C| are rows[d:] less the column sums of |B|: O(n d) per trial
    block.  A GalerkinOperator keeps the pairs below its last ladder's highest
    certified cut for its eigenvalue sets, coercivity test and Fredholm kernel.
    """
    w, Q = _certified_pairs(A, count, rows)
    return w[:count], Q[:, :count]


def _certified_pairs(A, count, rows):
    """The ladder of _lowest_eigh: every pair below the highest certified cut, or all of them."""
    n = A.shape[0]
    rows = np.sum(np.abs(A), axis=1) if rows is None else rows
    tol = np.finfo(float).eps * float(np.max(rows))
    p = max(8, count)
    while 2 * p + 1 < n:
        d = 2 * p + 1
        w, Q = np.linalg.eigh(A[:d, :d])
        B, diag = A[:d, d:], A.diagonal()[d:]
        res = np.sqrt(np.cumsum(np.sum((B.T @ Q) ** 2, axis=0)))   # res[c-1]: of Q[:, :c]
        g = float(np.min(diag + np.abs(diag) - (rows[d:] - np.sum(np.abs(B), axis=0))))
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
    grid = np.linspace(0.0, V.T, 8 * (N + 1), endpoint=False)
    if np.any(V(grid) < 0.0):
        raise NegativePotential("potential must be nonnegative on the grid")
    A = _galerkin_matrix(V.T, N, (2.0 * math.pi / V.T * np.arange(1, N + 1)) ** 2, V)
    evals, Q = _lowest_eigh(A, count)
    evals = np.clip(evals, 0.0, None)  # round-off can push the zero mode negative
    return [(float(lam**frac.s), coords_to_function(V.T, v)) for lam, v in zip(evals, Q.T)]
