"""Galerkin realization of L = (-d_xx)^s + k(x) on the periodic Fourier
basis, with the coercive solve, Fredholm alternative and eigenvalue set.

The matrix acts on coordinates in the orthonormal basis
{1/sqrt(T), sqrt(2/T) cos(w m x), sqrt(2/T) sin(w m x)} so that the L^2
inner product is the Euclidean dot product of coordinate vectors.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import NegativePotential, NotCoercive, SolvabilityViolation
from .spectral import FracOrder, PeriodicFunction, gram

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

KERNEL_RTOL = 1e-9        # singular values below this (relative) span the kernel
COERCIVITY_MARGIN = 0.1   # gamma = max(0, -min k) + margin
ORTH_TOL = 1e-9           # Fredholm data may have a kernel component up to this (relative)


def _galerkin_matrix(T, N, lam, k):
    """diag(lam) on the cos/sin pairs plus multiplication by k, symmetrized.

    The k-multiplication is the full-class ``gram`` of k on a dealiased grid:
    a product of two basis modes has trig degree <= 2N, times deg(k) <= N,
    so 4(N+1) nodes integrate it exactly.  Reordering [b_0..b_N, a_1..a_N]
    to [b_0, b_1, a_1, ...] and scaling row i by sqrt(w_i)^-1 and column j
    by sqrt(w_j) (w = 1 on the mean, 2 elsewhere) gives the orthonormal-basis
    matrix.
    """
    order = np.zeros(2 * N + 1, dtype=int)
    order[1::2] = np.arange(1, N + 1)
    order[2::2] = np.arange(N + 1, 2 * N + 1)
    A = gram("full", N, k.sample(4 * (N + 1)))[np.ix_(order, order)]
    A[0, 1:] *= math.sqrt(2.0)
    A[1:, 0] /= math.sqrt(2.0)
    diag = A.reshape(-1)[:: 2 * N + 2]   # a view of the diagonal
    diag[1::2] += lam
    diag[2::2] += lam
    return 0.5 * (A + A.T)


def coords_to_function(T, c):
    """Coordinate vector in the orthonormal basis -> PeriodicFunction."""
    N = (c.shape[0] - 1) // 2
    b = np.empty(N + 1)
    a = np.empty(N)
    b[0] = c[0] / math.sqrt(T)
    b[1:] = c[1::2] * math.sqrt(2.0 / T)
    a[:] = c[2::2] * math.sqrt(2.0 / T)
    odd = bool(np.all(np.abs(b) < 1e-14))
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
        lam = (2.0 * math.pi / self.T * np.arange(1, self.N + 1)) ** (2.0 * self.frac.s)
        A = _galerkin_matrix(self.T, self.N, lam, self.k)
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)

    @cached_property
    def _eigh(self):
        """(w, V): the full eigendecomposition of the matrix, w ascending;
        computed once and shared by eigenvalue_set and both solves."""
        return np.linalg.eigh(self.matrix)

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

    u = V ((V^T g) / (w + mu)) on the operator's eigendecomposition; raises
    NotCoercive unless min w + mu > 0."""
    if g.T != op.T:
        raise ValueError(f"right-hand side g must have the operator's period {op.T!r}, got {g.T!r}")
    w, V = op._eigh
    if not w[0] + mu > 0.0:
        raise NotCoercive(f"L + mu is not positive definite (mu={mu:g}): lowest eigenvalue {w[0] + mu:.3e}")
    gc = function_to_coords(g, op.N)
    uc = V @ ((V.T @ gc) / (w + mu))
    res = float(np.linalg.norm(op.matrix @ uc + mu * uc - gc))
    gn = float(np.linalg.norm(gc))
    u = coords_to_function(op.T, uc)
    stability = float(np.linalg.norm(uc)) / gn if gn > 0 else 0.0
    return CoerciveSolve(u=u, stability_constant=stability, residual=res)


def solve_fredholm(op: GalerkinOperator, g: PeriodicFunction) -> FredholmSolve:
    """Fredholm alternative for L u = g on the truncated basis.

    With a trivial numerical kernel the unique solution is returned.  With a
    nontrivial kernel the data must satisfy <g, v> = 0 for every kernel
    vector; the minimal-norm solution is returned together with the kernel
    basis, and SolvabilityViolation is raised otherwise.
    """
    if g.T != op.T:
        raise ValueError(f"right-hand side g must have the operator's period {op.T!r}, got {g.T!r}")
    w, V = op._eigh   # symmetric: the singular values are |w|
    sv = np.abs(w)
    thresh = KERNEL_RTOL * (float(sv.max()) or 1.0)
    null_mask = sv < thresh
    gc = function_to_coords(g, op.N)
    null = V[:, null_mask].T
    kernel = KernelBasis(vectors=tuple(coords_to_function(op.T, v) for v in null), threshold=thresh)
    if kernel.dim:
        proj = null @ gc
        worst = float(proj[np.argmax(np.abs(proj))])
        if abs(worst) > ORTH_TOL * max(1.0, float(np.linalg.norm(gc))):
            raise SolvabilityViolation(worst)
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=~null_mask)
    uc = V @ (inv * (V.T @ gc))
    return FredholmSolve(solution=coords_to_function(op.T, uc), kernel=kernel)


def _check_count(count, dim):
    if count > dim:
        raise ValueError("count exceeds the Galerkin dimension 2N+1")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count!r}")


def eigenvalue_set(op: GalerkinOperator, count: int):
    """Lowest `count` eigenpairs of the symmetric Galerkin matrix, nondecreasing."""
    _check_count(count, op.matrix.shape[0])
    w, V = op._eigh
    return [(float(lam), coords_to_function(op.T, v)) for lam, v in zip(w[:count], V.T)]


def _lowest_eigh(A, count):
    """(w, Q): the lowest `count` eigenpairs of the symmetric A, w ascending.

    From the leading block P = A[:d, :d] (modes <= p, d = 2p+1; B = A[:d, d:],
    C = A[d:, d:]) when, at some cut c >= count with mu = (w[c-1] + w[c]) / 2 and
    tol = eps ||A||_inf, ||B^T Q[:, :c]||_F <= tol and w[c-1] + tol < mu (A has c
    eigenvalues within tol of w[:c]), and mu < g, the Gershgorin bound of C, with
    ||B||_F^2 / (g - mu) < w[c] - mu (inertia additivity: exactly c below mu); see
    Parlett, The Symmetric Eigenvalue Problem, ch. 10-11.  Otherwise the full eigh.
    """
    n = A.shape[0]
    tol = np.finfo(float).eps * float(np.max(np.sum(np.abs(A), axis=1)))
    p = max(8, count)
    while 2 * p + 1 < n:
        d = 2 * p + 1
        w, Q = np.linalg.eigh(A[:d, :d])
        B, C = A[:d, d:], A[d:, d:]
        res = np.sqrt(np.cumsum(np.sum((B.T @ Q) ** 2, axis=0)))   # res[c-1]: of Q[:, :c]
        g = float(np.min(np.diag(C) + np.abs(np.diag(C)) - np.sum(np.abs(C), axis=1)))
        c = np.arange(max(count, 1), d)   # the cuts
        mu = 0.5 * (w[c - 1] + w[c])
        ok = (res[c - 1] <= tol) & (w[c - 1] + tol < mu) & (mu < g)
        if np.any(ok & (np.sum(B * B) < (w[c] - mu) * (g - mu))):
            return w[:count], np.vstack([Q[:, :count], np.zeros((n - d, count))])
        p *= 2
    w, Q = np.linalg.eigh(A)
    return w[:count], Q[:, :count]


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
