"""Galerkin realization of L = (-d_xx)^s + k(x) on the periodic Fourier
basis, with the coercive solve, Fredholm alternative and eigenvalue set.

The matrix acts on coordinates in the orthonormal basis
{1/sqrt(T), sqrt(2/T) cos(w m x), sqrt(2/T) sin(w m x)} so that the L^2
inner product is the Euclidean dot product of coordinate vectors.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

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

KERNEL_RTOL = 1e-9        # singular values below this (relative) span the kernel
COERCIVITY_MARGIN = 0.1   # gamma = max(0, -min k) + margin


def _basis_samples(T, N, x):
    """Orthonormal basis sampled at points x: columns [const, cos_1, sin_1, ...]."""
    E = np.empty((x.shape[0], 2 * N + 1))
    E[:, 0] = 1.0 / math.sqrt(T)
    phase = np.multiply.outer(x, (2.0 * math.pi / T) * np.arange(1, N + 1))
    np.cos(phase, out=E[:, 1::2])
    np.sin(phase, out=E[:, 2::2])
    E[:, 1:] *= math.sqrt(2.0 / T)
    return E


def _galerkin_matrix(T, N, lam, k):
    """diag(lam) on the cos/sin pairs plus multiplication by k, symmetrized.

    The k-multiplication runs on a dealiased grid: a product of two basis
    modes has trig degree <= 2N, times deg(k) <= N, so 4(N+1) nodes
    integrate it exactly.
    """
    M = 4 * (N + 1)
    x = np.arange(M) * (T / M)
    E = _basis_samples(T, N, x)
    kw = k(x) * (T / M)
    A = E.T @ (kw[:, None] * E)
    diag = A.reshape(-1)[:: 2 * N + 2]   # a view of the diagonal
    diag[1::2] += lam
    diag[2::2] += lam
    return 0.5 * (A + A.T)


def _lowest_eigh(A, count):
    """Lowest min(count, dim A) eigenpairs of the symmetric A, nondecreasing."""
    n = min(max(count, 0), A.shape[0])
    evals, vecs = eigh(A, subset_by_index=[0, max(n, 1) - 1])
    return evals[:n], vecs[:, :n]


def coords_to_function(T, c, odd=None):
    """Coordinate vector in the orthonormal basis -> PeriodicFunction."""
    N = (c.shape[0] - 1) // 2
    b = np.empty(N + 1)
    a = np.empty(N)
    b[0] = c[0] / math.sqrt(T)
    b[1:] = c[1::2] * math.sqrt(2.0 / T)
    a[:] = c[2::2] * math.sqrt(2.0 / T)
    if odd is None:
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

    @property
    def gamma(self):
        kmin = float(np.min(self.k(np.linspace(0, self.T, 8 * (self.N + 1), endpoint=False))))
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
    """Solve (L + mu) u = g; requires mu >= gamma so the shifted form is coercive."""
    A = op.matrix + mu * np.eye(op.matrix.shape[0])
    try:
        factor = cho_factor(A)
    except np.linalg.LinAlgError as exc:
        raise NotCoercive(f"L + mu is not positive definite (mu={mu:g}): {exc}") from exc
    gc = function_to_coords(g, op.N)
    uc = cho_solve(factor, gc)
    res = float(np.linalg.norm(A @ uc - gc))
    gn = float(np.linalg.norm(gc))
    u = coords_to_function(op.T, uc)
    stability = float(np.linalg.norm(uc)) / gn if gn > 0 else 0.0
    return CoerciveSolve(u=u, stability_constant=stability, residual=res)


def solve_fredholm(op: GalerkinOperator, g: PeriodicFunction, orth_tol=1e-9) -> FredholmSolve:
    """Fredholm alternative for L u = g on the truncated basis.

    With a trivial numerical kernel the unique solution is returned.  With a
    nontrivial kernel the data must satisfy <g, v> = 0 for every kernel
    vector; the minimal-norm solution is returned together with the kernel
    basis, and SolvabilityViolation is raised otherwise.
    """
    w, V = np.linalg.eigh(op.matrix)   # symmetric: the singular values are |w|
    sv = np.abs(w)
    thresh = KERNEL_RTOL * (float(sv.max()) or 1.0)
    null_mask = sv < thresh
    gc = function_to_coords(g, op.N)
    null = V[:, null_mask].T
    kernel = KernelBasis(vectors=tuple(coords_to_function(op.T, v) for v in null), threshold=thresh)
    if kernel.dim:
        proj = null @ gc
        worst = float(proj[np.argmax(np.abs(proj))])
        if abs(worst) > orth_tol * max(1.0, float(np.linalg.norm(gc))):
            raise SolvabilityViolation(worst)
    inv = np.divide(1.0, w, out=np.zeros_like(w), where=~null_mask)
    uc = V @ (inv * (V.T @ gc))
    return FredholmSolve(solution=coords_to_function(op.T, uc), kernel=kernel)


def eigenvalue_set(op: GalerkinOperator, count: int):
    """Lowest `count` eigenpairs of the symmetric Galerkin matrix, nondecreasing."""
    if count > op.matrix.shape[0]:
        raise ValueError("count exceeds the Galerkin dimension 2N+1")
    evals, evecs = _lowest_eigh(op.matrix, count)
    return [(float(lam), coords_to_function(op.T, v)) for lam, v in zip(evals, evecs.T)]


def schrodinger_fractional_spectrum(V: PeriodicFunction, frac: FracOrder, count: int, N=None):
    """Eigenpairs of [-d_xx + V]^s: same eigenvectors as A = -d_xx + V,
    eigenvalues lambda_m^s, realized through the matrix power A^s = Q L^s Q^T.
    lambda -> lambda^s is nondecreasing, so the lowest eigenpairs of A give
    the lowest of A^s in the same order.
    """
    N = N or max(V.N, 16)
    grid = np.linspace(0.0, V.T, 8 * (N + 1), endpoint=False)
    if np.any(V(grid) < 0.0):
        raise NegativePotential("potential must be nonnegative on the grid")
    A = _galerkin_matrix(V.T, N, (2.0 * math.pi / V.T * np.arange(1, N + 1)) ** 2, V)
    evals, Q = _lowest_eigh(A, count)
    evals = np.clip(evals, 0.0, None)  # round-off can push the zero mode negative
    return [(float(lam**frac.s), coords_to_function(V.T, v)) for lam, v in zip(evals, Q.T)]
