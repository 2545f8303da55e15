"""Nonconstant periodic solutions of (-d_xx)^s u + F'(u) = 0 by symmetry-
restricted energy minimization with Newton refinement, and the bisection
estimate of the smallest period admitting nonconstant solutions, whose
predicate stops at the first nonconstant start.

The descent phase takes modified-Newton steps with a backtracking line
search on the full-period functional

    E(u) = (1/2) <u, (-d_xx)^s u> + int_{-T/2}^{T/2} F(u) dx,

whose L^2 gradient is exactly the equation residual (-d_xx)^s u + F'(u)
and whose Hessian is the residual Jacobian; the reported energy J uses the
half-period convention of the energy functional in
:mod:`fracperiodic.spectral`.

Both symmetries are solved in the odd half-wave subspace u(x + T/2) = -u(x),
spanned by the odd harmonics: ceil(N/2) unknowns, a_1, a_3, ..  The well is
even, so the residual maps the subspace into itself and its Jacobian is the
odd-harmonic block of the full one: the solutions are those of the whole
class.  The even half-wave solutions are these shifted by a quarter period,
so an even request returns u(x + T/4) of the odd solution.

From N = COARSE_MIN_N on, each start first descends in the same symmetry
class at N // 4 (with the starts built there); the result is zero-padded
to N, where descent and Newton finish, usually in one step each, because
the coarse minimizer already agrees with the fine one to truncation error.
Below COARSE_MIN_N every start descends at N only.  At every N a start is
finished once per distinct minimizer: its (first) descent stops as soon as
an iterate lies within class-L^2 distance DISTINCT_L2 of the endpoint of a
start that gave a nonconstant u with |u| < 1, and skips the rest, since the
starts mostly descend onto the same minimizer.  Trivial endpoints absorb no
start, so a nonconstant minimizer next to u = 0 is still found."""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import InconsistentBracket, NoConvergence, SingularJacobian
from .spectral import (
    NONCONSTANT_AMPLITUDE,
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    _check_period,
    _newton,
    _solve_class,
    _SymmetryClass,
    energy_functional,
    linearization_bound,
)

__all__ = [
    "SolveConfig",
    "SemilinearSolution",
    "minimize_energy",
    "newton_refine",
    "find_min_period",
]

DESCENT_GRAD_TOL = 1e-4        # descent hands over to Newton below this
COARSE_MIN_N = 128             # from this N on, each start first descends at N // 4
DISTINCT_L2 = math.sqrt(DESCENT_GRAD_TOL)   # a descent this close to a nonconstant endpoint merges onto it
MAX_NEWTON = 60                # Newton iterations per start and per refine
MAX_DESCENT = 4000             # modified-Newton descent steps per start and stage
MIN_PERIOD_N = 32              # truncation of find_min_period's odd half-wave class
MULTISTARTS = 6                # multistart initial data per solve, mirrors included


@dataclass(frozen=True)
class SolveConfig:
    symmetry: str = "odd"          # "odd" | "even"
    N: int = 64

    def __post_init__(self):
        if self.symmetry not in ("odd", "even"):
            raise ValueError("symmetry must be 'odd' or 'even'")
        if not isinstance(self.N, numbers.Integral) or self.N < 8:
            raise ValueError(f"truncation N must be an integer at least 8, got {self.N!r}")


@dataclass(frozen=True)
class SemilinearSolution:
    u: PeriodicFunction
    residual: float
    energy: float
    amplitude: float
    classification: str

    @property
    def nonconstant(self):
        return self.classification == "nonconstant"


def _shifted(H):
    """H + tau_k I, in place, for the first k at which np.linalg.cholesky
    succeeds: tau_0 = 0 (when min diag H > 0) or beta - min diag H, and
    tau_{k+1} = max(2 tau_k, beta = 1e-3) (Nocedal & Wright, Alg. 3.3).
    Cholesky reads only the lower triangle, so H must be symmetric."""
    beta = 1e-3
    diag = np.diagonal(H).copy()
    tau = 0.0 if diag.min() > 0.0 else beta - diag.min()
    while True:
        if tau > 0.0:
            np.fill_diagonal(H, diag + tau)
        try:
            np.linalg.cholesky(H)
            return H
        except np.linalg.LinAlgError:
            tau = max(2.0 * tau, beta)


def _descent(cls: _SymmetryClass, c, well, finished=()):
    """Modified-Newton descent on the full-period energy E; None once an
    iterate lies within class-L^2 distance DISTINCT_L2 of one of finished.

    In a half-wave class every coefficient carries the L^2 weight T/2, so
    dE/dc = (T/2) residual and the Hessian of E is (T/2) J: the step is one
    LU solve with J (exactly symmetric) shifted positive definite by _shifted,
    and backtracks on E.  It stops at any critical point, without asking
    for a positive-definite Hessian.  Each iterate is evaluated on the grid
    once, by its energy: the accepted trial is the class's last evaluated
    array, so its residual and Jacobian reuse those values.
    """
    energy = cls.energy_full(c, well)
    for _ in range(MAX_DESCENT):
        if any(cls.l2_norm(c - d) < DISTINCT_L2 for d in finished):
            return None
        grad = cls.residual(c, well)
        if cls.l2_norm(grad) < DESCENT_GRAD_TOL:
            break
        p = -np.linalg.solve(_shifted(cls.jacobian(c, well)), grad)
        step = 1.0
        while step > 1e-8:
            trial = c + step * p
            e_new = cls.energy_full(trial, well)
            if e_new < energy:
                c, energy = trial, e_new
                break
            step *= 0.5
        else:
            break
    return c


def _starts(cls: _SymmetryClass):
    """Multistart initial data: c * (first harmonic) with sign flips, plus a
    sharpened interface template for long periods.

    The mirror -c of a start is dropped after the multistart cut: the well
    is even (_solve_class admits no other), so E(-c) = E(c), and its iterates
    are the exact negations, which sign normalization maps onto the same u.
    """
    out = []   # (coefficients, is the mirror image of the previous start)
    amps = [0.2, 0.5, 0.9]
    for amp in amps:
        for sgn in (1.0, -1.0):
            c = np.zeros_like(cls.mult)
            c[0] = sgn * amp   # a_1
            out.append((c, sgn < 0))
    if cls.T > 4.0 * math.pi:
        out.insert(0, (cls.project(np.tanh(cls.T / 4.0 * np.sin(2.0 * math.pi * cls.x / cls.T))), False))
    return [c for c, mirror in out[:MULTISTARTS] if not mirror]


def _nonconstant(vals):   # the one nonconstant test, on grid values
    return float(np.max(np.abs(vals - np.mean(vals)))) > NONCONSTANT_AMPLITUDE


def _package(cls: _SymmetryClass, c, rnorm, frac, well):
    u, vals = cls.to_function(c), cls.values(c)
    return SemilinearSolution(u=u, residual=rnorm, energy=energy_functional(u, frac, well),
                              amplitude=float(np.max(np.abs(vals))),
                              classification="nonconstant" if _nonconstant(vals) else "trivial")


def _nonconstant_starts(cls: _SymmetryClass, frac: FracOrder, well: DoubleWell):
    """Yield (c, residual norm) of each start that converges to a nonconstant u with |u| < 1."""
    first = _SymmetryClass("odd", cls.T, cls.N // 4, frac, half_wave=True) if cls.N >= COARSE_MIN_N else cls
    finished = []   # (coarse) descent endpoints of the starts yielded so far
    for c0 in _starts(first):
        c = coarse = _descent(first, c0.copy(), well, finished)
        if c is None:
            continue   # merged onto a nonconstant minimizer already found
        if first is not cls:   # prolong by zero padding and finish at N
            c = _descent(cls, cls.from_function(first.to_function(c)), well)
        try:
            c, rnorm = _newton(*cls.newton_pair(well), c, MAX_NEWTON, cls.l2_norm)
        except (NoConvergence, SingularJacobian):
            continue
        vals = cls.values(c)
        if np.max(np.abs(vals)) >= 1.0:
            continue  # spurious: genuine solutions satisfy |u| < 1
        if _nonconstant(vals):
            finished.append(coarse)
            yield c, rnorm


def _quarter_shift(u: PeriodicFunction):
    """u(x + T/4) of an odd half-wave u: b_{2j+1} = (-1)^j a_{2j+1}, negated
    where u(0) = sum b < 0 (the even sign rule); + 0.0 turns -0.0 into 0.0."""
    b = np.zeros(u.N + 1)
    b[1::4], b[3::4] = u.sin_coeffs[::4], -u.sin_coeffs[2::4]
    return PeriodicFunction(T=u.T, sin_coeffs=np.zeros(u.N), cos_coeffs=(-b if b.sum() < 0.0 else b) + 0.0)


def minimize_energy(T, frac: FracOrder, well: DoubleWell, cfg: SolveConfig = None) -> SemilinearSolution:
    """Local energy minimizer in the requested symmetry class.

    Runs multistart modified-Newton descent on the energy followed by Newton
    on the residual in the odd half-wave class; returns the lowest-energy
    nonconstant candidate, or the trivial critical point with classification
    "trivial" when every start collapses to a constant.  An even request
    gets that solution shifted by T/4, which keeps the other fields.  Raises
    ValueError unless T is positive and finite and resolved by the Newton
    tolerance (see _solve_class) and the well is even.
    """
    cfg = cfg or SolveConfig()
    cls = _solve_class(cfg.symmetry, T, cfg.N, frac, well, half_wave=True)
    best = None
    for c, rnorm in _nonconstant_starts(cls, frac, well):
        sol = _package(cls, -c if c[0] < 0 else c, rnorm, frac, well)   # <u, sin w x> >= 0
        if best is None or sol.energy < best.energy:
            best = sol
    if best is None:
        # all multistarts collapsed: report the trivial critical point u = 0
        # (F'(0) = 0 under the double-well monotonicity condition)
        c0 = np.zeros_like(cls.mult)
        best = _package(cls, c0, cls.l2_norm(cls.residual(c0, well)), frac, well)
    return best if cfg.symmetry == "odd" else replace(best, u=_quarter_shift(best.u))


def newton_refine(u0: PeriodicFunction, T, frac: FracOrder, well: DoubleWell) -> SemilinearSolution:
    """Newton refinement of an approximate solution (odd inputs stay odd).

    Newton runs on the period-T class of u0 (odd when u0 is odd, else
    full) at truncation max(u0.N, 8), for at most MAX_NEWTON iterations.
    Raises ValueError unless T is positive and finite and resolved by the
    Newton tolerance (see _solve_class), and for an odd u0 unless the well
    is even."""
    cls = _solve_class("odd" if u0.odd else "full", T, max(u0.N, 8), frac, well)
    c, rnorm = _newton(*cls.newton_pair(well), cls.from_function(u0), MAX_NEWTON, cls.l2_norm)
    return _package(cls, c, rnorm, frac, well)


def find_min_period(frac: FracOrder, well: DoubleWell, T_hi, tol=0.05) -> float:
    """Bisection estimate of the smallest period with a nonconstant solution.

    Brackets between "only trivial minimizers" and "nonconstant minimizer
    found"; the estimate never exceeds the linearization bound
    2 pi (-F''(0))^{-1/(2s)} up to tol, or up to one double when lo and hi
    become adjacent before tol is met.  The predicate is
    minimize_energy(T, ...).nonconstant, stopped at the first nonconstant
    start, in the odd half-wave class at truncation MIN_PERIOD_N.  Raises
    ValueError unless T_hi and tol are positive and finite, the Newton
    tolerance resolves every period tried (see _solve_class) and the well
    is even.
    """
    _check_period(T_hi)
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    bound = linearization_bound(frac, well, "find_min_period")
    if T_hi <= bound:
        raise ValueError(f"T_hi must exceed the bifurcation bound {bound:g}")

    def nonconstant_at(T):
        starts = _nonconstant_starts(_solve_class("odd", T, MIN_PERIOD_N, frac, well, half_wave=True), frac, well)
        return next(starts, None) is not None

    lo, hi = bound / 4.0, T_hi
    if nonconstant_at(lo):
        raise InconsistentBracket(f"nonconstant solution found at T = {lo:g} below the bound")
    if not nonconstant_at(hi):
        raise InconsistentBracket(f"no nonconstant solution found at T_hi = {hi:g}")
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if nonconstant_at(mid):
            hi = mid
        else:
            lo = mid
    return hi
