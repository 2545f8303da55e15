"""Branches of the rescaled equation

    (-d_xx)^s u + (lambda / -F''(0)) F'(u) = 0,   u(x + 2 pi) = u(x),

in the odd class with u(0) = 0: detection of the bifurcation points
lambda = m^{2s} on the trivial branch, pseudo-arclength continuation
through the pitchfork, local criticality classification, and the
realized-period check behind the minimal-period bound
T_0 <= 2 pi (-F''(0))^{-1/(2s)}.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BranchLost, NoConvergence, SingularJacobian, StepFailure
from .semilinear import MAX_NEWTON
from .spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    _newton,
    _solve_class,
    gram,
    linearization_bound,
    unstable_curvature,
)

__all__ = [
    "BranchPoint",
    "Branch",
    "T0Report",
    "detect_bifurcation_points",
    "continue_branch",
    "classify_criticality",
    "verify_T0_bound",
]

DEFAULT_N = 24
MAX_STEP_RETRIES = 10      # continuation step halvings before StepFailure
PITCHFORK_FIT_POINTS = 10  # leading branch points of the pitchfork fit
# admitted arclength steps, measured for the quartic at s from 0.1 to 0.95: at
# 1e-14 a step no longer moves lambda (it falls under the spacing of doubles
# near 1) and at 1e-20 the tangent divides 0 / 0; from 1.25 on the predictor
# jumps off the branch.  The floor keeps a decade above the stall.
DS_ARC_MIN, DS_ARC_MAX = 1e-12, 1.0


@dataclass(frozen=True)
class BranchPoint:
    lam: float
    u: PeriodicFunction
    amplitude: float
    residual: float
    sigma_min: float


@dataclass(frozen=True)
class Branch:
    points: tuple
    bifurcation_lambda: float
    direction: str

    def lambdas(self):
        return np.array([p.lam for p in self.points])

    def amplitudes(self):
        return np.array([p.amplitude for p in self.points])

    def pitchfork_fit(self):
        """Least-squares fit amplitude^2 = c (lambda - lambda_b) over the
        first PITCHFORK_FIT_POINTS points; returns (c, r_squared)."""
        x = self.lambdas()[:PITCHFORK_FIT_POINTS] - self.bifurcation_lambda
        y = self.amplitudes()[:PITCHFORK_FIT_POINTS] ** 2
        c = float(x @ y) / float(x @ x)
        ss_res = float(np.sum((y - c * x) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return c, r2


def detect_bifurcation_points(frac: FracOrder, well: DoubleWell, m_max):
    """Values of lambda where the linearization at the trivial branch is
    singular in the odd 2 pi class, ascending, at most m_max of them.

    G_u(lambda, 0) = D + lambda (F''(0) / -F''(0)) I = D - lambda I with
    D = diag(m^{2s}), since gram of the constant F''(0) is F''(0) I: the
    singular lambda are m^{2s}, m = 1..m_max.  Raises ValueError unless
    F''(0) < 0 and m_max is an integer >= 1."""
    m_max = _count(m_max, "m_max")
    unstable_curvature(well, "bifurcation analysis")
    return [float(m) ** (2.0 * frac.s) for m in range(1, m_max + 1)]


def _count(value, name):
    """value as an int; raises ValueError unless it is an integer >= 1."""
    if not (value >= 1 and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer at least 1, got {value!r}")
    return int(value)


def _corrector(cls, well, scale, z, tangent, target, max_iter=30):
    """Newton on the bordered system [G(a, lambda); tangent . (z - target)]
    for z = (a, lambda), where G is the residual of the odd class or its
    half-wave part cls with coupling lambda * scale.  Converged when |G| <=
    NEWTON_TOL and the arclength row is below 1e-12.  The Jacobian of the
    residual's last z reuses the view a = z[:-1] that the class evaluated
    and the projection of F'(u).  Returns (z, a, |G|); cls keeps a's values."""
    last = [None, None, None]   # z, its view a and the coefficients of F'(u) of the last residual
    n = cls.idx.size + 1
    r = np.empty(n)   # every residual, written in place: _newton reads each before the next call

    def residual(z):
        a = z[:-1]
        last[:] = z, a, cls.project(well.f1(cls.values(a)))
        np.add(cls.linear_part(a), z[-1] * scale * last[2], out=r[:-1])
        r[-1] = tangent @ (z - target)
        return r

    def jacobian(z):   # [[G_u, G_lambda]; tangent]
        if z is not last[0]:
            residual(z)
        J = np.empty((n, n))
        J[:-1, :-1] = cls.jacobian(last[1], well, z[-1] * scale)
        J[:-1, -1] = scale * last[2]
        J[-1] = tangent
        return J

    def norm(r):
        return cls.l2_norm(r[:-1]) if abs(r[-1]) <= 1e-12 else math.inf

    z, rnorm = _newton(residual, jacobian, z, max_iter, norm)
    return z, last[1], rnorm


def _first_point(cls, well, scale, lam_b, eps=1e-3):
    """Leave the trivial branch with predictor eps * sin(m x) and a pinned
    amplitude; solves for z = (a, lambda) with <a, e_m> fixed.  Returns the
    corrector's (z, a, |G|)."""
    m_idx = int(np.argmin(np.abs(cls.mult - lam_b)))
    z = np.zeros(cls.idx.size + 1)
    z[m_idx], z[-1] = eps, lam_b + 1e-4
    tangent = np.zeros(cls.idx.size + 1)
    tangent[m_idx] = 1.0
    return _corrector(cls, well, scale, z, tangent, z)


def continue_branch(frac: FracOrder, well: DoubleWell, lambda_start, steps, ds_arc,
                    N=None) -> Branch:
    """Pseudo-arclength continuation from the trivial branch through the
    pitchfork nearest lambda_start, lambda = m^{2s}, in the odd 2 pi class
    at truncation N (DEFAULT_N for None); the branch of an odd m carries odd
    harmonics only and runs in its half-wave class.  Raises ValueError
    unless lambda_start is finite, DS_ARC_MIN <= ds_arc <= DS_ARC_MAX,
    steps >= 2, N is None or an integer >= 1 and the well is even, and
    BranchLost when its amplitude reaches 1 or every retry of a step lands on u = 0."""
    if not math.isfinite(lambda_start):
        raise ValueError(f"lambda_start must be finite, got {lambda_start!r}")
    if not DS_ARC_MIN <= ds_arc <= DS_ARC_MAX:
        raise ValueError(f"ds_arc must lie in [{DS_ARC_MIN:g}, {DS_ARC_MAX:g}], got {ds_arc!r}")
    if steps < 2:
        raise ValueError(f"steps must be at least 2 (the tangent needs two points), got {steps!r}")
    N = DEFAULT_N if N is None else _count(N, "truncation N")
    scale = 1.0 / unstable_curvature(well, "bifurcation analysis")
    full = _solve_class("odd", 2.0 * math.pi, N, frac, well)
    m_idx = int(np.argmin(np.abs(full.mult - lambda_start)))
    lam_b = float(full.mult[m_idx])   # the nearest m^{2s}, m = m_idx + 1
    cls = _solve_class("odd", 2.0 * math.pi, N, frac, well, half_wave=m_idx % 2 == 0)

    def make_point(z, a, rnorm):
        # from the corrector's last evaluation, whose values cls keeps: every other
        # grid point is one of the 2N + 2 of u.amplitude(), and G_u spans the odd class
        lam, vals = float(z[-1]), cls.values(a)
        G_u = gram("odd", N, lam * scale * well.f2(vals))   # F'' is even: the same for -a
        G_u.flat[:: N + 1] += full.mult   # symmetric: sigma_min is its smallest |eigenvalue|
        if a[np.argmax(np.abs(a))] < 0:
            a = -a  # odd-class sign normalization <u, sin m x> >= 0
        return BranchPoint(lam=lam, u=cls.to_function(a), amplitude=float(np.max(np.abs(vals[::2]))),
                           residual=rnorm, sigma_min=float(np.min(np.abs(np.linalg.eigvalsh(G_u)))))

    # the second point lies along growing amplitude and defines the first tangent
    z_prev, *first = _first_point(cls, well, scale, lam_b)
    points = [make_point(z_prev, *first)]
    z, *second = _first_point(cls, well, scale, lam_b, eps=2e-3)
    points.append(make_point(z, *second))
    ds = ds_arc
    while len(points) < steps:
        tangent = (z - z_prev) / np.linalg.norm(z - z_prev)
        collapsed = 0   # retries that landed on u = 0, which solves at every lambda
        for _ in range(MAX_STEP_RETRIES):
            pred = z + ds * tangent
            try:
                z_new, *last = _corrector(cls, well, scale, pred, tangent, pred)
                pt = make_point(z_new, *last)
                if pt.amplitude >= 1e-10:
                    break
                collapsed += 1
            except (NoConvergence, SingularJacobian):
                pass
            ds *= 0.5
        else:
            if collapsed == MAX_STEP_RETRIES:
                raise BranchLost(f"amplitude collapsed to the trivial branch at every step down to ds = {ds:.2e}")
            raise StepFailure(f"continuation step failed below ds = {ds:.2e}")
        z_prev, z = z, z_new
        if pt.amplitude >= 1.0:   # no solution of a double well with wells at +-1 reaches them
            raise BranchLost(f"amplitude {pt.amplitude:.6g} >= 1 at lambda = {pt.lam:.6g} (N = {N})")
        points.append(pt)
        ds = min(ds * 1.3, ds_arc)

    branch = Branch(points=tuple(points), bifurcation_lambda=lam_b, direction="")
    c, _ = branch.pitchfork_fit()
    return replace(branch, direction="supercritical" if c > 0 else "subcritical")


def classify_criticality(frac: FracOrder, well: DoubleWell, m):
    """Local pitchfork direction at lambda_{m+1} = m^{2s} from the cubic
    normal-form coefficient; 'inconclusive' when F'''(0) != 0 (transcritical
    branching is not excluded).  Raises ValueError unless m is an integer >= 1."""
    _count(m, "mode m")
    if abs(float(well.f3(0.0))) > 1e-10:
        return "inconclusive"
    curvature = unstable_curvature(well)
    lam = float(m) ** (2.0 * frac.s)
    phi4 = 3.0 / (4.0 * math.pi)   # int_{-pi}^{pi} phi^4 of phi = sin(m x) / sqrt(pi), for every m >= 1
    coeff = (lam * float(well.f4(0.0)) / curvature) * phi4 / 6.0
    return "supercritical" if coeff > 0 else "subcritical"


@dataclass(frozen=True)
class T0Entry:
    lam: float
    period: float
    amplitude: float
    residual_rescaled: float


@dataclass(frozen=True)
class T0Report:
    bound: float
    entries: tuple

    @property
    def min_period(self):
        return min(e.period for e in self.entries)

    @property
    def max_residual(self):
        return max(e.residual_rescaled for e in self.entries)


def _period(lam, scale, frac):
    """T(lambda) = 2 pi (lambda * scale)^{1/(2s)}, inf where the power overflows."""
    try:
        return 2.0 * math.pi * (lam * scale) ** (1.0 / (2.0 * frac.s))
    except OverflowError:
        return math.inf


def verify_T0_bound(frac: FracOrder, well: DoubleWell, lambda_grid=None, N=None) -> T0Report:
    """Continue past the first pitchfork and undo the rescaling
    x = (lambda / -F''(0))^{1/(2s)} xbar, realizing solutions of the
    original equation with period T(lambda) = 2 pi (lambda/-F''(0))^{1/(2s)};
    each rescaled solution is re-verified by newton_refine's Newton on period
    T.  The branch of lambda = 1 carries odd harmonics only: it is followed
    in the odd half-wave class at truncation N (DEFAULT_N for None), and
    refined in the whole odd class at max(N, 8).  Raises ValueError unless
    the well is even, N is None or an integer >= 1, lambda_grid holds one
    or more values, each finite and above 1 (the first pitchfork), and every
    T(lambda) is positive and finite (s too small overflows it), and
    BranchLost when the branch collapses or a refined amplitude reaches 1.
    Only a supercritical branch, one that leaves lambda = 1 toward
    lambda > 1, is followed: a subcritical one (its first point lies at
    lambda <= 1, as for the well poly:0.5,0,-0.5,0,-0.5,0,0.5) is a
    ValueError."""
    if lambda_grid is None:
        lambda_grid = np.concatenate([[1.001, 1.003, 1.01, 1.03], np.arange(1.1, 4.01, 0.1)])
    lambda_grid = np.sort(np.asarray(lambda_grid, dtype=float))
    if not (lambda_grid.size and np.all(np.isfinite(lambda_grid) & (lambda_grid > 1.0))):
        raise ValueError(f"lambda_grid must hold one or more finite values above 1, "
                         f"got {lambda_grid.tolist()}")
    N = DEFAULT_N if N is None else _count(N, "truncation N")
    scale = 1.0 / unstable_curvature(well, "bifurcation analysis")
    cls = _solve_class("odd", 2.0 * math.pi, N, frac, well, half_wave=True)
    periods = [_period(float(lam), scale, frac) for lam in lambda_grid]
    if not all(0.0 < T < math.inf for T in periods):
        raise ValueError(f"s = {frac.s!r} is too small: the period 2 pi (lambda / -F''(0))^(1/(2s)) "
                         f"is not positive and finite on lambda_grid")
    bound = linearization_bound(frac, well)

    z, a, _ = _first_point(cls, well, scale, 1.0, eps=1e-2)
    lam = float(z[-1])
    if not lam > 1.0:
        raise ValueError(f"the branch leaves lambda = 1 toward lambda < 1 (subcritical: its first point "
                         f"is at lambda = {lam:.6g}); verify_T0_bound follows supercritical branches only")

    def advance(a, lam, lam_new):
        # predictor follows the pitchfork scaling amp ~ sqrt(lambda - 1) so
        # Newton at fixed lambda does not fall back onto the trivial branch
        a_pred = a * math.sqrt(max(lam_new - 1.0, 0.0) / (lam - 1.0))
        a_new, _ = _newton(*cls.newton_pair(well, lam_new * scale), a_pred, 30, cls.l2_norm)
        if np.max(np.abs(a_new)) < 0.5 * np.max(np.abs(a_pred)):
            raise BranchLost("collapsed toward the trivial branch")
        return a_new

    entries = []
    for lam_target, period in zip(lambda_grid, periods):
        n_sub = 1
        while True:
            try:
                a_try, lam_try = a, lam
                for lam_step in np.linspace(lam, lam_target, n_sub + 1)[1:]:
                    a_try = advance(a_try, lam_try, float(lam_step))
                    lam_try = float(lam_step)
                break
            except (BranchLost, NoConvergence):
                n_sub *= 2
                if n_sub > 64:
                    raise
        a, lam = a_try, float(lam_target)
        # the same coefficients on period T, refined as newton_refine(u, T) does:
        # the whole odd class at truncation max(N, 8)
        T_cls = _solve_class("odd", period, max(N, 8), frac, well)
        c0 = np.zeros(T_cls.N)
        c0[:N:2] = a   # the odd harmonics 1, 3, ..
        c, rnorm = _newton(*T_cls.newton_pair(well), c0, MAX_NEWTON, T_cls.l2_norm)
        amplitude = float(np.max(np.abs(T_cls.values(c))))
        if amplitude >= 1.0:   # as in continue_branch: no solution reaches the wells
            raise BranchLost(f"amplitude {amplitude:.6g} >= 1 at lambda = {lam:.6g} (N = {N})")
        entries.append(T0Entry(lam=lam, period=period, amplitude=amplitude, residual_rescaled=rnorm))
    return T0Report(bound=bound, entries=tuple(entries))
