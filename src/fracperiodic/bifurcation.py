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
from scipy.linalg import eigh

from .errors import BranchLost, NoConvergence, SingularJacobian, StepFailure
from .semilinear import _SymmetryClass
from .spectral import DoubleWell, FracOrder, PeriodicFunction

__all__ = [
    "BranchPoint",
    "Branch",
    "T0Report",
    "detect_bifurcation_points",
    "continue_branch",
    "classify_criticality",
    "verify_T0_bound",
]

RESIDUAL_TOL = 1e-10
DEFAULT_N = 24


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

    def pitchfork_fit(self, n_points=10):
        """Least-squares fit amplitude^2 = c (lambda - lambda_b) over the
        first points; returns (c, r_squared)."""
        n = min(n_points, len(self.points))
        x = self.lambdas()[:n] - self.bifurcation_lambda
        y = self.amplitudes()[:n] ** 2
        c = float(x @ y) / float(x @ x)
        ss_res = float(np.sum((y - c * x) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
        return c, r2


class _RescaledSystem:
    """G(lambda, a) on odd sine coefficients, period 2 pi."""

    def __init__(self, frac: FracOrder, well: DoubleWell, N=DEFAULT_N):
        f2_0 = float(well.f2(0.0))
        if f2_0 >= 0:
            raise ValueError("bifurcation analysis requires F''(0) < 0")
        self.scale = 1.0 / (-f2_0)
        self.cls = _SymmetryClass("odd", 2.0 * math.pi, N, frac)
        self.well = well
        self.N = N

    def residual(self, a, lam):
        cls = self.cls
        return cls.lam * a + lam * self.scale * cls.project(self.well.f1(cls.values(a)))

    def jac_u(self, a, lam):
        cls = self.cls
        return np.diag(cls.lam) + lam * self.scale * cls.gram(self.well.f2(cls.values(a)))

    def jac_lam(self, a):
        cls = self.cls
        return self.scale * cls.project(self.well.f1(cls.values(a)))

    def res_norm(self, a, lam):
        return self.cls.l2_norm(self.residual(a, lam))

    def sigma_min(self, a, lam):
        return float(np.linalg.svd(self.jac_u(a, lam), compute_uv=False)[-1])

    def to_function(self, a):
        return self.cls.to_function(a)


def detect_bifurcation_points(frac: FracOrder, well: DoubleWell, m_max, N=None):
    """Values of lambda where the linearization at the trivial branch is
    singular in the odd 2 pi class, ascending, at most m_max of them.

    G_u(lambda, 0) = diag(lambda_m) + lambda B with B = gram(F''(0)) / -F''(0),
    so the singular lambda are the positive eigenvalues of the symmetric-
    definite pencil diag(lambda_m) v = lambda (-B) v (-B is positive definite
    because F''(0) < 0)."""
    N = N or max(DEFAULT_N, m_max + 8)
    sys = _RescaledSystem(frac, well, N)
    cls = sys.cls
    B = sys.scale * cls.gram(well.f2(cls.values(np.zeros(N))))
    ev = eigh(np.diag(cls.lam), -B, eigvals_only=True)   # real, ascending
    return [float(v) for v in ev[ev > 0.0][:m_max]]


def _corrector(sys, a, lam, tangent, target, tol=RESIDUAL_TOL, max_iter=30):
    """Newton on [G; arclength constraint] for the bordered unknown (a, lambda)."""
    for _ in range(max_iter):
        res = sys.residual(a, lam)
        con = float(tangent[:-1] @ (a - target[:-1]) + tangent[-1] * (lam - target[-1]))
        if sys.cls.l2_norm(res) <= tol and abs(con) <= 1e-12:
            return a, lam
        J = np.zeros((sys.N + 1, sys.N + 1))
        J[: sys.N, : sys.N] = sys.jac_u(a, lam)
        J[: sys.N, -1] = sys.jac_lam(a)
        J[-1, :] = tangent
        rhs = np.concatenate([res, [con]])
        try:
            delta = np.linalg.solve(J, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        a = a - delta[:-1]
        lam = lam - delta[-1]
    raise NoConvergence("bordered Newton did not converge")


def _first_point(sys, lam_b, eps=1e-3):
    """Leave the trivial branch with predictor eps * sin(m x) and a pinned
    amplitude; solves for (a, lambda) with <a, e_m> fixed."""
    lin = np.abs(sys.cls.lam - lam_b)
    m_idx = int(np.argmin(lin))
    a = np.zeros(sys.N)
    a[m_idx] = eps
    tangent = np.zeros(sys.N + 1)
    tangent[m_idx] = 1.0
    target = np.concatenate([a, [lam_b + 1e-4]])
    return _corrector(sys, a, lam_b + 1e-4, tangent, target)


def continue_branch(frac: FracOrder, well: DoubleWell, lambda_start, steps, ds_arc,
                    N=None, max_retries=10) -> Branch:
    """Pseudo-arclength continuation from the trivial branch through the
    pitchfork nearest lambda_start, in the odd 2 pi class."""
    N = N or DEFAULT_N
    sys = _RescaledSystem(frac, well, N)
    targets = sys.cls.lam  # m^{2s}
    lam_b = float(targets[np.argmin(np.abs(targets - lambda_start))])

    def make_point(a, lam):
        if a[np.argmax(np.abs(a))] < 0:
            a = -a  # odd-class sign normalization <u, sin m x> >= 0
        u = sys.to_function(a)
        return a, BranchPoint(lam=lam, u=u, amplitude=u.amplitude(),
                              residual=sys.res_norm(a, lam),
                              sigma_min=sys.sigma_min(a, lam))

    a, lam = _first_point(sys, lam_b)
    a, pt = make_point(a, lam)
    points = [pt]
    z_prev = np.concatenate([a, [lam]])
    # second point along growing amplitude to define the tangent
    a2, lam2 = _first_point(sys, lam_b, eps=2e-3)
    a2, pt2 = make_point(a2, lam2)
    points.append(pt2)
    z = np.concatenate([a2, [lam2]])
    tangent = (z - z_prev) / np.linalg.norm(z - z_prev)

    ds = ds_arc
    while len(points) < steps:
        stepped = False
        for _ in range(max_retries):
            pred = z + ds * tangent
            try:
                a_new, lam_new = _corrector(sys, pred[:-1].copy(), float(pred[-1]), tangent, pred)
            except (NoConvergence, SingularJacobian):
                ds *= 0.5
                continue
            stepped = True
            break
        if not stepped:
            raise StepFailure(f"continuation step failed below ds = {ds:.2e}")
        z_new = np.concatenate([a_new, [lam_new]])
        tangent = (z_new - z) / np.linalg.norm(z_new - z)
        z = z_new
        a_new, pt = make_point(a_new, lam_new)
        if pt.amplitude < 1e-10:
            raise BranchLost("amplitude collapsed to the trivial branch")
        points.append(pt)
        ds = min(ds * 1.3, ds_arc)

    branch = Branch(points=tuple(points), bifurcation_lambda=lam_b, direction="")
    c, _ = branch.pitchfork_fit()
    return replace(branch, direction="supercritical" if c > 0 else "subcritical")


def classify_criticality(frac: FracOrder, well: DoubleWell, m, n_quad=4096):
    """Local pitchfork direction at lambda_{m+1} = m^{2s} from the cubic
    normal-form coefficient; 'inconclusive' when F'''(0) != 0 (transcritical
    branching is not excluded)."""
    if abs(float(well.f3(0.0))) > 1e-10:
        return "inconclusive"
    f2_0 = float(well.f2(0.0))
    if f2_0 >= 0:
        raise ValueError("requires F''(0) < 0")
    lam = float(m) ** (2.0 * frac.s)
    x = np.linspace(-math.pi, math.pi, n_quad, endpoint=False)
    phi = np.sin(m * x) / math.sqrt(math.pi)  # normalized: int phi^2 = 1
    phi4 = float(np.sum(phi**4)) * (2.0 * math.pi / n_quad)
    coeff = (lam * float(well.f4(0.0)) / (-f2_0)) * phi4 / 6.0
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


def verify_T0_bound(frac: FracOrder, well: DoubleWell, lambda_grid=None, N=None) -> T0Report:
    """Continue past the first pitchfork and undo the rescaling
    x = (lambda / -F''(0))^{1/(2s)} xbar, realizing solutions of the
    original equation with period T(lambda) = 2 pi (lambda/-F''(0))^{1/(2s)};
    each rescaled solution is re-verified against the period-T operator."""
    from .semilinear import newton_refine

    N = N or DEFAULT_N
    sys = _RescaledSystem(frac, well, N)
    if lambda_grid is None:
        lambda_grid = np.concatenate([[1.001, 1.003, 1.01, 1.03], np.arange(1.1, 4.01, 0.1)])
    lambda_grid = np.sort(np.asarray(lambda_grid, dtype=float))
    f2_0 = float(well.f2(0.0))
    bound = 2.0 * math.pi * (-f2_0) ** (-1.0 / (2.0 * frac.s))

    a, lam = _first_point(sys, 1.0, eps=1e-2)
    tangent = np.zeros(sys.N + 1)
    tangent[-1] = 1.0  # pins lambda; the corrector is plain Newton in a

    def advance(a, lam, lam_new):
        # predictor follows the pitchfork scaling amp ~ sqrt(lambda - 1) so
        # Newton does not fall back onto the trivial branch
        a_pred = a * math.sqrt(max(lam_new - 1.0, 0.0) / (lam - 1.0))
        target = np.concatenate([a_pred, [lam_new]])
        a_new, _ = _corrector(sys, a_pred, float(lam_new), tangent, target)
        if np.max(np.abs(a_new)) < 0.5 * np.max(np.abs(a_pred)):
            raise BranchLost("collapsed toward the trivial branch")
        return a_new

    entries = []
    for lam_target in lambda_grid:
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
        period = 2.0 * math.pi * (lam / (-f2_0)) ** (1.0 / (2.0 * frac.s))
        u_T = sys.to_function(a).rescaled(period)
        refined = newton_refine(u_T, period, frac, well, tol=1e-9)
        entries.append(
            T0Entry(lam=lam, period=period, amplitude=refined.amplitude,
                    residual_rescaled=refined.residual)
        )
    return T0Report(bound=bound, entries=tuple(entries))
