"""Certification of structural identities for computed solutions: the
Hamiltonian-type first integral of the extension, the pointwise
Modica-type inequality, the large-period energy scaling regimes, and the
piecewise-linear competitor bound that drives them.

The conserved quantity along x is

    w(x) - F(u(x)),   w(x) = (d_s / 2) int_0^inf [U_x^2 - U_y^2] y^a dy,

with U the degenerate-harmonic extension of a solution u; the d_s factor
makes the identity hold for every order s (it is 1 at s = 1/2).
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import zeta

from .errors import IdentityViolation, InequalityViolation
from .extension import ExtensionField, extend_bessel
from .semilinear import SemilinearSolution, SolveConfig, minimize_energy
from .spectral import DoubleWell, FracOrder, _gauss_jacobi_01, _gauss_legendre_01

__all__ = [
    "HamiltonianReport",
    "ModicaReport",
    "EnergyScanReport",
    "TestFunctionReport",
    "hamiltonian_check",
    "modica_check",
    "modica_pde_residual",
    "energy_scan",
    "test_function_bound",
]


def _trace(u):
    return u.u if isinstance(u, SemilinearSolution) else u


# ---------------------------------------------------------------------------
# Hamiltonian identity


@dataclass(frozen=True)
class HamiltonianReport:
    x: np.ndarray
    values: np.ndarray       # w(x_i) - F(u(x_i))
    c_t: float                # mean of values: the conserved constant
    max_deviation: float

    def rows(self):
        for xi, vi in zip(self.x, self.values):
            yield xi, vi, vi - self.c_t


def _squared_fields(field: ExtensionField, x, y_plus, y_minus):
    """U_x^2 on y_plus times x and (y^a U_y)^2 on y_minus times x, of shapes
    y.shape + x.shape.

    U_x = sum_m J_m(y) omega_m [a_m cos - b_m sin] and y^a U_y = sum_m
    psi_m(y) [a_m sin + b_m cos] with psi_m = y^a J_m', so a whole node batch
    takes one profile table and one matmul per factor.
    """
    u = field.base
    m = np.arange(1, u.N + 1)
    om = u.omega * m
    phase = np.multiply.outer(np.asarray(x, dtype=float), m) * u.omega
    Cx = np.cos(phase) * (om * u.sin_coeffs) - np.sin(phase) * (om * u.cos_coeffs[1:])
    Cy = np.sin(phase) * u.sin_coeffs + np.cos(phase) * u.cos_coeffs[1:]
    ux2 = (field.profile_table(y_plus) @ Cx.T) ** 2
    return ux2, (field.profile_table(y_minus, "weighted_deriv") @ Cy.T) ** 2


def hamiltonian_check(u, frac: FracOrder, well: DoubleWell, n_samples=64,
                      tol=1e-5, n_quad=128) -> HamiltonianReport:
    """Certify that w(x) - F(u(x)) is constant in x.

    Samples the conserved quantity at n_samples points over one period and
    compares against its mean; raises IdentityViolation with the worst
    sample when the deviation exceeds tol (an under-resolved quadrature or
    a non-solution input both trip it).
    """
    trace = _trace(u)
    field = extend_bessel(trace, frac, n_quad=n_quad)
    x = np.arange(n_samples) * (trace.T / n_samples)
    rule = field.quadrature
    # int_0^ymax [U_x^2 - U_y^2] y^a dy: U_y^2 y^a is (y^a U_y)^2 y^{-a}, finite at y = 0
    ux2, uy2 = _squared_fields(field, x, rule.nodes_plus, rule.nodes_minus)
    w = 0.5 * frac.d_s * (rule.weights_plus @ ux2 - rule.weights_minus @ uy2)
    values = w - well.f(trace(x))
    c_t = float(np.mean(values))
    dev = np.abs(values - c_t)
    worst = int(np.argmax(dev))
    report = HamiltonianReport(x=x, values=values, c_t=c_t, max_deviation=float(dev[worst]))
    if report.max_deviation > tol:
        raise IdentityViolation(float(x[worst]), report.max_deviation)
    return report


# ---------------------------------------------------------------------------
# Modica-type inequality


@dataclass(frozen=True)
class ModicaReport:
    x: np.ndarray
    y: np.ndarray
    v_hat: np.ndarray          # shape (len(y), len(x)); row 0 is y = 0
    c_hat: float
    c_hat_lower: float         # (d_s/2) int_0^inf U_y^2(T/2, tau) tau^a dtau
    argmax: tuple              # (x, y) of the grid maximum
    top_row_max: float         # max |v_hat| on the largest-y row (tail -> 0)


def modica_check(u, frac: FracOrder, well: DoubleWell, c_t=None, nx=64, ny=64,
                 tol=1e-5, n_quad=96) -> ModicaReport:
    """Pointwise bound v_hat(x, y) <= C_hat on a grid of the half-strip.

    v_hat(x,y) = (d_s/2) int_0^y [U_x^2 - U_y^2] tau^a dtau - F(u(x)) - C_T
    with C_hat = sup_x (-F(u(x)) - C_T) > 0; the grid maximum must sit on
    the y = 0 row.  Raises InequalityViolation at the first offending point.
    """
    trace = _trace(u)
    if c_t is None:
        c_t = hamiltonian_check(u, frac, well, n_samples=nx, tol=np.inf).c_t
    field = extend_bessel(trace, frac, n_quad=n_quad)
    x = np.arange(nx) * (trace.T / nx)
    y_pos = np.geomspace(0.02 / trace.omega, 12.0 / trace.omega, ny - 1)
    boundary = -well.f(trace(x)) - c_t
    # one Jacobi rule on (0, 1), rescaled per row: nodes scale linearly,
    # weights pick up y^{1 +- a}
    base = field.quadrature.scaled(1.0)
    ux2, uy2 = _squared_fields(field, x, np.multiply.outer(y_pos, base.nodes_plus),
                               np.multiply.outer(y_pos, base.nodes_minus))
    wp = base.weights_plus * y_pos[:, None] ** (1.0 + frac.a)
    wm = base.weights_minus * y_pos[:, None] ** (1.0 - frac.a)
    kinetic = np.einsum("jnx,jn->jx", ux2, wp) - np.einsum("jnx,jn->jx", uy2, wm)
    v_hat = np.vstack([boundary, 0.5 * frac.d_s * kinetic + boundary])
    y = np.concatenate(([0.0], y_pos))

    c_hat = float(np.max(boundary))
    flat = int(np.argmax(v_hat))
    iy, ix = np.unravel_index(flat, v_hat.shape)
    worst = float(v_hat[iy, ix])
    if worst > c_hat + tol:
        raise InequalityViolation((float(x[ix]), float(y[iy])), worst - c_hat)
    # C_hat >= (d_s/2) int U_y^2(T/2, tau) tau^a dtau, with equality for even
    # solutions (U_x vanishes on the reflection axis x = T/2)
    rule = field.quadrature
    _, uy2 = _squared_fields(field, trace.T / 2.0, rule.nodes_plus, rule.nodes_minus)
    lower = 0.5 * frac.d_s * float(rule.weights_minus @ uy2)
    return ModicaReport(
        x=x, y=y, v_hat=v_hat, c_hat=c_hat, c_hat_lower=lower,
        argmax=(float(x[ix]), float(y[iy])),
        top_row_max=float(np.max(np.abs(v_hat[-1]))),
    )


def modica_pde_residual(u, frac: FracOrder, points, h=1e-4):
    """Max residual of div(y^{-a} grad v_hat) = d_s a y^{-1} U_y^2 at interior
    points, by centered differences of the analytic first-derivative fields
    y^{-a} v_hat_x = -d_s U_x U_y and y^{-a} v_hat_y = (d_s/2)(U_x^2 - U_y^2).
    """
    trace = _trace(u)
    field = extend_bessel(trace, frac)
    d_s, a = frac.d_s, frac.a

    def P(x, y):
        return -d_s * field.dx(x, y) * field.dy(x, y)

    def Q(x, y):
        return 0.5 * d_s * (field.dx(x, y) ** 2 - field.dy(x, y) ** 2)

    worst = 0.0
    for x0, y0 in points:
        div = (P(x0 + h, y0) - P(x0 - h, y0)) / (2 * h) + (
            Q(x0, y0 + h) - Q(x0, y0 - h)
        ) / (2 * h)
        rhs = d_s * a * field.dy(x0, y0) ** 2 / y0
        worst = max(worst, abs(float(div - rhs)))
    return worst


# ---------------------------------------------------------------------------
# energy scaling in the period


@dataclass(frozen=True)
class EnergyScanReport:
    entries: tuple             # (T, J) pairs, T increasing
    regime: str                # sub-half | half | super-half
    slope: float               # log-log slope (s != 1/2) or J-vs-lnT slope
    ratio: float               # J(T_max) / J(T_min)
    sigma: float               # J / (F(0) T) at the largest period
    sigma_values: tuple

    def table(self):
        return np.array(self.entries)


def _scan_cell(args):
    T, frac, well, seed = args
    cfg = SolveConfig(symmetry="odd", N=max(64, int(1.5 * T)), seed=seed)
    sol = minimize_energy(T, frac, well, cfg)
    return T, sol.energy


def energy_scan(frac: FracOrder, well: DoubleWell, T_list, jobs=1, seed=0) -> EnergyScanReport:
    """Minimize at each period and fit the growth law of J(U_T).

    Expected regimes: J ~ T^{1-2s} for s < 1/2, J ~ ln T at s = 1/2, and
    bounded J for s > 1/2; also records sigma = J/(F(0) T), which must drop
    below 1/2 for large periods.
    """
    T_list = sorted(T_list)
    work = [(T, frac, well, seed) for T in T_list]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            entries = list(pool.map(_scan_cell, work))
    else:
        entries = [_scan_cell(wk) for wk in work]
    entries.sort()
    Ts = np.array([e[0] for e in entries])
    Js = np.array([e[1] for e in entries])
    if frac.s < 0.5:
        regime = "sub-half"
        slope = float(np.polyfit(np.log(Ts), np.log(Js), 1)[0])
    elif frac.s == 0.5:
        regime = "half"
        slope = float(np.polyfit(np.log(Ts), Js, 1)[0])
    else:
        regime = "super-half"
        slope = float(np.polyfit(np.log(Ts), np.log(Js), 1)[0])
    sigmas = Js / (float(well.f(0.0)) * Ts)
    return EnergyScanReport(
        entries=tuple((float(T), float(J)) for T, J in entries),
        regime=regime,
        slope=slope,
        ratio=float(Js[-1] / Js[0]),
        sigma=float(sigmas[-1]),
        sigma_values=tuple(float(s) for s in sigmas),
    )


# ---------------------------------------------------------------------------
# piecewise-linear competitor bound


@dataclass(frozen=True)
class TestFunctionReport:
    T: float
    d: float
    region_far: float          # |x - xbar| >= T/2
    region_plateau: float      # opposite plateaus, separation >= 2d
    region_mixed: float        # plateau against the interface layer
    region_layer: float        # both variables inside the layer
    bound_far: float
    bound_plateau: float
    bound_mixed: float
    bound_layer: float
    gagliardo_total: float     # full double integral over period x R
    f_integral: float          # int_0^{T/2} F(h)
    total: float               # gagliardo_total + f_integral
    j_bound: float             # upper bound comparable to the energy J

    def regions(self):
        return (
            ("far", self.region_far, self.bound_far),
            ("plateau", self.region_plateau, self.bound_plateau),
            ("mixed", self.region_mixed, self.bound_mixed),
            ("layer", self.region_layer, self.bound_layer),
        )


def _competitor(T, d):
    """Odd T-periodic ramp profile: x/d across the layer, +-1 on the plateaus."""

    def h(x):
        x = np.mod(np.asarray(x, dtype=float) + T / 2.0, T) - T / 2.0
        r = np.abs(x)
        core = np.where(r <= d, r / d, np.where(r <= T / 2.0 - d, 1.0, (T / 2.0 - r) / d))
        return np.sign(x) * core

    return h


def _autocorr_G(h, T, n=8192):
    """G(r) = int_{-T/2}^{T/2} |h(x) - h(x - r)|^2 dx on a fine grid (FFT)."""
    x = np.arange(n) * (T / n)
    v = h(x)
    # circular autocorrelation: G(r) = 2 (||h||^2 - <h, h(.-r)>)
    F = np.fft.rfft(v)
    corr = np.fft.irfft(F * np.conj(F), n) * (T / n)
    norm2 = float(v @ v) * (T / n)
    G = 2.0 * (norm2 - corr)
    return x, np.maximum(G, 0.0)


def _tail_integral(rg, G, T, r0, s):
    """int_{r0}^inf G(r) r^{-1-2s} dr for T-periodic G, via Hurwitz zeta."""
    # r = r0 + rho + jT, j >= 0: sum_j (.)^{-1-2s} = T^{-1-2s} zeta(1+2s, (r0+rho)/T)
    rho = rg
    Gs = np.interp(np.mod(r0 + rho, T), rg, G, period=T)
    weight = T ** (-1.0 - 2.0 * s) * zeta(1.0 + 2.0 * s, (r0 + rho) / T)
    return float(np.trapezoid(Gs * weight, rho))


def _near_integral(rg, G, T, s, d):
    """int_0^T G(r) r^{-1-2s} dr; the r^{1-2s} singularity is handled by
    Gauss-Jacobi on [0, d] applied to the smooth factor G(r)/r^2."""
    r, wq = _gauss_jacobi_01(64, 1.0 - 2.0 * s)
    r = d * r
    wq = wq * d ** (2.0 - 2.0 * s)
    g_over_r2 = np.interp(r, rg, G) / r**2
    out = float(g_over_r2 @ wq)
    mask = rg >= d
    out += float(np.trapezoid(G[mask] * rg[mask] ** (-1.0 - 2.0 * s), rg[mask]))
    return out


def _pair_integral(ax, bx, cx, dx, h, s, n=96):
    """int_a^b int_c^d |h(x)-h(xbar)|^2 / |x-xbar|^{1+2s} dxbar dx (disjoint)."""
    r, w = _gauss_legendre_01(n)
    x = ax + (bx - ax) * r
    wx = (bx - ax) * w
    xb = cx + (dx - cx) * r
    wxb = (dx - cx) * w
    hx = h(x)[:, None]
    hxb = h(xb)[None, :]
    kern = (hx - hxb) ** 2 / np.abs(x[:, None] - xb[None, :]) ** (1.0 + 2.0 * s)
    return float(wx @ kern @ wxb)


def test_function_bound(frac: FracOrder, T, d, well: DoubleWell) -> TestFunctionReport:
    """Energy of the ramp competitor, split into the four interaction regions.

    Each region is integrated directly and compared with its closed-form
    upper bound; the full Gagliardo double integral plus the potential term
    yields an explicit upper bound for the minimal energy at period T.
    """
    if not 0.0 < d < T / 4.0:
        raise ValueError("layer width d must lie in (0, T/4)")
    s = frac.s
    h = _competitor(T, d)
    rg, G = _autocorr_G(h, T)

    region_far = 2.0 * _tail_integral(rg, G, T, T / 2.0, s)
    bound_far = 4.0 / s * (T / 2.0) ** (-2.0 * s) * T  # |h - hbar|^2 <= 4

    region_plateau = _pair_integral(-T / 2.0 + d, -d, d, T / 2.0 - d, h, s)
    # (2/s) int_{-T/2-d}^{-d} (d - x)^{-2s} dx, split at the s = 1/2 log case
    if s == 0.5:
        bound_plateau = 2.0 / s * math.log((T / 2.0 + 2.0 * d) / (2.0 * d))
    else:
        bound_plateau = (
            2.0 / s / (1.0 - 2.0 * s)
            * ((T / 2.0 + 2.0 * d) ** (1.0 - 2.0 * s) - (2.0 * d) ** (1.0 - 2.0 * s))
        )

    region_mixed = _pair_integral(-T / 2.0 + d, -d, -d, d, h, s)
    bound_mixed = (1.0 / (2.0 * s)) * d**-2 * (2.0 * d) ** (3.0 - 2.0 * s) / (3.0 - 2.0 * s)

    region_layer = (
        d**-2 * 2.0 * (2.0 * d) ** (3.0 - 2.0 * s)
        * (1.0 / (2.0 - 2.0 * s) - 1.0 / (3.0 - 2.0 * s))
    )
    bound_layer = region_layer  # the slope bound |h'| <= 1/d is saturated

    ggl_total = 2.0 * (_near_integral(rg, G, T, s, d) + _tail_integral(rg, G, T, T, s))
    xs = np.linspace(0.0, T / 2.0, 4097)
    f_int = float(np.trapezoid(well.f(h(xs)), xs))
    total = ggl_total + f_int
    j_bound = frac.c_sing / (8.0 * frac.d_s) * ggl_total + f_int
    return TestFunctionReport(
        T=T, d=d,
        region_far=region_far, region_plateau=region_plateau,
        region_mixed=region_mixed, region_layer=region_layer,
        bound_far=bound_far, bound_plateau=bound_plateau,
        bound_mixed=bound_mixed, bound_layer=bound_layer,
        gagliardo_total=ggl_total, f_integral=f_int, total=total, j_bound=j_bound,
    )
