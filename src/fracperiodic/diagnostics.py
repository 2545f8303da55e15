"""Certification of structural identities for computed solutions: the
Hamiltonian-type first integral of the extension, the pointwise
Modica-type inequality, the large-period energy scaling regimes, and the
piecewise-linear competitor bound that drives them.

The conserved quantity along x is

    w(x) - F(u(x)),   w(x) = (d_s / 2) int_0^inf [U_x^2 - U_y^2] y^a dy,

with U the degenerate-harmonic extension of a solution u; the d_s factor
makes the identity hold for every order s (it is 1 at s = 1/2).  With alpha_m = omega m, its two
y-integrals are quadratic forms in the trace's coefficients, the phases at omega m x:

    (d_s/2) int U_x^2 y^a dy = (1/2) sum_mn A_m A_n S_s(m, n),    A_m = alpha_m^s (a_m cos - b_m sin),
    (d_s/2) int U_y^2 y^a dy = (1/2) sum_mn B_m B_n S_{1-s}(m, n),  B_m = alpha_m^s (a_m sin + b_m cos),

S_nu(m, n) = sinh(nu r) / sinh(r) at r = log(m / n) and S_nu(m, m) = nu, by Gradshteyn and Ryzhik
6.521.3 for int_0^inf t K_nu(pt) K_nu(qt) dt and Gamma(s) Gamma(1 - s) = pi / sin(pi s).

The Modica scan needs the partial integrals int_0^y, i.e. these minus their tails beyond y.  Each
mode's profile J_m(y) = phi(alpha_m y) solves (y^a J_m')' = alpha_m^2 y^a J_m, so Lommel's
identity (Watson, A Treatise on the Theory of Bessel Functions, 1944, 5.11) gives every tail from
J and W = y^a J' at the height itself:

    P_mn(y) = int_y^inf t^a J_m J_n dt = (J_m W_n - W_m J_n) / (alpha_m^2 - alpha_n^2),   m != n,
    P_mm(y) = (1/2) [y^{1-a} W_m^2 / alpha_m^2 - y^{1+a} J_m^2 - (2s / alpha_m^2) J_m W_m],
    Q_mn(y) = int_y^inf t^a J_m' J_n' dt = -W_m J_n - alpha_m^2 P_mn(y)   (by parts).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import IdentityViolation, InequalityViolation
from .extension import ExtensionField, extend_bessel
from .semilinear import SemilinearSolution, SolveConfig, minimize_energy
from .spectral import (DoubleWell, FracOrder, PeriodicFunction, _check_period, _check_types, _gauss_jacobi_01,
                       _gauss_legendre_01, _hurwitz_zeta)

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

PDE_STEP = 1e-4           # centered-difference step of modica_pde_residual
_PAIR_BLOCK = 2**14       # entries of modica_check's tables per block of mode pairs: 128 KiB, glibc's mmap threshold


def _trace(u, frac, **more):
    """The trace of u, once u, frac and the parameters ``more`` have their types."""
    _check_types(u=(u, (PeriodicFunction, SemilinearSolution)), frac=(frac, FracOrder), **more)
    return u.u if isinstance(u, SemilinearSolution) else u


def _check_certificate_args(tol, **counts):
    """A NaN or negative tol, or a sample count that is no integer >= 1, would switch
    the certificate off or space its samples wrongly; tol = inf only reports."""
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative (inf allowed), got {tol!r}")
    for name, n in counts.items():
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise ValueError(f"{name} must be an integer at least 1, got {n!r}")


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


def _axis_forms(u, s, x):
    """(d_s/2) int_0^inf U_x^2 y^a dy and (d_s/2) int_0^inf U_y^2 y^a dy at the points x, by the
    module docstring's closed form over the modes with a nonzero coefficient."""
    m = np.flatnonzero((u.sin_coeffs != 0.0) | (u.cos_coeffs[1:] != 0.0)) + 1
    sin, cos, (a, b), _ = u._modes(x, m)
    r = np.log(np.divide.outer(m, m))

    def form(c, nu):
        S = np.divide(np.sinh(nu * r), np.sinh(r), out=np.full(r.shape, nu), where=r != 0.0)
        c = c * (u.omega * m) ** s
        return 0.5 * np.sum((c @ S) * c, axis=-1)

    return form(cos * a - sin * b, s), form(sin * a + cos * b, 1.0 - s)


def hamiltonian_check(u, frac: FracOrder, well: DoubleWell, n_samples=64,
                      tol=1e-5) -> HamiltonianReport:
    """Certify that w(x) - F(u(x)) is constant in x.

    Samples the conserved quantity at n_samples points over one period and
    compares against its mean; raises IdentityViolation with the worst
    sample when the deviation exceeds tol (a non-solution input or an
    under-resolved truncation trips it).  Raises ValueError when the squared
    top frequency (2 pi N / T)^2 of the trace exceeds 1e150, where U_x^2
    overflows.
    """
    _check_certificate_args(tol, n_samples=n_samples)
    trace = _trace(u, frac, well=(well, DoubleWell))
    _check_period(trace.T, trace.N, 1.0)
    x = np.arange(n_samples) * (trace.T / n_samples)
    values = np.subtract(*_axis_forms(trace, frac.s, x)) - well.f(trace(x))
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


def _tails(field: ExtensionField, y):
    """(P, J, W) at the heights y: J and W of shape (len(y), S), S the field's support, and P(m, n),
    of shape (len(y), len(m)), the P_mn(y_j) of the module docstring at support index pairs m <= n."""
    s = field.frac.s
    J, W = field._table(y), field._table(y, "weighted_deriv")
    alpha2 = (field.base.omega * field._support) ** 2
    yk = y[:, None]
    diag = 0.5 * (yk ** (2.0 * s) * W**2 / alpha2 - yk ** (2.0 - 2.0 * s) * J**2 - 2.0 * s / alpha2 * J * W)

    def P(m, n):
        p = J[:, m] * W[:, n]
        p -= W[:, m] * J[:, n]
        p /= np.where(m != n, alpha2[m] - alpha2[n], 1.0)
        p[:, m == n] = diag[:, m[m == n]]
        return p

    return P, J, W


def modica_check(u, frac: FracOrder, well: DoubleWell, nx=64, ny=64, tol=1e-5) -> ModicaReport:
    """Pointwise bound v_hat(x, y) <= C_hat on a grid of the half-strip.

    v_hat(x,y) = (d_s/2) int_0^y [U_x^2 - U_y^2] tau^a dtau - F(u(x)) - C_T
    with C_hat = sup_x (-F(u(x)) - C_T) > 0 and C_T the constant of
    hamiltonian_check on the same nx points; the grid maximum must sit on
    the y = 0 row; c_hat_lower, the U_y integral at x = T/2 in closed form, equals C_hat
    for an even solution.  Above y = 0, v_hat is hamiltonian_check's w - F - C_T (the
    y = inf row) minus the closed-form tails beyond y of the module docstring.  Raises
    InequalityViolation at the first offending point, and ValueError at a period too
    small for hamiltonian_check.
    """
    _check_certificate_args(tol, nx=nx, ny=ny)
    trace = _trace(u, frac, well=(well, DoubleWell))
    ham = hamiltonian_check(u, frac, well, n_samples=nx, tol=np.inf)
    c_t, x = ham.c_t, ham.x
    y = np.concatenate(([0.0], np.geomspace(0.02 / trace.omega, 12.0 / trace.omega, ny - 1)))
    field = extend_bessel(trace, frac)
    P, J, W = _tails(field, y[1:])
    sin, cos, (a, b), (a_x, b_x) = field._modes(x)
    c, c_x, alpha2 = sin * a + cos * b, sin * a_x + cos * b_x, (trace.omega * field._support) ** 2
    # sum_mn [c_x,m c_x,n P_mn - c_m c_n Q_mn] = (c.W)(c.J) + sum_mn K_mn P_mn, on m <= n (P is symmetric), by
    # blocks of pairs whose (point or height) x pair tables hold at most _PAIR_BLOCK entries
    pairs = np.vstack(np.triu_indices(alpha2.size))
    tails = (W @ c.T) * (J @ c.T)
    for m, n in np.array_split(pairs, max(1, -(-pairs.shape[1] * max(nx, ny) // _PAIR_BLOCK)), axis=1):
        K = c_x[:, m] * c_x[:, n]
        K += c[:, m] * c[:, n] * (0.5 * (alpha2[m] + alpha2[n]))
        K[:, m != n] *= 2.0   # for (m, n) and (n, m)
        tails += P(m, n) @ K.T
    boundary = -well.f(trace(x)) - c_t
    v_hat = np.vstack([boundary, ham.values - c_t - 0.5 * frac.d_s * tails])

    c_hat = float(np.max(boundary))
    flat = int(np.argmax(v_hat))
    iy, ix = np.unravel_index(flat, v_hat.shape)
    worst = float(v_hat[iy, ix])
    if worst > c_hat + tol:
        raise InequalityViolation((float(x[ix]), float(y[iy])), worst - c_hat)
    # C_hat >= (d_s/2) int U_y^2(T/2, tau) tau^a dtau, with equality for even
    # solutions (U_x vanishes on the reflection axis x = T/2)
    return ModicaReport(
        x=x, y=y, v_hat=v_hat, c_hat=c_hat, c_hat_lower=float(_axis_forms(trace, frac.s, trace.T / 2.0)[1]),
        argmax=(float(x[ix]), float(y[iy])),
        top_row_max=float(np.max(np.abs(v_hat[-1]))),
    )


def modica_pde_residual(u, frac: FracOrder, points):
    """Max residual of div(y^{-a} grad v_hat) = d_s a y^{-1} U_y^2 at interior
    points, by centered differences of the analytic first-derivative fields
    y^{-a} v_hat_x = -d_s U_x U_y and y^{-a} v_hat_y = (d_s/2)(U_x^2 - U_y^2).
    Raises ValueError unless every point lies above y = PDE_STEP, so that
    the differences stay on the half-strip.
    """
    points = list(points)
    low = [(x0, y0) for x0, y0 in points if not y0 > PDE_STEP]
    if low:
        raise ValueError(f"points must have y > PDE_STEP = {PDE_STEP:g}, the difference step; got {low[0]}")
    trace = _trace(u, frac)
    field = extend_bessel(trace, frac)
    d_s, a, h = frac.d_s, frac.a, PDE_STEP

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


def _growth_slope(frac: FracOrder, Ts, Js):
    """Least-squares slope of the growth law of J over the periods: of J
    against ln T at s = 1/2 (J ~ ln T), of ln J against ln T otherwise."""
    return float(np.polyfit(np.log(Ts), Js if frac.s == 0.5 else np.log(Js), 1)[0])


def energy_scan(frac: FracOrder, well: DoubleWell, T_list) -> EnergyScanReport:
    """Minimize at each period, in increasing order, and fit the growth law
    of J(U_T).

    Expected regimes: J ~ T^{1-2s} for s < 1/2, J ~ ln T at s = 1/2, and
    bounded J for s > 1/2; also records sigma = J/(F(0) T), which must drop
    below 1/2 for large periods.
    """
    periods = sorted(T_list)
    if len(periods) < 2 or len(set(periods)) < len(periods):
        raise ValueError(f"T_list must hold two or more periods, each once, to fit a slope, got {periods}")
    entries = []
    for T in periods:
        cfg = SolveConfig(symmetry="odd", N=max(64, int(1.5 * T)))
        entries.append((T, minimize_energy(T, frac, well, cfg).energy))
    Ts, Js = np.array(entries).T
    regime = "sub-half" if frac.s < 0.5 else ("half" if frac.s == 0.5 else "super-half")
    sigmas = Js / (float(well.f(0.0)) * Ts)
    return EnergyScanReport(
        entries=tuple((float(T), float(J)) for T, J in entries),
        regime=regime,
        slope=_growth_slope(frac, Ts, Js),
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
    weight = T ** (-1.0 - 2.0 * s) * _hurwitz_zeta(1.0 + 2.0 * s, (r0 + rho) / T)
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
    Raises ValueError unless T/128 <= d < T/4: a narrower layer spans
    fewer than 64 spacings of the autocorrelation grid, which then misses
    the double integral by more than 1 % at s = 1/2.
    """
    _check_types(frac=(frac, FracOrder), well=(well, DoubleWell))
    if not T / 128.0 <= d < T / 4.0:
        raise ValueError(f"layer width d must lie in [T/128, T/4) = [{T / 128.0:g}, {T / 4.0:g}), got {d!r}")
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
