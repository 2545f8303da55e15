"""Two independent constructions of the degenerate-elliptic harmonic
extension U(x,y) of a periodic trace, its Dirichlet-to-Neumann map, and
the y^a-weighted Dirichlet energy.

Bessel route: each Fourier mode of the trace is damped in y by the
universal profile

    phi(t) = mu t^s K_s(t),  t = (2 pi m / T) y,  phi(0) = 1,

with K_s the second modified Bessel function.  Poisson route: convolution
with the s-Poisson kernel folded over all periodic images.  The kernel is
even, so the convolution damps mode m by the kernel's cosine coefficient
c_m(y) = int P_per(z, y) cos(omega m z) dz, which a fixed composite
Gauss-Legendre rule computes from kernel values alone (no Bessel function).
The two routes agree and cross-certify each other; the Bessel route
additionally exposes analytic x/y derivatives for the diagnostics module.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gamma, kv, roots_jacobi, zeta

from .errors import ExtrapolationDivergence, QuadratureNonConvergence, TailNotConverged
from .spectral import FracOrder, PeriodicFunction, _gauss_legendre_01

__all__ = [
    "BesselProfile",
    "ExtensionField",
    "YQuadrature",
    "extend_bessel",
    "extend_poisson",
    "dirichlet_to_neumann",
    "extension_energy",
    "poisson_kernel_periodized",
]

_SERIES_SWITCH = 2.0   # series below, scipy.special.kv above
_SERIES_TERMS = 18     # below t = 2 the terms from j = 18 on are under 1e-28
_OVERFLOW_ARG = 700.0  # K_s underflows; profile clamped to 0 beyond


def _horner(c, x):
    """sum_j c_j x^j by Horner's rule, in place on one array."""
    out = np.full_like(x, c[-1])
    for cj in c[-2::-1]:
        out *= x
        out += cj
    return out


def _scaled_kv(c, p, nu, t):
    """c t^p K_nu(t), computed in place on t (callers pass a fresh copy), so
    a large table costs one temporary instead of four."""
    k = kv(nu, t)
    t **= p
    k *= t
    k *= c
    return k


class _Profile:
    """Universal mode profile phi_s(t) = mu t^s K_s(t) and derivatives.

    Small arguments sum the power series in t^{2j} and t^{2s+2j} by Horner
    in t^2 (no cancellation); large arguments use one kv per point through
    d/dt [t^s K_s(t)] = -t^s K_{1-s}(t).  Every method takes an array of any
    shape, so one call serves a whole (y x mode) table.
    """

    def __init__(self, s):
        self.s = s
        j = np.arange(_SERIES_TERMS)
        fact = np.cumprod(np.concatenate(([1.0], j[1:])))
        self.alpha = gamma(1 - s) * 0.25**j / (fact * gamma(j + 1 - s))
        self.beta = -gamma(1 - s) * 2.0 ** (-2 * s) * 0.25**j / (fact * gamma(j + 1 + s))
        self.dalpha = (2 * j * self.alpha)[1:]   # alpha-part of phi'(t) / t, in powers of t^2
        self.dbeta = (2 * s + 2 * j) * self.beta
        self.mu = 2.0 ** (1 - s) * gamma(1 - s) * math.sin(s * math.pi) / math.pi

    def _split(self, t):
        t = np.asarray(t, dtype=float)
        small = (t > 0) & (t < _SERIES_SWITCH)
        big = (t >= _SERIES_SWITCH) & (t <= _OVERFLOW_ARG)
        return t, np.zeros_like(t), small, big

    def value(self, t):
        t, out, small, big = self._split(t)
        ts = t[small]
        t2 = ts * ts
        out[small] = _horner(self.alpha, t2) + ts ** (2 * self.s) * _horner(self.beta, t2)
        out[big] = _scaled_kv(self.mu, self.s, self.s, t[big])
        out[t == 0] = 1.0
        return out

    def deriv(self, t):
        """phi'(t); singular like t^{2s-1} at 0 for s < 1/2."""
        s = self.s
        t, out, small, big = self._split(t)
        ts = t[small]
        t2 = ts * ts
        out[small] = ts * _horner(self.dalpha, t2) + ts ** (2 * s - 1) * _horner(self.dbeta, t2)
        out[big] = _scaled_kv(-self.mu, s, 1 - s, t[big])
        out[t == 0] = np.inf if s < 0.5 else (0.0 if s > 0.5 else -1.0)
        return out

    def weighted_deriv(self, t):
        """psi(t) = t^{1-2s} phi'(t); psi(0) = -C_s = -(2s/4^s) Gamma(1-s)/Gamma(1+s)."""
        s = self.s
        t, out, small, big = self._split(t)
        ts = t[small]
        t2 = ts * ts
        out[small] = ts ** (2 - 2 * s) * _horner(self.dalpha, t2) + _horner(self.dbeta, t2)
        out[big] = _scaled_kv(-self.mu, 1 - s, 1 - s, t[big])
        out[t == 0] = self.dbeta[0]
        return out


@dataclass(frozen=True)
class BesselProfile:
    """Mode profile J(y) = mu y^s K_s(omega y), normalized so J(0) = 1."""

    omega: float
    frac: FracOrder
    _phi: _Profile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_phi", _Profile(self.frac.s))

    @property
    def mu(self):
        return self._phi.mu * self.omega**self.frac.s

    def value(self, y):
        return self._phi.value(self.omega * np.asarray(y, dtype=float))

    def deriv(self, y):
        return self.omega * self._phi.deriv(self.omega * np.asarray(y, dtype=float))

    def weighted_deriv(self, y):
        """y^a J'(y); tends to -C_s omega^{2s} as y -> 0."""
        return self.omega ** (2 * self.frac.s) * self._phi.weighted_deriv(
            self.omega * np.asarray(y, dtype=float)
        )


@dataclass(frozen=True)
class YQuadrature:
    """Gauss-Jacobi rules on (0, y_max) for the weights y^a and y^{-a}."""

    y_max: float
    a: float
    n: int = 128
    nodes_plus: np.ndarray = field(init=False, repr=False)
    weights_plus: np.ndarray = field(init=False, repr=False)
    nodes_minus: np.ndarray = field(init=False, repr=False)
    weights_minus: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for sign, nm in ((+1.0, "plus"), (-1.0, "minus")):
            beta = sign * self.a
            t, w = roots_jacobi(self.n, 0.0, beta)
            y = self.y_max * (t + 1.0) / 2.0
            wy = w * (self.y_max / 2.0) ** (beta + 1.0)
            y.flags.writeable = False
            wy.flags.writeable = False
            object.__setattr__(self, f"nodes_{nm}", y)
            object.__setattr__(self, f"weights_{nm}", wy)

    def scaled(self, y_max):
        return YQuadrature(y_max=y_max, a=self.a, n=self.n)


# ---------------------------------------------------------------------------
# periodized Poisson kernel

_MAX_BINOMIAL_TERMS = 60
_BLOCK = 1 << 18   # array elements per block of kernel images or cosine terms


def poisson_kernel_periodized(z, y, frac: FracOrder, T):
    """sum_j p_s(z + jT, y): the s-Poisson kernel folded over all images.

    Near images are summed directly, in blocks of at most _BLOCK array
    elements; the two one-sided tails are expanded binomially in
    (y/|z+jT|)^2 and summed in closed form with Hurwitz zeta, which is exact
    to machine precision.
    """
    s = frac.s
    p = (1.0 + 2.0 * s) / 2.0
    z = np.asarray(z, dtype=float)
    zr = z - T * np.rint(z / T)   # into [-T/2, T/2], exact for |z| < T/2 (the peak)
    jc = 8 + int(math.ceil(3.0 * abs(y) / T))
    step = max(1, _BLOCK // zr.size)   # images per block: memory stays flat as y grows
    direct = sum(np.sum(((zr[..., None] + np.arange(lo, min(lo + step, jc + 1)) * T) ** 2
                         + y * y) ** (-p), axis=-1) for lo in range(-jc, jc + 1, step))

    # tails j > jc and j < -jc
    tail = np.zeros_like(zr)
    coeff = 1.0
    ypow = 1.0
    for i in range(_MAX_BINOMIAL_TERMS):
        q = 2.0 * p + 2.0 * i
        term = coeff * ypow * T ** (-q) * (
            zeta(q, jc + 1.0 + zr / T) + zeta(q, jc + 1.0 - zr / T)
        )
        tail += term
        if np.max(np.abs(term)) < 1e-18 * max(np.max(direct), 1e-300):
            break
        coeff *= -(p + i) / (i + 1.0)
        ypow *= y * y
    return frac.c_poisson * abs(y) ** (2.0 * s) * (direct + tail)


_POISSON_ORDERS = (20, 30)   # Gauss-Legendre nodes per panel: the value and its check
_POISSON_TOL = 1e-12


def _cosine_sums(z, wk, om):
    """sum_i wk_i cos(om z_i) for every om, in blocks of at most _BLOCK cosines."""
    step = max(1, _BLOCK // om.size)
    return sum(wk[i:i + step] @ np.cos(np.multiply.outer(z[i:i + step], om))
               for i in range(0, z.size, step))


def _poisson_cosine_coeffs(frac: FracOrder, T, N, y):
    """c_m(y) = int_{-T/2}^{T/2} P_per(z, y) cos(omega m z) dz for m = 0..N.

    Composite Gauss-Legendre on [0, T/2] (the kernel is even): panel edges
    y/4, y/2, y, 2y, ... grade away from the peak at z = 0, and each panel
    is split so that none is longer than half a wavelength of mode N.  Both
    orders of _POISSON_ORDERS run on the same panels with one kernel call;
    QuadratureNonConvergence is raised when they differ by more than
    _POISSON_TOL.  c_0 is the kernel mass, 1 up to quadrature error.
    """
    half = 0.5 * T
    geo = y * 2.0 ** np.arange(-2.0, math.log2(half / y))   # y/4, y/2, y, ... below T/2
    edges = np.concatenate(([0.0], geo, [half]))
    pieces = np.ceil(np.diff(edges) * (max(N, 1) / half)).astype(int)
    edges = np.concatenate([np.linspace(a, b, n, endpoint=False)
                            for a, b, n in zip(edges[:-1], edges[1:], pieces)] + [[half]])
    left, width = edges[:-1], np.diff(edges)
    rules = [_gauss_legendre_01(n) for n in _POISSON_ORDERS]
    z = np.concatenate([(left[:, None] + np.multiply.outer(width, r)).ravel() for r, _ in rules])
    wk = np.concatenate([np.multiply.outer(2.0 * width, w).ravel() for _, w in rules])   # x2: even
    wk *= poisson_kernel_periodized(z, y, frac, T)
    om = (2.0 * math.pi / T) * np.arange(N + 1)
    n = width.size * _POISSON_ORDERS[0]
    low, high = _cosine_sums(z[:n], wk[:n], om), _cosine_sums(z[n:], wk[n:], om)
    err = float(np.max(np.abs(high - low)))
    if err > _POISSON_TOL:
        raise QuadratureNonConvergence(
            f"Poisson-kernel cosine coefficients at y = {y:.3e}: orders "
            f"{_POISSON_ORDERS} differ by {err:.3e} (tol {_POISSON_TOL:.0e})"
        )
    return high


# ---------------------------------------------------------------------------
# extension fields


@dataclass(frozen=True)
class ExtensionField:
    """Evaluable extension of a periodic trace on the half-strip.

    ``method`` is "bessel-series" or "poisson-convolution".  Both expose
    ``value``; the Bessel field additionally exposes analytic derivatives
    ``dx``, ``dy`` and the stable weighted derivative ``weighted_dy``
    (= y^a dU/dy, finite down to y = 0).
    """

    base: PeriodicFunction
    frac: FracOrder
    method: str
    y_max: float
    quadrature: YQuadrature

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _phi(self):
        return _Profile(self.frac.s)

    def profile_table(self, y, kind="value"):
        """(..., N) table of J_m(y), J_m'(y) or y^a J_m'(y) for m = 1..N.

        ``kind`` is "value", "deriv" or "weighted_deriv"; the universal
        profile is evaluated once on outer(y, omega_m).
        """
        om = self.base.omega * np.arange(1, self.base.N + 1)
        t = np.multiply.outer(np.asarray(y, dtype=float), om)
        if kind == "value":
            return self._phi.value(t)
        if kind == "deriv":
            return om * self._phi.deriv(t)
        if kind == "weighted_deriv":
            return om ** (2 * self.frac.s) * self._phi.weighted_deriv(t)
        raise ValueError(f"unknown profile kind {kind!r}")

    def _modal(self, x, damp, dx=False):
        """sum_m damp_m [a_m sin + b_m cos](omega m x) for a (..., N) table of
        per-mode damping factors (J_m(y), a derivative, or c_m(y)), or its
        x-derivative."""
        u = self.base
        m = np.arange(1, u.N + 1)
        phase = np.multiply.outer(np.asarray(x, dtype=float), m) * u.omega
        a, b = u.sin_coeffs, u.cos_coeffs[1:]
        if dx:   # d/dx [a sin + b cos](omega m x) = omega m [a cos - b sin]
            a, b = -u.omega * m * b, u.omega * m * a
        return (np.sin(phase) * damp) @ a + (np.cos(phase) * damp) @ b

    def value(self, x, y):
        if self.method == "poisson-convolution":
            return self._poisson_value(x, y)
        return self.base.cos_coeffs[0] + self._modal(x, self.profile_table(y))

    def dx(self, x, y):
        self._require_bessel()
        return self._modal(x, self.profile_table(y), dx=True)

    def dy(self, x, y):
        self._require_bessel()
        return self._modal(x, self.profile_table(y, "deriv"))

    def weighted_dy(self, x, y):
        """y^a dU/dy, evaluated without cancellation down to y = 0."""
        self._require_bessel()
        return self._modal(x, self.profile_table(y, "weighted_deriv"))

    def _require_bessel(self):
        if self.method != "bessel-series":
            raise NotImplementedError("analytic derivatives need the bessel-series field")

    # -- poisson convolution ----------------------------------------------

    def _poisson_value(self, x, y):
        """u * P_per(., y): mode m damped by the kernel's cosine coefficient
        c_m(y), one coefficient set per distinct height; c_m(0) = 1."""
        u = self.base
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.abs(np.asarray(y, dtype=float)))
        levels, inverse = np.unique(y, return_inverse=True)
        c = np.array([_poisson_cosine_coeffs(self.frac, u.T, u.N, yk) if yk else np.ones(u.N + 1)
                      for yk in levels])[inverse.reshape(y.shape)]
        return u.cos_coeffs[0] * c[..., 0] + self._modal(x, c[..., 1:])


def _extend(method, u: PeriodicFunction, frac: FracOrder, y_max, n_quad) -> ExtensionField:
    y_max = 40.0 / u.omega if y_max is None else y_max
    rule = YQuadrature(y_max=y_max, a=frac.a, n=n_quad)
    return ExtensionField(base=u, frac=frac, method=method, y_max=y_max, quadrature=rule)


def extend_bessel(u: PeriodicFunction, frac: FracOrder, y_max=None, n_quad=128) -> ExtensionField:
    """Mode-by-mode extension U(x,y) = b_0 + sum J_m(y) [a_m sin + b_m cos]."""
    return _extend("bessel-series", u, frac, y_max, n_quad)


def extend_poisson(u: PeriodicFunction, frac: FracOrder, y_max=None, n_quad=128) -> ExtensionField:
    """Extension by convolution with the periodized s-Poisson kernel."""
    return _extend("poisson-convolution", u, frac, y_max, n_quad)


# ---------------------------------------------------------------------------
# Dirichlet-to-Neumann map

_RICHARDSON_LEVELS = 7
_RICHARDSON_RATIO = 0.55


def _neumann_poisson(field: ExtensionField, x, y0):
    """-d_s lim y^a U_y at every x by fitting (U(x,y) - u(x))/y^{2s} against
    the boundary expansion kappa + c1 y^{2-2s} + c2 y^2 + c3 y^{4-2s}: one
    least-squares solve with a column per x."""
    s = field.frac.s
    ys = y0 * _RICHARDSON_RATIO ** np.arange(_RICHARDSON_LEVELS)
    ux = field.base(x)
    f = np.array([(field.value(x, yi) - ux) / yi ** (2 * s) for yi in ys])
    expo = [2.0 - 2.0 * s, 2.0, 4.0 - 2.0 * s]
    A = np.column_stack([np.ones_like(ys)] + [ys**p for p in expo])
    coef, *_ = np.linalg.lstsq(A, f, rcond=None)
    fit_err = np.max(np.abs(A @ coef - f), axis=0)
    scale = np.maximum(1.0, np.max(np.abs(f), axis=0))
    worst = int(np.argmax(fit_err / scale))
    if fit_err[worst] > 1e-5 * scale[worst]:
        raise ExtrapolationDivergence(
            f"Neumann-limit fit residual {fit_err[worst]:.3e} too large at x = {x[worst]:.6g}"
        )
    return -field.frac.d_s * 2.0 * s * coef[0]


def dirichlet_to_neumann(field: ExtensionField, n_out=None) -> PeriodicFunction:
    """-d_s lim_{y->0} y^a dU/dy as a periodic function.

    Bessel route: exact per-mode limit of y^a J_m'(y).  Poisson route:
    Richardson-type fit of the boundary expansion at a geometric sequence
    of heights, sampled on the coefficient grid (one field evaluation per
    height, one least-squares solve for the whole grid).
    """
    u = field.base
    if field.method == "bessel-series":
        lam = -field.frac.d_s * field.profile_table(0.0, "weighted_deriv")
        b = np.concatenate(([0.0], lam * u.cos_coeffs[1:]))
        return PeriodicFunction(T=u.T, sin_coeffs=lam * u.sin_coeffs, cos_coeffs=b, odd=u.odd)
    n_out = n_out or 2 * u.N + 2
    xg = np.arange(n_out) * (u.T / n_out)
    vals = _neumann_poisson(field, xg, 0.25 / (u.omega * max(u.N, 1)))
    return PeriodicFunction.from_samples(u.T, vals, odd=u.odd).truncate(u.N)


# ---------------------------------------------------------------------------
# weighted Dirichlet energy

_ENERGY_NODES = 384


def extension_energy(field: ExtensionField, y_max=None, tail_tol=1e-10):
    """int int y^a |grad U|^2 over one period x (0, infinity).

    Mode orthogonality in x reduces the integral to the universal profile
    integral int_0^{t_m} [t^a phi^2 + t^{-a} psi^2] dt (psi = t^a phi') per
    mode, t_m = min(omega_m y_max, 40); one pair of Jacobi rules on (0, 1)
    serves every mode.  Equals (1/d_s) <u, (-d_xx)^s u> up to
    quadrature error.  Raises TailNotConverged when y_max cuts the
    exponential tail too early.
    """
    u, frac = field.base, field.frac
    y_max = y_max or field.y_max
    if u.N == 0:
        return 0.0
    om1 = u.omega
    if om1 * y_max < 15.0:
        raise TailNotConverged(
            f"omega_1 * y_max = {om1 * y_max:.2f} < 15: tail above tolerance {tail_tol:g}"
        )
    power = u.sin_coeffs**2 + u.cos_coeffs[1:] ** 2
    om = u.omega * np.arange(1, u.N + 1)
    t_max = np.minimum(om * y_max, 40.0)
    unit = YQuadrature(y_max=1.0, a=frac.a, n=_ENERGY_NODES)   # rescaled per mode
    plus = field._phi.value(np.multiply.outer(t_max, unit.nodes_plus)) ** 2 @ unit.weights_plus
    minus = field._phi.weighted_deriv(np.multiply.outer(t_max, unit.nodes_minus)) ** 2 @ unit.weights_minus
    integral = plus * t_max ** (1.0 + frac.a) + minus * t_max ** (1.0 - frac.a)
    return 0.5 * u.T * float(power * om ** (2 * frac.s) @ integral)
