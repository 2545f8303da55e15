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

The weighted Dirichlet energy needs no y-integral: the profile J_m of mode
m solves (y^a J_m')' = alpha_m^2 y^a J_m, so by Green's identity
int_0^inf y^a (alpha_m^2 J_m^2 + J_m'^2) dy = -lim_{y->0} y^a J_m'(y), the
same limit the Bessel Dirichlet-to-Neumann map reads.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import ExtrapolationDivergence, QuadratureNonConvergence
from .spectral import (FracOrder, PeriodicFunction, _check_types, _gauss_jacobi_01, _gauss_legendre_01,
                       _hurwitz_zeta)

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

_SERIES_SWITCH = 2.0   # power series below, the Chebyshev interpolant of e^t sqrt(t) K_nu(t) above
_SERIES_TERMS = 18     # below t = 2 the terms from j = 18 on are under 1e-28
_VALUE_CUTOFF = 40.0   # phi_s(t) < 4e-17 beyond: the value is clamped to 0 there
_OVERFLOW_ARG = 700.0  # e^{-t} underflows; the derivatives are clamped to 0 beyond
_KV_DEGREE = 18        # interpolant degree: 6e-15 relative on t >= 2 for nu in (0, 1)
_KV_PANELS = 64        # trapezoid panels of the integral that gives the interpolation data


def _horner(c, x):
    """sum_j c_j x^j by Horner's rule, in place on one array."""
    out = np.full_like(x, c[-1])
    for cj in c[-2::-1]:
        out *= x
        out += cj
    return out


@lru_cache(maxsize=256)
def _kv_chebyshev(nu):
    """Chebyshev coefficients of e^t sqrt(t) K_nu(t) in xi = 4/t - 1, which
    maps t in [2, inf) onto (-1, 1] (Trefethen, ATAP ch. 3 and 19), cached
    per order as a read-only array.

    The data at the Chebyshev points come from e^t K_nu(t) =
    int_0^U exp(-2 t sinh^2(u/2)) cosh(nu u) du, U = acosh(1 + 40/t): the
    integrand is even in u and below e^{-40} at U, so the trapezoid rule
    with _KV_PANELS panels is exact to round-off.
    """
    n = _KV_DEGREE + 1
    theta = (np.arange(n) + 0.5) * (math.pi / n)
    t = 4.0 / (np.cos(theta) + 1.0)
    u = np.multiply.outer(np.arccosh(1.0 + 40.0 / t), np.arange(_KV_PANELS + 1) / _KV_PANELS)
    f = np.exp(-2.0 * t[:, None] * np.sinh(0.5 * u) ** 2) * np.cosh(nu * u)
    vals = np.trapezoid(f, u, axis=1) * np.sqrt(t)
    c = (2.0 / n) * (np.cos(np.outer(np.arange(n), theta)) @ vals)
    c[0] *= 0.5
    c.flags.writeable = False
    return c


def _scaled_kv(c, p, cheb, t):
    """c t^p K_nu(t) for t >= 2 from the Chebyshev coefficients ``cheb`` of
    nu, by Clenshaw's recurrence in xi = 4/t - 1 on three buffers of t's
    shape, with 2 xi = 8/t - 2 exactly; works in place on t (callers pass a
    fresh copy)."""
    xi2 = 8.0 / t
    xi2 -= 2.0
    b1, b2, k = np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
    for ck in cheb[:0:-1]:   # b1, b2 <- 2 xi b1 - b2 + ck, b1
        np.multiply(xi2, b1, out=k)
        k -= b2
        k += ck
        b1, b2, k = k, b1, b2
    np.multiply(xi2, b1, out=k)
    k *= 0.5
    k -= b2
    k += cheb[0]                              # e^t sqrt(t) K_nu(t)
    k *= np.exp(np.negative(t, out=b1), out=b1)
    t **= p - 0.5
    k *= t
    k *= c
    return k


class _Profile:
    """Universal mode profile phi_s(t) = mu t^s K_s(t) and derivatives.

    Small arguments sum the power series in t^{2j} and t^{2s+2j} by Horner
    in t^2 (no cancellation); large arguments use the K_nu interpolant of
    _kv_chebyshev through d/dt [t^s K_s(t)] = -t^s K_{1-s}(t).  Every method
    takes an array of any shape, so one call serves a whole (y x mode)
    table.
    """

    def __init__(self, s):
        self.s = s
        j = np.arange(_SERIES_TERMS)
        def series(nu):   # 0.25^j Gamma(1 + nu) / (j! Gamma(j + 1 + nu)), by the recurrence in j
            return 0.25**j / np.cumprod(np.concatenate(([1.0], j[1:] * (j[1:] + nu))))
        self.alpha = series(-s)
        self.beta = -(math.gamma(1 - s) / math.gamma(1 + s)) * 2.0 ** (-2 * s) * series(s)
        self.dalpha = (2 * j * self.alpha)[1:]   # alpha-part of phi'(t) / t, in powers of t^2
        self.dbeta = (2 * s + 2 * j) * self.beta
        self.mu = 2.0 ** (1 - s) * math.gamma(1 - s) * math.sin(s * math.pi) / math.pi
        self.cheb = _kv_chebyshev(s)              # K_s, for the value
        self.cheb_dual = _kv_chebyshev(1.0 - s)   # K_{1-s}, for the derivatives

    def _split(self, t, top=_OVERFLOW_ARG):
        t = np.asarray(t, dtype=float)
        small = (t > 0) & (t < _SERIES_SWITCH)
        big = (t >= _SERIES_SWITCH) & (t <= top)
        return t, np.zeros_like(t), small, big

    def value(self, t):
        t, out, small, big = self._split(t, _VALUE_CUTOFF)
        ts = t[small]
        t2 = ts * ts
        out[small] = _horner(self.alpha, t2) + ts ** (2 * self.s) * _horner(self.beta, t2)
        out[big] = _scaled_kv(self.mu, self.s, self.cheb, t[big])
        out[t == 0] = 1.0
        return out

    def deriv(self, t):
        """phi'(t); singular like t^{2s-1} at 0 for s < 1/2."""
        s = self.s
        t, out, small, big = self._split(t)
        ts = t[small]
        t2 = ts * ts
        out[small] = ts * _horner(self.dalpha, t2) + ts ** (2 * s - 1) * _horner(self.dbeta, t2)
        out[big] = _scaled_kv(-self.mu, s, self.cheb_dual, t[big])
        out[t == 0] = -np.inf if s < 0.5 else (0.0 if s > 0.5 else -1.0)
        return out

    def weighted_deriv(self, t):
        """psi(t) = t^{1-2s} phi'(t); psi(0) = -C_s = -(2s/4^s) Gamma(1-s)/Gamma(1+s)."""
        s = self.s
        t, out, small, big = self._split(t)
        ts = t[small]
        t2 = ts * ts
        out[small] = ts ** (2 - 2 * s) * _horner(self.dalpha, t2) + _horner(self.dbeta, t2)
        out[big] = _scaled_kv(-self.mu, 1 - s, self.cheb_dual, t[big])
        out[t == 0] = self.dbeta[0]
        return out


@dataclass(frozen=True)
class BesselProfile:
    """Mode profile J(y) = mu y^s K_s(omega y), normalized so J(0) = 1; for an
    array omega each method returns the y.shape + omega.shape table."""

    omega: float | np.ndarray
    frac: FracOrder
    _phi: _Profile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_phi", _Profile(self.frac.s))

    @property
    def mu(self):
        return self._phi.mu * self.omega**self.frac.s

    def value(self, y):
        return self._phi.value(np.multiply.outer(y, self.omega))

    def deriv(self, y):
        return self.omega * self._phi.deriv(np.multiply.outer(y, self.omega))

    def weighted_deriv(self, y):
        """y^a J'(y); tends to -C_s omega^{2s} as y -> 0."""
        return self.omega ** (2 * self.frac.s) * self._phi.weighted_deriv(np.multiply.outer(y, self.omega))


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
            r, w = _gauss_jacobi_01(self.n, beta)
            y = self.y_max * r
            wy = w * self.y_max ** (beta + 1.0)
            y.flags.writeable = False
            wy.flags.writeable = False
            object.__setattr__(self, f"nodes_{nm}", y)
            object.__setattr__(self, f"weights_{nm}", wy)


# ---------------------------------------------------------------------------
# periodized Poisson kernel

_BLOCK = 1 << 18   # array elements per block of kernel images or cosine terms
_MAX_ORDERS = 64   # binomial and Taylor orders searched by the tail truncations


@lru_cache(maxsize=256)
def _image_taylor_table(s, jc):
    """E[i, k] = binom(-p, i) a^{2i} 2 (q_i)_k / k! zeta(q_i + k, a) for even k,
    with q_i = 2p + 2i, p = 1/2 + s and a = jc + 1; cached per (s, jc) as one
    read-only array.  Binomial term i of the two image tails is
    y^{2i} T^{-q_i} [zeta(q_i, a + x) + zeta(q_i, a - x)] with x = zr/T, and
    d/da zeta(q, a) = -q zeta(q + 1, a) (DLMF 25.11.17) expands it in x: the
    tails are T^{-2p} sum_k D_k x^k with D = ((y / (a T))^{2i})_i @ E.

    Both truncations are bounded a priori for every y <= (jc - 8) T / 3, the
    heights that share this jc.  Every tail image sits at t >= (a - 1/2) T,
    so binomial term i is at most |binom(-p, i)| rho^i h T^{-2p}, with
    rho = (y / ((a - 1/2) T))^2 < 1/9 and h = 2 zeta(2p, a - 1/2).  Since
    zeta(q + k, a) <= a^{-k} zeta(q, a) and |x| <= 1/2, its Taylor terms from
    order K on add at most that times sum_{k >= K} (q_i)_k / k! (2a)^{-k}.
    At every node the direct sum is at least 2 sum_{j=1}^{min(jc, _BLOCK)}
    ((j + 1/2)^2 + (y/T)^2)^{-p} T^{-2p}.  Each truncation keeps what it
    omits below half of 1e-18 of that, in fewer than _MAX_ORDERS orders
    wherever zeta(2p, .) is finite in floating point.
    """
    p, a, ym = 0.5 + s, jc + 1.0, (jc - 8.0) / 3.0   # ym: the largest y/T with this jc
    order = np.arange(_MAX_ORDERS)
    binom = np.cumprod(np.concatenate(([1.0], -(p + order[:-1]) / order[1:])))
    # h and the limit both carry a factor s, so that h = O(1/s) cannot overflow
    h = 2.0 * s * (a - 0.5) ** (-2.0 * p) + (a - 0.5) ** (-2.0 * s)   # >= 2 s zeta(2p, a - 1/2)
    limit = 0.5e-18 * s * 2.0 * np.sum((np.arange(1.5, min(jc, _BLOCK) + 1) ** 2 + ym * ym) ** -p)
    bound = np.abs(binom) * (ym / (a - 0.5)) ** (2.0 * order) * h
    n = np.count_nonzero(np.cumsum(bound[::-1])[::-1] > limit)
    q = 2.0 * p + 2.0 * order[:n, None]
    rising = np.cumprod(np.concatenate((np.ones((n, 1)), (q + order[:-1]) / order[1:]), axis=1), axis=1)
    rest = np.cumsum((rising * (2.0 * a) ** -order)[:, ::-1], axis=1)[:, ::-1]
    k = order[:np.count_nonzero(bound[:n] @ rest > limit):2]
    zeta = _hurwitz_zeta(q + k, a)   # the ValueError for 2p = 1 comes before any a^i
    table = 2.0 * binom[:n, None] * rising[:, k] * (zeta * a ** order[:n, None]) * a ** order[:n, None]
    table.flags.writeable = False
    return table


def poisson_kernel_periodized(z, y, frac: FracOrder, T):
    """sum_j p_s(z + jT, y): the s-Poisson kernel folded over all images.

    Images |j| <= jc = 8 + ceil(3|y|/T) are summed directly, in blocks of at
    most _BLOCK array elements.  The two one-sided tails beyond are one even
    polynomial in the offset zr/T of z from its nearest image, with
    coefficients from the cached table of _image_taylor_table: one small
    product and one Horner pass per call, omitting less than 1e-18 of the
    direct sum.
    """
    s = frac.s
    p = (1.0 + 2.0 * s) / 2.0
    z = np.asarray(z, dtype=float)
    zr = z - T * np.rint(z / T)   # into [-T/2, T/2], exact for |z| < T/2 (the peak)
    jc = 8 + int(math.ceil(3.0 * abs(y) / T))
    step = max(1, _BLOCK // zr.size)   # images per block: memory stays flat as y grows
    direct = sum(np.sum(((zr[..., None] + np.arange(lo, min(lo + step, jc + 1)) * T) ** 2
                         + y * y) ** (-p), axis=-1) for lo in range(-jc, jc + 1, step))
    table = _image_taylor_table(s, jc)   # the tails: powers of (y / ((jc + 1) T))^2, then x^2 = (zr/T)^2
    tail = T ** (-2.0 * p) * _horner((y / ((jc + 1.0) * T)) ** (2.0 * np.arange(len(table))) @ table, (zr / T) ** 2)
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
    seg = np.repeat(np.arange(pieces.size), pieces)   # each panel's piece m of n, as np.linspace
    m = np.arange(seg.size) - np.repeat(np.cumsum(pieces) - pieces, pieces)
    edges = np.append(m * (np.diff(edges) / pieces)[seg] + edges[seg], half)
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


def _points(x, y):
    """Field evaluation points as float arrays: x finite, y finite and >= 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"x must be finite, got {float(x[~np.isfinite(x)][0])}")
    bad = ~(np.isfinite(y) & (y >= 0.0))
    if bad.any():
        raise ValueError(f"y must be finite and nonnegative, got {float(y[bad][0])}")
    return x, y


@dataclass(frozen=True)
class ExtensionField:
    """Evaluable extension of a periodic trace on the half-strip.

    ``method`` is "bessel-series" or "poisson-convolution".  Both expose
    ``value``; the Bessel field additionally exposes analytic derivatives
    ``dx``, ``dy`` and the stable weighted derivative ``weighted_dy``
    (= y^a dU/dy, finite down to y = 0).  All four raise ValueError, naming
    the coordinate, unless x is finite and y is finite and nonnegative.
    """

    base: PeriodicFunction
    frac: FracOrder
    method: str

    # -- evaluation --------------------------------------------------------

    @cached_property
    def _support(self):
        """The modes m with a_m != 0 or b_m != 0, the only ones the modal sums read."""
        u = self.base
        return np.flatnonzero((u.sin_coeffs != 0.0) | (u.cos_coeffs[1:] != 0.0)) + 1

    @cached_property
    def _profile(self):
        return BesselProfile(omega=self.base.omega * self._support, frac=self.frac)

    def profile_table(self, y, kind="value"):
        """(..., N) table of J_m(y), J_m'(y) or y^a J_m'(y) for m = 1..N: the
        method ``kind`` ("value", "deriv" or "weighted_deriv") of one
        BesselProfile over all omega_m."""
        if kind not in ("value", "deriv", "weighted_deriv"):
            raise ValueError(f"unknown profile kind {kind!r}")
        every_mode = BesselProfile(omega=self.base.omega * np.arange(1, self.base.N + 1), frac=self.frac)
        return getattr(every_mode, kind)(y)

    def _table(self, y, kind="value"):
        """The columns of profile_table(y, kind) at the support's modes."""
        return getattr(self._profile, kind)(y)

    def _modes(self, x):
        """base._modes(x) at the support's modes."""
        return self.base._modes(x, self._support)

    def _modal(self, x, damp, dx=False):
        """sum_m damp_m [a_m sin + b_m cos](omega m x) over the support for a
        (..., len(support)) table of per-mode damping factors (J_m(y), a
        derivative, or c_m(y)), or its x-derivative."""
        sin, cos, weights, weights_dx = self._modes(x)
        a, b = weights_dx if dx else weights
        return (sin * damp) @ a + (cos * damp) @ b

    def value(self, x, y):
        x, y = _points(x, y)
        if self.method == "poisson-convolution":
            return self._poisson_value(x, y)
        return self.base.cos_coeffs[0] + self._modal(x, self._table(y))

    def dx(self, x, y):
        x, y = self._derivative_points(x, y)
        return self._modal(x, self._table(y), dx=True)

    def dy(self, x, y):
        x, y = self._derivative_points(x, y)
        zero = y == 0
        if self.frac.s >= 0.5 or not np.any(zero):
            return self._modal(x, self._table(y, "deriv"))
        # s < 1/2: U_y = y^{-a} (y^a U_y) is infinite at y = 0 with the sign of
        # y^a U_y, and 0 where that limit vanishes
        w = self.weighted_dy(x, y)
        edge = np.where(w == 0, 0.0, np.copysign(np.inf, w))
        inner = self._modal(x, self._table(np.where(zero, 1.0, y), "deriv"))
        return np.where(zero, edge, inner)[()]

    def weighted_dy(self, x, y):
        """y^a dU/dy, evaluated without cancellation down to y = 0."""
        x, y = self._derivative_points(x, y)
        return self._modal(x, self._table(y, "weighted_deriv"))

    def _derivative_points(self, x, y):
        if self.method != "bessel-series":
            raise NotImplementedError("analytic derivatives need the bessel-series field")
        return _points(x, y)

    # -- poisson convolution ----------------------------------------------

    def _poisson_value(self, x, y):
        """u * P_per(., y): mode m damped by the kernel's cosine coefficient
        c_m(y), one coefficient set per distinct height; c_m(0) = 1."""
        u = self.base
        x, y = np.broadcast_arrays(x, y)
        levels, inverse = np.unique(y, return_inverse=True)
        c = np.array([_poisson_cosine_coeffs(self.frac, u.T, u.N, yk) if yk else np.ones(u.N + 1)
                      for yk in levels])[inverse.reshape(y.shape)]
        return u.cos_coeffs[0] * c[..., 0] + self._modal(x, c[..., self._support])


def extend_bessel(u: PeriodicFunction, frac: FracOrder) -> ExtensionField:
    """Mode-by-mode extension U(x,y) = b_0 + sum J_m(y) [a_m sin + b_m cos]."""
    _check_types(u=(u, PeriodicFunction), frac=(frac, FracOrder))
    return ExtensionField(base=u, frac=frac, method="bessel-series")


def extend_poisson(u: PeriodicFunction, frac: FracOrder) -> ExtensionField:
    """Extension by convolution with the periodized s-Poisson kernel."""
    _check_types(u=(u, PeriodicFunction), frac=(frac, FracOrder))
    return ExtensionField(base=u, frac=frac, method="poisson-convolution")


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


def dirichlet_to_neumann(field: ExtensionField) -> PeriodicFunction:
    """-d_s lim_{y->0} y^a dU/dy as a periodic function.

    Bessel route: exact per-mode limit of y^a J_m'(y).  Poisson route:
    Richardson-type fit of the boundary expansion at a geometric sequence
    of heights, sampled on the coefficient grid (one field evaluation per
    height, one least-squares solve for the whole grid).
    """
    _check_types(field=(field, ExtensionField))
    u = field.base
    if field.method == "bessel-series":
        lam = -field.frac.d_s * field.profile_table(0.0, "weighted_deriv")
        b = np.concatenate(([0.0], lam * u.cos_coeffs[1:]))
        return PeriodicFunction(T=u.T, sin_coeffs=lam * u.sin_coeffs, cos_coeffs=b, odd=u.odd)
    vals = _neumann_poisson(field, u.grid(), 0.25 / (u.omega * max(u.N, 1)))
    return PeriodicFunction.from_samples(u.T, vals, odd=u.odd).truncate(u.N)


# ---------------------------------------------------------------------------
# weighted Dirichlet energy


def extension_energy(field: ExtensionField):
    """int int y^a |grad U|^2 over one period x (0, infinity).

    Mode orthogonality in x and the module docstring's Green identity give
    -(T/2) sum_m (a_m^2 + b_m^2) W_m(0) over the trace's support, with W_m(0)
    = lim y^a J_m'(y) = -C_s omega_m^{2s}; this is (1/d_s) <u, (-d_xx)^s u>.
    """
    _check_types(field=(field, ExtensionField))
    u, m = field.base, field._support
    power = u.sin_coeffs[m - 1] ** 2 + u.cos_coeffs[m] ** 2
    return -0.5 * u.T * float(power @ field._table(0.0, "weighted_deriv"))
