"""Periodic functions as truncated Fourier series, the fractional Laplacian
as a Fourier multiplier, its real-space singular-integral counterpart, and
the energy functionals used by the nonlinear solvers.

Conventions
-----------
A T-periodic function is stored as

    u(x) = b_0 + sum_{m=1}^{N} [ a_m sin(w m x) + b_m cos(w m x) ],  w = 2 pi / T.

The fractional Laplacian multiplies mode m by (w m)^{2s} and kills the
constant.  The energy functional uses the half-period convention

    J(u) = (1/2) (1/d_s) * (1/2) <u, Lu>_{L^2(-T/2,T/2)} + int_0^{T/2} F(u) dx,

i.e. the extension Dirichlet energy restricted to half a period plus the
potential term over half a period, so J(0) = F(0) T / 2.
"""

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from math import gamma

import numpy as np

from .errors import NoConvergence, QuadratureNonConvergence, SingularJacobian

__all__ = [
    "FracOrder",
    "PeriodicFunction",
    "DoubleWell",
    "frac_laplacian",
    "singular_integral_oracle",
    "gagliardo_energy",
    "energy_functional",
    "multipliers",
    "spectral_dirichlet",
    "potential_energy_half",
]


# ---------------------------------------------------------------------------
# fractional order and its normalization constants


@dataclass(frozen=True)
class FracOrder:
    """Exponent s in (0,1) together with the derived constants.

    d_s  : Dirichlet-to-Neumann normalization, 2^{2s-1} Gamma(s)/Gamma(1-s)
    c_s  : its reciprocal, (2s/4^s) Gamma(1-s)/Gamma(1+s)
    c_sing : 1-D singular-integral normalization 4^s Gamma(1/2+s)/(sqrt(pi)|Gamma(-s)|)
    c_poisson : mass normalization of the 1-D s-Poisson kernel
    """

    s: float

    def __post_init__(self):
        if not (0.0 < self.s < 1.0):
            raise ValueError(f"s must lie strictly in (0,1), got {self.s}")

    @property
    def a(self):
        return 1.0 - 2.0 * self.s

    @property
    def d_s(self):
        s = self.s
        return 2.0 ** (2 * s - 1) * gamma(s) / gamma(1 - s)

    @property
    def c_s(self):
        s = self.s
        return (2 * s / 4.0**s) * gamma(1 - s) / gamma(1 + s)

    @property
    def c_sing(self):
        s = self.s
        return 4.0**s * gamma(0.5 + s) / (math.sqrt(math.pi) * abs(gamma(-s)))

    @property
    def c_poisson(self):
        s = self.s
        return gamma((1 + 2 * s) / 2) / (math.sqrt(math.pi) * gamma(s))


# ---------------------------------------------------------------------------
# uniform-grid transforms
#
# Both directions work on the grid x_j = j T / M, where the phase of mode m
# is 2 pi m j / M whatever the period, so one real FFT of length M serves
# every T.


def grid_synthesis(M, cos_coeffs, sin_coeffs):
    """Values at x_j = j T / M (j = 0..M-1) of
    b_0 + sum_m [a_m sin(w m x) + b_m cos(w m x)], from b = cos_coeffs
    (b_0..b_N) and a = sin_coeffs (a_1..a_N).

    One inverse real FFT of length M.  Mode m contributes the complex
    amplitude b_m - i a_m at frequency m mod M; modes at or above M/2 are
    folded onto their aliases first, so the values are exact for every M.
    """
    n_cos, n_sin = len(cos_coeffs), len(sin_coeffs)
    z = np.zeros(-(-max(n_cos, n_sin + 1) // M) * M, dtype=complex)
    z[:n_cos] = cos_coeffs
    z[1 : n_sin + 1] -= 1j * np.asarray(sin_coeffs)
    z = z.reshape(-1, M).sum(axis=0)   # z[r]: total amplitude at frequency r mod M
    r = np.arange(M // 2 + 1)
    half = (0.5 * M) * (z[r] + np.conj(z[-r % M]))
    return np.fft.irfft(half, n=M)


def grid_analysis(samples, N):
    """Discrete Fourier coefficients (b_0..b_N, a_1..a_N) of M equispaced
    samples, N <= M/2: b_0 is the mean, and b_m, a_m are (2/M) times the sums
    of the samples against cos and sin of 2 pi m j / M.  One real FFT."""
    spec = np.fft.rfft(samples) / (0.5 * samples.shape[0])
    b = spec.real[: N + 1].copy()
    b[0] *= 0.5
    return b, -spec.imag[1 : N + 1]


def _toeplitz(col, row):
    """n x n strided view of one vector with entries col[i - j] on and below
    the diagonal and row[j - i] above: no O(n^2) gather, no wrapper cost."""
    v = np.concatenate((col[::-1], row[1:]))
    n, b = len(col), v.itemsize
    return np.ndarray((n, n), buffer=v, offset=(n - 1) * b, strides=(-b, b))


def _hankel(c, n):
    """n x n strided view with entries c[i + j], i, j < n."""
    v = np.ascontiguousarray(c[: 2 * n - 1])
    return np.ndarray((n, n), buffer=v, strides=(v.itemsize, v.itemsize))


def gram(symmetry, N, g, half_wave=False):
    """Matrix of c -> (coefficients of g * u_c) for samples g on the class
    grid of M = 4(N+1) points, in a symmetry class: odd c = [a_1..a_N],
    full c = [b_0..b_N, a_1..a_N]; half_wave keeps only the odd harmonics
    1, 3, .. of the odd class.  The coefficients are those of grid_analysis,
    so the mean row carries weight 1 and the others 2.

    With g_k = mean of g cos(2 pi k j / M) and h_k the same with sin,
    2 mean(g sin_m sin_n) = g_|m-n| - g_{m+n}, 2 mean(g cos_m cos_n) =
    g_|m-n| + g_{m+n} and 2 mean(g sin_m cos_n) = h_{m+n} + h_{m-n};
    the indices reach 2N < M/2, and between odd harmonics m -+ n are even,
    so the half-wave block reads every other g_k.  They come from one rfft
    of g for the full class and from N = FFT_MIN_N on, else from the class's
    moment rows (_tables), where the half-wave block reads only the first M/2
    samples: it assumes a T/2-periodic g, as F''(u) of a half-wave u is.  Up to
    GATHER_MAX_N unknowns there it is one gather, else strided views: same bits.
    """
    if symmetry == "full":   # blocks on modes 0..N: cos-cos, sin-cos (rows sin_m; gs_0 = 0), sin-sin
        spec = np.fft.rfft(g) / g.shape[0]
        gc, gs = spec.real, -spec.imag
        dist, tot = _toeplitz(gc[: N + 1], gc[: N + 1]), _hankel(gc, N + 1)   # g_|m-n|, g_{m+n}
        sc = _hankel(gs, N + 1) + _toeplitz(gs[: N + 1], -gs[: N + 1])
        cc = np.block([[dist + tot, sc.T[:, 1:]], [sc[1:], (dist - tot)[1:, 1:]]])
        cc[0] *= 0.5   # the mean carries weight 1, the other rows 2
        return cc
    step = 2 if half_wave else 1
    if N < FFT_MIN_N:   # g_0, g_step, .., g_2N
        _, _, moments, dist, tot = _tables(symmetry, N, half_wave)
        gk = moments @ g[: g.shape[0] // step]
        if dist.size:   # one gather of g_|m-n| - g_{m+n}
            return gk[dist] - gk[tot]
    else:
        gk = (np.fft.rfft(g) / g.shape[0]).real[::step]
    n = -(-N // step)   # modes 1, 1 + step, .. up to N
    return _toeplitz(gk[:n], gk[:n]) - _hankel(gk[2 // step :], n)


# ---------------------------------------------------------------------------
# periodic functions


def _freeze(arr):
    out = np.asarray(arr, dtype=float).copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PeriodicFunction:
    """Real T-periodic function stored as truncated Fourier coefficients.

    ``cos_coeffs`` holds b_0..b_N, ``sin_coeffs`` holds a_1..a_N.  The odd
    flag forces all cosine coefficients to zero and is preserved by every
    operation that preserves oddness.
    """

    T: float
    sin_coeffs: np.ndarray
    cos_coeffs: np.ndarray
    odd: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.T) and self.T > 0):
            raise ValueError(f"period T must be positive and finite, got {self.T}")
        a = _freeze(self.sin_coeffs)
        b = _freeze(self.cos_coeffs)
        if a.ndim != 1 or b.shape != (a.shape[0] + 1,):
            raise ValueError("cos_coeffs must have length N+1, sin_coeffs length N")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("Fourier coefficients must be finite")
        if self.odd and np.any(b != 0.0):
            raise ValueError("odd function must have zero cosine coefficients")
        object.__setattr__(self, "sin_coeffs", a)
        object.__setattr__(self, "cos_coeffs", b)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_modes(cls, T, sin_coeffs=(), cos_coeffs=None):
        """Odd when cos_coeffs is None and there are modes; else zero-pads the shorter list."""
        a = np.atleast_1d(np.asarray(sin_coeffs, dtype=float))
        if cos_coeffs is None:
            return cls(T=T, sin_coeffs=a, cos_coeffs=np.zeros(a.shape[0] + 1), odd=a.shape[0] > 0)
        b = np.atleast_1d(np.asarray(cos_coeffs, dtype=float))
        n = max(a.shape[0], b.shape[0] - 1)
        a, b = np.pad(a, (0, n - a.shape[0])), np.pad(b, (0, n + 1 - b.shape[0]))
        return cls(T=T, sin_coeffs=a, cos_coeffs=b)

    @classmethod
    def from_samples(cls, T, values, odd=False):
        """Build from samples on the 2N+2 equispaced grid x_j = j T / (2N+2)."""
        values = np.asarray(values, dtype=float)
        M = values.shape[0]
        if M < 4 or M % 2 != 0:
            raise ValueError("need an even number (>=4) of equispaced samples")
        b, a = grid_analysis(values, M // 2 - 1)
        if odd:
            b[:] = 0.0
        return cls(T=T, sin_coeffs=a, cos_coeffs=b, odd=odd)

    @classmethod
    def constant(cls, T, value):
        return cls(T=T, sin_coeffs=np.zeros(0), cos_coeffs=np.full(1, value, dtype=float))

    # -- basic structure ---------------------------------------------------

    @property
    def N(self):
        return self.sin_coeffs.shape[0]

    @property
    def omega(self):
        return 2.0 * math.pi / self.T

    def grid(self):
        M = 2 * self.N + 2
        return np.arange(M) * (self.T / M)

    def grid_values(self):
        return self.sample(2 * self.N + 2)

    def sample(self, M):
        """Values at the M equispaced points x_j = j T / M, j = 0..M-1."""
        return grid_synthesis(M, self.cos_coeffs, self.sin_coeffs)

    def _modes(self, x, m=None):
        """sin and cos of omega m x at m = 1..N (or at the modes of the int
        array m), of shape x.shape + (len(m),), and the weights on them of
        u - b_0 and of u': u = b_0 + sin @ a + cos @ b and
        u' = sin @ (-omega m b) + cos @ (omega m a) when m covers every
        nonzero mode."""
        if m is None:
            m, a, b = np.arange(1, self.N + 1), self.sin_coeffs, self.cos_coeffs[1:]
        else:
            a, b = self.sin_coeffs[m - 1], self.cos_coeffs[m]
        phase = np.multiply.outer(np.asarray(x, dtype=float), m) * self.omega
        om = self.omega * m
        return np.sin(phase), np.cos(phase), (a, b), (-om * b, om * a)

    def __call__(self, x):
        sin, cos, (a, b), _ = self._modes(x)
        out = self.cos_coeffs[0] + sin @ a + cos @ b
        return out if out.shape else float(out)

    def truncate(self, N):
        """Pad or chop the coefficient arrays to truncation order N."""
        a = np.zeros(N)
        b = np.zeros(N + 1)
        n = min(N, self.N)
        a[:n] = self.sin_coeffs[:n]
        b[: n + 1] = self.cos_coeffs[: n + 1]
        return PeriodicFunction(T=self.T, sin_coeffs=a, cos_coeffs=b, odd=self.odd)

    def rescaled(self, T_new):
        """Same coefficients on a new period (mode m frequency 2 pi m / T_new)."""
        return PeriodicFunction(
            T=T_new, sin_coeffs=self.sin_coeffs, cos_coeffs=self.cos_coeffs, odd=self.odd
        )

    # -- algebra and norms -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, PeriodicFunction):
            if other.T != self.T:
                raise ValueError("period mismatch")
            N = max(self.N, other.N)
            u, v = self.truncate(N), other.truncate(N)
            return PeriodicFunction(
                T=self.T,
                sin_coeffs=u.sin_coeffs + v.sin_coeffs,
                cos_coeffs=u.cos_coeffs + v.cos_coeffs,
                odd=self.odd and other.odd,
            )
        return NotImplemented

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, c):
        return PeriodicFunction(
            T=self.T, sin_coeffs=c * self.sin_coeffs, cos_coeffs=c * self.cos_coeffs, odd=self.odd
        )

    def __neg__(self):
        return (-1.0) * self

    def inner(self, other):
        """L^2 inner product over one period."""
        N = max(self.N, other.N)
        u, v = self.truncate(N), other.truncate(N)
        return self.T * (
            u.cos_coeffs[0] * v.cos_coeffs[0]
            + 0.5 * (u.sin_coeffs @ v.sin_coeffs + u.cos_coeffs[1:] @ v.cos_coeffs[1:])
        )

    def l2_norm(self):
        return math.sqrt(max(self.inner(self), 0.0))

    def coeff_norm(self):
        return math.sqrt(float(self.sin_coeffs @ self.sin_coeffs + self.cos_coeffs @ self.cos_coeffs))

    def amplitude(self):
        return float(np.max(np.abs(self.grid_values()))) if self.N else abs(self.cos_coeffs[0])

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {
            "T": self.T,
            "N": self.N,
            "odd": self.odd,
            "a": self.sin_coeffs.tolist(),
            "b": self.cos_coeffs.tolist(),
        }

    def to_json(self):
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, d):
        """Raises ValueError naming the key of a missing, non-numeric or non-boolean entry."""
        def entry(key, convert):
            try:
                return convert(d[key])
            except KeyError:
                raise ValueError(f"function JSON has no {key!r} entry") from None
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"function JSON entry {key!r} is not numeric: {exc}") from None
        a, b = (entry(key, lambda v: np.asarray(v, dtype=float)) for key in ("a", "b"))
        odd = d.get("odd", False)
        if not isinstance(odd, bool):
            raise ValueError(f"function JSON entry 'odd' must be true or false, got {odd!r}")
        return cls(T=entry("T", float), sin_coeffs=a, cos_coeffs=b, odd=odd)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# double-well potentials

SHAPE_CHECK_POINTS = 201   # grid of DoubleWell.check_shape on each interval


@dataclass(frozen=True)
class DoubleWell:
    """Smooth double-well potential with wells at +-1.

    Carries evaluators for F and its first four derivatives.  ``quartic``
    is the canonical (1-u^2)^2/4 well; ``scale * quartic`` rescales the
    depth (and F''(0)) without moving the wells.
    """

    f: callable
    f1: callable
    f2: callable
    f3: callable
    f4: callable
    even: bool = True
    label: str = "custom"

    @classmethod
    def quartic(cls, scale=1.0):
        c = float(scale)
        if not math.isfinite(c):
            raise ValueError(f"quartic scale must be finite, got {c!r}")
        return cls(
            f=lambda u: c * (1.0 - np.square(u)) ** 2 / 4.0,   # np.square(u): the bits of np.asarray(u) ** 2
            f1=lambda u: c * np.asarray(u) * (np.square(u) - 1.0),   # exactly odd, unlike u**3
            f2=lambda u: c * (3.0 * np.square(u) - 1.0),
            f3=lambda u: c * 6.0 * np.asarray(u),
            f4=lambda u: c * 6.0 * np.ones_like(np.asarray(u, dtype=float)),
            even=True,
            label="quartic" if c == 1.0 else f"quartic*{c:g}",
        )

    @classmethod
    def from_poly(cls, coeffs):
        """Potential given by polynomial coefficients (low order first)."""
        p = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
        bad = np.flatnonzero(~np.isfinite(p.coef))
        if bad.size:
            raise ValueError(f"poly coefficient c{bad[0]} must be finite, got {float(p.coef[bad[0]])!r}")
        d = [p.deriv(k) for k in range(1, 5)]
        return cls(
            f=lambda u, _p=p: _p(np.asarray(u)),
            f1=lambda u, _d=d[0]: _d(np.asarray(u)),
            f2=lambda u, _d=d[1]: _d(np.asarray(u)),
            f3=lambda u, _d=d[2]: _d(np.asarray(u)),
            f4=lambda u, _d=d[3]: _d(np.asarray(u)),
            even=bool(np.all(p.coef[1::2] == 0.0)),
            label="poly:" + ",".join(f"{c:g}" for c in p.coef),
        )

    def check_shape(self):
        """Spot-check the double-well conditions on a grid; raise on failure."""
        if abs(float(self.f(1.0))) > 1e-12 or abs(float(self.f(-1.0))) > 1e-12:
            raise ValueError("F(+-1) must vanish")
        if abs(float(self.f1(1.0))) > 1e-12 or abs(float(self.f1(-1.0))) > 1e-12:
            raise ValueError("F'(+-1) must vanish")
        u = np.linspace(-1.0, 1.0, SHAPE_CHECK_POINTS)[1:-1]
        if np.any(self.f(u) <= 0.0):
            raise ValueError("F must be positive on (-1,1)")
        left = np.linspace(-1.0, 0.0, SHAPE_CHECK_POINTS)
        right = np.linspace(0.0, 1.0, SHAPE_CHECK_POINTS)
        if np.any(np.diff(self.f(left)) < -1e-12) or np.any(np.diff(self.f(right)) > 1e-12):
            raise ValueError("F must be nondecreasing on (-1,0) and nonincreasing on (0,1)")
        return True


def unstable_curvature(well: DoubleWell, who=""):
    """-F''(0) for a well whose constant state u = 0 is unstable; raises
    ValueError("<who> requires F''(0) < 0") otherwise."""
    _check_types(well=(well, DoubleWell))
    f2_0 = float(well.f2(0.0))
    if f2_0 >= 0:
        raise ValueError(f"{who} requires F''(0) < 0".lstrip())
    return -f2_0


def linearization_bound(frac: FracOrder, well: DoubleWell, who=""):
    """2 pi (-F''(0))^{-1/(2s)}: the period above which the first mode of the
    linearization at u = 0 is unstable."""
    _check_types(frac=(frac, FracOrder))
    return 2.0 * math.pi * unstable_curvature(well, who) ** (-1.0 / (2.0 * frac.s))


# ---------------------------------------------------------------------------
# symmetry classes: the discretized semilinear system

FFT_MIN_N = 256   # below this the dense basis products beat an FFT call
GATHER_MAX_N = 48   # up to this many unknowns gram's gather beats its strided views
NONCONSTANT_AMPLITUDE = 1e-6   # deviation-from-mean threshold for classification
NEWTON_TOL = 1e-10   # residual norm at which every Newton run of _newton stops


@lru_cache(maxsize=8)   # a large_period pass uses 5 sets, a cli_suite pass 7
def _tables(symmetry, N, half_wave):
    """The read-only dense tables of a class below FFT_MIN_N, shared by every
    period: grid basis, projection weights, gram's moment rows
    cos(2 pi k j / M) / M, k = 0..2N (none for the full class; the even k on
    j < M/2, doubled, for a half-wave class), read at k j mod M from one
    table of sin(2 pi k / M), reflected exactly from its first quarter, and up
    to GATHER_MAX_N unknowns gram's n x n gather indices |i - j|, i + j + 2 / step
    into them (intp: numpy casts narrower ones on every gather; <= 36 KiB).

    The eight most recently used sets are kept.  A set holds the M x n basis
    and, outside the full class, the moment rows; the largest is an odd
    class just below FFT_MIN_N (N = 255: 6.0 MiB, no index tables), so the
    cache holds at most about 48 MiB."""
    M, idx = 4 * (N + 1), _SymmetryClass._index(symmetry, N, half_wave)
    q = np.sin((0.5 * math.pi / (N + 1)) * np.arange(N + 2))   # M / 4 = N + 1
    sin = np.hstack((q, q[-2:0:-1], -q, -q[-2:0:-1]))
    cos = np.roll(sin, -(N + 1))
    j, step = np.arange(M)[:, None], 2 if half_wave else 1
    basis = np.hstack((cos[j * idx[idx <= N] % M], sin[j * (idx[idx > N] - N) % M]))   # cos m, then sin m
    k = np.arange(0, 2 * N + 1, step)[:, None] if symmetry != "full" else np.empty((0, 1), int)
    i = np.arange(idx.size if symmetry != "full" and idx.size <= GATHER_MAX_N else 0)
    out = (basis, np.where(idx == 0, 1.0 / M, 2.0 / M), cos[k * j[: M // step, 0] % M] * (step / M),
           np.abs(i[:, None] - i), i[:, None] + i + 2 // step)
    for t in out:
        t.flags.writeable = False
    return out


class _SymmetryClass:
    """Fourier-Galerkin system of (-d_xx)^s u + k F'(u) = 0 on a symmetry
    class of T-periodic trig polynomials of degree N.

    A class is an index into the full layout [b_0..b_N, a_1..a_N]: odd
    takes [a_1..a_N], full all of it.  The half-wave class, u(x + T/2) =
    -u(x), keeps the odd harmonics of the odd class: ceil(N/2) entries,
    a_1, a_3, ..  For an even well F' is odd and F'' even, so the residual
    maps it into itself and its Jacobian is the odd-harmonic block of the
    full one; an even solution is a half-wave one shifted by T/4.  Each
    coefficient carries its multiplier (w m)^{2s} (0 on the mean) and its
    L^2 weight in units of T/2 (2 on the mean, 1 on the trig modes).
    The nonlinear term is evaluated on a 4(N+1)-point grid, which
    integrates products up to degree 4N exactly.

    ``values`` (coefficients -> grid) and ``project`` (grid -> coefficients)
    use the dense basis table of _tables, one per (N, class) for every T,
    below N = FFT_MIN_N and grid_synthesis / grid_analysis from there on;
    both give the same numbers to round-off.  Products with a grid function
    enter only through gram, at every N, from the set's moment rows and indices.
    """

    def __init__(self, symmetry, T, N, frac: FracOrder, half_wave=False):
        self.symmetry = symmetry
        self.half_wave = half_wave
        self.T = T
        self.N = N
        lam = (2.0 * math.pi / T * np.arange(1, N + 1)) ** (2.0 * frac.s)
        self.idx = self._index(symmetry, N, half_wave)
        self.mult = np.concatenate(([0.0], lam, lam))[self.idx]
        self.weight = np.concatenate(([2.0], np.ones(2 * N)))[self.idx]
        M = 4 * (N + 1)
        self.x = np.arange(M) * (T / M)
        self.M = M
        self.fft = N >= FFT_MIN_N
        if not self.fft:
            self.basis, self.proj_scale = _tables(symmetry, N, half_wave)[:2]
        self._last = None, None   # the last array values evaluated, and its grid values

    @staticmethod
    def _index(symmetry, N, half_wave):
        part = {"odd": slice(N + 1, None), "full": slice(None)}[symmetry]
        return np.arange(2 * N + 1)[part][:: 2 if half_wave else 1]

    def _layout(self, c):
        """Class coefficients c in the full layout, as (b_0..b_N, a_1..a_N)."""
        full = np.zeros(2 * self.N + 1)
        full[self.idx] = c
        return full[: self.N + 1], full[self.N + 1 :]

    def values(self, c):
        """Grid values of the class coefficients c.  Those of the last array
        evaluated are kept and handed back for that very array (``is``); any
        other, a copy included, is evaluated afresh.  So neither a coefficient
        array once evaluated (as in _newton) nor its values are modified in place."""
        if c is not self._last[0]:
            self._last = c, grid_synthesis(self.M, *self._layout(c)) if self.fft else self.basis @ c
        return self._last[1]

    def project(self, samples):
        """Grid samples of a trig polynomial -> class coefficient vector."""
        if self.fft:
            return np.concatenate(grid_analysis(samples, self.N))[self.idx]
        return self.proj_scale * (self.basis.T @ samples)

    def residual(self, c, well: DoubleWell, k=1.0):
        p = self.project(well.f1(self.values(c)))
        return self.mult * c + (p if k == 1.0 else k * p)

    def jacobian(self, c, well: DoubleWell, k=1.0):
        g = well.f2(self.values(c))
        J = gram(self.symmetry, self.N, g if k == 1.0 else k * g, self.half_wave)
        J.reshape(-1)[:: J.shape[0] + 1] += self.mult   # the diagonal
        return J

    def newton_pair(self, well: DoubleWell, k=1.0):
        """(residual, jacobian) of _newton at coupling k."""
        return (lambda c: self.residual(c, well, k)), (lambda c: self.jacobian(c, well, k))

    def l2_norm(self, c):
        """L^2 norm of the function with class coefficients c."""
        return math.sqrt(self.T / 2.0 * float(c @ (self.weight * c)))

    def energy_full(self, c, well: DoubleWell):
        pot = float(well.f(self.values(c)).sum()) * (self.T / self.M)
        return 0.5 * (self.T / 2.0) * float(self.mult @ (c**2)) + pot

    def to_function(self, c):
        b, a = self._layout(c)
        return PeriodicFunction(T=self.T, sin_coeffs=a, cos_coeffs=b, odd=self.symmetry == "odd")

    def from_function(self, u: PeriodicFunction):
        v = u.truncate(self.N)
        return np.concatenate((v.cos_coeffs, v.sin_coeffs))[self.idx]


def _check_period(T, N=0, s=0.0):
    """Reject a period that is not positive and finite, or one at which the top
    multiplier (2 pi N / T)^{2s} of a degree-N class exceeds 1e150: the class
    norms square the multipliers, and they overflow from about 1e154 on."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"period must be positive and finite, got {T!r}")
    if N and 2.0 * s * math.log(2.0 * math.pi * N / T) > math.log(1e150):
        raise ValueError(f"period T={T!r} is too small at N={N}, s={s}: (2 pi N / T)^(2s) exceeds 1e150")


def _check_types(**args):
    """Raise TypeError naming the first parameter of the wrong type; each keyword maps
    a parameter to (value, class or tuple of classes)."""
    for name, (value, kind) in args.items():
        if not isinstance(value, kind):
            kinds = kind if isinstance(kind, tuple) else (kind,)
            raise TypeError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, got {type(value).__name__}")


def _solve_class(symmetry, T, N, frac: FracOrder, well: DoubleWell, half_wave=False):
    """The class of a semilinear solve with this well; an even request gets
    the odd class, whose half-wave solutions shifted by T/4 are the even
    ones.  Raises ValueError unless T passes _check_period and, for an odd
    or even request, the well is even: the odd class drops the even part of
    F'(u), and both take -u for a solution.  It also rejects a period at
    which NEWTON_TOL cannot tell a nonconstant u from u = 0.  The class
    norm carries sqrt(T/2), so near u = 0 a first harmonic of amplitude
    NONCONSTANT_AMPLITUDE has a residual of norm at most sqrt(T/2)
    ((2 pi / T)^{2s} + |F''(0)|) NONCONSTANT_AMPLITUDE; where that is <=
    NEWTON_TOL, Newton accepts it, and any start near it, unmoved."""
    _check_types(T=(T, numbers.Real), frac=(frac, FracOrder), well=(well, DoubleWell))
    _check_period(T, N, frac.s)
    if symmetry != "full" and not well.even:
        raise ValueError(f"the {symmetry} class needs an even potential, got {well.label!r}")
    first = (2.0 * math.pi / T) ** (2.0 * frac.s) + abs(float(well.f2(0.0)))
    if math.sqrt(T / 2.0) * first * NONCONSTANT_AMPLITUDE <= NEWTON_TOL:
        raise ValueError(f"period T={T!r} is too small at s={frac.s} for the Newton tolerance {NEWTON_TOL:g}: "
                         f"it accepts a first harmonic of amplitude {NONCONSTANT_AMPLITUDE:g} as a solution")
    return _SymmetryClass("full" if symmetry == "full" else "odd", T, N, frac, half_wave)


def _newton(residual, jacobian, z, max_iter, norm):
    """Newton iteration z <- z - jacobian(z)^{-1} residual(z) until
    norm(residual(z)) <= NEWTON_TOL; returns (z, that norm).  The one Newton loop
    of the package: the semilinear solves pass a class residual, and the
    continuation corrector its bordered system.  Callers may rely on the
    order of the calls: each jacobian(z) takes the very array of the latest
    residual(z), and no z is modified in place."""
    res = residual(z)
    rnorm = norm(res)
    for _ in range(max_iter):
        if rnorm <= NEWTON_TOL:
            return z, rnorm
        J = jacobian(z)
        try:
            delta = np.linalg.solve(J, res)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not np.isfinite(delta).all():
            raise SingularJacobian("Newton step is not finite")
        z = z - delta
        res = residual(z)
        rnorm = norm(res)
    if rnorm <= NEWTON_TOL:
        return z, rnorm
    raise NoConvergence(f"Newton stalled at residual {rnorm:.3e} (tol {NEWTON_TOL:.1e})")


# ---------------------------------------------------------------------------
# fractional Laplacian: multiplier route


def multipliers(u: PeriodicFunction, frac: FracOrder):
    """Per-mode symbols (2 pi m / T)^{2s} for m = 1..N."""
    m = np.arange(1, u.N + 1)
    return (u.omega * m) ** (2.0 * frac.s)


def frac_laplacian(u: PeriodicFunction, frac: FracOrder) -> PeriodicFunction:
    """Apply (-d_xx)^s as a Fourier multiplier; the constant mode maps to 0."""
    _check_types(u=(u, PeriodicFunction), frac=(frac, FracOrder))
    lam = multipliers(u, frac)
    b = np.concatenate(([0.0], lam * u.cos_coeffs[1:]))
    return PeriodicFunction(T=u.T, sin_coeffs=lam * u.sin_coeffs, cos_coeffs=b, odd=u.odd)


# ---------------------------------------------------------------------------
# fractional Laplacian: singular-integral oracle

# The principal value over the whole line is folded onto one period with the
# one-sided image kernel S(r) = sum_{j>=0} (r + jT)^{-1-2s}, which has the
# exact closed form T^{-1-2s} zeta(1+2s, r/T) (Hurwitz zeta).  Splitting off
# the j=0 image leaves a smooth remainder, and the singular part is handled
# by a Gauss-Jacobi rule with weight r^{1-2s} applied to the second
# difference divided by r^2.

_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)   # B_2..B_16
ORACLE_TOL = 1e-10   # relative change between quadrature orders that ends singular_integral_oracle


def _hurwitz_zeta(p, q):
    """Hurwitz zeta sum_{k>=0} (k + q)^{-p} for orders p > 1 and q > 0, a
    scalar or an array each, broadcast against each other: ten terms
    directly, then Euler-Maclaurin at a = q + 10 with the Bernoulli numbers
    B_2..B_16, whose remainder is below 1e-15 relative for p <= 3, q >= 1/2
    and smaller still for larger q.  Raises ValueError unless every p > 1 in
    floating point, where the sum diverges: the callers' p = 1 + 2s rounds
    to 1 for s below about 1.1e-16."""
    if not np.all(p > 1.0):
        raise ValueError(f"Hurwitz zeta(p, q) needs p > 1, got p = 1 + 2s = {float(np.min(p))!r} "
                         f"(s is too small)")
    q = np.asarray(q, dtype=float)
    a = q + 10.0
    out = sum((q + k) ** -p for k in range(10)) + a ** (1.0 - p) / (p - 1.0) + 0.5 * a**-p
    term = 0.5 * p * a ** (-p - 1.0)   # (p)_{2j-1} a^{1-p-2j} / (2j)! at j = 1
    for j, b in enumerate(_BERNOULLI, 1):
        out += b * term
        term *= (p + 2 * j - 1) * (p + 2 * j) / ((2 * j + 1) * (2 * j + 2)) / (a * a)
    return out


@lru_cache(maxsize=256)
def _gauss_jacobi_01(n, beta):
    """Nodes/weights for int_0^1 r^beta f(r) dr, cached per (n, beta) as
    read-only arrays.

    Golub-Welsch for the weight r^beta on (0, 1), the Jacobi matrix of
    (1 + t)^beta on (-1, 1) under t = 2r - 1: the nodes are the eigenvalues
    of the Jacobi matrix, polished by one Newton step on the three-term
    recurrence of the orthonormal polynomials p_k, and the weights are the
    Christoffel numbers 1 / sum_{k<n} p_k^2 at the polished nodes (Hale &
    Townsend, SISC 2013).  The recurrence runs in r and in np.longdouble:
    near r = 0 it amplifies rounding, and in double the rounding of its
    coefficients alone moves the weight of the node nearest 0 by 3e-12 at
    beta = -0.98, n = 384 (np.longdouble has a 64-bit mantissa on x86; where
    it is plain double, weights near 0 are good to about 1e-12).  Raises
    ValueError unless 2 + beta > 1 in floating point, where the first
    off-diagonal entry would divide by sqrt(c^2 - 1) = 0; the extension's
    y^-a rule, with beta = 2s - 1, gets there for s up to about 6e-17.
    """
    if not 2.0 + beta > 1.0:
        raise ValueError(f"Gauss-Jacobi weight r^beta needs 2 + beta > 1 in floating point, got "
                         f"beta = {beta!r} (the y^-a rule of the extension has beta = 2s - 1: s is too small)")
    beta = np.longdouble(beta)
    k = np.arange(1, n + 1, dtype=np.longdouble)
    c = 2 * k + beta
    # (1 + the t-diagonal) / 2, with 1 + beta / (beta + 2) = 2 (beta + 1) / (beta + 2) free of cancellation
    diag = np.concatenate(([(beta + 1) / (beta + 2)], 0.5 + 0.5 * beta * beta / (c[:-1] * (c[:-1] + 2))))
    b = np.concatenate(([0], k * (k + beta) / (c * np.sqrt(c * c - 1))))   # b_0 = 0, b_1..b_n
    p0 = np.sqrt(beta + 1)   # p_0^2 = 1 / the total mass

    def recurrence(r):
        """p_{n-1}(r), p_n(r) and sum_{k<n} p_k(r)^2."""
        p_prev, p, total = 0, np.full_like(r, p0), 0
        for j in range(n):
            total = total + p * p
            p_prev, p = p, ((r - diag[j]) * p - b[j] * p_prev) / b[j + 1]
        return p_prev, p, total

    d, e = diag.astype(float), b[1:-1].astype(float)
    r = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)).astype(np.longdouble)
    # Newton with p_n' = sum_{k<n} p_k^2 / (b_n p_{n-1}), the Christoffel-Darboux
    # identity at a root: off the root by delta it errs by O(delta), so the step
    # still squares the error
    p_prev, p, total = recurrence(r)
    r = r - b[n] * p_prev * p / total
    r, w = r.astype(float), (1 / recurrence(r)[2]).astype(float)
    r.flags.writeable = w.flags.writeable = False
    return r, w


@lru_cache(maxsize=256)
def _gauss_legendre_01(n):
    """Nodes/weights for int_0^1 f(r) dr, cached per n as read-only arrays."""
    t, w = np.polynomial.legendre.leggauss(n)
    r, w = (t + 1.0) / 2.0, w / 2.0
    r.flags.writeable = w.flags.writeable = False
    return r, w


def _folded_rules(frac, T, n):
    """The two n-point rules (r, w) on (0, T) whose sums over g(r_i) w_i add
    up to int_0^T g(r) S(r) dr for a g vanishing like r^2 at 0: Gauss-Jacobi
    with weight r^{1-2s} for the j = 0 image g(r) / r^{1+2s}, and
    Gauss-Legendre for the smooth remainder with
    S(r) - r^{-1-2s} = T^{-1-2s} zeta(1+2s, 1 + r/T)."""
    s = frac.s
    r1, w1 = _gauss_jacobi_01(n, 1.0 - 2.0 * s)
    r1 = r1 * T
    w1 = w1 * T ** (2.0 - 2.0 * s) / r1**2
    r2, w2 = _gauss_legendre_01(n)
    w2 = w2 * T ** (-2.0 * s) * _hurwitz_zeta(1.0 + 2.0 * s, 1.0 + r2)
    return (r1, w1), (r2 * T, w2)


def _oracle_fixed(u, frac, x, n):
    """Fixed-order evaluation of the folded singular integral at points x."""
    # g(r) = 2u(x) - u(x+r) - u(x-r) = sum_m 4 sin^2(omega m r / 2) u_m(x), with
    # u_m the m-th mode: summed without the cancellation of the difference
    sin, cos, (a, b), _ = u._modes(np.atleast_1d(x))
    modes = sin * a + cos * b
    m = np.arange(1, u.N + 1)

    def g(r):
        return modes @ (4.0 * np.sin(np.multiply.outer(m, r) * (0.5 * u.omega)) ** 2)

    return frac.c_sing * sum(g(r) @ w for r, w in _folded_rules(frac, u.T, n))


def singular_integral_oracle(u: PeriodicFunction, frac: FracOrder, x):
    """Evaluate C(s) PV int (u(x)-u(xbar)) |x-xbar|^{-1-2s} dxbar at x.

    Refines the quadrature order until successive values agree to
    ORACLE_TOL relative to max(1, |value|); raises QuadratureNonConvergence
    if refinement stalls.  Independent of the Fourier-multiplier route.
    """
    _check_types(u=(u, PeriodicFunction), frac=(frac, FracOrder))
    scalar = np.isscalar(x) or np.ndim(x) == 0
    prev = _oracle_fixed(u, frac, x, 48)
    for n in (96, 192, 384, 768):
        cur = _oracle_fixed(u, frac, x, n)
        err = np.max(np.abs(cur - prev))
        if err <= ORACLE_TOL * max(1.0, np.max(np.abs(cur))):
            return float(cur[0]) if scalar else cur
        prev = cur
    raise QuadratureNonConvergence(
        f"singular-integral quadrature stalled at error {err:.3e} (tol {ORACLE_TOL:.1e})"
    )


# ---------------------------------------------------------------------------
# energies

GAGLIARDO_TOL = 1e-9   # relative change between radial orders that ends gagliardo_energy

def spectral_dirichlet(u: PeriodicFunction, frac: FracOrder):
    """<u, (-d_xx)^s u> over one full period, by Parseval."""
    lam = multipliers(u, frac)
    return 0.5 * u.T * float(lam @ (u.sin_coeffs**2 + u.cos_coeffs[1:] ** 2))


def _gagliardo_fixed(u, frac, n_r, n_x):
    # u(x +- r) - u(x) = sum_m [-u_m(x) 2 sin^2(omega m r / 2) +- v_m(x) sin(omega m r)]
    # with u_m = a_m sin + b_m cos and v_m = a_m cos - b_m sin at x, so the two
    # squares add up to 2 [(U c)^2 + (V s)^2]: two matrix products, no cancellation
    T = u.T
    sin, cos, (a, b), _ = u._modes(np.arange(n_x) * (T / n_x))
    U, V = sin * a + cos * b, cos * a - sin * b
    m = np.arange(1, u.N + 1)

    def inner(r, w):
        phase = np.multiply.outer(m, r) * u.omega
        return ((U @ (2.0 * np.sin(0.5 * phase) ** 2)) ** 2 + (V @ np.sin(phase)) ** 2) @ w

    total = sum(float(np.sum(inner(r, w))) for r, w in _folded_rules(frac, T, n_r))
    return frac.c_sing * total * (T / n_x)


def gagliardo_energy(u: PeriodicFunction, frac: FracOrder):
    """(C(s)/2) double integral of |u(x)-u(xbar)|^2 |x-xbar|^{-1-2s} over
    one period times the whole line; the outer tail is summed in closed form
    over all periodic images.
    """
    n_x = max(4 * u.N + 16, 32)
    prev = _gagliardo_fixed(u, frac, 64, n_x)
    for n_r in (128, 256, 512):
        cur = _gagliardo_fixed(u, frac, n_r, n_x)
        if abs(cur - prev) <= GAGLIARDO_TOL * max(1.0, abs(cur)):
            return cur
        prev = cur
    raise QuadratureNonConvergence("Gagliardo double integral did not converge")


def potential_energy_half(u: PeriodicFunction, well: DoubleWell):
    """int_0^{T/2} F(u) dx by periodic-trapezoid quadrature on
    max(8 N + 64, 256) intervals."""
    n = max(8 * u.N + 64, 256)
    x = np.linspace(0.0, u.T / 2.0, n + 1)
    vals = well.f(u.sample(2 * n)[: n + 1])
    return float(np.trapezoid(vals, x))


def energy_functional(u: PeriodicFunction, frac: FracOrder, well: DoubleWell):
    """Half-period energy J(u) = (1/(4 d_s)) <u, Lu> + int_0^{T/2} F(u) dx."""
    return spectral_dirichlet(u, frac) / (4.0 * frac.d_s) + potential_energy_half(u, well)
