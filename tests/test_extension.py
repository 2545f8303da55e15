"""Extension tests: Bessel profile identities, cross-validation of the two
field constructions, Dirichlet-to-Neumann consistency, weighted energy."""

import math
import tracemalloc

import numpy as np
import pytest

from fracperiodic import extension
from fracperiodic.errors import (
    ExtrapolationDivergence,
    QuadratureNonConvergence,
    TailNotConverged,
)
from fracperiodic.extension import (
    BesselProfile,
    _Profile,
    dirichlet_to_neumann,
    extend_bessel,
    extend_poisson,
    extension_energy,
    poisson_kernel_periodized,
)
from fracperiodic.spectral import (
    FracOrder,
    PeriodicFunction,
    frac_laplacian,
    spectral_dirichlet,
)

TWO_PI = 2.0 * math.pi


def random_function(rng, T=TWO_PI, N=4, odd=False):
    a = rng.standard_normal(N)
    b = np.zeros(N + 1) if odd else np.concatenate([rng.standard_normal(1),
                                                    rng.standard_normal(N)])
    return PeriodicFunction(T=T, sin_coeffs=a, cos_coeffs=b, odd=odd)


# -- Bessel profile ----------------------------------------------------------


def test_profile_value_at_zero():
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        for m in (1, 2, 5):
            p = BesselProfile(omega=float(m), frac=FracOrder(s))
            assert abs(p.value(0.0) - 1.0) < 1e-10


def test_profile_weighted_derivative_limit():
    # lim y^a J_m'(y) = -C_s m^{2s}: exact limit plus a fitted extrapolation
    # (the approach is O(y^{2-2s}), so a raw small-y sample is not enough)
    for s in (0.25, 0.5, 0.75):
        frac = FracOrder(s)
        for m in (1, 3):
            p = BesselProfile(omega=float(m), frac=frac)
            target = -frac.c_s * m ** (2 * s)
            assert abs(p.weighted_deriv(0.0) - target) < 1e-10
            ys = 1e-6 * 0.5 ** np.arange(5)
            A = np.column_stack([np.ones(5), ys ** (2 - 2 * s), ys**2, ys ** (4 - 4 * s)])
            coef, *_ = np.linalg.lstsq(A, p.weighted_deriv(ys), rcond=None)
            assert abs(coef[0] - target) < 1e-8


def test_profile_ode_residual():
    # J'' + (a/y) J' - m^2 J = 0 on [0.1, 10]; J'' from the independent
    # scipy Bessel recurrences rather than finite differences
    from scipy.special import kv

    for s in (0.3, 0.5, 0.7):
        frac = FracOrder(s)
        m = 2.0
        p = BesselProfile(omega=m, frac=frac)
        mu = p.mu / m**s  # profile normalization in the argument t = m y
        for y in np.linspace(0.1, 10.0, 40):
            t = m * y
            k0, k1, k2 = kv(s, t), -0.5 * (kv(s - 1, t) + kv(s + 1, t)), 0.25 * (
                kv(s - 2, t) + 2 * kv(s, t) + kv(s + 2, t)
            )
            j2 = mu * m * m * (
                s * (s - 1) * t ** (s - 2) * k0 + 2 * s * t ** (s - 1) * k1 + t**s * k2
            )
            res = j2 + frac.a / y * p.deriv(y) - m * m * p.value(y)
            assert abs(res) < 1e-8


def test_profile_half_order_closed_form():
    # at s = 1/2 the profile is exactly e^{-m y}
    p = BesselProfile(omega=3.0, frac=FracOrder(0.5))
    ys = np.linspace(0.0, 5.0, 21)
    assert np.max(np.abs(p.value(ys) - np.exp(-3.0 * ys))) < 1e-10


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_profile_derivatives_against_three_kv_route(s):
    # for t >= 2 phi' = -mu t^s K_{1-s} (one kv) against the product rule
    # with K_s' = -(K_{s-1} + K_{s+1}) / 2 (three kv)
    from scipy.special import kv

    phi = _Profile(s)
    t = np.geomspace(2.0, 600.0, 400)
    kprime = -0.5 * (kv(s - 1, t) + kv(s + 1, t))
    ref = phi.mu * (s * t ** (s - 1) * kv(s, t) + t**s * kprime)
    assert np.max(np.abs(phi.deriv(t) / ref - 1.0)) < 1e-12
    assert np.max(np.abs(phi.weighted_deriv(t) / (t ** (1 - 2 * s) * ref) - 1.0)) < 1e-12


@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_profile_series_against_power_sums(s):
    # below t = 2 the Horner sums equal the series written out term by term
    phi = _Profile(s)
    t = np.concatenate((np.geomspace(1e-8, 1.0, 40), np.linspace(1.0, 2.0, 41)[:-1]))
    j = np.arange(len(phi.alpha))
    ta = t[:, None] ** (2.0 * j)
    tb = t[:, None] ** (2.0 * s + 2.0 * j)
    value = ta @ phi.alpha + tb @ phi.beta
    dphi = (ta[:, 1:] / t[:, None]) @ (2 * j[1:] * phi.alpha[1:]) + (tb / t[:, None]) @ (
        (2 * s + 2 * j) * phi.beta
    )
    assert np.max(np.abs(phi.value(t) / value - 1.0)) < 1e-13
    assert np.max(np.abs(phi.deriv(t) / dphi - 1.0)) < 1e-13
    assert np.max(np.abs(phi.weighted_deriv(t) / (t ** (1 - 2 * s) * dphi) - 1.0)) < 1e-13


# -- field construction ------------------------------------------------------


def per_mode_field(field, name, x, y):
    """field.<name>(x, y) summed mode by mode from per-mode BesselProfile objects."""
    u = field.base
    x = np.asarray(x, dtype=float)
    kind = {"value": "value", "dx": "value", "dy": "deriv", "weighted_dy": "weighted_deriv"}[name]
    out = np.zeros(np.broadcast(x, np.asarray(y)).shape)
    for m in range(1, u.N + 1):
        damp = getattr(BesselProfile(omega=u.omega * m, frac=field.frac), kind)(y)
        a, b = u.sin_coeffs[m - 1], u.cos_coeffs[m]
        ph = u.omega * m * x
        if name == "dx":
            out = out + damp * u.omega * m * (a * np.cos(ph) - b * np.sin(ph))
        else:
            out = out + damp * (a * np.sin(ph) + b * np.cos(ph))
    return out + (u.cos_coeffs[0] if name == "value" else 0.0)


@pytest.mark.parametrize("s", [0.2, 0.5, 0.8])
def test_universal_table_matches_per_mode_profiles(s):
    rng = np.random.default_rng(5)
    u = random_function(rng, T=7.3, N=24)
    field = extend_bessel(u, FracOrder(s))
    x = np.linspace(0.0, u.T, 13)[:, None]
    y = np.array([1e-4, 0.05, 0.4, 1.0, 3.0, 9.0, 30.0, 900.0])
    for name in ("value", "dx", "dy", "weighted_dy"):
        for xs, ys in ((x, y[None, :]), (1.1, 0.7)):
            got = getattr(field, name)(xs, ys)
            ref = per_mode_field(field, name, xs, ys)
            assert np.shape(got) == np.shape(ref)
            assert np.max(np.abs(got - ref)) <= 1e-13 * max(1.0, float(np.max(np.abs(ref))))
    for kind in ("value", "deriv", "weighted_deriv"):
        ref = np.column_stack([getattr(BesselProfile(omega=u.omega * m, frac=field.frac), kind)(y)
                               for m in range(1, u.N + 1)])
        assert np.max(np.abs(field.profile_table(y, kind) - ref)) <= 1e-14 * np.max(np.abs(ref))
    with pytest.raises(ValueError):
        field.profile_table(y, "second_deriv")


def test_bessel_trace_and_periodicity():
    rng = np.random.default_rng(2)
    u = random_function(rng, N=5)
    field = extend_bessel(u, FracOrder(0.3))
    xs = np.linspace(0.0, u.T, 9)
    assert np.max(np.abs(field.value(xs, 0.0) - u(xs))) < 1e-8
    assert np.max(np.abs(field.value(xs + u.T, 1.3) - field.value(xs, 1.3))) < 1e-12


def test_constant_extension():
    u = PeriodicFunction.constant(TWO_PI, 2.5)
    field = extend_bessel(u, FracOrder(0.4))
    assert abs(field.value(1.0, 3.0) - 2.5) < 1e-14


def test_parity_preserved():
    rng = np.random.default_rng(8)
    u = random_function(rng, N=4, odd=True)
    field = extend_bessel(u, FracOrder(0.6))
    xs = np.linspace(0.1, 2.0, 5)
    assert np.max(np.abs(field.value(xs, 0.7) + field.value(-xs, 0.7))) < 1e-12


def test_bessel_solves_weighted_equation():
    # div(y^a grad U) = 0 <=> U_xx + U_yy + (a/y) U_y = 0
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0, 0.3], cos_coeffs=None)
    frac = FracOrder(0.3)
    field = extend_bessel(u, frac)
    h = 1e-4
    for x0, y0 in [(0.7, 0.5), (2.0, 1.5), (4.0, 3.0)]:
        uxx = (field.value(x0 + h, y0) - 2 * field.value(x0, y0) + field.value(x0 - h, y0)) / h**2
        uyy = (field.value(x0, y0 + h) - 2 * field.value(x0, y0) + field.value(x0, y0 - h)) / h**2
        res = uxx + uyy + frac.a / y0 * field.dy(x0, y0)
        assert abs(res) < 1e-6


def test_kernel_mass():
    for s in (0.25, 0.5, 0.75):
        frac = FracOrder(s)
        T = TWO_PI
        for y in (0.1, 1.0, 10.0):
            # folded kernel integrates to 1 over one period
            from scipy.integrate import quad

            val, _ = quad(lambda z: poisson_kernel_periodized(z, y, frac, T),
                          -T / 2, T / 2, points=[0.0], limit=200, epsabs=1e-12)
            assert abs(val - 1.0) < 1e-10


def test_poisson_matches_bessel():
    rng = np.random.default_rng(13)
    u = random_function(rng, N=4)
    frac = FracOrder(0.35)
    fb = extend_bessel(u, frac)
    fp = extend_poisson(u, frac)
    for x0, y0 in [(0.5, 0.5), (2.5, 1.0), (5.0, 0.2)]:
        assert abs(fb.value(x0, y0) - fp.value(x0, y0)) < 1e-6


def quad_convolution(u, frac, x, y):
    """(u * P_per(., y))(x) by adaptive quadrature over half a period, with
    the even kernel folding u(x - z) + u(x + z): the oracle for the
    Poisson route, independent of its panels."""
    from scipy.integrate import quad

    val, _, _, *msg = quad(
        lambda z: poisson_kernel_periodized(z, y, frac, u.T) * (u(x - z) + u(x + z)),
        0.0, u.T / 2, limit=300, epsabs=1e-13, epsrel=1e-12, full_output=1,
    )
    assert not msg, f"quadrature oracle did not converge: {msg}"
    return val


@pytest.mark.parametrize("N", [2, 8, 24])
@pytest.mark.parametrize("s", [0.15, 0.35, 0.5, 0.75, 0.9])
def test_poisson_route_against_quad(s, N):
    rng = np.random.default_rng(int(100 * s) + N)
    u = random_function(rng, N=N)
    frac = FracOrder(s)
    field = extend_poisson(u, frac)
    for y in np.geomspace(1e-3 / (u.omega * N), 5.0 / u.omega, 3):
        x = float(rng.uniform(0.0, u.T))
        assert abs(field.value(x, y) - quad_convolution(u, frac, x, y)) < 1e-10


def test_poisson_kernel_cosine_mass():
    # c_0(y) is the kernel mass, computed by the rule and not set to 1
    for s in (0.1, 0.35, 0.5, 0.75, 0.95):
        for T in (0.5, TWO_PI, 50.0):
            om = TWO_PI / T
            for y in np.geomspace(1e-4 / om, 50.0 / om, 7):
                c = extension._poisson_cosine_coeffs(FracOrder(s), T, 8, y)
                assert abs(c[0] - 1.0) < 1e-12


def test_poisson_rule_too_coarse_raises(monkeypatch):
    u = random_function(np.random.default_rng(6), N=8)
    field = extend_poisson(u, FracOrder(0.4))
    monkeypatch.setattr(extension, "_POISSON_ORDERS", (2, 3))
    with pytest.raises(QuadratureNonConvergence):
        field.value(1.0, 0.01)


def test_poisson_route_uses_no_bessel_function(monkeypatch):
    u = random_function(np.random.default_rng(7), N=6)
    frac = FracOrder(0.3)
    xs = np.linspace(0.0, u.T, 7)[:, None]
    ys = np.array([0.0, 0.02, 0.7, 3.0])
    ref = extend_bessel(u, frac).value(xs, ys)

    def forbidden(*args, **kwargs):
        raise AssertionError("the Poisson route evaluated a Bessel profile")

    monkeypatch.setattr(extension, "kv", forbidden)
    monkeypatch.setattr(extension, "_Profile", forbidden)
    got = extend_poisson(u, frac).value(xs, ys)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) < 1e-12


def test_poisson_route_far_above_the_period():
    # at y = 1e5 T/(2 pi) every mode but the mean has decayed; about 95 000
    # kernel images per node are summed, in blocks of bounded size
    u = random_function(np.random.default_rng(8), N=8)
    field = extend_poisson(u, FracOrder(0.5))
    tracemalloc.start()
    try:
        got = field.value(np.array([0.0, 1.0, 2.5]), 1e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - u.cos_coeffs[0])) < 1e-12
    assert peak < 32 * 2**20   # the unblocked image sum needs about 300 MiB


def test_poisson_cosine_table_memory_at_large_N():
    # about 26 000 rule nodes times 513 modes: 100 MiB as one cosine table
    tracemalloc.start()
    try:
        c = extension._poisson_cosine_coeffs(FracOrder(0.5), TWO_PI, 512, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(c[0] - 1.0) < 1e-12
    assert peak < 32 * 2**20


def test_poisson_kernel_keeps_precision_at_the_peak():
    # at y = 1e-9 the j = 0 image carries all but ~1e-20 of the kernel near
    # z = 0; wrapping z through a shift by T/2 would cost about 1e-7 of it
    frac = FracOrder(0.6)
    y = 1e-9
    z = np.array([0.0, 3e-10, 1e-9, -2e-9])
    ref = frac.c_poisson * y ** (2 * frac.s) * (z**2 + y**2) ** (-0.5 - frac.s)
    assert np.max(np.abs(poisson_kernel_periodized(z, y, frac, TWO_PI) / ref - 1.0)) < 1e-13
    # images of a point are the same point
    z = np.array([0.3, -2.0, 3.1])
    base = poisson_kernel_periodized(z, 0.1, frac, TWO_PI)
    for j in (-2, 1, 3):
        shifted = poisson_kernel_periodized(z + j * TWO_PI, 0.1, frac, TWO_PI)
        assert np.max(np.abs(shifted / base - 1.0)) < 1e-12


def test_half_order_closed_form_field():
    # s = 1/2: U = sum e^{-omega m y} (modes), for both constructions
    u = PeriodicFunction.from_modes(8.0, sin_coeffs=[1.0, 0.0, -0.4], cos_coeffs=[0.2, 0.0, 0.5])
    frac = FracOrder(0.5)
    om = u.omega

    def closed(x, y):
        out = u.cos_coeffs[0]
        for m in range(1, u.N + 1):
            out += math.exp(-om * m * y) * (
                u.sin_coeffs[m - 1] * math.sin(om * m * x)
                + u.cos_coeffs[m] * math.cos(om * m * x)
            )
        return out

    fb = extend_bessel(u, frac)
    fp = extend_poisson(u, frac)
    for x0, y0 in [(0.3, 0.4), (3.3, 1.1), (6.0, 2.0)]:
        ref = closed(x0, y0)
        assert abs(fb.value(x0, y0) - ref) < 1e-8
        assert abs(fp.value(x0, y0) - ref) < 1e-8


# -- Dirichlet-to-Neumann ----------------------------------------------------


def test_dtn_bessel_is_multiplier():
    rng = np.random.default_rng(21)
    for s in (0.25, 0.5, 0.75):
        frac = FracOrder(s)
        u = random_function(rng, N=5)
        lam_u = frac_laplacian(u, frac)
        dtn = dirichlet_to_neumann(extend_bessel(u, frac))
        assert np.max(np.abs(dtn.sin_coeffs - lam_u.sin_coeffs)) < 1e-10
        assert np.max(np.abs(dtn.cos_coeffs - lam_u.cos_coeffs)) < 1e-10


def test_dtn_constant_is_zero():
    u = PeriodicFunction.constant(TWO_PI, 1.7)
    dtn = dirichlet_to_neumann(extend_bessel(u, FracOrder(0.5)))
    assert dtn.coeff_norm() < 1e-14


def test_dtn_mode_three_quarter():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.0, 0.0, 1.0], cos_coeffs=None)
    dtn = dirichlet_to_neumann(extend_bessel(u, FracOrder(0.25)))
    assert abs(dtn.sin_coeffs[2] - 3.0**0.5) < 1e-10


def test_dtn_poisson_route():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    frac = FracOrder(0.5)
    dtn = dirichlet_to_neumann(extend_poisson(u, frac))
    ref = frac_laplacian(u, frac)
    assert np.max(np.abs(dtn.sin_coeffs - ref.sin_coeffs)) < 1e-6


def test_dtn_poisson_one_fit_matches_per_point_fits():
    # the vectorized fit against one least-squares solve per x on the same
    # field values
    rng = np.random.default_rng(23)
    u = random_function(rng, N=3)
    frac = FracOrder(0.35)
    field = extend_poisson(u, frac)
    xg = np.arange(8) * (u.T / 8)
    y0 = 0.25 / (3 * u.omega)
    got = extension._neumann_poisson(field, xg, y0)
    s = frac.s
    ys = y0 * extension._RICHARDSON_RATIO ** np.arange(extension._RICHARDSON_LEVELS)
    A = np.column_stack([np.ones_like(ys)] + [ys**p for p in (2 - 2 * s, 2.0, 4 - 2 * s)])
    for x, g in zip(xg, got):
        f = np.array([(field.value(x, y) - u(x)) / y ** (2 * s) for y in ys])
        kappa = np.linalg.lstsq(A, f, rcond=None)[0][0]
        assert abs(g - (-frac.d_s * 2 * s * kappa)) < 1e-12 * max(1.0, abs(g))


def test_dtn_poisson_divergence_names_worst_point(monkeypatch):
    u = random_function(np.random.default_rng(29), N=2)
    field = extend_poisson(u, FracOrder(0.5))
    xg = np.arange(6) * (u.T / 6)
    real_value = extension.ExtensionField.value

    def noisy(self, x, y):   # spoil the column at x = xg[4] only
        v = real_value(self, x, y)
        return v + np.where(np.isclose(x, xg[4]), 1e-2 * math.sin(1e3 * y), 0.0)

    monkeypatch.setattr(extension.ExtensionField, "value", noisy)
    with pytest.raises(ExtrapolationDivergence, match=f"x = {xg[4]:.6g}"):
        extension._neumann_poisson(field, xg, 0.25 / u.omega)


# -- weighted energy ---------------------------------------------------------


def test_energy_sin_half():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    field = extend_bessel(u, FracOrder(0.5))
    assert abs(extension_energy(field) - math.pi) < 1e-8


def test_energy_constant_zero():
    u = PeriodicFunction.constant(TWO_PI, 3.0)
    field = extend_bessel(u, FracOrder(0.3))
    assert extension_energy(field) == 0.0


def test_energy_matches_spectral():
    rng = np.random.default_rng(31)
    for s in (0.15, 0.3, 0.5, 0.7, 0.85):
        frac = FracOrder(s)
        u = random_function(rng, N=4)
        e_ext = extension_energy(extend_bessel(u, frac))
        e_spec = spectral_dirichlet(u, frac) / frac.d_s
        assert abs(e_ext - e_spec) < 1e-6 * max(1.0, e_spec)


def test_energy_short_strip_matches_parseval():
    # y_max = 15.5 / omega_1 cuts modes 1 and 2 at t_max = 15.5 and 31 and
    # clips the others at 40; the profile tails beyond are far below the
    # quadrature error
    rng = np.random.default_rng(41)
    for s in (0.3, 0.5, 0.8):
        frac = FracOrder(s)
        u = random_function(rng, T=9.0, N=6)
        field = extend_bessel(u, frac, y_max=15.5 / (TWO_PI / 9.0))
        e_ext = extension_energy(field)
        e_spec = spectral_dirichlet(u, frac) / frac.d_s
        assert abs(e_ext - e_spec) < 1e-7 * e_spec


def test_energy_builds_two_jacobi_rules(monkeypatch):
    rng = np.random.default_rng(3)
    field = extend_bessel(random_function(rng, N=12), FracOrder(0.4))
    calls = []
    original = extension.roots_jacobi

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(extension, "roots_jacobi", counting)
    extension_energy(field)
    assert len(calls) <= 2


def test_energy_tail_guard():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    field = extend_bessel(u, FracOrder(0.5), y_max=5.0)
    with pytest.raises(TailNotConverged):
        extension_energy(field)


def test_energy_minimality():
    # any competitor sharing the trace has at least the extension energy
    rng = np.random.default_rng(47)
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0, -0.3], cos_coeffs=None)
    frac = FracOrder(0.4)
    field = extend_bessel(u, frac)
    base = extension_energy(field)
    from numpy.polynomial.legendre import leggauss

    ty, wy = leggauss(200)
    ymax = 30.0
    yq = ymax * (ty + 1) / 2
    wyq = wy * ymax / 2
    xq = np.linspace(0.0, TWO_PI, 129)[:-1]
    dx = TWO_PI / 128
    h = 1e-5
    for _ in range(5):
        c = rng.standard_normal(3) * 0.3

        def phi(x, y):
            # vanishes at y = 0 together with phi_y: keeps integrands tame
            g = c[0] * np.sin(x) + c[1] * np.cos(2 * x) + c[2]
            return g * y**2 * np.exp(-y)

        diff = 0.0
        for y0, w0 in zip(yq, wyq):
            ux = field.dx(xq, y0)
            uy = field.dy(xq, y0)
            px = (phi(xq + h, y0) - phi(xq - h, y0)) / (2 * h)
            py = (phi(xq, y0 + h) - phi(xq, y0 - h)) / (2 * h)
            integrand = 2 * (ux * px + uy * py) + px**2 + py**2
            diff += w0 * y0**frac.a * float(np.sum(integrand)) * dx
        # E(U + phi) - E(U) = diff >= 0 up to quadrature error
        assert diff > -1e-6 * max(1.0, base)
