"""Diagnostics tests: Hamiltonian first integral, Modica-type inequality,
energy scaling regimes, and the ramp-competitor upper bound."""

import math
import tracemalloc

import numpy as np
import pytest

from fracperiodic import diagnostics
from fracperiodic.diagnostics import (
    energy_scan,
    hamiltonian_check,
    modica_check,
    modica_pde_residual,
    test_function_bound as competitor_bound,
)
from fracperiodic.errors import IdentityViolation
from fracperiodic.extension import (
    ExtensionField,
    YQuadrature,
    extend_bessel,
    extension_energy,
    poisson_kernel_periodized,
)
from fracperiodic.semilinear import SolveConfig, minimize_energy
from fracperiodic.spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    singular_integral_oracle,
    spectral_dirichlet,
)


def well():
    return DoubleWell.quartic()


def solved(T=8.0, s=0.5, symmetry="odd", N=48):
    return minimize_energy(T, FracOrder(s), well(), SolveConfig(symmetry=symmetry, N=N))


def kv_power(nu, t):
    """t^nu K_nu(t) by scipy's kv, with its limit Gamma(nu) 2^(nu - 1) at t = 0."""
    from scipy.special import kv

    t = np.asarray(t, dtype=float)
    return np.where(t > 0.0, t**nu * kv(nu, np.where(t > 0.0, t, 1.0)), math.gamma(nu) * 2.0 ** (nu - 1.0))


def y_quad(g, c, lo, hi, y=0.0):
    """int_y^inf t^c g(t) dt by scipy quad, for g bounded at t = 0 and decaying
    like exp(-lo t): panels from y whose lengths double from 1/hi up to t = y +
    80/lo, the first with the algebraic weight t^c when y = 0 (IntegrationWarning
    stays an error)."""
    from scipy.integrate import quad

    edges = [y + 1.0 / hi]
    while edges[-1] < y + 80.0 / lo:
        edges.append(y + 2.0 * (edges[-1] - y))
    total = 0.0
    if y == 0.0:
        total = quad(g, 0.0, edges[0], weight="alg", wvar=(c, 0.0), epsabs=0.0, epsrel=1e-13, limit=200)[0]
    else:
        edges.insert(0, y)
    for t0, t1 in zip(edges, edges[1:]):
        total += quad(lambda t: t**c * g(t), t0, t1, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total


def quad_axis_uy2(u, frac, x):
    """(d_s/2) int_0^inf U_y(x, y)^2 y^a dy by y_quad: y^a U_y^2 = y^-a mu^2
    (sum_m alpha_m^(2s-1) h(alpha_m y) B_m)^2 with h(t) = t^(1-s) K_(1-s)(t),
    B_m = alpha_m (a_m sin + b_m cos)(alpha_m x) and mu = 2^(1-s) / Gamma(s)."""
    s, m = frac.s, np.arange(1, u.N + 1)
    alpha = u.omega * m
    B = alpha ** (2 * s) * (u.sin_coeffs * np.sin(alpha * x) + u.cos_coeffs[1:] * np.cos(alpha * x))
    mu = 2.0 ** (1.0 - s) / math.gamma(s)
    integral = y_quad(lambda y: (mu * kv_power(1.0 - s, alpha * y) @ B) ** 2, -frac.a, alpha[0], alpha[-1])
    return 0.5 * frac.d_s * integral


# -- Hamiltonian identity ------------------------------------------------------


def test_hamiltonian_trivial():
    u = PeriodicFunction.constant(8.0, 0.0)
    rep = hamiltonian_check(u, FracOrder(0.5), well())
    assert rep.max_deviation < 1e-12
    assert abs(rep.c_t + well().f(0.0)) < 1e-12  # w = 0, so c_t = -F(0)


def test_hamiltonian_on_solution():
    for s in (0.3, 0.5, 0.7):
        rep = hamiltonian_check(solved(s=s), FracOrder(s), well())
        assert rep.max_deviation < 1e-6
        assert float(np.std(rep.values)) < 1e-4


def test_hamiltonian_negative_control():
    # an arbitrary odd profile is not a solution: the "constant" drifts
    u = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.6], cos_coeffs=None)
    with pytest.raises(IdentityViolation):
        hamiltonian_check(u, FracOrder(0.5), well())


def test_certificates_reject_settings_that_disable_them():
    # a NaN tol passed any deviation (7e-3 here), and a zero sample count
    # divided by zero; tol = inf stays allowed, it only reads c_t.  A count
    # that is no integer spaced the samples wrongly: n_samples = 2.5 sampled
    # x = 0, 3.2, 6.4 on T = 8, True sampled once, and nx = 4.5 gave 5 columns
    # spaced T / 4.5
    u = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.6], cos_coeffs=None)
    frac = FracOrder(0.5)
    for bad in ({"tol": math.nan}, {"tol": -1e-5}, {"n_samples": 0}, {"n_samples": -4},
                {"n_samples": 2.5}, {"n_samples": True}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            hamiltonian_check(u, frac, well(), **bad)
    for bad in ({"tol": math.nan}, {"tol": -1.0}, {"nx": 0}, {"ny": 0}, {"nx": 4.5}, {"ny": 8.0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            modica_check(u, frac, well(), **bad)
    assert hamiltonian_check(u, frac, well(), tol=math.inf).max_deviation > 1e-3


def test_hamiltonian_rejects_a_trace_whose_u_x_squared_overflows():
    # a trace passed in directly meets no solver period guard: the certificate's
    # own guard at s = 1 bounds (2 pi N / T)^2, the scale of U_x^2, by 1e150
    u = PeriodicFunction.from_modes(1e-76, sin_coeffs=[0.6], cos_coeffs=[0.0, 0.2])
    for frac in (FracOrder(0.5), FracOrder(0.9)):
        with pytest.raises(ValueError, match=r"too small at N=1, s=1\.0: \(2 pi N / T\)\^\(2s\) exceeds 1e150"):
            hamiltonian_check(u, frac, well(), tol=np.inf)


def test_hamiltonian_rows_sum_to_zero_deviation():
    rep = hamiltonian_check(solved(), FracOrder(0.5), well())
    devs = [row[2] for row in rep.rows()]
    assert abs(float(np.mean(devs))) < 1e-14


def closed_form_pair(s, T, m, n):
    """(P_mn, Q_mn) = int_0^inf y^a (phi, phi')(alpha_m y) (phi, phi')(alpha_n y) dy,
    read off diagnostics._axis_forms by polarization: at x = 0 a trace with
    a_k = b_k = 1 on the modes k has (d_s/2) sum_kl alpha_k alpha_l (P, Q)_kl
    for its two forms."""
    frac, om = FracOrder(s), 2.0 * math.pi / T

    def forms(*modes):
        c = np.zeros(max(m, n) + 1)
        c[list(modes)] = 1.0
        u = PeriodicFunction.from_modes(T, sin_coeffs=c[1:], cos_coeffs=c)
        return 2.0 / frac.d_s * np.array(diagnostics._axis_forms(u, s, 0.0))

    if m == n:
        return forms(m) / (om * m) ** 2
    return (forms(m, n) - forms(m) - forms(n)) / (2.0 * om * m * om * n)


@pytest.mark.parametrize("T", [8.0, 40.0, 80.0])
@pytest.mark.parametrize("s", [0.2, 0.3, 0.5, 0.7, 0.9])
def test_closed_form_profile_integrals_match_quad(s, T):
    # the independent route: scipy quad of the kv products, y^a phi(py) phi(qy)
    # = y^a mu^2 h_s(py) h_s(qy) and y^a phi'(py) phi'(qy) = y^-a mu^2 (pq)^(2s-1)
    # h_(1-s)(py) h_(1-s)(qy), with h_nu(t) = t^nu K_nu(t) and mu = 2^(1-s) / Gamma(s)
    a, mu, om = 1.0 - 2.0 * s, 2.0 ** (1.0 - s) / math.gamma(s), 2.0 * math.pi / T
    for m, n in [(1, 1), (1, 2), (2, 3), (5, 5), (7, 8), (2, 9), (30, 31)]:
        p, q = om * m, om * n
        P = y_quad(lambda y: mu**2 * kv_power(s, p * y) * kv_power(s, q * y), a, p, q)
        Q = y_quad(lambda y: mu**2 * (p * q) ** (2 * s - 1) * kv_power(1 - s, p * y) * kv_power(1 - s, q * y),
                   -a, p, q)
        closed = closed_form_pair(s, T, m, n)
        assert np.all(np.abs(closed - [P, Q]) <= 1e-12 * np.abs([P, Q])), (m, n, closed, P, Q)


def closed_form_tails(s, T, m, n, y):
    """(P_mn(y), Q_mn(y)) = int_y^inf t^a (J_m J_n, J_m' J_n') dt for m <= n: P read
    off diagnostics._tails for a trace on the modes m and n, and Q from it by
    parts, Q_mn = -W_m J_n - alpha_m^2 P_mn, as modica_check contracts it."""
    c = np.zeros(max(m, n))
    c[[m - 1, n - 1]] = 1.0
    field = extend_bessel(PeriodicFunction.from_modes(T, sin_coeffs=c), FracOrder(s))
    i, j = np.searchsorted(field._support, [m, n])
    P, J, W = diagnostics._tails(field, np.array([y]))
    P = P(np.array([i]), np.array([j]))[0, 0]
    return P, -W[0, i] * J[0, j] - (2.0 * math.pi * m / T) ** 2 * P


@pytest.mark.parametrize("s", [0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95])
def test_closed_form_tails_match_quad(s):
    # Lommel's tails against scipy quad of the kv products on [y, inf):
    # t^a J_m J_n = t^a mu^2 h_s(pt) h_s(qt) and t^a J_m' J_n' = t^-a mu^2 (pq)^(2s)
    # h_(1-s)(pt) h_(1-s)(qt), with h_nu(t) = t^nu K_nu(t), p = alpha_m and q = alpha_n;
    # tails below 1e-30 are skipped (the profile is clamped to 0 beyond t = 40)
    a, mu = 1.0 - 2.0 * s, 2.0 ** (1.0 - s) / math.gamma(s)
    for T in (8.0, 80.0):
        om = 2.0 * math.pi / T
        for m, n in [(1, 1), (1, 3), (5, 5), (7, 9), (23, 25), (40, 41)]:
            p, q = om * m, om * n
            for y in (0.02 / om, 0.5 / om, 3.0 / om):
                P = mu**2 * y_quad(lambda t: kv_power(s, p * t) * kv_power(s, q * t), a, p, q, y)
                Q = mu**2 * (p * q) ** (2 * s) * y_quad(
                    lambda t: kv_power(1 - s, p * t) * kv_power(1 - s, q * t), -a, p, q, y)
                for got, ref in zip(closed_form_tails(s, T, m, n, y), (P, Q)):
                    assert ref <= 1e-30 or abs(got - ref) <= 1e-12 * ref, (T, m, n, y, got, ref)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_axis_forms_integrate_to_the_dirichlet_energy(s):
    # the forms are trigonometric polynomials of degree 2N in x, so their mean
    # over 4N + 4 points is exact: T mean(U_x + U_y form) = <u, (-d_xx)^s u> / 2
    # and T mean(U_x - U_y form) = (s - 1/2) <u, (-d_xx)^s u>, by Parseval
    rng = np.random.default_rng(7)
    N, T, frac = 12, 8.0, FracOrder(s)
    u = PeriodicFunction(T=T, sin_coeffs=rng.standard_normal(N), cos_coeffs=rng.standard_normal(N + 1))
    ux2, uy2 = diagnostics._axis_forms(u, s, np.arange(4 * N + 4) * (T / (4 * N + 4)))
    dirichlet = spectral_dirichlet(u, frac)
    assert abs(T * np.mean(ux2 + uy2) - 0.5 * dirichlet) <= 1e-13 * dirichlet
    assert abs(T * np.mean(ux2 - uy2) - (s - 0.5) * dirichlet) <= 1e-13 * dirichlet
    # extension_energy, by Green's identity, is the same number to round-off
    energy = 0.5 * frac.d_s * extension_energy(extend_bessel(u, frac))
    assert abs(T * np.mean(ux2 + uy2) - energy) <= 1e-13 * energy


def test_hamiltonian_check_builds_no_profile_or_rule(monkeypatch):
    # the density is a quadratic form in the coefficients: no Bessel profile
    # table and no y-rule
    from fracperiodic import extension

    def forbidden(*args, **kwargs):
        raise AssertionError("hamiltonian_check evaluated a y-profile or built a y-rule")

    for name in ("__init__", "value", "deriv", "weighted_deriv"):
        monkeypatch.setattr(extension._Profile, name, forbidden)
    monkeypatch.setattr(YQuadrature, "__post_init__", forbidden)
    for s in (0.3, 0.5):
        rep = hamiltonian_check(solved(s=s), FracOrder(s), well())
        assert rep.max_deviation < 1e-6


def test_modica_and_energy_build_no_rule(monkeypatch):
    # both are closed forms: no Jacobi rule, no YQuadrature, and modica reads
    # one (height x mode) table per kind at its ny - 1 heights above y = 0
    from fracperiodic import extension, spectral

    sol, frac = solved(symmetry="even"), FracOrder(0.3)

    def forbidden(*args, **kwargs):
        raise AssertionError("a y-rule was built")

    for module in (spectral, extension, diagnostics):
        monkeypatch.setattr(module, "_gauss_jacobi_01", forbidden)
    monkeypatch.setattr(YQuadrature, "__post_init__", forbidden)
    shapes = []
    for name in ("value", "deriv", "weighted_deriv"):
        original = getattr(extension._Profile, name)

        def spy(self, t, original=original, name=name):
            shapes.append((name, np.shape(t)))
            return original(self, t)

        monkeypatch.setattr(extension._Profile, name, spy)
    modica_check(sol, frac, well(), nx=16, ny=8)
    assert sorted(shapes) == [("value", (7, 24)), ("weighted_deriv", (7, 24))]
    shapes.clear()
    extension_energy(extend_bessel(sol.u, frac))
    assert shapes == [("weighted_deriv", (24,))]


@pytest.mark.parametrize("call, name", [
    (lambda u, frac, w: hamiltonian_check(u, w, frac), "frac"),
    (lambda u, frac, w: hamiltonian_check(frac, u, w), "u"),
    (lambda u, frac, w: hamiltonian_check(u, frac, 1.0), "well"),
    (lambda u, frac, w: modica_check(u, w, frac), "frac"),
    (lambda u, frac, w: modica_check(u, 0.5, w), "frac"),
    (lambda u, frac, w: modica_pde_residual(u, 0.5, [(1.0, 0.5)]), "frac"),
])
def test_certificates_name_a_wrongly_typed_argument(call, name):
    # each of these failed with an AttributeError deep inside
    u = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.6])
    with pytest.raises(TypeError, match=f"^{name} must be "):
        call(u, FracOrder(0.5), well())


@pytest.mark.parametrize("s", [0.2, 0.3, 0.8])
def test_hamiltonian_at_large_period_is_exact_on_resolved_minimizers(s):
    # the 128-node y-rule it replaces erred by up to 7.1e-5 here, whatever N
    rep = hamiltonian_check(solved(T=80.0, s=s, N=480), FracOrder(s), well())
    assert rep.max_deviation <= 1e-12


@pytest.mark.parametrize("T", [8.0, 40.0])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_modica_lower_bound_is_attained_by_even_minimizers(s, T):
    # U_x vanishes on the reflection axis x = T/2 of an even solution, so the
    # axis integral of U_y^2 equals C_hat; the y-rule missed it by 1.0e-6 at
    # s = 0.7, T = 40
    rep = modica_check(solved(T=T, s=s, symmetry="even", N=int(4 * T)), FracOrder(s), well())
    assert abs(rep.c_hat - rep.c_hat_lower) <= 1e-9


# -- Modica-type inequality ----------------------------------------------------


def test_modica_holds_on_solution():
    for s in (0.3, 0.5, 0.7):
        rep = modica_check(solved(s=s), FracOrder(s), well())
        assert rep.c_hat > 0.0
        assert float(np.max(rep.v_hat)) <= rep.c_hat + 1e-10
        assert rep.argmax[1] == 0.0  # maximum sits on the boundary row
        assert rep.top_row_max < 1e-3  # v_hat -> 0 as y -> infinity


def test_modica_lower_bound_even_solution():
    # even class: U_x vanishes on the reflection axis, the bound is attained
    sol = solved(symmetry="even")
    rep = modica_check(sol, FracOrder(0.5), well())
    assert rep.c_hat_lower <= rep.c_hat + 1e-10
    assert abs(rep.c_hat - rep.c_hat_lower) < 1e-6


@pytest.mark.parametrize("s", [0.3, 0.7])
def test_modica_lower_bound_is_per_node_sum(s):
    # c_hat_lower, in closed form, against (d_s/2) int U_y^2(T/2, y) y^a dy by
    # adaptive quadrature of scipy's kv; a 96-node Jacobi rule is off by 1.0e-7
    # here at s = 0.3
    frac = FracOrder(s)
    sol = solved(s=s, symmetry="even")
    rep = modica_check(sol, frac, well())
    ref = quad_axis_uy2(sol.u, frac, sol.u.T / 2.0)
    assert ref > 0.01
    assert abs(rep.c_hat_lower - ref) <= 1e-12 * ref


def _squared_fields(field: ExtensionField, x, y_plus, y_minus):
    """U_x^2 on y_plus times x and (y^a U_y)^2 on y_minus times x, of shapes
    y.shape + x.shape.

    U_x = sum_m J_m(y) omega_m [a_m cos - b_m sin] and y^a U_y = sum_m
    psi_m(y) [a_m sin + b_m cos] with psi_m = y^a J_m', so a whole node batch
    takes one profile table and one matmul per factor; both run over the
    field's support, the modes with a nonzero coefficient.
    """
    sin, cos, (a, b), (a_x, b_x) = field._modes(x)
    ux2 = (field._table(y_plus) @ (sin * a_x + cos * b_x).T) ** 2
    return ux2, (field._table(y_minus, "weighted_deriv") @ (sin * a + cos * b).T) ** 2


def nested_v_hat(sol, frac, c_t, n, nx=64, ny=64):
    """v_hat with a fresh n-node Jacobi rule on (0, y_j) for every height y_j."""
    u = sol.u
    field = extend_bessel(u, frac)
    x = np.arange(nx) * (u.T / nx)
    y_pos = np.geomspace(0.02 / u.omega, 12.0 / u.omega, ny - 1)
    unit = YQuadrature(y_max=1.0, a=frac.a, n=n)
    ux2, uy2 = _squared_fields(field, x, np.multiply.outer(y_pos, unit.nodes_plus),
                               np.multiply.outer(y_pos, unit.nodes_minus))
    wp = unit.weights_plus * y_pos[:, None] ** (1.0 + frac.a)
    wm = unit.weights_minus * y_pos[:, None] ** (1.0 - frac.a)
    kinetic = np.einsum("jnx,jn->jx", ux2, wp) - np.einsum("jnx,jn->jx", uy2, wm)
    boundary = -well().f(u(x)) - c_t
    return np.vstack([boundary, 0.5 * frac.d_s * kinetic + boundary])


@pytest.mark.parametrize("symmetry", ["odd", "even"])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_modica_panels_match_refined_nested_rule(s, symmetry):
    # the closed-form tails against an independent rule: the nested rule
    # converges like n^-4 away from s = 1/2 (3.8e-9 apart at n = 192 and 384
    # for s = 0.3), so the reference takes 384 nodes
    frac = FracOrder(s)
    sol = solved(s=s, symmetry=symmetry)
    c_t = hamiltonian_check(sol, frac, well(), tol=np.inf).c_t
    rep = modica_check(sol, frac, well())
    assert np.max(np.abs(rep.v_hat - nested_v_hat(sol, frac, c_t, 384))) <= 1e-9


@pytest.mark.parametrize("s, T", [(0.5, 8.0), (0.514, 7.77)])
def test_modica_report_agrees_with_nested_96_node_rule(s, T):
    # the former scan: one 96-node rule per height, off by about 4e-9 itself
    frac = FracOrder(s)
    sol = solved(T=T, s=s, symmetry="even")
    c_t = hamiltonian_check(sol, frac, well(), tol=np.inf).c_t
    rep = modica_check(sol, frac, well())
    ref = nested_v_hat(sol, frac, c_t, 96)
    iy, ix = np.unravel_index(int(np.argmax(ref)), ref.shape)
    assert rep.argmax == (float(rep.x[ix]), float(rep.y[iy]))
    assert abs(rep.c_hat - float(np.max(ref[0]))) <= 1e-12
    lower = quad_axis_uy2(sol.u, frac, T / 2.0)   # the 96-node rule misses it by 1e-9 at s = 0.514
    assert abs(rep.c_hat_lower - lower) <= 1e-12 * lower
    assert abs(rep.top_row_max - float(np.max(np.abs(ref[-1])))) <= 1e-8


def test_modica_check_temporaries_stay_small():
    # at the CLI defaults (nx = ny = 64, N = 48, 24 modes) the 300 mode pairs
    # m <= n are contracted in two blocks of 150, each a (height x pair) tail
    # table and a (point x pair) table of at most 75 KiB: the traced peak of
    # one check is 0.49 MiB
    sol, frac = solved(symmetry="even"), FracOrder(0.5)
    modica_check(sol, frac, well())
    tracemalloc.start()
    try:
        modica_check(sol, frac, well())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * 2**20


@pytest.mark.parametrize("level", [0.0, 1.0, -1.0])
def test_modica_check_of_a_constant_trace(level):
    # a constant trace has no mode pairs to contract: v_hat vanishes on the whole grid
    rep = modica_check(PeriodicFunction.constant(8.0, level), FracOrder(0.5), well(), nx=16, ny=8)
    assert rep.v_hat.shape == (8, 16) and np.all(rep.v_hat == 0.0) and rep.c_hat == 0.0


@pytest.mark.parametrize("ny", [1, 2, 3, 9])
def test_modica_coarse_height_grids(ny):
    # each height's tails are closed-form, so a coarse grid is as exact as a fine one
    frac = FracOrder(0.3)
    sol = solved(s=0.3, N=32)
    c_t = hamiltonian_check(sol, frac, well(), n_samples=8, tol=np.inf).c_t
    rep = modica_check(sol, frac, well(), nx=8, ny=ny)
    assert rep.v_hat.shape == (ny, 8)
    ref = nested_v_hat(sol, frac, c_t, 384, nx=8, ny=ny)
    assert np.max(np.abs(rep.v_hat - ref)) <= 1e-9


def test_modica_pde_residual_small():
    sol = solved()
    pts = [(1.0, 0.5), (3.0, 1.0), (5.0, 2.0), (6.5, 0.3)]
    assert modica_pde_residual(sol, FracOrder(0.5), pts) < 1e-5


# -- energy scaling --------------------------------------------------------------


def test_energy_scan_half_regime():
    rep = energy_scan(FracOrder(0.5), well(), [12.0, 24.0])
    assert rep.regime == "half"
    assert rep.ratio > 1.0
    # sigma = J / (F(0) T) decreases with T
    assert rep.sigma_values[1] < rep.sigma_values[0]
    assert rep.sigma == rep.sigma_values[-1]


def test_energy_scan_regime_labels():
    assert energy_scan(FracOrder(0.25), well(), [12.0, 24.0]).regime == "sub-half"
    assert energy_scan(FracOrder(0.75), well(), [12.0, 24.0]).regime == "super-half"


def test_energy_scan_ignores_input_order():
    a = energy_scan(FracOrder(0.5), well(), [10.0, 14.0, 18.0])
    b = energy_scan(FracOrder(0.5), well(), [18.0, 10.0, 14.0])
    assert np.array_equal(a.table(), b.table())


@pytest.mark.parametrize("T_list", [[16.0], [16.0, 16.0], [], [16.0, 16.0, 32.0]])
def test_energy_scan_needs_two_distinct_periods(T_list):
    # one period leaves no slope to fit (polyfit warned and returned noise);
    # a repeated one leaves none for the running slope of its second row
    with pytest.raises(ValueError, match="T_list"):
        energy_scan(FracOrder(0.25), well(), T_list)


# -- ramp-competitor bound --------------------------------------------------------


def test_regions_below_closed_form_bounds():
    for s in (0.25, 0.5, 0.75):
        rep = competitor_bound(FracOrder(s), 16.0, 1.0, well())
        for name, value, bound in rep.regions():
            assert value >= 0.0
            assert value <= bound * (1.0 + 1e-9), name


def test_layer_region_saturates_bound():
    rep = competitor_bound(FracOrder(0.5), 16.0, 1.0, well())
    assert rep.region_layer == rep.bound_layer
    # at s = 1/2 the layer term d^{1-2s} * const is d- and T-independent
    assert abs(rep.region_layer - 4.0) < 1e-12
    other = competitor_bound(FracOrder(0.5), 32.0, 2.0, well())
    assert abs(other.region_layer - rep.region_layer) < 1e-12


def test_layer_scaling_in_d():
    # region 4 scales like d^{1-2s}: halving d doubles it at s = 0.25
    s = 0.25
    a = competitor_bound(FracOrder(s), 32.0, 2.0, well())
    b = competitor_bound(FracOrder(s), 32.0, 1.0, well())
    assert abs(b.region_layer / a.region_layer - 0.5 ** (1.0 - 2.0 * s)) < 1e-12


def test_layer_region_T_independent():
    s = 0.35
    a = competitor_bound(FracOrder(s), 16.0, 1.0, well())
    b = competitor_bound(FracOrder(s), 64.0, 1.0, well())
    assert abs(a.region_layer - b.region_layer) < 1e-12
    assert abs(a.bound_mixed - b.bound_mixed) < 1e-12


def test_bound_dominates_minimal_energy():
    frac = FracOrder(0.5)
    sol = minimize_energy(32.0, frac, well(), SolveConfig(N=64))
    rep = competitor_bound(frac, 32.0, 2.0, well())
    assert sol.energy <= rep.j_bound
    assert rep.total == rep.gagliardo_total + rep.f_integral


def test_bound_rejects_wide_layer():
    with pytest.raises(ValueError):
        competitor_bound(FracOrder(0.5), 16.0, 5.0, well())


@pytest.mark.parametrize("y0", [0.0, 5e-5, diagnostics.PDE_STEP, -1.0, math.nan])
def test_modica_pde_residual_rejects_points_below_the_step(y0):
    # the differences at y0 - PDE_STEP would leave the half-strip
    with pytest.raises(ValueError, match="points must have y > PDE_STEP"):
        modica_pde_residual(solved(), FracOrder(0.5), [(1.0, 0.5), (1.0, y0)])


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_bound_rejects_a_layer_below_the_grid(s):
    # T/128 is 64 spacings of the 8192-point autocorrelation grid
    assert competitor_bound(FracOrder(s), 8.0, 8.0 / 128, well()).gagliardo_total > 0.0
    for d in (8.0 / 129, 1e-200, 0.0, math.nan):
        with pytest.raises(ValueError, match="layer width d must lie in"):
            competitor_bound(FracOrder(s), 8.0, d, well())


@pytest.mark.parametrize("symmetry", ["odd", "even"])
def test_certificates_tabulate_only_the_modes_of_the_trace(monkeypatch, symmetry):
    # a half-wave solution carries the odd harmonics only: the Bessel tables
    # of the certificates and of the energy have N/2 mode columns, not N
    from fracperiodic import extension

    sol = solved(symmetry=symmetry, N=48)
    u = sol.u
    assert np.count_nonzero(u.sin_coeffs) + np.count_nonzero(u.cos_coeffs[1:]) == 24
    shapes = []
    for name in ("value", "weighted_deriv"):
        original = getattr(extension._Profile, name)

        def spy(self, t, original=original):
            shapes.append(np.shape(t))
            return original(self, t)

        monkeypatch.setattr(extension._Profile, name, spy)
    frac = FracOrder(0.5)
    hamiltonian_check(sol, frac, well())
    modica_check(sol, frac, well(), nx=16, ny=8)
    assert shapes and all(shape[-1] == 24 for shape in shapes)
    shapes.clear()
    extension_energy(extend_bessel(u, frac))
    assert shapes and all(shape[0] == 24 for shape in shapes)   # (mode, node) tables


@pytest.mark.parametrize("s", [1e-300, 1e-17])
def test_zeta_routes_at_a_vanishing_order_raise(s):
    # p = 1 + 2s of zeta(p, q) rounds to 1: its Euler-Maclaurin tail divided
    # by p - 1 = 0, and the competitor's totals came out nan
    frac, u = FracOrder(s), PeriodicFunction.from_modes(8.0, sin_coeffs=[0.6])
    routes = (lambda: competitor_bound(frac, 8.0, 1.0, well()),
              lambda: singular_integral_oracle(u, frac, 1.0),
              lambda: poisson_kernel_periodized(np.array([1.0]), 0.5, frac, 8.0))
    for route in routes:
        with pytest.raises(ValueError, match=r"needs p > 1, got p = 1 \+ 2s = 1\.0 \(s is too small\)"):
            route()
    rep = competitor_bound(FracOrder(1e-16), 8.0, 1.0, well())   # 1 + 2e-16 > 1
    assert np.isfinite([rep.gagliardo_total, rep.total, rep.j_bound]).all()


@pytest.mark.parametrize("s", [1e-300, 6e-17])
def test_certificates_at_a_vanishing_order_raise(s):
    # the closed-form density needs no rule: it takes its limit w = -(u - b_0)^2 / 2
    u = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.6], cos_coeffs=[0.3, 0.0, -0.2])
    rep = hamiltonian_check(u, FracOrder(s), well(), tol=np.inf)
    limit = -0.5 * (u(rep.x) - 0.3) ** 2 - well().f(u(rep.x))
    assert np.max(np.abs(rep.values - limit)) <= 1e-15
    # and so does the Modica scan, whose y^-a Jacobi rule had 2 + beta = 1 here and
    # raised: the tails beyond every y > 0 vanish as s -> 0, so each row above the
    # boundary is row 0 + w
    rep = modica_check(u, FracOrder(s), well(), tol=np.inf)
    assert np.max(np.abs(rep.v_hat[1:] - (rep.v_hat[0] - 0.5 * (u(rep.x) - 0.3) ** 2))) <= 1e-15
    assert np.isfinite(hamiltonian_check(u, FracOrder(1e-16), well(), tol=np.inf).c_t)
