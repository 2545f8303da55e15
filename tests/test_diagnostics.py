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
from fracperiodic.errors import IdentityViolation, QuadratureNonConvergence
from fracperiodic.extension import YQuadrature, extend_bessel, extension_energy, poisson_kernel_periodized
from fracperiodic.semilinear import SolveConfig, minimize_energy
from fracperiodic.spectral import DoubleWell, FracOrder, PeriodicFunction, singular_integral_oracle


def well():
    return DoubleWell.quartic()


def solved(T=8.0, s=0.5, symmetry="odd", N=48):
    return minimize_energy(T, FracOrder(s), well(), SolveConfig(symmetry=symmetry, N=N))


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
    # divided by zero; tol = inf stays allowed, it only reads c_t
    u = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.6], cos_coeffs=None)
    frac = FracOrder(0.5)
    for bad in ({"tol": math.nan}, {"tol": -1e-5}, {"n_samples": 0}, {"n_samples": -4}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            hamiltonian_check(u, frac, well(), **bad)
    for bad in ({"tol": math.nan}, {"tol": -1.0}, {"nx": 0}, {"ny": 0}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            modica_check(u, frac, well(), **bad)
    assert hamiltonian_check(u, frac, well(), tol=math.inf).max_deviation > 1e-3


def test_hamiltonian_rows_sum_to_zero_deviation():
    rep = hamiltonian_check(solved(), FracOrder(0.5), well())
    devs = [row[2] for row in rep.rows()]
    assert abs(float(np.mean(devs))) < 1e-14


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
    # c_hat_lower against (d_s/2) sum_q w_q (y^a U_y(T/2, y_q))^2, node by node
    frac = FracOrder(s)
    sol = solved(s=s, symmetry="even")
    rep = modica_check(sol, frac, well())
    field = extend_bessel(sol.u, frac)
    rule = YQuadrature(field.y_max, frac.a, 96)
    ref = 0.5 * frac.d_s * sum(
        wq * float(field.weighted_dy(sol.u.T / 2.0, yq)) ** 2
        for yq, wq in zip(rule.nodes_minus, rule.weights_minus)
    )
    assert ref > 0.01
    assert abs(rep.c_hat_lower - ref) <= 1e-13 * ref


def nested_v_hat(sol, frac, c_t, n, nx=64, ny=64):
    """v_hat with a fresh n-node Jacobi rule on (0, y_j) for every height y_j."""
    u = sol.u
    field = extend_bessel(u, frac)
    x = np.arange(nx) * (u.T / nx)
    y_pos = np.geomspace(0.02 / u.omega, 12.0 / u.omega, ny - 1)
    unit = YQuadrature(y_max=1.0, a=frac.a, n=n)
    ux2, uy2 = diagnostics._squared_fields(field, x, np.multiply.outer(y_pos, unit.nodes_plus),
                                           np.multiply.outer(y_pos, unit.nodes_minus))
    wp = unit.weights_plus * y_pos[:, None] ** (1.0 + frac.a)
    wm = unit.weights_minus * y_pos[:, None] ** (1.0 - frac.a)
    kinetic = np.einsum("jnx,jn->jx", ux2, wp) - np.einsum("jnx,jn->jx", uy2, wm)
    boundary = -well().f(u(x)) - c_t
    return np.vstack([boundary, 0.5 * frac.d_s * kinetic + boundary])


@pytest.mark.parametrize("symmetry", ["odd", "even"])
@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
def test_modica_panels_match_refined_nested_rule(s, symmetry):
    # the nested rule converges like n^-4 away from s = 1/2 (3.8e-9 apart at
    # n = 192 and 384 for s = 0.3), so the reference takes 384 nodes
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
    field = extend_bessel(sol.u, frac)
    rule = YQuadrature(field.y_max, frac.a, 96)
    lower = 0.5 * frac.d_s * float(rule.weights_minus @ field.weighted_dy(T / 2.0, rule.nodes_minus) ** 2)
    assert abs(rep.c_hat_lower - lower) <= 1e-12
    assert abs(rep.top_row_max - float(np.max(np.abs(ref[-1])))) <= 1e-8


def test_modica_panel_orders_too_low_raise(monkeypatch):
    monkeypatch.setattr(diagnostics, "_MODICA_ORDERS", (1, 2))
    with pytest.raises(QuadratureNonConvergence):
        modica_check(solved(), FracOrder(0.5), well())


def test_modica_check_temporaries_stay_small():
    # at the CLI defaults (nx = ny = 64, N = 48) the 62 panels' (node x point)
    # fields are evaluated in two blocks of heights and multiplied in place:
    # the traced peak of one check is below 2 MiB (2.5 MiB in one block)
    sol, frac = solved(symmetry="even"), FracOrder(0.5)
    modica_check(sol, frac, well())
    tracemalloc.start()
    try:
        modica_check(sol, frac, well())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@pytest.mark.parametrize("ny", [1, 2, 3, 9])
def test_modica_coarse_height_grids(ny):
    # coarse grids have wide panels; they are split into sub-panels
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
    # beta = 2s - 1 of the y^-a rule rounds to 2 + beta = 1: the Jacobi matrix
    # divided by zero and the eigensolve failed after a RuntimeWarning
    u = PeriodicFunction.from_modes(8.0, sin_coeffs=[0.6], cos_coeffs=None)
    for check in (hamiltonian_check, modica_check):
        with pytest.raises(ValueError, match=r"2 \+ beta > 1 .* got beta = -(1\.0|0\.9999999999999999) "):
            check(u, FracOrder(s), well(), tol=np.inf)
    assert np.isfinite(hamiltonian_check(u, FracOrder(1e-16), well(), tol=np.inf).c_t)
