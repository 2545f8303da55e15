"""Property tests: random orders, periods and coefficients drawn by
hypothesis, checked through two independent routes each."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracperiodic.diagnostics import hamiltonian_check
from fracperiodic.extension import extend_bessel, extend_poisson
from fracperiodic.semilinear import SolveConfig, minimize_energy, newton_refine
from fracperiodic.spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    frac_laplacian,
    gagliardo_energy,
    multipliers,
    singular_integral_oracle,
    spectral_dirichlet,
    _SymmetryClass,
)

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

orders = st.floats(0.1, 0.9)
periods = st.floats(0.5, 40.0)
coefficient = st.floats(-1.0, 1.0)


@st.composite
def traces(draw, max_modes=6):
    T = draw(periods)
    N = draw(st.integers(1, max_modes))
    a = draw(st.lists(coefficient, min_size=N, max_size=N))
    b = draw(st.lists(coefficient, min_size=N + 1, max_size=N + 1))
    return PeriodicFunction(T=T, sin_coeffs=np.array(a), cos_coeffs=np.array(b))


@PROPERTY
@given(u=traces(), s=orders, x=st.floats(0.0, 1.0), t=st.floats(-3.0, math.log10(3.0)))
def test_bessel_matches_poisson(u, s, x, t):
    # heights from 1e-3 to 3 in units of 1 / omega
    frac = FracOrder(s)
    x, y = x * u.T, 10.0**t / u.omega
    scale = max(1.0, float(np.sum(np.abs(u.sin_coeffs)) + np.sum(np.abs(u.cos_coeffs))))
    diff = extend_bessel(u, frac).value(x, y) - extend_poisson(u, frac).value(x, y)
    assert abs(diff) < 1e-11 * scale


@PROPERTY
@given(u=traces(max_modes=4), s=st.floats(0.15, 0.85))
def test_parseval_matches_gagliardo(u, s):
    frac = FracOrder(s)
    spectral = spectral_dirichlet(u, frac)
    assert abs(gagliardo_energy(u, frac) - spectral) < 1e-9 * max(1.0, spectral)


@PROPERTY
@given(u=traces(), s=st.floats(0.1, 0.99), x=st.floats(0.0, 1.0))
def test_oracle_matches_multiplier(u, s, x):
    # every order from 0.1 up, including those close to 1, where the second
    # difference of u used to cancel
    frac = FracOrder(s)
    x = x * u.T
    amplitude = np.abs(u.sin_coeffs) + np.abs(u.cos_coeffs[1:])
    scale = max(1.0, float(multipliers(u, frac) @ amplitude))
    assert abs(singular_integral_oracle(u, frac, x) - frac_laplacian(u, frac)(x)) < 1e-9 * scale


@PROPERTY
@given(Nc=st.sampled_from([3, 8, 16, 64]), T=st.floats(2.0 * math.pi, 40.0), s=orders, data=st.data())
def test_prolongation_by_zero_padding_is_exact(Nc, T, s, data):
    # both grids integrate the degree-4 Nc quartic energy density, and the
    # products of the cubic F' with the coarse modes, exactly
    frac, well = FracOrder(s), DoubleWell.quartic()
    coarse = _SymmetryClass("odd", T, Nc, frac)
    fine = _SymmetryClass("odd", T, 4 * Nc, frac)
    raw = data.draw(st.lists(coefficient, min_size=coarse.idx.size, max_size=coarse.idx.size))
    c = np.array(raw) / np.arange(1, Nc + 1) ** 2.0
    p = fine.from_function(coarse.to_function(c))
    e_coarse, e_fine = coarse.energy_full(c, well), fine.energy_full(p, well)
    assert abs(e_fine - e_coarse) <= 1e-12 * abs(e_coarse)
    r_coarse, r_fine = coarse.residual(c, well), fine.residual(p, well)
    assert np.max(np.abs(r_fine[: r_coarse.size] - r_coarse)) <= 1e-12


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(s=st.floats(0.25, 0.9), T=st.floats(7.0, 16.0), symmetry=st.sampled_from(["odd", "even"]))
def test_hamiltonian_constant_along_a_minimizer(s, T, symmetry):
    # w(x) - F(u(x)) is constant in x for every solution; the truncation
    # grows with T as for the hamiltonian subcommand
    frac, well = FracOrder(s), DoubleWell.quartic()
    sol = minimize_energy(T, frac, well, SolveConfig(symmetry=symmetry, N=max(48, int(1.5 * T))))
    assert sol.nonconstant
    hamiltonian_check(sol, frac, well)


# -- exact symmetries of the semilinear equation -----------------------------
#
# For an even well each symmetry maps one computed minimizer onto another,
# so they check the nonlinear solver with no reference solution.  Each has a
# perturbed control that must fail.

SYMMETRY_TOL = 1e-10


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("T", [8.0, 40.0])
def test_even_minimizer_is_the_odd_one_shifted_by_a_quarter_period(s, T):
    # u(x + T/4) sends sin((2j+1) w x) to (-1)^j cos((2j+1) w x).  An even
    # request is the odd solve, shifted, so the outputs the shift keeps are
    # the same bits; the independent check is Newton in the full class (all
    # modes, another layout), which must find the even minimizer solved
    frac, well = FracOrder(s), DoubleWell.quartic()
    odd, even = (minimize_energy(T, frac, well, SolveConfig(symmetry=sym, N=64)) for sym in ("odd", "even"))
    assert odd.nonconstant and not even.u.odd
    kept = ("energy", "amplitude", "residual", "classification")
    assert [getattr(even, k) for k in kept] == [getattr(odd, k) for k in kept]
    x = np.linspace(0.0, T, 1001)
    assert np.max(np.abs(even.u(x) - odd.u(x + T / 4.0))) <= SYMMETRY_TOL
    assert np.max(np.abs(even.u(x) - odd.u(x + T / 8.0))) > 0.1   # control
    refined = newton_refine(even.u, T, frac, well)
    assert refined.residual <= 1e-10
    for got, ref in ((refined.u.sin_coeffs, even.u.sin_coeffs), (refined.u.cos_coeffs, even.u.cos_coeffs)):
        assert np.max(np.abs(got - ref)) <= 1e-12
    # control: cosines without the signs (-1)^j solve nothing
    unsigned = PeriodicFunction(T=T, sin_coeffs=np.zeros(64), cos_coeffs=np.concatenate(([0.0], odd.u.sin_coeffs)))
    full = _SymmetryClass("full", T, 64, frac)
    assert full.l2_norm(full.residual(full.from_function(unsigned), well)) > 1e-2


@pytest.mark.parametrize("s", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("T", [8.0, 40.0])
def test_scaled_well_is_solved_by_the_rescaled_minimizer(s, T):
    # v(x) = u(x kappa^{1/(2s)}) solves the equation of kappa F at period
    # T kappa^{-1/(2s)}, and both terms of J scale by kappa^{1 - 1/(2s)}
    frac, kappa, cfg = FracOrder(s), 3.0, SolveConfig(N=64)
    base = minimize_energy(T, frac, DoubleWell.quartic(), cfg)
    scaled = minimize_energy(T * kappa ** (-1.0 / (2.0 * s)), frac, DoubleWell.quartic(kappa), cfg)
    assert base.nonconstant and scaled.nonconstant
    assert abs(scaled.amplitude - base.amplitude) <= SYMMETRY_TOL
    ratio = scaled.energy / base.energy
    assert abs(ratio / kappa ** (1.0 - 1.0 / (2.0 * s)) - 1.0) <= SYMMETRY_TOL
    assert abs(ratio / kappa ** (1.0 - 1.0 / s) - 1.0) > 0.1   # control
