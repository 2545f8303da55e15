"""Core representation tests: multiplier vs singular-integral oracle,
energy identities, and the double-well shape checks."""

import math

import numpy as np
import pytest

from fracperiodic.errors import SingularJacobian
from fracperiodic.spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    _folded_rules,
    _gagliardo_fixed,
    _gauss_jacobi_01,
    _gauss_legendre_01,
    _hurwitz_zeta,
    _newton,
    energy_functional,
    frac_laplacian,
    gagliardo_energy,
    singular_integral_oracle,
    spectral_dirichlet,
)

TWO_PI = 2.0 * math.pi


def random_function(rng, T=TWO_PI, N=8, odd=False):
    a = rng.standard_normal(N)
    b = np.concatenate([[0.0] if odd else rng.standard_normal(1), rng.standard_normal(N)])
    if odd:
        b = np.zeros(N + 1)
    return PeriodicFunction(T=T, sin_coeffs=a, cos_coeffs=b, odd=odd)


# -- FracOrder ---------------------------------------------------------------


def test_frac_order_constants():
    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        fo = FracOrder(s)
        assert abs(fo.d_s * fo.c_s - 1.0) < 1e-14  # reciprocal normalization
        assert -1.0 < fo.a < 1.0
        assert fo.a == 1.0 - 2.0 * s


def test_frac_order_rejects_endpoints():
    for bad in (0.0, 1.0, -0.3, 1.5):
        with pytest.raises(ValueError):
            FracOrder(bad)


def test_d_half_is_one():
    assert abs(FracOrder(0.5).d_s - 1.0) < 1e-15


# -- PeriodicFunction --------------------------------------------------------


def test_round_trip_grid_coefficients():
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = random_function(rng, N=12)
        x = np.arange(2 * u.N + 2) * (u.T / (2 * u.N + 2))
        v = PeriodicFunction.from_samples(u.T, u(x))
        assert np.allclose(v.sin_coeffs, u.sin_coeffs, atol=1e-12)
        assert np.allclose(v.cos_coeffs, u.cos_coeffs, atol=1e-12)


def test_odd_flag_zeroes_cosines():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0, 0.5], cos_coeffs=None)
    assert u.odd
    assert np.all(u.cos_coeffs == 0.0)


def test_odd_function_with_a_cosine_is_rejected():
    with pytest.raises(ValueError, match="odd function must have zero cosine coefficients"):
        PeriodicFunction(T=TWO_PI, sin_coeffs=[1.0, 0.5], cos_coeffs=[0.0, 0.0, 1e-300], odd=True)


@pytest.mark.parametrize("M", [0, 1, 2, 3, 5])
def test_from_samples_needs_an_even_count_of_at_least_four(M):
    with pytest.raises(ValueError, match=r"need an even number \(>=4\) of equispaced samples"):
        PeriodicFunction.from_samples(TWO_PI, np.ones(M))


def test_sum_and_difference_of_functions_of_different_periods_are_rejected():
    u, v = (PeriodicFunction.from_modes(T, sin_coeffs=[1.0]) for T in (TWO_PI, 8.0))
    with pytest.raises(ValueError, match="period mismatch"):
        u + v
    with pytest.raises(ValueError, match="period mismatch"):
        u - v


def test_difference_pads_the_shorter_function_and_keeps_oddness_only_when_both_are_odd():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0, 0.5], cos_coeffs=[0.25, -1.0])
    v = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.5])   # odd, N = 1
    d = u - v
    assert d.N == 2 and not d.odd
    assert np.array_equal(d.sin_coeffs, [0.5, 0.5]) and np.array_equal(d.cos_coeffs, [0.25, -1.0, 0.0])
    x = np.linspace(0.0, TWO_PI, 17)
    assert np.max(np.abs(d(x) - (u(x) - v(x)))) <= 1e-15
    w = v - 2.0 * v
    assert w.odd and np.array_equal(w.sin_coeffs, [-0.5])


@pytest.mark.parametrize("T", [0.0, -2.0, math.nan, math.inf])
def test_periodic_function_rejects_bad_period(T):
    with pytest.raises(ValueError):
        PeriodicFunction(T=T, sin_coeffs=[1.0], cos_coeffs=[0.0, 0.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_periodic_function_rejects_non_finite_coefficients(bad):
    with pytest.raises(ValueError):
        PeriodicFunction(T=TWO_PI, sin_coeffs=[1.0, bad], cos_coeffs=[0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        PeriodicFunction(T=TWO_PI, sin_coeffs=[1.0, 0.0], cos_coeffs=[bad, 0.0, 0.0])
    with pytest.raises(ValueError):
        PeriodicFunction.from_dict({"T": TWO_PI, "a": [bad], "b": [0.0, 0.0]})


def test_json_round_trip():
    rng = np.random.default_rng(3)
    u = random_function(rng, T=8.0, N=5)
    v = PeriodicFunction.from_json(u.to_json())
    assert v.T == u.T
    assert np.allclose(v.sin_coeffs, u.sin_coeffs, atol=0)
    assert np.allclose(v.cos_coeffs, u.cos_coeffs, atol=0)


@pytest.mark.parametrize("d,key", [
    ({"T": TWO_PI, "b": [0.0, 0.0]}, "'a'"),
    ({"a": [1.0], "b": [0.0, 0.0]}, "'T'"),
    ({"T": TWO_PI, "a": [1.0], "b": ["x", 0.0]}, "'b'"),
    ({"T": "8", "a": [1.0], "b": [0.0, {}]}, "'b'"),
    ({"T": None, "a": [1.0], "b": [0.0, 0.0]}, "'T'"),
    ({"T": [TWO_PI], "a": [1.0], "b": [0.0, 0.0]}, "'T'"),
    # "odd" used to go through bool(), so "no" marked the function odd
    *(({"T": TWO_PI, "odd": odd, "a": [1.0], "b": [0.0, 0.0]}, "'odd'")
      for odd in ("no", "false", 1, 0, None, [True])),
])
def test_from_dict_names_a_missing_or_non_numeric_key(d, key):
    with pytest.raises(ValueError, match=key):
        PeriodicFunction.from_dict(d)


def test_from_dict_reads_odd_flag_and_its_default():
    d = {"T": TWO_PI, "a": [1.0], "b": [0.0, 0.0]}
    assert PeriodicFunction.from_dict({**d, "odd": True}).odd
    assert not PeriodicFunction.from_dict({**d, "odd": False}).odd
    assert not PeriodicFunction.from_dict(d).odd


@pytest.mark.parametrize("a,b", [(1.0, [0.0, 0.0]), ([1.0], 0.0), ([[1.0]], [[0.0, 0.0]])])
def test_coefficients_must_be_lists(a, b):
    with pytest.raises(ValueError, match="length"):
        PeriodicFunction.from_dict({"T": TWO_PI, "a": a, "b": b})


# -- fractional Laplacian ----------------------------------------------------


def test_multiplier_sin_x_half():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    v = frac_laplacian(u, FracOrder(0.5))
    assert abs(v.sin_coeffs[0] - 1.0) < 1e-14  # first nonzero eigenvalue is 1


def test_multiplier_constant_maps_to_zero():
    u = PeriodicFunction.constant(TWO_PI, 3.7)
    v = frac_laplacian(u, FracOrder(0.3))
    assert v.coeff_norm() == 0.0


def test_multiplier_second_mode():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.0, 1.0], cos_coeffs=None)
    v = frac_laplacian(u, FracOrder(0.5))
    assert abs(v.sin_coeffs[1] - 2.0) < 1e-14


def test_multiplier_generic_period_against_oracle():
    T = 5.0
    frac = FracOrder(0.4)
    u = PeriodicFunction.from_modes(T, sin_coeffs=[1.0], cos_coeffs=None)
    v = frac_laplacian(u, frac)
    expected = (2.0 * math.pi / T) ** (2 * frac.s)
    assert abs(v.sin_coeffs[0] - expected) < 1e-14
    x = 1.3
    assert abs(singular_integral_oracle(u, frac, x) - v(x)) < 1e-8


def test_oddness_closure():
    rng = np.random.default_rng(11)
    u = random_function(rng, N=6, odd=True)
    v = frac_laplacian(u, FracOrder(0.7))
    assert v.odd and np.all(v.cos_coeffs == 0.0)


def test_scaling_covariance_exact():
    # u_T(x) = u_{2pi}(2 pi x / T) pulls a factor (2 pi / T)^{2s} out front
    rng = np.random.default_rng(5)
    u = random_function(rng, N=6)
    frac = FracOrder(0.35)
    T = 11.0
    uT = u.rescaled(T)
    lhs = frac_laplacian(uT, frac)
    rhs = frac_laplacian(u, frac).rescaled(T)
    factor = (TWO_PI / T) ** (2 * frac.s)
    assert np.allclose(lhs.sin_coeffs, factor * rhs.sin_coeffs, rtol=0, atol=1e-14)
    assert np.allclose(lhs.cos_coeffs, factor * rhs.cos_coeffs, rtol=0, atol=1e-14)


# -- singular-integral oracle ------------------------------------------------


def test_oracle_sin_at_half_pi():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    assert abs(singular_integral_oracle(u, FracOrder(0.5), math.pi / 2) - 1.0) < 1e-8


def test_oracle_constant_is_zero():
    u = PeriodicFunction.constant(TWO_PI, 1.0)
    assert abs(singular_integral_oracle(u, FracOrder(0.25), 0.4)) < 1e-12


def test_oracle_cos_3x_quarter():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[], cos_coeffs=[0.0, 0.0, 0.0, 1.0])
    val = singular_integral_oracle(u, FracOrder(0.25), 0.0)
    assert abs(val - math.sqrt(3.0)) < 1e-6


def test_oracle_multiplier_equivalence_random():
    rng = np.random.default_rng(19)
    for _ in range(10):
        s = rng.uniform(0.1, 0.9)
        frac = FracOrder(s)
        u = random_function(rng, N=int(rng.integers(1, 9)))
        v = frac_laplacian(u, frac)
        xs = rng.uniform(0.0, u.T, 4)
        for x in xs:
            # roundoff in the second difference plateaus near 1e-9 for s -> 1
            assert abs(singular_integral_oracle(u, frac, x) - v(x)) < 1e-6


# -- energies ----------------------------------------------------------------


def test_gagliardo_sin():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=None)
    assert abs(gagliardo_energy(u, FracOrder(0.5)) - math.pi) < 1e-7


def test_gagliardo_constant():
    u = PeriodicFunction.constant(TWO_PI, 2.0)
    assert abs(gagliardo_energy(u, FracOrder(0.5))) < 1e-12


def test_gagliardo_two_modes():
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[1.0], cos_coeffs=[0.0, 0.0, 1.0])
    assert abs(gagliardo_energy(u, FracOrder(0.5)) - 3.0 * math.pi) < 1e-6


def test_parseval_identity():
    rng = np.random.default_rng(23)
    for _ in range(5):
        frac = FracOrder(rng.uniform(0.15, 0.85))
        u = random_function(rng, N=6)
        spectral = spectral_dirichlet(u, frac)
        assert abs(gagliardo_energy(u, frac) - spectral) < 1e-9 * max(1.0, spectral)


def test_gagliardo_product_form_matches_the_pointwise_differences():
    # the fixed-order sum built from the modes' 2 sin^2(omega m r / 2) and
    # sin(omega m r) is the brute-force sum of (u(x) - u(x +- r))^2 on one rule
    rng = np.random.default_rng(29)
    for s in (0.25, 0.5, 0.75):
        frac, u = FracOrder(s), random_function(rng, T=5.0, N=6)
        n_r, n_x = 12, 40
        x = np.arange(n_x) * (u.T / n_x)
        ux = u(x)[:, None]
        brute = sum(float(np.sum(((ux - u(x[:, None] + r)) ** 2 + (ux - u(x[:, None] - r)) ** 2) @ w))
                    for r, w in _folded_rules(frac, u.T, n_r))
        brute *= (frac.c_sing / 2.0) * (u.T / n_x)
        assert abs(_gagliardo_fixed(u, frac, n_r, n_x) / brute - 1.0) <= 1e-13


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_gagliardo_energy_matches_parseval_at_N_32(s):
    u, frac = random_function(np.random.default_rng(32), N=32), FracOrder(s)
    spectral = spectral_dirichlet(u, frac)
    assert abs(gagliardo_energy(u, frac) / spectral - 1.0) <= 1e-12


def test_energy_functional_trivial():
    well = DoubleWell.quartic()
    T = 8.0
    u0 = PeriodicFunction.constant(T, 0.0)
    assert abs(energy_functional(u0, FracOrder(0.5), well) - well.f(0.0) * T / 2.0) < 1e-12
    u1 = PeriodicFunction.constant(T, 1.0)
    assert abs(energy_functional(u1, FracOrder(0.5), well)) < 1e-12


def test_energy_functional_against_extension_route():
    # (1/(4 d_s)) <u, Lam u> must match half the weighted extension energy
    from fracperiodic.extension import extend_bessel, extension_energy

    frac = FracOrder(0.5)
    well = DoubleWell.quartic()
    u = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.1], cos_coeffs=None)
    j = energy_functional(u, frac, well)
    ext = 0.5 * 0.5 * extension_energy(extend_bessel(u, frac))
    x = np.linspace(0.0, math.pi, 20001)
    pot = float(np.trapezoid(well.f(u(x)), x))
    assert abs(j - (ext + pot)) < 1e-5


# -- DoubleWell --------------------------------------------------------------


def test_quartic_shape():
    well = DoubleWell.quartic()
    assert abs(well.f(1.0)) < 1e-15 and abs(well.f(-1.0)) < 1e-15
    assert abs(well.f1(1.0)) < 1e-15 and abs(well.f1(-1.0)) < 1e-15
    grid = np.linspace(-0.999, 0.999, 201)
    assert np.all(well.f(grid) > 0.0)
    well.check_shape()


def test_quartic_derivative_values():
    well = DoubleWell.quartic()
    assert well.f2(0.0) == -1.0
    assert well.f3(0.0) == 0.0
    assert well.f4(0.0) == 6.0


def test_quartic_monotone_between_wells():
    well = DoubleWell.quartic()
    left = np.linspace(-0.99, -0.01, 100)
    right = np.linspace(0.01, 0.99, 100)
    assert np.all(np.diff(well.f(left)) >= 0.0)   # nondecreasing on (-1,0)
    assert np.all(np.diff(well.f(right)) <= 0.0)  # nonincreasing on (0,1)


@pytest.mark.parametrize("coeffs,match", [
    pytest.param([0.5, 0.0, -0.5, 0.0, 0.25], r"F\(\+-1\) must vanish", id="F(+-1)=1/4"),
    pytest.param([0.25, -0.5, 0.25], r"F\(\+-1\) must vanish", id="F(-1)=1"),
    pytest.param([0.5, 0.0, -0.5], r"F'\(\+-1\) must vanish", id="F'(+-1)=-+1"),
])
def test_check_shape_needs_the_wells_at_plus_minus_one(coeffs, match):
    with pytest.raises(ValueError, match=match):
        DoubleWell.from_poly(coeffs).check_shape()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_double_well_rejects_non_finite_coefficients(bad):
    # check_shape compares with NaN, and every such comparison is false
    with pytest.raises(ValueError, match="quartic scale"):
        DoubleWell.quartic(bad)
    with pytest.raises(ValueError, match="poly coefficient c2 "):
        DoubleWell.from_poly([0.25, 0.0, bad, 0.0, 0.25])
    with pytest.raises(ValueError, match="poly coefficient c0 "):
        DoubleWell.from_poly([bad])


# -- numpy special functions against their scipy oracles --------------------


def test_hurwitz_zeta_matches_scipy():
    from scipy.special import zeta

    # the package's arguments: p = 1 + 2s with q in [1/2, 2] (the folded image
    # kernel, the competitor's tail) and p = 1 + 2s + 2i with q >= 8.5 (the
    # binomial tails of the Poisson kernel)
    q = np.linspace(0.5, 3.0, 201)
    for p in np.linspace(1.02, 2.98, 50):
        assert np.max(np.abs(_hurwitz_zeta(p, q) / zeta(p, q) - 1.0)) <= 1e-14
    q = np.linspace(8.5, 60.0, 201)
    for p in np.linspace(1.02, 121.0, 60):
        assert np.max(np.abs(_hurwitz_zeta(p, q) / zeta(p, q) - 1.0)) <= 1e-14
    # an array of orders broadcast against q, as the Poisson kernel's batched
    # tails call it: the same values as one call per order
    p = np.linspace(1.02, 121.0, 60)
    for orders, qs in ((p[:, None], q), (p[:, None, None], np.stack([q, 1.0 + q / 20.0]))):
        batch = _hurwitz_zeta(orders, qs)
        assert batch.shape == np.broadcast_shapes(orders.shape, qs.shape)
        assert np.max(np.abs(batch / zeta(orders, qs) - 1.0)) <= 1e-14
        for pk, values in zip(p, batch):
            assert np.array_equal(values, _hurwitz_zeta(pk, qs))


def test_hurwitz_zeta_rejects_an_array_with_an_order_at_one():
    # the message names the smallest order, as the scalar call does
    message = r"^Hurwitz zeta\(p, q\) needs p > 1, got p = 1 \+ 2s = 1\.0 \(s is too small\)$"
    with pytest.raises(ValueError, match=message):
        _hurwitz_zeta(np.array([3.0, 1.0, 5.0]), np.array([2.0, 9.0]))


@pytest.mark.parametrize("n", [8, 48, 64, 96, 128, 192, 384])
def test_gauss_jacobi_rule_against_scipy_and_moments(n):
    from scipy.special import roots_jacobi

    k = np.arange(min(40, 2 * n))
    for beta in np.linspace(-0.95, 0.95, 39):
        r, w = _gauss_jacobi_01(n, float(beta))
        assert not (r.flags.writeable or w.flags.writeable)
        t, ws = roots_jacobi(n, 0.0, beta)
        assert np.max(np.abs(r - (t + 1.0) / 2.0)) <= 1e-14
        # int_0^1 r^(beta + k) dr = 1 / (beta + k + 1), exact for k < 2n: scipy's
        # own weights miss this by up to 1e-8 for beta < 0 at n = 384, so
        # there they are no oracle for ours
        moments = (r[:, None] ** k).T @ w * (beta + k + 1.0) - 1.0
        assert np.max(np.abs(moments)) <= 3e-12
        # from n = 128 on, scipy's weights at the nodes nearest r = 1 are off
        # by up to 1.3e-14 for beta >= 0 (ours by 6e-17, against mpmath)
        if beta >= 0.0:
            tol = 1e-14 if n <= 96 else 2.5e-14
            assert np.max(np.abs(w - ws * 0.5 ** (beta + 1.0))) <= tol


@pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                    reason="the rule reaches this accuracy through an extended np.longdouble")
@pytest.mark.parametrize("n, beta", [(384, -0.98), (384, -0.5), (96, -0.9), (384, 0.0), (384, 0.98)])
def test_gauss_jacobi_node_nearest_zero_against_mpmath(n, beta):
    mp = pytest.importorskip("mpmath")
    r, w = _gauss_jacobi_01(n, beta)
    with mp.workdps(40):
        b = mp.mpf(beta)
        # P_n^(0,beta)(2r - 1) = (-1)^n binom(n + beta, n) 2F1(-n, n + beta + 1; beta + 1; r), and the
        # weight of r^beta on (0, 1) at its root r_0 is 1 / (r_0 (1 - r_0) (d/dr P_n^(0,beta)(2r - 1))^2)
        f = lambda x: mp.hyp2f1(-n, n + b + 1, b + 1, x)
        df = lambda x: -n * (n + b + 1) / (b + 1) * mp.hyp2f1(1 - n, n + b + 2, b + 2, x)
        x = mp.mpf(r[0])
        for _ in range(4):
            x -= f(x) / df(x)
        weight = 1 / (x * (1 - x) * (mp.binomial(n + b, n) * df(x)) ** 2)
        assert abs(mp.mpf(r[0]) / x - 1) <= 1e-13
        assert abs(mp.mpf(w[0]) / weight - 1) <= 1e-14


def test_gauss_legendre_rule_is_built_once_and_read_only():
    from numpy.polynomial.legendre import leggauss

    for n in (20, 30, 96):
        r, w = _gauss_legendre_01(n)
        t, wt = leggauss(n)
        assert np.array_equal(r, (t + 1.0) / 2.0) and np.array_equal(w, wt / 2.0)
        again = _gauss_legendre_01(n)
        assert again[0] is r and again[1] is w
        assert not (r.flags.writeable or w.flags.writeable)
        with pytest.raises(ValueError, match="read-only"):
            r[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            w *= 2.0


def test_quartic_derivatives_exactly_odd_and_even():
    # mirrored multistarts rely on F'(-u) = -F'(u) and F''(-u) = F''(u) bit for bit
    well = DoubleWell.quartic()
    u = np.random.default_rng(3).uniform(-1.5, 1.5, 4096)
    assert np.array_equal(well.f1(-u), -well.f1(u))
    assert np.array_equal(well.f2(-u), well.f2(u))


# -- the Newton loop's failures ----------------------------------------------


def test_newton_singular_jacobian():
    # numpy's LU meets an exact zero pivot
    J = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularJacobian, match="Singular matrix"):
        _newton(lambda z: J @ z - 1.0, lambda z: J, np.zeros(2), 5, np.linalg.norm)


def test_newton_step_that_is_not_finite():
    # a nonzero but tiny pivot: the step 1 / 1e-310 overflows to inf
    with pytest.raises(SingularJacobian, match="Newton step is not finite"):
        _newton(lambda z: z - 1.0, lambda z: np.array([[1e-310]]), np.zeros(1), 5, np.linalg.norm)


@pytest.mark.parametrize("beta", [-1.0, 2.0 * 6e-17 - 1.0, -1.5, math.nan])
def test_gauss_jacobi_rule_rejects_a_weight_not_integrable_in_floating_point(beta):
    # 2 + beta rounds to 1 (or below; 2 * 1e-300 - 1 is -1.0 exactly): the
    # first off-diagonal entry of the Jacobi matrix divides by sqrt(c^2 - 1) = 0
    with pytest.raises(ValueError, match=f"got beta = {beta!r}"):
        _gauss_jacobi_01(16, beta)


def test_gauss_jacobi_rule_just_above_the_limit():
    beta = 2.0 * 1e-16 - 1.0   # 2 + beta = 1 + eps
    r, w = _gauss_jacobi_01(16, beta)
    assert np.all(np.isfinite(r)) and np.all(np.isfinite(w)) and np.all(w > 0.0)
