"""Property tests: random orders, periods and coefficients drawn by
hypothesis, checked through two independent routes each."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracperiodic.extension import extend_bessel, extend_poisson
from fracperiodic.spectral import FracOrder, PeriodicFunction, gagliardo_energy, spectral_dirichlet

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
