"""Settable values of the public API.

Every value a caller can set is a configuration the tests must cover, so
the list of parameters with a default is pinned here.  A change that adds
one adds it to ``PINNED`` in the same change; a setting that no caller
passes belongs in a module constant instead.
"""

import dataclasses
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest

import fracperiodic
from fracperiodic.bifurcation import Branch, classify_criticality, continue_branch, detect_bifurcation_points
from fracperiodic.diagnostics import hamiltonian_check, modica_check, modica_pde_residual
from fracperiodic.errors import IdentityViolation, InequalityViolation, SolvabilityViolation
from fracperiodic.extension import (
    ExtensionField,
    dirichlet_to_neumann,
    extend_bessel,
    extend_poisson,
    extension_energy,
)
from fracperiodic.linear import GalerkinOperator, coords_to_function, solve_fredholm
from fracperiodic.semilinear import SolveConfig, find_min_period, newton_refine
from fracperiodic.spectral import (
    DoubleWell,
    FracOrder,
    PeriodicFunction,
    gagliardo_energy,
    potential_energy_half,
    singular_integral_oracle,
)

TWO_PI = 2.0 * math.pi

PINNED = {
    "bifurcation.continue_branch:N",
    "bifurcation.verify_T0_bound:N",
    "bifurcation.verify_T0_bound:lambda_grid",
    "cli.run:argv",
    "diagnostics.hamiltonian_check:n_samples",
    "diagnostics.hamiltonian_check:tol",
    "diagnostics.modica_check:nx",
    "diagnostics.modica_check:ny",
    "diagnostics.modica_check:tol",
    "extension.ExtensionField.profile_table:kind",
    "extension.YQuadrature:n",
    "linear.schrodinger_fractional_spectrum:N",
    "semilinear.SolveConfig:N",
    "semilinear.SolveConfig:symmetry",
    "semilinear.find_min_period:tol",
    "semilinear.minimize_energy:cfg",
    "spectral.DoubleWell.quartic:scale",
    "spectral.DoubleWell:even",
    "spectral.DoubleWell:label",
    "spectral.PeriodicFunction.from_modes:cos_coeffs",
    "spectral.PeriodicFunction.from_modes:sin_coeffs",
    "spectral.PeriodicFunction.from_samples:odd",
    "spectral.PeriodicFunction:odd",
}


def _defaulted(fn):
    return [p.name for p in inspect.signature(fn).parameters.values() if p.default is not p.empty]


def _exported(mod):
    """The module's __all__, or its public definitions when it has none."""
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items()
                 if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__]
    return [(n, getattr(mod, n)) for n in names]


def defaulted_parameters():
    """"module.name:parameter" for every parameter with a default of every
    exported function, public method of an exported class and dataclass
    field, across the modules of the package."""
    found = set()
    for info in pkgutil.iter_modules(fracperiodic.__path__):
        mod = importlib.import_module(f"fracperiodic.{info.name}")
        for name, obj in _exported(mod):
            where = f"{info.name}.{name}"
            if inspect.isfunction(obj):
                found.update(f"{where}:{p}" for p in _defaulted(obj))
            if not inspect.isclass(obj):
                continue
            is_dc = dataclasses.is_dataclass(obj)
            if is_dc:
                found.update(f"{where}:{f.name}" for f in dataclasses.fields(obj) if f.init and (
                    f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING))
            for attr, member in vars(obj).items():
                if (attr.startswith("_") and not attr.endswith("__")) or (is_dc and attr == "__init__"):
                    continue   # private, or the dataclass __init__ counted through its fields
                fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
                if inspect.isfunction(fn):
                    found.update(f"{where}.{attr}:{p}" for p in _defaulted(fn))
    return found


def test_defaulted_parameters_are_pinned():
    found = defaulted_parameters()
    assert sorted(found - PINNED) == [], "new settable values: pin them here or make them constants"
    assert sorted(PINNED - found) == [], "settings no longer in the API: unpin them"


_FRAC, _WELL = FracOrder(0.5), DoubleWell.quartic()
_U = PeriodicFunction.from_modes(TWO_PI, sin_coeffs=[0.5], cos_coeffs=None)
_BESSEL = extend_bessel(_U, _FRAC)
_OP = GalerkinOperator(frac=_FRAC, T=TWO_PI, N=8, k=PeriodicFunction.constant(TWO_PI, 1.0))

# each removed setting, passed with the value every caller used to get
REMOVED = {
    "SolveConfig.max_newton": lambda: SolveConfig(max_newton=60),
    "SolveConfig.max_descent": lambda: SolveConfig(max_descent=4000),
    "SolveConfig.newton_tol": lambda: SolveConfig(newton_tol=1e-10),
    "SolveConfig.multistarts": lambda: SolveConfig(multistarts=6),
    "find_min_period(cfg)": lambda: find_min_period(_FRAC, _WELL, 8.0, cfg=SolveConfig(N=32)),
    "newton_refine(tol)": lambda: newton_refine(_U, TWO_PI, _FRAC, _WELL, tol=1e-10),
    "newton_refine(max_iter)": lambda: newton_refine(_U, TWO_PI, _FRAC, _WELL, max_iter=60),
    "continue_branch(max_retries)": lambda: continue_branch(_FRAC, _WELL, 1.0, 3, 0.05, max_retries=10),
    "Branch.pitchfork_fit(n_points)": lambda: Branch((), 1.0, "").pitchfork_fit(n_points=10),
    "classify_criticality(n_quad)": lambda: classify_criticality(_FRAC, _WELL, 1, n_quad=4096),
    "solve_fredholm(orth_tol)": lambda: solve_fredholm(_OP, _U, orth_tol=1e-9),
    "coords_to_function(odd)": lambda: coords_to_function(TWO_PI, np.zeros(5), odd=None),
    "dirichlet_to_neumann(n_out)": lambda: dirichlet_to_neumann(_BESSEL, n_out=None),
    "extend_poisson(y_max)": lambda: extend_poisson(_U, _FRAC, y_max=None),
    "extension_energy(y_max)": lambda: extension_energy(_BESSEL, y_max=None),
    "hamiltonian_check(n_quad)": lambda: hamiltonian_check(_U, _FRAC, _WELL, tol=math.inf, n_quad=128),
    "modica_check(n_quad)": lambda: modica_check(_U, _FRAC, _WELL, tol=math.inf, n_quad=96),
    "modica_pde_residual(h)": lambda: modica_pde_residual(_U, _FRAC, [(1.0, 0.5)], h=1e-4),
    "gagliardo_energy(quad_tol)": lambda: gagliardo_energy(_U, _FRAC, quad_tol=1e-9),
    "DoubleWell.check_shape(n_grid)": lambda: _WELL.check_shape(n_grid=201),
    "DoubleWell.from_poly(even)": lambda: DoubleWell.from_poly([0.25, 0.0, -0.5, 0.0, 0.25], even=True),
    "PeriodicFunction.from_modes(odd)": lambda: PeriodicFunction.from_modes(TWO_PI, [1.0], odd=True),
    "PeriodicFunction.constant(N)": lambda: PeriodicFunction.constant(TWO_PI, 1.0, N=0),
    "modica_check(c_t)": lambda: modica_check(_U, _FRAC, _WELL, tol=math.inf, c_t=None),
    "extend_bessel(n_quad)": lambda: extend_bessel(_U, _FRAC, n_quad=128),
    "extend_bessel(y_max)": lambda: extend_bessel(_U, _FRAC, y_max=None),
    "ExtensionField(quadrature)": lambda: ExtensionField(_U, _FRAC, "bessel-series", quadrature=None),
    "potential_energy_half(n_grid)": lambda: potential_energy_half(_U, _WELL, n_grid=None),
    "singular_integral_oracle(quad_tol)": lambda: singular_integral_oracle(_U, _FRAC, 0.0, quad_tol=1e-10),
    "detect_bifurcation_points(N)": lambda: detect_bifurcation_points(_FRAC, _WELL, 1, N=None),
    "IdentityViolation(message)": lambda: IdentityViolation(0.0, 1.0, message=None),
    "InequalityViolation(message)": lambda: InequalityViolation((0.0, 0.0), 1.0, message=None),
    "SolvabilityViolation(message)": lambda: SolvabilityViolation(1.0, message=None),
}


@pytest.mark.parametrize("setting", sorted(REMOVED))
def test_removed_setting_is_a_type_error(setting):
    keyword = setting.split("(")[-1].rstrip(")").split(".")[-1]
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
        REMOVED[setting]()


# each of these failed with an AttributeError, or "unsupported operand", deep inside
WRONGLY_TYPED = {
    "minimize_energy(frac, 8.0, well)": (lambda: fracperiodic.minimize_energy(_FRAC, 8.0, _WELL), "T"),
    "minimize_energy(8.0, well, frac)": (lambda: fracperiodic.minimize_energy(8.0, _WELL, _FRAC), "frac"),
    "newton_refine(u, frac, 8.0, well)": (lambda: newton_refine(_U, _FRAC, 8.0, _WELL), "T"),
    "energy_scan(well, frac, Ts)": (lambda: fracperiodic.energy_scan(_WELL, _FRAC, [8.0, 16.0]), "frac"),
    "continue_branch(well, frac, ..)": (lambda: continue_branch(_WELL, _FRAC, 1.1, 5, 0.05), "well"),
    "find_min_period(well, frac, 8.0)": (lambda: find_min_period(_WELL, _FRAC, 8.0), "frac"),
    "find_min_period(0.5, well, 8.0)": (lambda: find_min_period(0.5, _WELL, 8.0), "frac"),
    "verify_T0_bound(well, frac)": (lambda: fracperiodic.verify_T0_bound(_WELL, _FRAC), "well"),
    "eigenvalue_set(frac, 4)": (lambda: fracperiodic.eigenvalue_set(_FRAC, 4), "op"),
    "frac_laplacian(u, 0.5)": (lambda: fracperiodic.frac_laplacian(_U, 0.5), "frac"),
    "singular_integral_oracle(u, 0.5, 0.0)": (lambda: singular_integral_oracle(_U, 0.5, 0.0), "frac"),
    "test_function_bound(8.0, frac, 2.0, well)": (lambda: fracperiodic.test_function_bound(8.0, _FRAC, 2.0, _WELL),
                                                  "frac"),
}


@pytest.mark.parametrize("call", sorted(WRONGLY_TYPED))
def test_entry_points_name_a_wrongly_typed_argument(call):
    run, name = WRONGLY_TYPED[call]
    with pytest.raises(TypeError, match=f"^{name} must be "):
        run()
