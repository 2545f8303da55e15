"""Command-line front end.

Every operation is exposed as a subcommand with file-based configuration:
flags override a flat ``key=value`` config file, function inputs travel as
PeriodicFunction JSON, and tabular outputs are CSV with stable headers and
floats printed to 17 significant digits.  Exit codes: 0 success, 1 domain
error (solvability/identity violations and friends), 2 usage error.

Each subcommand is declared once, in the table ``_COMMANDS``: name -> (body,
options), an option being ``(name, type, default, help)`` with the default
``REQUIRED`` for a required one.  Flags, config keys, the required check and
``--dry-run`` all read this table; its parser is built once per process.
After ``--dry-run`` has printed the raw config, ``_inputs`` builds the
fractional order, the potential and the function inputs in one place and
hands them to the body as keyword arguments; ``_summary`` writes every
stderr summary line.
"""

import argparse
import functools
import itertools
import os
import sys

import numpy as np

from . import bifurcation, diagnostics, extension, linear, semilinear, spectral
from .errors import FracPeriodicError
from .spectral import DoubleWell, FracOrder, PeriodicFunction, _check_period

__all__ = ["main", "run"]


def _fmt(x):
    return format(float(x), ".17g")


def _emit(path, text):
    """Write text to stdout when path is None or "-", else to the file.

    An existing file is written in place and cut only where it was longer:
    truncating it to zero first can force a writeback when it is closed
    (ext4's auto_da_alloc), and a device such as /dev/null cannot be cut."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        data = text.encode()
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
            fh.write(data)
            if os.fstat(fh.fileno()).st_size > len(data):
                fh.truncate()


def _write_csv(path, header, rows):
    """Header line, then one line per row.  Each column holds numbers,
    printed as "%.17g" (the digits of _fmt), or other values, printed
    through str; the first row tells which.  The whole table is formatted
    by one % operation."""
    rows = list(rows)
    fmt = ",".join("%.17g" if isinstance(v, (int, float, np.floating)) else "%s"
                   for v in (rows[0] if rows else ()))
    text = ",".join(header) + "\n" + "".join([fmt + "\n"] * len(rows)) % tuple(v for r in rows for v in r)
    _emit(path, text)


def _load_function(path):
    with open(path) as fh:
        return PeriodicFunction.from_json(fh.read())


def _save_function(u, path):
    _emit(path, u.to_json() + "\n")


def _potential(spec_str):
    """'quartic', 'quartic:SCALE', or 'poly:c0,c1,...' -> DoubleWell.

    Every command that takes a potential assumes a double well with wells
    at +-1, so a spec that fails ``DoubleWell.check_shape`` is a ValueError.
    """
    name, colon, arg = spec_str.partition(":")
    if name == "quartic":
        well = DoubleWell.quartic(float(arg)) if colon else DoubleWell.quartic()
    elif name == "poly" and colon:
        well = DoubleWell.from_poly([float(t) for t in arg.split(",")])
    else:
        raise ValueError(f"unknown potential spec {spec_str!r}")
    well.check_shape()
    return well


def _float_list(text):
    return [float(t) for t in text.split(",") if t]


class UsageError(Exception):
    pass


REQUIRED = object()   # the default of an option that has none: leaving it out is a usage error


# ---------------------------------------------------------------------------
# command bodies: each takes its options as keyword arguments, with the
# inputs already built by _inputs, and holds only its computation and output


def _summary(**fields):
    """The one stderr summary line: key=value pairs, floats through _fmt."""
    print(" ".join(f"{key}={_fmt(v) if isinstance(v, float) else v}" for key, v in fields.items()),
          file=sys.stderr)


def _cmd_apply(frac, u, out):
    _save_function(spectral.frac_laplacian(u, frac), out)


def _cmd_eig(frac, T, count, N, k, out):
    k = PeriodicFunction.constant(T, 0.0) if k is None else k
    pairs = linear.eigenvalue_set(linear.GalerkinOperator(frac=frac, T=T, N=N, k=k), count)
    _write_csv(out, ["index", "eigenvalue"], [(i, lam) for i, (lam, _) in enumerate(pairs)])


def _cmd_solve_linear(frac, k, g, N, mu, out):
    op = linear.GalerkinOperator(frac=frac, T=k.T, N=N, k=k)
    if mu is None:
        res = linear.solve_fredholm(op, g)
        _summary(kernel_dim=res.kernel.dim, unique=res.unique)
    else:
        res = linear.solve_coercive(op, mu, g)
        _summary(stability_constant=res.stability_constant, residual=res.residual)
    _save_function(res.solution if mu is None else res.u, out)


def _cmd_solve(frac, T, well, symmetry, N, out):
    sol = semilinear.minimize_energy(T, frac, well, semilinear.SolveConfig(symmetry=symmetry, N=N))
    _summary(classification=sol.classification, residual=sol.residual, energy=sol.energy,
             amplitude=sol.amplitude)
    _save_function(sol.u, out)


def _cmd_min_period(frac, well, T_hi, tol, out):
    est = semilinear.find_min_period(frac, well, T_hi, tol=tol)
    _write_csv(out, ["estimate", "bound", "tol"], [(est, spectral.linearization_bound(frac, well), tol)])


def _cmd_continue(frac, well, lambda_start, steps, ds, points_dir, out):
    br = bifurcation.continue_branch(frac, well, lambda_start, steps, ds)
    _summary(bifurcation_lambda=br.bifurcation_lambda, direction=br.direction)
    _write_csv(out, ["lambda", "amplitude", "residual", "sigma_min"],
               [(p.lam, p.amplitude, p.residual, p.sigma_min) for p in br.points])
    if points_dir:
        os.makedirs(points_dir, exist_ok=True)
        for i, p in enumerate(br.points):
            _save_function(p.u, os.path.join(points_dir, f"point_{i:04d}.json"))


def _cmd_t0_bound(frac, well, lambda_grid, out):
    rep = bifurcation.verify_T0_bound(frac, well, lambda_grid=_float_list(lambda_grid) if lambda_grid else None)
    _summary(bound=rep.bound, min_period=rep.min_period)
    _write_csv(out, ["lambda", "period", "amplitude", "residual"],
               [(e.lam, e.period, e.amplitude, e.residual_rescaled) for e in rep.entries])


def _certified_solution(T, frac, well, symmetry):
    """The minimizer a certificate command checks: truncation grows with T."""
    _check_period(T)
    sc = semilinear.SolveConfig(symmetry=symmetry, N=max(48, int(1.5 * T)))
    return semilinear.minimize_energy(T, frac, well, sc)


def _cmd_hamiltonian(frac, T, well, symmetry, n_samples, tol, out):
    sol = _certified_solution(T, frac, well, symmetry)
    rep = diagnostics.hamiltonian_check(sol, frac, well, n_samples=n_samples, tol=tol)
    _summary(C_T=rep.c_t, max_deviation=rep.max_deviation)
    _write_csv(out, ["x", "w", "F_u", "deviation"],
               [(x, v + f, f, v - rep.c_t) for x, v, f in zip(rep.x, rep.values, well.f(sol.u(rep.x)))])


def _cmd_modica(frac, T, well, nx, ny, tol, out):
    sol = _certified_solution(T, frac, well, "even")
    rep = diagnostics.modica_check(sol, frac, well, nx=nx, ny=ny, tol=tol)
    _summary(C_hat=rep.c_hat, lower_bound=rep.c_hat_lower,
             argmax=f"({_fmt(rep.argmax[0])},{_fmt(rep.argmax[1])})")
    # _write_csv's text of the rows (x, y, v_hat[y, x]), y outer, with each x and y formatted once
    x, y = (["%.17g" % t for t in a.tolist()] for a in (rep.x, rep.y))
    v_hat = ("%.17g\n" * rep.v_hat.size % tuple(rep.v_hat.ravel().tolist())).splitlines(True)
    rows = zip(itertools.product(y, x), v_hat)
    _emit(out, "x,y,v_hat\n" + "".join(f"{xi},{yi},{vi}" for (yi, xi), vi in rows))


def _cmd_energy_scan(frac, well, T_list, out):
    rep = diagnostics.energy_scan(frac, well, _float_list(T_list))
    _summary(regime=rep.regime, slope=rep.slope, ratio=rep.ratio, sigma=rep.sigma)
    Ts, Js = np.array(rep.entries).T
    slopes = [float("nan")] + [diagnostics._growth_slope(frac, Ts[:i], Js[:i]) for i in range(2, len(Ts) + 1)]
    _write_csv(out, ["T", "J", "slope_so_far", "sigma"], zip(Ts, Js, slopes, rep.sigma_values))


def _cmd_test_bound(frac, T, d, well, out):
    rep = diagnostics.test_function_bound(frac, T, d, well)
    totals = [(name, getattr(rep, name), float("nan")) for name in ("gagliardo_total", "f_integral", "total", "j_bound")]
    _write_csv(out, ["region", "value", "bound"], list(rep.regions()) + totals)


def _cmd_extend(frac, u, method, points, out):
    routes = {"bessel": extension.extend_bessel, "poisson": extension.extend_poisson}
    if method not in routes:
        raise UsageError("method must be bessel or poisson")
    field = routes[method](u, frac)
    if points:
        pts = [tuple(float(t) for t in pair.split(",")) for pair in points.split(";") if pair]
    else:
        pts = [(x, y) for x in np.linspace(0, u.T, 5, endpoint=False) for y in (0.0, 0.5, 1.0, 2.0)]
    _write_csv(out, ["x", "y", "U"], [(x, y, float(field.value(x, y))) for x, y in pts])


# ---------------------------------------------------------------------------
# the subcommand table: one source of truth for bodies, flags, config keys,
# required options and --dry-run

_COMMON = [
    ("config", str, None, "flat key=value config file; flags override it"),
    ("out", str, None, "output path (default stdout)"),
]

_COMMANDS = {
    "apply": (_cmd_apply, [
        ("s", float, REQUIRED, "fractional order in (0,1)"),
        ("input", str, REQUIRED, "PeriodicFunction JSON path"),
    ]),
    "eig": (_cmd_eig, [
        ("s", float, REQUIRED, "fractional order"),
        ("T", float, REQUIRED, "period"),
        ("count", int, 4, "number of lowest eigenvalues"),
        ("N", int, 32, "Galerkin truncation"),
        ("k", str, None, "coefficient k(x) JSON (default 0)"),
    ]),
    "solve-linear": (_cmd_solve_linear, [
        ("s", float, REQUIRED, "fractional order"),
        ("k", str, REQUIRED, "coefficient k(x) JSON"),
        ("g", str, REQUIRED, "right-hand side JSON"),
        ("N", int, 32, "Galerkin truncation"),
        ("mu", float, None, "shift: solve (L + mu)u = g coercively; omit for Fredholm"),
    ]),
    "solve": (_cmd_solve, [
        ("s", float, REQUIRED, "fractional order"),
        ("T", float, REQUIRED, "period"),
        ("potential", str, "quartic", "quartic | quartic:SCALE | poly:c0,c1,..."),
        ("symmetry", str, "odd", "odd | even"),
        ("N", int, 64, "truncation"),
    ]),
    "min-period": (_cmd_min_period, [
        ("s", float, REQUIRED, "fractional order"),
        ("potential", str, "quartic", "potential spec"),
        ("T-hi", float, REQUIRED, "upper bracket period"),
        ("tol", float, 0.05, "bisection tolerance"),
    ]),
    "continue": (_cmd_continue, [
        ("s", float, REQUIRED, "fractional order"),
        ("potential", str, "quartic", "potential spec"),
        ("lambda-start", float, 1.0, "start near this bifurcation point"),
        ("steps", int, 50, "branch points to trace"),
        ("ds", float, 0.05, "arclength step"),
        ("points-dir", str, None, "directory for per-point solution JSON"),
    ]),
    "t0-bound": (_cmd_t0_bound, [
        ("s", float, REQUIRED, "fractional order"),
        ("potential", str, "quartic", "potential spec"),
        ("lambda-grid", str, None, "comma list of lambda values in (1, 4]"),
    ]),
    "hamiltonian": (_cmd_hamiltonian, [
        ("s", float, REQUIRED, "fractional order"),
        ("T", float, REQUIRED, "period"),
        ("potential", str, "quartic", "potential spec"),
        ("symmetry", str, "odd", "odd | even"),
        ("n-samples", int, 64, "x sample count"),
        ("tol", float, 1e-5, "max allowed deviation"),
    ]),
    "modica": (_cmd_modica, [
        ("s", float, REQUIRED, "fractional order"),
        ("T", float, REQUIRED, "period"),
        ("potential", str, "quartic", "potential spec"),
        ("nx", int, 64, "grid points in x"),
        ("ny", int, 64, "grid points in y"),
        ("tol", float, 1e-5, "inequality slack"),
    ]),
    "energy-scan": (_cmd_energy_scan, [
        ("s", float, REQUIRED, "fractional order"),
        ("potential", str, "quartic", "potential spec"),
        ("T-list", str, "16,32,64,128", "comma list of periods"),
    ]),
    "test-bound": (_cmd_test_bound, [
        ("s", float, REQUIRED, "fractional order"),
        ("T", float, REQUIRED, "period"),
        ("d", float, 1.0, "interface layer width"),
        ("potential", str, "quartic", "potential spec"),
    ]),
    "extend": (_cmd_extend, [
        ("s", float, REQUIRED, "fractional order"),
        ("input", str, REQUIRED, "trace PeriodicFunction JSON"),
        ("method", str, "bessel", "bessel | poisson"),
        ("points", str, None, "semicolon list of x,y pairs (default small grid)"),
    ]),
}


def _resolve(cmd, args):
    """Merge flag values over config-file values over defaults into the canonical
    dict {key: value}; unknown config keys and options left at REQUIRED are usage errors."""
    known = {name: (typ, default) for name, typ, default, _ in _COMMANDS[cmd][1] + _COMMON}
    resolved = {name: default for name, (_, default) in known.items()}
    cfg_path = getattr(args, "config", None)
    if cfg_path:
        with open(cfg_path) as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{cfg_path}:{ln}: expected key=value, got {line!r}")
                key, val = (t.strip() for t in line.split("=", 1))
                if key not in known:
                    raise UsageError(f"{cfg_path}:{ln}: unknown key {key!r}")
                resolved[key] = known[key][0](val)
    for name in known:
        flag_val = getattr(args, name.replace("-", "_"), None)
        if flag_val is not None:
            resolved[name] = flag_val
    missing = [k for k, v in resolved.items() if v is REQUIRED]
    if missing:
        raise UsageError(f"{cmd}: missing required option(s): " + ", ".join(sorted(missing)))
    return resolved


# option -> (body parameter, builder of the input it names)
_INPUTS = {
    "s": ("frac", FracOrder),
    "potential": ("well", _potential),
    "input": ("u", _load_function),
    "k": ("k", _load_function),
    "g": ("g", _load_function),
}


def _inputs(cfg):
    """The keyword arguments of a command body, built from the resolved config
    in table order.  Options outside _INPUTS pass through under their name
    with "-" turned into "_", and a None default, such as eig's --k, stays
    None; the config file path was read by _resolve and is not passed on."""
    kwargs = {}
    for key, val in cfg.items():
        if key != "config":
            name, build = _INPUTS.get(key, (key.replace("-", "_"), None))
            kwargs[name] = val if build is None or val is None else build(val)
    return kwargs


@functools.cache
def _build_parser():
    """The argparse tree of the constant _COMMANDS, shared by every run()."""
    parser = argparse.ArgumentParser(prog="fracperiodic", description="periodic fractional Laplacian toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (_body, opts) in _COMMANDS.items():
        p = sub.add_parser(cmd)
        for name, typ, _default, help_text in opts + _COMMON:
            p.add_argument("--" + name, dest=name.replace("-", "_"), type=typ,
                           default=None, help=help_text)
        p.add_argument("--dry-run", action="store_true", help="print the resolved config and exit")
    return parser


def run(argv=None):
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _resolve(args.command, args)
        if args.dry_run:
            for key in sorted(cfg):
                print(f"{key}={cfg[key]}")
        else:
            _COMMANDS[args.command][0](**_inputs(cfg))
    except FracPeriodicError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (UsageError, OSError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
