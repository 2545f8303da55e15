"""fracperiodic benchmark: one closed-loop caller drives the public API and
``cli.run`` in a single process over a seeded workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``
of that checkout and nowhere else.  A run builds the inputs from the seed,
makes one untimed warm-up pass, then repeats passes over the workload's
fixed task list until ``--seconds`` have elapsed.  Each task is timed on its
own and checked afterwards, outside the timed region; a task that raises,
exits non-zero or fails its check counts as failed.

With ``--trace 0`` the last line reports the end-to-end metrics, with
times in host-adjusted seconds (see ``calibration_kernel``).  With
``--trace 1`` the first half of the time runs untraced, the second half
with every public callable of the package wrapped by ``spans.Tracer``, and
the last line reports the per-layer metrics; the spans are written to
``.bench_out/``.  Only the process's own clocks (``perf_counter``) and
``getrusage`` are used.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
BLAS_THREADS = 1
MIN_PASSES = 1
REF_RTOL = 1e-6
NOTE = ("timings use only this process's perf_counter and getrusage; machine-wide tracing, "
        "cache dropping and cgroup changes are not used")

# median time of calibration_kernel() on the 2-core VM the benchmark was
# defined on; host-adjusted seconds are raw seconds times
# CALIBRATION_REF_S / (the median kernel time in the same process)
CALIBRATION_REF_S = 0.005
CALIBRATION_REPEATS = 5

# one closed-loop caller on one BLAS thread: the baseline is single-threaded
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("FRACPERIODIC_JOBS", None)


def import_package():
    """Import fracperiodic from this checkout's src/; returns seconds taken."""
    if not (SRC / "fracperiodic" / "__init__.py").is_file():
        raise SystemExit(f"error: no package source at {SRC / 'fracperiodic'}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import fracperiodic  # noqa: F401  (numpy and scipy load here)
    elapsed = time.perf_counter() - t0
    if Path(fracperiodic.__file__).resolve().parent != (SRC / "fracperiodic").resolve():
        raise SystemExit(f"error: imported fracperiodic from {fracperiodic.__file__}, not {SRC}")
    return elapsed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and build once, print the set-up time, exit")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run metadata


def blas_info():
    """Loaded OpenBLAS libraries with their reported thread count."""
    import ctypes

    libs = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                libs.add(path)
    out = []
    for path in sorted(libs):
        entry = {"library": os.path.basename(path), "threads": None, "config": None}
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if fn is not None and entry["threads"] is None:
                    fn.restype = ctypes.c_int
                    entry["threads"] = int(fn())
                if cfg is not None and entry["config"] is None:
                    cfg.restype = ctypes.c_char_p
                    entry["config"] = cfg().decode()
        out.append(entry)
    return out


def metadata(args):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "blas_threads_requested": BLAS_THREADS,
        "callers": 1,
        "loop": "closed",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "note": NOTE,
    }


# ---------------------------------------------------------------------------
# set-up


def calibration_kernel():
    """Seconds taken by a fixed mix of interpreter work, small array
    operations and a small dense solve: the host's speed at this moment.

    The machine the benchmark was defined on is shared, and its speed
    drifts by tens of percent over minutes; timing this kernel next to the
    measured work lets the end-to-end times be reported at a fixed host
    speed.  The kernel is the benchmark's own code, so a change to the
    package cannot alter it.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for j in range(40000):
        acc += j * j
    x = np.linspace(0.0, 1.0, 256)
    for _ in range(100):
        x = np.sin(x) + 0.5 * x
    a = np.eye(48) * 4.0 + np.outer(x[:48], x[:48])
    np.linalg.solve(a, x[:48])
    return time.perf_counter() - t0


def calibrate(n=CALIBRATION_REPEATS):
    return statistics.median(calibration_kernel() for _ in range(n))


def setup_probe(args):
    """Child process: import + build once and report the time."""
    import_s = import_package()
    import workloads

    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, str(OUT))
    build_s = time.perf_counter() - t0
    wl.close()
    print(json.dumps({"import_s": import_s, "build_s": build_s, "calibration_s": calibrate()}))


def probe_setup_in_children(args, n):
    """Set-up times of ``n`` fresh processes, one after another."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(n):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


# ---------------------------------------------------------------------------
# measurement


def run_task(task):
    """Time one task; returns (seconds, result, error string or None)."""
    t0 = time.perf_counter()
    try:
        result = task.run()
    except Exception as exc:  # a failing task is counted, the loop goes on
        return time.perf_counter() - t0, None, f"{task.label}: raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, result, None


def check_task(task, result, reference, seen_values):
    """Problems found by the task's check and by the reference comparison."""
    try:
        problems, values = task.check(result)
    except Exception as exc:
        return [f"{task.label}: check raised {type(exc).__name__}: {exc}"]
    problems = list(problems)
    for key, ref in (reference or {}).get(task.label, {}).items():
        got = values.get(key)
        if got is None:
            problems.append(f"no value {key!r} to compare with the reference")
        elif abs(got - ref) > REF_RTOL * max(abs(ref), 1e-12):
            problems.append(f"{key} = {got!r}, reference {ref!r}")
    seen_values[task.label] = values
    return [f"{task.label}: {msg}" for msg in problems]


class Loop:
    """Closed loop: the next pass starts when the previous one has ended."""

    def __init__(self, wl, reference, tracer=None):
        self.wl = wl
        self.reference = reference
        self.tracer = tracer
        self.passes = []         # per pass: {task label: seconds}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cli_nonzero = 0
        self.calibration = []    # calibration_kernel() seconds, one before each task

    def one_pass(self, counted=True):
        times = {}
        tr = self.tracer
        root = tr.open("pass", "bench") if tr else None
        for task in self.wl.tasks:
            if counted and not tr:
                self.calibration.append(calibration_kernel())
            span = tr.open(f"task.{task.label}", "bench") if tr else None
            dt, result, error = run_task(task)
            if tr:
                tr.close(span)
                tr.active = False        # checks run untraced, outside the pass
            problems = [error] if error else check_task(task, result, self.reference, {})
            if tr:
                tr.active = True
            times[task.label] = dt
            if counted:
                self.attempted += 1
                if problems:
                    self.failed += 1
                    self.problems.extend(problems)
                if task.group.startswith("cli.") and result != 0:
                    self.cli_nonzero += 1
        if tr:
            tr.close(root)
        if counted:
            self.passes.append(times)
        return times

    def run_for(self, seconds):
        deadline = time.perf_counter() + seconds
        while len(self.passes) < MIN_PASSES or time.perf_counter() < deadline:
            self.one_pass()


def pass_seconds(passes):
    return [sum(p.values()) for p in passes]


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    n = len(samples)
    out = {"median": statistics.median(samples), "n": n, "percentile": None, "value": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10.0:
            q = statistics.quantiles(samples, n=1000, method="inclusive")[int(pct * 10) - 1]
            out.update(percentile=pct, value=q)
            break
    return out


def group_times(wl, passes, host_factor):
    """Per pass, the summed host-adjusted time of the tasks in each group, in ms."""
    groups = {}
    for task in wl.tasks:
        groups.setdefault(task.group, []).append(task.label)
    return {f"{g}_ms": summarize([1e3 * host_factor * sum(p[lbl] for lbl in labels) for p in passes])
            for g, labels in groups.items()}


# ---------------------------------------------------------------------------
# per-layer aggregation of a traced run


def layer_metrics(tracer, untraced_pass_s):
    import numpy as np

    from spans import LAYERS

    name_id, parent, start, end, points, failed = tracer.arrays()
    self_t = tracer.self_times()
    names = np.array(tracer.names)
    layer = np.array(tracer.layer_of)[name_id]
    span_name = names[name_id]
    roots = np.flatnonzero(span_name == "pass")
    n_pass = len(roots)
    pass_of = np.searchsorted(roots, np.arange(len(name_id)), side="right") - 1

    def per_pass(mask, weights=None):
        w = np.ones(int(mask.sum())) if weights is None else weights[mask]
        tot = np.bincount(pass_of[mask], weights=w, minlength=n_pass)
        return float(np.median(tot))

    def with_names(*wanted):
        return np.isin(span_name, wanted)

    m = {}
    for lyr in LAYERS:
        sel = layer == lyr
        m[f"{lyr}.self_s"] = per_pass(sel, self_t)
        m[f"{lyr}.calls"] = per_pass(sel)
        m[f"{lyr}.fail"] = per_pass(sel, failed.astype(float))
    ev = with_names("PeriodicFunction.__call__")
    m["spectral.eval_calls"] = per_pass(ev)
    m["spectral.eval_points"] = per_pass(ev, points.astype(float))
    m["spectral.eval_self_s"] = per_pass(ev, self_t)
    m["spectral.energy_self_s"] = per_pass(
        with_names("spectral.energy_functional", "spectral.potential_energy_half",
                   "spectral.spectral_dirichlet"), self_t)
    m["spectral.oracle_self_s"] = per_pass(
        with_names("spectral.singular_integral_oracle", "spectral.gagliardo_energy"), self_t)
    m["semilinear.minimize_calls"] = per_pass(with_names("semilinear.minimize_energy"))
    m["semilinear.newton_refine_calls"] = per_pass(with_names("semilinear.newton_refine"))
    prof = with_names("BesselProfile.value", "BesselProfile.deriv", "BesselProfile.weighted_deriv")
    m["extension.profile_calls"] = per_pass(prof)
    m["extension.profile_points"] = per_pass(prof, points.astype(float))
    m["extension.profile_self_s"] = per_pass(prof, self_t)
    pk = with_names("extension.poisson_kernel_periodized")
    m["extension.poisson_kernel_calls"] = per_pass(pk)
    m["extension.poisson_kernel_self_s"] = per_pass(pk, self_t)
    m["linear.assembly_self_s"] = per_pass(with_names("GalerkinOperator.__post_init__"), self_t)
    m["linear.dense_self_s"] = per_pass(
        with_names("linear.eigenvalue_set", "linear.solve_coercive", "linear.solve_fredholm",
                   "linear.schrodinger_fractional_spectrum"), self_t)
    m["bench.self_s"] = per_pass(layer == "bench", self_t)
    root_dur = end[roots] - start[roots]
    m["trace.pass_s"] = float(np.median(root_dur))
    m["trace.spans"] = per_pass(np.ones(len(name_id), dtype=bool))
    m["trace.overhead_frac"] = m["trace.pass_s"] / untraced_pass_s - 1.0
    accounted = float(np.sum(self_t[pass_of >= 0])) / float(np.sum(root_dur))
    return m, accounted


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_s = import_package()
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")
    OUT.mkdir(exist_ok=True)
    with open(REFERENCE) as fh:
        reference = json.load(fh).get(args.workload) if args.seed == workloads.DEFAULT_SEED else None

    t0 = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, str(OUT))
    build_s = time.perf_counter() - t0
    try:
        probes = [{"import_s": import_s, "build_s": build_s, "calibration_s": calibrate()}]
        probes += probe_setup_in_children(args, 2)
        setup_raw = [p["import_s"] + p["build_s"] for p in probes]
        setup_samples = [(p["import_s"] + p["build_s"]) * CALIBRATION_REF_S / p["calibration_s"]
                         for p in probes]

        loop = Loop(wl, reference)
        t0 = time.perf_counter()
        loop.one_pass(counted=False)
        warmup_s = time.perf_counter() - t0

        if args.trace:
            loop.run_for(args.seconds / 2.0)
            untraced = statistics.median(pass_seconds(loop.passes))
            tracer = Tracer()
            traced = Loop(wl, reference, tracer)
            tracer.install()
            tracer.active = True
            try:
                traced.run_for(args.seconds / 2.0)
            finally:
                tracer.active = False
                tracer.uninstall()
            layers, accounted = layer_metrics(tracer, untraced)
            layers["cli.exit_nonzero"] = float(traced.cli_nonzero) / len(traced.passes)
            spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
            tracer.save(spans_file)
            runs = (loop, traced)
        else:
            loop.run_for(args.seconds)
            runs = (loop,)
    finally:
        wl.close()

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    problems = [msg for r in runs for msg in r.problems]
    raw_pass_s = pass_seconds(loop.passes)
    calibration_s = statistics.median(loop.calibration)
    host_factor = CALIBRATION_REF_S / calibration_s
    pass_s = [t * host_factor for t in raw_pass_s]
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {
        "meta": metadata(args),
        "inputs": wl.inputs,
        "host": {"calibration_s": summarize(loop.calibration), "factor": host_factor,
                 "reference_s": CALIBRATION_REF_S},
        "setup": {"samples_s": setup_samples, "raw_samples_s": setup_raw, "probes": probes,
                  "warmup_pass_s": warmup_s},
        "pass_s": summarize(pass_s),
        "raw_pass_s": summarize(raw_pass_s),
        "raw_pass_samples_s": raw_pass_s,
        "tasks": group_times(wl, loop.passes, host_factor),
        "fail_frac": failed / attempted,
        "problems": problems[:50],
    }
    if args.trace:
        detail["trace"] = {"traced_pass_s": summarize(pass_seconds(traced.passes)),
                           "accounted_frac": accounted, "spans_file": str(spans_file.relative_to(ROOT))}
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "pass_s": {"value": statistics.median(pass_s), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
