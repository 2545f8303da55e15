"""Record the reference values of every task for the default seed.

    python3 perfbench/record_reference.py

Runs each task of each workload once at the default seed, checks it, and
writes the named values its check reports to ``reference.json``.  The
benchmark compares against them (relative tolerance ``run.REF_RTOL``)
whenever it runs the default seed.  Re-record only when a change is meant
to alter the package's numbers, and say so in the change.
"""

import json
import sys

import run


def main():
    run.import_package()
    import workloads

    run.OUT.mkdir(exist_ok=True)
    out = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, workloads.DEFAULT_SEED, str(run.OUT))
        try:
            values = {}
            for task in wl.tasks:
                _, result, error = run.run_task(task)
                problems = [error] if error else run.check_task(task, result, None, values)
                if problems:
                    raise SystemExit(f"{name}: {problems}")
            out[name] = values
        finally:
            wl.close()
    with open(run.REFERENCE, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    sys.exit(main())
