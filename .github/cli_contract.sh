#!/usr/bin/env bash
# The CLI contract that both CI jobs check: every demo under -W error,
# --help, the exit codes of the hostile inputs and the README's examples.
# Run from the repository root with the fracperiodic console script on PATH
# (RUNNER_TEMP names a scratch directory, as on GitHub Actions).
set -eo pipefail

for demo in demos/*.py; do
  echo "== $demo"
  python -W error "$demo"
done
fracperiodic --help
# a period whose top multiplier (2 pi N / T)^(2s) overflows the class norms is a usage error
code=0; PYTHONWARNINGS=error fracperiodic solve --s 0.5 --T 1e-300 || code=$?
test "$code" -eq 2
# so is a certificate whose squared top frequency (2 pi N / T)^2 overflows U_x^2
for cmd in hamiltonian modica; do
  code=0; PYTHONWARNINGS=error fracperiodic "$cmd" --s 0.1 --T 1e-300 || code=$?
  test "$code" -eq 2
done
# a refined t0-bound amplitude that reaches the wells loses the branch
code=0; PYTHONWARNINGS=error fracperiodic t0-bound --s 0.5 --lambda-grid 100 || code=$?
test "$code" -eq 1
# a period at which the Newton tolerance accepts a nonconstant start unmoved is a usage error
code=0; PYTHONWARNINGS=error fracperiodic solve --s 0.2 --T 1e-100 || code=$?
test "$code" -eq 2
# an order so small that the extension's y^-a Jacobi rule has 2 + beta = 1 is a usage error
for cmd in hamiltonian modica; do
  code=0; PYTHONWARNINGS=error fracperiodic "$cmd" --s 1e-300 --T 8 || code=$?
  test "$code" -eq 2
done
# so is one at which p = 1 + 2s of the image kernel's zeta(p, q) rounds to 1
code=0; PYTHONWARNINGS=error fracperiodic test-bound --s 1e-300 --T 8 || code=$?
test "$code" -eq 2
# so is a t0-bound whose branch is subcritical
code=0; PYTHONWARNINGS=error fracperiodic t0-bound --s 0.5 --potential poly:0.5,0,-0.5,0,-0.5,0,0.5 || code=$?
test "$code" -eq 2
# an even-mode branch runs in the whole odd class, not the half-wave one
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --lambda-start 2 --steps 8
# an even solve is the odd one shifted by a quarter period
PYTHONWARNINGS=error fracperiodic solve --s 0.5 --T 8 --symmetry even
# a continuation step whose corrector lands on u = 0 is retried at half the step
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --potential poly:0.5,0,-0.5,0,-0.5,0,0.5 --lambda-start 3 --steps 12 --ds 0.1
# the Poisson route at a height 1e5 periods up: its kernel's binomial tails run about 20 terms
python -c 'from fracperiodic import PeriodicFunction; print(PeriodicFunction.from_modes(1.0, sin_coeffs=[0.5, 0, -0.2]).to_json())' > "$RUNNER_TEMP/trace.json"
PYTHONWARNINGS=error fracperiodic extend --s 0.5 --input "$RUNNER_TEMP/trace.json" --method poisson --points "0.25,1e5;0.5,30"
# an output file is written in place: a shorter second write leaves exactly its own bytes
rm -f "$RUNNER_TEMP/branch.csv" "$RUNNER_TEMP/fresh.csv"
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --steps 12 --out "$RUNNER_TEMP/branch.csv"
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --steps 4 --out "$RUNNER_TEMP/branch.csv"
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --steps 4 --out "$RUNNER_TEMP/fresh.csv"
cmp "$RUNNER_TEMP/branch.csv" "$RUNNER_TEMP/fresh.csv"
# and a device that cannot be truncated takes the output
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --steps 4 --out /dev/null
# the README's examples, through the console script, in a scratch directory
grep '^fracperiodic ' README.md > "$RUNNER_TEMP/readme_examples.sh"
cd "$(mktemp -d)"
PYTHONWARNINGS=error bash -ex "$RUNNER_TEMP/readme_examples.sh"
