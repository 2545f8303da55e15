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
# the Hamiltonian density and the Modica tails are in closed form: they build no rule
# and take their s -> 0 limits (modica's y^-a Jacobi rule had 2 + beta = 1 there)
PYTHONWARNINGS=error fracperiodic hamiltonian --s 1e-300 --T 8
PYTHONWARNINGS=error fracperiodic modica --s 1e-300 --T 8
# the 30-mode Modica tails divide by alpha_m^2 - alpha_n^2 off the diagonal only
PYTHONWARNINGS=error fracperiodic modica --s 0.3 --T 40
# and a large period off s = 1/2 passes (a 128-node y-rule failed it at deviation 2.1e-5)
PYTHONWARNINGS=error fracperiodic hamiltonian --s 0.3 --T 40
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
# both sides of the bifurcation at 2 pi: trivial endpoints absorb no start,
# so the small nonconstant minimizer just above it is still found
PYTHONWARNINGS=error fracperiodic solve --s 0.5 --T 6.29 --N 32 2>&1 >/dev/null | grep '^classification=nonconstant '
PYTHONWARNINGS=error fracperiodic solve --s 0.5 --T 6.27 --N 32 2>&1 >/dev/null | grep '^classification=trivial '
# a continuation step whose corrector lands on u = 0 is retried at half the step
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --potential poly:0.5,0,-0.5,0,-0.5,0,0.5 --lambda-start 3 --steps 12 --ds 0.1
# the Poisson route at a height 1e5 periods up: its kernel's image tails, about 300 000
# images out, take 19 binomial orders, whose y-powers are formed relative to (jc + 1) T
python -c 'from fracperiodic import PeriodicFunction; print(PeriodicFunction.from_modes(1.0, sin_coeffs=[0.5, 0, -0.2]).to_json())' > "$RUNNER_TEMP/trace.json"
PYTHONWARNINGS=error fracperiodic extend --s 0.5 --input "$RUNNER_TEMP/trace.json" --method poisson --points "0.25,1e5;0.5,30"
# and it agrees with the Bessel route to 1e-9 (the two share no special function)
for m in poisson bessel; do PYTHONWARNINGS=error fracperiodic extend --s 0.3 --input "$RUNNER_TEMP/trace.json" --method "$m" --points "0.1,0.05;0.37,0.2;0.8,0.5" --out "$RUNNER_TEMP/$m.csv"; done; paste -d, "$RUNNER_TEMP/poisson.csv" "$RUNNER_TEMP/bessel.csv" | awk -F, 'NR > 1 { d = $3 - $6; if (d > 1e-9 || d < -1e-9 || $6 == "") bad = 1 } END { exit bad || NR != 4 }'
# the Galerkin matrix reads every mode of k: with k = 1.5 + 0.5 cos 20x at N = 4
# no two basis modes couple, and the lowest eigenvalue is the mean of k (it read 2)
python -c 'import math; from fracperiodic import PeriodicFunction; print(PeriodicFunction.from_modes(2 * math.pi, cos_coeffs=[1.5] + [0] * 19 + [0.5]).to_json())' > "$RUNNER_TEMP/k20.json"
PYTHONWARNINGS=error fracperiodic eig --s 0.5 --T 6.283185307179586 --N 4 --count 3 --k "$RUNNER_TEMP/k20.json" | grep -x '0,1.5'
# the Fredholm deflation A + ||A||_inf Z Z^T, the one solve that builds the dense matrix:
# with k = 0 the constants span the kernel, and a mean-free g is solvable
python -c 'import math; from fracperiodic import PeriodicFunction; print(PeriodicFunction.constant(2 * math.pi, 0.0).to_json())' > "$RUNNER_TEMP/k0.json"
python -c 'import math; from fracperiodic import PeriodicFunction; print(PeriodicFunction.from_modes(2 * math.pi, sin_coeffs=[0.5], cos_coeffs=[0.0, 1.0]).to_json())' > "$RUNNER_TEMP/g0.json"
PYTHONWARNINGS=error fracperiodic solve-linear --s 0.5 --k "$RUNNER_TEMP/k0.json" --g "$RUNNER_TEMP/g0.json" 2>&1 >/dev/null | grep '^kernel_dim=1 '
# an output file is written in place: a shorter second write leaves exactly its own bytes
rm -f "$RUNNER_TEMP/branch.csv" "$RUNNER_TEMP/fresh.csv"
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --steps 12 --out "$RUNNER_TEMP/branch.csv"
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --steps 4 --out "$RUNNER_TEMP/branch.csv"
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --steps 4 --out "$RUNNER_TEMP/fresh.csv"
cmp "$RUNNER_TEMP/branch.csv" "$RUNNER_TEMP/fresh.csv"
# and a device that cannot be truncated takes the output
PYTHONWARNINGS=error fracperiodic continue --s 0.5 --steps 4 --out /dev/null
# two outputs of the semilinear solver core, pinned to 1e-9 relative so that a faster kernel
# (gram, the class residual and Jacobian, the quartic well) cannot move them unseen: the last
# branch point (lambda, amplitude) of continue at s = 1/2 and the min-period estimate
PYTHONWARNINGS=error fracperiodic continue --s 0.5 2>/dev/null | tail -n 1 | awk -F, '{ a = $1 / 2.953840109210498 - 1; b = $2 / 0.86463278494201568 - 1; bad = a * a > 1e-18 || b * b > 1e-18 } END { exit bad || NR != 1 }'
PYTHONWARNINGS=error fracperiodic min-period --s 0.5 --T-hi 8 2>/dev/null | awk -F, 'NR == 2 { d = $1 / 6.2922427743048948 - 1; ok = d * d <= 1e-18 } END { exit !ok }'
# the README's examples, through the console script, in a scratch directory
grep '^fracperiodic ' README.md > "$RUNNER_TEMP/readme_examples.sh"
cd "$(mktemp -d)"
PYTHONWARNINGS=error bash -ex "$RUNNER_TEMP/readme_examples.sh"
