# The degenerate-harmonic extension, built two independent ways
#
# A periodic trace u extends to the upper half-plane as the solution of
# div(y^a grad U) = 0.  Route one sums per-mode Bessel-K profiles; route
# two convolves u against the periodized Poisson kernel.  Their boundary
# flux recovers the fractional Laplacian (Dirichlet-to-Neumann), and the
# weighted Dirichlet energy matches the spectral seminorm.

import numpy as np

from fracperiodic import (
    FracOrder,
    PeriodicFunction,
    dirichlet_to_neumann,
    extend_bessel,
    extend_poisson,
    extension_energy,
    frac_laplacian,
    spectral_dirichlet,
)

frac = FracOrder(0.3)
u = PeriodicFunction.from_modes(2 * np.pi, sin_coeffs=[1.0, -0.25],
                                cos_coeffs=[0.1, 0.0, 0.4])

field_b = extend_bessel(u, frac)
field_p = extend_poisson(u, frac)

print("field values, Bessel series vs Poisson convolution:")
for x, y in [(0.5, 0.1), (2.0, 0.8), (4.5, 2.0)]:
    vb, vp = field_b.value(x, y), field_p.value(x, y)
    print(f"  U({x:3.1f}, {y:3.1f}) = {vb:+.8f} | {vp:+.8f}   diff {abs(vb - vp):.2e}")
print()

dtn = dirichlet_to_neumann(field_b)
ref = frac_laplacian(u, frac)
err = max(np.max(np.abs(dtn.sin_coeffs - ref.sin_coeffs)),
          np.max(np.abs(dtn.cos_coeffs - ref.cos_coeffs)))
print(f"Dirichlet-to-Neumann vs multiplier, coefficient error: {err:.2e}")
print()

e_ext = extension_energy(field_b)
e_spec = spectral_dirichlet(u, frac) / frac.d_s
print("weighted Dirichlet energy of the extension vs spectral seminorm:")
print(f"  Green identity  {e_ext:.10f}")
print(f"  spectral route  {e_spec:.10f}")
print(f"  difference      {abs(e_ext - e_spec):.2e}")
