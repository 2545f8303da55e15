"""Exception hierarchy shared by all solver modules."""


class FracPeriodicError(Exception):
    """Base class for all domain errors raised by this package."""


class QuadratureNonConvergence(FracPeriodicError):
    """Adaptive quadrature stalled before reaching the requested tolerance."""


class NotCoercive(FracPeriodicError):
    """The shifted Galerkin matrix has a nonpositive eigenvalue."""


class SolvabilityViolation(FracPeriodicError):
    """Right-hand side is not orthogonal to the kernel of the operator."""

    def __init__(self, inner_product):
        self.inner_product = inner_product
        super().__init__(f"<g, v> = {inner_product:.3e} != 0 for a kernel vector v")


class NegativePotential(FracPeriodicError):
    """Schroedinger potential takes negative values on the grid."""


class BesselEvalFailure(FracPeriodicError):
    """Modified Bessel evaluation failed outside the clamped overflow range."""


class ExtrapolationDivergence(FracPeriodicError):
    """Richardson extrapolation of the weighted Neumann limit did not settle."""


class TailNotConverged(FracPeriodicError):
    """y_max cuts the y-integral before its exponential tail is negligible."""


class NoConvergence(FracPeriodicError):
    """Iteration budget exhausted before reaching the tolerance."""


class SingularJacobian(FracPeriodicError):
    """Newton Jacobian is numerically singular (near a bifurcation point)."""


class InconsistentBracket(FracPeriodicError):
    """Bisection bracket for the minimal period is inconsistent."""


class StepFailure(FracPeriodicError):
    """A continuation step failed after the maximum number of retries."""


class BranchLost(FracPeriodicError):
    """Continuation lost the nontrivial branch."""


class IdentityViolation(FracPeriodicError):
    """Hamiltonian identity deviation exceeds the tolerance."""

    def __init__(self, x, deviation):
        self.x = x
        self.deviation = deviation
        super().__init__(f"identity deviation {deviation:.3e} at x = {x:.6g}")


class InequalityViolation(FracPeriodicError):
    """Modica-type inequality fails at a grid point."""

    def __init__(self, point, excess):
        self.point = point
        self.excess = excess
        super().__init__(f"inequality violated by {excess:.3e} at {point}")
