"""Exception hierarchy for the invariant computations."""


class StokesUnfoldError(Exception):
    """Base class for errors raised by this package."""


class GammaPoleError(StokesUnfoldError, ValueError):
    """Gamma evaluated too close to one of its poles."""


class MatrixShapeError(StokesUnfoldError, ValueError):
    """Matrix argument violates the required shape."""


class SingularMatrixError(StokesUnfoldError, ArithmeticError):
    """3x3 inverse requested for a numerically singular matrix."""


class BranchCutError(StokesUnfoldError, ValueError):
    """Evaluation point lies on (or too close to) a branch cut."""


class SingularDirectionError(StokesUnfoldError, ValueError):
    """Integration ray passes too close to a Borel-plane singularity."""


class DecayConditionError(StokesUnfoldError, ValueError):
    """Laplace integrand does not decay along the requested ray."""


class SingularPointError(StokesUnfoldError, ValueError):
    """Solution data requested at a point that is not clear of the singular points."""


class OrdinaryPointError(StokesUnfoldError, ValueError):
    """Indicial data requested at a point that is not singular."""


class ResonanceError(StokesUnfoldError, ValueError):
    """Parameters are outside the logarithmic-resonance families the
    closed forms cover."""


class DivergentIntegralError(StokesUnfoldError, ValueError):
    """Endpoint exponent makes the iterated integral diverge."""


class DoubleRangeError(StokesUnfoldError, ValueError):
    """Result whose magnitude lies outside the range of normal doubles."""


class PathError(StokesUnfoldError, ValueError):
    """Malformed contour path, or a path through a singular point."""


class GuardError(StokesUnfoldError, RuntimeError):
    """Stiffness guard refused an ODE-oracle run."""


class ToleranceError(StokesUnfoldError, ArithmeticError):
    """An adaptive scheme could not reach the requested tolerance."""

