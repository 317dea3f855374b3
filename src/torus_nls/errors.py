"""Exception hierarchy shared by all torus_nls modules."""


class TorusNlsError(Exception):
    """Base class for all errors raised by this package."""


class NegativePowerAtZeroMode(TorusNlsError):
    """Homogeneous multiplier with s < 0 applied to a field with a nonzero mean."""


class GridTooSmall(TorusNlsError):
    """Physical grid cannot represent the requested bandlimit."""


class GridMismatch(TorusNlsError):
    """Two space-time objects live on incompatible grids."""


class UndefinedDerivative(TorusNlsError):
    """Requested Wirtinger order does not exist for this power."""


class DomainError(TorusNlsError):
    """Evaluation at z = 0 with a negative effective power."""


class NoConvergence(TorusNlsError):
    """An iterative solve stopped short of its tolerance.

    Raised when the frame-by-frame march stalls at a frame (``frame`` names
    it), when Picard iteration fails to contract within its iteration
    budget, and when Picard's final residual is above its tolerance
    (``residual`` holds it).  ``iterations`` and ``last_ratio`` describe the
    iteration that gave up: the frame's fixed point for the march, the
    whole-window iteration for Picard.
    """

    def __init__(self, max_iter, last_ratio, iterations=None, T=None, halvings=None,
                 frame=None, residual=None):
        iterations = max_iter if iterations is None else iterations
        what = "no contraction" if frame is None else f"march stalled at frame {frame}"
        above = "" if residual is None else f", residual {residual:.3g} above tol"
        # find_T names the last T it tried and how often it halved T to get there
        where = "" if T is None else f" at T={T:g} after {halvings} halvings of T"
        super().__init__(
            f"{what} after {iterations} of {max_iter} iterations "
            f"(last ratio {last_ratio:.3g}{above}){where}; try a smaller T or smaller data"
        )
        self.max_iter = max_iter
        self.iterations = iterations
        self.last_ratio = last_ratio
        self.T = T
        self.halvings = halvings
        self.frame = frame
        self.residual = residual


class SamplerDegenerate(TorusNlsError):
    """A sampler produced identically-zero data."""


class GuardExceeded(TorusNlsError):
    """Requested problem size exceeds the desk-scale guard."""


class NotFound(TorusNlsError):
    """Unknown preset or registry key."""


class DegenerateSeries(TorusNlsError):
    """Scaling series too short or non-positive for a log-log fit."""


class EpsilonTooLarge(TorusNlsError):
    """Hoelder exponent constraint r_i > 10/3 violated."""

    def __init__(self, name, value):
        super().__init__(f"{name} = {value:.6g} <= 10/3")
        self.name = name
        self.value = value


class ConfigError(TorusNlsError, ValueError):
    """A parameter value that the rule of its owner rejects, or a malformed
    config or field file.

    Each rule is stated once, where the parameter lives: in a value type
    (TorusMetric, PowerNonlinearity, TimeGrid, SamplerSpec, EstimateSpec,
    RunConfig for its own keys) or in the function that takes it; NaN and
    +-inf fail every rule that asks for a finite value.  The CLI maps it to
    exit code 2.  It is a ValueError too, so callers that catch ValueError
    keep working.
    """


class InvalidLebesgueExponent(ConfigError):
    """Lebesgue exponent outside the admissible range."""
