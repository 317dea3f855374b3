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


class InvalidLebesgueExponent(TorusNlsError):
    """Lebesgue exponent outside the admissible range."""


class NoConvergence(TorusNlsError):
    """Picard iteration failed to contract within the iteration budget."""

    def __init__(self, max_iter, last_ratio, iterations=None, T=None, halvings=None):
        iterations = max_iter if iterations is None else iterations
        # find_T names the last T it tried and how often it halved T to get there
        where = "" if T is None else f" at T={T:g} after {halvings} halvings of T"
        super().__init__(
            f"no contraction after {iterations} of {max_iter} iterations "
            f"(last ratio {last_ratio:.3g}){where}; try a smaller T or smaller data"
        )
        self.max_iter = max_iter
        self.iterations = iterations
        self.last_ratio = last_ratio
        self.T = T
        self.halvings = halvings


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


class ConfigError(TorusNlsError):
    """Malformed or incomplete configuration."""
