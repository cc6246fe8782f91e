"""Exception hierarchy shared across the package."""


class AelError(Exception):
    """Base class for all package-specific errors."""


class DomainError(AelError):
    """An argument lies outside the mathematical domain of an operation."""


class OutOfDomain(DomainError):
    """A strategy was evaluated outside its grid span (beyond slack)."""


class NoSignChange(AelError):
    """A root bracket's endpoint values do not have opposite signs."""


class NoConvergence(AelError):
    """An iterative routine hit its iteration cap before converging."""


class NonConcave(AelError):
    """A derivative changed sign more than once on the diagnostic grid.

    Carries ``smallest_root``, the leftmost stationary point found, so
    callers can still report a candidate while flagging the run.
    """

    def __init__(self, message: str, smallest_root: float | None = None):
        super().__init__(message)
        self.smallest_root = smallest_root


class WrongScheme(AelError):
    """The fee scheme does not support the requested operation."""


class DegenerateCase(AelError):
    """The operation requires a non-degenerate market (sigma_minus < sigma_plus)."""


class NoEquilibrium(AelError):
    """No equilibrium exists or the solver failed to produce one."""


class ConfigError(AelError):
    """A configuration file or command-line override could not be parsed."""
