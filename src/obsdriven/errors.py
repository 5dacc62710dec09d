"""Exception types shared across the package."""


class InvalidSpec(ValueError):
    """A process, kernel or link specification violates its invariants."""


class EmptyRange(ValueError):
    """A time range [t_min, t_max] with t_max < t_min was requested."""


class DegenerateMap(ValueError):
    """A coefficient map is identically zero on the support of the environment."""


class StateOutOfDomain(ValueError):
    """A latent state lies outside the kernel's state space."""


class UnsupportedOrder(ValueError):
    """The requested moment order is not defined for this kernel family."""


class DomainViolation(ValueError):
    """The link recursion produced a state outside the kernel's state space.

    At step ``t`` (None: a start state), on the first failing ``replica`` of a batch (None:
    one chain), the state went from ``previous`` with observation ``y`` to ``state``.
    """

    def __init__(self, message, t=None, replica=None, previous=None, y=None, state=None):
        super().__init__(message)
        self.t, self.replica, self.previous, self.y, self.state = t, replica, previous, y, state


class StateOverflow(DomainViolation):
    """The link recursion overflowed float64: a state became inf or NaN."""


class PathTooShort(ValueError):
    """The covariate path does not cover the requested horizon or truncation window."""


class SizeMismatch(ValueError):
    """Empirical measures of different sizes were compared with bootstrap disabled."""


class UnsupportedCombination(ValueError):
    """Kernel family and link order are incompatible."""


class CouplingBudgetExceeded(RuntimeError):
    """Rejection sampling inside the maximal coupling exceeded its attempt cap."""


class ManifestError(ValueError):
    """An experiment manifest failed schema validation."""
