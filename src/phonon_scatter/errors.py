"""Exception types shared across the package.

Preconditions that name a failing parameter raise ConfigError; analytic
domain violations raise DomainError. The remaining types mark situations a
caller may want to handle structurally (extend a kernel horizon, widen an
exclusion zone, rerun with a larger lattice).
"""


class ConfigError(ValueError):
    """A parameter or configuration violates a stated precondition."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an evaluator."""


class SingularZoneError(DomainError):
    """Evaluation requested too close to a zero-velocity point of the band."""


class HorizonError(DomainError):
    """Time argument beyond the precomputed memory-kernel horizon.

    Rebuild the kernel with a larger horizon to evaluate there.
    """


class InvalidRunError(RuntimeError):
    """A finished run violated a validity guard; results must be discarded."""


class TableConstructionError(RuntimeError):
    """A scattering table failed its identity checks during construction."""
