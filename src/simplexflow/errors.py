"""Exception types shared across the package."""


class SimplexFlowError(Exception):
    """Base class for every error raised by this package."""


class BoundaryError(SimplexFlowError):
    """A probability coordinate is too close to the simplex boundary for the
    requested operation (the coordinate tensors carry 1/rho factors)."""


class ParamError(SimplexFlowError):
    """Invalid metric coefficient functions, for example B <= 0."""


class SingularError(SimplexFlowError):
    """A metric block is numerically singular."""


class DimensionError(SimplexFlowError):
    """Mismatched vector or matrix dimensions."""


class NormalizationError(SimplexFlowError):
    """Input violates a normalization or tangency requirement."""


class NotRealError(SimplexFlowError):
    """A Hamiltonian evaluated to a significantly complex value."""


class NotHermitianError(SimplexFlowError):
    """An operator or kernel that must be Hermitian is not."""


class ConvergenceError(SimplexFlowError):
    """An iterative solver failed to converge."""


class NonFiniteError(SimplexFlowError):
    """A computed step coefficient, state or squared length is inf or nan."""


class ConfigError(SimplexFlowError):
    """Malformed scenario configuration; carries the full list of problems."""

    def __init__(self, errors):
        self.errors = [str(e) for e in errors]
        super().__init__("; ".join(self.errors))
