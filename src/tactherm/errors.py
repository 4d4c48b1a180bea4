"""Exception types shared across the package."""


class TacthermError(Exception):
    """Base class for package errors."""


class ParameterError(TacthermError, ValueError):
    """Invalid parameter value (bad n, nonpositive area, degenerate refinement, ...)."""


class PlacementError(TacthermError, ValueError):
    """Tumor prism does not fit inside the tissue block."""


class SolverError(TacthermError, RuntimeError):
    """Linear solve failed; carries the solve statistics collected so far."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats


class SingularSystemError(SolverError):
    """System has no Dirichlet data and no Robin leakage: temperature level undetermined."""


class DeformationError(TacthermError, RuntimeError):
    """Mesh deformation inverted at least one element."""


class DegenerateFitError(TacthermError, ValueError):
    """Profile has no temperature variation; the fundamental frequency is indeterminate."""


class TrainingError(TacthermError, RuntimeError):
    """RBF interpolation system singular: duplicate normalized training rows."""


class DatasetSizeError(TacthermError, ValueError):
    """Dataset row count does not match the expected sweep size."""


class ArtifactError(TacthermError, RuntimeError):
    """Required sweep artifacts are missing or inconsistent; names the missing models."""

    def __init__(self, message, missing=()):
        super().__init__(message)
        self.missing = list(missing)
