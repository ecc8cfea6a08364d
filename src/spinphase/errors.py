"""Exception hierarchy shared by all spinphase modules.

Every error carries an ``exit_code`` used by the CLI: 3 config, 4 I/O,
5 any numerical/physics failure (exit 2, usage, comes from argparse).
"""


class SpinPhaseError(Exception):
    """Base class for all spinphase errors."""

    exit_code = 5


class DomainError(SpinPhaseError):
    """Requested time (or span) lies outside the profile's declared domain."""


class DegenerateField(SpinPhaseError):
    """Field magnitude dropped below the profile's B_min floor."""


class StepSizeUnderflow(SpinPhaseError):
    """Adaptive integrator failed to advance (stiffness or degeneracy)."""


class OverlapLoss(SpinPhaseError):
    """State left the tracked eigenvector branch (adiabaticity broken)."""


class BranchJump(SpinPhaseError):
    """Phase changed by more than pi/2 between adjacent nodes (grid too coarse)."""


class GridTooCoarse(SpinPhaseError):
    """Trajectory grid too coarse for the requested quadrature."""


class PerturbativeRegimeViolation(SpinPhaseError):
    """|delta| or |gamma| exceeded the perturbative guard of 0.5."""


class NormalizationError(SpinPhaseError):
    """State or constants violate their unit-norm contract."""


class PoleSingularity(SpinPhaseError):
    """Path too close to a coordinate pole for the requested integral."""


class ArcTooLong(SpinPhaseError):
    """Consecutive trajectory nodes separated by more than pi/4 of arc."""


class LoopNotClosed(SpinPhaseError):
    """Parameter-space loop endpoints do not match within closure tolerance."""


class ConfigError(SpinPhaseError):
    """Structurally valid input with invalid content."""

    exit_code = 3


class IoError(SpinPhaseError):
    """Failed to read or write an artifact file."""

    exit_code = 4
