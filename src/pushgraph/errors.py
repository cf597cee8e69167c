"""Exception types raised across the package."""


class PushGraphError(Exception):
    """Base class for all package-specific errors."""


# geometry
class DegenerateProjection(PushGraphError):
    """Body x-axis is (anti)parallel to the plane normal; planar yaw undefined."""


# graphcore
class NonPositiveTimestep(PushGraphError):
    """A step was not after the previous one, so its finite-difference factors would take dt <= 0."""


class EmptyTrajectory(PushGraphError):
    """Graph construction needs at least two timesteps."""


class MissingShapeConfig(PushGraphError):
    """The selected graph model needs shape/params metadata that is absent."""


class SingularSystem(PushGraphError):
    """Normal equations are rank deficient even after damping."""


class NonFiniteCost(PushGraphError):
    """Residual cost evaluated to NaN or infinity."""


# pushsim
class DegenerateShape(PushGraphError):
    """Shape has zero support area; friction constants undefined."""


class NoSolution(PushGraphError):
    """Contact geometry admits no quasi-static step solution."""


class NonConvergence(PushGraphError):
    """Inner root solve of the pushing step did not converge."""


# dataio
class ParseError(PushGraphError):
    """Trajectory file is malformed."""


class SchemaVersionError(PushGraphError):
    """Trajectory file declares an unsupported schema version."""


class NonMonotonicTimestamps(PushGraphError):
    """Timestamps must be strictly increasing."""


class LengthMismatch(PushGraphError):
    """Estimate and ground truth cover different timesteps."""


class IoError(PushGraphError):
    """File could not be written or read."""
