"""Exception types shared across the package."""


class CvposeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CvposeError):
    """Operands have incompatible shapes."""


class NotScalar(CvposeError):
    """A scalar (1x1) value was required."""


class NonPositiveDepth(CvposeError):
    """A 3D point sits at or behind the camera plane.

    Carries the offending joint index when known.
    """

    def __init__(self, message, joint=None):
        super().__init__(message)
        self.joint = joint


class DegenerateGeometry(CvposeError):
    """Triangulation geometry does not determine a unique point."""

    def __init__(self, message, joint=None):
        super().__init__(message)
        self.joint = joint


class DegenerateCloud(CvposeError):
    """A point cloud collapses to a single point, alignment is undefined."""


class FrameMismatch(CvposeError):
    """Two poses are expressed in different coordinate frames."""


class NonFiniteLoss(CvposeError):
    """Training produced a NaN or infinite loss or gradient, or an epoch
    that scored no sample and so has no loss at all."""


class SchemaError(CvposeError):
    """A file does not follow its declared schema.

    Carries the 1-based line number when the failure is line-local.
    """

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class MissingField(SchemaError):
    """A required field is absent from a record."""


class PoseOutOfView(CvposeError):
    """Pose sampling failed to place a skeleton inside every camera view."""


class UnknownCamera(CvposeError, ValueError):
    """A camera pair names a camera the rig does not have. Also a
    ValueError, as MissingGroundTruth is."""


class VariantError(CvposeError, ValueError):
    """An ablation names a variant the study does not have, or one variant
    twice. Also a ValueError, as MissingGroundTruth is."""


class NoPoolGroups(CvposeError, ValueError):
    """A custom topology has no built-in pooling groups for the U-shaped
    network. Also a ValueError, as MissingGroundTruth is."""


class MissingGroundTruth(CvposeError, ValueError):
    """An evaluation was asked of samples that carry no 3D ground truth.

    Also a ValueError so callers that guard broadly keep working.
    """
