"""Exception types shared across the package."""


class IngestError(ValueError):
    """Malformed or inconsistent input file: COCO JSON, custom zones, feature records, synth inputs."""


class PartitionError(ValueError):
    """Invalid zone specification, or a zone id that does not exist."""


class OutsideImageError(ValueError):
    """A point handed to a geometric operation lies outside the image domain."""


class UndefinedStatisticError(ValueError):
    """A statistic has no defined value on the given input (e.g. zero variance)."""
