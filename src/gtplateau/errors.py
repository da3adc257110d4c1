"""Exception hierarchy shared across the package: one class per CLI exit code.

    2  ConfigurationError  invalid input, including a value outside its domain
    3  SolverError         a solve or a reconstruction failed; nothing is written
    4  NetFormatError      a net file is malformed (an OSError if it cannot be read)
"""


class GtPlateauError(Exception):
    """Base class for all package errors."""


class ConfigurationError(GtPlateauError, ValueError):
    """Invalid input: bad degrees, shapes, masks, options, or a value outside its domain."""


class SolverError(GtPlateauError, RuntimeError):
    """A solve failed: a singular or unusable system, or a rank-deficient reconstruction."""


class NetFormatError(GtPlateauError, ValueError):
    """A control-net file could not be parsed or fails schema validation."""
