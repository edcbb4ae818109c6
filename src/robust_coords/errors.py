"""Exception types shared across the package."""


class RobustCoordsError(Exception):
    """Base class for all errors raised by this package."""


class EmptyOverlap(RobustCoordsError):
    """Two configurations have no indices in common."""


class DimensionMismatch(RobustCoordsError):
    """Inputs disagree on ambient dimension or global index count."""


class NonFinite(RobustCoordsError):
    """A NaN or infinity appeared where a finite value is required."""


class NotAntisymmetric(RobustCoordsError):
    """A direction matrix fails the antisymmetry requirement."""


class TooFewPoints(RobustCoordsError):
    """Not enough points for the requested embedding dimension."""


class DegenerateGraph(RobustCoordsError):
    """The neighborhood graph's largest component is too small to embed."""


class EigensolverFailed(RobustCoordsError):
    """The eigensolver of classical MDS, dense LAPACK (evr) on small Gram
    matrices or Lanczos (ARPACK) on larger ones, failed or did not converge."""


class NotSymmetric(RobustCoordsError):
    """A matrix required to be symmetric is not."""


class TooManySimplices(RobustCoordsError):
    """The filtration would exceed the configured simplex budget."""


class SizeTooLarge(RobustCoordsError):
    """A subsample size is invalid for the given point count."""


class NoGoodCluster(RobustCoordsError):
    """Cluster selection rejected every candidate.

    ``run_pipeline`` raises it with the run's report, whose every cluster
    carries its verdict and whose ``alignment`` is None, so callers can
    still write diagnostics; ``report`` is None when there was nothing to
    compare.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ParseError(RobustCoordsError):
    """A data or manifest file is malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DuplicateId(ParseError):
    """The same global index appears twice in one file."""
