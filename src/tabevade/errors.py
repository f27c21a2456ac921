"""Exception types raised across the package."""


class TabevadeError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(TabevadeError):
    """Feature schema is invalid or does not match the data."""


class ParseError(TabevadeError):
    """A data file contains a value that cannot be parsed."""


class StratificationError(TabevadeError):
    """A stratified split is impossible (e.g. a class is missing)."""


class RankingError(TabevadeError):
    """Feature ranking cannot be computed on the given data."""


class SelectionError(TabevadeError):
    """Fewer eligible features than the requested perturbation count."""


class ShapeError(TabevadeError):
    """An array has the wrong number of columns for the fitted object."""


class FitError(TabevadeError):
    """Model training is impossible on the given data."""


class MetricError(TabevadeError):
    """A metric is undefined for the given inputs."""


class ResumeError(TabevadeError):
    """A grid sink was written for other data or flags than the resume gives, or a run would write over
    the output of an earlier one."""


class InfeasibleInjectionError(TabevadeError):
    """A feature-space perturbation cannot be realized by additions only."""


class UnsupportedFeatureError(TabevadeError):
    """An injection plan names a feature with no HTML generator."""


class ExtractionError(TabevadeError):
    """A page is too malformed for feature extraction."""
