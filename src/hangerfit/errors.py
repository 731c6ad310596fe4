"""Exception hierarchy for hangerfit.

Analysis errors (fit failures, missing resonances, ...) are kept separate
from input errors (unparseable files, bad configuration) so that callers,
in particular the CLI, can map them to distinct exit codes.
"""

from __future__ import annotations


class HangerFitError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(HangerFitError, ValueError):
    """A model parameter is outside its physical domain."""


class NoResonanceError(HangerFitError):
    """No resonance dip was found in the trace."""


class SingularJacobianError(HangerFitError):
    """The fit problem is degenerate (e.g. all trace points identical)."""


class NonConvergenceError(HangerFitError):
    """An iterative fit failed to converge."""


class InsufficientSpanError(HangerFitError):
    """Power sweep covers too few points or too small a photon-number span."""


class InsufficientPowersError(HangerFitError):
    """Too few drive powers for slope extraction."""


class BifurcationUnstableError(HangerFitError):
    """Selected photon-number branch jumped discontinuously away from a fold."""


class LowSignalError(HangerFitError):
    """Resonance circle radius is below the noise floor."""


class InternalConsistencyError(HangerFitError):
    """An internal invariant was violated (indicates a bug, not bad input)."""


class TraceParseError(HangerFitError):
    """Base class for file-format errors; always carries a location."""

    def __init__(self, message: str, path: str, line: int):
        self.path = str(path)
        self.line = int(line)
        super().__init__(f"{path}:{line}: {message}")


class MalformedRowError(TraceParseError):
    pass


class NonMonotoneFrequencyError(TraceParseError):
    pass


class MissingMetadataError(TraceParseError):
    def __init__(self, key: str, path: str, line: int):
        self.key = key
        super().__init__(f"missing metadata key '{key}'", path, line)


class MalformedOptionLineError(TraceParseError):
    pass


class UnsupportedFormatError(TraceParseError):
    pass


class InputMismatchError(HangerFitError):
    """Two inputs disagree, e.g. a trace's power metadata and its manifest entry."""


class ConfigError(HangerFitError):
    """Configuration file violates the documented schema."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")
