"""Exception hierarchy shared by all minerflex modules."""


class MinerflexError(Exception):
    """Base class for all library errors."""


class InvalidInputError(MinerflexError):
    """An argument or configuration value violates a precondition."""


class ModelViolationError(MinerflexError):
    """Inputs break a modeling assumption (e.g. negative net mining reward)."""


class InfeasibleError(MinerflexError):
    """A requested profile or deployment lies outside the feasible set."""


class TraceFormatError(InvalidInputError):
    """A trace file failed validation; carries file path and line number."""

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class ShortWindowError(InvalidInputError):
    """A trace window holds too few fully observed slots to fit; the command line names its trace files."""


class NumericalError(MinerflexError):
    """A numerical routine failed to converge or produced non-finite values."""
