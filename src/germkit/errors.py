"""Exception hierarchy shared across the toolkit.

Exit-code mapping used by the CLI: ParseError -> 2, PreconditionError -> 1,
InternalCheckError -> 3, and any other exception from a subcommand -> 3.
"""


class GermkitError(Exception):
    """Base class for all toolkit errors."""


class ParseError(GermkitError):
    """Malformed input file or option string."""


class PreconditionError(GermkitError):
    """Input data violates a mathematical precondition of an operation."""


class InternalCheckError(GermkitError):
    """A self-check that should hold for every valid input failed.

    Raising this means a bug in the engine, not bad user data.
    """
