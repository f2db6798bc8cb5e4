"""Error taxonomy shared by the library and the command line front end.

Three failure classes matter to callers: bad input (rejected data, malformed
text, violated preconditions), exceeded resource limits (configurable caps on
basis size, degree, wall clock), and internal invariant violations (bugs).
The CLI maps them to exit codes 1, 2 and 3 respectively.
"""

from __future__ import annotations


class CharplabError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3
    kind = "internal"


class InputError(CharplabError):
    """Invalid input: bad values, malformed text, violated preconditions."""

    exit_code = 1
    kind = "input"


class ParseError(InputError):
    """Malformed polynomial or job text; carries a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LimitError(CharplabError):
    """A configured resource limit was exceeded before completion."""

    exit_code = 2
    kind = "limit"


class TimeLimitError(LimitError):
    """The wall-clock budget of a basis computation ran out.  That depends
    on the machine, not on the data, so a perturbation run stops on it
    instead of recording it as a sample outcome."""


class InternalError(CharplabError):
    """An internal invariant failed; indicates a bug, not bad input."""

    exit_code = 3
    kind = "internal"
