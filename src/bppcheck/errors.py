"""Exception types shared across the package."""

from __future__ import annotations


class BppCheckError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # Subclasses take other constructor arguments than their message, so
        # pickling (how batch workers hand errors back) keeps the message
        # and the attributes instead of calling the constructor again.
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, state):
    err = cls.__new__(cls, *args)
    err.__dict__.update(state)
    return err


class UnknownSymbol(BppCheckError):
    def __init__(self, name: str):
        super().__init__(f"unknown symbol {name!r}")
        self.name = name


class UnknownReference(BppCheckError):
    """A property over an actor system names an undeclared state, process or message."""


class DimensionMismatch(BppCheckError):
    def __init__(self, expected: int, got: int):
        super().__init__(f"marking has dimension {got}, expected {expected}")
        self.expected = expected
        self.got = got


class RuleNotEnabled(BppCheckError):
    def __init__(self, rule_id: int):
        super().__init__(f"rule {rule_id} is not enabled at this marking")
        self.rule_id = rule_id


class MixedFormula(BppCheckError):
    """The formula mixes EF with EG/E<a> and no engine decides it exactly."""


class EncodingTimeout(BppCheckError):
    """Encoding ran past the deadline of the check."""


class NameCollision(BppCheckError):
    """Generated symbol names collide with declared ones."""


class ParseError(BppCheckError):
    """Syntax or resolution error with a 1-based source position."""

    def __init__(self, line: int, column: int, expected: str, found: str):
        super().__init__(
            f"line {line}, column {column}: expected {expected}, found {found}"
        )
        self.line = line
        self.column = column
        self.expected = expected
        self.found = found


class IllFormedFormula(BppCheckError):
    """A constraint handed to the SMT layer is not integer-linear."""


class SolverNotFound(BppCheckError):
    def __init__(self, command: str):
        super().__init__(f"solver executable not found: {command}")
        self.command = command


class SolverCrashed(BppCheckError):
    def __init__(self, code: int, output: str):
        super().__init__(f"solver exited with status {code} and no verdict")
        self.code = code
        self.output = output


class SolverProtocolError(BppCheckError):
    """Solver output could not be interpreted."""


class MissingBinding(SolverProtocolError):
    def __init__(self, name: str):
        super().__init__(f"model has no binding for {name!r}")
        self.name = name


class NonIntegerBinding(SolverProtocolError):
    def __init__(self, name: str, value: str):
        super().__init__(f"model binds {name!r} to non-integer {value!r}")
        self.name = name
        self.value = value
