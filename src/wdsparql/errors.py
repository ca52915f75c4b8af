"""Exception types shared across the package.

Every library error derives from WdError; ``kind`` is the stable
machine-readable name the CLI prints as ``ERROR <Kind>: <detail>``.
"""

from __future__ import annotations


class WdError(Exception):
    @property
    def kind(self) -> str:
        return type(self).__name__


class ParseError(WdError):
    def __init__(self, message: str, *, line: int | None = None, position: int | None = None):
        self.line = line
        self.position = position
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif position is not None:
            where = f" (at position {position})"
        super().__init__(f"{message}{where}")


class NonGroundGraph(ParseError):
    pass


class DuplicateBinding(ParseError):
    pass


class UsageError(WdError):
    pass


class IncompatibleMappings(WdError):
    pass


class UnboundVariable(WdError):
    pass


class NotWellDesigned(WdError):
    pass


class MismatchedDistinguishedSets(WdError):
    pass


class DomainMismatch(WdError):
    pass


class GraphTooLarge(WdError):
    pass


class InvalidK(WdError):
    pass


class NotNRNormalForm(WdError):
    pass


class InstanceTooLarge(WdError):
    pass


class SearchTooLarge(WdError):
    pass


class InvalidMinorMap(WdError):
    pass


class ComponentMismatch(WdError):
    pass


class ReservedPrefixCollision(WdError):
    pass


class NoHardWitness(WdError):
    pass


class NoGridMinorFound(WdError):
    pass
