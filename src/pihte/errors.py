"""Exception hierarchy shared across the package."""


class PihteError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PihteError):
    """Malformed input file (graph, dataset, or decomposition)."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc += f"{path}"
        if line is not None:
            loc += f":{line}"
        super().__init__(f"{loc}: {message}" if loc else message)


class CycleError(PihteError):
    """Directed edges of a causal graph contain a cycle."""


class UnknownVariable(PihteError):
    """A variable name does not resolve against the current model."""


class DomainViolation(PihteError):
    """A dataset cell is outside its variable's domain."""

    def __init__(self, row, column, value, path=None, line=None):
        where = f"{path}:{line}:" if path is not None else f"row {row},"
        super().__init__(f"{where} column {column!r}: value {value} out of domain")
        self.row = row
        self.column = column
        self.value = value


class EmptyDataset(PihteError):
    """An operation that needs data received zero rows."""


class ScopeConflict(PihteError):
    """Two factors disagree on a variable's domain size."""


class IncompleteAssignment(PihteError):
    """An assignment does not cover a factor's scope."""


class EstimandSyntaxError(PihteError):
    """Estimand text does not match the grammar."""

    def __init__(self, message, position):
        super().__init__(f"at position {position}: {message}")


class UnusedBoundVar(EstimandSyntaxError):
    """A sum binds a variable its body never uses."""

    def __init__(self, name, position=0):
        super().__init__(f"sum over {name!r} that its body never uses", position)
        self.name = name


class DuplicateBoundVar(PihteError):
    """The same variable is bound twice in one summation."""


class DenseLimitExceeded(PihteError):
    """A dense enumeration would exceed the configured cell limit."""


class DivisionByZero(PihteError):
    """x / 0 with x != 0 during literal ratio evaluation."""


class DivisionInconsistency(PihteError):
    """A nonzero numerator entry met a zero denominator during recombination."""


class ValidationError(PihteError):
    """A tree decomposition failed one of the four conditions."""

    def __init__(self, violations):
        super().__init__("; ".join(str(v) for v in violations))


class UncoverableCluster(PihteError):
    """A cluster variable appears in no hyperedge, so no cover exists."""


class ResourceLimitExceeded(PihteError):
    """A materialized table exceeded the configured entry cap."""
