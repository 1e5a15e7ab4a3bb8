"""Exception types shared across the package."""

from __future__ import annotations


class McdmgError(Exception):
    """Base class for all package errors."""


class ParseError(McdmgError):
    """Graph file does not conform to the grammar."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class ValidationError(McdmgError):
    """A graph violates an invariant of its declared class."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class UnknownVertex(McdmgError):
    """A referenced vertex id does not exist in the graph."""


class OverlappingSets(McdmgError):
    """Query vertex sets are required to be pairwise disjoint."""


class UnknownRule(McdmgError, ValueError):
    """A do-calculus certificate names a rule other than R1, R2 or R3."""


class WrongGraphClass(McdmgError):
    """Operation is undefined for the graph's declared class."""


class InvalidSCM(McdmgError):
    """An argument that must be a `DiscreteSCM` is not one."""


class PreconditionError(McdmgError):
    """Query-time side condition violated (R self-loop or R-R edge, an
    effect query with an empty treatment or outcome, a d-separation query
    on the command line with an empty X or Y, a bare string where a
    collection of vertex ids is expected, an ill-typed mutilation,
    derivation, violation or do argument, or a violation not of the graph)."""


class InvalidClustering(McdmgError):
    """Clustering does not partition the graph's variables."""


class BudgetTooSmall(McdmgError):
    """No compatible variable-level graph exists within the given budget."""


class InvalidBudget(McdmgError, ValueError):
    """A budget is not a `Budget`, or one of its bounds is not an integer."""


class EmptyWalk(McdmgError):
    """A walk must contain at least one vertex."""


class MissingIndicatorLiteral(McdmgError):
    """Proxy substitution attempted without the licensing R=0 literal."""


class SymbolAlreadyBound(McdmgError):
    """A sum would capture a symbol already used in the expression."""


class DomainTooLarge(McdmgError):
    """Exact enumeration would exceed the state budget."""


class PartialClusterAssignment(McdmgError):
    """Macro interventions must assign every variable of a treated cluster."""


class EvaluationError(McdmgError):
    """Expression refers to quantities absent from the given table."""


class PositivityError(McdmgError):
    """A conditioning stratum has zero probability."""


class DepthNonPositive(McdmgError):
    """Search depth must be at least 1."""


class InvalidSeed(McdmgError):
    """A seed must be an integer >= 0."""
