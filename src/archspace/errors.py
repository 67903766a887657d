"""Exception types shared across the package, and its one lower-bound check."""


class ArchSpaceError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(ArchSpaceError):
    """Structural problem in a block graph (bad ports, missing nodes, ...)."""


class ShapeMismatch(GraphError):
    def __init__(self, node, expected, found):
        super().__init__(f"node {node}: expected shape {expected}, found {found}")


class DivisibilityViolation(GraphError):
    def __init__(self, node, rule):
        super().__init__(f"node {node}: {rule}")


class NonSquareSpatial(GraphError):
    """Spatial dims violate a squareness requirement (RelPosBias, Mask)."""

    def __init__(self, node, detail):
        super().__init__(f"node {node}: {detail}")


class CycleDetected(GraphError):
    pass


class InfeasibleShape(ArchSpaceError):
    """An operation or builder cannot be realized at the given shape."""


class InfeasibleEdit(ArchSpaceError):
    """A proposed graph edit cannot be resolved or applied."""


class StaleEdit(ArchSpaceError):
    """Edit was produced against a different version of the network."""


class AssemblyError(ArchSpaceError):
    """Network assembly failed; the message names each offending block."""


class BudgetError(ArchSpaceError, ValueError):
    """The seed network of a search lies outside its budget."""


class FormatError(ArchSpaceError):
    """Malformed serialized document, log or command-line input."""


def check_at_least(name: str, value, low) -> None:
    """ValueError unless value >= low, naming the field, the bound and the value."""
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
