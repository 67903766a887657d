"""Exception types shared across the package."""


class ArchSpaceError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(ArchSpaceError):
    """Structural problem in a block graph (bad ports, missing nodes, ...)."""


class ShapeMismatch(GraphError):
    def __init__(self, node, expected, found):
        super().__init__(f"node {node}: expected shape {expected}, found {found}")
        self.node = node
        self.expected = expected
        self.found = found


class DivisibilityViolation(GraphError):
    def __init__(self, node, rule):
        super().__init__(f"node {node}: {rule}")
        self.node = node
        self.rule = rule


class NonSquareSpatial(GraphError):
    """Spatial dims violate a squareness requirement (RelPosBias, Mask)."""

    def __init__(self, node, detail):
        super().__init__(f"node {node}: {detail}")
        self.node = node
        self.detail = detail


class CycleDetected(GraphError):
    pass


class InfeasibleShape(ArchSpaceError):
    """An operation or builder cannot be realized at the given shape."""


class InfeasibleEdit(ArchSpaceError):
    """A proposed graph edit cannot be resolved or applied."""


class StaleEdit(ArchSpaceError):
    """Edit was produced against a different version of the network."""


class TooManyParams(ArchSpaceError):
    """Block exceeds the finite-difference parameter ceiling."""


class AssemblyError(ArchSpaceError):
    """Network assembly failed; carries the offending block index (-1 when
    no block is at fault).  The detail names the block itself."""

    def __init__(self, block_index, detail):
        super().__init__(detail)
        self.block_index = block_index
        self.detail = detail


class FormatError(ArchSpaceError):
    """Malformed serialized document or log."""
