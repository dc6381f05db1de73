"""Exception types shared across the package."""


class InvalidArgument(ValueError):
    """An argument violates a precondition (unknown label, bad permutation, ...)."""


class IllegalMove(InvalidArgument):
    """A swap move that is not applicable to the given elimination tree."""


class ParseError(ValueError):
    """A text input (graph, tree, weights, bundle) could not be parsed."""


class ResourceLimit(RuntimeError):
    """An explicit node/size budget was exceeded."""
