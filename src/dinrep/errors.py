"""Exception types shared across the package."""


class GraphParseError(ValueError):
    """Malformed graph file content; the message carries the line number."""


class SelfLoopError(ValueError):
    """An arc whose tail equals its head."""


class VertexRangeError(ValueError):
    """An arc endpoint outside 1..n."""


class CyclicGraphError(ValueError):
    """Operation requires a DAG but the input contains a directed cycle."""


class BudgetExhaustedError(RuntimeError):
    """Exact search gave up before producing a certified answer."""


class SearchDepthError(ValueError):
    """Input too large for the recursive exact search at the recursion limit."""
