"""Exception types shared across the package.

Everything user-facing subclasses ValueError so callers can catch
precondition failures uniformly; the CLI maps them to exit code 2.
InvariantError alone is not a ValueError: it signals a bug, not bad input,
and the CLI maps it to exit code 4.
"""


class ParseError(ValueError):
    """Malformed presentation, matrix, or series file."""


class DisconnectedCoverError(ValueError):
    """Requested cover would be disconnected.

    `certificate` holds a nonzero coefficient vector exhibiting a linear
    dependency among the supplied classes (or a gcd witness for cyclic
    covers).
    """

    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class CocycleConditionError(ValueError):
    """A cochain required to be a cocycle fails on some face boundary."""


class UndefinedVertexValueError(ValueError):
    """Vertex values of a pulled-back cocycle are inconsistent.

    `witness_loop` is a closed edge path of the total complex on which the
    pulled-back class evaluates to a nonzero residue.
    """

    def __init__(self, message, witness_loop=None):
        super().__init__(message)
        self.witness_loop = witness_loop


class UnsupportedCoverError(ValueError):
    """Operation needs an elementary abelian p-cover built by this package."""


class DimensionError(ValueError):
    """Subspace dimension outside the range an operation supports."""


class EnumerationCapError(ValueError):
    """Exact enumeration would exceed the configured cap."""


class TrivialClassError(ValueError):
    """A cocycle required to represent a nontrivial class is a coboundary."""


class NotRapidlyDescendingError(ValueError):
    """Tower prefix has a non-positive descent rate estimate."""


class MalformedTowerError(ValueError):
    """Tower records are empty, unordered, or otherwise inconsistent."""


class QuasiAdditivityError(ValueError):
    """Sampled values violate the claimed quasi-additivity constant.

    `witness` is a pair (i, j) with |f(i+j) - f(i) - f(j)| > k.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvariantError(Exception):
    """A mathematical invariant that the package guarantees has failed.

    Raised by explicit checks (never `assert`, which `python -O` strips),
    so a wrong result cannot pass silently; it always means a bug.
    """
