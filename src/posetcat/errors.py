"""Exception types shared across the package."""


class PosetCatError(Exception):
    """Base class for all errors raised by posetcat."""


class CycleError(PosetCatError):
    """Reflexive-transitive closure of the input relation violates antisymmetry."""


class DomainMismatch(PosetCatError):
    """Composition or comparison of maps with incompatible endpoints."""


class SchemaError(PosetCatError):
    """JSON input does not have the documented shape or types."""


class BoundExceeded(PosetCatError):
    """Requested size or dimension is beyond the configured enumeration bound."""


class NotIdempotent(PosetCatError):
    """Endomorphism does not satisfy f(f(x)) = f(x)."""


class NotComplete(PosetCatError):
    """Poset lacks binary meets or joins (or is empty)."""


class InvariantViolation(PosetCatError):
    """A verified postcondition failed; signals invalid input data."""


class SiteMismatch(PosetCatError):
    """Presheaf operation applied across incompatible sites."""


class BadIndexSet(PosetCatError):
    """Horn face-index set must be a nonempty proper subset of the vertex set."""
