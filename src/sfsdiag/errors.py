"""Exception types shared across the package, and the checked JSON reader.

Class names double as machine-readable error codes: the CLI prints them
verbatim and maps them to exit statuses, so renaming one is a breaking
change for scripts.
"""

_JSON_TYPES = {bool: "boolean", int: "integer", float: "float", str: "string",
               list: "list", dict: "object", type(None): "null"}


def want(value, kind: type, path: str, *keys):
    """``value`` if its JSON type is ``kind`` (a bool is no integer), else a
    ``TypeError`` naming the JSON path ``path.format(*keys)``."""
    if type(value) is kind:
        return value
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    raise TypeError(f"{path.format(*keys)}: expected {_JSON_TYPES[kind]}, got {got}")


class SfsError(Exception):
    """Base class for every package-specific error."""


class DomainError(SfsError):
    """A precondition or input-domain violation (CLI exit status 3)."""


class InvalidInvariant(DomainError):
    """Fiber data violates a gcd, range, or mode constraint."""


class Incompatible(DomainError):
    """A congruence system has no simultaneous solution."""


class UnsatisfiablePattern(DomainError):
    """No choice of slope representatives meets the requested sign pattern."""


class Disconnected(DomainError):
    """The union of the diagram curves is not connected."""


class IsolatedCurve(DomainError):
    """A diagram curve carries no crossings where one is required."""


class NotPositive(DomainError):
    """The operation needs a diagram whose crossings are all positive."""


class BaseGenusUnsupported(DomainError):
    """The base surface genus is outside the operation's supported range."""


class IncompatibleSpec(DomainError):
    """Covering data does not fit the Seifert filling slopes."""


class ParityError(DomainError):
    """Covering data leaves an odd count where an even one is needed."""


class TooManyFibers(DomainError):
    """The operation is restricted to at most three exceptional fibers."""


class InfeasibleBetaStar(DomainError):
    """No slope adjustment exists (single-fiber corner case)."""


class SynthesisInvariantViolation(SfsError):
    """Internal verification of a constructed diagram failed (exit 4).

    This never fires on valid input; it signals a bug in the builder.
    """
