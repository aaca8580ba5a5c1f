"""Exception types shared across the package, the checked JSON reader, and
the frozen base of the value classes.

Class names double as machine-readable error codes: the CLI prints them
verbatim and maps them to exit statuses, so renaming one is a breaking
change for scripts.
"""

from operator import attrgetter

_JSON_TYPES = {bool: "boolean", int: "integer", float: "float", str: "string",
               list: "list", dict: "object", type(None): "null"}


def want(value, kind: type, path: str, *keys):
    """``value`` if its JSON type is ``kind`` (a bool is no integer), else a
    ``TypeError`` naming the JSON path ``path.format(*keys)``."""
    if type(value) is kind:
        return value
    got = _JSON_TYPES.get(type(value), type(value).__name__)
    raise TypeError(f"{path.format(*keys)}: expected {_JSON_TYPES[kind]}, got {got}")


def want_ints(value, path: str, *keys) -> list:
    """``value`` if it is a JSON list of integers, else the ``TypeError`` of
    :func:`want` for it or for its first entry that is no integer."""
    if type(value) is not list or not set(map(type, value)) <= {int}:
        for j, item in enumerate(want(value, list, path, *keys)):
            want(item, int, path + "[{}]", *keys, j)
    return value


#: Field setter for the ``__init__`` of a :class:`Value`, past its frozen ``__setattr__``.
init_field = object.__setattr__


class Value:
    """Frozen record whose fields are its ``__slots__`` (bar ``__dict__``), set
    in its own ``__init__`` by :data:`init_field`.  It equals only same-class
    records with equal fields, hashes and prints by them, pickles and copies
    through the constructor, and refuses assignment and deletion."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class CrossingBudgetExceeded(DomainError):
    """The requested diagram has more crossings than the builder allocates."""


class WorkBudgetExceeded(DomainError):
    """The request needs more output or work than the operation allows."""


class SynthesisInvariantViolation(SfsError):
    """Internal verification of a constructed diagram failed (exit 4).

    This never fires on valid input; it signals a bug in the builder.
    """
