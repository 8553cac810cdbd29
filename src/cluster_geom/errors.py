from operator import attrgetter


class ClusterGeomError(Exception):
    """Base class for all package errors."""


class ValidationError(ClusterGeomError, ValueError):
    """Input data violates a structural invariant."""


class UnsupportedError(ClusterGeomError, ValueError):
    """The input is valid but outside the supported range of the method."""


class PreconditionError(ClusterGeomError, ValueError):
    """A documented precondition of an operation was violated."""


class LaurentViolation(ClusterGeomError):
    """An expression expected to be a Laurent polynomial is not one.

    This is never expected to fire for correct inputs; it exists as a hard
    check of the Laurent phenomenon.
    """

    def __init__(self, message, path=(), expression=None):
        super().__init__(message)
        self.path = tuple(path)
        self.expression = expression


class ResourceLimitExceeded(ClusterGeomError):
    """A configured size cap (term count, exponent magnitude) was hit."""


def is_int(x):
    """Is x an int and not a bool?"""
    return isinstance(x, int) and not isinstance(x, bool)


def as_tuple(x, message):
    """tuple(x), or ValidationError(message) when x is not iterable."""
    try:
        return tuple(x)
    except TypeError:
        raise ValidationError(message) from None


class Frozen:
    """A value whose attributes can be neither set nor deleted once its
    constructor has written its slots with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Record(Frozen):
    """A Frozen value whose fields are the names in its __slots__, set once
    by the constructor: equal and hashed field by field, copied and pickled
    by passing its fields back to the constructor by position, and shown as
    Name(field=value, ...).  Each subclass gets, when it is defined, its
    slot descriptors, which the constructor writes through, and one getter
    of its fields as a tuple."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        cls._slots = tuple(cls.__dict__[name] for name in names)
        get = attrgetter(*names)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._fields = get if len(names) > 1 else staticmethod(lambda self: (get(self),))

    def __init__(self, *values):
        slots = self._slots
        if len(values) != len(slots):
            raise TypeError(
                f"{type(self).__name__} takes {len(slots)} fields, got {len(values)}"
            )
        for slot, value in zip(slots, values):
            slot.__set__(self, value)

    def __reduce__(self):
        return type(self), self._fields(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        fields = self._fields
        return fields(self) == fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
