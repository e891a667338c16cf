"""Frozen value records: one decorator and one shared set of methods.

``record`` makes a class an immutable value type from its own annotations,
in declaration order.  ``_fields`` names them and ``_defaults`` holds the
class-level default of each field that has one.  An instance is built
positionally or by keyword, then runs the class's ``__post_init__``, which
may normalise a field through ``object.__setattr__``.  Instances are equal
by value, and only to an instance of the same class; they hash by value and
repr as ``Name(field=value, ...)``.  Assigning or deleting an attribute
raises AttributeError.  Fields named in ``hidden`` are kept but left out of
``==``, the hash and the repr.

Every class gets the same plain functions: no method is generated, so
decorating a class costs a few attribute writes.
"""


def record(cls=None, /, *, hidden=()):
    """Decorate ``cls`` as a frozen record; ``@record(hidden=(...))`` hides fields."""
    if cls is None:
        return lambda cls: record(cls, hidden=hidden)
    cls._fields = tuple(cls.__annotations__)
    cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}
    cls._shown = tuple(name for name in cls._fields if name not in hidden)
    for name, method in _METHODS.items():
        setattr(cls, name, method)
    return cls


def _init(self, *args, **kwargs):
    cls = type(self)
    fields = cls._fields
    if len(args) > len(fields):
        raise _bad_call(cls, f"takes {len(fields)} arguments but {len(args)} were given")
    given = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name not in fields:
            raise _bad_call(cls, f"got an unexpected keyword argument {name!r}")
        if name in given:
            raise _bad_call(cls, f"got multiple values for argument {name!r}")
        given[name] = value
    state = self.__dict__
    for name in fields:  # in declaration order, as the dataclass sets them
        if name in given:
            state[name] = given[name]
        elif name in cls._defaults:
            state[name] = cls._defaults[name]
        else:
            raise _bad_call(cls, f"missing required argument {name!r}")
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _bad_call(cls, text: str) -> TypeError:
    return TypeError(f"{cls.__qualname__}.__init__() {text}")


def _key(self) -> tuple:
    return tuple([getattr(self, name) for name in self._shown])


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
    return f"{type(self).__qualname__}({shown})"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _key(self) == _key(other)


def _hash(self) -> int:
    return hash(_key(self))


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_METHODS = {
    "__init__": _init,
    "__repr__": _repr,
    "__eq__": _eq,
    "__hash__": _hash,
    "__setattr__": _setattr,
    "__delattr__": _delattr,
}
