"""Immutable records that behave as the standard library's frozen data classes do.

Its data-class module imports ``inspect`` (and with it ``ast``, ``dis`` and
``tokenize``) and builds each class from generated source, which made it over
half of the package's import time.  A record here is a plain class whose
``__init__`` stores its arguments with ``_set`` and then validates them; its
fields are the parameters of that ``__init__``, in order.
"""


class Record:
    """Equality, hashing and repr on the fields; assignment and deletion raise."""

    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _set(self, **fields):
        self.__dict__.update(fields)

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._fields)
        return f"{type(self).__qualname__}({args})"
