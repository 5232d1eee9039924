"""Immutable value records: one base class for every value type of the package.

A subclass of :class:`Record` lists its fields as annotated class-body
names, in order; a class attribute of the same name is that field's
default, and fields with a default come after those without one.  Records
are built by position or by keyword, run ``__post_init__`` once their
fields are set, compare and hash by their field values within one class,
print as ``Name(field=value, ...)`` and refuse assignment and deletion,
as ``@dataclass(frozen=True)`` classes do.  That decorator loads
``inspect`` and ``ast`` and compiles six methods of each class from source
text; a record class imports nothing and compiles only its ``__init__``.

A class that defines its own ``__init__`` keeps it, and sets its fields
there with ``object.__setattr__``; its fields still come from its
annotations.  ``algebra.QPoly`` is such a record: its ``__init__`` strips
trailing zeros, and setting or deleting its ``coeffs`` raises
``AttributeError`` as for every field.  Records keep their fields in the
instance ``__dict__``, not in slots: ``copy.copy``, ``copy.deepcopy`` and
``pickle`` restore a ``__dict__`` without assignment, but would set slots
through the ``__setattr__`` that refuses it.
"""


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        # One plain __init__ per class that defines none, built from source
        # as the dataclass decorator and namedtuple build theirs: Python then
        # checks and reports the arguments as for any function, and each
        # field is set in field order by attribute assignment, so instances
        # keep CPython's compact shared-key layout, whose attribute reads
        # are about twice as fast as those of a filled-in __dict__.
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if "__init__" in cls.__dict__:
            return
        params = "".join(f", {f}=_cls.{f}" if f in cls.__dict__ else f", {f}" for f in fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "    self.__post_init__()\n"
        namespace = {"_cls": cls, "_set": object.__setattr__}
        exec(f"def __init__(self{params}):\n{body or '    pass'}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def replace(obj: Record, **changes) -> Record:
    """A copy of ``obj`` with ``changes`` applied, rebuilt through ``__init__``."""
    return obj.__class__(**dict(zip(obj._fields, obj._values()), **changes))
