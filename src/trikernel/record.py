"""`record`: value classes with a generated constructor, equality and hash,
and a repr.  A record's subclasses are records.

One ``exec`` per class, run on the class's first construction, and no
imports: the standard library's class generator does more bookkeeping per
class and imports `inspect`, and every cold ``trikernel check`` would pay
for both, and for the classes it never constructs.
"""

_MISSING = object()


class field:
    """A field's default, whether ``==`` and ``hash`` read it, and whether the
    constructor takes it by keyword only."""

    def __init__(self, default=_MISSING, *, compare=True, kw_only=False):
        self.default, self.compare, self.kw_only = default, compare, kw_only


def fields(cls) -> dict[str, str]:
    """The fields of a record class, in order, with their annotation strings."""
    return {name: ann for name, (ann, _) in cls._record_fields.items()}


def _repr(self) -> str:
    inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_fields)
    return f"{type(self).__name__}({inner})"


def _frozen(self, name, *value):
    raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


def _generate(cls, frozen) -> None:
    """Install the generated ``__init__``, ``__eq__`` and ``__hash__`` of `cls`."""
    table, env = cls._record_fields, {"_MISSING": _MISSING, "_setattr": object.__setattr__}
    params, kw_only, body = ["self"], [], []
    for name, (_, opts) in table.items():
        param, value = name, name
        if isinstance(opts.default, (list, dict)):
            param, value = f"{name}=_MISSING", f"_d_{name}.copy() if {name} is _MISSING else {name}"
        elif opts.default is not _MISSING:
            param = f"{name}=_d_{name}"
        env[f"_d_{name}"] = opts.default
        (kw_only if opts.kw_only else params).append(param)
        # not through self.__dict__: a materialised instance dict slows every later read
        body.append(f"_setattr(self, {name!r}, {value})" if frozen else f"self.{name} = {value}")
    compared = [name for name, (_, opts) in table.items() if opts.compare]
    mine, theirs = ("".join(f"{obj}.{name}, " for name in compared) for obj in ("self", "other"))
    signature = ", ".join(params + (["*"] + kw_only if kw_only else []))
    exec(f"def __init__({signature}):\n"
         + "".join(f"    {line}\n" for line in body or ["pass"])
         + "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({mine}) == ({theirs})\n"
         "    return NotImplemented\n"
         f"def __hash__(self):\n    return hash(({mine}))\n", env)
    cls.__init__, cls.__eq__ = env["__init__"], env["__eq__"]
    cls.__hash__ = env["__hash__"] if frozen else None


def record(cls=None, /, *, frozen=False):
    """Make `cls`, and every class derived from it, a record.

    A record's fields are its annotations, after those of its record base.
    The constructor takes them in order, keyword-only ones by keyword, and
    gives each instance its own copy of a list or dict default.  ``==``
    requires the exact class and compares the fields that set `compare`; a
    frozen record hashes them and refuses assignment, a mutable one is
    unhashable.  The constructor, ``==`` and ``hash`` are generated when the
    class is first constructed.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen)
    table = dict(getattr(cls, "_record_fields", {}))
    for name, ann in cls.__dict__.get("__annotations__", {}).items():
        opts = cls.__dict__.get(name, _MISSING)
        if isinstance(opts, field):
            delattr(cls, name)
        else:
            opts = field(opts)
        table[name] = (ann, opts)

    def __init__(self, *args, **kwargs):
        _generate(cls, frozen)
        cls.__init__(self, *args, **kwargs)

    cls.__init__, cls.__repr__ = __init__, _repr
    if frozen:
        cls.__setattr__ = cls.__delattr__ = _frozen
    cls._record_fields = table
    cls.__match_args__ = tuple(name for name, (_, opts) in table.items() if not opts.kw_only)
    cls.__init_subclass__ = classmethod(lambda sub: record(sub, frozen=frozen))
    return cls
