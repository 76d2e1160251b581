"""One wire schema: each JSON boundary type declares its fields once.

Every dict that crosses a process or HTTP boundary — a campaign spec, a
trial, execution options and their sampling plan, a fault site, a
service job, a progress event, a tenant — comes from a dataclass that
subclasses :class:`Wire` and gives each field one *kind*::

    @dataclass
    class TenantConfig(Wire):
        name: str = wire(text(empty=False))
        weight: float = wire(number(0, above=True), 1.0)
        max_queued: Optional[int] = wire(optional(integer(1)), None,
                                         omit=True)

:meth:`Wire.check`, :meth:`Wire.to_dict` and :meth:`Wire.from_dict` all
read those declarations, so a key cannot be emitted without also being
parsed, and every value a kind refuses raises a
:class:`~repro.errors.ConfigError` that names its field.  A type keeps
only its cross-field rules in ``__post_init__`` (after
:meth:`~Wire.check`), and overrides ``to_dict``/``from_dict`` only for a
wire form that the uniform rule cannot express.

``json.loads`` accepts the ``NaN`` and ``Infinity`` tokens;
:class:`number` and :class:`scalar` refuse them, so no wire value is
ever non-finite.
"""

from __future__ import annotations

import dataclasses
import math
from contextlib import contextmanager

from .errors import ConfigError

MISSING = dataclasses.MISSING


@contextmanager
def naming(path):
    """Prefix ``path`` to any ConfigError raised inside the block."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError("%s: %s" % (path, exc)) from None


def _finite(value):
    try:
        return math.isfinite(value)
    except OverflowError:           # an int beyond the float range
        return False


def _span(lo, hi, above=False):
    if hi is not None:
        return " in %s%r, %r]" % ("(" if above else "[", lo, hi)
    if lo is not None:
        return " %s %r" % (">" if above else ">=", lo)
    return ""


# -- kinds ------------------------------------------------------------------

class Kind:
    """How one field's value is checked, normalised and dumped.  Each
    kind's ``load(value, path)`` returns the checked, normalised value
    or raises a ConfigError naming ``path``."""

    #: What a valid value is, for the error text ("an integer >= 1").
    what = "a value"

    def dump(self, value):
        """The JSON form of a loaded value."""
        return value

    def fail(self, path, value):
        raise ConfigError("%s must be %s, got %r" % (path, self.what, value))


class integer(Kind):
    """An int, never a bool, in ``[lo, hi]`` (a None bound is open)."""

    def __init__(self, lo=None, hi=None):
        self.lo, self.hi = lo, hi
        self.what = "an integer" + _span(lo, hi)

    def holds(self, value):
        return (self.lo is None or value >= self.lo) \
            and (self.hi is None or value <= self.hi)

    def load(self, value, path):
        if isinstance(value, bool) or not isinstance(value, int) \
                or not self.holds(value):
            self.fail(path, value)
        return value


class number(integer):
    """A finite int or float, never a bool, in ``[lo, hi]`` — or in
    ``(lo, hi]`` when ``above``."""

    def __init__(self, lo=None, hi=None, above=False):
        super().__init__(lo, hi)
        self.above = above
        self.what = "a finite number" + _span(lo, hi, above)

    def load(self, value, path):
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not _finite(value) or not self.holds(value) \
                or self.above and value == self.lo:
            self.fail(path, value)
        return value


class text(Kind):
    """A string: one of ``choices`` when given, non-empty unless
    ``empty``."""

    def __init__(self, choices=None, empty=True):
        self.choices, self.empty = choices, empty
        self.what = ("one of %s" % ", ".join(choices) if choices
                     else "a string" if empty else "a non-empty string")

    def load(self, value, path):
        if not isinstance(value, str) or not (value or self.empty) \
                or self.choices is not None and value not in self.choices:
            self.fail(path, value)
        return value


class registered(text):
    """A name that ``lookup`` resolves; its KeyError (which lists the
    valid names) becomes the ConfigError."""

    def __init__(self, lookup):
        super().__init__()
        self.lookup = lookup
        self.what = "a name"

    def load(self, value, path):
        super().load(value, path)
        try:
            self.lookup(value)
        except KeyError as exc:
            raise ConfigError("%s: %s" % (path, exc.args[0])) from None
        return value


class scalar(Kind):
    """A JSON scalar: null, a bool, a string or a finite number."""

    what = "a JSON scalar"

    def load(self, value, path):
        if value is not None and not isinstance(value, (bool, str)) \
                and not (isinstance(value, (int, float))
                         and _finite(value)):
            self.fail(path, value)
        return value


class optional(Kind):
    """``kind`` or None."""

    def __init__(self, kind):
        self.kind = kind

    def load(self, value, path):
        return None if value is None else self.kind.load(value, path)

    def dump(self, value):
        return None if value is None else self.kind.dump(value)


class items(Kind):
    """A list of ``kind`` values, held as a tuple."""

    def __init__(self, kind, unique=False, nonempty=False):
        self.kind, self.unique, self.nonempty = kind, unique, nonempty
        self.what = "a non-empty list" if nonempty else "a list"

    def load(self, value, path):
        if not isinstance(value, (list, tuple)) \
                or self.nonempty and not value:
            self.fail(path, value)
        loaded = tuple(self.kind.load(item, "%s[%d]" % (path, index))
                       for index, item in enumerate(value))
        # Duplicate axis values would expand to identical trial keys,
        # double-count results and fake a tighter confidence interval.
        if self.unique and len(set(loaded)) != len(loaded):
            raise ConfigError("%s has duplicate values: %r"
                              % (path, value))
        return loaded

    def dump(self, value):
        return [self.kind.dump(item) for item in value]


class pair(Kind):
    """A two-item list, held as a tuple."""

    what = "a two-item list"

    def __init__(self, first, second):
        self.first, self.second = first, second

    def load(self, value, path):
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            self.fail(path, value)
        return (self.first.load(value[0], path + "[0]"),
                self.second.load(value[1], path + "[1]"))

    def dump(self, value):
        return [self.first.dump(value[0]), self.second.dump(value[1])]


class mapping(Kind):
    """A JSON object with non-empty string keys, held as a fresh dict;
    ``kind`` checks each value (any JSON passes when it is None)."""

    def __init__(self, kind=None, nonempty=False):
        self.kind, self.nonempty = kind, nonempty
        self.what = "a non-empty JSON object" if nonempty \
            else "a JSON object"

    def load(self, value, path):
        if not isinstance(value, dict) or self.nonempty and not value:
            self.fail(path, value)
        for key in value:
            if not isinstance(key, str) or not key:
                raise ConfigError("%s keys must be non-empty strings, "
                                  "got %r" % (path, key))
        if self.kind is None:
            return dict(value)
        return {key: self.kind.load(item, "%s[%r]" % (path, key))
                for key, item in value.items()}

    def dump(self, value):
        if self.kind is None:
            return dict(value)
        return {key: self.kind.dump(item) for key, item in value.items()}


class nested(Kind):
    """A :class:`Wire` object, loaded from its dict through the type's
    own ``from_dict`` (which may normalise first)."""

    def __init__(self, cls):
        self.cls = cls
        self.what = "a JSON object (%s)" % cls.__name__

    def load(self, value, path):
        if isinstance(value, self.cls):
            return value
        if not isinstance(value, dict):
            self.fail(path, value)
        with naming(path):
            return self.cls.from_dict(value)

    def dump(self, value):
        return value.to_dict()


# -- declarations -----------------------------------------------------------

def wire(kind, default=MISSING, default_factory=MISSING, omit=False):
    """A dataclass field of ``kind``; ``omit`` leaves its key out of
    ``to_dict`` while the value equals the default."""
    return dataclasses.field(default=default,
                             default_factory=default_factory,
                             metadata={"wire": (kind, omit)})


class Wire:
    """Base of a wire dataclass: :meth:`check`, :meth:`to_dict` and
    :meth:`from_dict` derived from the kinds its fields declare."""

    __slots__ = ()

    @classmethod
    def _plan(cls):
        """Field name -> (kind, default, omit), built once per class."""
        plan = cls.__dict__.get("_wire_plan")
        if plan is None:
            plan = {}
            for spec in dataclasses.fields(cls):
                kind, omit = spec.metadata["wire"]
                default = spec.default
                if spec.default_factory is not MISSING:
                    default = spec.default_factory()
                plan[spec.name] = (kind, default, omit)
            cls._wire_plan = plan
        return plan

    def check(self):
        """Check and normalise every field in place."""
        for name, (kind, _, _) in self._plan().items():
            object.__setattr__(self, name,
                               kind.load(getattr(self, name), name))

    def to_dict(self) -> dict:
        data = {}
        for name, (kind, default, omit) in self._plan().items():
            value = getattr(self, name)
            if not omit or value != default:
                data[name] = kind.dump(value)
        return data

    @classmethod
    def from_dict(cls, data):
        """Build from a plain dict (e.g. parsed JSON); malformed input
        raises a ConfigError naming the field."""
        if not isinstance(data, dict):
            raise ConfigError("%s must be a JSON object, got %r"
                              % (cls.__name__, data))
        plan = cls._plan()
        unknown = data.keys() - plan.keys()
        if unknown:
            raise ConfigError("unknown %s fields: %s"
                              % (cls.__name__, sorted(unknown, key=str)))
        values = {}
        for name, (kind, default, _) in plan.items():
            if name in data:
                values[name] = kind.load(data[name], name)
            elif default is MISSING:
                raise ConfigError("%s needs a %r field"
                                  % (cls.__name__, name))
        return cls(**values)
