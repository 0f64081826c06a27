"""The one reader of declarative configs.

Scenario pipelines, ``operators.make_*``, both ``from_spec`` methods,
``SpaceDescriptor.from_json`` and ``fejerflow certify --param`` read every
config value through a :class:`Config` node, whose typed reads return their
type or raise ``ConfigError`` naming the key path (``operators.T.c``,
``oracle.terms[0]``).  An absent key reads its default, converted like a
written value; a read without a default requires the key.  A null is refused,
except where the default is None: there it reads as absent.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import numpy as np

__all__ = ["Config", "ConfigError"]

_REQUIRED = object()


class ConfigError(ValueError):
    pass


def _finite(value) -> float:
    if isinstance(value, bool) or not math.isfinite(number := float(value)):
        raise ValueError
    return number


def _positive(value) -> float:
    if not (number := _finite(value)) > 0:
        raise ValueError
    return number


def _nonnegative(value) -> float:
    if not (number := _finite(value)) >= 0:
        raise ValueError
    return number


# a decimal exponent is refused past the digits int() reads from a string by
# default: Fraction would build a power of ten of that many digits
_EXPONENT_DIGITS = 4300


def _rational(value) -> Fraction:
    """An int as it is, a float by its decimal ``str``, a string as written
    (``"0.5"``, ``"1/1000"``, ``"1e-400"``)."""
    if isinstance(value, bool):
        raise TypeError
    text = str(value) if isinstance(value, float) else value
    if isinstance(text, str) and (exp := re.search(r"e([-+]?[\d_]+)\s*$", text, re.I)) \
            and abs(int(exp[1])) > _EXPONENT_DIGITS:
        raise ValueError
    return Fraction(text)


def _integer(value) -> int:
    if (q := _rational(value)).denominator != 1:
        raise ValueError
    return int(q)


def _natural(value) -> int:
    if (n := _integer(value)) < 0:
        raise ValueError
    return n


def _positive_integer(value) -> int:
    if (n := _integer(value)) < 1:
        raise ValueError
    return n


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


class Config(dict):
    """A config mapping at its key path (``""`` at the root; a list node is
    keyed by index).  ``node[key]`` is the raw value."""

    # the scalar shorthands a spec may take: (conversion, what it must be)
    NUMBER = (_finite, "a finite number")
    INTEGER = (_integer, "an integer")
    NATURAL = (_natural, "an integer >= 0")

    def __init__(self, data, path: str = ""):
        super().__init__(data)
        self._path = path

    @classmethod
    def of(cls, spec) -> "Config":
        """``spec`` as a node: a node as it is, a plain mapping as the root."""
        if isinstance(spec, Config):
            return spec
        if not isinstance(spec, dict):
            raise ConfigError(f"config spec must be a mapping, got {spec!r}")
        return cls(spec)

    def _key(self, key) -> str:
        if isinstance(key, int):
            return f"{self._path}[{key}]"
        return f"{self._path}.{key}" if self._path else key

    def refuse(self, key, value, want: str):
        """Raise the ConfigError naming ``key``'s path: ``value`` is not ``want``."""
        if isinstance(value, float) and not math.isfinite(value):
            want = f"finite ({value!r} is not finite)"
        raise ConfigError(f"config key '{self._key(key)}' must be {want}, got {value!r}")

    def _read(self, key, default, convert, want: str):
        """``convert`` of the value at ``key``, or of ``default`` when absent;
        None where the default is None and the value absent or null."""
        value = dict.get(self, key, default)
        if value is _REQUIRED:
            raise ConfigError(f"config missing required key '{self._key(key)}'")
        if value is None:
            if default is not None:
                self.refuse(key, value, "a value, not null")
            return None
        try:
            return convert(value)
        except ConfigError:
            raise
        except (TypeError, ValueError, ArithmeticError):
            self.refuse(key, value, want)

    def __getitem__(self, key):
        return self._read(key, _REQUIRED, lambda value: value, "")

    def number(self, key, default=_REQUIRED) -> float:
        return self._read(key, default, *self.NUMBER)

    def positive(self, key, default=_REQUIRED) -> float:
        return self._read(key, default, _positive, "a positive finite number")

    def nonnegative(self, key, default=_REQUIRED) -> float:
        return self._read(key, default, _nonnegative, "a nonnegative finite number")

    def rational(self, key, default=_REQUIRED) -> Fraction:
        return self._read(key, default, _rational,
                          f"an integer, a decimal (exponent up to {_EXPONENT_DIGITS}) or 'p/q'")

    def real(self, key, default=_REQUIRED) -> Fraction:
        """A rational that is also evaluated in floats, so refused past their range."""
        value = self.rational(key, default)
        if value is not None and abs(value) > sys.float_info.max:
            self.refuse(key, self[key], "within the float range")
        return value

    def integer(self, key, default=_REQUIRED) -> int:
        return self._read(key, default, *self.INTEGER)

    def natural(self, key, default=_REQUIRED) -> int:
        return self._read(key, default, *self.NATURAL)

    def positive_integer(self, key, default=_REQUIRED) -> int:
        return self._read(key, default, _positive_integer, "an integer >= 1")

    def text(self, key, default=_REQUIRED) -> str:
        return self._read(key, default, _text, "a string")

    def choice(self, key, table: dict):
        """``table[name]`` for the string ``name`` at ``key``."""
        if (name := self.text(key)) not in table:
            self.refuse(key, name, f"one of {', '.join(table)}")
        return table[name]

    def build(self, key: str, table: dict, *args):
        """``constructor(*read(self, *args))`` for the entry (constructor,
        read) of ``table`` named at ``key``: ``read`` takes the typed
        parameters of the constructor from this node."""
        constructor, read = self.choice(key, table)
        return constructor(*read(self, *args))

    def vector(self, key, d: int, default=_REQUIRED) -> np.ndarray:
        """A point of R^d: a list of d finite numbers (in R^1 also a number)."""
        if d == 1 and isinstance(dict.get(self, key, default), (int, float, str)):
            return np.array([self.number(key, default)])
        coords = self.entries(key, default, length=d)
        return None if coords is None else np.array([coords.number(i) for i in coords])

    def matrix(self, key, d: int) -> np.ndarray:
        rows = self.entries(key, length=d)
        return np.array([rows.vector(i, d) for i in rows])

    def entries(self, key, default=_REQUIRED, length=None) -> "Config":
        """The list at ``key`` (of ``length`` items when given) as a node
        keyed by index."""

        def convert(value):
            if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
                raise TypeError
            return Config(enumerate(value), self._key(key))

        return self._read(key, default, convert,
                          f"a list of {length} items" if length else "a list")

    def _nonempty(self, key, default) -> "Config":
        if not (items := self.entries(key, default)):
            self.refuse(key, [], "a non-empty list")
        return items

    def numbers(self, key, default=_REQUIRED, read=number) -> list[float]:
        items = self.entries(key, default)
        return [read(items, i) for i in items]

    def pairs(self, key, default=_REQUIRED) -> list["Config"]:
        """A non-empty list of two-item lists, each a node."""
        items = self._nonempty(key, default)
        return [items.entries(i, length=2) for i in items]

    def spec(self, key, default=_REQUIRED, scalar=None):
        """The mapping at ``key`` as a node, or the scalar shorthand
        ``scalar`` (``Config.NUMBER``, ``Config.INTEGER`` or ``Config.NATURAL``)
        allows there."""
        convert, want = scalar or (None, "")

        def node(value):
            if isinstance(value, dict):
                return Config(value, self._key(key))
            if convert is None:
                raise TypeError
            return convert(value)

        return self._read(key, default, node, "a mapping" + (want and f" or {want}"))

    def specs(self, key, default=_REQUIRED, scalar=None) -> list:
        """A non-empty list of specs."""
        items = self._nonempty(key, default)
        return [items.spec(i, scalar=scalar) for i in items]

    def section(self, *keys) -> "Config":
        """The mapping at the required key path ``keys``."""
        node = self
        for key in keys:
            node = node.spec(key)
        return node
