"""Readers of every value written outside the program: config keys, rule
parameters and ``key.json`` entries. Each takes a JSON value and its dotted
path, and returns the typed value or raises ``ValueError`` naming the path.
This module imports nothing else from the package, so every module may use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import make_dataclass
from typing import Callable, NamedTuple


class Bound(NamedTuple):
    """A range a number must lie in: the test, and the words that name it."""

    holds: Callable[[float], bool]
    text: str

    def check(self, value, where: str):
        if not self.holds(value):
            raise ValueError(f"{where} must {self.text}, got {value}")
        return value


def read_as(kind: type, value):
    """``kind(value)``, but an int too large for a float reads as a float +-inf."""
    try:
        return kind(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def at_least(low: int) -> Bound:
    """The numbers that are ``low`` or more."""
    return Bound(lambda v: v >= low, f"be >= {low}")


POSITIVE = Bound(lambda v: v > 0, "be positive")
NONNEGATIVE = Bound(lambda v: v >= 0, "be nonnegative")
FRACTION = Bound(lambda v: 0 < v <= 1, "lie in (0, 1]")
UNIT_INTERVAL = Bound(lambda v: 0 <= v <= 1, "lie in [0, 1]")

_NOUNS = {int: "an integer", float: "a number", bool: "a boolean", str: "a non-empty string", dict: "an object"}


class Param(NamedTuple):
    """Reader of a value from outside the program, a config key or a rule
    parameter: its kind and, where restricted, the ``Bound`` it must lie in.
    A number is any real but a bool, a float is finite, an int may be written
    as an integral float (3.0 reads as 3), and a string is not empty."""

    kind: type
    bound: Bound | None = None

    def __call__(self, value, where: str):
        kind, bound = self
        if (not isinstance(value, numbers.Real if kind in (int, float) else kind)
                or isinstance(value, bool) != (kind is bool) or value == ""
                or kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer()):
            raise ValueError(f"{where} must be {_NOUNS[kind]}, got {value!r}")
        typed = read_as(kind, value) if bound is None else bound.check(read_as(kind, value), where)
        if kind is float and not math.isfinite(typed):
            raise ValueError(f"{where} must be finite, got {value!r}")
        return typed


REQUIRED = object()


class Key(NamedTuple):
    """One key of a JSON object: its reader and its default, a JSON value read
    like a written one, or ``REQUIRED``."""

    read: Callable
    default: object = REQUIRED

    def value(self, raw: dict, key: str, where: str):
        path = f"{where}.{key}" if where else key
        if key in raw:
            return self.read(raw[key], path)
        if self.default is REQUIRED:
            raise ValueError(f"missing {path}")
        return self.read(self.default, path)


def one_of(names) -> Callable:
    """Reader for one of the strings ``names``."""
    *head, last = map(repr, names)
    alternatives = f"{', '.join(head)} or {last}" if head else last

    def read(value, where):
        if not isinstance(value, str) or value not in names:
            raise ValueError(f"{where} must be {alternatives}, got {value!r}")
        return value

    return read


class ListOf(NamedTuple):
    """Reader for a JSON list of ``item``s; a lone object stands for a list
    of one."""

    item: Callable
    empty_ok: bool = False

    def __call__(self, value, where):
        value = [value] if isinstance(value, dict) else value
        if not isinstance(value, list) or not (value or self.empty_ok):
            raise ValueError(f"{where} must be a {'' if self.empty_ok else 'non-empty '}list, got {value!r}")
        return [self.item(v, f"{where}[{i}]") for i, v in enumerate(value)]


class Obj(NamedTuple):
    """Reader for a JSON object, named ``document`` at the root: unknown keys
    are errors, and ``build`` gets every key's value (or default) by name. With
    ``variants`` = (tag, table), the tag key must name a table entry, whose keys join ``keys``."""

    build: Callable
    keys: dict[str, Key]
    variants: tuple[str, dict[str, dict[str, Key]]] | None = None
    document: str = "config"

    @classmethod
    def record(cls, name: str, module: str, keys: dict[str, Key], variants=None) -> Obj:
        """Reader that builds a frozen dataclass ``name`` with a field per key,
        the tag and the variants' keys (the same in every variant). It pickles
        once ``module`` binds it to ``name``."""
        tag, table = variants or (None, {None: {}})
        shapes = {tuple(extra) for extra in table.values()}
        if len(shapes) != 1:
            raise ValueError(f"{name}: every variant must have the same keys")
        record = make_dataclass(name, ([tag] if variants else []) + [*keys, *shapes.pop()], frozen=True)
        record.__module__ = module
        return cls(record, keys, variants)

    def __call__(self, raw, where):
        raw = Param(dict)(raw, where or self.document)
        keys = self.keys
        if self.variants:
            tag, table = self.variants
            tag_key = Key(one_of(table))
            keys = {tag: tag_key, **keys, **table[tag_key.value(raw, tag, where)]}
        unknown = sorted(set(raw) - set(keys))
        if unknown:
            name = unknown[0]
            raise ValueError(f"unknown key '{where}.{name}'" if where else f"unknown top-level key: {name!r}")
        values = {key: spec.value(raw, key, where) for key, spec in keys.items()}
        try:
            return self.build(**values)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}" if where else str(exc)) from None
