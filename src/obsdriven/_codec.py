"""The model format: every spec class written and read from its dataclass fields.

A spec class names itself by a class attribute ``tag = (key, value)``, such as
("kind", "iid").  Every other key is an init field, under its name or ``metadata["key"]``,
read by the field's annotation: a union of tagged classes (chosen by the tag), a class,
``tuple[X, ...]``, float (NaN and integers past the float range refused; an integer is kept
as written), int, bool, or ``X | None``.  A key may be left out where the constructor has a
default; an unknown key is refused.  Each refusal is one ``InvalidSpec`` naming the path to
the value, such as ``model.link.kappa.value``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import types
import typing

from .errors import InvalidSpec


class Spec:
    """Mixin of the spec classes: ``to_dict`` writes the class's fields."""

    def to_dict(self) -> dict:
        return to_dict(self)


@functools.cache
def _fields(cls) -> tuple[tuple[str, str, bool], ...]:
    """(JSON key, field name, required) of each init field of a spec class."""
    missing = dataclasses.MISSING
    return tuple((f.metadata.get("key", f.name), f.name, f.default is missing and f.default_factory is missing)
                 for f in dataclasses.fields(cls) if f.init)


def _plain(v):
    if isinstance(v, tuple):
        return [_plain(x) for x in v]
    return v.to_dict() if hasattr(v, "to_dict") else v


def to_dict(obj) -> dict:
    out = dict([obj.tag]) if hasattr(obj, "tag") else {}
    for key, name, _ in _fields(type(obj)):
        out[key] = _plain(getattr(obj, name))
    return out


def from_dict(hint, value, path: str):
    """``value`` read as ``hint``, a spec class or a field annotation."""
    return _reader(hint)(value, path)


def _refuse(path, what, value):
    raise InvalidSpec(f"{path}: expected {what}, got {value!r}")


def _read_number(v, path, kinds=(int, float)):
    if isinstance(v, bool) or not isinstance(v, kinds):
        _refuse(path, "an integer" if kinds is int else "a number", v)
    try:
        nan = math.isnan(v)
    except OverflowError:
        _refuse(path, "a number in the float range", v)
    if nan:
        _refuse(path, "a number, not NaN", v)
    return v


def _read_bool(v, path):
    if not isinstance(v, bool):
        _refuse(path, "true or false", v)
    return v


_SCALARS = {float: _read_number, int: functools.partial(_read_number, kinds=int), bool: _read_bool}


@functools.cache
def _reader(hint):
    """The function (value, path) -> value read as ``hint``; one per hint, built on first use."""
    if dataclasses.is_dataclass(hint):
        return _class_reader(hint)
    if hint in _SCALARS:
        return _SCALARS[hint]
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        item = _reader(args[0])

        def read_tuple(v, path):
            if not isinstance(v, (list, tuple)):
                _refuse(path, "an array", v)
            return tuple(item(x, f"{path}[{i}]") for i, x in enumerate(v))
        return read_tuple
    if origin not in (types.UnionType, typing.Union):
        raise TypeError(f"no reader for {hint!r}")
    members = [m for m in args if m is not type(None)]
    inner = _reader(members[0]) if len(members) == 1 else _tagged_reader(members)
    return inner if len(members) == len(args) else lambda v, path: None if v is None else inner(v, path)


def _tagged_reader(members):
    """The reader of a union of spec classes, by the class whose tag value the object holds;
    members without a tag (output-only classes) are never read."""
    tagged = [m for m in members if hasattr(m, "tag")]
    key = tagged[0].tag[0]
    by_value = {m.tag[1]: _reader(m) for m in tagged}

    def read_union(v, path):
        if not isinstance(v, dict):
            _refuse(path, "an object", v)
        tag = v.get(key)
        read = by_value.get(tag) if isinstance(tag, str) else None
        if read is None:
            _refuse(f"{path}.{key}", f"one of {sorted(by_value)}", tag)
        return read(v, path)
    return read_union


def _class_reader(cls):
    hints = typing.get_type_hints(cls)
    fields = [(key, name, _reader(hints[name]), required) for key, name, required in _fields(cls)]
    tag = getattr(cls, "tag", None)
    known = {key for key, *_ in fields} | ({tag[0]} if tag else set())

    def read_class(v, path):
        if not isinstance(v, dict):
            _refuse(path, "an object", v)
        if tag and v.get(tag[0]) != tag[1]:
            _refuse(f"{path}.{tag[0]}", repr(tag[1]), v.get(tag[0]))
        unknown = v.keys() - known
        if unknown:
            raise InvalidSpec(f"{path}: unknown {path.rsplit('.', 1)[-1]} keys: {sorted(unknown)}")
        kwargs = {}
        for key, name, read, required in fields:
            if key in v:
                kwargs[name] = read(v[key], f"{path}.{key}")
            elif required:
                raise InvalidSpec(f"{path}.{key}: missing")
        try:
            return cls(**kwargs)
        except InvalidSpec as e:  # the constructor's own checks
            raise InvalidSpec(f"{path}: {e}") from None
    return read_class
