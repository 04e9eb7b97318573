"""One JSON dict codec for the spec and record dataclasses.

A :class:`Spec` (atom, ensemble, input vector) has a ``kind``, and
`_kinds` maps each kind to its validating classmethod: the dict is ``kind``
plus that classmethod's parameters in field order, None left out, and
reading one calls the classmethod, so JSON input is validated like code.
A spec holds its kind's fields and nothing else, so its dict shows all it holds.
A :class:`Record` writes every field, under the JSON key `_keys` names.
Nested specs and records become dicts, tuples and arrays lists;
`_decoders` rebuilds a field from its non-null JSON value.  Reading
rejects unknown and missing keys, and values whose JSON type does not fit
the field's resolved annotation (``int``, ``float``, ``str``, ``dict``, a
spec or record, ``tuple[X, ...]`` or ``list[X]`` of those, unions with
None), with a ValueError naming the key.  Unannotated parameters are not
checked; an annotation outside that list is a TypeError.
"""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from inspect import Parameter, formatannotation, signature
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints


_PLAIN = (int, float, str, bool, type(None))


def _encode(value):
    if type(value) in _PLAIN:  # exactly these types: numpy scalars go to tolist below
        return value
    if isinstance(value, (Spec, Record)):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value.tolist() if hasattr(value, "tolist") else value  # numpy arrays and scalars


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _json_test(hint):
    """The test a JSON value must pass for a field annotated `hint`; nested
    specs and records are dicts, checked by their field's decoder.  An
    annotation the codec has no test for raises TypeError."""
    args = get_args(hint)
    if get_origin(hint) in (Union, UnionType):
        tests = [_json_test(arg) for arg in args]
        return lambda x: any(test(x) for test in tests)
    if get_origin(hint) is list or (get_origin(hint) is tuple and args[1:] == (...,)):
        item = _json_test(args[0])
        return lambda x: isinstance(x, list) and all(map(item, x))
    if hint is type(None):
        return lambda x: x is None
    if hint is int:
        return _is_int
    if hint is float:
        return lambda x: _is_int(x) or isinstance(x, float)
    if hint is str:
        return lambda x: isinstance(x, str)
    if hint is dict or (isinstance(hint, type) and issubclass(hint, (Spec, Record))):
        return lambda x: isinstance(x, dict)
    raise TypeError(f"no JSON value test for the annotation {hint!r}")


@cache
def _field_tests(make) -> dict:
    """Field name -> (JSON value test, annotation text, annotation, the spec
    and record classes it names) for every annotated parameter of `make`, a
    record class or a spec classmethod."""
    hints = get_type_hints(make)
    return {name: (_json_test(hints[name]), p.annotation.strip("'") if isinstance(p.annotation, str)
                   else formatannotation(p.annotation), hints[name],
                   tuple(c for c in get_args(hints[name]) or (hints[name],)
                         if isinstance(c, type) and issubclass(c, (Spec, Record))))
            for name, p in signature(make).parameters.items() if name in hints}


def _check(make, name: str, value, where: str):
    """`value` (as a float for a float parameter) if, as JSON would hold it,
    it passes the JSON test of parameter `name` of `make`, and is None or a
    spec or record the parameter names; else a ValueError naming `where`.
    A bool is no number, 1.0 no int and a dict no spec or record; numpy
    scalars pass."""
    test, text, hint, classes = _field_tests(make)[name]
    if not test(_encode(value)) or (classes and not isinstance(value, (*classes, type(None)))):
        raise ValueError(f"{where} must be {text}, got {value!r}")
    return float(value) if hint is float else value


def _build(where: str, make, d, decoders: dict, keys: dict):
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be a JSON object, got {d!r}")
    params = signature(make).parameters
    names = {keys.get(name, name): name for name in params}
    for key in d:
        if key not in names:
            raise ValueError(f"unknown key {key!r} in {where}")
    for key, name in names.items():
        if key not in d and params[name].default is Parameter.empty:
            raise ValueError(f"missing key {key!r} in {where}")
    tests = _field_tests(make)
    args = {}
    for key, value in d.items():
        name = names[key]
        if name in tests and not tests[name][0](value):
            raise ValueError(f"key {key!r} in {where} must be {tests[name][1]}, got {value!r}")
        args[name] = value if value is None or name not in decoders else decoders[name](value)
    return make(**args)


@cache
def _kind_fields(cls, kind: str) -> tuple[str, ...]:
    """The fields of spec class `cls` that its classmethod for `kind` takes, in field order."""
    params = signature(getattr(cls, cls._kinds[kind])).parameters
    return tuple(f.name for f in fields(cls) if f.name in params)


class Spec:
    """Codec mixin for dataclasses with a ``kind`` and one classmethod per kind."""

    _kinds: dict = {}
    _decoders: dict = {}

    def _check_fields(self) -> None:
        """Reject an unknown kind, a field the kind does not take and a value
        a JSON config could not give the field (:func:`_check`, which also
        gives the value to store).  A field left None is the kind's to judge."""
        cls, kind = type(self), self.kind
        if not isinstance(kind, str) or kind not in cls._kinds:
            raise ValueError(f"unknown {cls.__name__.removesuffix('Spec').lower()} kind {kind!r}")
        make, where = getattr(cls, cls._kinds[kind]), f"{cls.__name__} {kind!r}"
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if value is not None and f.name not in _kind_fields(cls, kind):
                raise ValueError(f"{where} takes no field {f.name!r}, got {value!r}")
            if value is not None and f.name in _field_tests(make):
                value = _check(make, f.name, value, f"{where} field {f.name!r}")
                object.__setattr__(self, f.name, value)

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: _encode(value) for name, value in values.items() if value is not None}

    @classmethod
    def from_dict(cls, d):
        kind = d.get("kind") if isinstance(d, dict) else None
        if not isinstance(kind, str) or kind not in cls._kinds:
            raise ValueError(f"{cls.__name__} needs a 'kind' key with a value in "
                             f"{sorted(cls._kinds)}, got {d!r}")
        rest = {k: v for k, v in d.items() if k != "kind"}
        return _build(f"{cls.__name__} {kind!r}", getattr(cls, cls._kinds[kind]), rest,
                      cls._decoders, {})


@cache
def _record_keys(cls) -> tuple[tuple[str, str], ...]:
    """(JSON key, field name) of every field of record class `cls`, in order."""
    return tuple((cls._keys.get(f.name, f.name), f.name) for f in fields(cls))


class Record:
    """Codec mixin for dataclasses written field by field."""

    _keys: dict = {}
    _decoders: dict = {}

    def to_dict(self) -> dict:
        return {key: _encode(getattr(self, name)) for key, name in _record_keys(type(self))}

    @classmethod
    def from_dict(cls, d):
        return _build(cls.__name__, cls, d, cls._decoders, cls._keys)
