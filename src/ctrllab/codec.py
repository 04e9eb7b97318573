"""One JSON dict codec for the spec and record dataclasses.

A :class:`Spec` (atom, shift, ensemble, input vector) has a ``kind``, and
`_kinds` maps each kind to its validating classmethod: the dict is ``kind``
plus that classmethod's parameters in field order, None left out, and
reading one calls the classmethod, so JSON input is validated like code.
A :class:`Record` writes every field, under the JSON key `_keys` names.
Nested specs and records become dicts, tuples and arrays lists;
`_decoders` rebuilds a field from its non-null JSON value.  Reading
rejects unknown and missing keys with a ValueError naming the key.
"""

from __future__ import annotations

from dataclasses import fields
from inspect import Parameter, signature


def _encode(value):
    if isinstance(value, (Spec, Record)):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {k: _encode(v) for k, v in value.items()}
    return value.tolist() if hasattr(value, "tolist") else value  # numpy arrays and scalars


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
    args = {}
    for key, value in d.items():
        name = names[key]
        args[name] = value if value is None or name not in decoders else decoders[name](value)
    return make(**args)


class Spec:
    """Codec mixin for dataclasses with a ``kind`` and one classmethod per kind."""

    _kinds: dict = {}
    _decoders: dict = {}

    def to_dict(self) -> dict:
        params = signature(getattr(self, self._kinds[self.kind])).parameters
        d = {"kind": self.kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in params and value is not None:
                d[f.name] = _encode(value)
        return d

    @classmethod
    def from_dict(cls, d):
        kind = d.get("kind") if isinstance(d, dict) else None
        if not isinstance(kind, str) or kind not in cls._kinds:
            raise ValueError(f"{cls.__name__} needs a 'kind' key with a value in "
                             f"{sorted(cls._kinds)}, got {d!r}")
        rest = {k: v for k, v in d.items() if k != "kind"}
        return _build(f"{cls.__name__} {kind!r}", getattr(cls, cls._kinds[kind]), rest,
                      cls._decoders, {})


class Record:
    """Codec mixin for dataclasses written field by field."""

    _keys: dict = {}
    _decoders: dict = {}

    def to_dict(self) -> dict:
        return {self._keys.get(f.name, f.name): _encode(getattr(self, f.name))
                for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        return _build(cls.__name__, cls, d, cls._decoders, cls._keys)
