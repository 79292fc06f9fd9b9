"""One JSON form for the package's dataclasses and mappers.

``encode`` writes a dataclass's init fields in declaration order; a field
computed in ``__post_init__`` (``init=False``) is left out.  Nested objects
give their ``to_dict``, tuples and arrays become lists, and a dict keyed by
node id gets string keys in ascending order.  Every container of the result
is new.  ``decode`` converts each value to its field's type hint; an
unknown key, a missing one, a value of the wrong JSON type or an error of a
nested constructor raises ``ValueError`` naming the path, such as
``schedule.events[2].actions[0]``.
"""

from __future__ import annotations

import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from functools import cache

import numpy as np

__all__ = ["Serializable", "encode", "encode_value", "decode"]


class Serializable:
    """Gives a dataclass ``to_dict`` and ``from_dict`` through the codec."""

    def to_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_dict(cls, d: dict):
        return decode(cls, d)


def encode(obj) -> dict:
    """The JSON document of dataclass ``obj``."""

    return {name: encode_value(getattr(obj, name)) for name in _schema(type(obj))}


_PLAIN = (str, int, float, type(None))


def encode_value(v):
    """The JSON form of one value."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, _PLAIN):
        return v
    if isinstance(v, (tuple, list)):
        return [x if isinstance(x, _PLAIN) else encode_value(x) for x in v]
    if isinstance(v, dict):
        if all(isinstance(k, int) for k in v):
            return {str(k): encode_value(x) for k, x in sorted(v.items())}
        return {k: encode_value(x) for k, x in v.items()}
    if hasattr(v, "to_dict"):
        return v.to_dict()
    return v


def decode(cls, doc, path: str = ""):
    """Build dataclass ``cls`` from its JSON document ``doc`` found at ``path``."""

    where = path or "the document"
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    schema = _schema(cls)
    for key in doc:
        if key not in schema:
            raise ValueError(f"unknown key {key!r} in {where}")
    for key, (_, required) in schema.items():
        if required and key not in doc:
            raise ValueError(f"missing key {key!r} in {where}")
    given = {k: schema[k][0](v, f"{path}.{k}" if path else k) for k, v in doc.items()}
    try:
        return cls(**given)
    except (TypeError, ValueError) as e:
        if not path:
            raise
        raise ValueError(f"{path}: {e}") from None


@cache
def _schema(cls) -> dict:
    """Init field name -> (decoder, required), in declaration order."""

    hints = typing.get_type_hints(cls)
    return {
        f.name: (_decoder(hints[f.name]), f.default is MISSING and f.default_factory is MISSING)
        for f in fields(cls)
        if f.init
    }


_SCALARS = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _check(ok: bool, path: str, what: str, v) -> None:
    if not ok:
        raise ValueError(f"{path} must be {what}, not {v!r}")


@cache
def _decoder(hint):
    """A function ``(value, path) -> value`` that converts to ``hint``."""

    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        accept = (int, float) if hint is float else hint

        def scalar(v, path):
            if type(v) is hint:
                return v
            # bool is an int to Python, but not a number to JSON
            _check(isinstance(v, accept) and (hint is bool or not isinstance(v, bool)),
                   path, _SCALARS[hint], v)
            return hint(v)

        return scalar
    if origin is types.UnionType:  # X | None
        (inner,) = [_decoder(a) for a in args if a is not type(None)]
        return lambda v, path: None if v is None else inner(v, path)
    if origin is tuple:
        items = [_decoder(a) for a in args if a is not Ellipsis]
        variadic = args[-1] is Ellipsis

        def sequence(v, path):
            _check(isinstance(v, (list, tuple)), path, "a list", v)
            _check(variadic or len(v) == len(items), path, f"a list of {len(items)}", v)
            return tuple(items[0 if variadic else i](x, f"{path}[{i}]") for i, x in enumerate(v))

        return sequence
    if origin is dict:
        value = _decoder(args[1])

        def by_node(v, path):
            _check(isinstance(v, dict), path, "a JSON object", v)
            out = {}
            for k, x in v.items():
                try:
                    node = int(k)
                except (TypeError, ValueError):
                    raise ValueError(f"{path} keys must be node ids, got {k!r}") from None
                out[node] = value(x, f"{path}.{k}")
            return out

        return by_node
    if hint is dict:

        def plain(v, path):
            _check(isinstance(v, dict), path, "a JSON object", v)
            return encode_value(v)

        return plain
    if is_dataclass(hint):
        return lambda v, path: decode(hint, v, path)
    return lambda v, path: hint.from_dict(v)
