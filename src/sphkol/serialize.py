"""Deterministic JSON writing with 17-significant-digit floats.

The standard json encoder formats floats with repr, whose digit count varies
by value; file outputs here must be byte-stable across runs and platforms, so
floats are pinned to %.17g explicitly.
"""

from __future__ import annotations

import math


def format_float(x: float) -> str:
    """x with 17 significant digits; a non-finite x is a ValueError."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized")
    return format(float(x), ".17g")


def dumps17(obj, indent: int = 0, _level: int = 0) -> str:
    """Serialize dicts/lists/str/bool/None/int/float; floats use 17 significant digits."""
    pad = " " * (indent * (_level + 1)) if indent else ""
    close_pad = " " * (indent * _level) if indent else ""
    sep = ",\n" if indent else ", "
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, complex):
        raise TypeError("serialize complex values as explicit re/im pairs")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}{dumps17(str(k))}: {dumps17(v, indent, _level + 1)}" for k, v in obj.items()
        ]
        body = sep.join(items)
        return "{\n" + body + "\n" + close_pad + "}" if indent else "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        items = [f"{pad}{dumps17(v, indent, _level + 1)}" for v in obj]
        body = sep.join(items)
        return "[\n" + body + "\n" + close_pad + "]" if indent else "[" + body + "]"
    try:
        return dumps17(obj.item(), indent, _level)  # numpy scalars
    except AttributeError:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
