"""Deterministic report serialization.

Floats are rendered with 17 significant digits, which round-trips IEEE
binary64 exactly, so a report produced twice from the same seed and flags
is byte-identical.  Complex numbers are emitted as two-element
``[re, im]`` arrays.  Every value a writer reaches passes through
``_python`` first: a numpy array or scalar becomes the Python list or
scalar that its ``tolist()`` gives, and a tuple becomes a list, so past
that point the writers test Python types only.
"""

from __future__ import annotations

import json
import math

import numpy as np

INDENT = 2  # spaces per nesting level of ``dumps``
_FLAT = (type(None), int, float, complex)  # a list of only these is one line of JSON; bool is an int
_PLAIN_FLAT = (*_FLAT, str)  # and one line of plain text


def _python(obj):
    """``obj`` with a numpy array or scalar as its ``tolist()`` and a tuple as a list."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def format_float(x: float) -> str:
    text = f"{x:.17g}"
    return text if math.isfinite(x) else f'"{text}"'  # "nan", "inf", "-inf"


def _atom(obj) -> str:
    """JSON text of a Python scalar, an empty dict or an empty list."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, complex):
        return f"[{format_float(obj.real)}, {format_float(obj.imag)}]"
    if isinstance(obj, (str, dict, list)):  # dicts and lists reach here empty
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(obj, out: list, level: int) -> None:
    obj = _python(obj)
    if not isinstance(obj, (dict, list)) or not obj:
        out.append(_atom(obj))
        return
    if isinstance(obj, list) and len(obj) <= 12:
        values = [_python(v) for v in obj]
        if all(isinstance(v, _FLAT) for v in values):
            out.append("[" + ", ".join(map(_atom, values)) + "]")
            return
    keyed = isinstance(obj, dict)
    labels = [json.dumps(str(k)) + ": " for k in obj] if keyed else [""] * len(obj)
    pad = " " * (INDENT * (level + 1))
    out.append("{\n" if keyed else "[\n")
    for i, (label, v) in enumerate(zip(labels, obj.values() if keyed else obj)):
        out.append(pad + label)
        _emit(v, out, level + 1)
        out.append(",\n" if i < len(obj) - 1 else "\n")
    out.append(" " * (INDENT * level) + ("}" if keyed else "]"))


def dumps(obj) -> str:
    """Render ``obj`` as deterministic JSON text."""
    out: list = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def _text(v) -> str:
    """Plain and CSV text of a Python scalar: a float, and each part of a
    complex (``a+bj``), at 17 significant digits."""
    return format(v, ".17g") if isinstance(v, (float, complex)) else str(v)


def dump_csv(rows: list[dict]) -> str:
    """Render a list of flat dicts as CSV, columns from the first row."""
    cols = list(rows[0]) if rows else []
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = _python(row.get(c))
            cells.append('"' + ";".join(_text(_python(x)) for x in v) + '"' if isinstance(v, list) else _text(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def dump_plain(obj) -> str:
    """Render a report as indented ``key = value`` lines."""
    lines: list[str] = []

    def walk(o, pfx):
        o = _python(o)
        if not isinstance(o, (dict, list)):
            lines.append(pfx + _text(o))
            return
        for label, v in o.items() if isinstance(o, dict) else ((f"[{i}]", v) for i, v in enumerate(o)):
            v = _python(v)
            items = [_python(x) for x in v] if isinstance(v, list) else None
            if items is not None and all(isinstance(x, _PLAIN_FLAT) for x in items):
                lines.append(f"{pfx}{label} = [{', '.join(map(_text, items))}]")
            elif isinstance(v, (dict, list)):
                lines.append(f"{pfx}{label}:")
                walk(v, pfx + "  ")
            else:
                lines.append(f"{pfx}{label} = {_text(v)}")

    walk(obj, "")
    return "\n".join(lines) + "\n"
