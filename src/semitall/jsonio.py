"""Deterministic report serialization.

Floats are rendered with 17 significant digits, which round-trips IEEE
binary64 exactly, so a report produced twice from the same seed and flags
is byte-identical.  Complex numbers are emitted as two-element
``[re, im]`` arrays.
"""

from __future__ import annotations

import json

import numpy as np

INDENT = 2  # spaces per nesting level of ``dumps``


def format_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return f"{x:.17g}"


def _emit(obj, out: list, level: int) -> None:
    pad = " " * (INDENT * (level + 1))
    close_pad = " " * (INDENT * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        out.append(f"[{format_float(z.real)}, {format_float(z.imag)}]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), out, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(pad + json.dumps(str(k)) + ": ")
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        flat = all(isinstance(v, (int, float, bool, np.integer, np.floating, complex, np.complexfloating)) or v is None for v in obj)
        if flat and len(obj) <= 12:
            parts = []
            for v in obj:
                sub: list = []
                _emit(v, sub, level)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Render ``obj`` as deterministic JSON text."""
    out: list = []
    _emit(obj, out, 0)
    return "".join(out) + "\n"


def dump_csv(rows: list[dict]) -> str:
    """Render a list of flat dicts as CSV, columns from the first row."""
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    lines = [",".join(cols)]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c)
            if isinstance(v, (float, np.floating)):
                cells.append(f"{float(v):.17g}")
            elif isinstance(v, (list, tuple)):
                cells.append('"' + ";".join(str(x) for x in v) + '"')
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def dump_plain(obj) -> str:
    """Render a report as indented ``key = value`` lines."""
    lines: list[str] = []

    def walk(o, pfx):
        if isinstance(o, dict):
            for k, v in o.items():
                if isinstance(v, (dict, list, tuple, np.ndarray)) and not _is_scalar_seq(v):
                    lines.append(f"{pfx}{k}:")
                    walk(v, pfx + "  ")
                else:
                    lines.append(f"{pfx}{k} = {_scalar_str(v)}")
        elif isinstance(o, np.ndarray):
            walk(o.tolist(), pfx)
        elif isinstance(o, (list, tuple)):
            for i, v in enumerate(o):
                if isinstance(v, (dict, list, tuple, np.ndarray)) and not _is_scalar_seq(v):
                    lines.append(f"{pfx}[{i}]:")
                    walk(v, pfx + "  ")
                else:
                    lines.append(f"{pfx}[{i}] = {_scalar_str(v)}")
        else:
            lines.append(f"{pfx}{_scalar_str(o)}")

    def _is_scalar_seq(v):
        if isinstance(v, np.ndarray):
            v = v.tolist()
        return isinstance(v, (list, tuple)) and all(
            isinstance(x, (int, float, str, bool, complex, np.integer, np.floating)) or x is None for x in v
        )

    def _scalar_str(v):
        if isinstance(v, (float, np.floating)):
            return f"{float(v):.17g}"
        if isinstance(v, (complex, np.complexfloating)):
            z = complex(v)
            return f"{z.real:.17g}{z.imag:+.17g}j"
        if isinstance(v, np.ndarray):
            v = v.tolist()
        if isinstance(v, (list, tuple)):
            return "[" + ", ".join(_scalar_str(x) for x in v) + "]"
        return str(v)

    walk(obj, "")
    return "\n".join(lines) + "\n"
