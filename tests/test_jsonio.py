"""The report writers: JSON layout and scalars, numpy inputs, CSV and
plain text, and a property that compares the writers with a reference
copy of an earlier version of them on random report trees."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semitall.jsonio import dump_csv, dump_plain, dumps


class TestJsonScalars:
    @pytest.mark.parametrize("x,text", [
        (float("nan"), '"nan"'), (float("inf"), '"inf"'), (float("-inf"), '"-inf"'),
        (-0.0, "-0"), (0.1, "0.10000000000000001"), (1 / 3, "0.33333333333333331"),
        (1.0, "1"), (1e300, "1.0000000000000001e+300"), (5e-324, "4.9406564584124654e-324"),
    ])
    def test_floats(self, x, text):
        assert dumps(x) == text + "\n"

    @pytest.mark.parametrize("x", [0.1, 1 / 3, 2.0**-1074, 1.7976931348623157e308, -123.456])
    def test_floats_round_trip(self, x):
        assert float(dumps(x)) == x

    def test_complex_is_a_pair(self):
        assert dumps(1 - 0.1j) == "[1, -0.10000000000000001]\n"
        assert dumps(complex(float("nan"), float("inf"))) == '["nan", "inf"]\n'

    @pytest.mark.parametrize("x,text", [
        (None, "null"), (True, "true"), (False, "false"), (0, "0"), (-7, "-7"),
        (2**70, "1180591620717411303424"), ("a\"b\n", '"a\\"b\\n"'), ("é", '"\\u00e9"'),
    ])
    def test_other_scalars(self, x, text):
        assert dumps(x) == text + "\n"

    def test_unknown_type_is_refused(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps({"x": object()})


class TestJsonLists:
    def test_flat_list_inline_at_12_entries(self):
        assert dumps(list(range(12))) == "[" + ", ".join(map(str, range(12))) + "]\n"

    def test_flat_list_multi_line_at_13_entries(self):
        assert dumps(list(range(13))) == "[\n" + ",\n".join(f"  {i}" for i in range(13)) + "\n]\n"

    def test_mixed_numbers_and_none_are_flat(self):
        assert dumps([1, 2.5, None, True, 1j]) == "[1, 2.5, null, true, [0, 1]]\n"

    def test_strings_are_never_inline(self):
        assert dumps(["a"]) == '[\n  "a"\n]\n'
        assert dumps([1, "a"]) == '[\n  1,\n  "a"\n]\n'

    def test_empty_dict_and_list(self):
        assert dumps({}) == "{}\n"
        assert dumps([]) == "[]\n"
        assert dumps({"a": {}, "b": []}) == '{\n  "a": {},\n  "b": []\n}\n'

    def test_nesting_indents_two_spaces_per_level(self):
        doc = {"a": [{"b": [1, 2]}, "c"], "d": 1}
        assert dumps(doc) == (
            "{\n"
            '  "a": [\n'
            "    {\n"
            '      "b": [1, 2]\n'
            "    },\n"
            '    "c"\n'
            "  ],\n"
            '  "d": 1\n'
            "}\n"
        )

    def test_keys_are_strings_in_insertion_order(self):
        assert dumps({2: 1, "a": 2}) == '{\n  "2": 1,\n  "a": 2\n}\n'


class TestNumpyInputs:
    @pytest.mark.parametrize("x,text", [
        (np.bool_(True), "true"), (np.bool_(False), "false"),
        (np.int64(-3), "-3"), (np.uint8(200), "200"), (np.int32(7), "7"),
        (np.float64(0.1), "0.10000000000000001"), (np.float32(0.1), "0.10000000149011612"),
        (np.float64("nan"), '"nan"'), (np.complex128(1 - 2j), "[1, -2]"),
        (np.complex64(0.5 + 0.25j), "[0.5, 0.25]"), (np.str_("s"), '"s"'),
    ])
    def test_scalars(self, x, text):
        assert dumps(x) == text + "\n"

    def test_zero_dimensional_arrays(self):
        assert dumps(np.array(2.5)) == "2.5\n"
        assert dumps(np.array(True)) == "true\n"
        assert dumps({"x": np.array(1 + 1j)}) == '{\n  "x": [1, 1]\n}\n'

    def test_arrays_write_as_their_lists(self):
        a = np.arange(6.0).reshape(2, 3) / 3
        assert dumps(a) == dumps(a.tolist())
        assert dumps(a) == "[\n  [0, 0.33333333333333331, 0.66666666666666663],\n  [1, 1.3333333333333333, 1.6666666666666667]\n]\n"
        assert dumps(np.array([True, False])) == "[true, false]\n"
        assert dumps(np.array([1 + 2j])) == "[[1, 2]]\n"
        assert dumps(np.zeros((2, 0))) == "[\n  [],\n  []\n]\n"

    def test_tuples_write_as_lists(self):
        assert dumps((1, 2.0)) == "[1, 2]\n"
        assert dumps({"t": ("a",), "e": ()}) == '{\n  "t": [\n    "a"\n  ],\n  "e": []\n}\n'

    def test_python_list_of_numpy_numbers_is_flat(self):
        assert dumps([np.int64(1), np.float64(0.5), np.complex128(1j)]) == "[1, 0.5, [0, 1]]\n"


class TestCsv:
    def test_columns_come_from_the_first_row(self):
        rows = [{"a": 1, "b": "x"}, {"b": "y", "a": 2, "c": 3}, {"a": 3}]
        assert dump_csv(rows) == "a,b\n1,x\n2,y\n3,None\n"

    def test_list_cells_are_quoted_and_semicolon_joined(self):
        rows = [{"r": [4, 5], "s": ("p", "q"), "e": []}]
        assert dump_csv(rows) == 'r,s,e\n"4;5","p;q",""\n'

    def test_scalar_cells(self):
        rows = [{"f": 0.1, "g": np.float64(1 / 3), "i": np.int64(2), "b": True, "n": None}]
        assert dump_csv(rows) == "f,g,i,b,n\n0.10000000000000001,0.33333333333333331,2,True,None\n"

    def test_no_rows(self):
        assert dump_csv([]) == "\n"


class TestPlain:
    def test_labels_and_nesting(self):
        doc = {"a": 1, "b": {"c": "x", "d": [{"e": 2}, [1, [2]]]}}
        assert dump_plain(doc) == (
            "a = 1\n"
            "b:\n"
            "  c = x\n"
            "  d:\n"
            "    [0]:\n"
            "      e = 2\n"
            "    [1]:\n"
            "      [0] = 1\n"
            "      [1] = [2]\n"
        )

    def test_scalar_lists_are_one_line(self):
        doc = {"r": [1, 0.1, "s", None, True], "t": (2, 3), "a": np.array([1.5, 2.0])}
        assert dump_plain(doc) == "r = [1, 0.10000000000000001, s, None, True]\nt = [2, 3]\na = [1.5, 2]\n"

    def test_empty_values(self):
        assert dump_plain({"l": [], "d": {}, "x": 0}) == "l = []\nd:\nx = 0\n"

    def test_complex(self):
        assert dump_plain({"z": 1 - 0.1j}) == "z = 1-0.10000000000000001j\n"
        assert dump_plain({"w": [np.complex128(0.5 + 2j)], "n": complex(float("nan"), -0.0)}) == "w = [0.5+2j]\nn = nan-0j\n"

    def test_arrays_and_top_level_lists(self):
        assert dump_plain(np.eye(2)) == "[0] = [1, 0]\n[1] = [0, 1]\n"
        assert dump_plain([{"a": 1}, 2]) == "[0]:\n  a = 1\n[1] = 2\n"
        assert dump_plain(0.5) == "0.5\n"


# ---------------------------------------------------------------------------
# Reference: the writers as they were before numpy values were normalized in
# one place.  The property below checks that the writers still give the same
# text on the trees that reports are made of.


def _ref_format_float(x):
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return f"{x:.17g}"


def _ref_emit(obj, out, level):
    pad = " " * (2 * (level + 1))
    close_pad = " " * (2 * level)
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_ref_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        z = complex(obj)
        out.append(f"[{_ref_format_float(z.real)}, {_ref_format_float(z.imag)}]")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _ref_emit(obj.tolist(), out, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            out.append(pad + json.dumps(str(k)) + ": ")
            _ref_emit(v, out, level + 1)
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
                sub = []
                _ref_emit(v, sub, level)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad)
            _ref_emit(v, out, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _ref_dumps(obj):
    out = []
    _ref_emit(obj, out, 0)
    return "".join(out) + "\n"


def _ref_dump_csv(rows):
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


def _ref_dump_plain(obj):
    lines = []

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


# Report trees.  The reference wrote a Python list of numpy bools (or of
# 0-d arrays, or of complex64 in plain text) differently from the same list
# of Python values, wrote a 0-d array under a plain-text key on a line of
# its own, and wrote CSV cells that hold arrays, complex numbers or lists of
# floats with str(); the writers now give each numpy value the text of its
# Python value.  No report holds such values, so the trees leave them out.
floats = st.floats(allow_nan=True, allow_infinity=True)
complexes = st.builds(complex, floats, floats)
list_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), floats, complexes, st.text(max_size=4),
    st.integers(-2**62, 2**62).map(np.int64), st.integers(0, 255).map(np.uint8),
    floats.map(np.float64), st.floats(width=32).map(np.float32), complexes.map(np.complex128),
)
arrays = st.one_of(
    st.lists(floats, max_size=14).map(np.array),
    st.lists(st.booleans(), min_size=1, max_size=5).map(np.array),
    st.lists(complexes, min_size=1, max_size=5).map(np.array),
    st.integers(0, 3).flatmap(lambda r: st.lists(
        st.lists(st.integers(-9, 9), min_size=r, max_size=r), min_size=1, max_size=4).map(np.array)),
)
values = st.one_of(list_scalars, st.booleans().map(np.bool_), arrays)
keys = st.text(alphabet="abcxyz_", min_size=1, max_size=6)
trees = st.recursive(
    values,
    lambda kids: st.one_of(
        st.lists(st.one_of(list_scalars, arrays, kids.filter(lambda t: isinstance(t, (dict, list, tuple)))), max_size=15),
        st.lists(list_scalars, max_size=15).map(tuple),
        st.dictionaries(keys, kids, max_size=5),
    ),
    max_leaves=40,
)
cells = st.one_of(
    st.none(), st.booleans(), st.integers(-50, 10**6), floats, st.text(alphabet="abc RANK_P", max_size=8),
    floats.map(np.float64), st.integers(0, 99).map(np.int64), st.booleans().map(np.bool_),
    st.lists(st.integers(0, 99), max_size=3), st.lists(st.text(alphabet="ab ,", max_size=5), max_size=3).map(tuple),
)
tables = st.lists(st.dictionaries(keys, cells, min_size=1, max_size=6), max_size=5)


class TestAgainstReference:
    @settings(max_examples=300)
    @given(trees)
    def test_dumps(self, tree):
        assert dumps(tree) == _ref_dumps(tree)

    @settings(max_examples=300)
    @given(st.dictionaries(keys, trees, max_size=6))
    def test_dump_plain(self, report):
        assert dump_plain(report) == _ref_dump_plain(report)

    @settings(max_examples=200)
    @given(tables)
    def test_dump_csv(self, rows):
        assert dump_csv(rows) == _ref_dump_csv(rows)
