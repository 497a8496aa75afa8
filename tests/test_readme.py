"""The README's library example runs and prints what its comment says, and
the calls its library tour names match the package's signatures, so
renaming a name or a parameter fails here rather than only in the docs."""

import ast
import inspect
import pathlib
import re

import semitall

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_prints_rank_p(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "RANK_P 5\n"


def test_library_tour_calls_match_the_signatures():
    # every backticked call `name(params)` of an exported name: the same
    # parameter names in the same order, and the same defaults
    tour = README.read_text().split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    calls = [(name, params) for name, params in re.findall(r"`(\w+)\(([^`()]*)\)`", tour) if name in semitall.__all__]
    assert sorted(name for name, _ in calls) == [
        "certify", "divisor_coefficients", "divisor_points",
        "real_divisors", "solve_all", "start_solutions", "track_path",
    ]
    for name, params in calls:
        documented = [(key, ast.literal_eval(value) if eq else inspect.Parameter.empty)
                      for key, eq, value in (param.partition("=") for param in params.split(", "))]
        actual = [(p.name, p.default) for p in inspect.signature(getattr(semitall, name)).parameters.values()]
        assert documented == actual, name
