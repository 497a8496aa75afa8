"""The README's library example runs and prints what its comment says, so
renaming a name it uses fails here rather than only in the docs."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_prints_rank_p(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "RANK_P 5\n"
