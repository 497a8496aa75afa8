import importlib.util
import pathlib

import pytest

from semitall import cli

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
_SPEC = importlib.util.spec_from_file_location("output_digest", _PATH)
output_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digest)
compare = output_digest.compare


class TestCompare:
    def test_identical_text(self):
        text = '{\n  "x": 1.5,\n  "verdict": "RANK_P"\n}\n'
        assert compare(text, text) == "identical"

    def test_numbers_compared_by_value(self):
        # the report writer prints 1.0 as 1
        assert compare('"x": 1.0\n', '"x": 1\n') == "numbers equal; non-numeric parts equal"

    def test_relative_difference_and_its_line(self):
        old = '"a": 0.5\n"b": 200.0\n"c": 3\n'
        new = '"a": 0.5000001\n"b": 200.002\n"c": 3\n'
        # line 1: 1e-7 against max(|x|, |y|, 1) = 1; line 2: 0.002 / 200.002
        assert compare(old, new) == "numbers differ by at most 1.00e-05 (line 2); non-numeric parts equal"
        small = compare('"a": 1e-20\n', '"a": 3e-20\n')
        assert small == "numbers differ by at most 2.00e-20 (line 1); non-numeric parts equal"

    def test_line_counts_differ(self):
        assert compare("a\nb\n", "a\nb\nc\n") == "2 lines against 3"

    def test_non_numeric_difference_is_named(self):
        old = '"verdict": "RANK_P"\n"x": 1.0\n'
        new = '"verdict": "RANK_GT_P"\n"x": 1.5\n'
        # the numbers of the other lines are still compared
        assert compare(old, new) == (
            "numbers differ by at most 3.33e-01 (line 2); "
            "non-numeric: line 1: '\"verdict\": \"RANK_P\"' against '\"verdict\": \"RANK_GT_P\"'"
        )


# The outputs that hold no BLAS or libm float: their digests are the same
# on any host.  The other recorded commands print floats whose last bits
# depend on the host's BLAS, so only a saved run can check them.
PINNED = {
    "alpha --m 5 --n 27": "35daa6076da92691",
    "classify --m 7 --n 16": "2dcca1a731605ab3",
    "table --m 9 --n 40 --format csv": "d7e616e9557bea5d",
}


@pytest.mark.parametrize("command", PINNED)
def test_integer_only_output_is_pinned(command):
    assert command in output_digest.COMMANDS
    assert output_digest.digest(output_digest.output(command)) == PINNED[command]


@pytest.mark.parametrize("command", output_digest.COMMANDS)
def test_recorded_command_parses(command):
    # parsing only: a flag-table change that breaks the recorded list fails
    # here (argparse exits 1 on an undeclared flag), not at the next digest run
    args = cli._build_parser().parse_args(command.split())
    assert args.command == command.split()[0]


class TestAgainst:
    @pytest.fixture
    def saved(self, tmp_path, monkeypatch, capsys):
        # one cheap command stands in for the recorded list
        monkeypatch.setattr(output_digest, "COMMANDS", ["alpha --m 3 --n 3"])
        before = tmp_path / "before"
        assert output_digest.main(["--out", str(before)]) == 0
        capsys.readouterr()
        return before

    def test_untouched_run_exits_0(self, saved, tmp_path, capsys):
        assert output_digest.main(["--out", str(tmp_path / "after"), "--against", str(saved)]) == 0
        assert "[identical]" in capsys.readouterr().out

    def test_tampered_output_exits_1(self, saved, tmp_path, capsys):
        old = saved / "00.out"
        old.write_text(old.read_text().replace('"alpha": 2', '"alpha": 3'))
        assert output_digest.main(["--out", str(tmp_path / "after"), "--against", str(saved)]) == 1
        assert "numbers differ" in capsys.readouterr().out
