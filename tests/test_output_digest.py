"""``scripts/output_digest.py``: its command list, the comparison that
decides identity, and ``--against`` with ``export`` and the child runs
replaced, so that no git command and no child process runs."""

import collections
import dataclasses
import importlib.util
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from semitall import cli, solver, tensorcore

_SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"
sys.path.insert(0, str(_SCRIPTS))  # the script imports bench_pairs from its own directory
_SPEC = importlib.util.spec_from_file_location("output_digest", _SCRIPTS / "output_digest.py")
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
# on any host.  The other commands print floats whose last bits depend on
# the host's BLAS, so only a run against a commit can check them.
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


def test_targets_cover_the_gaussian_formats():
    kinds = collections.Counter((kind, m, n) for kind, m, n, _ in output_digest.TARGETS)
    assert kinds == {**{("gauss", m, n): 12 for m, n in output_digest.GAUSSIAN},
                     **{("near", m, n): 10 for m, n in output_digest.NEAR_START}}
    assert len(set(output_digest.COMMANDS)) == len(output_digest.COMMANDS) == 11 + 92
    for (kind, m, n, k), command in zip(output_digest.TARGETS, output_digest.COMMANDS[11:], strict=True):
        assert command.startswith(f"solve --input {kind}-{m}x{n}-{k}.json --seed ")
        assert tensorcore.kernel_format(output_digest.target(kind, m, n, k)) == tensorcore.Format(m, n)


def test_compare_sees_every_part_of_a_solve(tmp_path, monkeypatch):
    # solve prints each float at 17 significant digits: a one-ulp move shows
    monkeypatch.chdir(tmp_path)
    tensorcore.save_tensor(output_digest.target(*output_digest.TARGETS[0]), "gauss-3x3-0.json")
    command, solve_all = output_digest.COMMANDS[11], solver.solve_all
    text = output_digest.output(command)
    assert compare(text, output_digest.output(command)) == "identical"

    def edited(**edit):
        # compare with the output of a report whose named fields are edited
        def solve(B, seed):
            report = solve_all(B, seed=seed)
            return dataclasses.replace(report, **{k: f(getattr(report, k)) for k, f in edit.items()})

        with monkeypatch.context() as patch:
            patch.setattr(solver, "solve_all", solve)
            return compare(text, output_digest.output(command))

    def ulp(x):
        x = np.array(x)
        x.flat[0] += np.spacing(x.flat[0].real)
        return x

    assert edited(residuals=ulp).startswith("numbers differ by at most ")
    assert edited(solutions=ulp).startswith("numbers differ by at most ")
    assert "non-numeric: " in edited(route=lambda _: solver.NEWTON)
    assert " lines against " in edited(failures=lambda f: [*f, solver.PathFailureInfo(0, "PATH_STALL")])
    assert "non-numeric: " in edited(real=lambda r: r ^ (np.arange(len(r)) == 0))


class TestAgainst:
    @pytest.fixture
    def tamper(self, monkeypatch):
        # two cheap commands stand in for the list, and both trees run them in
        # this process; REV's alpha is 3 instead of 2 once tamper is set
        monkeypatch.setattr(output_digest, "COMMANDS", ["alpha --m 3 --n 3", "divisors --m 3 --n 3"])
        monkeypatch.setattr(output_digest, "TARGETS", [])
        monkeypatch.setattr(output_digest, "export", lambda rev, into: "0123456789ab" + "0" * 28)
        tamper = []

        def run_in(tree, out):
            texts = output_digest.run_all(out)
            if tamper and tree != output_digest.ROOT:
                texts[0] = texts[0].replace('"alpha": 2', '"alpha": 3')
            return texts

        monkeypatch.setattr(output_digest, "run_in", run_in)
        return tamper

    def test_untouched_run_exits_0(self, tamper, tmp_path, capsys):
        assert output_digest.main(["--out", str(tmp_path), "--against", "HEAD"]) == 0
        out = capsys.readouterr().out
        assert out.count("[identical]") == 2 and out.endswith("\n2 of 2 outputs identical to 0123456789ab\n")

    def test_tampered_output_exits_1(self, tamper, tmp_path, capsys):
        tamper.append(True)
        assert output_digest.main(["--out", str(tmp_path), "--against", "HEAD"]) == 1
        lines = capsys.readouterr().out.splitlines()
        # REV's 3 against the working tree's 2, relative to max(3, 2, 1)
        assert lines[1].endswith("  alpha --m 3 --n 3  [numbers differ by at most 3.33e-01 (line 11); "
                                 "non-numeric parts equal]")
        assert lines[2].endswith("  divisors --m 3 --n 3  [identical]")
        assert lines[3] == "1 of 2 outputs identical to 0123456789ab"

    @pytest.mark.parametrize("argv", [[], ["--against", "HEAD"]], ids=["run", "against"])
    def test_no_out_leaves_no_directory(self, tamper, argv, tmp_path, monkeypatch, capsys):
        # without --out the inputs and outputs go to a temporary directory
        # that is gone on exit, and no line names it
        monkeypatch.setattr(output_digest.tempfile, "tempdir", str(tmp_path))
        assert output_digest.main(argv) == 0
        assert list(tmp_path.iterdir()) == []
        assert "# outputs in" not in capsys.readouterr().out


def test_failed_child_run_names_its_exit_and_stderr(tmp_path, monkeypatch):
    # no child starts: the replaced subprocess.run sees the tree's package at one BLAS thread
    def run(cmd, env, **kwargs):
        assert (env["PYTHONPATH"], env["OPENBLAS_NUM_THREADS"]) == ("/tree/src", "1")
        return subprocess.CompletedProcess(cmd, 1, "", "Traceback\n" + "x\n" * 400 + "ImportError: gone\n")

    monkeypatch.setattr(output_digest.subprocess, "run", run)
    with pytest.raises(RuntimeError, match=r"--out \S+ on /tree exited 1: (\s*x)+\s+ImportError: gone$"):
        output_digest.run_in("/tree", str(tmp_path))
