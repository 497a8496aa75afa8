import json
import re
import time

import numpy as np
import pytest

from semitall import acceptance, certifier, cli, tensorcore
from semitall.cli import dispatch
from semitall.tensorcore import Format, make_start_frame, save_tensor, tau


def run_json(argv):
    code, text = dispatch(argv)
    return code, json.loads(text)


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k != "elapsed_s"}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


class TestAlpha:
    def test_boundary_format(self):
        code, doc = run_json(["alpha", "--m", "5", "--n", "27"])
        assert code == 0
        assert doc["result"] == {
            "m": 5, "n": 27, "u": 30, "alpha": 105, "p": 105, "alpha_lt_p": False,
        }

    def test_included_neighbor(self):
        _, doc = run_json(["alpha", "--m", "5", "--n", "28"])
        assert doc["result"]["alpha_lt_p"] is True

    def test_missing_flag(self):
        code, text = dispatch(["alpha", "--m", "5"])
        assert code == 1
        assert "requires" in text

    def test_domain_error(self):
        code, _ = dispatch(["alpha", "--m", "2", "--n", "5"])
        assert code == 1


class TestDivisors:
    def test_3_3(self):
        code, doc = run_json(["divisors", "--m", "3", "--n", "3"])
        assert code == 0
        assert doc["result"]["count"] == 2
        points = [d["variety_point"] for d in doc["result"]["divisors"]]
        assert all(pt[-1] == -1.0 for pt in points)

    def test_over_budget_format_refused_at_once(self):
        # (33,64) has about 1.5e12 real divisors; the refusal reads only
        # their closed-form count
        start = time.perf_counter()
        code, text = dispatch(["divisors", "--m", "33", "--n", "64"])
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert text == "error: 1503232609098 real divisors of degree 32 of y^95 + 1 exceed the budget 50000\n"

    @pytest.mark.parametrize("m,n", [(3, 2), (5, 4), (2, 3)])
    def test_format_validated(self, m, n):
        # alpha reads the same format check as divisors
        for command in ("divisors", "alpha"):
            code, text = dispatch([command, "--m", str(m), "--n", str(n)])
            assert code == 1
            assert text == f"error: format requires 3 <= m <= n, got ({m}, {n})\n"


class TestClassify:
    def test_bit_disjoint_fail_reason(self):
        code, doc = run_json(["classify", "--m", "7", "--n", "16"])
        assert code == 0
        assert doc["result"]["verdict"] == "PLURAL"
        assert doc["result"]["reasons"] == ["BIT_DISJOINT_FAIL"]

    def test_explicit_p(self):
        _, doc = run_json(["classify", "--m", "3", "--n", "3", "--p", "8"])
        assert doc["result"]["verdict"] == "SINGLE"
        assert doc["result"]["typical_ranks"] == [8]


class TestTable:
    def test_csv_output(self):
        code, text = dispatch(["table", "--m", "4", "--n", "6", "--format", "csv"])
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0].startswith("m,n,p,verdict")
        # rows for (3,3..6) and (4,4..6)
        assert len(lines) == 1 + 4 + 3

    def test_csv_only_for_table(self, capsys):
        # csv is a --format choice of table alone, so elsewhere it is a usage error
        for command, (_, _, formats) in cli._COMMANDS.items():
            assert ("csv" in formats.split()) == (command == "table")
        with pytest.raises(SystemExit) as exc:
            dispatch(["alpha", "--m", "3", "--n", "3", "--format", "csv"])
        assert exc.value.code == 1
        assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err

    def test_json_rows(self):
        _, doc = run_json(["table", "--m", "3", "--n", "5"])
        rows = doc["result"]["rows"]
        assert [r["n"] for r in rows] == [3, 4, 5]

    @pytest.mark.parametrize("m,n", [(2, 2), (0, 0), (4, 3), (2, 5)])
    def test_format_validated(self, m, n):
        code, text = dispatch(["table", "--m", str(m), "--n", str(n)])
        assert code == 1
        assert text == f"error: format requires 3 <= m <= n, got ({m}, {n})\n"

    def test_bounds_capped(self):
        code, text = dispatch(["table", "--m", "3", "--n", "65"])
        assert code == 1
        assert text == "error: table bounds are capped at 64\n"


class TestSolve:
    def test_default_target_recovers_start_system(self):
        code, doc = run_json(["solve", "--m", "3", "--n", "3", "--seed", "4"])
        assert code == 0
        res = doc["result"]
        assert res["n_paths"] == 6
        assert res["real_count"] == 2
        assert res["failures"] == []
        assert all(s["residual"] < 1e-9 for s in res["solutions"])

    def test_eps_target(self):
        code, doc = run_json(["solve", "--m", "3", "--n", "4", "--eps", "1e-3", "--seed", "5"])
        assert code == 0
        assert doc["result"]["real_count"] == 2

    def test_negative_exponent_is_a_value(self):
        code, spaced = run_json(["solve", "--m", "3", "--n", "3", "--eps", "-1e-3", "--seed", "1"])
        assert code == 0
        _, joined = run_json(["solve", "--m", "3", "--n", "3", "--eps=-1e-3", "--seed", "1"])
        assert spaced["params"]["eps"] == -1e-3
        assert spaced["result"] == joined["result"]

    def test_non_finite_input_is_named(self, tmp_path):
        frame = make_start_frame(3, 3)
        data = frame.Aprime.data.copy()
        data[1, 2, 0] = np.inf
        path = tmp_path / "target.json"
        save_tensor(tensorcore.Tensor3(data), path)
        code, text = dispatch(["solve", "--input", str(path)])
        assert code == 1
        assert text == "error: tensor file has 1 non-finite entries: (1, 2, 0) = inf\n"

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_is_named(self, eps):
        code, text = dispatch(["solve", "--m", "3", "--n", "3", "--eps", eps])
        assert code == 1
        assert text == "error: target tensor has 36 non-finite entries\n"

    def test_input_file(self, tmp_path):
        frame = make_start_frame(3, 3)
        rng = np.random.default_rng(6)
        target = tensorcore.Tensor3(frame.Aprime.data + 1e-3 * rng.standard_normal(frame.Aprime.shape))
        path = tmp_path / "target.json"
        save_tensor(target, path)
        code, doc = run_json(["solve", "--input", str(path), "--seed", "7"])
        assert code == 0
        assert doc["result"]["n_paths"] == 6

    @pytest.mark.parametrize("mix,named", [
        (["--m", "9"], "--m"), (["--eps", "0"], "--eps"), (["--m", "9", "--n", "9", "--eps", "5"], "--m, --n, --eps"),
    ])
    def test_input_refuses_format_flags(self, tmp_path, mix, named):
        # the file fixes the format and the target, so --m, --n and --eps
        # would be ignored and echoed over a result they do not describe
        path = tmp_path / "target.json"
        save_tensor(make_start_frame(3, 3).Aprime, path)
        assert dispatch(["solve", "--input", str(path), "--seed", "1"])[0] == 0
        code, text = dispatch(["solve", "--input", str(path), "--seed", "1"] + mix)
        assert code == 1
        assert text == f"error: solve --input reads the target from the file and takes no {named}\n"

    def test_reproducible_bytes(self):
        _, t1 = dispatch(["solve", "--m", "3", "--n", "3", "--eps", "1e-2", "--seed", "9"])
        _, t2 = dispatch(["solve", "--m", "3", "--n", "3", "--eps", "1e-2", "--seed", "9"])
        assert strip_timing(json.loads(t1)) == strip_timing(json.loads(t2))
        # identical apart from the timing field even at byte level
        s1 = re.sub(r'"elapsed_s": [^\n]+', "", t1)
        s2 = re.sub(r'"elapsed_s": [^\n]+', "", t2)
        assert s1 == s2


class TestCertify:
    def test_perturbed_frame_reports_rank_gt_p(self, tmp_path):
        fmt = Format(3, 3)
        frame = make_start_frame(3, 3)
        rng = np.random.default_rng(8)
        W = frame.W0 + 1e-3 * rng.standard_normal((fmt.u, fmt.p))
        path = tmp_path / "tensor.json"
        save_tensor(tau(W, fmt), path)
        code, doc = run_json(["certify", "--input", str(path), "--seed", "3"])
        assert code == 0
        res = doc["result"]
        assert res["verdict"] == "RANK_GT_P"
        assert res["dim_u"] <= 2
        assert res["paths_failed"] == 0
        assert "span_tol" in res["tolerances"]

    def test_missing_input(self):
        code, _ = dispatch(["certify"])
        assert code == 1

    def test_non_finite_input_is_named(self, tmp_path):
        fmt = Format(3, 3)
        data = tau(make_start_frame(3, 3).W0, fmt).data.copy()
        data[0, 1, 2] = np.nan
        path = tmp_path / "tensor.json"
        save_tensor(tensorcore.Tensor3(data), path)
        code, text = dispatch(["certify", "--input", str(path)])
        assert code == 1
        assert text == "error: tensor file has 1 non-finite entries: (0, 1, 2) = nan\n"


class TestWrongShape:
    @pytest.mark.parametrize("command,shape,message", [
        ("certify", (3, 4, 3), "shape (3, 4, 3) is not an n x p x m tensor at the critical p = 5"),
        ("solve", (3, 3, 3), "shape (3, 3, 3) is not a u x n x m tensor with u = 4"),
    ], ids=["certify", "solve"])
    def test_tensorcore_message(self, tmp_path, command, shape, message):
        path = tmp_path / "tensor.json"
        save_tensor(tensorcore.Tensor3(np.ones(shape)), path)
        code, text = dispatch([command, "--input", str(path)])
        assert code == 1
        assert text == f"error: {message}\n"


class TestMalformedInput:
    # (file contents, or None for a directory; words the error must contain)
    CASES = {
        "no_shape": ('{"data": [1.0]}', "keys 'shape' and 'data'"),
        "scalar_data": ('{"shape": [1, 1, 1], "data": 5}', "flat list of numbers"),
        "top_level_list": ("[1.0, 2.0]", "JSON object"),
        "directory": (None, "directory"),
        "fractional_shape": ('{"shape": [3.9, 1, 1], "data": [1.0, 2.0, 3.0]}', "list of integers"),
        "boolean_shape": ('{"shape": [true, 1, 1], "data": [1.0]}', "list of integers"),
        "boolean_data": ('{"shape": [1, 1, 1], "data": [true]}', "flat list of numbers"),
        "infinite_shape": ('{"shape": [1e400, 1, 1], "data": [1.0]}', "list of integers"),
        "overflowing_data": ('{"shape": [1, 1, 1], "data": [1' + 400 * "0" + "]}", "flat list of numbers"),
        "deeply_nested": (200_000 * "[", "nests too deeply"),
        # JSON strings where numbers belong, which float() would read
        "string_shape_and_data": ('{"shape": "353", "data": "%s"}' % ("123456789" * 5), "list of integers"),
        "string_shape_entries": ('{"shape": ["3", "5", " 3 "], "data": [%s]}' % ", ".join(["1.5"] * 45), "list of integers"),
        "underscored_data": ('{"shape": [1, 1, 1], "data": ["1_000"]}', "flat list of numbers"),
    }

    @pytest.mark.parametrize("command", ["certify", "solve"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_named_error_exit_1(self, tmp_path, command, case):
        contents, words = self.CASES[case]
        path = tmp_path / "tensor.json"
        if contents is None:
            path.mkdir()
        else:
            path.write_text(contents)
        code, text = dispatch([command, "--input", str(path)])
        assert code == 1
        assert text.startswith("error: ") and words in text and text.count("\n") == 1


class TestExperiment:
    def test_perturb_small(self):
        code, doc = run_json([
            "experiment", "perturb", "--m", "3", "--n", "3",
            "--eps", "1e-3", "--trials", "4", "--seed", "11",
        ])
        assert code == 0
        res = doc["result"]
        assert res["counts"]["RANK_GT_P"] == 4
        assert sum(res["counts"].values()) == 4

    def test_global_small(self):
        code, doc = run_json([
            "experiment", "global", "--m", "3", "--n", "3", "--trials", "3", "--seed", "12",
        ])
        assert code == 0
        assert sum(doc["result"]["counts"].values()) == 3

    def test_global_refuses_eps(self):
        # global draws Gaussian tensors, so --eps would be ignored and
        # echoed over a result whose eps is null
        code, text = dispatch(["experiment", "global", "--m", "3", "--n", "3", "--trials", "0", "--eps", "5"])
        assert code == 1
        assert text == "error: experiment global draws Gaussian tensors and takes no --eps\n"
        code, doc = run_json(["experiment", "perturb", "--m", "3", "--n", "3", "--trials", "0", "--eps", "1e-3"])
        assert code == 0
        assert doc["result"]["eps"] == 1e-3

    def test_csv_refused_before_the_experiment_runs(self, monkeypatch, capsys):
        def run(*args, **kwargs):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(certifier, "global_experiment", run)
        with pytest.raises(SystemExit) as exc:
            dispatch(["experiment", "global", "--m", "3", "--n", "3", "--trials", "5", "--format", "csv"])
        assert exc.value.code == 1
        assert "argument --format: invalid choice: 'csv'" in capsys.readouterr().err

    def test_negative_trials_rejected(self):
        code, text = dispatch(["experiment", "global", "--m", "3", "--n", "3", "--trials", "-2"])
        assert code == 1
        assert text == "error: trials must be nonnegative\n"

    @pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
    def test_eps_must_be_nonnegative_and_finite(self, eps):
        code, text = dispatch(["experiment", "perturb", "--m", "3", "--n", "3", "--eps", eps, "--trials", "2"])
        assert code == 1
        assert text == f"error: eps must be nonnegative and finite, got {eps}\n"

    def test_seed_recorded(self):
        _, doc = run_json([
            "experiment", "global", "--m", "3", "--n", "3", "--trials", "1", "--seed", "99",
        ])
        assert doc["params"]["seed"] == 99


class TestSelftest:
    def test_reports_all_criteria(self, monkeypatch, capsys):
        canned = [
            acceptance.CheckResult(1, "alpha-oracle-equivalence", True, "ok", 0.1, 10.0),
            acceptance.CheckResult(2, "alpha-case-list", True, "ok", 0.1, 1.0),
        ]
        monkeypatch.setattr(acceptance, "run_acceptance", lambda: canned)
        code, doc = run_json(["selftest"])
        assert code == 0
        assert doc["result"]["passed"] is True
        assert len(doc["result"]["criteria"]) == 2
        out = capsys.readouterr().out
        assert "criterion 01" in out

    def test_failure_gives_exit_2(self, monkeypatch):
        canned = [acceptance.CheckResult(1, "alpha-oracle-equivalence", False, "broken", 0.1, 10.0)]
        monkeypatch.setattr(acceptance, "run_acceptance", lambda: canned)
        code, doc = run_json(["selftest"])
        assert code == 2
        assert doc["result"]["passed"] is False


class TestFlagTable:
    # subcommand: (a valid command, the "params" it echoes in order, flags it does not read)
    CASES = {
        "alpha": (["alpha", "--m", "3", "--n", "3"], ["m", "n"], [["--eps", "1"], ["--seed", "1"]]),
        "divisors": (["divisors", "--m", "3", "--n", "3"], ["m", "n"], [["--tol", "1e-6"], ["--seed", "1"]]),
        "classify": (["classify", "--m", "3", "--n", "3", "--p", "5"], ["m", "n", "p"],
                     [["--trials", "2"], ["--seed", "1"]]),
        "table": (["table", "--m", "3", "--n", "4"], ["m", "n"], [["--p", "5"], ["--seed", "1"]]),
        "solve": (["solve", "--m", "3", "--n", "3", "--eps", "1e-3"],
                  ["m", "n", "eps", "seed"], [["--trials", "2"], ["--tol", "1e-10"]]),
        "certify": (["certify", "--input", "TENSOR", "--seed", "2"], ["seed", "input"],
                    [["--m", "3"], ["--tol", "1e-6"]]),
        "experiment": (["experiment", "perturb", "--m", "3", "--n", "3", "--eps", "1e-3", "--trials", "1"],
                       ["m", "n", "eps", "trials", "seed", "mode"], [["--input", "f"], ["--tol", "1e-6"]]),
        "selftest": (["selftest"], [], [["--n", "3"], ["--seed", "1"], ["--tol", "1e-6"]]),
    }

    @pytest.fixture
    def argv_of(self, tmp_path, monkeypatch):
        canned = [acceptance.CheckResult(1, "alpha-oracle-equivalence", True, "ok", 0.1, 10.0)]
        monkeypatch.setattr(acceptance, "run_acceptance", lambda: canned)
        path = tmp_path / "tensor.json"
        save_tensor(tau(make_start_frame(3, 3).W0, Format(3, 3)), path)
        return lambda argv: [str(path) if a == "TENSOR" else a for a in argv]

    @pytest.mark.parametrize("command", ["solve", "certify", "experiment"])
    def test_negative_seed_is_named(self, argv_of, command):
        code, text = dispatch(argv_of(self.CASES[command][0]) + ["--seed", "-1"])
        assert code == 1
        assert text == "error: --seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_params_echo_only_declared_flags(self, argv_of, command):
        argv, params, _ = self.CASES[command]
        code, doc = run_json(argv_of(argv))
        assert code == 0
        assert list(doc["params"]) == params

    @pytest.mark.parametrize("command", sorted(CASES))
    def test_undeclared_flag_exits_1(self, argv_of, capsys, command):
        argv, _, extras = self.CASES[command]
        for extra in extras:
            with pytest.raises(SystemExit) as exc:
                dispatch(argv_of(argv) + extra)
            assert exc.value.code == 1
            assert f"error: unrecognized arguments: {' '.join(extra)}" in capsys.readouterr().err


class TestOutputModes:
    def test_unknown_flag_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["alpha", "--bogus"])
        assert exc.value.code == 1

    def test_unknown_command_exits_1(self):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(["frobnicate"])
        assert exc.value.code == 1

    def test_output_file(self, tmp_path, monkeypatch):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["alpha", "--m", "3", "--n", "3", "--output", str(out)])
        assert exc.value.code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["alpha"] == 2

    def test_unwritable_output_is_named(self, tmp_path):
        out = tmp_path / "missing" / "report.json"
        code, text = dispatch(["alpha", "--m", "3", "--n", "3", "--output", str(out)])
        assert code == 1
        assert text == f"error: [Errno 2] No such file or directory: '{out}'\n"

    @pytest.mark.parametrize("command", ["alpha", "classify"])
    def test_unrenderable_report_is_named(self, command):
        # alpha at (20001, 20001) has more digits than Python converts to a
        # string, so the report fails as it is rendered
        code, text = dispatch([command, "--m", "20001", "--n", "20001"])
        assert code == 1
        assert text.startswith("error: ") and text.count("\n") == 1
        assert "integer string conversion" in text

    def test_plain_mode(self):
        code, text = dispatch(["alpha", "--m", "3", "--n", "3", "--format", "plain"])
        assert code == 0
        assert "alpha = 2" in text

    def test_seventeen_digit_floats(self):
        _, text = dispatch(["solve", "--m", "3", "--n", "3", "--seed", "1"])
        doc = json.loads(text)
        gamma = doc["result"]["gamma"]
        # round-trips exactly through the decimal serialization
        assert complex(gamma[0], gamma[1]) == complex(*json.loads(json.dumps(gamma)))
