"""``scripts/bench_pairs.py``, the runner behind every benchmark record: the
statistics ``summary`` states per metric, and the run order and per-run
bookkeeping of ``measure``, with ``run_once`` replaced so that no benchmark
runs."""

import importlib.util
import itertools
import pathlib

import numpy as np
import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# parent and change runs of one metric, pair by pair: the change reads
# higher in pairs 1 and 3 and ties in pairs 2 and 4
RUNS = {"parent": [1.0, 2.0, 3.0, 4.0], "change": [2.0, 2.0, 5.0, 4.0]}


class TestSummary:
    def test_quartiles_and_runs(self):
        out = bench_pairs.summary(RUNS, "higher", 0.25)
        assert out["parent"] == pytest.approx({"q1": 1.75, "median": 2.5, "q3": 3.25})
        assert out["change"] == pytest.approx({"q1": 2.0, "median": 3.0, "q3": 4.25})
        assert out["parent_iqr"] == pytest.approx(1.5)
        assert out["runs"] == RUNS and out["bound"] == 0.25 and out["better"] == "higher"

    def test_higher_is_better(self):
        out = bench_pairs.summary(RUNS, "higher", 0.25)
        # ties count for neither side
        assert (out["change_wins"], out["change_losses"]) == (2, 0)
        assert out["ratio"] == pytest.approx(1.2)
        # a higher median of a higher-is-better metric is no worsening
        assert out["relative_worsening"] == pytest.approx(-0.2)

    def test_lower_is_better(self):
        out = bench_pairs.summary(RUNS, "lower", 0.1)
        assert (out["change_wins"], out["change_losses"]) == (0, 2)
        assert out["ratio"] == pytest.approx(1.2)
        assert out["relative_worsening"] == pytest.approx(0.2)

    def test_zero_parent_median_has_no_ratio(self):
        out = bench_pairs.summary({"parent": [0.0, 0.0, 1.0], "change": [1.0, 0.0, 0.0]}, "higher", 0.03)
        assert out["ratio"] is None and out["relative_worsening"] is None
        assert (out["change_wins"], out["change_losses"]) == (1, 1)

    def test_quartiles_match_numpy(self):
        rng = np.random.default_rng(5)
        runs = {side: rng.standard_normal(7).tolist() for side in bench_pairs.SIDES}
        out = bench_pairs.summary(runs, "lower", 0.25)
        for side in bench_pairs.SIDES:
            stated = [out[side][key] for key in ("q1", "median", "q3")]
            assert stated == np.percentile(runs[side], [25, 50, 75]).tolist()


class TestMeasure:
    METRICS = [{"name": "certs_per_s", "better": "higher", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]

    @staticmethod
    def fake_runs(monkeypatch, failed_run=None):
        # run_once replaced: run k (in call order) attempts 100 + k
        # certificates and reads certs_per_s 10 + k; the run numbered
        # ``failed_run`` fails its gate and exits 1
        calls = []
        count = itertools.count()

        def run_once(tree, workload, seed, seconds):
            k = next(count)
            calls.append((tree, workload, seed, seconds))
            bad = k == failed_run
            doc = {
                "correct": not bad, "exit": int(bad), "failed": int(bad), "attempted": 100 + k,
                "metrics": {"certs_per_s": {"value": 10.0 + k}, "peak_rss_mb": {"value": 40.0 + k}},
            }
            return doc, f"host {k}"

        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        return calls

    def test_parent_runs_first_in_odd_pairs(self, monkeypatch):
        calls = self.fake_runs(monkeypatch)
        trees = {"parent": "/p", "change": "/c"}
        bench_pairs.measure(trees, "mc-gauss-3x3", 777, 3, 35, self.METRICS)
        assert [tree for tree, *_ in calls] == ["/p", "/c", "/c", "/p", "/p", "/c"]
        assert {tuple(rest) for _, *rest in calls} == {("mc-gauss-3x3", 777, 35)}

    def test_each_run_is_recorded_on_its_side(self, monkeypatch):
        self.fake_runs(monkeypatch, failed_run=2)
        trees = {"parent": "/p", "change": "/c"}
        entry, host = bench_pairs.measure(trees, "mc-gauss-3x3", 777, 3, 35, self.METRICS)
        # call order p0 c1 | c2 p3 | p4 c5; run 2 is the change's second
        assert entry["pairs"] == 3
        assert entry["attempted"] == {"parent": [100, 103, 104], "change": [101, 102, 105]}
        assert entry["exit"] == {"parent": [0, 0, 0], "change": [0, 1, 0]}
        assert entry["failed"] == {"parent": [0, 0, 0], "change": [0, 1, 0]}
        assert entry["all_correct"] is False
        assert host == "host 5"
        certs = entry["metrics"]["certs_per_s"]
        assert certs["runs"] == {"parent": [10.0, 13.0, 14.0], "change": [11.0, 12.0, 15.0]}
        assert (certs["change_wins"], certs["change_losses"]) == (2, 1)
        rss = entry["metrics"]["peak_rss_mb"]
        assert (rss["change_wins"], rss["change_losses"]) == (1, 2)

    def test_all_correct_when_every_gate_passes(self, monkeypatch):
        self.fake_runs(monkeypatch)
        entry, _ = bench_pairs.measure({"parent": "/p", "change": "/c"}, "certify-5x5", 4242, 2, 35, self.METRICS)
        assert entry["all_correct"] is True
        assert entry["exit"] == {"parent": [0, 0], "change": [0, 0]}
