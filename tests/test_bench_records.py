"""Every committed benchmark record (``BENCH_*.json`` at the repository
root) has the shape a speed claim is read from: what changed, how it was
run and on what, and per workload and seed the paired runs of parent and
change whose medians, quartiles and wins it states."""

import json
import pathlib

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"change", "command", "parent", "host", "how_read", "workloads"}
SIDES = ("parent", "change")


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_paired_runs_and_their_summaries(path):
    doc = json.loads(path.read_text())
    assert KEYS <= set(doc), KEYS - set(doc)
    assert doc["workloads"]
    for workload, seeds in doc["workloads"].items():
        assert seeds, workload
        for seed, entry in seeds.items():
            where = f"{workload} seed {seed}"
            pairs = entry["pairs"]
            assert isinstance(pairs, int) and pairs >= 1, where
            assert entry["metrics"], where
            for name, metric in entry["metrics"].items():
                runs = metric["runs"]
                assert all(len(runs[side]) == pairs for side in SIDES), (where, name)
                for side in SIDES:
                    stated = [metric[side][key] for key in ("q1", "median", "q3")]
                    assert np.allclose(stated, np.percentile(runs[side], [25, 50, 75])), (where, name, side)
                assert np.isclose(metric["parent_iqr"], metric["parent"]["q3"] - metric["parent"]["q1"]), (where, name)
                sign = {"higher": 1, "lower": -1}[metric["better"]]
                gain = sign * (np.array(runs["change"]) - np.array(runs["parent"]))
                wins = (metric["change_wins"], metric["change_losses"])
                assert wins == (np.sum(gain > 0), np.sum(gain < 0)), (where, name)
