"""Tests of the benchmark's own code: percentile rule, self-time
arithmetic, correctness gate, host-speed scaling and metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import bench  # noqa: E402
from tracing import Span, Tracer, nesting_problems, percentile, samples_beyond, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


# -- percentile rule -------------------------------------------------------------

def test_nearest_rank_percentile():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile(xs, 100) == 100
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 90) == 7.0
    # integer arithmetic: 0.9 * 100 would round up to rank 91 in floats
    assert percentile(xs[::-1], 90) == 90


def test_p90_needs_100_samples_for_10_beyond_it():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1000, 90) == 100
    assert samples_beyond(12, 50) == 6


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


# -- self times --------------------------------------------------------------------

def _spans():
    # certify [0, 10] > solve_all [1, 8] > track_path [2, 4], [4, 7]; psi [8.5, 9]
    return [
        Span(0, "certifier.certify", 0.0, 10.0, None, 0),
        Span(1, "solver.solve_all", 1.0, 8.0, 0, 0),
        Span(2, "solver.track_path", 2.0, 4.0, 1, 0),
        Span(3, "solver.track_path", 4.0, 7.0, 1, 0),
        Span(4, "tensorcore.psi", 8.5, 9.0, 0, 0),
        Span(5, "certifier.certify", 11.0, 12.0, None, 1),
    ]


def test_self_time_is_span_minus_children():
    own = self_times(_spans())
    assert own == {0: 10.0 - 7.0 - 0.5, 1: 7.0 - 5.0, 2: 2.0, 3: 3.0, 4: 0.5, 5: 1.0}


def test_self_times_under_root_sum_to_root():
    own = self_times(_spans())
    assert sum(own[i] for i in range(5)) == pytest.approx(10.0)
    assert sum(own.values()) == pytest.approx(10.0 + 1.0)


def test_nesting_check_passes_nested_spans_and_trips_on_broken_ones():
    assert nesting_problems(_spans()) == []
    outside = _spans()
    outside[4].end = 10.5  # psi ends after its certify span
    assert any("outside its parent" in e for e in nesting_problems(outside))
    overlap = _spans()
    overlap[3].start = 3.0  # second track_path starts inside the first
    errors = nesting_problems(overlap)
    assert len(errors) == 1 and "overlaps" in errors[0]
    orphan = _spans()
    orphan[4].parent = 9
    assert any("no parent" in e for e in nesting_problems(orphan))


def test_tracer_nests_spans_and_counts_in_innermost():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    class Mod:
        @staticmethod
        def leaf(x):
            Mod.counted()
            return x + 1

        @staticmethod
        def outer(x):
            Mod.counted()
            return Mod.leaf(x) * 2

        @staticmethod
        def counted():
            return None

    with tr:
        tr.span(Mod, "outer", "mod.outer")
        tr.span(Mod, "leaf", "mod.leaf")
        tr.count(Mod, "counted", "mod.counted")
        tr.cert = 3
        assert Mod.outer(1) == 4
    outer, leaf = tr.spans
    assert (outer.parent, leaf.parent, leaf.cert) == (None, 0, 3)
    assert outer.counts == {"mod.counted": 1} and leaf.counts == {"mod.counted": 1}
    assert outer.start < leaf.start < leaf.end < outer.end
    assert Mod.outer(1) == 4 and len(tr.spans) == 2  # restored on exit


# -- correctness gate ------------------------------------------------------------

def _cert(index, verdict, dim_u, real, n_paths=6, failed=0):
    kept = n_paths - failed
    report = bench.PathReport(n_paths, kept, real, ["PATH_STALL"] * failed)
    return bench.Cert(index, 0.01, verdict, dim_u, real, n_paths, failed, [report])


def test_gate_passes_consistent_certificates():
    w = bench.WORKLOADS["mc-gauss-3x3"]
    certs = [_cert(0, "RANK_GT_P", 2, 2), _cert(1, "RANK_P", 5, 6), _cert(2, "INCONCLUSIVE", 2, 2, failed=1)]
    expected = [[c.verdict, c.dim_u, c.real_points, c.n_paths] for c in certs]
    assert bench.check(w, bench.DEFAULT_SEED, certs, expected) == []


def test_gate_trips_on_doctored_expected_verdict_and_names_certificate():
    w = bench.WORKLOADS["mc-gauss-3x3"]
    certs = [_cert(0, "RANK_GT_P", 2, 2), _cert(1, "RANK_P", 5, 6)]
    expected = [["RANK_GT_P", 2, 2, 6], ["RANK_GT_P", 5, 6, 6]]
    errors = bench.check(w, bench.DEFAULT_SEED, certs, expected)
    assert len(errors) == 1
    assert "certificate 1 (input 1)" in errors[0] and "RANK_P" in errors[0]


def test_recorded_expectations_trip_the_gate_when_doctored():
    w = bench.WORKLOADS["mc-perturb-3x5"]
    expected = bench.load_expected(w.name)
    certs = [bench.Cert(i, 0.01, *row[:3], row[3], 0, [bench.PathReport(row[3], row[3], row[2], [])])
             for i, row in enumerate(expected[:5])]
    assert bench.check(w, bench.DEFAULT_SEED, certs, expected) == []
    doctored = [list(r) for r in expected]
    doctored[3][0] = "RANK_P"
    errors = bench.check(w, bench.DEFAULT_SEED, certs, doctored)
    assert len(errors) == 1 and "certificate 3" in errors[0]


@pytest.mark.parametrize("cert, fragment", [
    (_cert(0, "RANK_P", 4, 6), "RANK_P with dim_u 4"),
    (_cert(0, "RANK_GT_P", 2, 2, failed=1), "failed paths"),
    (_cert(0, "RANK_GT_P", 3, 2), "dim_u 3 with 2 real points"),
    (_cert(0, "RANK_GT_P", 2, 2, n_paths=7), "n_paths 7"),
    (_cert(0, "RANK_GT_P", 3, 3), "must pair up"),
])
def test_gate_invariants(cert, fragment):
    errors = bench.check(bench.WORKLOADS["mc-gauss-3x3"], 5, [cert], None)
    assert any(fragment in e for e in errors), errors


def test_gate_checks_path_conservation():
    cert = _cert(0, "RANK_GT_P", 2, 2)
    cert.reports[0].kept = 4
    errors = bench.check(bench.WORKLOADS["mc-gauss-3x3"], 5, [cert], None)
    assert any("path conservation" in e for e in errors)


def test_gate_counts_cli_error_exits_as_findings_except_chart_violations():
    w = bench.WORKLOADS["certify-5x5"]
    crash = bench.Cert(0, 0.01, None, error="exit 2: error: DegenerateStartError: x")
    chart = bench.Cert(1, 0.01, None, error="exit 2: error: ChartViolationError: x")
    errors = bench.check(w, 5, [crash, chart], None)
    assert len(errors) == 1 and "certificate 0" in errors[0] and "CLI error exit" in errors[0]


def test_cli_error_exits_are_not_completed_certificates():
    ok = bench.Cert(0, 1.0, "RANK_GT_P", 2, 2, 70, 0)
    crash = bench.Cert(1, 0.001, None, error="exit 1: error: x")
    m = bench.end_to_end([ok, crash, crash], 0.5)
    assert m["certs_per_s"] == pytest.approx(1 / 1.002)
    assert m["paths_per_s"] == pytest.approx(70 / 1.002)
    assert m["certify_ms.p50"] == pytest.approx(1000.0)


def test_end_to_end_times_are_scaled_to_the_reference_host():
    certs = [bench.Cert(i, 0.1, "RANK_P", 3, 3, 6, 0) for i in range(4)]
    plain, scaled = bench.end_to_end(certs, 0.5), bench.end_to_end(certs, 0.5, 2.0)
    assert scaled["certs_per_s"] == pytest.approx(plain["certs_per_s"] / 2)
    assert scaled["paths_per_s"] == pytest.approx(plain["paths_per_s"] / 2)
    assert scaled["certify_ms.p50"] == pytest.approx(2 * plain["certify_ms.p50"]) == pytest.approx(200.0)


def test_host_speed_probe_runs_whole_units_and_scales_to_the_reference():
    speed = bench.HostSpeed()
    spent = speed.probe(0.0)
    assert speed.units == 1 and speed.seconds == spent > 0
    speed.probe(0.01)
    assert speed.units > 1 and speed.seconds >= 0.01
    assert speed.scale == pytest.approx(bench.REF_UNIT_MS / (speed.seconds / speed.units * 1e3))
    assert bench.calibration_unit() == bench.calibration_unit()


def test_gate_paper_invariants_on_other_seeds():
    perturb = bench.WORKLOADS["mc-perturb-3x5"]
    errors = bench.check(perturb, 5, [_cert(0, "RANK_P", 9, 9, n_paths=15)], None)
    assert any("forbids RANK_P" in e for e in errors)
    gauss = bench.WORKLOADS["mc-gauss-3x3"]
    only_gt = [_cert(i, "RANK_GT_P", 2, 2) for i in range(100)]
    assert any("without both" in e for e in bench.check(gauss, 5, only_gt, None))
    assert bench.check(gauss, 5, only_gt[:99], None) == []


# -- metric names and the benchmark description ---------------------------------------

def test_metric_names_are_well_formed():
    for name in list(bench.END_TO_END) + list(bench.PER_LAYER) + list(bench.WORKLOADS):
        assert NAME.match(name), name


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    for m in doc["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_traced_certificates_nest_and_count_exactly(tmp_path):
    w = bench.WORKLOADS["mc-gauss-3x3"]
    runs = []
    for _ in range(2):
        tracer = Tracer()
        certs = bench.Runner(w, 3, str(tmp_path)).certify(lambda cs, _: len(cs) >= 3, tracer)
        runs.append(bench.per_layer(tracer.spans, certs, 0.0))
        assert bench.check(w, 3, certs, None) == []
        assert nesting_problems(tracer.spans) == []
    for key in ("solver.track_path.calls_per_cert", "numpy.linalg.solve.calls_per_path",
                "numpy.tensordot.calls_per_path", "tensorcore.psi.calls"):
        assert runs[0][key] == runs[1][key] > 0
