"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import math
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import replay
import run
import stats
import workloads


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "t"}


def test_summarize_median_and_count():
    s = stats.summarize([3.0, 1.0, 2.0, 10.0])
    assert s["median"] == 2.5
    assert s["n"] == 4
    assert s["tail"] is None


def test_summarize_reports_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 101))
    s = stats.summarize(values)
    # 100 samples: 10 lie beyond p90, 1 beyond p99.
    assert s["tail"]["percentile"] == 90.0
    assert s["tail"]["value"] == pytest.approx(90.1)
    assert stats.summarize(range(20))["tail"]["percentile"] == 50.0
    assert stats.summarize(range(19))["tail"] is None


def test_summarize_rejects_empty_sample():
    with pytest.raises(ValueError):
        stats.summarize([])


def test_percentile_interpolates():
    assert stats.percentile([0.0, 10.0], 25) == 2.5
    assert stats.percentile([5.0], 99.9) == 5.0


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 1.0, 0.98, 1.02, 1.01]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q3 - q1) / q2


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("root", 0.0, 10.0),
        span("child", 1.0, 4.0, parent=0),
        span("grandchild", 2.0, 3.0, parent=1),
        span("child", 5.0, 6.0, parent=0),
    ]
    assert stats.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])
    by_name = stats.self_time_by_name(spans)
    assert by_name["child"] == {"self_s": pytest.approx(3.0), "calls": 2}
    # Self times of a tree add up to the time its top level covers.
    assert sum(stats.self_times(spans)) == pytest.approx(stats.top_level_duration(spans))


def test_self_time_counts_overlapping_children_once():
    spans = [span("p", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(4.0)


def test_self_time_clips_children_to_the_parent():
    spans = [span("p", 0.0, 2.0), span("c", 1.0, 3.0, 0)]
    assert stats.self_times(spans)[0] == pytest.approx(1.0)


def test_top_level_duration_ignores_nested_and_merges_gaps():
    spans = [span("a", 0.0, 1.0), span("b", 0.5, 0.7, 0), span("c", 2.0, 2.5)]
    assert stats.top_level_duration(spans) == pytest.approx(1.5)


def test_tracer_records_parents_in_nesting_order():
    tracer = stats.Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(s["name"], s["parent"], s["run"]) for s in tracer.spans] == [
        ("outer", None, "run-1"),
        ("inner", 0, "run-1"),
        ("next", None, "run-1"),
    ]
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_copies_per_s():
    assert stats.copies_per_s(3_500_000, 2, 7.0) == 1_000_000.0
    assert stats.rate(0, 0.0) == 0.0
    with pytest.raises(ValueError):
        stats.rate(5, 0.0)


def test_times_scale_by_the_yardstick_run_next_to_them():
    # The second execution ran while the host was at half the nominal speed.
    assert stats.at_yardstick_speed([7.0, 14.0], [1.0, 2.0], 1.0) == [7.0, 7.0]
    # A third value past the last yardstick takes the last one.
    assert stats.at_yardstick_speed([1.0, 1.0, 3.0], [0.5, 2.0], 1.0) == [2.0, 0.5, 1.5]
    with pytest.raises(ValueError):
        stats.at_yardstick_speed([1.0], [], 1.0)


def test_hoeffding_width_meets_its_failure_probability():
    w = workloads.hoeffding_width(10_000, 1.0, 1e-9)
    assert 2 * math.exp(-2 * 10_000 * w * w) == pytest.approx(1e-9)
    assert workloads.hoeffding_width(100, 2.0, 0.1) == pytest.approx(2 * workloads.hoeffding_width(100, 1.0, 0.1))
    assert workloads.hoeffding_width(0, 1.0, 0.1) == math.inf


def test_every_declared_metric_is_one_the_benchmark_emits():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    # degraded-transcript-4x4 is run by hand only (see README.md).
    assert [w["name"] for w in spec["workloads"]] == [w for w in workloads.WORKLOADS if w != "degraded-transcript-4x4"]
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == run.PER_LAYER_UNITS


def test_estimator_checks_separate_failures_from_completeness_excursions():
    class Params:
        f_in, p_samp, tr_rho_o10 = 1.0, 0.5, 0.5 + 0j

    counters = {"n_in_plus": 400_000, "n_clock_minus": 400_000, "n_x": 400_000, "n_y": 400_000}

    def report(f_in_m, p_samp_m, o10):
        return {"counters": counters, "f_in_m": f_in_m, "p_samp_m": p_samp_m,
                "o10_re": o10.real, "o10_im": o10.imag}

    assert workloads.estimator_failures(report(1.0, 0.5004, 0.5005 + 0.001j), Params) == ([], True)
    # |o10| off by 0.002: beyond the 0.0015 the completeness bound assumes,
    # well inside the 1e-9 Hoeffding width.
    assert workloads.estimator_failures(report(1.0, 0.5, 0.498 + 0j), Params) == ([], False)
    failures, inside = workloads.estimator_failures(report(0.97, 0.5, 0.5 + 0j), Params)
    assert len(failures) == 1 and failures[0].startswith("f_in_m") and not inside


def test_replay_mirrors_the_current_cli_source():
    sys.path.insert(0, str(run.SRC_DIR))
    from fklab import cli

    assert replay.source_drift(cli) == []
    changed = SimpleNamespace(cmd_run=replay.main, cmd_echo_check=cli.cmd_echo_check,
                              cmd_verify_bounds=cli.cmd_verify_bounds)
    assert replay.source_drift(changed) == ["cmd_run"]
