"""Self-tests of the benchmark: span arithmetic, exact counts, transparency."""

from __future__ import annotations

import json
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import jobloop  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from exitwalk import harness, samplers  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMALL = {
    "woms": Workload("small-woms", "woms", (0.5, 0.0), 2_000, 2),
    "wos_inversion": Workload("small-inversion", "wos_inversion", (0.5, 0.0), 400, 2),
    "wos_table": Workload("small-table", "wos_table", (0.5, 0.0, 0.0), 2_000, 2, table_count=500),
    "euler": Workload("small-euler", "euler", (0.0, 0.0), 20, 2, h=1e-3),
}


def _span(span_id, start, end, parent=None, thread=0):
    span = spans.Span(span_id, "x", parent, 0, thread)
    span.start, span.end = start, end
    return span


def test_union_merges_overlaps_and_gaps():
    assert spans.union_seconds([]) == 0.0
    assert spans.union_seconds([(4.0, 9.0), (1.0, 6.0), (10.0, 11.0)]) == pytest.approx(9.0)
    assert spans.union_seconds([(0.0, 5.0), (1.0, 2.0)]) == pytest.approx(5.0)


def test_self_time_subtracts_union_of_overlapping_children():
    job = _span(1, 0.0, 10.0)
    worker_a = _span(2, 1.0, 6.0, parent=1, thread=1)
    worker_b = _span(3, 4.0, 9.0, parent=1, thread=2)  # overlaps worker_a
    late = _span(4, 9.5, 12.0, parent=1, thread=2)  # clipped to the parent
    draw = _span(5, 2.0, 3.0, parent=2, thread=1)
    own = spans.self_seconds([job, worker_a, worker_b, late, draw])
    assert own[1] == pytest.approx(10.0 - 8.0 - 0.5)
    assert own[2] == pytest.approx(4.0)
    assert own[3] == pytest.approx(5.0)
    assert own[5] == pytest.approx(1.0)


def test_worker_thread_spans_attach_to_the_job_span():
    tracer = spans.Tracer()

    def work():
        with tracer.span("walkers.woms_batch") as span:
            time.sleep(0.01)
        span.counts = {"steps": np.array([1, 2])}

    with tracer.job(7, "harness.run_experiment") as root:
        threads = [threading.Thread(target=work) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    workers = [s for s in tracer.spans if s.name == "walkers.woms_batch"]
    assert [s.parent for s in workers] == [root.id, root.id]
    assert {s.job for s in tracer.spans} == {7}
    assert len({s.thread for s in workers}) == 2
    busy = spans.layer_figures(tracer.spans)["harness.busy_ratio"]
    assert 0.5 < busy <= 1.0


def test_alive_profile_counts_walkers_per_iteration():
    alive = spans._alive_profile(np.array([1, 3, 3, 2]))
    assert alive.tolist() == [4, 3, 2]


def _traced_job(w: Workload, seed: int, tmp_path):
    tracer = spans.Tracer()
    table = None
    path = tmp_path / "tau1.bin"
    if w.table_count:
        with spans.tracing(tracer, "setup"):
            table = jobloop.build_table(w, seed, path)
    record = jobloop.run_job(w, jobloop.make_config(w, seed, w.trajectories, path), table, tracer, 0, True)
    assert "error" not in record
    return spans.run_figures(tracer.spans, "setup", [0])


@pytest.mark.parametrize("method", sorted(SMALL))
def test_exact_counts_repeat_across_traced_runs(method, tmp_path):
    w = SMALL[method]
    first = _traced_job(w, 11, tmp_path)
    second = _traced_job(w, 11, tmp_path)
    counts = {k: first[k] for k in spans.COUNT_METRICS}
    assert counts == {k: second[k] for k in spans.COUNT_METRICS}
    assert counts["walkers.steps"] > 0 and counts["samplers.variates"] > 0
    if method in ("wos_inversion", "wos_table"):
        assert counts["bessel_hitting.quantiles"] > 0 and counts["specfun.zero_calls"] > 0
    else:
        assert counts["bessel_hitting.term_evals"] == 0


@pytest.mark.parametrize("method", sorted(SMALL))
def test_wrappers_leave_result_document_bit_identical(method, tmp_path):
    w = SMALL[method]
    table = None
    path = tmp_path / "tau1.bin"
    if w.table_count:
        table = jobloop.build_table(w, 3, path)
    config = jobloop.make_config(w, 5, w.trajectories, path)

    def document():
        stats = harness.run_experiment(config, table=table)
        return json.dumps(harness.run_result_document(config, stats), sort_keys=True)

    plain = document()
    tracer = spans.Tracer()
    with spans.tracing(tracer, 0, "harness.run_experiment"):
        traced = document()
    assert traced == plain
    assert any(s.name.startswith("walkers.") for s in tracer.spans)
    assert harness.RngStream is samplers.RngStream  # restored


def test_checks_flag_wrong_estimates():
    w = WORKLOADS["woms-disk"]
    good = {"1": (1.0, 0.0), "x": (0.5, 0.01), "y": (0.0, 0.01), "x2-y2": (0.25, 0.01), "xy": (0.0, 0.01)}
    stats = harness.RunStatistics(
        n=100, mean_time=0.375, var_time=0.1, ci95_time=0.01, mean_steps=30.0, var_steps=4.0,
        wall_seconds=1.0, dirichlet_estimates=good,
    )
    assert jobloop.check_job(w, stats) == []
    stats.mean_time = 0.5
    stats.dirichlet_estimates = dict(good, xy=(0.2, 0.01))
    problems = jobloop.check_job(w, stats)
    assert len(problems) == 2
    stats.mean_time = float("nan")
    assert "non-finite estimate" in jobloop.check_job(w, stats)


def test_printed_metrics_match_benchmark_json():
    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert run.END_TO_END_UNITS == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert run.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in declared["workloads"])
