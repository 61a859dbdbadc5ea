"""Tests for the benchmark's own helpers.

    python3 -m pytest -q perfbench

Workloads are shrunk to one or two rooms here; the properties checked
(tail rule, span arithmetic, failure accounting, wrapper placement, delay
transparency) do not depend on scene size.
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from scenemem import apis, geometry, pipeline  # noqa: E402
from scenemem.backend import BackendRequest  # noqa: E402
from scenemem.scripted import ScriptedBackend  # noqa: E402
from scenemem.synth import generate_scene  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(i, start, end, parent=None):
    return Span(i, f"s{i}", start, end, parent, None, None, None)


# -- tail percentile -------------------------------------------------------

@pytest.mark.parametrize("n, pct, beyond", [(22, 54, 10), (36, 72, 10),
                                            (100, 90, 10), (1000, 99, 10)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(v) for v in range(1, n + 1)]
    got_pct, value, got_beyond = harness.tail_percentile(values)
    assert (got_pct, got_beyond) == (pct, beyond)
    assert value == values[n - beyond - 1]
    # one percentile higher leaves fewer than ten samples beyond it
    assert n - -(-(pct + 1) * n // 100) < 10 or pct == 99


def test_tail_falls_back_to_maximum_with_few_samples():
    assert harness.tail_percentile([3.0, 1.0, 2.0]) == (100, 3.0, 0)


def test_tail_ignores_sample_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 5
    assert harness.tail_percentile(values) == harness.tail_percentile(sorted(values))


# -- span arithmetic --------------------------------------------------------

def test_self_time_subtracts_the_union_of_child_intervals():
    parent = _span(0, 0.0, 10.0)
    kids = [_span(1, 1.0, 3.0, 0), _span(2, 2.0, 4.0, 0),   # overlap: [1, 4]
            _span(3, 6.0, 7.0, 0), _span(4, 9.5, 12.0, 0)]  # clipped to 10
    assert covered(parent, kids) == pytest.approx(3.0 + 1.0 + 0.5)
    own = self_times([parent] + kids)
    assert own[0] == pytest.approx(10.0 - 4.5)
    assert own[1] == pytest.approx(2.0)


def test_self_time_counts_only_direct_children():
    spans = [_span(0, 0.0, 10.0), _span(1, 1.0, 9.0, 0), _span(2, 2.0, 8.0, 1)]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.0, 1: 2.0, 2: 6.0})


def test_tracer_links_nested_spans_and_context():
    tracer = Tracer()
    tracer.scene, tracer.question = 7, 3
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == outer.id and outer.parent is None
    assert (inner.scene, inner.question) == (7, 3)
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- failure accounting ---------------------------------------------------

def test_image_only_non_compliance_is_not_a_failure():
    wl = replace(WORKLOADS["image-only"], rooms=1, scenes=1)
    run = harness.run_workload(wl, seed=0, seconds=harness.NOMINAL_SECONDS,
                               traced=False)
    e2e = harness.end_to_end(run)
    assert e2e["compliance_rate"][0] == 0.0
    assert e2e["api_calls_mean"][0] == 20
    assert run.failures == []
    assert e2e["failed_share"][0] == 0.0


def test_a_failed_build_counts_as_failed():
    wl = replace(WORKLOADS["noisy-repair"], rooms=1, scenes=1)
    p = harness.execute_pass(wl, 0, 1, traced=False)
    p.scenes[0].error = "forced"
    p.failures.clear()
    harness.check_pass(p, harness.EngineConfig())
    run = harness.Run(wl, 0, [p.setup_s], [], [p], [])
    assert run.failed == 1 and run.failures[0][0] == ("build", p.scenes[0].seed)


# -- wrapper placement -----------------------------------------------------

def test_geometry_wrappers_reach_callers_that_import_by_name():
    wl = replace(WORKLOADS["large-clean"], rooms=2)
    p = harness.execute_pass(wl, 0, 1, traced=True)
    values = layers.layer_metrics(p.tracer, p.wire)
    assert values["geometry.largest_cluster.calls"][0] > 0
    assert values["geometry.backproject_s"][0] > 0
    assert values["pipeline.build_ssm.self_s"][0] > 0
    # wrappers are gone after the pass
    assert apis.largest_cluster is geometry.largest_cluster
    assert pipeline.backproject is geometry.backproject


def test_image_only_loop_phase_runs_no_geometry():
    wl = replace(WORKLOADS["image-only"], rooms=1, scenes=1)
    p = harness.execute_pass(wl, 0, 1, traced=True)
    cov = layers.coverage(p.tracer)
    assert cov["loop_geometry_calls"] == 0
    assert any(s.name.startswith("geometry.") for s in p.tracer.spans)
    assert layers.layer_metrics(p.tracer, p.wire)["loop.steps"][0] > 0


def test_tracing_does_not_change_outputs():
    wl = replace(WORKLOADS["noisy-repair"], rooms=1, scenes=1)
    plain = harness.execute_pass(wl, 3, 1, traced=False)
    traced = harness.execute_pass(wl, 3, 1, traced=True)
    assert plain.failures == traced.failures == []
    assert plain.digest == traced.digest


# -- the latency-injecting backend -----------------------------------------

def test_delay_leaves_outputs_unchanged():
    # with misses, so a delay that reordered backend calls would show
    wl = replace(WORKLOADS["vlm-latency"], rooms=1, scenes=1, miss_prob=0.3,
                 delay_s=0.001, delay_s_per_kib=0.0001)
    delayed = harness.execute_pass(wl, 0, 1, traced=False)
    plain = harness.execute_pass(replace(wl, delay_s=0.0, delay_s_per_kib=0.0),
                                 0, 1, traced=False)
    assert delayed.digest == plain.digest
    assert delayed.wire.delay_s > 0 and plain.wire.delay_s == 0


def test_retries_pay_the_delay_and_count_as_round_trips():
    scene = generate_scene(1, 2, 0)
    inner = ScriptedBackend(scene)
    inner.fail("fov", times=1)
    stats = harness.WireStats()
    backend = harness.MeteredBackend(inner, stats, delay_s=0.002)
    backend.call(BackendRequest(kind="fov", frame_id=0))
    assert stats.round_trips["fov"] == 2
    assert stats.delay_s >= 0.004
    assert backend.frame_size(0) == inner.frame_size(0)
