"""Per-layer metrics of the traced run: which engine functions are wrapped,
how their spans and counters become metrics, and which end-to-end metric
each layer is expected to move."""

from __future__ import annotations

from collections import defaultdict

from scenemem import (apis, backend, geometry, graph, loop, memory, pipeline,
                      scripted, spatial, synth)
from scenemem.apis import API_KINDS
from scenemem.backend import REQUEST_KINDS

from spans import patched, self_times, spanned, within

# layer -> (end-to-end metrics it should move, on which workloads)
LAYER_TARGETS = {
    "synth": "setup_s on large-clean; little on 2-room scenes",
    "geometry": "build_s/eval_s on large-clean, answer_tail_ms on noisy-repair; "
                "0 in the image-only loop phase",
    "graph": "build_s on large-clean, answer_tail_ms on noisy-repair",
    "spatial": "build_s on large-clean",
    "pipeline": "build_s on large-clean",
    "memory": "answer_p50_ms/answer_tail_ms/eval_s on image-only and noisy-repair; "
              "never build_s",
    "apis": "answer_p50_ms/answer_tail_ms/eval_s on image-only and noisy-repair",
    "loop": "answer_* on image-only",
    "backend": "counts and bytes: backend_calls/prompt_kib_per_question everywhere; "
               "wait_s: eval_s on vlm-latency",
    "scripted": "stand-in model time; a gain here is not an engine gain",
    "metrics": "eval_s (scoring share)",
}


def _count_cluster(tracer, args, result):
    tracer.count("geometry.largest_cluster.points_in", len(args[0]))
    tracer.count("geometry.largest_cluster.points_kept", len(result))


def _count_associate(tracer, args, result):
    detections, tracks = args[0], args[1]
    tracer.count("graph.associate.pairs", len(detections) * len(tracks))
    tracer.count("graph.associate.detections", len(detections))
    tracer.count("graph.associate.merged",
                 sum(1 for t in result.values() if t is not None))


def _count_rejected(tracer, args, result):
    tracer.count("graph.add_edges.rejected", len(result.rejected))


def _count_serialized(tracer, args, result):
    tracer.count("memory.serialize.bytes", len(result[0].encode("utf-8")))


def _count_patch(tracer, args, result):
    report = result[1]
    tracer.count("apis.patch.applied")
    tracer.count("apis.patch.created", len(report.created))
    tracer.count("apis.patch.merged", len(report.merged))
    tracer.count("apis.patch.notes_added", report.notes_added)
    tracer.count("apis.patch.failed", report.failure is not None)
    tracer.count("apis.patch.useful", bool(report.created or report.notes_added))


def _count_call(tracer, args, result):
    request = args[1]
    tracer.count("backend.call_invocations")
    if request.kind == "reason" and "violations" in request.payload:
        tracer.count("loop.reprompts")


def instrument(tracer):
    """Context manager that wraps every traced layer function."""
    functions = [
        (geometry.backproject, "geometry.backproject", None),
        (geometry.voxel_downsample, "geometry.voxel_downsample", None),
        (geometry.largest_cluster, "geometry.largest_cluster", _count_cluster),
        (geometry.geometric_overlap, "geometry.geometric_overlap", None),
        (geometry.project, "geometry.project", None),
        (graph.associate, "graph.associate", _count_associate),
        (graph.merge_detection, "graph.merge_detection", None),
        (graph.consolidate_captions, "graph.consolidate_captions", None),
        (spatial.detect_floors, "spatial.detect_floors", None),
        (spatial.segment_rooms, "spatial.segment_rooms", None),
        (spatial.distance_transform, "spatial.distance_transform", None),
        (spatial.label_rooms, "spatial.label_rooms", None),
        (spatial.build_nav_entry, "spatial.build_nav_entry", None),
        (pipeline.build_ssm, "pipeline.build_ssm", None),
        (memory.serialize, "memory.serialize", _count_serialized),
        (apis.apply_patch, "apis.apply_patch", _count_patch),
        (loop.run_episode_batch, "loop.run_episode_batch", None),
        (backend.validate_response, "backend.validate", None),
    ]
    methods = [
        (synth.SyntheticScene, "render", "synth.render", None),
        (synth.SyntheticScene, "gt_detections", "synth.gt_detections", None),
        (graph.SceneGraph, "add_edges", "graph.add_edges", _count_rejected),
        (memory.SceneMemory, "copy", "memory.copy", None),
        (memory.SceneMemory, "validate", "memory.validate", None),
        (apis.ApiExecutor, "execute",
         lambda self, call, ssm: f"apis.execute.{call.kind}", None),
        (backend.Backend, "call",
         lambda self, request: f"backend.call.{request.kind}", _count_call),
        (scripted.ScriptedBackend, "raw_call",
         lambda self, request: f"scripted.raw_call.{request.kind}", None),
    ]
    replacements = [(None, fn, spanned(tracer, fn, name, after))
                    for fn, name, after in functions]
    replacements += [(cls, attr, spanned(tracer, cls.__dict__[attr], name, after))
                     for cls, attr, name, after in methods]
    return patched(replacements)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, wire) -> dict[str, tuple[float, str]]:
    """Metric name -> (value, unit) for one traced pass.

    ``<name>_s`` is the inclusive wall time of the spans of that name;
    ``.self_s`` subtracts the time child spans cover. ``wire`` holds the
    transport counters the benchmark's backend wrapper keeps per pass.
    """
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        calls[s.name] += 1
    own = self_times(spans)
    self_of = defaultdict(float)
    for s in spans:
        self_of[s.name] += own[s.id]
    c = tracer.counts

    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    put("synth.render_s", total["synth.render"], "s")
    put("synth.gt_detections_s", total["synth.gt_detections"], "s")

    put("geometry.backproject_s", total["geometry.backproject"], "s")
    put("geometry.voxel_downsample_s", total["geometry.voxel_downsample"], "s")
    put("geometry.largest_cluster_s", total["geometry.largest_cluster"], "s")
    put("geometry.largest_cluster.calls", calls["geometry.largest_cluster"], "count")
    put("geometry.largest_cluster.points_in",
        c["geometry.largest_cluster.points_in"], "count")
    put("geometry.largest_cluster.kept_ratio",
        _ratio(c["geometry.largest_cluster.points_kept"],
               c["geometry.largest_cluster.points_in"]), "share")
    put("geometry.geometric_overlap_s", total["geometry.geometric_overlap"], "s")
    put("geometry.geometric_overlap.calls", calls["geometry.geometric_overlap"],
        "count")
    put("geometry.project_s", total["geometry.project"], "s")

    put("graph.associate_s", total["graph.associate"], "s")
    put("graph.associate.pairs", c["graph.associate.pairs"], "count")
    put("graph.merge_ratio", _ratio(c["graph.associate.merged"],
                                    c["graph.associate.detections"]), "share")
    put("graph.merge_detection_s", total["graph.merge_detection"], "s")
    put("graph.consolidate_captions_s", total["graph.consolidate_captions"], "s")
    put("graph.add_edges.rejected", c["graph.add_edges.rejected"], "count")

    for fn in ("detect_floors", "segment_rooms", "distance_transform",
               "label_rooms", "build_nav_entry"):
        put(f"spatial.{fn}_s", total[f"spatial.{fn}"], "s")

    put("pipeline.build_ssm.self_s", self_of["pipeline.build_ssm"], "s")
    put("pipeline.frames_skipped",
        sum(1 for s in spans if s.name == "backend.call.detect"
            and s.phase == "build" and s.error is not None), "count")

    put("memory.serialize_s", total["memory.serialize"], "s")
    put("memory.serialize.calls", calls["memory.serialize"], "count")
    put("memory.serialize.kib", c["memory.serialize.bytes"] / 1024, "KiB")
    put("memory.copy_s", total["memory.copy"], "s")
    put("memory.copy.calls", calls["memory.copy"], "count")
    put("memory.validate_s", total["memory.validate"], "s")

    put("apis.execute_s", sum(total[f"apis.execute.{k}"] for k in API_KINDS), "s")
    for kind in API_KINDS:
        put(f"apis.execute_s.{kind}", total[f"apis.execute.{kind}"], "s")
    put("apis.apply_patch_s", total["apis.apply_patch"], "s")
    for key in ("created", "merged", "notes_added", "failed"):
        put(f"apis.patch.{key}", c[f"apis.patch.{key}"], "count")
    put("apis.useful_patch_ratio",
        _ratio(c["apis.patch.useful"], c["apis.patch.applied"]), "share")

    put("loop.answer.self_s", self_of["loop.answer"], "s")
    put("loop.steps", c["loop.steps"], "count")
    put("loop.reprompts", c["loop.reprompts"], "count")

    for kind in REQUEST_KINDS:
        put(f"backend.call_s.{kind}", total[f"backend.call.{kind}"], "s")
        put(f"backend.calls.{kind}", wire.round_trips[kind], "count")
        put(f"backend.request_kib.{kind}", wire.request_bytes[kind] / 1024, "KiB")
        put(f"backend.response_kib.{kind}", wire.response_bytes[kind] / 1024, "KiB")
    put("backend.retries",
        sum(wire.round_trips.values()) - c["backend.call_invocations"], "count")
    put("backend.errors", sum(1 for s in spans if s.name.startswith("backend.call.")
                              and s.error is not None), "count")
    put("backend.validate_s", total["backend.validate"], "s")
    put("backend.wait_s", wire.wait_s, "s")

    for kind in REQUEST_KINDS:
        put(f"scripted.raw_call_s.{kind}", total[f"scripted.raw_call.{kind}"], "s")

    put("metrics.score_s", total["metrics.score"], "s")
    return out


# Spans whose self time is orchestration rather than a named layer.
_ORCHESTRATION = ("eval", "pipeline.build_ssm", "loop.run_episode_batch",
                  "loop.answer")


def coverage(tracer) -> dict[str, float]:
    """Share of build_s and eval_s that named layer spans cover, and the
    geometry time and calls spent inside the loop phase."""
    spans = tracer.spans
    own = self_times(spans)
    build = [s for s in spans if s.name == "pipeline.build_ssm"]
    evals = [s for s in spans if s.name == "eval"]
    build_total = sum(s.duration for s in build)
    eval_total = sum(s.duration for s in evals)
    eval_uncovered = sum(own[s.id] for s in spans if s.name in _ORCHESTRATION)
    loop_geometry = [s for s in within(spans, "loop.run_episode_batch")
                     if s.name.startswith("geometry.")]
    return {
        "build_covered": 1 - _ratio(sum(own[s.id] for s in build), build_total),
        "eval_covered": 1 - _ratio(eval_uncovered, eval_total),
        "loop_geometry_s": sum(s.duration for s in loop_geometry),
        "loop_geometry_calls": len(loop_geometry),
    }
