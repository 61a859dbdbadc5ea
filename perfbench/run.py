"""scenemem benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload large-clean --seed 1 --seconds 45 --trace 0

Run from the repository root. ``--trace 0`` times the workload untraced and
prints every end-to-end metric; ``--trace 1`` adds traced passes and prints
every per-layer metric, span coverage and the tracing overhead. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics that ``BENCHMARK.json`` lists for the mode. The
exit code is 1 when an output check fails and 2 on a usage or set-up error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

# One thread: numpy's BLAS pool would otherwise start workers.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        _fail("--seed must be >= 0 and --seconds > 0")
    return args


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_end_to_end(run, e2e) -> None:
    from harness import tail_percentile

    wl = run.workload
    timed = run.untraced
    print("end-to-end metrics (timings are medians over the untraced set-ups and "
          "passes):")
    for name, (value, unit) in e2e.items():
        note = ""
        if name == "answer_tail_ms":
            samples = [t for p in timed for t in p.latencies]
            pct, _, beyond = tail_percentile(samples)
            note = f"  (p{pct} of {len(samples)} samples, {beyond} beyond it)"
        print(f"  {name:<26} {_fmt(value):>12} {unit}{note}")
    print("  per pass: eval_s " + ", ".join(_fmt(p.eval_s) for p in timed)
          + "; set-up " + ", ".join(_fmt(t) for t in run.setup_times))
    loop_share = statistics.median(p.loop_s / p.eval_s for p in timed)
    print(f"  loop phase share of eval_s: {loop_share:.1%}")
    if wl.name == "large-clean":
        verdict = "holds" if loop_share < 0.15 else "does NOT hold"
        print(f"separation: loop phase < 15% of eval_s on large-clean: {verdict}")
    if wl.delay_s or wl.delay_s_per_kib:
        wait = statistics.median(p.wire.wait_s / p.eval_s for p in timed)
        verdict = "holds" if wait >= 2 / 3 else "does NOT hold"
        print(f"separation: backend.wait_s is {wait:.1%} of eval_s on vlm-latency "
              f"(designed >= 2/3): {verdict}")
    if wl.api_mode == "image":
        print("separation: geometry in the image-only loop phase is reported "
              "by the traced run (--trace 1)")


def print_layers(run, layer_values, untraced_eval, traced_eval) -> None:
    import layers

    cov = [layers.coverage(p.tracer) for p in run.traced]
    med = statistics.median
    print(f"per-layer metrics ({len(run.traced)} traced pass(es); times are "
          f"medians over traced passes, inclusive unless .self_s):")
    current = None
    for name, (value, unit) in layer_values.items():
        layer = name.split(".")[0]
        if layer != current:
            current = layer
            print(f"  [{layer}] should move: {layers.LAYER_TARGETS[layer]}")
        note = ""
        if name in ("apis.execute_s.find_objects", "apis.execute_s.analyze_objects"):
            note = "  (absent: no workload runs api_mode node)"
        print(f"    {name:<38} {_fmt(value):>12} {unit}{note}")
    wire = run.traced[0].wire
    print(f"  backend.injected_delay_s (part of wait_s): {_fmt(wire.delay_s)} s")
    print(f"span coverage: {med(c['build_covered'] for c in cov):.1%} of build_s, "
          f"{med(c['eval_covered'] for c in cov):.1%} of eval_s")
    overhead = traced_eval - untraced_eval
    print(f"tracing overhead: traced eval_s {_fmt(traced_eval)} s - untraced eval_s "
          f"{_fmt(untraced_eval)} s = {_fmt(overhead)} s "
          f"({overhead / untraced_eval:+.1%})")
    geo_s = med(c["loop_geometry_s"] for c in cov)
    geo_calls = med(c["loop_geometry_calls"] for c in cov)
    line = f"geometry in the loop phase: {geo_calls:g} calls, {_fmt(geo_s)} s"
    if run.workload.api_mode == "image":
        verdict = "holds" if geo_calls == 0 else "does NOT hold"
        line += f"; designed 0 on image-only: {verdict}"
    print(line)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "scenemem" / "__init__.py").is_file():
        _fail(f"no engine sources under {src}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path[:0] = [str(src), str(HERE)]

    import harness
    import layers
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    run = harness.run_workload(wl, args.seed, args.seconds, bool(args.trace))
    first = run.passes[0]
    print(f"workload {wl.name} seed {args.seed}: {len(first.scenes)} scene(s), "
          f"{sum(len(s.questions) for s in first.scenes)} questions per pass, "
          f"{len(run.setup_times)} timed set-up(s), {len(run.untraced)} untraced "
          f"and {len(run.traced)} traced pass(es)")
    print(f"scene seeds: {[s.seed for s in first.scenes]}; skipped (GenerationError): "
          f"{run.skipped_seeds or 'none'}")

    e2e = harness.end_to_end(run)
    print_end_to_end(run, e2e)
    if args.trace:
        per_pass = [layers.layer_metrics(p.tracer, p.wire) for p in run.traced]
        layer_values = {name: (statistics.median(v[name][0] for v in per_pass), unit)
                        for name, (_, unit) in per_pass[0].items()}
        print_layers(run, layer_values, e2e["eval_s"][0],
                     statistics.median(p.eval_s for p in run.traced))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{wl.name}-seed{args.seed}.jsonl"
        trace_path.unlink(missing_ok=True)
        for i, p in enumerate(run.passes):
            if p.traced:
                p.tracer.write_jsonl(trace_path, workload=wl.name, pass_index=i)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
        produced, listed = layer_values, spec["per_layer"]
    else:
        produced, listed = e2e, spec["end_to_end"]

    failures = run.failures
    print(f"checks: {run.failed} of {run.attempted} operations failed")
    for op, message in failures[:20]:
        print(f"  FAILED {op}: {message}")
    print(f"output digest (sha256 over canonical memories and answers): "
          f"{first.digest}")

    missing = [m["name"] for m in listed if m["name"] not in produced]
    if missing:
        _fail(f"BENCHMARK.json lists metrics this run does not produce: {missing}")
    result = {
        "correct": not failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": produced[m["name"]][0],
                                "unit": produced[m["name"]][1]} for m in listed},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
