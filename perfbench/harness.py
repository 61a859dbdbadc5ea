"""One benchmark run of one workload: the timed pass over the workload's
scenes, the output checks, and the end-to-end metrics.

A pass generates the scenes and questions from the seed (set-up), then per
scene builds the memory with a fresh ``ScriptedBackend`` + ``RuleReasoner``,
answers every question through ``loop.run_episode_batch`` and scores with
the public functions in ``metrics``, i.e. what ``scenemem eval`` does.
The number of scenes is a fixed function of ``--seconds``, never of
measured speed, so two commits run with the same arguments do the same
work.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

from scenemem import loop, memory, metrics, pipeline, synth
from scenemem.backend import Backend, BackendRequest
from scenemem.config import EngineConfig
from scenemem.scripted import RuleReasoner, ScriptedBackend

import layers
from spans import NULL, Tracer, patched
from workloads import Workload

NOMINAL_SECONDS = 45
SETUP_REPEATS = 3
SCENE_SEED_STRIDE = 1000


# -- the transport wrapper -----------------------------------------------

@dataclass
class WireStats:
    """Round trips, bytes and waiting over every backend of one pass."""

    round_trips: Counter = field(default_factory=Counter)
    request_bytes: Counter = field(default_factory=Counter)
    response_bytes: Counter = field(default_factory=Counter)
    wait_s: float = 0.0     # inside round trips: stand-in model + delay
    delay_s: float = 0.0    # injected sleep alone


class MeteredBackend(Backend):
    """Counts every round trip, retries included, and optionally delays it
    like a remote model: ``delay_s`` plus ``delay_s_per_kib`` per KiB of
    request JSON, slept inline. Only ``raw_call`` is overridden, so retries
    pay the delay and ``Backend.call`` validates as usual."""

    def __init__(self, inner: Backend, stats: WireStats, delay_s: float = 0.0,
                 delay_s_per_kib: float = 0.0, tracer=NULL):
        super().__init__()
        self.inner = inner
        self.stats = stats
        self.delay_s = delay_s
        self.delay_s_per_kib = delay_s_per_kib
        self.tracer = tracer

    def frame_size(self, frame_id):
        return self.inner.frame_size(frame_id)

    def raw_call(self, request: BackendRequest) -> dict:
        size = len(json.dumps(request.to_doc()))
        self.stats.round_trips[request.kind] += 1
        self.stats.request_bytes[request.kind] += size
        with self.tracer.span("backend.raw_call"):
            start = perf_counter()
            pause = self.delay_s + self.delay_s_per_kib * size / 1024
            if pause > 0:
                time.sleep(pause)
                self.stats.delay_s += perf_counter() - start
            raw = self.inner.raw_call(request)
            self.stats.wait_s += perf_counter() - start
        if self.tracer.enabled:
            self.stats.response_bytes[request.kind] += len(json.dumps(raw))
        return raw


# -- one pass ----------------------------------------------------------------

@dataclass
class SceneRun:
    seed: int
    scene: synth.SyntheticScene
    questions: list
    episode: object
    ssm: memory.SceneMemory | None = None      # dropped once checked
    batch: loop.BatchResult | None = None      # dropped once checked
    calls: list[int] = field(default_factory=list)
    compliant: list[bool] = field(default_factory=list)
    records: list = field(default_factory=list)
    recall: tuple = (0.0, 0.0, 0.0, 0.0)
    build_s: float = 0.0
    loop_s: float = 0.0
    eval_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    error: str | None = None


@dataclass
class Pass:
    traced: bool
    setup_s: float
    scenes: list[SceneRun]
    wire: WireStats
    tracer: object
    failures: list[tuple[tuple, str]] = field(default_factory=list)
    scene_digests: list[str] = field(default_factory=list)

    @property
    def build_s(self) -> float:
        return sum(s.build_s for s in self.scenes)

    @property
    def eval_s(self) -> float:
        return sum(s.eval_s for s in self.scenes)

    @property
    def loop_s(self) -> float:
        return sum(s.loop_s for s in self.scenes)

    @property
    def latencies(self) -> list[float]:
        return [t for s in self.scenes for t in s.latencies]

    @property
    def digest(self) -> str:
        return hashlib.sha256("".join(self.scene_digests).encode()).hexdigest()


class AnswerClock:
    """Replacement for ``loop.answer`` that times each question and labels
    its spans with the question index."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.asked = 0

    def reset(self) -> None:
        self.latencies, self.asked = [], 0

    def wrap(self, answer):
        def timed_answer(*args, **kwargs):
            self.tracer.question = self.asked
            self.asked += 1
            try:
                with self.tracer.span("loop.answer"):
                    start = perf_counter()
                    result = answer(*args, **kwargs)
                    self.latencies.append(perf_counter() - start)
            finally:
                self.tracer.question = None
            return result
        return timed_answer


def scene_seeds(seed: int):
    return range(seed * SCENE_SEED_STRIDE, (seed + 1) * SCENE_SEED_STRIDE)


def scene_count(wl: Workload, seconds: float) -> int:
    """Scenes per pass: the workload's count at NOMINAL_SECONDS, scaled to
    ``seconds``. A fixed mapping, so equal ``seconds`` means equal work."""
    return max(1, round(wl.scenes * seconds / NOMINAL_SECONDS))


def generate(wl: Workload, seed: int, count: int, tracer=NULL):
    """Set-up: scenes, questions and episodes. Returns (seconds, scene
    runs, scene seeds skipped because generation raised)."""
    gc.collect()
    tracer.phase = "setup"
    start = perf_counter()
    runs: list[SceneRun] = []
    skipped: list[int] = []
    for scene_seed in scene_seeds(seed):
        if len(runs) == count:
            break
        tracer.scene = scene_seed
        try:
            scene = synth.generate_scene(wl.rooms, wl.objects_per_room, scene_seed)
        except synth.GenerationError:
            skipped.append(scene_seed)
            continue
        runs.append(SceneRun(scene_seed, scene, synth.generate_questions(scene),
                             scene.episode()))
    return perf_counter() - start, runs, skipped


def evaluate(wl: Workload, runs: list[SceneRun], wire: WireStats, tracer=NULL) -> None:
    """Build, answer and score every scene, timing each phase."""
    gc.collect()  # start from the same heap state in every pass
    cfg = EngineConfig(api_mode=wl.api_mode)
    clock = AnswerClock(tracer)
    with patched([(None, loop.answer, clock.wrap(loop.answer))]):
        for run in runs:
            tracer.scene = run.seed
            backend = MeteredBackend(
                ScriptedBackend(run.scene, RuleReasoner(), miss_prob=wl.miss_prob,
                                seed=run.seed),
                wire, wl.delay_s, wl.delay_s_per_kib, tracer)
            clock.reset()
            with tracer.span("eval"):
                start = perf_counter()
                tracer.phase = "build"
                try:
                    ssm = pipeline.build_ssm(run.episode, backend, cfg)
                except pipeline.BuildError as exc:
                    run.error = str(exc)
                    run.build_s = run.eval_s = perf_counter() - start
                    continue
                run.build_s = perf_counter() - start
                tracer.phase = "score"
                with tracer.span("metrics.score"):
                    run.recall = metrics.graph_precision_recall(ssm, run.scene)
                tracer.phase = "loop"
                queries = [loop.EpisodeQuery(q.question, cfg.max_api_calls,
                                             run.scene.scene_id)
                           for q in run.questions]
                loop_start = perf_counter()
                batch = loop.run_episode_batch(queries, ssm.copy, run.episode,
                                               backend, cfg)
                run.loop_s = perf_counter() - loop_start
                tracer.phase = "score"
                with tracer.span("metrics.score"):
                    run.records = metrics.score_answers(batch, run.questions)
                run.eval_s = perf_counter() - start
            run.ssm, run.batch = ssm, batch
            run.latencies = clock.latencies
            tracer.count("loop.steps", sum(len(a.transcript) for a in batch.answers))
    tracer.scene = tracer.phase = None


def execute_pass(wl: Workload, seed: int, count: int,
                 runs: list[SceneRun] | None = None, traced: bool = False) -> Pass:
    """Evaluate the scenes once and check the outputs. Without ``runs`` the
    pass sets up its own scenes, inside the trace when traced, so the synth
    layer shows there."""
    tracer = Tracer() if traced else NULL
    wire = WireStats()
    setup_s = 0.0
    with layers.instrument(tracer) if traced else nullcontext():
        if runs is None:
            setup_s, runs, _ = generate(wl, seed, count, tracer)
        else:
            runs = [SceneRun(r.seed, r.scene, r.questions, r.episode) for r in runs]
        evaluate(wl, runs, wire, tracer)
    result = Pass(traced, setup_s, runs, wire, tracer)
    check_pass(result, EngineConfig(api_mode=wl.api_mode))
    return result


# -- output checks -------------------------------------------------------

def check_pass(p: Pass, cfg: EngineConfig) -> None:
    """Validate every built memory and answer; fill the pass's failures and
    per-scene output digests (canonical memories plus answer texts). The
    memories are dropped afterwards so later passes run on the same heap."""
    for run in p.scenes:
        h = hashlib.sha256()
        build_op = ("build", run.seed)
        if run.error is not None:
            p.failures.append((build_op, f"BuildError: {run.error}"))
            p.scene_digests.append(h.hexdigest())
            continue
        try:
            run.ssm.validate()
            text, _ = memory.serialize(run.ssm)
            again, _ = memory.serialize(memory.deserialize(text))
        except (memory.SerializationError, memory.ParseError) as exc:
            p.failures.append((build_op, f"invalid memory: {exc}"))
            text = again = ""
        if again != text:
            p.failures.append((build_op, "serialize/deserialize/serialize differs"))
        h.update(text.encode())
        for qi, err in run.batch.failures:
            p.failures.append((("question", run.seed, qi), f"answer raised: {err}"))
        failed = {qi for qi, _ in run.batch.failures}
        answered = [qi for qi in range(len(run.questions)) if qi not in failed]
        for qi, ans in zip(answered, run.batch.answers):
            op = ("question", run.seed, qi)
            violations = loop.validate_evidence(ans.evidence_frames,
                                                ans.evidence_notes, ans.final_memory)
            if (not violations) != ans.compliant:
                p.failures.append((op, "evidence check disagrees with compliant"))
            if ans.calls_used > cfg.max_api_calls:
                p.failures.append((op, f"{ans.calls_used} calls over the budget"))
            h.update(b"\0" + ans.text.encode() + b"\0")
            h.update(memory.serialize(ans.final_memory)[0].encode())
        p.scene_digests.append(h.hexdigest())
        run.calls = [a.calls_used for a in run.batch.answers]
        run.compliant = [a.compliant for a in run.batch.answers]
        run.ssm = run.batch = None


# -- statistics ----------------------------------------------------------

def tail_percentile(values: list[float], beyond: int = 10) -> tuple[int, float, int]:
    """Highest nearest-rank percentile with at least ``beyond`` samples
    above its rank: (percentile, value, samples beyond). Falls back to the
    maximum, with 0 beyond, when there are too few samples."""
    n = len(values)
    if n == 0:
        return 100, 0.0, 0
    for pct in range(99, 0, -1):
        rank = max(1, -(-pct * n // 100))
        if n - rank >= beyond:
            return pct, loop.percentile_nearest_rank(values, pct / 100), n - rank
    return 100, max(values), 0


@dataclass
class Run:
    workload: Workload
    seed: int
    setup_times: list[float]
    skipped_seeds: list[int]
    passes: list[Pass]
    extra_failures: list[tuple[tuple, str]]

    @property
    def untraced(self) -> list[Pass]:
        return [p for p in self.passes if not p.traced]

    @property
    def traced(self) -> list[Pass]:
        return [p for p in self.passes if p.traced]

    @property
    def failures(self) -> list[tuple[tuple, str]]:
        return [f for p in self.passes for f in p.failures] + self.extra_failures

    @property
    def attempted(self) -> int:
        return sum(len(p.scenes) + sum(len(s.questions) for s in p.scenes
                                        if s.error is None)
                   for p in self.passes)

    @property
    def failed(self) -> int:
        ops = {(i, op) for i, p in enumerate(self.passes) for op, _ in p.failures}
        ops |= {(-1, op) for op, _ in self.extra_failures}
        return min(len(ops), self.attempted)


def run_workload(wl: Workload, seed: int, seconds: float, traced: bool) -> Run:
    """Untraced: SETUP_REPEATS timed set-ups, then ``wl.passes`` timed
    evaluations of the last set-up's scenes. Traced: one set-up, up to two
    untraced evaluations (the first in a process runs cold) and one traced
    set-up and evaluation, for the tracing overhead. Then the
    run-level checks: every pass gives the same outputs, and the injected
    delay changes none."""
    count = scene_count(wl, seconds)
    setup_times = []
    for _ in range(1 if traced else SETUP_REPEATS):
        elapsed, runs, skipped = generate(wl, seed, count)
        setup_times.append(elapsed)
    passes = [execute_pass(wl, seed, count, runs)
              for _ in range(min(2, wl.passes) if traced else wl.passes)]
    if traced:
        passes.append(execute_pass(wl, seed, count, traced=True))
    extra: list[tuple[tuple, str]] = []
    if len({p.digest for p in passes}) != 1:
        extra.append((("determinism",), "passes gave different outputs"))
    if wl.delay_s or wl.delay_s_per_kib:
        check = execute_pass(replace(wl, delay_s=0.0, delay_s_per_kib=0.0), seed, 1)
        if check.scene_digests[:1] != passes[0].scene_digests[:1]:
            extra.append((("delay",), "digest differs without the injected delay"))
    return Run(wl, seed, setup_times, skipped, passes, extra)


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Every end-to-end metric as (value, unit). Timings are medians over
    the untraced set-ups and passes, latencies pooled over the untraced
    passes (a fixed number per workload); counts and quality repeat
    exactly, so they come from the first pass."""
    timed = run.untraced
    first = run.passes[0]
    latencies = [t for p in timed for t in p.latencies]
    records = [r for s in first.scenes for r in s.records]
    built = [s for s in first.scenes if s.error is None]
    questions = sum(len(s.questions) for s in built)
    calls = [c for s in first.scenes for c in s.calls]

    def med(xs):
        xs = list(xs)
        return statistics.median(xs) if xs else 0.0

    def mean(xs):
        xs = list(xs)
        return statistics.fmean(xs) if xs else 0.0

    return {
        "setup_s": (med(run.setup_times), "s"),
        "build_s": (med(p.build_s for p in timed), "s"),
        "eval_s": (med(p.eval_s for p in timed), "s"),
        "answer_p50_ms": (med(latencies) * 1000, "ms"),
        "answer_tail_ms": (tail_percentile(latencies)[1] * 1000, "ms"),
        "api_calls_mean": (mean(calls), "calls/question"),
        "api_calls_p95": (loop.percentile_nearest_rank(calls, 0.95), "calls"),
        "backend_calls": (sum(first.wire.round_trips.values()), "count"),
        "prompt_kib_per_question":
            (first.wire.request_bytes["reason"] / 1024 / max(1, questions), "KiB"),
        "answer_accuracy": (mean(r.correct for r in records), "share"),
        "compliance_rate": (mean(c for s in first.scenes for c in s.compliant), "share"),
        "track_recall": (mean(s.recall[1] for s in built), "share"),
        "edge_recall": (mean(s.recall[3] for s in built), "share"),
        "failed_share": (run.failed / max(1, run.attempted), "share"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                         "MiB"),
    }
