"""Graph-quality metrics against synthetic ground truth, answer scoring,
and the end-to-end evaluation driver."""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field

import numpy as np

from .apis import ApiCall, ApiExecutor, apply_patch
from .backend import Backend
from .config import EngineConfig
from .dataset import Episode
from .loop import BatchResult, EpisodeQuery, run_episode_batch
from .memory import SceneMemory
from .pipeline import build_ssm
from .synth import Question, SyntheticScene

logger = logging.getLogger(__name__)

TRACK_MATCH_MAX_DIST_M = 0.75

_ARTICLES = ("a ", "an ", "the ")


def normalize_answer(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace, drop a leading
    article: the equivalence used for synthetic answer scoring."""
    s = re.sub(r"[^a-z0-9 ]", " ", text.lower())
    s = re.sub(r"\s+", " ", s).strip()
    for art in _ARTICLES:
        if s.startswith(art):
            s = s[len(art):]
            break
    return s


def match_tracks(ssm: SceneMemory, scene: SyntheticScene) -> dict[int, int]:
    """Greedy one-to-one track -> ground-truth-object matching.

    A pair qualifies when captions agree and the track's cloud centroid
    (when it has one) lies within TRACK_MATCH_MAX_DIST_M of the object box
    center. Returns {track id: object index}.
    """
    candidates: list[tuple[float, int, int]] = []
    for tid in sorted(ssm.graph.tracks):
        track = ssm.graph.tracks[tid]
        summary = track.cloud_summary()
        for obj in scene.objects:
            if track.caption != obj.caption:
                continue
            if summary is None:
                dist = TRACK_MATCH_MAX_DIST_M  # caption-only match, worst rank
            else:
                dist = float(np.linalg.norm(np.asarray(summary.centroid)
                                            - obj.box.center()))
            if dist <= TRACK_MATCH_MAX_DIST_M:
                candidates.append((dist, tid, obj.index))
    candidates.sort(key=lambda c: (c[0], c[1], c[2]))
    matched: dict[int, int] = {}
    used_objects: set[int] = set()
    for _, tid, oi in candidates:
        if tid in matched or oi in used_objects:
            continue
        matched[tid] = oi
        used_objects.add(oi)
    return matched


def graph_precision_recall(ssm: SceneMemory, scene: SyntheticScene) \
        -> tuple[float, float, float, float]:
    """(track precision, track recall, edge precision, edge recall)."""
    matched = match_tracks(ssm, scene)
    n_tracks = len(ssm.graph.tracks)
    n_objects = len(scene.objects)
    track_p = len(matched) / n_tracks if n_tracks else 1.0
    track_r = len(matched) / n_objects if n_objects else 1.0

    truth_edges = {(r.subject_index, r.object_index, r.relation)
                   for r in scene.relations}
    engine_edges = set()
    for edge in ssm.graph.edges:
        s = matched.get(edge.subject_id)
        o = matched.get(edge.object_id)
        if s is not None and o is not None:
            engine_edges.add((s, o, edge.relation))
    hits = engine_edges & truth_edges
    edge_p = len(hits) / len(engine_edges) if engine_edges else 1.0
    edge_r = len(hits) / len(truth_edges) if truth_edges else 1.0
    return track_p, track_r, edge_p, edge_r


def track_recall(ssm: SceneMemory, scene: SyntheticScene) -> float:
    return graph_precision_recall(ssm, scene)[1]


@dataclass
class AnswerRecord:
    question: str
    expected: str
    got: str
    category: str
    correct: bool
    calls_used: int
    compliant: bool


@dataclass
class MetricsReport:
    track_precision: float
    track_recall: float
    edge_precision: float
    edge_recall: float
    calls_histogram: dict[int, int]
    calls_mean: float
    calls_p95: int
    per_category: dict[str, float]
    answers: list[AnswerRecord] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)

    @property
    def answer_accuracy(self) -> float:
        if not self.answers:
            return 0.0
        return sum(a.correct for a in self.answers) / len(self.answers)

    def to_doc(self) -> dict:
        return {
            "track_precision": self.track_precision,
            "track_recall": self.track_recall,
            "edge_precision": self.edge_precision,
            "edge_recall": self.edge_recall,
            "calls_histogram": {str(k): v for k, v
                                in sorted(self.calls_histogram.items())},
            "calls_mean": self.calls_mean,
            "calls_p95": self.calls_p95,
            "answer_accuracy": self.answer_accuracy,
            "per_category": dict(sorted(self.per_category.items())),
            "answers": [{"question": a.question, "expected": a.expected,
                         "got": a.got, "category": a.category,
                         "correct": a.correct, "calls_used": a.calls_used,
                         "compliant": a.compliant} for a in self.answers],
            "failures": [list(f) for f in self.failures],
        }


def score_answers(batch: BatchResult, questions: list[Question]) -> list[AnswerRecord]:
    """Pair batch answers back with their questions (failures leave gaps)."""
    records = []
    failed = {i for i, _ in batch.failures}
    ai = 0
    for qi, question in enumerate(questions):
        if qi in failed:
            continue
        ans = batch.answers[ai]
        ai += 1
        records.append(AnswerRecord(
            question=question.question, expected=question.answer,
            got=ans.text, category=question.category,
            correct=normalize_answer(ans.text) == normalize_answer(question.answer),
            calls_used=ans.calls_used, compliant=ans.compliant))
    return records


def evaluate(scene: SyntheticScene, questions: list[Question], backend: Backend,
             config: EngineConfig | None = None) -> MetricsReport:
    """Build the memory, answer all questions on fresh copies, and score
    graph quality plus the call distribution."""
    cfg = config or EngineConfig()
    episode = scene.episode()
    ssm = build_ssm(episode, backend, cfg)
    track_p, track_r, edge_p, edge_r = graph_precision_recall(ssm, scene)
    queries = [EpisodeQuery(question=q.question, max_calls=cfg.max_api_calls,
                            scene_id=scene.scene_id) for q in questions]
    batch = run_episode_batch(queries, ssm.copy, episode, backend, cfg)
    records = score_answers(batch, questions)
    per_category: dict[str, list[bool]] = {}
    for record in records:
        per_category.setdefault(record.category, []).append(record.correct)
    return MetricsReport(
        track_precision=track_p, track_recall=track_r,
        edge_precision=edge_p, edge_recall=edge_r,
        calls_histogram=batch.histogram, calls_mean=batch.mean_calls,
        calls_p95=batch.p95_calls,
        per_category={cat: sum(v) / len(v) for cat, v in per_category.items()},
        answers=records, failures=batch.failures)


def recall_sweep(scene: SyntheticScene, ssm: SceneMemory, episode: Episode,
                 backend: Backend, config: EngineConfig | None = None,
                 max_calls: int = 200) -> tuple[int, SceneMemory]:
    """Sweep analyze_frame over the episode until track recall hits 1.0.

    Frames are visited round-robin; returns (calls issued, final memory).
    Stops at ``max_calls`` even when recall stays short (noisy detectors).
    """
    cfg = config or EngineConfig()
    executor = ApiExecutor(episode, backend, cfg)
    calls, current = 0, ssm
    while calls < max_calls and track_recall(current, scene) < 1.0:
        call = ApiCall("analyze_frame", episode.frame_ids[calls % len(episode)],
                       "describe all objects")
        current, _ = apply_patch(current, executor.execute(call, current))
        calls += 1
    return calls, current
