"""The bounded agentic loop.

Each iteration serializes the current memory, asks the reasoning backend
for either an API action or a final answer, executes actions through the
patch APIs, and stops at the final answer or when the call budget runs
out (the backend is then re-asked with must_answer set and has to commit).

Answers carry dual evidence: frame citations that must be members of the
frame memory and note citations that must resolve to existing scratchpad
notes. Violations trigger one reprompt listing them; a second violation is
accepted but flagged non-compliant so metrics stay honest. A backend that
produces neither an action nor an answer gets one reprompt and is then
recorded as an abstention ("unknown", empty evidence).

The budget is enforced by the loop, never trusted to the backend.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .apis import ApiExecutor, PatchReport, apply_patch
from .backend import ApiCall, Backend, BackendError, BackendRequest
from .config import EngineConfig
from .dataset import Episode
from .memory import SceneMemory, serialize

logger = logging.getLogger(__name__)

API_MODE_KINDS = {
    "frame": ("analyze_frame",),
    "node": ("find_objects", "analyze_objects"),
    "image": ("retrieve_frame",),
}


@dataclass(frozen=True)
class EpisodeQuery:
    question: str
    max_calls: int
    scene_id: str

    def __post_init__(self):
        if self.max_calls < 0:
            raise ValueError("max_calls must be >= 0")


@dataclass
class TranscriptStep:
    call: ApiCall
    report: PatchReport

    def to_doc(self) -> dict:
        return {"call": self.call.to_doc(), "report": self.report.to_doc()}


@dataclass
class Answer:
    """One question episode's outcome. ``final_memory`` is the memory the
    episode ended on; it may be the input memory object itself when no
    patch landed."""

    text: str
    evidence_frames: list[int]
    evidence_notes: list[tuple[int, int]]
    calls_used: int
    transcript: list[TranscriptStep]
    compliant: bool
    violations: list[str] = field(default_factory=list)
    abstained: bool = False
    final_memory: SceneMemory | None = None

    def to_doc(self) -> dict:
        return {"text": self.text,
                "evidence_frames": list(self.evidence_frames),
                "evidence_notes": [list(n) for n in self.evidence_notes],
                "calls_used": self.calls_used,
                "compliant": self.compliant,
                "violations": list(self.violations),
                "abstained": self.abstained,
                "transcript": [s.to_doc() for s in self.transcript]}


def validate_evidence(evidence_frames, evidence_notes, ssm: SceneMemory) -> list[str]:
    """Check the dual-evidence contract against a memory state.

    Returns the (possibly empty) violation list: both evidence lists must
    be nonempty, cited frames must be in the frame memory, and every
    (node, note index) must resolve to an existing scratchpad note.
    """
    violations: list[str] = []
    if not evidence_frames:
        violations.append("no visual evidence: evidence_frames is empty")
    if not evidence_notes:
        violations.append("no semantic evidence: evidence_notes is empty")
    for fid in evidence_frames:
        if fid not in ssm.frame_memory:
            violations.append(f"frame {fid} is not in the frame memory")
    for node_id, note_idx in evidence_notes:
        notes = ssm.scratchpad.get(node_id)
        if notes is None:
            violations.append(f"note cites unknown node {node_id}")
        elif not 0 <= note_idx < len(notes):
            violations.append(
                f"note index {note_idx} out of range for node {node_id}")
    return violations


def _reason_request(query: EpisodeQuery, ssm: SceneMemory,
                    transcript: list[TranscriptStep], allowed: tuple[str, ...],
                    remaining: int, must_answer: bool,
                    violations: list[str] | None) -> BackendRequest:
    memory_json, refs = serialize(ssm)
    payload = {
        "question": query.question,
        "memory_json": memory_json,
        "frames": [[fid, loc] for fid, loc in refs],
        "allowed_apis": list(allowed),
        "remaining_calls": remaining,
        "must_answer": must_answer,
        "history": [s.to_doc() for s in transcript],
    }
    if violations:
        payload["violations"] = list(violations)
    return BackendRequest(kind="reason", query=query.question, payload=payload)


def answer(query: EpisodeQuery, ssm: SceneMemory, episode: Episode,
           backend: Backend, config: EngineConfig | None = None) -> Answer:
    """Run one question episode; never mutates the caller's memory."""
    config = config or EngineConfig()
    allowed = API_MODE_KINDS[config.api_mode]
    executor = ApiExecutor(episode, backend, config)
    current = ssm  # only apply_patch edits, and it works on its own copy
    transcript: list[TranscriptStep] = []
    calls_used = 0
    pending_violations: list[str] | None = None
    evidence_retry_done = False
    protocol_retry_done = False

    while True:
        must_answer = calls_used >= query.max_calls
        request = _reason_request(query, current, transcript, allowed,
                                  query.max_calls - calls_used, must_answer,
                                  pending_violations)
        pending_violations = None
        try:
            response = backend.call(request)
        except BackendError as exc:
            logger.warning("reason call failed: %s", exc)
            response = None

        if response is not None and response.answer is not None:
            cand = response.answer
            violations = validate_evidence(cand.evidence_frames,
                                           cand.evidence_notes, current)
            if violations and not evidence_retry_done:
                evidence_retry_done = True
                pending_violations = violations
                continue
            return Answer(text=cand.text,
                          evidence_frames=list(cand.evidence_frames),
                          evidence_notes=[tuple(n) for n in cand.evidence_notes],
                          calls_used=calls_used, transcript=transcript,
                          compliant=not violations, violations=violations,
                          final_memory=current)

        if response is not None and response.action is not None and not must_answer:
            call = response.action
            if call.kind not in allowed:
                problem = (f"api '{call.kind}' not allowed in "
                           f"{config.api_mode} mode; allowed: {allowed}")
                if not protocol_retry_done:
                    protocol_retry_done = True
                    pending_violations = [problem]
                    continue
                return Answer(text="unknown", evidence_frames=[],
                              evidence_notes=[], calls_used=calls_used,
                              transcript=transcript, compliant=False,
                              violations=[problem], abstained=True,
                              final_memory=current)
            patch = executor.execute(call, current)
            current, report = apply_patch(current, patch, config)
            transcript.append(TranscriptStep(call=call, report=report))
            calls_used += 1
            continue

        # neither a usable action nor an answer
        if not protocol_retry_done:
            protocol_retry_done = True
            pending_violations = ["previous response contained neither an "
                                  "executable action nor a final answer"]
            continue
        return Answer(text="unknown", evidence_frames=[], evidence_notes=[],
                      calls_used=calls_used, transcript=transcript,
                      compliant=False,
                      violations=["backend failed to produce an answer"],
                      abstained=True, final_memory=current)


@dataclass
class BatchResult:
    answers: list[Answer]
    failures: list[tuple[int, str]]  # (query index, error)
    histogram: dict[int, int]
    mean_calls: float
    p95_calls: int

    def to_doc(self) -> dict:
        return {"histogram": {str(k): v for k, v in sorted(self.histogram.items())},
                "mean_calls": self.mean_calls, "p95_calls": self.p95_calls,
                "failures": [list(f) for f in self.failures],
                "answers": [a.to_doc() for a in self.answers]}


def percentile_nearest_rank(values: list[int], pct: float) -> int:
    """Nearest-rank percentile: the ceil(pct * n)-th smallest value."""
    if not values:
        return 0
    ordered = sorted(values)
    hundredths = int(round(pct * 100))
    rank = max(1, -(-hundredths * len(ordered) // 100))  # integer ceil
    return ordered[rank - 1]


def run_episode_batch(queries: list[EpisodeQuery], ssm_factory, episode: Episode,
                      backend: Backend,
                      config: EngineConfig | None = None) -> BatchResult:
    """Answer each query on a fresh memory copy and aggregate call stats.

    Queries are isolated: one query's patches are invisible to the next.
    Per-query failures are recorded and the batch continues.
    """
    config = config or EngineConfig()
    answers: list[Answer] = []
    failures: list[tuple[int, str]] = []
    for qi, query in enumerate(queries):
        try:
            answers.append(answer(query, ssm_factory(), episode, backend, config))
        except Exception as exc:
            logger.warning("query %d failed: %s", qi, exc)
            failures.append((qi, str(exc)))
    counts = [a.calls_used for a in answers]
    histogram: dict[int, int] = {}
    for c in counts:
        histogram[c] = histogram.get(c, 0) + 1
    mean = sum(counts) / len(counts) if counts else 0.0
    return BatchResult(answers=answers, failures=failures, histogram=histogram,
                       mean_calls=mean,
                       p95_calls=percentile_nearest_rank(counts, 0.95))


def write_transcript(answer_: Answer, path: str | Path) -> None:
    """Persist a transcript as JSON lines, one record per loop step."""
    lines = [json.dumps(step.to_doc(), sort_keys=True) for step in answer_.transcript]
    lines.append(json.dumps({"final": answer_.to_doc() | {"transcript": None}},
                            sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
