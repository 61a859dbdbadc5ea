"""Loop budget enforcement, dual-evidence validation, batch statistics."""

from __future__ import annotations

import json

import pytest

from scenemem import (EngineConfig, EpisodeQuery, RuleReasoner, ScriptedBackend,
                      answer, build_ssm, generate_questions, generate_scene,
                      run_episode_batch, serialize, validate_evidence)
from scenemem.backend import REQUEST_KINDS
from scenemem import loop
from scenemem.config import API_MODES
from scenemem.loop import percentile_nearest_rank, write_transcript
from scenemem.scripted import ScriptReasoner


def _cfg(mode="frame", m=20) -> EngineConfig:
    cfg = EngineConfig()
    cfg.api_mode = mode
    cfg.max_api_calls = m
    return cfg


def _query(question: str, m: int, scene) -> EpisodeQuery:
    return EpisodeQuery(question=question, max_calls=m, scene_id=scene.scene_id)


def action_step(fid=0, query="look around", api="analyze_frame"):
    return {"action": {"api": api, "frame_id": fid, "query": query}}


AUTO_ANSWER = {"final_answer": "done", "evidence": "auto"}


class ReferenceRuleReasoner(RuleReasoner):
    """Oracle: the rule policy as it was when it kept the frames tried per
    question itself, starting them afresh at each episode's first request
    (no history, no violations) and clearing them once every candidate
    frame was tried."""

    def __init__(self):
        self.tried_by_question: dict[str, list[int]] = {}

    def decide(self, payload):
        question = payload["question"]
        if not payload.get("history") and not payload.get("violations"):
            self.tried_by_question[question] = []
        self.tried = self.tried_by_question.setdefault(question, [])
        return super().decide(payload)

    def _tried(self, history):
        return self.tried

    def _next_frame(self, tried, memory, focus_ids):
        tracks = {t["id"]: t for t in memory["scene_graph"]["tracks"]}
        preferred = []
        for nid in focus_ids:
            if nid in tracks:
                preferred.extend(tracks[nid]["visible_frames"])
        candidates = preferred + [e["frame_id"] for e in memory["navigation_log"]]
        for fid in candidates:
            if fid not in tried:
                tried.append(fid)
                return fid
        tried.clear()
        tried.append(candidates[0])
        return candidates[0]


class TestBudget:
    def test_m_zero_answers_without_api_execution(self, small_build):
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(
            default=[action_step(), AUTO_ANSWER]))
        query = _query("what do you see?", 0, scene)
        out = answer(query, ssm, episode, backend, _cfg(m=0))
        assert out.calls_used == 0
        assert out.transcript == []
        # no API-execution traffic: only reason calls hit the backend
        for kind in set(REQUEST_KINDS) - {"reason"}:
            assert backend.call_counts[kind] == 0, kind
        assert backend.call_counts["reason"] >= 1

    @pytest.mark.parametrize("m", [0, 1, 2, 5, 20])
    def test_calls_never_exceed_budget(self, small_build, m):
        scene, episode, _, ssm = small_build
        # a reasoner that never volunteers an answer
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(default=[
            action_step(fid) for fid in list(range(scene.frame_count)) * 5
        ] + [AUTO_ANSWER]))
        out = answer(_query("stubborn exploration", m, scene), ssm, episode,
                     backend, _cfg(m=m))
        assert out.calls_used <= m
        assert len(out.transcript) == out.calls_used

    def test_budget_exhaustion_forces_answer(self, small_build):
        scene, episode, _, ssm = small_build
        steps = [action_step(fid % scene.frame_count) for fid in range(50)]
        reasoner = ScriptReasoner(scripts={"persistent": steps + [AUTO_ANSWER]})

        class Spy(ScriptedBackend):
            must_answer_seen = []

            def _handle_reason(self, request):
                self.must_answer_seen.append(request.payload["must_answer"])
                return super()._handle_reason(request)

        backend = Spy(scene, reasoner=reasoner)
        out = answer(_query("persistent", 5, scene), ssm, episode, backend,
                     _cfg(m=5))
        assert out.calls_used == 5
        assert backend.must_answer_seen[:5] == [False] * 5
        assert backend.must_answer_seen[5] is True
        # the script keeps trying actions when forced: the loop reprompts
        # once, the script insists again, so the episode ends in abstention
        assert out.abstained
        assert out.text == "unknown"

    def test_allowed_apis_come_from_the_mode_table(self, small_build):
        """Each reason request offers exactly the APIs the config's mode
        table lists for the configured mode; the loop keeps no copy."""
        scene, episode, _, ssm = small_build

        class Spy(ScriptedBackend):
            allowed_seen = []

            def _handle_reason(self, request):
                self.allowed_seen.append(request.payload["allowed_apis"])
                return super()._handle_reason(request)

        assert set(API_MODES) == {"frame", "node", "image"}
        for mode, apis in API_MODES.items():
            backend = Spy(scene, reasoner=ScriptReasoner(default=[AUTO_ANSWER]))
            backend.allowed_seen = []
            answer(_query(f"modes {mode}", 3, scene), ssm, episode, backend,
                   _cfg(mode=mode, m=3))
            assert backend.allowed_seen, mode
            assert all(seen == list(apis) for seen in backend.allowed_seen), mode
        assert not hasattr(loop, "API_MODE_KINDS")

    def test_scripted_two_calls_then_answer(self, small_build):
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(scripts={
            "q2": [action_step(0), action_step(3), AUTO_ANSWER]}))
        out = answer(_query("q2", 20, scene), ssm, episode, backend, _cfg())
        assert out.calls_used == 2
        assert len(out.transcript) == 2
        assert out.text == "done"
        assert out.compliant

    def test_transcript_audits_all_mutations(self, small_build):
        """Everything that changed between the initial and final memory is
        accounted for by the transcript's patch reports."""
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(default=[
            action_step(0), action_step(3), action_step(6), AUTO_ANSWER]))
        out = answer(_query("audit", 10, scene), ssm, episode, backend,
                     _cfg(m=10))
        final = out.final_memory
        created = sum(len(r.created) for r in out.transcript)
        notes = sum(r.notes_added for r in out.transcript)
        appended = sum(1 for r in out.transcript if r.frame_appended)
        assert len(final.graph.tracks) == len(ssm.graph.tracks) + created
        assert final.note_count() == ssm.note_count() + notes
        assert len(final.frame_memory) == len(ssm.frame_memory) + appended

    def test_memory_isolation_from_caller(self, small_build):
        scene, episode, _, ssm = small_build
        before = serialize(ssm)[0]
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(
            default=[action_step(0), action_step(1), AUTO_ANSWER]))
        answer(_query("mutate away", 5, scene), ssm, episode, backend, _cfg(m=5))
        assert serialize(ssm)[0] == before


class TestEvidenceValidation:
    def test_fabricated_frame_rejected(self, small_build):
        _, _, _, ssm = small_build
        violations = validate_evidence([9999], [(0, 0)], ssm)
        assert any("9999" in v for v in violations)

    def test_fabricated_note_rejected(self, small_build):
        _, _, _, ssm = small_build
        fid = ssm.frame_memory.frames[0]
        violations = validate_evidence([fid], [(0, 99)], ssm)
        assert any("note index 99" in v for v in violations)

    def test_unknown_node_rejected(self, small_build):
        _, _, _, ssm = small_build
        fid = ssm.frame_memory.frames[0]
        violations = validate_evidence([fid], [(31337, 0)], ssm)
        assert any("unknown node 31337" in v for v in violations)

    def test_empty_evidence_rejected(self, small_build):
        _, _, _, ssm = small_build
        violations = validate_evidence([], [], ssm)
        assert len(violations) == 2

    def test_violation_texts(self, small_build):
        """A live node without notes gets the index text, not the
        unknown-node text, although it has no scratchpad entry."""
        _, _, _, ssm = small_build
        nid = sorted(ssm.graph.tracks)[0]
        assert nid not in ssm.scratchpad
        fid = ssm.frame_memory.frames[0]
        assert validate_evidence([fid], [(nid, 0), (31337, 0)], ssm) == [
            f"note index 0 out of range for node {nid}",
            "note cites unknown node 31337"]

    def test_valid_dual_evidence_passes(self, small_build):
        _, _, _, ssm = small_build
        work = ssm.copy()
        nid = sorted(work.graph.tracks)[0]
        work.add_note(nid, "observation", "analyze_frame", "q",
                      work.frame_ids[0])
        fid = work.frame_memory.frames[0]
        assert validate_evidence([fid], [(nid, 0)], work) == []

    def test_violating_answer_reprompted_then_flagged(self, small_build):
        scene, episode, _, ssm = small_build
        bad_answer = {"final_answer": "blue", "evidence_frames": [9999],
                      "evidence_notes": [[0, 99]]}
        reasoner = ScriptReasoner(scripts={"adversarial": [bad_answer, bad_answer]})

        class Spy(ScriptedBackend):
            violation_payloads = []

            def _handle_reason(self, request):
                if "violations" in request.payload:
                    self.violation_payloads.append(request.payload["violations"])
                return super()._handle_reason(request)

        backend = Spy(scene, reasoner=reasoner)
        out = answer(_query("adversarial", 5, scene), ssm, episode, backend,
                     _cfg(m=5))
        assert not out.compliant
        assert out.violations
        assert len(backend.violation_payloads) == 1  # exactly one reprompt
        assert out.text == "blue"  # accepted but flagged

    def test_corrected_answer_after_reprompt_is_compliant(self, small_build):
        scene, episode, _, ssm = small_build
        bad = {"final_answer": "x", "evidence_frames": [9999],
               "evidence_notes": []}
        reasoner = ScriptReasoner(scripts={
            "fixit": [action_step(0), bad, AUTO_ANSWER]})
        backend = ScriptedBackend(scene, reasoner=reasoner)
        out = answer(_query("fixit", 5, scene), ssm, episode, backend, _cfg(m=5))
        assert out.compliant
        assert out.calls_used == 1

    def test_evidence_resolves_against_final_state(self, small_build):
        """Evidence citing a note created by this episode's own patch is
        valid."""
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(scripts={
            "self-made": [action_step(0), AUTO_ANSWER]}))
        out = answer(_query("self-made", 5, scene), ssm, episode, backend,
                     _cfg(m=5))
        assert out.compliant
        nid, idx = out.evidence_notes[0]
        final = out.final_memory
        assert 0 <= idx < len(final.scratchpad[nid])


class TestProtocolFailures:
    def test_neither_action_nor_answer_abstains_after_reprompt(self, small_build):
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=None)  # reason always fails
        out = answer(_query("anything", 3, scene), ssm, episode, backend,
                     _cfg(m=3))
        assert out.abstained
        assert out.text == "unknown"
        assert not out.compliant
        assert out.calls_used == 0

    def test_disallowed_api_kind_handled(self, small_build):
        scene, episode, _, ssm = small_build
        steps = [action_step(0, api="find_objects"),
                 action_step(0, api="find_objects"), AUTO_ANSWER]
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(default=steps))
        out = answer(_query("wrong mode", 5, scene), ssm, episode, backend,
                     _cfg(mode="frame", m=5))
        # find_objects is not allowed in frame mode: reprompt once, then
        # the script still insists, so the loop abstains
        assert out.abstained
        assert out.calls_used == 0

    NEITHER = ("previous response contained neither an executable action "
               "nor a final answer")
    WRONG_API = ("api 'find_objects' not allowed in frame mode; "
                 "allowed: ('analyze_frame',)")
    FAILED = "backend failed to produce an answer"

    @pytest.mark.parametrize("steps,m,reprompt,final,calls", [
        # a reason call that always fails, an empty response, and an action
        # past the budget
        (None, 3, NEITHER, FAILED, 0),
        ([{}], 3, NEITHER, FAILED, 0),
        ([action_step(0)], 0, NEITHER, FAILED, 0),
        ([action_step(0, api="find_objects")], 5, WRONG_API, WRONG_API, 0),
        # the final verdict names the second problem, not the first
        ([action_step(0, api="find_objects"), {}], 5, WRONG_API, FAILED, 0),
        ([action_step(0), {}, action_step(0, api="find_objects")], 5,
         NEITHER, WRONG_API, 1),
    ], ids=["reason-fails", "empty-response", "over-budget", "wrong-api",
            "wrong-api-then-neither", "call-then-neither-then-wrong-api"])
    def test_one_reprompt_then_abstain_texts(self, small_build, steps, m,
                                             reprompt, final, calls):
        """Each protocol failure is reprompted once with the problem's text;
        a second failure abstains with the verdict of that failure."""
        scene, episode, _, ssm = small_build
        reprompts = []

        class Spy(ScriptedBackend):
            def call(self, request):
                if request.kind == "reason" and "violations" in request.payload:
                    reprompts.append(request.payload["violations"])
                return super().call(request)

        reasoner = None if steps is None else ScriptReasoner(default=steps)
        out = answer(_query("protocol", m, scene), ssm, episode,
                     Spy(scene, reasoner=reasoner), _cfg(mode="frame", m=m))
        assert reprompts == [[reprompt]]
        assert out.violations == [final]
        assert (out.abstained, out.compliant, out.text) == (True, False, "unknown")
        assert out.calls_used == len(out.transcript) == calls

    def test_image_mode_retrieval_only(self, small_build):
        scene, episode, _, ssm = small_build
        fid = next(f for f in ssm.frame_ids if f not in ssm.frame_memory)
        steps = [action_step(fid, query="", api="retrieve_frame"), AUTO_ANSWER]
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(default=steps))
        out = answer(_query("image mode", 5, scene), ssm, episode, backend,
                     _cfg(mode="image", m=5))
        assert out.calls_used == 1
        final = out.final_memory
        assert fid in final.frame_memory
        assert len(final.graph.tracks) == len(ssm.graph.tracks)
        assert final.note_count() == ssm.note_count()


class TestBatch:
    def test_engineered_counts_mean_and_p95(self, small_build):
        scene, episode, _, ssm = small_build
        counts = [0, 2, 4]
        scripts = {f"q{i}": [action_step(f % scene.frame_count)
                             for f in range(c)] + [AUTO_ANSWER]
                   for i, c in enumerate(counts)}
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(scripts=scripts))
        queries = [_query(f"q{i}", 20, scene) for i in range(len(counts))]
        result = run_episode_batch(queries, ssm.copy, episode, backend, _cfg())
        assert [a.calls_used for a in result.answers] == counts
        assert result.mean_calls == pytest.approx(2.0)
        assert result.p95_calls == 4
        assert result.histogram == {0: 1, 2: 1, 4: 1}

    def test_empty_batch(self, small_build):
        scene, episode, backend, ssm = small_build
        result = run_episode_batch([], ssm.copy, episode, backend, _cfg())
        assert result.answers == []
        assert result.histogram == {}
        assert result.mean_calls == 0.0
        assert result.p95_calls == 0

    def test_per_query_isolation(self, small_build):
        """Patches from one query are invisible to the next: both queries
        start from a memory with zero notes."""
        scene, episode, _, ssm = small_build

        class NoteCounter(ScriptReasoner):
            observed = []

            def decide(self, payload):
                memory = json.loads(payload["memory_json"])
                if not self._cursor.get(payload["question"]):
                    self.observed.append(
                        sum(len(e["notes"]) for e in memory["scratchpad"]))
                return super().decide(payload)

        reasoner = NoteCounter(default=[action_step(0), AUTO_ANSWER])
        backend = ScriptedBackend(scene, reasoner=reasoner)
        queries = [_query("first", 5, scene), _query("second", 5, scene)]
        run_episode_batch(queries, ssm.copy, episode, backend, _cfg(m=5))
        assert reasoner.observed == [0, 0]

    def test_repeated_question_replays_the_same_episode(self, small_build):
        """The rule reasoner reads its progress from each request's history,
        so asking one question twice in a batch, after a different
        question, gives the same transcript and answer both times."""
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=RuleReasoner())
        question = next(q.question for q in generate_questions(scene)
                        if q.question.startswith("what color"))
        repeated = _query(question, 20, scene)
        queries = [repeated, _query("how many objects are in the scene?", 20, scene),
                   repeated]
        result = run_episode_batch(queries, ssm.copy, episode, backend, _cfg())
        first, _, again = result.answers
        assert first.calls_used >= 1
        assert again.to_doc() == first.to_doc()

    @pytest.mark.parametrize("mode", ["frame", "node"])
    def test_rule_reasoner_keeps_no_state(self, mode):
        """On a noisy batch (miss_prob 0.6, with sweeps over all frames that
        restart; backend seed 60 is the first whose batch has such a sweep
        and two questions that need more than one call) the stateless
        RuleReasoner gives the answers and transcripts the stateful policy
        it replaced gave, and a fresh RuleReasoner answers every recorded
        reason request as the one that ran the batch did."""
        class Recorder(RuleReasoner):
            def __init__(self):
                self.log = []

            def decide(self, payload):
                response = super().decide(payload)
                self.log.append((json.dumps(payload), json.dumps(response)))
                return response

        assert vars(RuleReasoner()) == {}
        scene = generate_scene(2, 3, seed=1002)
        episode = scene.episode()
        queries = [_query(q.question, 20, scene) for q in generate_questions(scene)]
        recorder = Recorder()
        runs = []
        for reasoner in (ReferenceRuleReasoner(), recorder):
            backend = ScriptedBackend(scene, reasoner=reasoner, miss_prob=0.6, seed=60)
            ssm = build_ssm(episode, backend, _cfg(mode))
            result = run_episode_batch(queries, ssm.copy, episode, backend, _cfg(mode))
            runs.append([a.to_doc() for a in result.answers])
        assert runs[1] == runs[0]
        tried = [[step["call"]["frame_id"] for step in json.loads(p)["history"]]
                 for p, _ in recorder.log]
        assert any(len(set(frames)) < len(frames) for frames in tried)
        assert sorted({a["calls_used"] for a in runs[1]})[-2] > 1
        for payload, response in recorder.log:
            assert RuleReasoner().decide(json.loads(payload)) == json.loads(response)

    def test_repeated_question_replays_its_script(self, small_build):
        """The script reasoner's cursor restarts with each episode too: the
        second asking of "q" runs the analyze step again instead of
        resuming at the answer."""
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(
            scripts={"q": [action_step(), AUTO_ANSWER]}))
        result = run_episode_batch([_query("q", 5, scene), _query("q", 5, scene)],
                                   ssm.copy, episode, backend, _cfg(m=5))
        assert [a.calls_used for a in result.answers] == [1, 1]
        first, again = result.answers
        assert again.to_doc() == first.to_doc()

    def test_failing_query_recorded_batch_continues(self, small_build):
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(
            default=[AUTO_ANSWER]))
        queries = [_query("ok1", 5, scene), _query("boom", 5, scene),
                   _query("ok2", 5, scene)]

        real_copy = ssm.copy
        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("factory exploded")
            return real_copy()

        result = run_episode_batch(queries, factory, episode, backend, _cfg(m=5))
        assert len(result.answers) == 2
        assert len(result.failures) == 1
        assert result.failures[0][0] == 1


class TestHostileReasoner:
    """Schema-valid but semantically hostile reasoning must never crash
    the loop, bust the budget, or corrupt the memory."""

    HOSTILE_STEPS = [
        {"action": {"api": "analyze_frame", "frame_id": 99999, "query": "ghost"}},
        {"action": {"api": "retrieve_frame", "frame_id": 0, "query": ""}},
        {"action": {"api": "analyze_objects", "frame_id": 0, "query": "probe",
                    "node_ids": [31337, 424242]}},
        {"action": {"api": "find_objects", "frame_id": 1,
                    "query": "the invisible pink unicorn"}},
        {"action": {"api": "analyze_frame", "frame_id": 2, "query": "look"}},
        {"final_answer": "chaos", "evidence_frames": [99999],
         "evidence_notes": [[31337, 5]]},
        {"final_answer": "chaos", "evidence": "auto"},
    ]

    @pytest.mark.parametrize("mode", ["frame", "node", "image"])
    def test_loop_survives_hostility(self, small_build, mode):
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(
            default=list(self.HOSTILE_STEPS)))
        out = answer(_query(f"hostile {mode}", 6, scene), ssm, episode,
                     backend, _cfg(mode=mode, m=6))
        assert out.calls_used <= 6
        assert len(out.transcript) == out.calls_used
        assert isinstance(out.text, str)
        final = out.final_memory
        final.validate()
        serialize(final)  # canonical form still renders

    def test_failed_executions_still_count_against_budget(self, small_build):
        scene, episode, _, ssm = small_build
        bad_frame = {"action": {"api": "analyze_frame", "frame_id": 99999,
                                "query": "ghost"}}
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(
            default=[bad_frame] * 10 + [AUTO_ANSWER]))
        out = answer(_query("ghost hunt", 3, scene), ssm, episode, backend,
                     _cfg(m=3))
        assert out.calls_used == 3
        assert all(r.failure is not None for r in out.transcript)
        assert serialize(out.final_memory)[0] == serialize(ssm)[0]


class TestHelpers:
    def test_percentile_nearest_rank(self):
        assert percentile_nearest_rank([0, 1, 1, 2, 2, 2, 3, 5], 0.95) == 5
        assert percentile_nearest_rank([0, 2, 4], 0.95) == 4
        assert percentile_nearest_rank([], 0.95) == 0
        assert percentile_nearest_rank([7], 0.95) == 7
        assert percentile_nearest_rank(list(range(1, 101)), 0.95) == 95

    def test_write_transcript_jsonl(self, small_build, tmp_path):
        scene, episode, _, ssm = small_build
        backend = ScriptedBackend(scene, reasoner=ScriptReasoner(
            default=[action_step(0), AUTO_ANSWER]))
        out = answer(_query("log me", 5, scene), ssm, episode, backend, _cfg(m=5))
        path = tmp_path / "transcript.jsonl"
        write_transcript(out, path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == out.calls_used + 1
        assert lines[0]["call"]["api"] == "analyze_frame"
        assert lines[-1]["final"]["text"] == out.text
