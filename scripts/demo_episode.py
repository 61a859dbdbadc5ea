#!/usr/bin/env python3
"""End-to-end demo: generate a synthetic scene, build the scene memory,
then watch the reasoning loop patch the memory while answering questions.
"""

import argparse

from scenemem import (EngineConfig, EpisodeQuery, RuleReasoner, ScriptedBackend,
                      answer, build_ssm, generate_questions, generate_scene)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rooms", type=int, default=2)
    parser.add_argument("--objects-per-room", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--m", type=int, default=20)
    args = parser.parse_args()
    cfg = EngineConfig(max_api_calls=args.m)

    scene = generate_scene(args.rooms, args.objects_per_room, args.seed)
    episode = scene.episode()
    backend = ScriptedBackend(scene, reasoner=RuleReasoner())

    print(f"scene {scene.scene_id}: {len(scene.objects)} objects, "
          f"{len(scene.relations)} relations, {len(episode)} keyframes")
    ssm = build_ssm(episode, backend, cfg)
    print(f"memory: {len(ssm.graph.tracks)} tracks, {len(ssm.graph.edges)} edges, "
          f"{len(ssm.frame_memory)} frames in memory\n")

    for question in generate_questions(scene):
        out = answer(EpisodeQuery(question.question, args.m, scene.scene_id),
                     ssm, episode, backend, cfg)
        status = "ok " if out.text == question.answer else "MISS"
        print(f"[{status}] {question.question}")
        for report in out.transcript:
            call = report.call
            print(f"       -> {call.kind}(frame={call.frame_id}, "
                  f"query={call.query!r}): +{len(report.created)} tracks, "
                  f"+{report.notes_added} notes")
        print(f"       answer: {out.text!r} (expected {question.answer!r}), "
              f"calls={out.calls_used}, evidence ok={out.compliant}")


if __name__ == "__main__":
    main()
