#!/usr/bin/env python3
"""API-call distribution over a batch of questions.

Answers every generated question on fresh memory copies and prints the
calls-per-question histogram with its mean and p95 — the same reporting
pipeline the evaluation metrics use.
"""

import argparse

from scenemem import (EngineConfig, RuleReasoner, ScriptedBackend, evaluate,
                      generate_questions, generate_scene)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rooms", type=int, default=3)
    parser.add_argument("--objects-per-room", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--miss", type=float, default=0.0)
    parser.add_argument("--m", type=int, default=20)
    args = parser.parse_args()
    cfg = EngineConfig(max_api_calls=args.m)

    scene = generate_scene(args.rooms, args.objects_per_room, args.seed)
    questions = generate_questions(scene)
    backend = ScriptedBackend(scene, reasoner=RuleReasoner(),
                              miss_prob=args.miss, seed=args.seed)
    report = evaluate(scene, questions, backend, cfg)

    print(f"{len(questions)} questions on {scene.scene_id} "
          f"(miss={args.miss}, m={args.m})")
    print(f"answer accuracy: {report.answer_accuracy:.3f}")
    print(f"track P/R: {report.track_precision:.3f}/{report.track_recall:.3f}  "
          f"edge P/R: {report.edge_precision:.3f}/{report.edge_recall:.3f}")
    print("calls histogram:")
    peak = max(report.calls_histogram.values())
    for count in sorted(report.calls_histogram):
        n = report.calls_histogram[count]
        bar = "#" * round(30 * n / peak)
        print(f"  {count:>3} calls | {bar} {n}")
    print(f"mean calls: {report.calls_mean:.2f}   p95: {report.calls_p95}")


if __name__ == "__main__":
    main()
