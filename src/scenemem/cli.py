"""Command-line interface; ``scenemem --help`` lists the subcommands."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import depthio
from .backend import Backend, HttpBackend, check_backend_url
from .config import API_MODES, EngineConfig, load_config
from .dataset import STRIDE, DatasetError, check_stride, load_dataset, save_dataset
from .loop import EpisodeQuery, answer, write_transcript
from .memory import ParseError, SerializationError, load_dir, save_dir, serialize
from .metrics import evaluate
from .pipeline import BuildError, attach_floor_plan, build_ssm
from .scripted import RuleReasoner, ScriptedBackend, check_noise
from .server import serve_dir
from .synth import (GenerationError, SyntheticScene, generate_questions,
                    generate_scene, load_questions, save_questions)


def _engine_config(args) -> EngineConfig:
    """The config file (or the defaults) with the flags applied; an
    unreadable config file or a refused value exits with one line naming
    the path or the field, before any input is read."""
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(EngineConfig)
                 if getattr(args, f.name, None) is not None}
    try:
        cfg = load_config(args.config) if getattr(args, "config", None) else EngineConfig()
        return dataclasses.replace(cfg, **overrides)
    except OSError as exc:
        raise SystemExit(f"scenemem: {args.config}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise SystemExit(f"scenemem: {exc}") from None


def _check_output_dir(path: str | None) -> None:
    """Before any input is read: exit with one line when the file ``path``
    names is a directory or has no directory to be written into."""
    if path is None:
        return
    if Path(path).is_dir():
        raise SystemExit(f"scenemem: {path}: Is a directory")
    if not Path(path).parent.is_dir():
        raise SystemExit(f"scenemem: {path}: no directory {Path(path).parent}")


def _port(text: str) -> int:
    """A TCP port, 0-65535; anything else is a usage error."""
    if not (text.isdigit() and int(text) <= 65535):
        raise argparse.ArgumentTypeError(f"expected a port in 0-65535, got '{text}'")
    return int(text)


def _backend_url(text: str) -> str:
    """An http(s) URL naming a host; anything else is a usage error."""
    try:
        return check_backend_url(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _backend(args, scene: SyntheticScene | None) -> Backend:
    if args.backend_url:
        return HttpBackend(args.backend_url)
    if scene is not None:
        return ScriptedBackend(scene, reasoner=RuleReasoner())
    raise SystemExit("scenemem: need --backend-url or --scripted <truth.json>")


def cmd_synth(args) -> int:
    scene = generate_scene(args.rooms, args.objects_per_room, args.seed)
    out = Path(args.out)
    episode = scene.episode()
    save_dataset(episode, out)
    scene.save(out / "truth.json")
    save_questions(generate_questions(scene), out / "questions.json")
    print(f"wrote scene '{scene.scene_id}': {len(episode)} frames, "
          f"{len(scene.objects)} objects, {len(scene.relations)} relations -> {out}")
    return 0


def cmd_build(args) -> int:
    if Path(args.out).exists() and not Path(args.out).is_dir():
        raise SystemExit(f"scenemem: {args.out}: exists and is not a directory")
    if args.k is not None:
        if not args.dataset:  # a scripted scene keeps every frame
            raise SystemExit("scenemem: --k needs --dataset, whose frames it strides")
        try:
            check_stride(args.k)
        except DatasetError as exc:
            raise SystemExit(f"scenemem: --k: {exc}") from None
    cfg = _engine_config(args)
    scene = SyntheticScene.load(args.scripted) if args.scripted else None
    if args.dataset:
        episode = load_dataset(args.dataset, STRIDE if args.k is None else args.k,
                               scene_id=scene.scene_id if scene else None)
    elif scene is not None:
        episode = scene.episode()
    else:
        raise SystemExit("scenemem: need --dataset <manifest> or --scripted <truth.json>")
    backend = _backend(args, scene)
    ssm = build_ssm(episode, backend, cfg)
    save_dir(ssm, args.out)
    for floor_id, grid in ssm.rooms.grids.items():  # occupancy dumps for debugging
        depthio.write_pgm(Path(args.out) / f"occupancy_{floor_id}.pgm", grid.free)
    print(f"built memory for '{ssm.scene_id}': {len(ssm.graph.tracks)} tracks, "
          f"{len(ssm.graph.edges)} edges, {len(ssm.nav_log)} nav entries -> {args.out}")
    if all(e.room_label == "unknown" for e in ssm.nav_log):
        print(f"scenemem: warning: {args.out}: no room is labelled, so every "
              "navigation-log row and placed track reads \"unknown\"; a --dataset build "
              "keeps more keyframes per room at a smaller --k", file=sys.stderr)
    return 0


def cmd_ask(args) -> int:
    _check_output_dir(args.transcript)
    cfg = _engine_config(args)
    ssm = load_dir(args.ssm)
    scene = SyntheticScene.load(args.scripted) if args.scripted else None
    if args.dataset:
        episode = load_dataset(args.dataset, ssm.stride)
    elif scene is not None:
        episode = scene.episode()
    else:
        raise SystemExit("scenemem: need --dataset or --scripted to resolve frames")
    try:
        attach_floor_plan(ssm, episode)
    except SerializationError as exc:
        raise SystemExit(f"scenemem: {args.ssm}: {exc}") from None
    backend = _backend(args, scene)
    query = EpisodeQuery(question=args.question, max_calls=cfg.max_api_calls,
                         scene_id=ssm.scene_id)
    result = answer(query, ssm, episode, backend, cfg)
    doc = result.to_doc()
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.transcript:
        write_transcript(result, args.transcript)
    if result.abstained:  # no answer came back: not an honest "unknown"
        print(f"scenemem: {result.violations[0]}", file=sys.stderr)
        return 1
    return 0


def cmd_eval(args) -> int:
    _check_output_dir(args.out)
    cfg = _engine_config(args)
    try:
        check_noise(args.miss_prob, args.seed)
    except ValueError as exc:
        raise SystemExit(f"scenemem: {exc}") from None
    scene = SyntheticScene.load(args.scene)
    questions = (load_questions(args.questions) if args.questions
                 else generate_questions(scene))
    backend = ScriptedBackend(scene, reasoner=RuleReasoner(), seed=args.seed,
                              miss_prob=args.miss_prob)
    report = evaluate(scene, questions, backend, cfg)
    text = json.dumps(report.to_doc(), indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"wrote metrics report -> {args.out}")
    else:
        print(text)
    return 0


def cmd_inspect(args) -> int:
    ssm = load_dir(args.ssm)
    text, refs = serialize(ssm)
    sys.stdout.write(text)
    if args.frames:
        for fid, locator in refs:
            print(f"frame {fid}: {locator}", file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    try:
        serve_dir(args.ssm, host=args.host, port=args.port)
    except OSError as exc:  # the address cannot be bound (in use, not local)
        if exc.filename is not None:
            raise
        raise SystemExit(f"scenemem: {args.host}:{args.port}: {exc.strerror or exc}") \
            from None
    return 0


_FLAGS = {
    "dataset": {"help": "manifest.jsonl path"},
    "config": {"help": "key = value config file"},
    "k": {"type": int, "help": f"keep every k-th --dataset frame (default {STRIDE})"},
    # the engine settings a flag overrides; dest is the EngineConfig field
    "n-img": {"dest": "initial_frames", "type": int, "help": "initial frame memory size"},
    "m": {"dest": "max_api_calls", "type": int, "help": "maximum API calls per question"},
    "api": {"dest": "api_mode", "choices": tuple(API_MODES),
            "help": "which modifiability APIs the reasoner may use"},
    "backend-url": {"type": _backend_url,
                    "help": "HTTP backend base URL, http(s)://host[:port]"},
    "scripted": {"help": "synthetic truth.json for the scripted backend"},
}


def _add_flags(p: argparse.ArgumentParser, *names: str) -> None:
    """Register the shared flags a subcommand reads, and no others."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scenemem",
                                     description="editable 3D scene memory engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene: manifest + "
                                     "depth PNGs + truth + questions")
    p.add_argument("--rooms", type=int, default=2)
    p.add_argument("--objects-per-room", dest="objects_per_room", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("build", help="construct a memory from a dataset "
                                     "manifest or a synthetic scene and persist it")
    p.add_argument("--out", required=True)
    _add_flags(p, "dataset", "config", "k", "n-img", "backend-url", "scripted")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("ask", help="answer a question against a persisted memory")
    p.add_argument("--ssm", required=True, help="persisted memory directory")
    p.add_argument("--question", required=True)
    p.add_argument("--transcript", help="write the loop transcript here (JSONL)")
    _add_flags(p, "dataset", "config", "m", "api", "backend-url", "scripted")
    p.set_defaults(func=cmd_ask)

    p = sub.add_parser("eval", help="run the synthetic evaluation and write a "
                                    "metrics report")
    p.add_argument("--scene", required=True, help="truth.json path")
    p.add_argument("--questions", help="questions.json (defaults to generated)")
    p.add_argument("--miss-prob", dest="miss_prob", type=float, default=0.0,
                   help="chance the scripted detector misses each object, in [0, 1]")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the scripted detector's misses, >= 0")
    p.add_argument("--out", help="metrics report output path")
    _add_flags(p, "config", "n-img", "m", "api")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect", help="dump a persisted memory's canonical JSON")
    p.add_argument("--ssm", required=True)
    p.add_argument("--frames", action="store_true",
                   help="also list frame references on stderr")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("serve", help="read-only HTTP endpoints over a persisted "
                                     "memory")
    p.add_argument("--ssm", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=8008)
    p.set_defaults(func=cmd_serve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BuildError, DatasetError, GenerationError, ParseError) as exc:
        raise SystemExit(f"scenemem: {exc}") from None  # one line, no traceback
    except OSError as exc:  # a path the command could not write or read
        if exc.filename is None:
            raise
        raise SystemExit(f"scenemem: {exc.filename}: {exc.strerror}") from None


if __name__ == "__main__":
    raise SystemExit(main())
