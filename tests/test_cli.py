"""CLI subcommands (synth/build/ask/eval/inspect) and the HTTP inspection
service, exercised end to end on a small synthetic scene."""

from __future__ import annotations

import dataclasses
import inspect
import json
import re
import shutil
import socket
import urllib.request
from contextlib import contextmanager
from pathlib import Path

import pytest

import scenemem
from scenemem import (ScriptedBackend, cli, deserialize, geometry, graph, load_dir,
                      metrics, spatial)
from scenemem.cli import main
from scenemem.config import API_MODES, EngineConfig, load_config
from scenemem.server import start_background


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scene_dir = root / "scene"
    assert main(["synth", "--rooms", "2", "--objects-per-room", "2",
                 "--seed", "11", "--out", str(scene_dir)]) == 0
    mem_dir = root / "mem"
    assert main(["build", "--dataset", str(scene_dir / "manifest.jsonl"),
                 "--scripted", str(scene_dir / "truth.json"),
                 "--k", "1", "--n-img", "4", "--out", str(mem_dir)]) == 0
    return root, scene_dir, mem_dir


class TestSynthCommand:
    def test_outputs_complete(self, workspace):
        _, scene_dir, _ = workspace
        assert (scene_dir / "manifest.jsonl").exists()
        assert (scene_dir / "truth.json").exists()
        assert (scene_dir / "questions.json").exists()
        assert any(scene_dir.glob("depth/*.png"))

    def test_manifest_parses(self, workspace):
        _, scene_dir, _ = workspace
        lines = (scene_dir / "manifest.jsonl").read_text().splitlines()
        first = json.loads(lines[0])
        assert {"id", "image", "depth", "pose", "intrinsics"} <= set(first)


class TestBuildCommand:
    def test_persisted_layout(self, workspace):
        _, _, mem_dir = workspace
        names = {p.name for p in mem_dir.iterdir() if p.suffix != ".pgm"}
        assert names == {"ssm.json", "tracks.bin"}
        assert (mem_dir / "occupancy_floor0.pgm").exists()

    def test_persisted_memory_loads(self, workspace):
        _, _, mem_dir = workspace
        ssm = load_dir(mem_dir)
        assert len(ssm.graph.tracks) == 4
        assert ssm.frame_memory.initial_count == 4


    def test_truncated_depth_is_one_line(self, workspace, tmp_path):
        """A truncated depth PNG ends the build with one line naming the
        frame, before anything is written."""
        _, scene_dir, _ = workspace
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        depth = scene / "depth" / "0000.png"
        blob = depth.read_bytes()
        depth.write_bytes(blob[:len(blob) // 2])
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["build", "--dataset", str(scene / "manifest.jsonl"),
                  "--scripted", str(scene / "truth.json"), "--out", str(out)])
        assert re.fullmatch(r"scenemem: frame 0: [^\n]*truncated[^\n]*", err.value.code)
        assert not out.exists()

    def test_k_without_dataset_refused(self, workspace, tmp_path):
        """--k strides a dataset's frames; a scripted scene alone keeps
        every frame, so the build refuses the flag before writing anything."""
        _, scene_dir, _ = workspace
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["build", "--scripted", str(scene_dir / "truth.json"), "--k", "3",
                  "--out", str(out)])
        assert err.value.code == "scenemem: --k needs --dataset, whose frames it strides"
        assert not out.exists()

    def test_dataset_stride_defaults_to_five(self, workspace, tmp_path):
        """Without --k a --dataset build keeps every 5th manifest record,
        the loader's one default."""
        _, scene_dir, _ = workspace
        manifest = scene_dir / "manifest.jsonl"
        ids = [json.loads(line)["id"] for line in manifest.read_text().splitlines()]
        out = tmp_path / "out"
        assert main(["build", "--dataset", str(manifest),
                     "--scripted", str(scene_dir / "truth.json"), "--out", str(out)]) == 0
        ssm = load_dir(out)
        assert ssm.stride == 5
        assert [e.frame_id for e in ssm.nav_log] == ids[::5]

    @pytest.mark.parametrize("field", ["image", "depth"])
    @pytest.mark.parametrize("value", ["", "depth"], ids=["empty", "directory"])
    def test_locator_naming_no_file_is_one_line(self, workspace, tmp_path, field, value):
        """An empty or directory-naming locator ends the build with one line
        naming the frame and the field, before anything is written."""
        _, scene_dir, _ = workspace
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        manifest = scene / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        record = json.loads(lines[0])
        record[field] = value
        manifest.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["build", "--dataset", str(manifest),
                  "--scripted", str(scene / "truth.json"), "--k", "1", "--out", str(out)])
        assert err.value.code == (f"scenemem: frame {record['id']}: {field} locator "
                                  f"'{value}' does not resolve")
        assert not out.exists()

    def test_non_finite_intrinsics_is_one_line(self, workspace, tmp_path):
        """A manifest whose focal length is NaN ends the build with one line
        naming the frame and the field, before anything is written."""
        _, scene_dir, _ = workspace
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        manifest = scene / "manifest.jsonl"
        lines = manifest.read_text().splitlines()
        record = json.loads(lines[0])
        record["intrinsics"]["fx"] = float("nan")
        manifest.write_text("\n".join([json.dumps(record), *lines[1:]]) + "\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["build", "--dataset", str(manifest),
                  "--scripted", str(scene / "truth.json"), "--k", "1", "--out", str(out)])
        assert err.value.code == ("scenemem: frame 0: intrinsics.fx must be a finite "
                                  "number, got nan")
        assert not out.exists()


class TestAskCommand:
    def test_question_answered(self, workspace, capsys):
        root, scene_dir, mem_dir = workspace
        questions = json.loads((scene_dir / "questions.json").read_text())
        spatial = next(q for q in questions if q["category"] == "spatial")
        code = main(["ask", "--ssm", str(mem_dir),
                     "--scripted", str(scene_dir / "truth.json"),
                     "--question", spatial["question"], "--m", "5",
                     "--transcript", str(root / "transcript.jsonl")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["text"] == spatial["answer"]
        assert doc["calls_used"] <= 5
        assert (root / "transcript.jsonl").exists()


class TestEvalCommand:
    def test_metrics_report_written(self, workspace, capsys):
        root, scene_dir, _ = workspace
        out = root / "metrics.json"
        code = main(["eval", "--scene", str(scene_dir / "truth.json"),
                     "--questions", str(scene_dir / "questions.json"),
                     "--m", "10", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["track_recall"] == 1.0
        assert doc["edge_recall"] == 1.0
        assert doc["answer_accuracy"] == 1.0


    def test_backend_flags_rejected(self, workspace):
        _, scene_dir, _ = workspace
        with pytest.raises(SystemExit) as err:
            main(["eval", "--scene", str(scene_dir / "truth.json"),
                  "--backend-url", "http://127.0.0.1:9"])
        assert err.value.code == 2


class TestFlagValidation:
    """A flag value the config refuses ends the command with one line
    naming the field, before any input is read and without output. The
    input paths do not exist: reading one first would raise
    FileNotFoundError instead."""

    @pytest.mark.parametrize("command,flags,message", [
        ("build", ["--n-img", "0"], "initial_frames must be >= 1, got 0"),
        ("build", ["--k", "0"], "--k: stride must be >= 1, got 0"),
        ("eval", ["--m", "-1"], "max_api_calls must be non-negative, got -1"),
        ("eval", ["--n-img", "-3"], "initial_frames must be >= 1, got -3"),
        ("eval", ["--miss-prob", "nan"], "miss_prob must be in [0, 1], got nan"),
        ("eval", ["--miss-prob", "5"], "miss_prob must be in [0, 1], got 5.0"),
        ("eval", ["--miss-prob", "inf"], "miss_prob must be in [0, 1], got inf"),
        ("eval", ["--miss-prob", "-1"], "miss_prob must be in [0, 1], got -1.0"),
        ("eval", ["--seed", "-1"], "seed must be >= 0, got -1"),
        ("synth", ["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_bad_value_exits_before_reading_input(self, tmp_path, command, flags,
                                                  message):
        missing = tmp_path / "missing"
        out = tmp_path / "out"
        inputs = {"build": ["--dataset", str(missing / "manifest.jsonl"),
                            "--scripted", str(missing / "truth.json")],
                  "eval": ["--scene", str(missing / "truth.json")],
                  "synth": []}[command]
        with pytest.raises(SystemExit) as err:
            main([command, *inputs, *flags, "--out", str(out)])
        assert err.value.code == f"scenemem: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("argv,need", [
        (["build", "--out", "{tmp}/out"],
         "--dataset <manifest> or --scripted <truth.json>"),
        (["build", "--dataset", "{scene}/manifest.jsonl", "--out", "{tmp}/out"],
         "--backend-url or --scripted <truth.json>"),
        (["ask", "--ssm", "{mem}", "--question", "x"],
         "--dataset or --scripted to resolve frames"),
    ])
    def test_missing_source_is_one_prefixed_line(self, workspace, tmp_path, capsys,
                                                 argv, need):
        _, scene_dir, mem_dir = workspace
        with pytest.raises(SystemExit) as err:
            main([arg.format(tmp=tmp_path, scene=scene_dir, mem=mem_dir)
                  for arg in argv])
        assert err.value.code == f"scenemem: need {need}"
        assert not (tmp_path / "out").exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("miss_prob,seed", [
        (float("nan"), 0), (5.0, 0), (float("inf"), 0), (-1.0, 0), (0.2, -1)])
    def test_scripted_backend_refuses_the_same_values(self, small_scene,
                                                      miss_prob, seed):
        with pytest.raises(ValueError, match="^(miss_prob|seed) must be"):
            ScriptedBackend(small_scene, miss_prob=miss_prob, seed=seed)

    @pytest.mark.parametrize("argv", [
        ["build", "--scripted", "truth.json", "--fixtures", "x", "--out", "o"],
        ["build", "--scripted", "truth.json", "--seed", "1", "--out", "o"],
        ["ask", "--ssm", "m", "--question", "q", "--seed", "1"],
        ["ask", "--ssm", "m", "--question", "q", "--fixtures", "x"],
    ])
    def test_removed_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2


class TestDamagedTruthFile:
    """A missing truth file, one that is not JSON and one that holds no
    valid truth end the command with one line naming the path, and
    nothing is written."""

    @pytest.mark.parametrize("command", ["eval", "build", "ask"])
    @pytest.mark.parametrize("content,reason", [
        (None, "No such file or directory"),
        ("{not json", "not JSON"),
        ("[1, 2]", "not a synthetic scene truth file"),
        ('{"format": "something else", "params": {}}',
         "not a synthetic scene truth file"),
        ('{"format": "scenemem-synthetic-truth", "params": {}}', "required"),
        ('{"format": "scenemem-synthetic-truth",'
         ' "params": {"rooms": 0, "objects_per_room": 2, "seed": 0}}',
         "need at least one room"),
        ('{"format": "scenemem-synthetic-truth",'
         ' "params": {"rooms": 1, "objects_per_room": 2, "seed": 0, "width": 0}}',
         "params.width must be a positive integer, got 0"),
        ('{"format": "scenemem-synthetic-truth",'
         ' "params": {"rooms": 1, "objects_per_room": 2, "seed": 0, "height": -1}}',
         "params.height must be a positive integer, got -1"),
        ('{"format": "scenemem-synthetic-truth",'
         ' "params": {"rooms": 1, "objects_per_room": 2, "seed": 0, "focal": 0}}',
         "params.focal must be a positive finite number, got 0"),
        pytest.param('{"format": "scenemem-synthetic-truth", "params": {"rooms": 1,'
                     ' "objects_per_room": 2, "seed": 0, "focal": 1%s}}' % ("0" * 400),
                     "params.focal must be a positive finite number, got 1000",
                     id="focal-beyond-float-range"),
        ('{"format": "scenemem-synthetic-truth",'
         ' "params": {"rooms": true, "objects_per_room": 2, "seed": 0}}',
         "params.rooms must be an integer, got true"),
        ('{"format": "scenemem-synthetic-truth",'
         ' "params": {"rooms": 1, "objects_per_room": 2, "seed": 0, "focal": 1e300}}',
         "params.focal must be at most 10000, got 1e+300"),
        ('{"format": "scenemem-synthetic-truth",'
         ' "params": {"rooms": 1, "objects_per_room": 2, "seed": 0, "width": 1025}}',
         "params.width must be at most 1024, got 1025"),
    ])
    def test_one_line_naming_the_path(self, workspace, tmp_path, command, content,
                                      reason):
        _, _, mem_dir = workspace
        truth = tmp_path / "truth.json"
        if content is not None:
            truth.write_text(content)
        out = tmp_path / "out"
        argv = {"eval": ["eval", "--scene", str(truth), "--out", str(out)],
                "build": ["build", "--scripted", str(truth), "--out", str(out)],
                "ask": ["ask", "--ssm", str(mem_dir), "--scripted", str(truth),
                        "--question", "q", "--transcript", str(out)]}[command]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert re.fullmatch(f"scenemem: {re.escape(str(truth))}: "
                            f"[^\n]*{re.escape(reason)}[^\n]*", err.value.code)
        assert not out.exists()

    def test_synth_without_rooms_is_one_line(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["synth", "--rooms", "0", "--out", str(out)])
        assert err.value.code == "scenemem: need at least one room"
        assert not out.exists()


class TestUnreadableInput:
    """A questions file, a config file or a backend the command cannot use
    also ends it with one line, naming the path where there is one, and
    nothing is written."""

    @pytest.mark.parametrize("content,reason", [
        (None, "No such file or directory"),
        ("{not json", "not JSON"),
        ('{"question": "q", "answer": "a", "category": "c"}', "not a list of objects"),
        ("[1]", "not a list of objects"),
        ('[{"question": "x"}]', "string question, answer and category fields"),
        ('[{"question": "q", "answer": 3, "category": "c"}]', "string question"),
    ])
    def test_questions_file(self, workspace, tmp_path, content, reason):
        _, scene_dir, _ = workspace
        questions = tmp_path / "questions.json"
        if content is not None:
            questions.write_text(content)
        out = tmp_path / "out.json"
        with pytest.raises(SystemExit) as err:
            main(["eval", "--scene", str(scene_dir / "truth.json"),
                  "--questions", str(questions), "--out", str(out)])
        assert re.fullmatch(f"scenemem: {re.escape(str(questions))}: "
                            f"[^\n]*{re.escape(reason)}[^\n]*", err.value.code)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "ask", "eval"])
    def test_missing_config_file(self, workspace, tmp_path, command):
        _, scene_dir, mem_dir = workspace
        config = tmp_path / "nope.cfg"
        out = tmp_path / "out"
        truth = str(scene_dir / "truth.json")
        argv = {"eval": ["eval", "--scene", truth, "--out", str(out)],
                "build": ["build", "--scripted", truth, "--out", str(out)],
                "ask": ["ask", "--ssm", str(mem_dir), "--scripted", truth,
                        "--question", "q", "--transcript", str(out)]}[command]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--config", str(config)])
        assert err.value.code == f"scenemem: {config}: No such file or directory"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "ask", "eval"])
    def test_config_file_not_utf8(self, workspace, tmp_path, command):
        _, scene_dir, mem_dir = workspace
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"\xff\xfem = 3\n")
        out = tmp_path / "out"
        truth = str(scene_dir / "truth.json")
        argv = {"eval": ["eval", "--scene", truth, "--out", str(out)],
                "build": ["build", "--scripted", truth, "--out", str(out)],
                "ask": ["ask", "--ssm", str(mem_dir), "--scripted", truth,
                        "--question", "q", "--transcript", str(out)]}[command]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--config", str(config)])
        assert err.value.code == (f"scenemem: {config}: not UTF-8 text "
                                  "(byte 0: invalid start byte)")
        assert not out.exists()

    def test_ask_unreachable_backend_exits_one(self, workspace, tmp_path, capsys):
        """The answer document is still printed, and one stderr line and
        the exit status tell a down backend from an honest "unknown"."""
        _, scene_dir, mem_dir = workspace
        code = main(["ask", "--ssm", str(mem_dir), "--scripted",
                     str(scene_dir / "truth.json"), "--question", "q",
                     "--backend-url", "http://127.0.0.1:9"])
        out = capsys.readouterr()
        assert code == 1
        doc = json.loads(out.out)
        assert doc["abstained"] and doc["text"] == "unknown"
        assert out.err == "scenemem: backend failed to produce an answer\n"

    def test_ask_honest_unknown_exits_zero(self, workspace, capsys):
        _, scene_dir, mem_dir = workspace
        code = main(["ask", "--ssm", str(mem_dir), "--scripted",
                     str(scene_dir / "truth.json"), "--question", "what is this?",
                     "--m", "0"])
        out = capsys.readouterr()
        assert code == 0
        doc = json.loads(out.out)
        assert doc["text"] == "unknown" and not doc["abstained"]
        assert out.err == ""

    def test_manifest_not_utf8(self, workspace, tmp_path):
        _, scene_dir, _ = workspace
        manifest = tmp_path / "m.jsonl"
        manifest.write_bytes(b"\xff\xfe{}\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["build", "--dataset", str(manifest), "--scripted",
                  str(scene_dir / "truth.json"), "--out", str(out)])
        assert err.value.code == (f"scenemem: manifest {manifest}: not UTF-8 text "
                                  "(byte 0: invalid start byte)")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build", "ask"])
    @pytest.mark.parametrize("url", ["notaurl", "http://[::1", "http://"])
    def test_malformed_backend_url_is_a_usage_error(self, workspace, tmp_path, capsys,
                                                    command, url):
        _, scene_dir, mem_dir = workspace
        out = tmp_path / "out"
        truth = str(scene_dir / "truth.json")
        argv = {"build": ["build", "--scripted", truth, "--out", str(out)],
                "ask": ["ask", "--ssm", str(mem_dir), "--scripted", truth,
                        "--question", "q", "--transcript", str(out)]}[command]
        with pytest.raises(SystemExit) as err:
            main([*argv, "--backend-url", url])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --backend-url: backend URL '{url}'" in captured.err
        assert not out.exists()

    def test_unreachable_backend(self, workspace, tmp_path):
        _, scene_dir, _ = workspace
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main(["build", "--scripted", str(scene_dir / "truth.json"),
                  "--backend-url", "http://127.0.0.1:9", "--out", str(out)])
        assert re.fullmatch(r"scenemem: \d+ of \d+ frames failed", err.value.code)
        assert not out.exists()


class TestUnwritableOutput:
    """An output the command cannot write ends it with one line naming the
    path and a non-zero exit, not a traceback; eval and ask find out before
    they read any input."""

    def test_eval_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        with pytest.raises(SystemExit) as err:  # the scene does not exist either
            main(["eval", "--scene", str(tmp_path / "truth.json"), "--out", str(out)])
        assert err.value.code == f"scenemem: {out}: no directory {out.parent}"
        assert capsys.readouterr().out == ""

    def test_eval_out_is_a_directory(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:  # the scene does not exist either
            main(["eval", "--scene", str(tmp_path / "truth.json"), "--m", "0",
                  "--out", str(tmp_path)])
        assert err.value.code == f"scenemem: {tmp_path}: Is a directory"
        assert capsys.readouterr().out == ""

    def test_ask_transcript_is_a_directory(self, workspace, tmp_path, capsys):
        _, scene_dir, mem_dir = workspace
        with pytest.raises(SystemExit) as err:
            main(["ask", "--ssm", str(mem_dir), "--scripted",
                  str(scene_dir / "truth.json"), "--question", "q",
                  "--transcript", str(tmp_path)])
        assert err.value.code == f"scenemem: {tmp_path}: Is a directory"
        assert capsys.readouterr().out == ""

    def test_build_out_is_a_file(self, workspace, tmp_path):
        _, scene_dir, _ = workspace
        out = tmp_path / "mem"
        out.write_text("keep")
        with pytest.raises(SystemExit) as err:
            main(["build", "--scripted", str(scene_dir / "truth.json"),
                  "--out", str(out)])
        assert err.value.code == f"scenemem: {out}: exists and is not a directory"
        assert out.read_text() == "keep"

    def test_ask_transcript_in_missing_directory(self, workspace, tmp_path, capsys):
        _, scene_dir, mem_dir = workspace
        transcript = tmp_path / "missing" / "t.jsonl"
        with pytest.raises(SystemExit) as err:
            main(["ask", "--ssm", str(mem_dir), "--scripted",
                  str(scene_dir / "truth.json"), "--question", "q",
                  "--transcript", str(transcript)])
        assert err.value.code == (f"scenemem: {transcript}: no directory "
                                  f"{transcript.parent}")
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("port", ["99999", "65536", "-1", "http"])
    def test_serve_port_out_of_range_is_a_usage_error(self, workspace, port, capsys):
        _, _, mem_dir = workspace
        with pytest.raises(SystemExit) as err:
            main(["serve", "--ssm", str(mem_dir), "--port", port])
        assert err.value.code == 2
        assert "expected a port in 0-65535" in capsys.readouterr().err

    def test_serve_port_in_use_is_one_line(self, workspace, capsys):
        _, _, mem_dir = workspace
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(SystemExit) as err:
                main(["serve", "--ssm", str(mem_dir), "--port", str(port)])
        assert err.value.code == f"scenemem: 127.0.0.1:{port}: Address already in use"
        assert capsys.readouterr().out == ""


    @pytest.mark.parametrize("report", [b"{", b"\xff\xfe{}"], ids=["not-json", "not-utf8"])
    def test_serve_unreadable_metrics_is_one_line(self, workspace, tmp_path, capsys, report):
        """A saved metrics.json that is not UTF-8 JSON ends serve with one
        line naming it, before any port is bound."""
        _, _, mem_dir = workspace
        damaged = tmp_path / "m2"
        shutil.copytree(mem_dir, damaged)
        (damaged / "metrics.json").write_bytes(report)
        with pytest.raises(SystemExit) as err:
            main(["serve", "--ssm", str(damaged), "--port", "0"])
        named = re.escape(str(damaged / "metrics.json"))
        assert re.fullmatch(f"scenemem: {named}: not a UTF-8 JSON report: [^\n]+",
                            err.value.code)
        assert capsys.readouterr().out == ""


class TestInspectCommand:
    def test_dumps_canonical_json(self, workspace, capsys):
        _, _, mem_dir = workspace
        assert main(["inspect", "--ssm", str(mem_dir)]) == 0
        text = capsys.readouterr().out
        ssm = deserialize(text)
        assert len(ssm.graph.tracks) == 4

    @pytest.mark.parametrize("missing", ["tracks.bin", "ssm.json"])
    def test_missing_side_car_is_one_line(self, workspace, tmp_path, capsys, missing):
        """A memory directory without one of its files exits non-zero with
        one line naming the file in its directory, and prints nothing to
        stdout."""
        _, _, mem_dir = workspace
        damaged = tmp_path / "m2"
        shutil.copytree(mem_dir, damaged)
        (damaged / missing).unlink()
        with pytest.raises(SystemExit) as err:
            main(["inspect", "--ssm", str(damaged)])
        named = re.escape(str(damaged / missing))
        assert re.fullmatch(f"scenemem: {named}: missing[^\n]*", err.value.code)
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("damage", ["foreign side-car", "edited ssm.json"])
    def test_side_car_of_another_text_is_one_line(self, workspace, tmp_path, capsys,
                                                  damage):
        """A tracks.bin written next to another ssm.json, or an ssm.json
        edited after saving, ends inspect with one line naming tracks.bin
        in its directory."""
        root, scene_dir, mem_dir = workspace
        damaged = tmp_path / "m2"
        shutil.copytree(mem_dir, damaged)
        if damage == "foreign side-car":
            other = tmp_path / "other"
            assert main(["build", "--dataset", str(scene_dir / "manifest.jsonl"),
                         "--scripted", str(scene_dir / "truth.json"),
                         "--k", "2", "--out", str(other)]) == 0
            shutil.copy(other / "tracks.bin", damaged / "tracks.bin")
            capsys.readouterr()
        else:
            text = (damaged / "ssm.json").read_bytes()
            at = len(text) // 2
            (damaged / "ssm.json").write_bytes(
                text[:at] + bytes([text[at] ^ 1]) + text[at + 1:])
        with pytest.raises(SystemExit) as err:
            main(["inspect", "--ssm", str(damaged)])
        assert err.value.code \
            == f"scenemem: {damaged / 'tracks.bin'}: written for another ssm.json"
        assert capsys.readouterr().out == ""


@contextmanager
def serving(ssm):
    """The inspection service on an ephemeral port; yields (host, port) and
    closes the listening socket afterwards."""
    server, _ = start_background(ssm)
    with server:
        try:
            yield server.server_address
        finally:
            server.shutdown()


class TestServe:
    def test_endpoints(self, workspace):
        _, _, mem_dir = workspace
        ssm = load_dir(mem_dir)
        with serving(ssm) as (host, port):
            def get(path):
                with urllib.request.urlopen(f"http://{host}:{port}{path}") as r:
                    return r.status, json.loads(r.read().decode())

            status, doc = get("/ssm")
            assert status == 200
            assert len(doc["scene_graph"]["tracks"]["rows"]) == 4

            tid = doc["scene_graph"]["tracks"]["rows"][0][0]
            status, track = get(f"/tracks/{tid}")
            assert status == 200
            assert track["id"] == tid
            assert "notes" in track

            status, nav = get("/navlog")
            assert status == 200
            assert nav == doc["navigation_log"]

            status, metrics = get("/metrics")
            assert status == 200
            assert metrics["tracks"] == 4

            with pytest.raises(urllib.error.HTTPError) as err:
                get("/tracks/999")
            with err.value:
                assert err.value.code == 404

    def test_unknown_path_404(self, workspace):
        _, _, mem_dir = workspace
        with serving(load_dir(mem_dir)) as (host, port):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(f"http://{host}:{port}/nope")
            with err.value:
                assert err.value.code == 404

    def test_query_string_ignored_in_routing(self, workspace):
        _, _, mem_dir = workspace
        ssm = load_dir(mem_dir)
        with serving(ssm) as (host, port):
            def get(path):
                with urllib.request.urlopen(f"http://{host}:{port}{path}") as r:
                    return r.status, r.read().decode()

            assert get("/ssm?x=1") == get("/ssm")
            tid = min(ssm.graph.tracks)
            status, body = get(f"/tracks/{tid}?x=1")
            assert status == 200
            assert json.loads(body)["id"] == tid
            assert get("/navlog/?a=b#frag") == get("/navlog")


# keys an older config file may hold: each is now a constant, and the
# frame stride is the manifest loader's argument (build's --k)
RETIRED_KEYS = [
    "association.visual_sim_threshold", "association.caption_sim_threshold",
    "association.overlap_threshold", "association.overlap_radius_m",
    "association.min_votes", "association.ema_weight",
    "geometry.voxel_size_m", "geometry.cluster_eps_m", "geometry.cluster_min_points",
    "spatial.height_bin_m", "spatial.floor_separation_m",
    "spatial.room_peak_separation_m", "spatial.room_seed_min_dist_m",
    "spatial.min_room_area_m2", "spatial.fill_unknown_iterations",
    "spatial.grid_cell_m", "spatial.wall_height_m", "spatial.yaw_threshold_deg",
    "spatial.forward_threshold_m", "spatial.vertical_threshold_m",
    "caption_consolidation_threshold", "edge_discovery_period",
    "structure_pixel_stride", "structure_voxel_m", "frame_failure_abort_fraction",
    "frame_stride",
]
EXAMPLE_CONFIG = Path(__file__).parent.parent / "docs" / "engine.example.cfg"


class TestConfigFile:
    def test_hand_written_file_sets_every_field(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_text("initial_frames = 7\nmax_api_calls = 3\napi_mode = node\n"
                        "embedding_dim = 16\nroom_classes = kitchen, living room\n")
        cfg = EngineConfig(initial_frames=7, max_api_calls=3, api_mode="node",
                           embedding_dim=16, room_classes=("kitchen", "living room"))
        assert load_config(path) == cfg
        default = EngineConfig()
        for f in dataclasses.fields(EngineConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name

    def test_fields_are_the_settings_callers_set(self):
        assert [f.name for f in dataclasses.fields(EngineConfig)] == [
            "initial_frames", "max_api_calls", "api_mode", "embedding_dim",
            "room_classes"]

    def test_api_modes_have_one_table(self):
        """The --api choices and the modes EngineConfig accepts are the keys
        of config.API_MODES (the loop's use of it is pinned in test_loop)."""
        assert cli._FLAGS["api"]["choices"] == tuple(API_MODES)
        for mode in API_MODES:
            assert EngineConfig(api_mode=mode).api_mode == mode
        with pytest.raises(ValueError, match="^api_mode must be frame, node or image$"):
            EngineConfig(api_mode="graph")

    def test_thresholds_are_not_arguments(self):
        """The readers of the association, merge, consolidation, relation,
        floor, room-snap, projection-depth and scoring thresholds take none
        of them as an argument, and no settable copy of the vote's
        thresholds is exported."""
        parameters = {
            graph.associate: ["detections", "tracks"],
            graph.vote_score: ["d", "t"],
            graph.merge_detection: ["t", "d"],
            graph.consolidate_captions: ["t", "backend"],
            graph.edge_discovery_due: ["frame_index"],
            spatial.detect_floors: ["camera_heights"],
            spatial.RoomModel.locate: ["self", "x", "y", "z"],
            geometry.project: ["cloud", "intr", "pose"],
            metrics.match_tracks: ["ssm", "scene"],
        }
        for fn, names in parameters.items():
            assert list(inspect.signature(fn).parameters) == names, fn.__name__
        assert not hasattr(scenemem, "AssociationConfig")
        assert not hasattr(scenemem.config, "AssociationConfig")

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_text("# tuning\n\nmax_api_calls = 1  # tight\n")
        assert load_config(path).max_api_calls == 1

    def test_shipped_example_config_loads_as_defaults(self):
        assert load_config(EXAMPLE_CONFIG) == EngineConfig()

    def test_shipped_example_config_names_each_field_once(self):
        keys = [line.split("=", 1)[0].strip()
                for line in EXAMPLE_CONFIG.read_text(encoding="utf-8").splitlines()
                if line.split("#", 1)[0].strip()]
        assert sorted(keys) == sorted(f.name for f in dataclasses.fields(EngineConfig))

    def test_room_classes_parsed_as_tuple(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_text("room_classes = kitchen, lab, atrium\n")
        loaded = load_config(path)
        assert loaded.room_classes == ("kitchen", "lab", "atrium")

    @pytest.mark.parametrize("key", [*RETIRED_KEYS, "spatial.room_classes",
                                     "association", "bogus"])
    def test_unknown_key_fails_at_load_naming_its_line(self, tmp_path, key):
        path = tmp_path / "engine.cfg"
        path.write_text(f"initial_frames = 3\n{key} = 1\n")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:2: unknown key '{key}'"

    @pytest.mark.parametrize("line", [
        "embedding_dim = 0",              # was a failure inside the build
        "initial_frames = 1.5",           # was a ValueError without path:line
        "initial_frames = 0",
        "max_api_calls = -1",
        "max_api_calls = nan",
        "api_mode = graph",
        "room_classes = ,",               # was a GeometryInputError after the sweep
    ])
    def test_bad_value_fails_at_load_naming_its_line(self, tmp_path, line):
        path = tmp_path / "engine.cfg"
        path.write_text(f"# tuning\n{line}\n")
        key = line.split("=")[0].strip()
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: {key}: ")):
            load_config(path)

    def test_cli_consumes_config(self, workspace, tmp_path, capsys):
        _, scene_dir, mem_dir = workspace
        cfg_path = tmp_path / "engine.cfg"
        cfg_path.write_text("initial_frames = 3\n")
        out_dir = tmp_path / "mem3"
        assert main(["build", "--dataset", str(scene_dir / "manifest.jsonl"),
                     "--scripted", str(scene_dir / "truth.json"),
                     "--k", "1", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 0
        assert load_dir(out_dir).frame_memory.initial_count == 3
