"""CLI subcommands (synth/build/ask/eval/inspect) and the HTTP inspection
service, exercised end to end on a small synthetic scene."""

from __future__ import annotations

import json
import re
import urllib.request
from contextlib import contextmanager

import pytest

from scenemem import deserialize, load_dir
from scenemem.cli import main
from scenemem.config import EngineConfig, dump_config, load_config
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
        for name in ("ssm.json", "clouds.bin", "embeddings.bin",
                     "occupancy_floor0.pgm"):
            assert (mem_dir / name).exists()

    def test_persisted_memory_loads(self, workspace):
        _, _, mem_dir = workspace
        ssm = load_dir(mem_dir)
        assert len(ssm.graph.tracks) == 4
        assert ssm.frame_memory.initial_count == 4


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


class TestInspectCommand:
    def test_dumps_canonical_json(self, workspace, capsys):
        _, _, mem_dir = workspace
        assert main(["inspect", "--ssm", str(mem_dir)]) == 0
        text = capsys.readouterr().out
        ssm = deserialize(text)
        assert len(ssm.graph.tracks) == 4


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


class TestConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = EngineConfig()
        cfg.association.min_votes = 3
        cfg.spatial.grid_cell_m = 0.2
        cfg.initial_frames = 7
        path = tmp_path / "engine.cfg"
        path.write_text(dump_config(cfg))
        loaded = load_config(path)
        assert loaded.association.min_votes == 3
        assert loaded.spatial.grid_cell_m == 0.2
        assert loaded.initial_frames == 7

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_text("# tuning\n\nassociation.min_votes = 1  # loose\n")
        assert load_config(path).association.min_votes == 1

    def test_shipped_example_config_loads_as_defaults(self):
        from pathlib import Path

        example = Path(__file__).parent.parent / "docs" / "engine.example.cfg"
        assert load_config(example) == EngineConfig()

    def test_room_classes_parsed_as_tuple(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_text("spatial.room_classes = kitchen, lab, atrium\n")
        loaded = load_config(path)
        assert loaded.spatial.room_classes == ("kitchen", "lab", "atrium")

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_text("association.bogus = 3\n")
        with pytest.raises(ValueError):
            load_config(path)

    def test_invalid_value_rejected(self, tmp_path):
        path = tmp_path / "engine.cfg"
        path.write_text("association.min_votes = 9\n")
        with pytest.raises(ValueError):
            load_config(path)

    @pytest.mark.parametrize("line", [
        "edge_discovery_period = 0",      # was ZeroDivisionError mid-build
        "spatial.grid_cell_m = 0",        # was a NaN cast mid-build
        "embedding_dim = 0",              # was a failure inside the build
        "initial_frames = 1.5",           # was a ValueError without path:line
        "structure_pixel_stride = 0",
        "geometry.voxel_size_m = nan",
        "geometry.cluster_min_points = 0",
        "spatial.fill_unknown_iterations = -1",
        "association.overlap_radius_m = inf",
        "frame_failure_abort_fraction = 1.5",
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
