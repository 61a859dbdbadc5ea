"""Read-only HTTP inspection service over a persisted memory.

Endpoints (all GET, JSON):
  /ssm          canonical serialized memory
  /tracks/<id>  one track with its scratchpad notes (<id> in decimal digits)
  /navlog       the navigation log table
  /metrics      structural stats (and the eval report when one was saved)

The service serves immutable snapshots; concurrent reads are safe.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlsplit

from .memory import (ParseError, SceneMemory, canonical_json, load_dir, serialize,
                     table_records)


def _snapshot(ssm: SceneMemory) -> dict:
    text, _ = serialize(ssm)
    return {"doc": json.loads(text), "text": text}


def _metrics_doc(ssm: SceneMemory, report_doc: dict | None) -> dict:
    doc = {
        "tracks": len(ssm.graph.tracks),
        "edges": len(ssm.graph.edges),
        "notes": ssm.note_count(),
        "frame_memory_size": len(ssm.frame_memory),
        "episode_frames": len(ssm.frame_ids),
        "nav_entries": len(ssm.nav_log),
    }
    if report_doc is not None:
        doc["evaluation"] = report_doc
    return doc


class _Handler(BaseHTTPRequestHandler):
    snapshot: dict = {}
    metrics: dict = {}

    def _send(self, code: int, body: str) -> None:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self):  # noqa: N802 (http.server API)
        path = urlsplit(self.path).path.rstrip("/") or "/"
        if path == "/ssm":
            self._send(200, self.snapshot["text"])
        elif path == "/navlog":
            self._send(200, canonical_json(self.snapshot["doc"]["navigation_log"]))
        elif path == "/metrics":
            self._send(200, canonical_json(self.metrics))
        elif path.startswith("/tracks/") and path.count("/") == 2:
            raw = path.removeprefix("/tracks/")
            if not (raw.isascii() and raw.isdigit()):  # int() also takes "+1" and "1_0"
                self._send(400, json.dumps({"error": f"bad track id '{raw}'"}))
                return
            tid = int(raw)
            tracks = {t["id"]: t for t in
                      table_records(self.snapshot["doc"]["scene_graph"]["tracks"])}
            if tid not in tracks:
                self._send(404, json.dumps({"error": f"unknown track {tid}"}))
                return
            pad = {e["node_id"]: e["notes"] for e in self.snapshot["doc"]["scratchpad"]}
            body = tracks[tid]
            body["notes"] = pad.get(tid, [])
            self._send(200, canonical_json(body))
        else:
            self._send(404, json.dumps(
                {"error": f"unknown path '{path}'",
                 "endpoints": ["/ssm", "/tracks/<id>", "/navlog", "/metrics"]}))

    def log_message(self, fmt, *args):  # keep the test output quiet
        pass


def make_server(ssm: SceneMemory, host: str = "127.0.0.1", port: int = 0,
                metrics_report: dict | None = None) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {
        "snapshot": _snapshot(ssm),
        "metrics": _metrics_doc(ssm, metrics_report),
    })
    return ThreadingHTTPServer((host, port), handler)


def serve_dir(path: str | Path, host: str = "127.0.0.1", port: int = 8008) -> None:
    """Blocking entry point used by the CLI serve subcommand. A saved
    ``metrics.json`` that is not UTF-8 JSON raises ParseError naming it."""
    path = Path(path)
    ssm = load_dir(path)
    report = None
    report_file = path / "metrics.json"
    if report_file.exists():
        try:
            report = json.loads(report_file.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ParseError(str(report_file), f"not a UTF-8 JSON report: {exc}") from None
    with make_server(ssm, host, port, report) as server:
        print(f"serving memory for scene '{ssm.scene_id}' on http://{host}:{port}")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass


def start_background(ssm: SceneMemory, host: str = "127.0.0.1",
                     metrics_report: dict | None = None) \
        -> tuple[ThreadingHTTPServer, threading.Thread]:
    """Spawn the service on an ephemeral port (used by tests)."""
    server = make_server(ssm, host, 0, metrics_report)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread
