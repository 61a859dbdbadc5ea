"""HTTP transport: a local server implementing the wire protocol (backed
by the scripted oracle) must be indistinguishable from calling the oracle
directly — same construction, same reasoning, byte-identical memory."""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from scenemem import (EngineConfig, EpisodeQuery, HttpBackend, ScriptedBackend,
                      answer, build_ssm, serialize)
from scenemem.backend import BackendRequest, TransportError
from scenemem.scripted import ScriptReasoner

from conftest import BorderOverflowBackend


class _ProtocolHandler(BaseHTTPRequestHandler):
    inner: ScriptedBackend = None

    def do_POST(self):  # noqa: N802 (http.server API)
        length = int(self.headers.get("Content-Length", 0))
        doc = json.loads(self.rfile.read(length).decode("utf-8"))
        kind = self.path.strip("/")
        request = BackendRequest(kind=kind, frame_id=doc.get("frame_id"),
                                 query=doc.get("query"),
                                 payload=doc.get("payload") or {})
        try:
            raw = self.inner.raw_call(request)
        except Exception:
            self.send_response(500)
            self.end_headers()
            return
        body = json.dumps(raw).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, fmt, *args):
        pass


@pytest.fixture()
def protocol_server(small_scene):
    def start(inner: ScriptedBackend):
        handler = type("Bound", (_ProtocolHandler,), {"inner": inner})
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        host, port = server.server_address
        return server, f"http://{host}:{port}"

    servers = []

    def factory(inner):
        server, url = start(inner)
        servers.append(server)
        return url

    yield factory
    for server in servers:
        server.shutdown()
        server.server_close()


class TestHttpBackend:
    def test_construction_identical_over_http(self, small_scene, protocol_server):
        url = protocol_server(ScriptedBackend(small_scene, seed=2))
        episode = small_scene.episode()
        http_backend = HttpBackend(url)
        over_http = serialize(build_ssm(episode, http_backend, EngineConfig()))[0]
        direct = serialize(build_ssm(episode, ScriptedBackend(small_scene, seed=2),
                                     EngineConfig()))[0]
        assert over_http == direct

    def test_one_detect_post_per_build(self, small_scene, protocol_server):
        """A clean build POSTs one /detect listing every keyframe, and
        nothing else."""
        posts = []

        class Counting(ScriptedBackend):
            def raw_call(self, request):
                posts.append((request.kind, len(request.payload.get("frames", []))))
                return super().raw_call(request)

        url = protocol_server(Counting(small_scene))
        build_ssm(small_scene.episode(), HttpBackend(url), EngineConfig())
        assert posts == [("detect", len(small_scene.episode()))]

    def test_episode_identical_over_http(self, small_build, protocol_server):
        scene, episode, _, ssm = small_build
        script = {"probe": [
            {"action": {"api": "analyze_frame", "frame_id": 0, "query": "look"}},
            {"final_answer": "done", "evidence": "auto"}]}

        def run(backend):
            out = answer(EpisodeQuery("probe", 5, scene.scene_id), ssm,
                         episode, backend, EngineConfig())
            return (out.text, out.calls_used, out.compliant,
                    serialize(out.final_memory)[0])

        url = protocol_server(ScriptedBackend(
            scene, reasoner=ScriptReasoner(scripts=dict(script))))
        http_result = run(HttpBackend(url))
        direct_result = run(ScriptedBackend(
            scene, reasoner=ScriptReasoner(scripts=dict(script))))
        assert http_result == direct_result

    def test_border_overflow_clamped_over_http(self, small_scene, protocol_server):
        """Bounds travel on the request: an HttpBackend built from a URL
        alone clamps a 1 px border overflow like a direct call does."""
        url = protocol_server(BorderOverflowBackend(small_scene))
        episode = small_scene.episode()
        over_http = serialize(build_ssm(episode, HttpBackend(url), EngineConfig()))[0]
        direct = serialize(build_ssm(episode, BorderOverflowBackend(small_scene),
                                     EngineConfig()))[0]
        assert over_http == direct

    def test_unreachable_server_transport_error(self):
        backend = HttpBackend("http://127.0.0.1:9", timeout=0.3)
        with pytest.raises(TransportError):
            backend.call(BackendRequest(kind="consolidate",
                                        payload={"captions": ["x"]}))

    @pytest.mark.parametrize("url", ["notaurl", "http://[::1", "http://",
                                     "ftp://127.0.0.1", "http://127.0.0.1:99999",
                                     "http://127.0.0.1/?key=1", "http://127.0.0.1/#top"])
    def test_malformed_url_refused_at_construction(self, url):
        with pytest.raises(ValueError, match=re.escape(f"backend URL '{url}'")):
            HttpBackend(url)

    @pytest.mark.parametrize("url", ["http://127.0.0.1:9", "https://example.org/api/"])
    def test_http_and_https_urls_accepted(self, url):
        assert HttpBackend(url).base_url == url.rstrip("/")
