"""The HTTP front of ``repro serve``: routing, status codes, lifecycle.

Each test runs a real :class:`~repro.serve.http.ReproServer` on an
ephemeral port with its own event loop on a background thread, and speaks
plain ``http.client`` to it — the same wire a curl user or the CI smoke
step sees.
"""

import asyncio
import http.client
import json
import sys
import threading
import time

import pytest

from repro.api import INVENTORY_SOURCES, register_inventory_source
from repro.serve import ReproServer, ServeApp, ServeConfig


class _LiveServer:
    """A ReproServer on a background event loop, plus a tiny HTTP client."""

    def __init__(self, app: ServeApp):
        self.app = app
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._loop.run_forever,
                                        daemon=True)
        self._thread.start()
        self.server = ReproServer(app)
        asyncio.run_coroutine_threadsafe(
            self.server.start(), self._loop).result(timeout=10)
        self.port = self.server.port

    def request(self, method: str, path: str, doc=None):
        """Returns (status, headers-dict, parsed-JSON-body)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            body = None if doc is None else json.dumps(doc).encode()
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            raw = response.read()
            return (response.status, dict(response.getheaders()),
                    json.loads(raw))
        finally:
            conn.close()

    def raw_request(self, raw: bytes) -> int:
        """Send raw bytes, return the response status line's code."""
        import socket

        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=30) as sock:
            sock.sendall(raw)
            data = sock.recv(4096)
        return int(data.split(b" ", 2)[1])

    def shutdown(self, timeout_s: float = 10.0) -> bool:
        if self._loop.is_closed():  # idempotent for in-test shutdowns
            return True
        future = asyncio.run_coroutine_threadsafe(
            self.server.shutdown(timeout_s), self._loop)
        clean = future.result(timeout=timeout_s + 30)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()
        return clean


@pytest.fixture
def live():
    """A running server over a 2-worker app with the counting inventory."""

    class _Source:
        calls = 0

        def __call__(self, spec):
            from repro.snapshot.config import build_iris_snapshot_config

            type(self).calls += 1
            return build_iris_snapshot_config(
                duration_hours=spec.duration_hours,
                trace_step_s=spec.trace_step_s,
                campaign_seed=spec.campaign_seed,
                node_scale=spec.node_scale)

    _Source.calls = 0
    register_inventory_source("serve-http-iris", _Source())
    server = _LiveServer(ServeApp(ServeConfig(port=0, workers=2)))
    server.source = _Source
    try:
        yield server
    finally:
        server.shutdown()
        INVENTORY_SOURCES.unregister("serve-http-iris")


def _doc(**overrides):
    doc = {"node_scale": 0.02, "campaign_seed": 11,
           "inventory": "serve-http-iris"}
    doc.update(overrides)
    return doc


class TestRouting:
    def test_healthz(self, live):
        status, _, body = live.request("GET", "/healthz")
        assert (status, body) == (200, {"status": "ok"})

    def test_stats_document(self, live):
        status, _, body = live.request("GET", "/stats")
        assert status == 200
        assert body["server"]["workers"] == 2
        assert body["substrates"]["snapshot_runs"] == 0
        assert body["catalog"] is None

    def test_assess_round_trip_marks_live_source(self, live):
        status, headers, body = live.request("POST", "/assess", _doc())
        assert status == 200
        assert headers["X-Repro-Source"] == "live"
        assert body["summary"]["total_kg"] > 0
        assert live.source.calls == 1

    def test_unknown_path_is_404_with_directions(self, live):
        status, _, body = live.request("GET", "/nope")
        assert status == 404
        assert "/assess" in body["error"]

    def test_wrong_method_is_405(self, live):
        assert live.request("POST", "/healthz")[0] == 405
        assert live.request("GET", "/assess")[0] == 405

    def test_malformed_json_body_is_400(self, live):
        conn = http.client.HTTPConnection("127.0.0.1", live.port, timeout=30)
        try:
            conn.request("POST", "/assess", body=b"{not json",
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert "not valid JSON" in body["error"]
        finally:
            conn.close()

    def test_bad_spec_is_400(self, live):
        status, _, body = live.request("POST", "/assess", {"bogus": 1})
        assert status == 400
        assert "bogus" in body["error"]

    def test_removed_shard_fields_are_400(self, live):
        """Out-of-core storage is chosen from the fleet size, not by the
        request."""
        status, _, body = live.request(
            "POST", "/assess", _doc(shard_nodes=16, shard_dtype="float32"))
        assert status == 400
        assert "chosen from the fleet size" in body["error"]
        assert live.source.calls == 0

    def test_malformed_request_line_is_400(self, live):
        assert live.raw_request(b"COMPLETE GIBBERISH\r\n\r\n") == 400

    def test_oversized_content_length_is_413(self, live):
        from repro.serve.http import MAX_BODY_BYTES

        raw = (f"POST /assess HTTP/1.1\r\nContent-Length: "
               f"{MAX_BODY_BYTES + 1}\r\n\r\n").encode()
        assert live.raw_request(raw) == 413


class TestBackpressureAndLifecycle:
    def test_past_capacity_is_429_with_retry_after(self):
        app = ServeApp(ServeConfig(port=0, workers=1, queue_limit=0,
                                   retry_after_s=3.0))
        release = threading.Event()
        started = threading.Event()

        def handle(kind, doc):
            started.set()
            assert release.wait(timeout=30)
            return {"ok": True}, "live"

        app.handle = handle
        server = _LiveServer(app)
        try:
            blocker = threading.Thread(
                target=lambda: server.request("POST", "/assess", {}))
            blocker.start()
            assert started.wait(timeout=10)
            status, headers, body = server.request("POST", "/assess", {})
            assert status == 429
            assert headers["Retry-After"] == "3"
            assert "retry" in body["error"]
            release.set()
            blocker.join(timeout=10)
        finally:
            release.set()
            server.shutdown()

    def test_request_timeout_is_504(self):
        app = ServeApp(ServeConfig(port=0, workers=1,
                                   request_timeout_s=0.05))
        release = threading.Event()

        def handle(kind, doc):
            assert release.wait(timeout=30)
            return {"ok": True}, "live"

        app.handle = handle
        server = _LiveServer(app)
        try:
            status, _, body = server.request("POST", "/assess", {})
            assert status == 504
            assert "budget" in body["error"]
        finally:
            release.set()
            server.shutdown()

    def test_shutdown_drains_and_drained_app_answers_503(self, live):
        # Prime one request so there is real state to report.
        assert live.request("POST", "/assess", _doc())[0] == 200
        app = live.app
        assert live.shutdown() is True
        # The app refuses new work after the drain (the 503 contract).
        from repro.serve import ServerClosing

        with pytest.raises(ServerClosing):
            asyncio.run(app.submit("assess", _doc()))
        stats = app.stats()
        assert stats["server"]["draining"] is True
        assert stats["server"]["admitted"] == 0
        assert stats["requests"]["completed"] == 1


class TestCatalogOverHttp:
    def test_repeat_post_is_served_bit_identical(self, live, tmp_path):
        app = ServeApp(ServeConfig(port=0, workers=2,
                                   catalog=tmp_path / "runs.db"))
        server = _LiveServer(app)
        try:
            import urllib.request

            def post_raw(doc):
                request = urllib.request.Request(
                    f"http://127.0.0.1:{server.port}/assess",
                    data=json.dumps(doc).encode(), method="POST")
                with urllib.request.urlopen(request) as response:
                    return response.headers["X-Repro-Source"], response.read()

            first_source, first_bytes = post_raw(_doc())
            runs = app.substrates.snapshot_runs
            second_source, second_bytes = post_raw(_doc())
            assert (first_source, second_source) == ("live", "catalog")
            assert first_bytes == second_bytes  # byte-identical on the wire
            assert app.substrates.snapshot_runs == runs  # zero new sims
        finally:
            server.shutdown()


class TestHotReload:
    def test_reload_picks_up_edited_plugin_components(self, live, tmp_path,
                                                      monkeypatch):
        plugin = tmp_path / "serve_test_plugin.py"

        def write_plugin(intensity: float) -> None:
            plugin.write_text(
                "from repro.api import register_grid_provider\n"
                "from repro.grid.intensity import CarbonIntensitySeries\n"
                "\n"
                f"INTENSITY = {intensity}\n"
                "\n"
                "def _series(days=30.0, step_s=1800.0):\n"
                "    n = max(2, int(days * 86400 / step_s))\n"
                "    return CarbonIntensitySeries.constant(\n"
                "        INTENSITY, 0.0, step_s, n)\n"
                "\n"
                "register_grid_provider('serve-test-grid', _series,\n"
                "                       overwrite=True)\n")

        write_plugin(100.0)
        monkeypatch.syspath_prepend(str(tmp_path))
        app = ServeApp(ServeConfig(port=0, workers=2,
                                   plugins=("serve_test_plugin",)))
        server = _LiveServer(app)
        try:
            doc = _doc(grid="serve-test-grid",
                       carbon_intensity_g_per_kwh=None)
            status, _, before = server.request("POST", "/assess", doc)
            assert status == 200
            assert before["spec"]["carbon_intensity_g_per_kwh"] == 100.0

            # Edit the plugin on disk, hot-reload, and ask again: the new
            # intensity must take effect with no restart and no stale
            # cache serving (the provider factory is part of the key).
            write_plugin(200.0)
            status, _, reloaded = server.request("POST", "/reload")
            assert status == 200
            assert reloaded == {"reloaded": ["serve_test_plugin"]}
            status, _, after = server.request("POST", "/assess", doc)
            assert status == 200
            assert after["spec"]["carbon_intensity_g_per_kwh"] == 200.0
            # Doubling the grid intensity doubles the active term.
            assert after["summary"]["active_kg"] == pytest.approx(
                2 * before["summary"]["active_kg"], rel=1e-9)
            # One simulation in total: the physical substrate was shared.
            assert live.source.calls + app.substrates.snapshot_runs >= 1
        finally:
            server.shutdown()
            sys.modules.pop("serve_test_plugin", None)
            from repro.api.registry import GRID_PROVIDERS

            if "serve-test-grid" in GRID_PROVIDERS.names():
                GRID_PROVIDERS.unregister("serve-test-grid")

    def test_reload_failure_is_a_loud_400(self, tmp_path, monkeypatch):
        plugin = tmp_path / "serve_bad_plugin.py"
        plugin.write_text("x = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        app = ServeApp(ServeConfig(port=0, workers=1,
                                   plugins=("serve_bad_plugin",)))
        server = _LiveServer(app)
        try:
            plugin.write_text("raise RuntimeError('broken plugin edit')\n")
            status, _, body = server.request("POST", "/reload")
            assert status == 400
            assert "broken plugin edit" in body["error"]
        finally:
            server.shutdown()
            sys.modules.pop("serve_bad_plugin", None)
