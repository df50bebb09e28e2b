"""The digital-twin service: HTTP API, job lifecycle, cache plane.

One real server (ephemeral port, private cache directory, stdlib urllib
client) is booted per module; every test drives it over actual sockets,
so the hand-rolled HTTP layer, the SSE stream and the Prometheus
exposition are all exercised end to end with no test doubles.
"""

from __future__ import annotations

import asyncio
import json
import socket
import subprocess
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.spec import RunSpec
from repro.memory.presets import nvm_bandwidth_scaled
from repro.server import DigitalTwinServer, ServerConfig
from repro.server.http import MAX_BODY_BYTES, AsyncHttpServer, HttpError, Request, _match

NVM = nvm_bandwidth_scaled(0.5)
TINY = {"grid": 4, "iterations": 2}


def tiny_spec(**changes) -> RunSpec:
    base = dict(
        workload="heat",
        policy="tahoe",
        nvm=NVM,
        fast=True,
        workload_overrides=TINY,
    )
    base.update(changes)
    return RunSpec(**base)


# ----------------------------------------------------------------------
# One live server per module
# ----------------------------------------------------------------------
class LiveServer:
    def __init__(self, tmp_path):
        self.cache = ResultCache(tmp_path / "cache")
        self.server = DigitalTwinServer(
            ServerConfig(port=0, workers=2, cache=self.cache)
        )
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def boot():
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=boot, daemon=True)
        self.thread.start()
        assert started.wait(10)
        self.url = self.server.url

    def stop(self):
        asyncio.run_coroutine_threadsafe(self.server.close(), self.loop).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)

    # -- stdlib client -------------------------------------------------
    def request(self, method: str, path: str, doc=None):
        data = None if doc is None else json.dumps(doc).encode("utf-8")
        req = urllib.request.Request(
            self.url + path, data=data, method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(req, timeout=60) as resp:
                return resp.status, self._body(resp)
        except urllib.error.HTTPError as exc:
            return exc.code, self._body(exc)

    @staticmethod
    def _body(resp):
        text = resp.read().decode("utf-8")
        if (resp.headers.get("Content-Type") or "").startswith("application/json"):
            return json.loads(text)
        return text

    def get(self, path):
        return self.request("GET", path)

    def post(self, path, doc):
        return self.request("POST", path, doc)


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    server = LiveServer(tmp_path_factory.mktemp("twin"))
    yield server
    server.stop()


# ----------------------------------------------------------------------
# The cache plane: miss, hit, dedup
# ----------------------------------------------------------------------
class TestRunSubmission:
    def test_miss_then_hit(self, live):
        doc = tiny_spec(seed=101).to_dict()
        status, first = live.post("/v1/runs", {"spec": doc})
        assert status == 200
        assert first["status"] == "done"
        assert first["cached"] is False
        assert first["created"] is True
        assert first["result"]["ok"] is True
        assert first["result"]["makespan"] > 0

        status, second = live.post("/v1/runs", {"spec": doc})
        assert status == 200
        assert second["cached"] is True
        assert second["created"] is False
        assert second["key"] == first["key"]
        assert second["result"]["makespan"] == first["result"]["makespan"]

    def test_cache_survives_job_table(self, live):
        # A key the job table has never seen but the cache has: prime the
        # cache directly, then submit.
        spec = tiny_spec(seed=102)
        from repro.experiments.parallel import run_many

        run_many([spec], cache=live.cache)
        status, body = live.post("/v1/runs", {"spec": spec.to_dict()})
        assert status == 200
        assert body["cached"] is True
        assert body["result"]["cached"] is True

    def test_bare_spec_document_accepted(self, live):
        status, body = live.post("/v1/runs", tiny_spec(seed=103).to_dict())
        assert status == 200
        assert body["status"] == "done"

    def test_async_submit_and_poll(self, live):
        doc = tiny_spec(seed=104).to_dict()
        status, body = live.post("/v1/runs?wait=0", {"spec": doc})
        assert status in (200, 202)  # may already be done on a fast box
        key = body["key"]
        status, final = live.get(f"/v1/runs/{key}?wait=1")
        assert status == 200
        assert final["status"] == "done"
        assert final["result"]["ok"] is True

    def test_get_unknown_run_404(self, live):
        status, body = live.get("/v1/runs/deadbeef")
        assert status == 404
        assert "no such run" in body["error"]

    def test_list_runs(self, live):
        live.post("/v1/runs", {"spec": tiny_spec(seed=105).to_dict()})
        status, body = live.get("/v1/runs")
        assert status == 200
        keys = [j["key"] for j in body["jobs"]]
        assert keys == sorted(keys)
        assert body["stats"]["jobs"] == len(keys)
        assert all("result" not in j for j in body["jobs"])

    def test_crashing_spec_becomes_failed_job_not_dead_server(self, live):
        doc = tiny_spec(seed=106).to_dict()
        doc["workload"] = "no-such-workload"
        status, body = live.post("/v1/runs", {"spec": doc})
        assert status == 200
        assert body["status"] == "failed"
        assert body["result"]["ok"] is False
        assert body["result"]["error_type"]
        # Server still answers.
        status, _ = live.get("/healthz")
        assert status == 200


# ----------------------------------------------------------------------
# Events stream
# ----------------------------------------------------------------------
class TestEvents:
    def test_sse_stream_replays_to_terminal(self, live):
        doc = tiny_spec(seed=107).to_dict()
        _, submitted = live.post("/v1/runs", {"spec": doc})
        status, text = live.get(f"/v1/runs/{submitted['key']}/events")
        assert status == 200
        events = [
            json.loads(line[len("data: "):])
            for line in text.splitlines()
            if line.startswith("data: ")
        ]
        assert events, text
        assert [e["event"] for e in events][-1] == "done"
        assert events[-1]["ok"] is True
        assert all(e["key"] == submitted["key"] for e in events)

    def test_events_for_unknown_run_404(self, live):
        status, body = live.get("/v1/runs/deadbeef/events")
        assert status == 404


# ----------------------------------------------------------------------
# What-if
# ----------------------------------------------------------------------
class TestWhatIf:
    def test_whatif_by_key_with_alias_override(self, live):
        doc = tiny_spec(seed=108).to_dict()
        _, base = live.post("/v1/runs", {"spec": doc})
        status, body = live.post(
            "/v1/whatif",
            {
                "base": base["key"],
                "overrides": {"memory.dram_bytes": doc["dram_capacity"] * 2},
            },
        )
        assert status == 200
        assert body["spec_diff"] == {
            "dram_capacity": [doc["dram_capacity"], doc["dram_capacity"] * 2]
        }
        delta = body["delta"]
        for name in ("makespan", "migrations", "overlap", "energy.total_j"):
            assert name in delta
            row = delta[name]
            assert row["delta"] == pytest.approx(row["variant"] - row["base"])
        assert body["base"]["ok"] and body["variant"]["ok"]

    def test_whatif_with_inline_base(self, live):
        doc = tiny_spec(seed=109).to_dict()
        status, body = live.post(
            "/v1/whatif",
            {"base": doc, "overrides": {"workload_overrides.iterations": 3}},
        )
        assert status == 200
        assert body["spec_diff"] == {"workload_overrides.iterations": [2, 3]}

    def test_whatif_unknown_path_is_400_with_suggestion(self, live):
        doc = tiny_spec(seed=109).to_dict()
        status, body = live.post(
            "/v1/whatif", {"base": doc, "overrides": {"dram_capcity": 1}}
        )
        assert status == 400
        assert "did you mean" in body["error"]

    def test_unknown_exec_override_is_400(self, live):
        doc = tiny_spec(seed=109).to_dict()
        status, body = live.post(
            "/v1/whatif",
            {"base": doc, "overrides": {"exec_overrides.no_such_knob": 1}},
        )
        assert status == 400
        assert "unknown exec_overrides fields ['no_such_knob']" in body["error"]
        doc["exec_overrides"] = {"no_such_knob": 1}
        status, body = live.post("/v1/runs", {"spec": doc})
        assert status == 400
        assert "unknown exec_overrides fields ['no_such_knob']" in body["error"]

    def test_whatif_missing_base_and_overrides(self, live):
        status, body = live.post("/v1/whatif", {"overrides": {"seed": 1}})
        assert status == 400
        assert "base" in body["error"]
        status, body = live.post("/v1/whatif", {"base": "deadbeef"})
        assert status == 400
        assert "overrides" in body["error"]
        status, body = live.post(
            "/v1/whatif", {"base": "deadbeef", "overrides": {"seed": 1}}
        )
        assert status == 404


# ----------------------------------------------------------------------
# Metrics + health
# ----------------------------------------------------------------------
class TestObservability:
    def test_metrics_exposition(self, live):
        live.post("/v1/runs", {"spec": tiny_spec(seed=110).to_dict()})
        status, text = live.get("/metrics")
        assert status == 200
        assert "# TYPE repro_server_cache_hits_total counter" in text
        assert "repro_server_cache_misses_total" in text
        assert "repro_server_cache_hit_ratio" in text
        assert "repro_server_queue_depth" in text
        assert 'repro_server_requests_total{method="POST"' in text

    def test_metrics_include_knapsack_cache(self, live):
        # The run above exercised the planner, so the scrape-time refresh
        # (export_cache_metrics) must surface the process-global solver
        # cache counters as labelled gauges.
        live.post("/v1/runs", {"spec": tiny_spec(seed=111).to_dict()})
        status, text = live.get("/metrics")
        assert status == 200
        assert "# TYPE repro_planner_knapsack_cache gauge" in text
        for stat in ("exact_hits", "solves", "greedy_routed", "uniform_topk", "uniform_group"):
            assert f'repro_planner_knapsack_cache{{stat="{stat}"}}' in text
        assert "warm_started_rows" not in text
        assert 'repro_server_run_seconds_bucket{le="+Inf",phase="execute"}' in text

        def value(name):
            for line in text.splitlines():
                if line.startswith(name + " "):
                    return float(line.rsplit(" ", 1)[-1])
            raise AssertionError(name)

        hits, misses = (
            value("repro_server_cache_hits_total"),
            value("repro_server_cache_misses_total"),
        )
        assert misses >= 1
        assert value("repro_server_cache_hit_ratio") == pytest.approx(
            hits / (hits + misses)
        )

    def test_healthz(self, live):
        status, body = live.get("/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["jobs"]["jobs"] >= 1
        assert body["cache"]["path"].endswith("cache")


# ----------------------------------------------------------------------
# HTTP layer edges (over the live socket)
# ----------------------------------------------------------------------
class TestHttpEdges:
    def test_unknown_endpoint_404(self, live):
        status, body = live.get("/v1/nope")
        assert status == 404

    def test_wrong_method_405(self, live):
        status, body = live.request("DELETE", "/v1/runs")
        assert status == 405
        assert "DELETE" in body["error"]

    def test_malformed_json_400(self, live):
        req = urllib.request.Request(
            live.url + "/v1/runs", data=b"{not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(req, timeout=30)
        assert exc_info.value.code == 400

    @staticmethod
    def _raw_post(live, content_length: str) -> tuple[int, dict]:
        """POST with a verbatim Content-Length header and no body."""
        head = (
            "POST /v1/runs HTTP/1.1\r\nHost: localhost\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        )
        with socket.create_connection(
            (live.server.http.host, live.server.http.port), timeout=10
        ) as sock:
            sock.sendall(head.encode("latin-1"))
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
        status_line, _, rest = raw.partition(b"\r\n")
        return int(status_line.split()[1]), json.loads(rest.partition(b"\r\n\r\n")[2])

    @pytest.mark.parametrize(
        "value", ["-1", "1_0", "+3", "\u00b2"],
        ids=["negative", "underscore", "plus-sign", "superscript-two"],
    )
    def test_malformed_content_length_400(self, live, value):
        status, body = self._raw_post(live, value)
        assert status == 400
        assert body["error"] == "bad Content-Length"

    @pytest.mark.parametrize(
        "value_of",
        [lambda max_body: str(max_body + 1), lambda max_body: "9" * 5000],
        # 5,000 digits exceed Python's default int-string limit (4,300).
        ids=["max-body-plus-one", "5000-digits"],
    )
    def test_oversized_content_length_413(self, live, value_of):
        status, body = self._raw_post(live, value_of(MAX_BODY_BYTES))
        assert status == 413
        assert "body exceeds" in body["error"]

    def test_non_spec_document_400(self, live):
        status, body = live.post("/v1/runs", {"spec": {"nope": 1}})
        assert status == 400
        assert "workload" in body["error"]

    def test_route_pattern_matching(self):
        from repro.server.http import _compile

        seg = _compile("/v1/runs/{key}/events")
        assert _match(seg, "/v1/runs/abc123/events") == {"key": "abc123"}
        assert _match(seg, "/v1/runs/abc123") is None
        assert _match(seg, "/v1/runs//events") is None

    def test_dispatch_distinguishes_404_and_405(self):
        server = AsyncHttpServer()

        async def handler(request):  # pragma: no cover - never awaited
            raise AssertionError

        server.route("GET", "/thing", handler)
        req = Request("POST", "/thing", {}, {}, b"")
        with pytest.raises(HttpError) as e:
            server._dispatch(req)
        assert e.value.status == 405
        req = Request("GET", "/other", {}, {}, b"")
        with pytest.raises(HttpError) as e:
            server._dispatch(req)
        assert e.value.status == 404


# ----------------------------------------------------------------------
# CLI verb
# ----------------------------------------------------------------------
class TestServeApiCli:
    def test_serve_api_boots_and_answers(self, tmp_path):
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments.cli", "serve-api",
                "--port", "0", "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            url = line.strip().rsplit(" ", 1)[-1]
            with urllib.request.urlopen(f"{url}/healthz", timeout=30) as resp:
                body = json.loads(resp.read())
            assert body["status"] == "ok"
        finally:
            proc.terminate()
            proc.wait(timeout=10)
