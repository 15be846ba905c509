"""HTTP-layer serving tests: routing, errors, metrics, and the
end-to-end ``repro serve`` smoke with byte parity vs ``repro
recommend``."""

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.engine import ExperimentEngine
from repro.serving import ServingScheduler, make_server
from repro.serving.http import ServingHTTPServer
from repro.telemetry import metrics as telemetry_metrics
from repro.telemetry.metrics import validate_prometheus_text

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def server():
    """An in-process server on an ephemeral port; yields its base URL."""
    telemetry_metrics.enable()
    scheduler = ServingScheduler(engine=ExperimentEngine(),
                                 batch_window_s=0.01,
                                 quota_rps=1000.0, quota_burst=1000.0)
    http_server = make_server(scheduler, port=0)
    host, port = http_server.server_address[:2]
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://{host}:{port}"
    finally:
        http_server.shutdown()
        http_server.server_close()
        scheduler.close()
        telemetry_metrics.disable()


def post(base, path, body, headers=None, timeout=60):
    data = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        base + path, data=data,
        headers={"Content-Type": "application/json", **(headers or {})})
    with urllib.request.urlopen(request, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def get(base, path, timeout=30):
    with urllib.request.urlopen(base + path, timeout=timeout) as resp:
        return resp.status, resp.read()


class TestRoutes:
    def test_healthz(self, server):
        status, raw = get(server, "/healthz")
        body = json.loads(raw)
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0
        assert "engine" in body

    def test_metrics_is_valid_prometheus(self, server):
        post(server, "/v1/simulate",
             {"model": "resnet50", "gpus": 8, "iterations": 20,
              "wait": True})
        status, raw = get(server, "/metrics")
        assert status == 200
        text = raw.decode("utf-8")
        assert validate_prometheus_text(text) == []
        assert "serving_requests_total" in text

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v1/nope")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"]["code"] == \
            "not_found"

    def test_unknown_job_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server, "/v1/jobs/deadbeef")
        assert excinfo.value.code == 404

    def test_bad_json_400(self, server):
        request = urllib.request.Request(
            server + "/v1/whatif", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_bad_field_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server, "/v1/whatif", {"model": "resnet9000"})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["code"] == "bad_request"
        assert "resnet9000" in error["message"]

    def test_oversized_body_413(self, server):
        request = urllib.request.Request(
            server + "/v1/whatif", data=b" " * ((1 << 20) + 1),
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 413


class CountingSocket:
    """An accepted socket that counts the sends made through it."""

    def __init__(self, sock):
        self._sock = sock
        self.sends = 0

    def sendall(self, data, *flags):
        self.sends += 1
        return self._sock.sendall(data, *flags)

    def send(self, data, *flags):
        self.sends += 1
        return self._sock.send(data, *flags)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class CountingServer(ServingHTTPServer):
    """Hands every handler a :class:`CountingSocket` and keeps them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.accepted = []

    def get_request(self):
        sock, address = super().get_request()
        counting = CountingSocket(sock)
        self.accepted.append(counting)
        return counting, address


@pytest.fixture
def counting_server():
    """An in-process :class:`CountingServer`; yields it."""
    telemetry_metrics.enable()
    scheduler = ServingScheduler(engine=ExperimentEngine(),
                                 batch_window_s=0.01,
                                 quota_rps=1000.0, quota_burst=1000.0)
    http_server = CountingServer(("127.0.0.1", 0), scheduler)
    thread = threading.Thread(target=http_server.serve_forever, daemon=True)
    thread.start()
    try:
        yield http_server
    finally:
        http_server.shutdown()
        http_server.server_close()
        scheduler.close()
        telemetry_metrics.disable()


class TestWire:
    """How responses leave the server: one send each, Nagle off, and
    sound framing on a keep-alive connection."""

    REQUESTS = [
        ("POST", "/v1/whatif", b'{"model": "resnet50", "gpus": 8, '
                               b'"crossovers": false}', 200),
        ("POST", "/v1/whatif", b"{not json", 400),
        ("GET", "/v1/nope", None, 404),
        ("GET", "/metrics", None, 200),
        ("GET", "/healthz", None, 200),
    ]

    def test_one_send_per_response(self, counting_server):
        conn = http.client.HTTPConnection(
            *counting_server.server_address[:2], timeout=60)
        try:
            for count, (method, path, body, status) in enumerate(
                    self.REQUESTS, start=1):
                conn.request(method, path, body=body)
                resp = conn.getresponse()
                resp.read()
                assert resp.status == status
                [sock] = counting_server.accepted
                assert sock.sends == count, (method, path)
        finally:
            conn.close()

    def test_accepted_sockets_have_nagle_off(self, counting_server):
        conn = http.client.HTTPConnection(
            *counting_server.server_address[:2], timeout=30)
        try:
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            [sock] = counting_server.accepted
            assert sock.getsockopt(socket.IPPROTO_TCP,
                                   socket.TCP_NODELAY) != 0
        finally:
            conn.close()

    def test_keep_alive_framing(self, counting_server):
        conn = http.client.HTTPConnection(
            *counting_server.server_address[:2], timeout=60)
        try:
            for i in range(20):
                method, path, body, status = \
                    self.REQUESTS[i % len(self.REQUESTS)]
                conn.request(method, path, body=body)
                resp = conn.getresponse()
                raw = resp.read()
                assert resp.status == status
                assert int(resp.getheader("Content-Length")) == len(raw)
                if path == "/metrics":
                    assert validate_prometheus_text(raw.decode()) == []
                else:
                    json.loads(raw)
            assert len(counting_server.accepted) == 1
        finally:
            conn.close()

    @staticmethod
    def _exchange(sock, raw):
        """Send one raw request; return the parsed response."""
        sock.sendall(raw)
        resp = http.client.HTTPResponse(sock)
        resp.begin()
        return resp.status, resp.read()

    def _healthz_or_closed(self, sock):
        """Whether the connection either answers ``GET /healthz`` with a
        200 or is cleanly closed -- never garbled by leftover bytes."""
        sock.settimeout(5)
        try:
            status, raw = self._exchange(
                sock, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        except (http.client.RemoteDisconnected, ConnectionResetError,
                BrokenPipeError):
            return True
        return status == 200 and json.loads(raw)["status"] == "ok"

    def test_unknown_post_route_drains_body(self, counting_server):
        body = b'{"model": "resnet50", "gpus": 8}'
        with socket.create_connection(
                counting_server.server_address[:2], timeout=30) as sock:
            status, _ = self._exchange(
                sock, b"POST /v1/nope HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
            assert status == 404
            # The body was consumed, so keep-alive carries on.
            status, raw = self._exchange(
                sock, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            assert status == 200 and json.loads(raw)["status"] == "ok"

    @pytest.mark.parametrize("path", ["/v1/whatif", "/v1/nope"])
    @pytest.mark.parametrize("length", [b"nope", b"-5"])
    def test_bad_content_length_ends_connection_cleanly(
            self, counting_server, path, length):
        with socket.create_connection(
                counting_server.server_address[:2], timeout=30) as sock:
            status, _ = self._exchange(
                sock, b"POST %s HTTP/1.1\r\nHost: t\r\n"
                      b"Content-Length: %s\r\n\r\n{}" % (path.encode(),
                                                          length))
            assert status == (400 if path == "/v1/whatif" else 404)
            assert self._healthz_or_closed(sock)


class TestWorkflows:
    def test_whatif_sync_roundtrip(self, server):
        status, body = post(server, "/v1/whatif",
                            {"model": "resnet50", "gpus": 8,
                             "crossovers": False})
        assert status == 200
        assert body["status"] == "done"
        assert body["result"]["rendered"].startswith(
            "recommendation for resnet50 at 8 GPUs")
        assert body["result"]["best"]
        assert body["rows"]

    def test_simulate_async_then_poll(self, server):
        status, body = post(server, "/v1/simulate",
                            {"model": "resnet50", "gpus": 8,
                             "iterations": 20, "seeds": [0, 1]})
        assert status == 202
        job_id = body["id"]
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, raw = get(server, f"/v1/jobs/{job_id}?wait_s=5")
            state = json.loads(raw)
            if state["status"] in ("done", "failed", "expired"):
                break
        assert state["status"] == "done"
        assert [row["seed"] for row in state["rows"]] == [0, 1]
        assert all(row["mean_s"] > 0 for row in state["rows"])

    def test_over_quota_gets_429_with_retry_after(self):
        telemetry_metrics.enable()
        scheduler = ServingScheduler(engine=ExperimentEngine(),
                                     batch_window_s=0.5,
                                     quota_rps=0.001, quota_burst=1.0)
        http_server = make_server(scheduler, port=0)
        host, port = http_server.server_address[:2]
        thread = threading.Thread(target=http_server.serve_forever,
                                  daemon=True)
        thread.start()
        base = f"http://{host}:{port}"
        try:
            post(base, "/v1/simulate",
                 {"model": "resnet50", "gpus": 8, "iterations": 20})
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(base, "/v1/simulate",
                     {"model": "resnet50", "gpus": 8, "iterations": 20,
                      "seed": 1})
            assert excinfo.value.code == 429
            assert int(excinfo.value.headers["Retry-After"]) >= 1
            error = json.loads(excinfo.value.read())["error"]
            assert error["code"] == "quota"
            assert error["retry_after_s"] > 0
            # another tenant is unaffected
            status, _ = post(base, "/v1/simulate",
                             {"model": "resnet50", "gpus": 8,
                              "iterations": 20, "seed": 2},
                             headers={"X-Tenant": "other"})
            assert status == 202
        finally:
            http_server.shutdown()
            http_server.server_close()
            scheduler.close()
            telemetry_metrics.disable()


class TestServeCommandEndToEnd:
    def test_whatif_matches_repro_recommend_byte_for_byte(self, tmp_path):
        """The acceptance criterion: `repro serve` returns the same
        ranked recommendation bytes as the offline CLI."""
        env = {**os.environ, "PYTHONPATH": SRC}
        offline = subprocess.run(
            [sys.executable, "-m", "repro", "recommend",
             "--model", "resnet50", "--gpus", "8"],
            capture_output=True, text=True, env=env, timeout=120)
        assert offline.returncode == 0, offline.stderr

        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            line = proc.stdout.readline()
            assert "listening on" in line, line
            base = line.strip().rsplit(" ", 1)[-1]
            _, body = post(base, "/v1/whatif",
                           {"model": "resnet50", "gpus": 8}, timeout=120)
            assert body["status"] == "done"
            assert body["result"]["rendered"] + "\n" == offline.stdout
            # crossover bandwidths ride along with the ranking
            assert any(c["crossings"]
                       for c in body["result"]["crossovers"])
        finally:
            proc.terminate()
            proc.wait(timeout=10)
