"""HTTP-tier tests for the query service (:mod:`repro.api.server`).

Run a real ``QueryHTTPServer`` on a loopback port and talk to it with
``urllib`` — the acceptance bar is bit-identity *through the wire*: the
JSON body of ``POST /v1/query`` must decode to floats equal to the
scalar reference path, both port models.  Also pinned: concurrent mixed
queries, error statuses, the graceful drain, and request telemetry.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import DEFAULT_HEURISTICS, Query, QueryService
from repro.api.server import make_server, run_server
from repro.core.fifo import optimal_fifo_schedule
from repro.core.heuristics import compare_heuristics
from repro.core.twoport import optimal_two_port_fifo_schedule
from repro.obs import Telemetry, activate
from repro.workloads.matrices import MatrixProductWorkload
from repro.workloads.platforms import participation_platform

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture()
def server():
    """A live server on a free loopback port; drained and closed on exit."""
    instance = make_server(QueryService(window=0.002))
    thread = threading.Thread(target=instance.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        yield instance
    finally:
        instance.shutdown()
        thread.join()
        instance.server_close()


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _post(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=10) as response:
        return response.status, json.loads(response.read())


def _platform(x=3.0):
    return participation_platform(x, MatrixProductWorkload(400))


class TestEndpoints:
    def test_query_bit_identical_to_scalar_reference(self, server):
        platform = _platform()
        status, body = _post(server, "/v1/query", Query.build(platform).as_dict())
        assert status == 200
        reference = optimal_fifo_schedule(platform)
        opt = body["results"]["OPT_FIFO"]
        assert opt["throughput"] == reference.throughput
        assert opt["loads"] == reference.loads
        comparison = compare_heuristics(platform, DEFAULT_HEURISTICS)
        assert body["best"] == max(comparison, key=lambda name: comparison[name].throughput)
        for name, result in comparison.items():
            assert body["results"][name]["throughput"] == result.throughput
            assert body["results"][name]["loads"] == result.loads

    def test_two_port_query_over_the_wire(self, server):
        platform = _platform()
        payload = Query.build(platform, one_port=False).as_dict()
        status, body = _post(server, "/v1/query", payload)
        assert status == 200
        assert not body["one_port"]
        reference = optimal_two_port_fifo_schedule(platform)
        assert body["results"]["OPT_FIFO"]["throughput"] == reference.throughput
        assert body["results"]["OPT_FIFO"]["loads"] == reference.loads

    def test_batch_mixed_port_models(self, server):
        platform = _platform()
        queries = [
            Query.build(platform).as_dict(),
            Query.build(platform, one_port=False).as_dict(),
            Query.build(platform).as_dict(),  # duplicate: served from cache
        ]
        status, body = _post(server, "/v1/query/batch", {"queries": queries})
        assert status == 200
        answers = body["answers"]
        assert len(answers) == 3
        assert answers[0]["results"] == answers[2]["results"]
        assert answers[0]["one_port"] and not answers[1]["one_port"]

    def test_repeat_query_is_a_cache_hit(self, server):
        payload = Query.build(_platform()).as_dict()
        _, cold = _post(server, "/v1/query", payload)
        _, warm = _post(server, "/v1/query", payload)
        assert not cold["cached"]
        assert warm["cached"]
        assert warm["results"] == cold["results"]
        assert warm["key"] == cold["key"]

    def test_healthz(self, server):
        _post(server, "/v1/query", Query.build(_platform()).as_dict())
        status, body = _get(server, "/v1/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["queries"] == 1
        assert body["uptime_seconds"] >= 0


class TestErrorStatuses:
    def _status_of(self, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            _url(server, "/v1/query"), data=b"{not json", method="POST"
        )
        code, body = self._status_of(lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400
        assert "invalid JSON" in body["error"]

    def test_schema_violation_is_400(self, server):
        code, body = self._status_of(lambda: _post(server, "/v1/query", {"bogus": 1}))
        assert code == 400
        assert "unknown request fields" in body["error"]

    def test_bad_costs_are_400(self, server):
        payload = {"platform": {"P1": {"c": "fast", "w": 1, "d": 1}}}
        code, body = self._status_of(lambda: _post(server, "/v1/query", payload))
        assert code == 400
        assert "numeric" in body["error"]

    def test_unknown_path_is_404(self, server):
        code, body = self._status_of(lambda: _get(server, "/v1/nope"))
        assert code == 404
        assert "unknown path" in body["error"]

    def test_empty_body_is_400(self, server):
        request = urllib.request.Request(_url(server, "/v1/query"), data=b"", method="POST")
        code, body = self._status_of(lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400
        assert "JSON body" in body["error"]

    def test_malformed_batch_is_400(self, server):
        code, body = self._status_of(
            lambda: _post(server, "/v1/query/batch", {"queries": "nope"})
        )
        assert code == 400
        assert "list" in body["error"]


class TestConcurrency:
    def test_concurrent_mixed_queries_bit_identical(self, server):
        platforms = [_platform(x) for x in (0.5, 1.0, 2.0, 3.0, 6.0)]
        payloads = [Query.build(p).as_dict() for p in platforms]
        payloads += [Query.build(p, one_port=False).as_dict() for p in platforms]

        with ThreadPoolExecutor(max_workers=8) as pool:
            bodies = list(pool.map(lambda pl: _post(server, "/v1/query", pl)[1], payloads))

        for platform, body in zip(platforms, bodies[: len(platforms)]):
            reference = optimal_fifo_schedule(platform)
            assert body["results"]["OPT_FIFO"]["throughput"] == reference.throughput
            assert body["results"]["OPT_FIFO"]["loads"] == reference.loads
        for platform, body in zip(platforms, bodies[len(platforms):]):
            reference = optimal_two_port_fifo_schedule(platform)
            assert body["results"]["OPT_FIFO"]["throughput"] == reference.throughput
            assert body["results"]["OPT_FIFO"]["loads"] == reference.loads


class TestDrain:
    def test_run_server_stop_event_drains_and_returns_zero(self, capsys):
        service = QueryService()
        stop = threading.Event()
        codes = []
        runner = threading.Thread(
            target=lambda: codes.append(
                run_server("127.0.0.1", 0, service=service, stop=stop)
            )
        )
        runner.start()
        try:
            # Scrape the printed port (what the CI smoke does with a pipe).
            for _ in range(200):
                printed = capsys.readouterr().out
                if "serving on http://" in printed:
                    break
                threading.Event().wait(0.01)
            port = int(printed.split("http://127.0.0.1:")[1].split(" ")[0])
            payload = Query.build(_platform()).as_dict()
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/v1/query",
                data=json.dumps(payload).encode("utf-8"),
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=10) as response:
                assert response.status == 200
        finally:
            stop.set()
            runner.join(timeout=10)
        assert not runner.is_alive()
        assert codes == [0]
        out = capsys.readouterr().out
        assert "draining in-flight requests" in out
        assert "served 1 queries (0 cache hits, 1 solved); bye" in out


def _serve_subprocess() -> subprocess.Popen:
    """``scenarios serve --port 0`` in a child, once its address is printed."""
    child = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "scenarios", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
    )
    line = child.stdout.readline()
    assert line.startswith("serving on http://"), line
    return child


class TestServeLifecycle:
    """``scenarios serve`` as a process: signals, and a vanished reader."""

    def test_sigterm_right_after_the_address_line_drains(self):
        child = _serve_subprocess()
        child.send_signal(signal.SIGTERM)
        try:
            out, err = child.communicate(timeout=10)
        finally:
            child.kill()
        assert child.returncode == 0, err
        assert "draining in-flight requests" in out
        assert "served 0 queries" in out

    def test_signal_handlers_are_installed_before_the_address_line(self):
        """The child signals itself the moment the line is written: with
        the handlers not yet installed, SIGTERM would kill it (exit -15)."""
        script = (
            "import os, signal, sys\n"
            "from repro.cli import main\n"
            "class Out:\n"
            "    def __init__(self, stream):\n"
            "        self.stream = stream\n"
            "    def write(self, text):\n"
            "        written = self.stream.write(text)\n"
            "        if text.startswith('serving on'):\n"
            "            self.stream.flush()\n"
            "            os.kill(os.getpid(), signal.SIGTERM)\n"
            "        return written\n"
            "    def flush(self):\n"
            "        self.stream.flush()\n"
            "sys.stdout = Out(sys.stdout)\n"
            "sys.exit(main(['scenarios', 'serve', '--port', '0']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=30,
            env=dict(os.environ, PYTHONPATH=_SRC),
        )
        assert result.returncode == 0, result.stderr
        assert "draining in-flight requests" in result.stdout

    def test_sigterm_ends_the_server_when_stdout_reader_is_gone(self):
        child = _serve_subprocess()
        child.stdout.close()
        child.send_signal(signal.SIGTERM)
        try:
            child.wait(timeout=10)
            err = child.stderr.read()
        finally:
            child.kill()
            child.stderr.close()
        assert child.returncode == 0, err


class TestRequestTelemetry:
    def test_spans_counters_and_latency_histogram(self, tmp_path):
        telemetry = Telemetry(tmp_path / "telemetry", owner="test", mode="on")
        with activate(telemetry):
            instance = make_server(QueryService())
            thread = threading.Thread(target=instance.serve_forever,
                                      kwargs={"poll_interval": 0.05})
            thread.start()
            try:
                _post(instance, "/v1/query", Query.build(_platform()).as_dict())
                _get(instance, "/v1/healthz")
                with pytest.raises(urllib.error.HTTPError):
                    _post(instance, "/v1/query", {"bogus": 1})
            finally:
                instance.shutdown()
                thread.join()
                instance.server_close()
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["counters"]["api.http.200"] == 2
        assert snapshot["counters"]["api.http.400"] == 1
        assert snapshot["histograms"]["api.request.seconds"]["count"] == 3
