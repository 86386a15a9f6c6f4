"""Daemon failure modes: disconnects, bad frames, backpressure,
deadlines, drain.  Each test pins one way the server must degrade
gracefully instead of crashing, hanging, or corrupting later
requests."""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.client import Ms2Client, Ms2ServerError
from repro.options import Ms2Options

from .conftest import doubler_program

REPO_ROOT = Path(__file__).resolve().parents[2]


def _poll(condition, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while True:
        if condition():
            return
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(interval)


def _stats(handle) -> dict:
    """The daemon's ``stats`` op payload, over a fresh connection."""
    with handle.client() as client:
        return client.stats()


# ---------------------------------------------------------------------------
# Malformed and oversized frames
# ---------------------------------------------------------------------------


def test_malformed_json_keeps_the_connection(server):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(str(server.socket_path))
    reader = sock.makefile("rb")
    sock.sendall(b"{this is not json\n")
    reply = json.loads(reader.readline())
    assert reply["ok"] is False
    assert reply["error"]["code"] == "bad_request"
    # Same connection still serves well-formed requests.
    sock.sendall(
        json.dumps({"id": 2, "op": "ping"}).encode() + b"\n"
    )
    reply = json.loads(reader.readline())
    assert reply["ok"] is True
    sock.close()


def test_non_object_frame_is_bad_request(server):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(str(server.socket_path))
    reader = sock.makefile("rb")
    sock.sendall(b"[1, 2, 3]\n")
    reply = json.loads(reader.readline())
    assert reply["error"]["code"] == "bad_request"
    sock.close()


def test_oversized_frame_is_rejected_and_connection_closed(
    server_factory,
):
    handle = server_factory(max_frame_bytes=4096)
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(str(handle.socket_path))
    reader = sock.makefile("rb")
    huge = json.dumps(
        {"op": "expand", "source": "x" * 10_000}
    ).encode() + b"\n"
    sock.sendall(huge)
    reply = json.loads(reader.readline())
    assert reply["ok"] is False
    assert reply["error"]["code"] == "frame_too_large"
    assert reply["error"]["limit"] == 4096
    # Mid-frame resync is impossible: the server closes this
    # connection...
    assert reader.readline() == b""
    sock.close()
    # ...but keeps serving new ones.
    with handle.client() as client:
        assert client.ping()["pong"] is True
    assert _stats(handle)["bad_frames"] == 1


# ---------------------------------------------------------------------------
# Client disconnect mid-expansion
# ---------------------------------------------------------------------------


def test_client_disconnect_mid_expansion(server):
    """A client that vanishes while its request is expanding must not
    wedge the worker or poison the next connection."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(str(server.socket_path))
    sock.sendall(
        json.dumps(
            {"id": 1, "op": "expand",
             "source": doubler_program(12), "filename": "slow.c"}
        ).encode() + b"\n"
    )
    # Wait until the request is genuinely in flight, then vanish.
    _poll(lambda: _stats(server)["in_flight"] == 1)
    sock.close()
    # The abandoned expansion finishes and unwinds cleanly...
    _poll(lambda: _stats(server)["in_flight"] == 0, timeout=30)
    # ...and the daemon keeps serving.
    with server.client() as client:
        assert client.expand("int x = 1;").ok
        stats = client.stats()
    assert stats["client_disconnects"] == 1


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


def test_busy_rejection_beyond_the_bounded_queue(server_factory):
    handle = server_factory(max_inflight=1, queue_limit=0)
    slow = doubler_program(12)
    results: dict[str, object] = {}

    def run_slow():
        with handle.client() as client:
            results["slow"] = client.expand(slow, "slow.c").ok

    worker = threading.Thread(target=run_slow)
    worker.start()
    _poll(lambda: _stats(handle)["in_flight"] == 1)
    with handle.client() as client:
        with pytest.raises(Ms2ServerError) as excinfo:
            client.expand("int x = 1;")
    worker.join(30)
    assert excinfo.value.code == "busy"
    assert excinfo.value.payload["limit"] == 1
    assert results["slow"] is True, "the admitted request completed"
    with handle.client() as client:
        stats = client.stats()
    assert stats["busy_rejections"] == 1
    # Capacity freed: the same request now succeeds.
    with handle.client() as client:
        assert client.expand("int x = 1;").ok


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


def test_request_deadline_exceeded(server):
    with server.client() as client:
        with pytest.raises(Ms2ServerError) as excinfo:
            client.expand(
                doubler_program(12), "slow.c",
                options=Ms2Options(deadline_s=0.001),
            )
    assert excinfo.value.code == "expansion_error"
    assert "deadline" in str(excinfo.value)


def test_server_default_deadline_applies_when_request_sets_none(
    server_factory,
):
    handle = server_factory(default_deadline_s=0.001)
    with handle.client() as client:
        with pytest.raises(Ms2ServerError) as excinfo:
            client.expand(doubler_program(12), "slow.c")
    assert "deadline" in str(excinfo.value)
    # An explicit per-request deadline overrides the server default.
    with handle.client() as client:
        result = client.expand(
            "int x = 1;", options=Ms2Options(deadline_s=30.0)
        )
    assert result.ok


def test_deadlines_under_concurrent_load(server_factory):
    """Several doomed requests at once: every one gets its own
    expansion_error, none hangs, and the daemon stays healthy."""
    handle = server_factory(max_inflight=2, queue_limit=8)
    errors: list[str] = []
    lock = threading.Lock()

    def doomed():
        with handle.client() as client:
            try:
                client.expand(
                    doubler_program(12), "slow.c",
                    options=Ms2Options(deadline_s=0.001),
                )
            except Ms2ServerError as exc:
                with lock:
                    errors.append(exc.code)

    threads = [threading.Thread(target=doomed) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert errors == ["expansion_error"] * 4
    with handle.client() as client:
        assert client.expand("int x = 1;").ok


# ---------------------------------------------------------------------------
# Two clients, two option sets, one daemon
# ---------------------------------------------------------------------------


def test_two_clients_with_different_options_hash(server):
    """Different options route to different worker pools and produce
    their own outputs, concurrently, on one daemon."""
    program = (
        "syntax stmt Log {| ( ) |} { return(`{log();}); }\n"
        "void f(void) { Log ( ) }"
    )
    outputs: dict[str, str] = {}
    lock = threading.Lock()

    def run(tag: str, options: Ms2Options):
        with server.client() as client:
            for _ in range(3):
                result = client.expand(program, "prog.c",
                                       options=options)
                assert result.ok
            with lock:
                outputs[tag] = result.output

    plain = Ms2Options(annotate=False)
    annotated = Ms2Options(annotate=True)
    assert plain.options_hash() != annotated.options_hash()
    threads = [
        threading.Thread(target=run, args=("plain", plain)),
        threading.Thread(target=run, args=("annotated", annotated)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert "log();" in outputs["plain"]
    assert outputs["plain"] != outputs["annotated"]
    assert "Log" in outputs["annotated"], "provenance annotations"
    # Start-up built the default (plain) key, so only the annotated
    # key's first request was cold; every repeat was warm.
    workers = _stats(server)["workers"]
    assert workers == {"warm_hits": 5, "cold_builds": 1}


# ---------------------------------------------------------------------------
# SIGTERM drain (real process)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM"), reason="needs SIGTERM"
)
def test_sigterm_drains_in_flight_requests(tmp_path):
    """SIGTERM with a request in flight: the response still arrives,
    then the process exits 0 and removes its socket."""
    socket_path = tmp_path / "ms2.sock"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--socket", str(socket_path),
         "--cache-dir", str(tmp_path / "cache")],
        env=env, cwd=REPO_ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        client = Ms2Client(socket_path)
        client.wait_ready(30)
        results: dict[str, object] = {}

        def run_slow():
            results["ok"] = client.expand(
                doubler_program(12), "slow.c"
            ).ok

        worker = threading.Thread(target=run_slow)
        worker.start()
        # Let the request reach the server before the signal.
        probe = Ms2Client(socket_path)
        probe.wait_ready(10)
        _poll(lambda: probe.stats()["in_flight"] >= 1, timeout=20)
        probe.close()
        proc.send_signal(signal.SIGTERM)
        worker.join(60)
        assert not worker.is_alive(), "in-flight response never came"
        assert results["ok"] is True
        assert proc.wait(30) == 0
        assert not socket_path.exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def test_draining_server_refuses_new_work(server):
    with server.client() as client:
        client.shutdown()
    # The daemon stops promptly with nothing in flight; afterwards
    # the socket is gone, so new connections fail outright.
    _poll(lambda: not server._thread.is_alive())
    with pytest.raises(OSError):
        with server.client() as client:
            client.ping()
