"""The NDJSON protocol: every op, both response shapes, metrics."""

from __future__ import annotations

import json
import socket
import time
from pathlib import Path

import pytest

from repro import __version__
from repro.client import Ms2Client, Ms2ServerError
from repro.options import Ms2Options
from repro.server import PROTOCOL_VERSION

from .conftest import doubler_program

PROGRAM = """
syntax exp twice {| ( $$exp::e ) |} { return(`(($e) * 2)); }
syntax exp quad {| ( $$exp::e ) |} { return(`(twice(twice($e)))); }
int x = quad(1);
"""

BROKEN = "void broken( {\nint x = ;\n"


def test_ping(server):
    with server.client() as client:
        pong = client.ping()
    assert pong["pong"] is True
    assert pong["version"] == __version__
    assert pong["protocol"] == PROTOCOL_VERSION


def test_expand_returns_full_result(server):
    with server.client() as client:
        result = client.expand(PROGRAM, "prog.c")
    assert result.ok
    assert result.output.count("* 2") == 2, result.output
    assert result.stats is not None
    assert result.stats.expansions >= 3


def test_expand_with_request_options(server):
    """Per-request options override the server's: recovery mode turns
    a fail-fast error into diagnostics."""
    with server.client() as client:
        result = client.expand(
            BROKEN, "broken.c", options=Ms2Options(recover=True)
        )
    assert not result.ok
    assert result.diagnostics


def test_expand_failure_is_an_error_frame(server):
    with server.client() as client:
        with pytest.raises(Ms2ServerError) as excinfo:
            client.expand(BROKEN, "broken.c")
    assert excinfo.value.code == "expansion_error"
    # The serialized diagnostic carries the rendered backtrace.
    assert "broken.c" in str(excinfo.value)


def test_trace_returns_span_tree(server):
    with server.client() as client:
        result, tree = client.trace(PROGRAM, "prog.c")
    assert result.spans, "trace must record spans"
    assert result.spans[0].children, "quad nests twice under twice"
    assert "quad" in tree and "twice" in tree


def test_cli_profile_renders_wire_spans(server, capsys):
    """``repro expand --server ADDR --profile`` builds the table from
    the spans the daemon sent back, and stdout stays the plain
    expansion."""
    from repro.cli import main

    path = Path(__file__).resolve().parents[2] / "examples/corpus/with_lock.c"
    assert main(["expand", str(path)]) == 0
    plain = capsys.readouterr().out
    argv = ["expand", "--server", str(server.socket_path), "--profile"]
    assert main([*argv, str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain
    header, *rows = captured.err.splitlines()
    assert header.split() == ["macro", "calls", "hits", "incl_ms", "self_ms"]
    assert [row.split()[:3] for row in rows] == [
        ["with_lock", "1", "0"], ["total", "1", "0"],
    ]


def test_requests_share_one_connection(server):
    with server.client() as client:
        for _ in range(5):
            assert client.expand(PROGRAM, "prog.c").ok
        stats = client.stats()
    assert stats["connections_total"] == 1
    assert stats["requests"]["expand"] == 5


def test_warm_workers_serve_repeat_options(server):
    with server.client() as client:
        client.expand(PROGRAM, "prog.c")
        client.expand(PROGRAM, "prog.c")
        stats = client.stats()
    workers = stats["workers"]
    # The pool pre-warms only the server's default key; request keys
    # warm up after first use, so at most one request was cold.
    assert workers["warm_hits"] >= 1
    assert workers["warm_hits"] + workers["cold_builds"] == 2


def test_stats_shape(server):
    with server.client() as client:
        client.expand(PROGRAM, "prog.c")
        stats = client.stats()
    assert stats["in_flight"] == 0
    assert stats["peak_in_flight"] >= 1
    latency = stats["latency_ms"]
    assert latency["count"] == 1
    assert latency["mean"] > 0
    assert sum(latency["buckets"].values()) == 1
    assert "+Inf" in latency["buckets"]
    cache = stats["expansion_cache"]
    assert set(cache) == {"hits", "misses", "hit_rate"}
    assert stats["server"]["protocol"] == PROTOCOL_VERSION
    assert stats["server"]["options_hash"] == (
        Ms2Options().options_hash()
    )
    assert stats["responses"]["ok"] >= 1


def test_unknown_op_is_bad_request(server):
    with server.client() as client:
        response = client.request({"op": "transmogrify"})
    assert response["ok"] is False
    assert response["error"]["code"] == "bad_request"
    assert "transmogrify" in response["error"]["message"]


def test_invalid_options_payload_is_bad_request(server):
    with server.client() as client:
        response = client.request(
            {"op": "expand", "source": "int x;",
             "options": {"max_errors": "many"}}
        )
    assert response["error"]["code"] == "bad_request"
    assert "max_errors" in response["error"]["message"]


def test_missing_source_is_bad_request(server):
    with server.client() as client:
        response = client.request({"op": "expand"})
    assert response["error"]["code"] == "bad_request"


def test_unknown_package_is_bad_request(server):
    with server.client() as client:
        response = client.request(
            {"op": "expand", "source": "int x;",
             "packages": ["no_such_package"]}
        )
    assert response["error"]["code"] == "bad_request"


def test_shutdown_op_stops_the_server(server):
    with server.client() as client:
        assert client.shutdown()["draining"] is True
    deadline = time.monotonic() + 10
    while server._thread.is_alive():
        assert time.monotonic() < deadline, "server did not stop"
        time.sleep(0.02)
    assert not server.socket_path.exists(), "socket file cleaned up"


@pytest.mark.parametrize("transport", ["ndjson", "http"])
def test_shutdown_op_drains_over_every_transport(server_factory, transport):
    """A ``shutdown`` frame drains the daemon whichever front carries
    it: the reply says draining, then ``serve_until_stopped``
    returns."""
    handle = server_factory(metrics_port=0)
    address = (
        f"http://{handle.server.sidecar.address}"
        if transport == "http"
        else handle.socket_path
    )
    with Ms2Client(address) as client:
        assert client.shutdown()["draining"] is True
    handle._thread.join(5)
    assert not handle._thread.is_alive(), "server did not stop"


def test_raw_frame_ids_echo_back(server):
    with server.client() as client:
        response = client.request(
            {"id": "my-id-42", "op": "ping"}
        )
    assert response["id"] == "my-id-42"
    assert response["ok"] is True


def test_expand_file_hits_the_disk_cache(server_factory, tmp_path):
    source = tmp_path / "unit.c"
    source.write_text(doubler_program(3))
    handle = server_factory(cache_dir=tmp_path / "cache")
    with handle.client() as client:
        first = client.expand_file(source)
        second = client.expand_file(source)
        stats = client.stats()
    assert first["status"] == "ok"
    assert first["from_cache"] is False
    assert second["from_cache"] is True
    assert second["output"] == first["output"]
    assert stats["disk_cache"]["hits"] == 1
    assert stats["disk_cache"]["misses"] >= 1


def test_expand_file_missing_path_is_bad_request(server):
    with server.client() as client:
        with pytest.raises(Ms2ServerError) as excinfo:
            client.expand_file("/no/such/file.c")
    assert excinfo.value.code == "bad_request"


def test_protocol_over_raw_socket(server):
    """The protocol is plain NDJSON — no client library required."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(str(server.socket_path))
    sock.sendall(
        json.dumps({"id": 1, "op": "expand", "source": "int x;"})
        .encode() + b"\n"
    )
    reply = json.loads(sock.makefile("rb").readline())
    sock.close()
    assert reply["ok"] is True
    assert "int x;" in reply["result"]["output"]
