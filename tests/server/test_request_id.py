"""Request-ID correlation: every response frame echoes the ID, spans
and event-log records carry it, the client mints one when absent."""

from __future__ import annotations

import json
import re
import threading
import time

import pytest

from repro.client import Ms2ServerError

from .conftest import doubler_program

HEX16 = re.compile(r"^[0-9a-f]{16}$")

PROGRAM = (
    "syntax stmt Twice {| $$stmt::body |} "
    "{ return(`{$body; $body;}); }\n"
    "void f(void) { Twice { a(); } }\n"
)


def test_client_supplied_id_echoed_in_ok_frame(server):
    with server.client() as client:
        response = client.request(
            {"op": "ping", "request_id": "feedfacefeedface"}
        )
    assert response["ok"]
    assert response["request_id"] == "feedfacefeedface"


def test_client_mints_id_when_absent(server):
    with server.client() as client:
        response = client.request({"op": "ping"})
        assert HEX16.match(client.last_request_id)
        assert response["request_id"] == client.last_request_id
        # A second request gets a fresh ID.
        first = client.last_request_id
        client.request({"op": "ping"})
        assert client.last_request_id != first


def test_server_mints_id_for_raw_frames(server):
    """A raw-protocol caller that sends no (or an empty) request_id
    still gets a correlatable response."""
    with server.client() as client:
        response = client.request({"op": "ping", "request_id": ""})
    assert HEX16.match(response["request_id"])


def test_error_frames_echo_the_id(server):
    with server.client() as client:
        response = client.request(
            {"op": "no_such_op", "request_id": "aaaaaaaaaaaaaaaa"}
        )
        assert not response["ok"]
        assert response["error"]["code"] == "bad_request"
        assert response["request_id"] == "aaaaaaaaaaaaaaaa"
        # Expansion errors too.
        response = client.request(
            {
                "op": "expand",
                "source": "syntax int Broken {| |} { return(1 }\n",
                "request_id": "bbbbbbbbbbbbbbbb",
            }
        )
        assert not response["ok"]
        assert response["request_id"] == "bbbbbbbbbbbbbbbb"


def test_busy_frames_echo_the_id(server_factory):
    """Backpressure rejections carry the ID like any other response."""
    handle = server_factory(max_inflight=1, queue_limit=0)
    slow = doubler_program(11)
    outcome: dict = {}

    def occupy() -> None:
        with handle.client() as client:
            outcome["slow"] = client.request(
                {"op": "expand", "source": slow,
                 "request_id": "cccccccccccccccc"}
            )

    worker = threading.Thread(target=occupy)
    worker.start()
    busy = None
    with handle.client() as client:
        # Probe only once the slow request holds the one in-flight
        # slot (``stats`` is never admitted, so it cannot take it);
        # it may also have finished already.
        deadline = time.monotonic() + 10
        while (
            client.stats()["in_flight"] != 1
            and worker.is_alive()
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        for _ in range(200):
            response = client.request(
                {"op": "expand", "source": "int x;\n",
                 "request_id": "dddddddddddddddd"}
            )
            if (
                not response.get("ok")
                and response["error"]["code"] == "busy"
            ):
                busy = response
                break
    worker.join(30)
    assert outcome["slow"]["ok"]
    assert outcome["slow"]["request_id"] == "cccccccccccccccc"
    if busy is not None:  # the slow request may finish first
        assert busy["request_id"] == "dddddddddddddddd"


def test_trace_spans_are_stamped_with_the_request_id(server):
    with server.client() as client:
        result, _tree = client.trace(PROGRAM, "prog.c")
        rid = client.last_request_id
    assert result.spans, "traced result must carry spans"

    def walk(spans):
        for span in spans:
            yield span
            yield from walk(span.children)

    for span in walk(result.spans):
        assert span.request_id == rid


def test_event_log_correlates_one_request_end_to_end(
    server_factory, tmp_path
):
    log_path = tmp_path / "events.jsonl"
    handle = server_factory(event_log=log_path)
    with handle.client() as client:
        client.ping()
        _result, _tree = client.trace(PROGRAM, "prog.c")
        rid = client.last_request_id
    handle.stop()  # drain closes (and flushes) the event log

    records = [
        json.loads(line)
        for line in log_path.read_text().splitlines()
    ]
    mine = [r for r in records if r.get("request_id") == rid]
    events = [r["event"] for r in mine]
    assert events[0] == "request"
    assert "response" in events
    assert "span" in events
    request = mine[0]
    assert request["op"] == "trace"
    response = next(r for r in mine if r["event"] == "response")
    assert response["status"] == "ok"
    assert response["ms"] >= 0
    spans = [r for r in mine if r["event"] == "span"]
    assert {s["macro"] for s in spans} == {"Twice"}
    # Other requests' records never borrow this ID.
    other = [
        r for r in records
        if r["event"] in ("request", "response")
        and r.get("request_id") != rid
    ]
    assert other, "the ping must be logged under its own ID"


def test_expand_helper_raises_but_still_tracks_id(server):
    with server.client() as client:
        with pytest.raises(Ms2ServerError):
            client.expand("syntax int B {| |} { return(1 }\n")
        assert HEX16.match(client.last_request_id)
