"""Client-side resilience: RetryPolicy classification and backoff,
``wait_ready`` timeout behaviour, end-to-end retries against an
in-process daemon, and the ``--fallback local`` degradation path."""

from __future__ import annotations

import socket
import time

import pytest

from repro import faults
from repro.cli import main as cli_main
from repro.client import (
    RETRYABLE_CODES,
    Ms2Client,
    Ms2ServerError,
    RetryPolicy,
    client_counters,
)

PROGRAM = "int main(void) { return 42; }\n"


class TestRetryPolicy:
    def test_retryable_codes(self):
        policy = RetryPolicy()
        for code in RETRYABLE_CODES:
            exc = Ms2ServerError(code, "x", {"code": code})
            assert policy.retryable_error(exc)
        for code in ("bad_request", "expansion_error", "internal"):
            exc = Ms2ServerError(code, "x", {"code": code})
            assert not policy.retryable_error(exc)

    def test_retryable_exception_types(self):
        policy = RetryPolicy()
        assert policy.retryable_error(ConnectionResetError())
        assert policy.retryable_error(socket.timeout())
        assert policy.retryable_error(OSError("disk"))
        assert not policy.retryable_error(ValueError("nope"))

    def test_backoff_within_exponential_ceiling(self):
        policy = RetryPolicy(base_delay_s=0.05, max_delay_s=2.0)
        for attempt in range(1, 10):
            ceiling = min(2.0, 0.05 * 2 ** (attempt - 1))
            for _ in range(32):
                sleep = policy.backoff_s(attempt)
                assert 0.0 <= sleep <= ceiling

    def test_retry_after_hint_raises_ceiling(self):
        policy = RetryPolicy(base_delay_s=0.001, max_delay_s=2.0)
        # With the hint the ceiling is 1s; without it, 1ms.  Sampling
        # 64 draws, at least one must exceed the un-hinted ceiling.
        draws = [policy.backoff_s(1, retry_after_ms=1000.0)
                 for _ in range(64)]
        assert all(0.0 <= d <= 1.0 for d in draws)
        assert max(draws) > 0.001

    def test_retry_after_hint_still_capped(self):
        policy = RetryPolicy(max_delay_s=0.2)
        for _ in range(32):
            assert policy.backoff_s(1, retry_after_ms=60_000) <= 0.2


class TestWaitReady:
    def test_honours_timeout(self, tmp_path):
        client = Ms2Client(tmp_path / "never.sock")
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            client.wait_ready(timeout=0.6)
        elapsed = time.monotonic() - started
        assert 0.55 <= elapsed < 5.0

    def test_returns_quickly_when_up(self, server):
        client = server.client()
        started = time.monotonic()
        client.wait_ready(timeout=10.0)
        assert time.monotonic() - started < 5.0
        client.close()


class TestEndToEndRetry:
    def test_frame_write_reset_is_retried(self, server):
        baseline = server.client().__enter__().expand(
            PROGRAM, "prog.c"
        )
        # One-shot connection reset while writing the next expand
        # response: the client must reconnect and replay.
        faults.arm(
            "server.frame_write@expand:1:conn_reset:0:1", seed=5
        )
        before = client_counters()["retries"]
        with server.client(retry=RetryPolicy()) as client:
            result = client.expand(PROGRAM, "prog.c")
        assert result.output == baseline.output
        assert client.retries >= 1
        assert client_counters()["retries"] > before

    def test_unavailable_frame_carries_retry_after_hint(
        self, server_factory
    ):
        handle = server_factory()
        faults.arm("pool.build_worker:1:io_error", seed=5)
        with handle.client() as client:  # no retry: see the frame
            with pytest.raises(Ms2ServerError) as info:
                client.expand(PROGRAM, "prog.c")
        assert info.value.code == "unavailable"
        hint = info.value.payload.get("retry_after_ms")
        assert isinstance(hint, int) and hint >= 1

    def test_unavailable_recovers_under_retry(self, server_factory):
        handle = server_factory()
        baseline = handle.client().__enter__().expand(
            PROGRAM, "prog.c"
        )
        faults.arm("pool.build_worker:1:io_error:0:1", seed=5)
        with handle.client(retry=RetryPolicy()) as client:
            result = client.expand(PROGRAM, "prog.c")
        assert result.output == baseline.output
        assert client.retries >= 1

    def test_no_policy_still_fails_fast(self, server_factory):
        handle = server_factory()
        faults.arm("pool.build_worker:1:io_error", seed=5)
        with handle.client() as client:
            with pytest.raises(Ms2ServerError):
                client.expand(PROGRAM, "prog.c")


class TestFallbackLocal:
    def test_byte_identical_when_daemon_down(self, tmp_path, capsys):
        prog = tmp_path / "prog.c"
        prog.write_text(PROGRAM)
        assert cli_main(["expand", str(prog)]) == 0
        local_out = capsys.readouterr().out

        before = client_counters()["fallbacks"]
        code = cli_main(
            [
                "expand",
                "--server", str(tmp_path / "nope.sock"),
                "--fallback", "local",
                str(prog),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == local_out
        assert "falling back" in captured.err
        assert client_counters()["fallbacks"] == before + 1

    def test_default_fallback_is_fail(self, tmp_path, capsys):
        prog = tmp_path / "prog.c"
        prog.write_text(PROGRAM)
        code = cli_main(
            ["expand", "--server", str(tmp_path / "nope.sock"),
             str(prog)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
