"""Warm-server output is byte-identical to in-process expansion.

The acceptance bar for the daemon: for every file in the examples
corpus, ``expand`` on a warm worker produces exactly the bytes the
library (and therefore ``repro expand``) produces — first request
(cold worker) and second request (warm worker) alike, with and
without a macro-package preamble, under non-default options."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import expand
from repro.options import Ms2Options

CORPUS = Path(__file__).resolve().parents[2] / "examples" / "corpus"
PROGRAMS = sorted(CORPUS.glob("*.c"))
PACKAGES = sorted(CORPUS.glob("*.ms2"))


@pytest.mark.parametrize(
    "path", PROGRAMS, ids=lambda p: p.name
)
def test_corpus_parity_cold_then_warm(server, path):
    source = path.read_text()
    local = expand(source, str(path))
    with server.client() as client:
        cold = client.expand(source, str(path))
        warm = client.expand(source, str(path))
    assert cold.output == local.output
    assert warm.output == local.output
    assert cold.ok == local.ok
    assert [d.to_json() for d in cold.diagnostics] == [
        d.to_json() for d in local.diagnostics
    ]


@pytest.mark.parametrize(
    "package", PACKAGES, ids=lambda p: p.name
)
def test_corpus_parity_with_package_preamble(server, package):
    """Package files sent with the request behave exactly like
    package files loaded locally before the program."""
    program = CORPUS / "plain.c"
    source = program.read_text()
    preamble = [(str(package), package.read_text())]
    local = expand(source, str(program), package_sources=preamble)
    with server.client() as client:
        remote = client.expand(
            source, str(program), package_sources=preamble
        )
    assert remote.output == local.output


@pytest.mark.parametrize(
    "options",
    [
        Ms2Options(annotate=True),
        Ms2Options(hygienic=True),
        Ms2Options(compiled_patterns=False),
        Ms2Options(cache=False),
    ],
    ids=["annotate", "hygienic", "interpreted", "no-cache"],
)
def test_corpus_parity_under_options(server, options):
    """Non-default options round-trip through the request payload
    and reach the worker unchanged."""
    for path in PROGRAMS:
        source = path.read_text()
        local = expand(source, str(path), options=options)
        with server.client() as client:
            remote = client.expand(source, str(path), options=options)
        assert remote.output == local.output, path.name


def test_server_preamble_matches_local_preamble(server_factory):
    """A daemon started with a preamble serves requests that send no
    preamble of their own exactly as a local processor with the same
    packages loaded."""
    package = CORPUS / "unroll.ms2"
    program = CORPUS / "plain.c"
    preamble = [(str(package), package.read_text())]
    handle = server_factory(package_sources=preamble)
    local = expand(
        program.read_text(), str(program), package_sources=preamble
    )
    with handle.client() as client:
        remote = client.expand(program.read_text(), str(program))
    assert remote.output == local.output


def test_cli_profile_renders_wire_spans(server, capsys):
    """``repro expand --server ADDR --profile`` builds the table from
    the spans the daemon sent back, and stdout stays the plain
    expansion."""
    from repro.cli import main

    path = CORPUS / "with_lock.c"
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
