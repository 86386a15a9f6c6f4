"""The frozen :class:`~repro.serveconfig.ServeConfig` value object:
defaults shared with argparse, JSON round-trips, validation, the
``serve()`` entry point, and the one shared address parser."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import build_arg_parser, serve_config_from_args
from repro.client import parse_address, parse_server_address
from repro.serveconfig import SERVE_FIELDS, ServeConfig


# ---------------------------------------------------------------------------
# The value object itself
# ---------------------------------------------------------------------------


def test_frozen_and_comparable() -> None:
    config = ServeConfig(port=7777)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.port = 1  # type: ignore[misc]
    assert config == ServeConfig(port=7777)
    assert config != ServeConfig(port=7778)


def test_replace_derives_variants() -> None:
    base = ServeConfig(port=0)
    fleet = base.replace(shards=4)
    assert fleet.shards == 4
    assert base.shards == 1  # base unchanged


def test_default_deadline_s_converts_ms() -> None:
    assert ServeConfig().default_deadline_s is None
    assert ServeConfig(
        request_deadline_ms=2500.0
    ).default_deadline_s == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_requires_exactly_one_listen_address() -> None:
    with pytest.raises(ValueError, match="exactly one"):
        ServeConfig().validate()
    with pytest.raises(ValueError, match="exactly one"):
        ServeConfig(socket="/tmp/s.sock", port=1).validate()
    assert ServeConfig(port=0).validate().port == 0
    assert ServeConfig(socket="/tmp/s.sock").validate()


def test_validate_rejects_sharded_unix_sockets() -> None:
    with pytest.raises(ValueError, match="SO_REUSEPORT"):
        ServeConfig(socket="/tmp/s.sock", shards=2).validate()
    assert ServeConfig(port=0, shards=2).validate()


@pytest.mark.parametrize(
    "changes",
    [
        {"shards": 0},
        {"max_inflight": 0},
        {"queue_limit": -1},
        {"max_frame_bytes": 10},
        {"drain_s": -1.0},
    ],
)
def test_validate_rejects_impossible_capacities(changes) -> None:
    with pytest.raises(ValueError):
        ServeConfig(port=0, **changes).validate()


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def test_json_roundtrip_exact() -> None:
    config = ServeConfig(
        port=7777,
        shards=3,
        packages=("loops", "exceptions"),
        package_sources=(("m.ms2", "syntax..."),),
        max_inflight=2,
        queue_limit=5,
        request_deadline_ms=1500.0,
        cache_dir="/tmp/cache",
        metrics_port=0,
        event_log="/tmp/events.jsonl",
        fault_specs=("pool.build_worker:1.0:exception",),
        fault_seed=42,
    )
    payload = config.to_json()
    assert payload["packages"] == ["loops", "exceptions"]
    assert payload["package_sources"] == [["m.ms2", "syntax..."]]
    assert ServeConfig.from_json(payload) == config


def test_from_json_ignores_unknown_keys() -> None:
    assert ServeConfig.from_json(
        {"port": 1, "from_the_future": True}
    ) == ServeConfig(port=1)


def test_from_json_none_is_defaults() -> None:
    assert ServeConfig.from_json(None) == ServeConfig()


@pytest.mark.parametrize(
    "payload",
    [
        {"port": "7777"},
        {"shards": "two"},
        {"packages": "loops"},
        {"package_sources": [["only-one-part"]]},
        {"queue_limit": True},
        {"drain_s": "fast"},
        {"socket": 7},
    ],
)
def test_from_json_rejects_wrong_types(payload) -> None:
    with pytest.raises(ValueError):
        ServeConfig.from_json(payload)


# ---------------------------------------------------------------------------
# serve() entry point
# ---------------------------------------------------------------------------


def test_serve_requires_some_config() -> None:
    from repro.server import serve

    with pytest.raises(TypeError, match="ServeConfig"):
        serve(None)


# ---------------------------------------------------------------------------
# Argparse parity: the CLI's defaults ARE the dataclass defaults
# ---------------------------------------------------------------------------


def test_cli_serve_defaults_match_serveconfig() -> None:
    args = build_arg_parser().parse_args(["serve", "--port", "0"])
    config = serve_config_from_args(args)
    defaults = ServeConfig()
    exempt = {
        "socket", "port",  # the explicit listen address
        "cache_dir",  # CLI defaults to the shared build cache
    }
    for name in SERVE_FIELDS:
        if name in exempt:
            continue
        assert getattr(config, name) == getattr(defaults, name), name


def test_cli_shards_flag_flows_into_config() -> None:
    args = build_arg_parser().parse_args(
        ["serve", "--port", "0", "--shards", "3"]
    )
    config = serve_config_from_args(args)
    assert config.shards == 3
    assert config.validate()


# ---------------------------------------------------------------------------
# parse_server_address (the one shared address parser)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "spec,expected",
    [
        ("unix:///run/ms2.sock", ("unix", "/run/ms2.sock")),
        ("tcp://build-host:7777", ("tcp", "build-host", 7777)),
        ("tcp://:7777", ("tcp", "127.0.0.1", 7777)),
        ("http://gw:9100", ("http", "gw", 9100)),
        ("http://gw:9100/v1/expand", ("http", "gw", 9100)),
        ("http://gw", ("http", "gw", 80)),
        ("7777", ("tcp", "127.0.0.1", 7777)),
        (":7777", ("tcp", "127.0.0.1", 7777)),
        ("host:7777", ("tcp", "host", 7777)),
        ("/tmp/ms2.sock", ("unix", "/tmp/ms2.sock")),
        ("relative/path.sock", ("unix", "relative/path.sock")),
    ],
)
def test_parse_server_address(spec, expected) -> None:
    assert parse_server_address(spec) == expected


@pytest.mark.parametrize(
    "spec", ["unix://", "tcp://host", "tcp://", "http://host:notaport"]
)
def test_parse_server_address_rejects_malformed_urls(spec) -> None:
    with pytest.raises(ValueError):
        parse_server_address(spec)


def test_parse_address_is_the_same_function() -> None:
    """The historical name stays importable and identical."""
    assert parse_address is parse_server_address
