"""CacheConfig: defaults, wire format, validation, and the
``BuildSession(cache=...)`` resolution rules.

CacheConfig is the single source of cache defaults — the CLI flags,
the library behaviour and the JSON policy a build farm ships to its
runners all start from ``CacheConfig()`` — so this suite pins the
default values, the round-trip, and every spelling ``cache=`` takes.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.driver import (
    BuildSession,
    CacheConfig,
    PersistentCache,
    RemoteCacheBackend,
    TieredBackend,
)
from repro.driver.cacheconfig import (
    CACHE_FIELDS,
    DEFAULT_REMOTE_TIMEOUT_S,
    DEFAULT_WRITE_BEHIND,
)


# ---------------------------------------------------------------------------
# Defaults and the value contract
# ---------------------------------------------------------------------------


def test_defaults_are_todays_behaviour() -> None:
    config = CacheConfig()
    assert config.local_dir == ".ms2-cache"
    assert config.remote is None
    assert config.write_behind == DEFAULT_WRITE_BEHIND
    assert config.remote_timeout_s == DEFAULT_REMOTE_TIMEOUT_S
    assert config.fail_open is True
    assert config.enabled


def test_frozen_and_comparable() -> None:
    a = CacheConfig(remote="tcp://host:7777")
    b = CacheConfig(remote="tcp://host:7777")
    assert a == b
    with pytest.raises(Exception):
        a.remote = "tcp://other:1"  # type: ignore[misc]


def test_replace_derives_variants() -> None:
    base = CacheConfig()
    variant = base.replace(remote="unix:///run/ms2.sock")
    assert variant.remote == "unix:///run/ms2.sock"
    assert variant.local_dir == base.local_dir
    assert base.remote is None  # original untouched


def test_fields_tuple_matches_declaration() -> None:
    assert CACHE_FIELDS == (
        "local_dir", "remote", "write_behind",
        "remote_timeout_s", "fail_open",
    )


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------


def test_json_round_trip() -> None:
    config = CacheConfig(
        local_dir="/tmp/c",
        remote="tcp://host:7777",
        write_behind=8,
        remote_timeout_s=0.5,
        fail_open=False,
    )
    assert CacheConfig.from_json(config.to_json()) == config


def test_from_json_ignores_unknown_keys() -> None:
    payload = CacheConfig().to_json()
    payload["added_in_a_future_version"] = True
    assert CacheConfig.from_json(payload) == CacheConfig()


def test_from_json_none_is_defaults() -> None:
    assert CacheConfig.from_json(None) == CacheConfig()


@pytest.mark.parametrize(
    "field, bad",
    [
        ("local_dir", 7),
        ("remote", ["tcp://x:1"]),
        ("write_behind", "many"),
        ("write_behind", True),
        ("remote_timeout_s", "fast"),
        ("fail_open", "yes"),
    ],
)
def test_from_json_rejects_wrong_types(field: str, bad: object) -> None:
    payload = CacheConfig().to_json()
    payload[field] = bad
    with pytest.raises(ValueError, match=field):
        CacheConfig.from_json(payload)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def test_validate_returns_self() -> None:
    config = CacheConfig(remote="tcp://host:7777")
    assert config.validate() is config


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"write_behind": -1}, "write_behind"),
        ({"remote_timeout_s": 0.0}, "remote_timeout_s"),
        ({"remote": "tcp://no-port"}, "tcp"),
    ],
)
def test_validate_rejects_impossible_configs(kwargs, match) -> None:
    with pytest.raises(ValueError, match=match):
        CacheConfig(**kwargs).validate()


# ---------------------------------------------------------------------------
# The backend factory
# ---------------------------------------------------------------------------


def test_build_backend_local_only(tmp_path: Path) -> None:
    backend = CacheConfig(local_dir=str(tmp_path)).build_backend()
    assert isinstance(backend, PersistentCache)


def test_build_backend_remote_only() -> None:
    backend = CacheConfig(
        local_dir=None, remote="tcp://host:7777"
    ).build_backend()
    assert isinstance(backend, RemoteCacheBackend)
    assert backend.timeout_s == DEFAULT_REMOTE_TIMEOUT_S


def test_build_backend_tiered(tmp_path: Path) -> None:
    backend = CacheConfig(
        local_dir=str(tmp_path),
        remote="tcp://host:7777",
        write_behind=4,
    ).build_backend()
    assert isinstance(backend, TieredBackend)
    assert backend.write_behind == 4
    assert isinstance(backend.local, PersistentCache)


def test_build_backend_disabled() -> None:
    assert CacheConfig(local_dir=None).build_backend() is None
    assert not CacheConfig(local_dir=None).enabled


# ---------------------------------------------------------------------------
# BuildSession(cache=...) resolution
# ---------------------------------------------------------------------------


def test_session_cache_accepts_config(tmp_path: Path) -> None:
    config = CacheConfig(local_dir=str(tmp_path / "c"))
    session = BuildSession(cache=config)
    assert session.cache_config is config
    assert isinstance(session.cache, PersistentCache)


def test_session_cache_accepts_path_and_none(tmp_path: Path) -> None:
    by_path = BuildSession(cache=tmp_path / "c")
    assert isinstance(by_path.cache, PersistentCache)
    assert by_path.cache_config.local_dir == str(tmp_path / "c")
    assert BuildSession(cache=None).cache is None


def test_session_cache_accepts_ready_backend(tmp_path: Path) -> None:
    backend = PersistentCache(tmp_path / "c")
    session = BuildSession(cache=backend)
    assert session.cache is backend


def test_session_default_is_cacheconfig_default(tmp_path, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    session = BuildSession()
    assert session.cache_config == CacheConfig()
    assert isinstance(session.cache, PersistentCache)


def test_session_is_a_context_manager(tmp_path: Path) -> None:
    with BuildSession(cache=tmp_path / "c") as session:
        assert session.cache is not None
    # close() is idempotent.
    session.close()
