"""Process-wide memos shared by every macro context.

Two caches outlive a single :class:`~repro.engine.MacroProcessor`:
compiled macro bodies (:mod:`repro.macros.codegen`) and parsed package
loads (:meth:`~repro.engine.MacroProcessor.load`).  Both are keyed by
a digest of everything that decides the cached value, so any context
may reuse an entry another context stored.  :class:`ProcessMemo` is
the one LRU both use: lock-guarded for daemon threads, with the lock
re-created in a forked child (a build worker forked while another
thread held it would otherwise wait forever).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Any, Hashable

__all__ = ["ProcessMemo"]


class ProcessMemo:
    """A thread-safe LRU map filled lazily; ``put`` evicts the least
    recently used entries beyond its ``bound``."""

    #: Every memo in the process, for :meth:`clear_all`.
    _instances: list["ProcessMemo"] = []

    def __init__(self) -> None:
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._reset_lock)
        ProcessMemo._instances.append(self)

    def _reset_lock(self) -> None:
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Any:
        """The entry under ``key`` (now most recently used), or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any, bound: int) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > bound:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    @classmethod
    def clear_all(cls) -> None:
        for memo in cls._instances:
            memo.clear()
