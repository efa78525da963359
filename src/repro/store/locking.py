"""Advisory inter-process file locking for the store.

A campaign's parent process is its store's only writer, but two runs
(or a run and ``hobbit-repro store gc``) may still open one store at
once. POSIX ``flock`` gives exactly the coordination shape that needs —
advisory, per open-file-description (so every process takes its own
lock independently), and released automatically by the kernel when the
holder dies, so a writer SIGKILLed mid-append never deadlocks the next
one.

Locks are taken on a dedicated sidecar file (never on the data file
itself) so lock acquisition can never collide with data truncation or
atomic-replace compaction. On platforms without ``fcntl`` the lock
degrades to a no-op and the store falls back to its historical
single-process contract; that degradation is surfaced once through the
trace journal rather than silently.
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator, Optional

try:  # POSIX only; Windows would need msvcrt.locking.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

_warned_unsupported = False


def _note_unsupported() -> None:
    global _warned_unsupported
    if _warned_unsupported:
        return
    _warned_unsupported = True
    from ..obs.trace import trace_warning

    trace_warning(
        "store.locking_unsupported",
        "fcntl.flock unavailable on this platform; store falls back to "
        "single-process access (no inter-process append safety)",
    )


class FileLock:
    """An advisory lock on a sidecar file.

    One instance per process per protected resource; ``exclusive()`` is
    a context manager. Locks do not nest — callers hold at most one
    store lock at a time.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[IO[bytes]] = None

    def _ensure_handle(self) -> Optional[IO[bytes]]:
        if self._handle is None:
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            # "ab" creates the file if missing without truncating a
            # sidecar another process is already flocking.
            self._handle = open(self.path, "ab")
        return self._handle

    @contextlib.contextmanager
    def exclusive(self) -> Iterator[None]:
        """Writer lock: appends, tail recovery, compaction."""
        if fcntl is None:
            _note_unsupported()
            yield
            return
        handle = self._ensure_handle()
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __del__(self) -> None:  # belt: deterministic close is the API
        with contextlib.suppress(Exception):
            self.close()
