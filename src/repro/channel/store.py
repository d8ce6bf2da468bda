"""Content-addressed on-disk store for generated channel artefacts.

Trace generation (fading synthesis + per-slot fate draws) dominates the
cost of many experiment drivers, and the same (environment, motion,
seed, duration) traces are shared between figures, between repeated
runs, and -- with a multi-job :class:`repro.api.Session` -- between
worker processes that cannot share an in-process ``lru_cache``.  The store persists each
generated :class:`~repro.channel.trace.ChannelTrace` (and the hint
series derived from the same motion script) as a compressed ``.npz``
addressed by a digest of its generating parameters, so every consumer
regenerates a given trace at most once per machine.

Layout and invalidation
-----------------------
Files live under ``<root>/<digest[:2]>/<digest>.npz`` where ``root``
defaults to ``.cache/trace-store`` under the current working directory
and can be overridden with the ``REPRO_TRACE_STORE`` environment
variable (set it to ``off`` to disable persistence entirely).  The
digest covers a schema-version salt (:data:`STORE_VERSION`), so bumping
that constant invalidates every entry when generator semantics change;
deleting the store directory is always safe -- entries are regenerated
on demand.  Writes go through a temp file + ``os.replace`` so concurrent
workers never observe a torn archive; unreadable entries are treated as
misses and removed.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np

from .trace import ChannelTrace

__all__ = [
    "STORE_VERSION",
    "TraceStore",
    "default_store_root",
    "generator_fingerprint",
    "get_store",
    "set_store_root",
]

#: Bump for semantic invalidations that :func:`generator_fingerprint`
#: cannot see (e.g. a schema change in how entries are stored).
STORE_VERSION = 1


@lru_cache(maxsize=1)
def generator_fingerprint() -> str:
    """Digest of the generator source packages (channel/sensors/core).

    Folded into every store key, so editing trace/hint generation code
    orphans old entries automatically -- no manual version bump, and a
    CI cache restored across commits can never serve traces produced by
    different physics.
    """
    import repro.channel
    import repro.core
    import repro.sensors

    digest = hashlib.blake2b(digest_size=8)
    for package in (repro.channel, repro.sensors, repro.core):
        root = Path(package.__file__).parent
        for path in sorted(root.rglob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()

_ENV_VAR = "REPRO_TRACE_STORE"
_DISABLED_VALUES = ("off", "none", "0", "disabled")


def default_store_root() -> Path | None:
    """Store root from the environment, or the working-directory default.

    Returns ``None`` when ``REPRO_TRACE_STORE`` is set to ``off`` (or
    empty), which disables on-disk caching.
    """
    value = os.environ.get(_ENV_VAR)
    if value is None:
        return Path(".cache") / "trace-store"
    if value.strip().lower() in _DISABLED_VALUES or not value.strip():
        return None
    return Path(value)


class TraceStore:
    """A content-addressed ``.npz`` cache of traces and hint series."""

    def __init__(self, root: str | Path | None = None) -> None:
        self._root = Path(root) if root is not None else None

    @property
    def root(self) -> Path | None:
        return self._root

    @property
    def enabled(self) -> bool:
        return self._root is not None

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------
    @staticmethod
    def key(kind: str, **fields) -> str:
        """Digest of a generation recipe.

        ``fields`` must be the full set of parameters that determine the
        artefact's content; the digest also covers the generator source
        fingerprint, so entries never outlive the code that made them.
        """
        parts = [f"v{STORE_VERSION}", generator_fingerprint(), kind]
        parts += [f"{k}={fields[k]!r}" for k in sorted(fields)]
        blob = "|".join(parts).encode()
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def path_for(self, key: str) -> Path:
        if self._root is None:
            raise RuntimeError("store is disabled (no root)")
        return self._root / key[:2] / f"{key}.npz"

    # ------------------------------------------------------------------
    # Raw array round-trip
    # ------------------------------------------------------------------
    def load_arrays(self, key: str) -> dict[str, np.ndarray] | None:
        """Arrays under ``key``, or ``None`` on miss/corruption."""
        if self._root is None:
            return None
        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path, allow_pickle=False) as data:
                return {name: data[name] for name in data.files}
        except Exception:
            # Torn/corrupt entry (e.g. interrupted writer on a platform
            # without atomic replace): drop it and regenerate.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def save_arrays(self, key: str, **arrays: np.ndarray) -> None:
        """Atomically persist ``arrays`` under ``key`` (best effort)."""
        if self._root is None:
            return
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    np.savez_compressed(handle, **arrays)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full filesystem must never fail the caller:
            # the store is an accelerator, not a dependency.
            return

    # ------------------------------------------------------------------
    # Typed round-trips
    # ------------------------------------------------------------------
    def get_trace(self, key: str) -> ChannelTrace | None:
        arrays = self.load_arrays(key)
        if arrays is None:
            return None
        try:
            # Shares ChannelTrace's own npz schema, so trace fields
            # added there round-trip here without a second edit.
            return ChannelTrace.from_arrays(arrays)
        except (KeyError, ValueError):
            return None

    def put_trace(self, key: str, trace: ChannelTrace) -> None:
        self.save_arrays(key, **trace.to_arrays())

    def get_series(self, key: str) -> tuple[np.ndarray, np.ndarray] | None:
        """A stored (times_s, values) pair, e.g. a hint series."""
        arrays = self.load_arrays(key)
        if arrays is None:
            return None
        try:
            return arrays["times_s"], arrays["values"]
        except KeyError:
            return None

    def put_series(self, key: str, times_s: np.ndarray, values: np.ndarray) -> None:
        self.save_arrays(key, times_s=np.asarray(times_s),
                         values=np.asarray(values))


_STORE: TraceStore | None = None
_STORE_ROOT: Path | None = None


def set_store_root(root: str | Path | None) -> None:
    """Redirect the process-wide store (``None`` disables it).

    Writes ``REPRO_TRACE_STORE`` so pool worker processes -- which
    inherit the environment, not this module's globals -- resolve the
    same root; :func:`get_store` picks the change up on its next call.
    This is what ``repro.api.Session(store=...)`` and the runner's
    ``--store`` flag call.
    """
    os.environ[_ENV_VAR] = "off" if root is None else os.fspath(root)


def get_store() -> TraceStore:
    """The process-wide store for the current ``REPRO_TRACE_STORE``.

    Re-reads the environment on every call so tests (and forked workers
    with edited environments) can redirect or disable the store without
    restarting the process.
    """
    global _STORE, _STORE_ROOT
    root = default_store_root()
    if _STORE is None or root != _STORE_ROOT:
        _STORE = TraceStore(root)
        _STORE_ROOT = root
    return _STORE
