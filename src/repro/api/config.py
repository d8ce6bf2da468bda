"""Session configuration resolution: strict, early, in one place.

The execution substrate reads two environment knobs -- ``REPRO_JOBS``
(worker-process count) and ``REPRO_TRACE_STORE`` (on-disk trace-store
root).  :class:`~repro.api.session.Session` is the public entry point,
so it validates its whole configuration at construction through the
resolvers here and raises one clear :class:`ConfigError` naming the
offending knob and value -- instead of truncating a non-integer job
count, or letting a pathological store path (an embedded NUL byte, a
root that is a regular file) raise a bare ``ValueError``/``OSError``
deep inside :mod:`repro.channel.store` on the first cache access.
"""

from __future__ import annotations

import os
from numbers import Integral
from pathlib import Path

__all__ = ["ConfigError", "SESSION_ENGINES", "resolve_engine",
           "resolve_jobs", "resolve_store_root"]

#: Engine preferences a session accepts.  ``auto`` plans per workload
#: (the default); the others force every task onto one replay engine.
SESSION_ENGINES = ("auto", "fast", "reference", "batch")

_JOBS_ENV = "REPRO_JOBS"
_STORE_ENV = "REPRO_TRACE_STORE"
_STORE_DISABLED = ("off", "none", "0", "disabled")


class ConfigError(ValueError):
    """A session knob (argument or environment variable) is invalid.

    Raised eagerly from :class:`repro.api.Session` construction, so a
    malformed ``REPRO_JOBS``/``REPRO_TRACE_STORE`` fails loudly at the
    entry point instead of deep inside the executor or the trace store.
    """


def resolve_engine(engine: str) -> str:
    """Validate a session engine preference."""
    if engine not in SESSION_ENGINES:
        raise ConfigError(
            f"unknown engine {engine!r}; expected one of {SESSION_ENGINES}"
        )
    return engine


def resolve_jobs(jobs: int | None) -> int:
    """Worker-process count from the argument, else ``REPRO_JOBS``,
    else 1.

    Whichever source applies must be an integer >= 1; anything else --
    ``REPRO_JOBS=four``, ``jobs=2.5``, ``jobs=True`` -- raises
    :class:`ConfigError` instead of being truncated or ignored.
    """
    if jobs is not None:
        source = f"jobs={jobs!r}"
        value = jobs
    else:
        raw = os.environ.get(_JOBS_ENV)
        if raw is None:
            return 1
        source = f"{_JOBS_ENV}={raw!r}"
        value = raw
    not_integer = ConfigError(f"{source} is not an integer worker count")
    if isinstance(value, bool) or not isinstance(value, (Integral, str)):
        raise not_integer
    try:
        count = int(value)
    except ValueError:
        raise not_integer from None
    if count < 1:
        raise ConfigError(f"{source} must be >= 1")
    return count


def resolve_store_root(store: str | os.PathLike | None = None) -> Path | None:
    """Trace-store root from the argument or ``REPRO_TRACE_STORE``.

    ``None`` consults the environment (unset -> the working-directory
    default, matching :func:`repro.channel.store.default_store_root`);
    ``"off"`` (or any disabling spelling) returns ``None`` meaning "no
    on-disk store".  A value that cannot possibly work -- an embedded
    NUL byte, or a root that exists and is a regular file -- raises
    :class:`ConfigError` here instead of a bare error on first access.
    """
    if store is None:
        raw = os.environ.get(_STORE_ENV)
        if raw is None:
            return Path(".cache") / "trace-store"
        source = f"{_STORE_ENV}={raw!r}"
        value = raw
    else:
        source = f"store={store!r}"
        value = os.fspath(store)
    stripped = value.strip()
    if not stripped or stripped.lower() in _STORE_DISABLED:
        return None
    if "\0" in value:
        raise ConfigError(f"{source} contains a NUL byte")
    try:
        root = Path(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source} is not a usable path: {exc}") from None
    if root.exists() and not root.is_dir():
        raise ConfigError(
            f"{source} points at an existing non-directory; the trace "
            f"store needs a directory root"
        )
    return root
