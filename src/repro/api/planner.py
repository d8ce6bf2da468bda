"""Workload planning: which engine runs which task, and in what shape.

Pure functions from task descriptors to an execution plan, so the
policy is unit-testable without running a simulator.  The link-grid
policy under ``engine="auto"``: group by ``(protocol, traffic,
best-SampleRate)``, send groups of at least :data:`MIN_BATCH` tasks to
the batch engine in chunks of at most :data:`BATCH_SIZE` links, and
fall back to the per-task fast engine for the rest.  Every engine is
bit-identical, so the plan only decides speed (``auto`` against forced
``fast`` is guarded in ``benchmarks/test_bench_engine.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import ConfigError

__all__ = [
    "BATCH_SIZE",
    "MIN_BATCH",
    "NETWORK_BATCH_MIN_STATIONS",
    "LinkPlan",
    "plan_link_tasks",
    "resolve_link_engine",
    "resolve_network_engine",
]

#: Most links one batch-engine call replays; larger groups split into
#: chunks of this size.
BATCH_SIZE = 64

#: Smallest task group ``engine="auto"`` sends to the batch engine;
#: smaller groups replay per task on the fast engine.
MIN_BATCH = 2

#: ``engine="auto"`` scenarios with at least this many stations replay
#: on the batch scenario engine (bit-identical; its SoA passes amortise
#: over contending stations, while tiny cells are adapter-bound).
NETWORK_BATCH_MIN_STATIONS = 8


@dataclass(frozen=True)
class LinkPlan:
    """How a list of link tasks executes.

    ``chunks`` are index groups replayed by one batch-engine call each;
    ``singles`` replay per-task on ``engines[i]``.  ``engines`` is
    parallel to the task list and covers every task (chunk members are
    ``"batch"``).  Sessions run the chunks first, then the singles.
    """

    chunks: tuple[tuple[int, ...], ...]
    singles: tuple[int, ...]
    engines: tuple[str, ...]


def resolve_link_engine(engine: str) -> str:
    """The per-task engine a session preference forces (``auto``->fast)."""
    return "fast" if engine == "auto" else engine


def resolve_network_engine(engine: str, n_stations: int) -> str:
    """Scenario engine for one network task.

    ``fast`` has no network meaning, so it (like ``reference``) selects
    the reference scheduler; ``auto`` picks the batch engine for dense
    cells (:data:`NETWORK_BATCH_MIN_STATIONS`).  Results are
    bit-identical either way -- only speed differs.
    """
    if engine == "batch":
        return "batch"
    if engine in ("fast", "reference"):
        return "reference"
    if engine == "auto":
        return ("batch" if n_stations >= NETWORK_BATCH_MIN_STATIONS
                else "reference")
    raise ConfigError(f"unknown engine {engine!r}")


def plan_link_tasks(
    keys: list,
    engine: str,
    batch_size: int = BATCH_SIZE,
    min_batch: int = MIN_BATCH,
) -> LinkPlan:
    """Plan link tasks given their batchability keys.

    ``keys[i]`` is task *i*'s grouping key -- ``(protocol, tcp,
    best_samplerate)`` -- and tasks sharing a key may replay in one
    ragged batch.  ``engine`` is the session preference:
    ``fast``/``reference`` force per-task replays, ``batch`` forces
    batch groups (even of one), and ``auto`` batches groups of at least
    ``min_batch`` tasks.
    """
    if batch_size < 1:
        raise ConfigError("batch_size must be positive")
    min_batch = max(1, int(min_batch))

    if engine in ("fast", "reference"):
        return LinkPlan(chunks=(), singles=tuple(range(len(keys))),
                        engines=(engine,) * len(keys))
    if engine not in ("auto", "batch"):
        raise ConfigError(f"unknown engine {engine!r}")

    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    chunks: list[tuple[int, ...]] = []
    singles: list[int] = []
    engines = ["batch"] * len(keys)
    for members in groups.values():
        if engine == "auto" and len(members) < min_batch:
            singles.extend(members)
            for i in members:
                engines[i] = "fast"
            continue
        for lo in range(0, len(members), batch_size):
            chunks.append(tuple(members[lo:lo + batch_size]))
    return LinkPlan(chunks=tuple(chunks), singles=tuple(singles),
                    engines=tuple(engines))
