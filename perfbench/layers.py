"""Per-layer measurement: spans at layer boundaries and a module profile.

:class:`Spans` accumulates named durations and counts in memory.  The
benchmark times its own set-up calls with :meth:`Spans.timed`; for the
replay, :func:`layer_spans` temporarily wraps the layer entry points
that :class:`repro.api.Session` calls (planner, link and network
executors, trace-store reads) so each call is timed and counted where
it happens.  :func:`module_profile` sums a ``cProfile`` run's per-function
self time and call counts by ``repro/<layer>/<module>.py``.
"""

from __future__ import annotations

import contextlib
import cProfile
import pstats
import time
from collections import defaultdict
from pathlib import PurePath

import repro.api.session as session_module
from repro.api import NetworkSummary
from repro.channel.store import TraceStore

__all__ = ["Laps", "Spans", "layer_spans", "module_profile"]


class Spans:
    """Named sums of durations (seconds) and counts, kept in memory."""

    def __init__(self) -> None:
        self.values: dict[str, float] = defaultdict(float)

    def add(self, name: str, amount: float) -> None:
        self.values[name] += amount

    @contextlib.contextmanager
    def timed(self, prefix: str):
        """Add the block's duration to ``<prefix>_s``, one to ``<prefix>_calls``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(f"{prefix}_s", time.perf_counter() - start)
            self.add(f"{prefix}_calls", 1)


class Laps:
    """The duration (seconds) of every timed block, in call order.

    A drop-in for :class:`Spans` where each call's own time is wanted:
    runs that make the same calls in the same order give lists that
    line up call by call.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []

    @contextlib.contextmanager
    def timed(self, prefix: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.durations.append(time.perf_counter() - start)


def _attempts(results) -> int:
    return sum(result.attempts for result in results)


@contextlib.contextmanager
def layer_spans(spans: Spans):
    """Time every Session call into the planner, executors and store.

    Session looks these functions up in its module globals at call
    time, so replacing them there (and ``TraceStore.load_arrays`` on
    the class) intercepts exactly the calls a replay makes.  The
    originals are restored on exit.
    """
    originals = {name: getattr(session_module, name)
                 for name in ("plan_link_tasks", "run_link_group",
                              "run_link_task", "run_network_task")}
    load_arrays = TraceStore.load_arrays

    def plan_link_tasks(*args, **kwargs):
        start = time.perf_counter()
        result = originals["plan_link_tasks"](*args, **kwargs)
        spans.add("api.plan_s", time.perf_counter() - start)
        spans.add("api.tasks_batch", sum(map(len, result.chunks)))
        spans.add("api.tasks_fast", len(result.singles))
        spans.add("api.batch_chunks", len(result.chunks))
        return result

    def replayed(protocol, start, results):
        spans.add(f"mac.replay_s.{protocol}", time.perf_counter() - start)
        spans.add(f"mac.attempts.{protocol}", _attempts(results))

    def run_link_group(tasks):
        start = time.perf_counter()
        results = originals["run_link_group"](tasks)
        replayed(tasks[0].protocol, start, results)
        return results

    def run_link_task(task):
        start = time.perf_counter()
        result = originals["run_link_task"](task)
        replayed(task.protocol, start, (result,))
        return result

    def run_network_task(task):
        start = time.perf_counter()
        summary: NetworkSummary = originals["run_network_task"](task)
        spans.add(f"net.replay_s.{task.scenario}",
                  time.perf_counter() - start)
        spans.add(f"net.attempts.{task.scenario}", summary.attempts)
        spans.add("net.handoffs", summary.handoffs)
        return summary

    def traced_load_arrays(store, key):
        start = time.perf_counter()
        arrays = load_arrays(store, key)
        spans.add("store.load_s", time.perf_counter() - start)
        if arrays is None:
            spans.add("store.misses", 1)
        else:
            spans.add("store.hits", 1)
            spans.add("store.bytes_read", store.path_for(key).stat().st_size)
        return arrays

    wrappers = {"plan_link_tasks": plan_link_tasks,
                "run_link_group": run_link_group,
                "run_link_task": run_link_task,
                "run_network_task": run_network_task}
    try:
        for name, wrapper in wrappers.items():
            setattr(session_module, name, wrapper)
        TraceStore.load_arrays = traced_load_arrays
        yield spans
    finally:
        for name, original in originals.items():
            setattr(session_module, name, original)
        TraceStore.load_arrays = load_arrays


def _repro_module(filename: str) -> str | None:
    """``.../repro/mac/traffic.py`` -> ``mac.traffic``; else ``None``."""
    parts = PurePath(filename).parts
    if "repro" not in parts or not filename.endswith(".py"):
        return None
    index = len(parts) - 1 - parts[::-1].index("repro")
    return ".".join(parts[index + 1:])[:-3] or None


def module_profile(profile: cProfile.Profile) -> tuple[dict, float]:
    """Per-module ``self_s.<module>``/``calls.<module>`` sums of a profile.

    Also returns the self time summed over *every* profiled function
    (library and interpreter frames included), which cannot exceed the
    wall time of the profiled region.
    """
    totals: dict[str, float] = defaultdict(float)
    all_self_s = 0.0
    for (filename, _, _), (_, calls, self_s, _, _) in \
            pstats.Stats(profile).stats.items():
        all_self_s += self_s
        module = _repro_module(filename)
        if module is not None:
            totals[f"self_s.{module}"] += self_s
            totals[f"calls.{module}"] += calls
    return dict(totals), all_self_s
