"""Correctness gate: per-task digests and seed-independent sanity checks.

A task's digest covers its simulated outputs exactly (link throughput,
attempts, deliveries and drops; network aggregate and per-station
throughput, attempts, handoffs and mean association lifetime).  At the
default seed every task must match the committed ``expected.json``; at
any seed every task must be finite, its attempt counts must add up, and
every replay must reproduce the first replay's digests.

``PYTHONPATH=src python3 -m perfbench.check``, run from the repository
root, regenerates ``expected.json`` (one replay of every workload at
the default seed) after a change that is meant to alter simulated
output.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from repro.api import NetworkSummary

__all__ = [
    "DEFAULT_SEED",
    "EXPECTED_PATH",
    "count_failures",
    "load_expected",
    "task_digest",
    "task_problem",
]

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def _record(result) -> tuple:
    if isinstance(result, NetworkSummary):
        return ("network", result.aggregate_mbps, result.attempts,
                result.handoffs, result.mean_lifetime_s,
                tuple(sorted(result.stations_mbps.items())))
    return ("link", result.throughput_mbps, result.attempts,
            result.delivered, result.dropped)


def task_digest(result) -> str:
    """Exact digest of one task's simulated outputs."""
    blob = repr(_record(result)).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


def task_problem(result) -> str | None:
    """Why one task's output is implausible at any seed, or ``None``."""
    if isinstance(result, NetworkSummary):
        numbers = [result.aggregate_mbps, result.mean_lifetime_s,
                   *result.stations_mbps.values()]
        if not all(math.isfinite(x) and x >= 0 for x in numbers):
            return "non-finite or negative network output"
        if result.attempts < 1:
            return "network replay made no attempts"
        if result.handoffs < 0:
            return "negative handoff count"
        return None
    if not (math.isfinite(result.throughput_mbps)
            and result.throughput_mbps >= 0):
        return "non-finite or negative throughput"
    if int(result.rate_attempts.sum()) != result.attempts:
        return "per-rate attempts do not add up to attempts"
    if int(result.rate_successes.sum()) != result.delivered:
        return "per-rate successes do not add up to deliveries"
    if result.delivered > result.attempts:
        return "more deliveries than attempts"
    return None


def count_failures(results, reference: list[str] | None) -> int:
    """Tasks of one replay that fail the gate.

    ``reference`` is the per-task digest list the replay must match
    (the committed digests at the default seed, else the first
    replay's), or ``None`` to apply only the sanity checks.
    """
    digests = [task_digest(result) for result in results]
    failed = 0
    for i, result in enumerate(results):
        if task_problem(result) is not None:
            failed += 1
        elif reference is not None and (i >= len(reference)
                                        or digests[i] != reference[i]):
            failed += 1
    if reference is not None and len(reference) > len(results):
        failed += len(reference) - len(results)
    return failed


def load_expected() -> dict[str, list[str]]:
    """Committed per-task digests of each workload at the default seed."""
    return json.loads(EXPECTED_PATH.read_text())["workloads"]


def _regenerate() -> None:
    from repro.api import Session

    from perfbench import workloads

    expected = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, DEFAULT_SEED)
        with workloads.temp_store(str(Path(__file__).with_name(".scratch"))):
            session = Session(jobs=1)
            runs = [session.run(spec) for spec in workload.specs]
        results = [result for run in runs for result in run.results]
        problems = [task_problem(result) for result in results]
        if any(problems):
            raise SystemExit(f"{name}: {next(p for p in problems if p)}")
        expected[name] = [task_digest(result) for result in results]
        print(f"{name}: {len(results)} tasks")
    EXPECTED_PATH.write_text(json.dumps(
        {"seed": DEFAULT_SEED, "workloads": expected}, indent=1) + "\n")


if __name__ == "__main__":
    _regenerate()
