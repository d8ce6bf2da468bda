"""Typed result envelopes returned by :class:`repro.api.Session`.

A :class:`RunResult` wraps one spec's outcome with its execution
provenance: the spec echo, the engine(s) actually used, the worker
count, wall-clock timing, and the resolved seeds, so a result can be
audited (or re-run bit-identically) without knowing how the session
planned it.  Per-task payloads are the simulator's own typed results:
:class:`~repro.mac.SimResult` for link replays and
:class:`NetworkSummary` (a picklable digest of
:class:`~repro.network.NetworkResult`) for scenario replays.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["NetworkSummary", "RunResult"]


@dataclass(frozen=True)
class NetworkSummary:
    """Digest of one scenario replay (picklable across pool workers).

    Field-compatible with the dict rows the ``fig5_net`` grid driver
    has always aggregated (see :meth:`to_dict`); built from a full
    :class:`~repro.network.NetworkResult` via :meth:`from_result`.
    """

    aggregate_mbps: float
    stations_mbps: dict
    handoffs: int
    mean_lifetime_s: float
    attempts: int

    @classmethod
    def from_result(cls, result) -> "NetworkSummary":
        return cls(
            aggregate_mbps=result.aggregate_throughput_mbps,
            stations_mbps={name: res.throughput_mbps
                           for name, res in result.stations.items()},
            handoffs=result.handoff_count,
            mean_lifetime_s=result.mean_association_lifetime_s(),
            attempts=sum(res.attempts for res in result.stations.values()),
        )

    def to_dict(self) -> dict:
        """The plain grid-row dict shape (drivers aggregate this)."""
        return {
            "aggregate_mbps": self.aggregate_mbps,
            "stations_mbps": dict(self.stations_mbps),
            "handoffs": self.handoffs,
            "mean_lifetime_s": self.mean_lifetime_s,
            "attempts": self.attempts,
        }


@dataclass(frozen=True)
class RunResult:
    """One spec's outcome plus its execution provenance."""

    #: The spec that produced this result (echoed verbatim).
    spec: object
    #: Per-task payloads, in the spec's expansion order:
    #: :class:`~repro.mac.SimResult` for link tasks,
    #: :class:`NetworkSummary` for network tasks.
    results: tuple
    #: Engine each task actually ran on (``fast``/``reference``/
    #: ``batch``), parallel to ``results``.
    task_engines: tuple
    #: Provenance: the resolved seed of each task (explicit spec seeds
    #: echoed; ``None`` seeds replaced by the session's derived ones).
    seeds: tuple
    #: Worker processes the executing session was configured with.
    jobs: int
    #: Wall-clock seconds of the ``run``/``map`` call that produced
    #: this result (shared across specs executed in one ``map``).
    elapsed_s: float

    @property
    def engine(self) -> str:
        """The engine used, or ``"mixed"`` when the plan split tasks."""
        engines = set(self.task_engines)
        if len(engines) == 1:
            return next(iter(engines))
        return "mixed"

    @property
    def result(self):
        """The single task payload (specs that expand to one task)."""
        if len(self.results) != 1:
            raise ValueError(
                f"spec expanded to {len(self.results)} tasks; "
                f"use .results"
            )
        return self.results[0]

    @property
    def throughputs(self) -> tuple:
        """Per-task headline numbers: link throughput (Mb/s) or
        network aggregate throughput (Mb/s), in expansion order."""
        return tuple(
            r.aggregate_mbps if isinstance(r, NetworkSummary)
            else r.throughput_mbps
            for r in self.results
        )
