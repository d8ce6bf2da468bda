"""Benchmark workloads: spec builders, cold synthesis and cache control.

Each workload is a tuple of public :mod:`repro.api` specs built from the
benchmark seed alone; the program under test only ever sees those specs.
Set-up is the cold synthesis of every trace and hint series the specs
need, made by the benchmark's own calls into the store-backed caches
(the calls a cold ``Session`` run makes lazily), into an empty store.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
from dataclasses import dataclass

from repro.api import GridSpec, NetworkRunSpec
from repro.channel.store import set_store_root
from repro.experiments import common
from repro.network import make_scenario, station_hints, station_trace
from repro.network import traces as net_traces
from repro.rate import RATE_PROTOCOLS

__all__ = [
    "WORKLOADS",
    "Workload",
    "build",
    "clear_caches",
    "cold_synthesize",
    "synthesize",
    "temp_store",
]

PROTOCOLS = tuple(RATE_PROTOCOLS)

#: Grid seeds of benchmark seed ``s`` start at ``s * SEED_STRIDE``, so
#: seed 0 is the figure drivers' own numbering and seeds never overlap.
SEED_STRIDE = 1000

#: The quick ``fig3_5``/``6``/``7`` grid shape: 3 envs x 4 seeds, so
#: each protocol group is 12 links wide.  A replay runs several such
#: grids one after another, as the quick runner runs its three figure
#: grids; traces are shortened from 20 s so a run holds several replays.
#: Each grid is given to the session one protocol at a time: the planner
#: groups a grid by protocol anyway, so the tasks and batches are those
#: of the six-protocol grid, and each group is timed on its own.
MIXED_ENVS = ("office", "hallway", "outdoor")
MIXED_SEEDS = 4
MIXED_GRIDS = 3
MIXED_DURATION_S = 0.8

#: ``net_catalog``: (scenario, duration_s, association policies) per
#: replay, in each of ``NET_WORLDS`` seeded worlds.  Durations are long
#: enough for the walkers to cross cell edges, so association acts: in
#: corridor_walk the two policies hand off differently, and
#: mixed_mobility's roamer hands off once.  The other scenarios run
#: their catalog policy only; dense_cell has a single AP and
#: vehicular_drive_by's cars do not hand off, so a second policy would
#: replay the same output.
NET_WORLDS = 2
NET_RUNS = (
    ("corridor_walk", 20.0, ("strongest", "lifetime")),
    ("dense_cell", 10.0, ("strongest",)),
    ("mixed_mobility", 20.0, ("lifetime",)),
    ("vehicular_drive_by", 15.0, ("strongest",)),
)


@dataclass(frozen=True)
class Workload:
    """One named benchmark input: the specs one replay runs, in order."""

    name: str
    specs: tuple

    @property
    def n_tasks(self) -> int:
        """Tasks one replay runs (grids expand; scenarios are one each)."""
        return sum(spec.n_tasks if isinstance(spec, GridSpec) else 1
                   for spec in self.specs)


def _fig3_mixed_tcp(seed: int) -> tuple:
    return tuple(
        GridSpec(protocols=(protocol,), envs=MIXED_ENVS, mode="mixed",
                 n_seeds=MIXED_SEEDS,
                 seed0=seed * SEED_STRIDE + grid * MIXED_SEEDS,
                 duration_s=MIXED_DURATION_S, tcp=True)
        for grid in range(MIXED_GRIDS) for protocol in PROTOCOLS)


def _net_catalog(seed: int) -> tuple:
    return tuple(
        NetworkRunSpec(scenario=name, seed=seed * NET_WORLDS + world,
                       policy=policy, duration_s=duration_s)
        for world in range(NET_WORLDS)
        for name, duration_s, policies in NET_RUNS
        for policy in policies
    )


#: Workload name -> spec builder taking the benchmark seed.
WORKLOADS = {
    "fig3_mixed_tcp": _fig3_mixed_tcp,
    "net_catalog": _net_catalog,
}


def build(name: str, seed: int) -> Workload:
    """The named workload's specs for one benchmark seed."""
    return Workload(name=name, specs=WORKLOADS[name](seed))


def clear_caches() -> None:
    """Drop the in-process artefact caches (the on-disk store stays).

    This includes the vehicle ensemble that taxi stations' motion
    scripts are cut from: it is computed, not stored, so every fresh
    process computes it again.
    """
    for cached in (common.cached_trace, common.cached_hints,
                   common.cached_script_trace, common.cached_script_hints,
                   station_trace, station_hints,
                   net_traces._vehicle_ensemble):
        cached.cache_clear()


def synthesize(workload: Workload, spans) -> None:
    """Generate every artefact ``workload`` replays from, into the store.

    ``spans.timed(prefix)`` wraps each call; caches must be cold (see
    :func:`clear_caches`) for this to measure synthesis, not lookups.
    """
    for spec in workload.specs:
        if isinstance(spec, GridSpec):
            links = spec.expand(spec.seed0)
            for key in dict.fromkeys((link.env, link.mode, link.seed,
                                      link.duration_s) for link in links):
                with spans.timed("synth.trace"):
                    common.cached_trace(*key)
            for key in dict.fromkeys((link.mode, link.seed, link.duration_s)
                                     for link in links):
                with spans.timed("synth.hints"):
                    common.cached_hints(*key)
    # Both policies of one (scenario, seed) world share its artefacts
    # through the store, as in Session's own network pre-warm.
    worlds = dict.fromkeys(
        (spec.scenario, spec.seed, spec.duration_s, spec.overrides)
        for spec in workload.specs if isinstance(spec, NetworkRunSpec))
    for name, seed, duration_s, overrides in worlds:
        scenario = make_scenario(name, seed=seed, duration_s=duration_s,
                                 **dict(overrides))
        for index in range(scenario.n_stations):
            with spans.timed("synth.trace"):
                station_trace(scenario, index)
            with spans.timed("synth.hints"):
                station_hints(scenario, index)


def cold_synthesize(workload: Workload, spans) -> None:
    """:func:`synthesize` after dropping every in-process artefact cache."""
    clear_caches()
    synthesize(workload, spans)


@contextlib.contextmanager
def temp_store(parent: str):
    """An empty trace store under ``parent``, removed on exit.

    The store root travels through ``REPRO_TRACE_STORE``; its previous
    value is restored on exit, so nothing outside ``parent`` is read or
    written through the store.
    """
    os.makedirs(parent, exist_ok=True)
    root = tempfile.mkdtemp(prefix="store-", dir=parent)
    previous = os.environ.get("REPRO_TRACE_STORE")
    set_store_root(root)
    try:
        yield root
    finally:
        if previous is None:
            os.environ.pop("REPRO_TRACE_STORE", None)
        else:
            os.environ["REPRO_TRACE_STORE"] = previous
        shutil.rmtree(root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(parent)
