"""Differential engine harness: every replay engine is the same machine.

Three engines share the replay semantics -- ``reference`` (the
executable specification), ``fast`` (the scalar hot path) and ``batch``
(the lockstep array program) -- and earn their keep only by being
*bit-identical*.  This suite pins that two ways:

* a fixed golden matrix across the full protocol set (all six Chapter 3
  protocols) x (static/mobile/mixed/vehicular) modes under both traffic
  models; and
* a hypothesis-driven differential fuzz over (protocol, mode, env,
  seed, duration, traffic) configs, asserting
  ``reference == fast == batch`` bit for bit on inputs nobody
  hand-picked -- including whole heterogeneous batches replayed in one
  lockstep call against their standalone twins.

It also pins :class:`repro.api.Session`'s determinism against serial
per-task execution, for every engine and job count.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import GridSpec, Session
from repro.core.seeds import derive_seed
from repro.experiments.common import (
    RATE_PROTOCOLS,
    best_samplerate_throughput,
    cached_hints,
    cached_trace,
    protocol_throughput,
)
from repro.mac import (
    BatchLinkSpec,
    SimConfig,
    TcpSource,
    UdpSource,
    run_batch,
    run_link,
)

GOLDEN_SEED = 11
DURATION_S = 6.0

#: (mode, environment) pairs of the evaluation matrix.
MODE_ENVS = [
    ("static", "office"),
    ("mobile", "office"),
    ("mixed", "hallway"),
    ("vehicular", "vehicular"),
]


def _replay(protocol: str, mode: str, env: str, engine: str, tcp: bool):
    trace = cached_trace(env, mode, GOLDEN_SEED, DURATION_S)
    hints = cached_hints(mode, GOLDEN_SEED, DURATION_S)
    controller = RATE_PROTOCOLS[protocol](GOLDEN_SEED)
    traffic = TcpSource() if tcp else UdpSource()
    return run_link(trace, controller, traffic=traffic, hint_series=hints,
                    config=SimConfig(seed=GOLDEN_SEED, engine=engine))


def assert_results_identical(a, b):
    assert a.duration_s == b.duration_s
    assert a.delivered == b.delivered
    assert a.dropped == b.dropped
    assert a.attempts == b.attempts
    assert a.payload_bytes == b.payload_bytes
    assert np.array_equal(a.rate_attempts, b.rate_attempts)
    assert np.array_equal(a.rate_successes, b.rate_successes)
    assert np.array_equal(a.delivery_times_s, b.delivery_times_s)


class TestEngineEquivalence:
    @pytest.mark.parametrize("protocol", sorted(RATE_PROTOCOLS))
    @pytest.mark.parametrize("mode,env", MODE_ENVS)
    def test_fast_matches_reference(self, protocol, mode, env):
        tcp = mode != "vehicular"  # the paper's vehicular workload is UDP
        ref = _replay(protocol, mode, env, "reference", tcp)
        fast = _replay(protocol, mode, env, "fast", tcp)
        assert_results_identical(ref, fast)

    @pytest.mark.parametrize("protocol", sorted(RATE_PROTOCOLS))
    @pytest.mark.parametrize("mode,env", MODE_ENVS)
    def test_batch_matches_fast(self, protocol, mode, env):
        tcp = mode != "vehicular"
        fast = _replay(protocol, mode, env, "fast", tcp)
        batch = _replay(protocol, mode, env, "batch", tcp)
        assert_results_identical(fast, batch)

    def test_rerun_is_deterministic(self):
        """run() re-derives its RNG streams, so replays repeat exactly."""
        a = _replay("RapidSample", "mixed", "office", "fast", True)
        b = _replay("RapidSample", "mixed", "office", "fast", True)
        assert_results_identical(a, b)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(engine="warp")


#: Compact differential-fuzz domain.  Durations and seeds are drawn
#: from small pools so hypothesis explores protocol/mode/traffic
#: interactions instead of regenerating a fresh trace per example
#: (trace synthesis dwarfs replay time); the pools still cover ragged
#: durations and disjoint RNG streams.
_FUZZ_CONFIG = st.fixed_dictionaries({
    "protocol": st.sampled_from(sorted(RATE_PROTOCOLS)),
    "mode": st.sampled_from(["static", "mobile", "mixed", "vehicular"]),
    "env": st.sampled_from(["office", "hallway", "outdoor"]),
    "seed": st.sampled_from([1, 7, 19, 104729]),
    "duration_s": st.sampled_from([1.5, 2.5, 3.5]),
    "tcp": st.booleans(),
})

#: CI marks the fuzz jobs with an explicit seed (--hypothesis-seed) and
#: these settings print the failing blob, so any failure reproduces
#: straight from the log.
_FUZZ_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    print_blob=True,
    derandomize=False,
    suppress_health_check=[HealthCheck.too_slow],
)


def _env_for(mode, env):
    return "vehicular" if mode == "vehicular" else env


def _fuzz_replay(cfg, engine):
    env = _env_for(cfg["mode"], cfg["env"])
    trace = cached_trace(env, cfg["mode"], cfg["seed"], cfg["duration_s"])
    hints = cached_hints(cfg["mode"], cfg["seed"], cfg["duration_s"])
    controller = RATE_PROTOCOLS[cfg["protocol"]](cfg["seed"])
    traffic = TcpSource() if cfg["tcp"] else UdpSource()
    return run_link(trace, controller, traffic=traffic, hint_series=hints,
                    config=SimConfig(seed=cfg["seed"], engine=engine))


class TestDifferentialFuzz:
    """reference == fast == batch on machine-chosen configurations."""

    @settings(**_FUZZ_SETTINGS)
    @given(cfg=_FUZZ_CONFIG)
    def test_single_link_all_engines_agree(self, cfg):
        ref = _fuzz_replay(cfg, "reference")
        fast = _fuzz_replay(cfg, "fast")
        batch = _fuzz_replay(cfg, "batch")
        assert_results_identical(ref, fast)
        assert_results_identical(fast, batch)

    @settings(**_FUZZ_SETTINGS)
    @given(cfgs=st.lists(_FUZZ_CONFIG, min_size=2, max_size=6))
    def test_heterogeneous_batch_matches_standalone(self, cfgs):
        """One lockstep call over a random batch == per-link fast runs;
        in particular a link's result cannot depend on its batch
        neighbours or position."""
        specs = []
        for cfg in cfgs:
            env = _env_for(cfg["mode"], cfg["env"])
            specs.append(BatchLinkSpec(
                trace=cached_trace(env, cfg["mode"], cfg["seed"],
                                   cfg["duration_s"]),
                controller=RATE_PROTOCOLS[cfg["protocol"]](cfg["seed"]),
                traffic=TcpSource() if cfg["tcp"] else UdpSource(),
                hint_series=cached_hints(cfg["mode"], cfg["seed"],
                                         cfg["duration_s"]),
                config=SimConfig(seed=cfg["seed"]),
            ))
        for cfg, batched in zip(cfgs, run_batch(specs)):
            assert_results_identical(batched, _fuzz_replay(cfg, "fast"))


#: The serial-reference grid: every protocol, two mixed-mode seeds.
DETERMINISM_GRID = GridSpec(
    protocols=tuple(sorted(RATE_PROTOCOLS)), envs=("office",), mode="mixed",
    n_seeds=2, seed0=GOLDEN_SEED, duration_s=DURATION_S,
    best_samplerate_protocols=("SampleRate",),
)


class TestSessionDeterminism:
    @pytest.fixture(scope="class")
    def serial(self):
        """DETERMINISM_GRID replayed one task at a time, in grid order."""
        grid = DETERMINISM_GRID
        return [
            best_samplerate_throughput("office", grid.mode, seed,
                                       grid.duration_s, grid.tcp)
            if protocol == "SampleRate"
            else protocol_throughput(protocol, "office", grid.mode, seed,
                                     grid.duration_s, grid.tcp)
            for seed in range(grid.seed0, grid.seed0 + grid.n_seeds)
            for protocol in grid.protocols
        ]

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("engine", ["auto", "fast", "batch"])
    def test_engine_and_jobs_match_serial(self, serial, engine, jobs):
        """Every engine at every job count collects byte-identical
        results, equal to the serial per-task replays."""
        run = Session(engine=engine, jobs=jobs).run(DETERMINISM_GRID)
        assert pickle.dumps(list(run.throughputs)) == pickle.dumps(serial)

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(0, "office", "mixed", 3)
        assert a == derive_seed(0, "office", "mixed", 3)
        assert a != derive_seed(0, "office", "mixed", 4)
        assert a != derive_seed(1, "office", "mixed", 3)
        assert a >= 0
