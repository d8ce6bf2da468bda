"""Session behaviour: config hardening, planning, and bit-equivalence
with serial per-task replays."""

import numpy as np
import pytest

from repro.api import (
    ConfigError,
    GridSpec,
    LinkReplaySpec,
    NetworkRunSpec,
    Session,
)
from repro.api.planner import (
    BATCH_SIZE,
    MIN_BATCH,
    NETWORK_BATCH_MIN_STATIONS,
    plan_link_tasks,
    resolve_network_engine,
)
from repro.experiments.common import (
    best_samplerate_throughput,
    protocol_throughput,
)


# ----------------------------------------------------------------------
# Config hardening: one clear ConfigError from the session
# ----------------------------------------------------------------------
class TestConfigErrors:
    @pytest.mark.parametrize("value", ["four", "2.5", "True", ""])
    def test_malformed_repro_jobs_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ConfigError, match="REPRO_JOBS"):
            Session()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_repro_jobs_env(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(ConfigError, match=">= 1"):
            Session()

    def test_valid_repro_jobs_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert Session().jobs == 3

    def test_explicit_jobs_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "broken")
        assert Session(jobs=2).jobs == 2

    def test_unset_repro_jobs_runs_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert Session().jobs == 1

    def test_explicit_bad_jobs(self):
        with pytest.raises(ConfigError, match="jobs"):
            Session(jobs=0)

    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "2.5", [2]])
    def test_non_integer_jobs_rejected(self, value):
        # Same inputs the REPRO_JOBS path rejects: never truncated
        # (2.5 -> 2) or read as a count (True -> 1).
        with pytest.raises(ConfigError, match="not an integer"):
            Session(jobs=value)

    def test_integer_like_jobs_accepted(self):
        assert Session(jobs=np.int64(3)).jobs == 3
        assert Session(jobs="2").jobs == 2

    def test_store_with_nul_byte(self):
        # (os.environ itself refuses NUL bytes, so this arrives via the
        # argument path -- e.g. a config file read into --store.)
        with pytest.raises(ConfigError, match="NUL"):
            Session(store="bad\0root")

    def test_store_env_pointing_at_file(self, monkeypatch, tmp_path):
        target = tmp_path / "not-a-dir"
        target.write_text("occupied")
        monkeypatch.setenv("REPRO_TRACE_STORE", str(target))
        with pytest.raises(ConfigError, match="non-directory"):
            Session()

    def test_store_off_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert not Session().store.enabled

    def test_explicit_store_redirects_process_store(self, monkeypatch,
                                                    tmp_path):
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        session = Session(store=tmp_path / "traces")
        assert session.store.root == tmp_path / "traces"

    def test_unknown_engine(self):
        with pytest.raises(ConfigError, match="engine"):
            Session(engine="warp")

    def test_unknown_spec_type(self):
        with pytest.raises(ConfigError, match="cannot run"):
            Session().map([object()])

    def test_bad_spec_values(self):
        with pytest.raises(ConfigError, match="protocol"):
            LinkReplaySpec(protocol="TurboRate")
        with pytest.raises(ConfigError, match="environment"):
            LinkReplaySpec(protocol="RapidSample", env="moonbase")
        with pytest.raises(ConfigError, match="mode"):
            GridSpec(protocols=("RapidSample",), mode="levitating")
        with pytest.raises(ConfigError, match="scenario"):
            NetworkRunSpec(scenario="ghost_town")


# ----------------------------------------------------------------------
# Planning: group by batchability key, chunk, fall back to fast
# ----------------------------------------------------------------------
class TestPlanner:
    KEYS = (
        [("RapidSample", False, False)] * 5
        + [("SampleRate", True, True)]
        + [("HintAware", True, False)] * 3
    )

    def test_auto_grouping(self):
        plan = plan_link_tasks(self.KEYS, "auto", batch_size=4, min_batch=2)
        # RapidSample group of 5 splits at batch_size=4; the singleton
        # SampleRate task falls back to the fast engine.
        assert plan.chunks == ((0, 1, 2, 3), (4,), (6, 7, 8))
        assert plan.singles == (5,)
        assert plan.engines[5] == "fast"
        assert all(plan.engines[i] == "batch" for i in (0, 4, 6))

    def test_forced_batch_keeps_singletons_batched(self):
        plan = plan_link_tasks(self.KEYS, "batch", batch_size=64)
        assert plan.singles == ()
        assert set(plan.engines) == {"batch"}

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_forced_per_task_engines(self, engine):
        plan = plan_link_tasks(self.KEYS, engine)
        assert plan.chunks == ()
        assert plan.singles == tuple(range(len(self.KEYS)))
        assert set(plan.engines) == {engine}

    def test_default_geometry(self):
        keys = [("RapidSample", False, False)] * (BATCH_SIZE + 1) \
            + [("SampleRate", True, True)] * (MIN_BATCH - 1)
        plan = plan_link_tasks(keys, "auto")
        assert [len(chunk) for chunk in plan.chunks] == [BATCH_SIZE, 1]
        assert len(plan.singles) == MIN_BATCH - 1

    def test_network_engine_resolution(self):
        assert resolve_network_engine("batch", 1) == "batch"
        assert resolve_network_engine("fast", 50) == "reference"
        assert resolve_network_engine("reference", 50) == "reference"
        dense = NETWORK_BATCH_MIN_STATIONS
        assert resolve_network_engine("auto", dense) == "batch"
        assert resolve_network_engine("auto", dense - 1) == "reference"


# ----------------------------------------------------------------------
# Execution: bit-identical to serial per-task replays, for every engine
# ----------------------------------------------------------------------
GRID = GridSpec(protocols=("RapidSample", "SampleRate", "HintAware"),
                envs=("office",), mode="mixed", n_seeds=2, seed0=0,
                duration_s=4.0, tcp=False)


def _serial_throughputs():
    """GRID replayed one task at a time through the driver helpers."""
    return [
        best_samplerate_throughput("office", "mixed", i, 4.0, False)
        if p == "SampleRate"
        else protocol_throughput(p, "office", "mixed", i, 4.0, False)
        for i in range(2)
        for p in ("RapidSample", "SampleRate", "HintAware")
    ]


class TestSessionEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return _serial_throughputs()

    @pytest.mark.parametrize("engine", ["auto", "fast", "reference", "batch"])
    def test_grid_matches_serial_any_engine(self, engine, serial):
        run = Session(engine=engine, jobs=1).run(GRID)
        assert list(run.throughputs) == serial

    def test_jobs_do_not_change_results(self, serial):
        run = Session(jobs=2).run(GRID)
        assert list(run.throughputs) == serial
        assert run.jobs == 2

    def test_run_result_provenance(self):
        run = Session(jobs=1).run(GRID)
        assert run.spec is GRID
        assert run.seeds == (0, 0, 0, 1, 1, 1)
        assert len(run.results) == GRID.n_tasks
        assert len(run.task_engines) == GRID.n_tasks
        assert run.elapsed_s > 0
        # auto batches every group here (each has 2 >= min_batch tasks)
        assert run.engine == "batch"

    def test_single_link_full_result(self):
        spec = LinkReplaySpec(protocol="RapidSample", env="office",
                              mode="static", seed=5, duration_s=4.0,
                              tcp=False)
        result = Session(jobs=1).run(spec).result
        from repro.experiments.common import protocol_throughput

        assert result.throughput_mbps == protocol_throughput(
            "RapidSample", "office", "static", 5, 4.0, False)
        assert result.delivered > 0
        assert result.packets_offered == result.delivered + result.dropped

    def test_network_spec_matches_direct_run(self):
        from repro.network import make_scenario, run_scenario

        spec = NetworkRunSpec(scenario="mixed_mobility", seed=7,
                              duration_s=4.0)
        summary = Session(jobs=1).run(spec).result
        direct = run_scenario(make_scenario("mixed_mobility", seed=7,
                                            duration_s=4.0))
        assert summary.aggregate_mbps == direct.aggregate_throughput_mbps
        assert summary.handoffs == direct.handoff_count
        assert summary.stations_mbps == {
            name: res.throughput_mbps
            for name, res in direct.stations.items()
        }

    def test_segment_specs_prewarm_shared_store(self, monkeypatch, tmp_path):
        # A parallel grid over one hand-built script must fill the
        # store once per artefact, not once per worker replay.
        from repro.sensors import pacing_script

        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / "store"))
        session = Session(jobs=2)
        specs = [
            LinkReplaySpec.from_script(protocol, pacing_script(3.0),
                                       seed=4, tcp=False)
            for protocol in ("RapidSample", "HintAware")
        ]
        runs = session.map(specs)
        assert all(run.result.duration_s == 3.0 for run in runs)
        stored = list((tmp_path / "store").rglob("*.npz"))
        assert len(stored) == 2    # one trace + one hint series, shared

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scatter_is_an_ordered_map(self, jobs):
        items = list(range(20))
        assert Session(jobs=jobs).scatter(_square, items) \
            == [x * x for x in items]
        assert Session(jobs=jobs).scatter(_square, []) == []


def _square(x):
    return x * x


class TestSeedLineage:
    def test_derive_is_stable_and_keyed(self):
        session = Session(seed=1)
        assert session.derive("a", 2) == session.derive("a", 2)
        assert session.derive("a", 2) != session.derive("a", 3)
        assert session.derive("a", 2) != Session(seed=2).derive("a", 2)

    def test_unseeded_specs_get_derived_seeds(self):
        session = Session(jobs=1, seed=9)
        spec = LinkReplaySpec(protocol="RapidSample", env="office",
                              mode="static", duration_s=4.0, tcp=False)
        first = session.run(spec)
        second = session.run(spec)
        assert first.seeds == second.seeds          # lineage, not position
        assert first.seeds[0] != 9                  # derived, not the base
        assert np.array_equal(first.result.delivery_times_s,
                              second.result.delivery_times_s)
