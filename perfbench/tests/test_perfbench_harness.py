"""Tests of the benchmark harness itself (not of the simulator).

They run a tiny registered workload through ``perfbench/run.py``'s
``main`` so they stay fast; the real workloads are exercised by the
benchmark runs.
"""

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import check, layers, run, workloads  # noqa: E402
from repro.api import GridSpec, NetworkSummary  # noqa: E402
from repro.mac import SimResult  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(seed: int) -> tuple:
    return (GridSpec(protocols=("RRAA", "SampleRate"), envs=("office",),
                     mode="static", n_seeds=2, seed0=100 + seed,
                     duration_s=0.5),)


@pytest.fixture
def tiny_bench(tmp_path, monkeypatch):
    """``run.main`` on a tiny workload, scratch stores under tmp_path."""
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", _tiny)
    monkeypatch.setattr(run, "SCRATCH", str(tmp_path / "scratch"))

    def bench(seed: int, trace: int = 0) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", "tiny", "--seed", str(seed),
                             "--seconds", "0.1", "--trace", str(trace)])
        assert code == 0
        return json.loads(out.getvalue().strip().splitlines()[-1])

    return bench


def _link_result(attempts=10, delivered=7) -> SimResult:
    return SimResult(duration_s=1.0, delivered=delivered, dropped=1,
                     attempts=attempts, payload_bytes=1500,
                     rate_attempts=np.array([attempts - 4, 4]),
                     rate_successes=np.array([delivered - 2, 2]),
                     delivery_times_s=np.linspace(0.1, 0.9, delivered))


def test_metric_names_are_well_formed():
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in DECLARED[key]]
    names += [w["name"] for w in DECLARED["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    assert {w["name"] for w in DECLARED["workloads"]} \
        <= set(workloads.WORKLOADS)


def test_perturbed_digest_counts_as_failure():
    results = [_link_result(),
               NetworkSummary(aggregate_mbps=3.5, stations_mbps={"a": 3.5},
                              handoffs=2, mean_lifetime_s=4.0, attempts=90)]
    digests = [check.task_digest(result) for result in results]
    assert check.count_failures(results, digests) == 0
    for i in range(len(digests)):
        perturbed = list(digests)
        perturbed[i] = "0" * len(perturbed[i])
        assert check.count_failures(results, perturbed) == 1
    assert check.count_failures(results, digests + ["extra"]) == 1


def test_implausible_output_counts_as_failure():
    broken = _link_result()
    broken.rate_attempts = np.array([1, 1])
    assert check.task_problem(broken) is not None
    assert check.count_failures([broken], None) == 1
    assert check.count_failures([_link_result()], None) == 0


def test_committed_digests_cover_every_workload():
    expected = check.load_expected()
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, check.DEFAULT_SEED)
        assert len(expected[name]) == workload.n_tasks


def test_association_policies_replay_differently():
    """A scenario run under several policies gives one output per policy."""
    specs = workloads.build("net_catalog", check.DEFAULT_SEED).specs
    digests = dict(zip(((spec.scenario, spec.seed, spec.policy)
                        for spec in specs),
                       check.load_expected()["net_catalog"]))
    worlds = {spec.seed for spec in specs}
    assert len(worlds) == workloads.NET_WORLDS
    for scenario, _, policies in workloads.NET_RUNS:
        for world in worlds:
            outputs = {digests[scenario, world, policy]
                       for policy in policies}
            assert len(outputs) == len(policies), (scenario, world)
    assert any(len(policies) > 1 for _, _, policies in workloads.NET_RUNS)


def test_seed_changes_inputs_not_metric_set(tiny_bench):
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 1).specs != workloads.build(name, 2).specs
        assert workloads.build(name, 1) == workloads.build(name, 1)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        first, second = tiny_bench(1, trace), tiny_bench(2, trace)
        wanted = [m["name"] for m in DECLARED[key]]
        for result in (first, second):
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 4
            assert list(result["metrics"]) == wanted


def test_traced_run_measures_the_layers(tiny_bench):
    metrics = {k: v["value"] for k, v in tiny_bench(3, trace=1)["metrics"].items()}
    assert metrics["api.tasks_batch"] == 4
    assert metrics["api.batch_width_mean"] == 2
    assert metrics["mac.attempts.RRAA"] > 0
    assert metrics["mac.replay_s.SampleRate"] > 0
    assert metrics["synth.trace_calls"] == 2
    assert metrics["store.hits"] >= 4 and metrics["store.misses"] == 0
    assert metrics["self_s.rate.rraa"] > 0
    assert metrics["trace_overhead"] > 0


def test_temp_store_removed_and_repo_store_untouched(tiny_bench, tmp_path):
    repo_store = ROOT / ".cache" / "trace-store"

    def snapshot():
        if not repo_store.exists():
            return None
        return sorted((str(p), p.stat().st_mtime_ns)
                      for p in repo_store.rglob("*"))

    before = snapshot()
    environ_before = dict(os.environ)
    tiny_bench(4)
    assert snapshot() == before
    assert not (tmp_path / "scratch").exists()
    assert dict(os.environ) == environ_before


def test_median_total_sums_per_piece_medians():
    rounds = [[1.0, 5.0, 2.0], [3.0, 4.0, 2.5], [0.5, 6.0, 9.0]]
    assert run.median_total(rounds) == 1.0 + 5.0 + 2.5
    assert run.median_total([[2.0, 3.0]]) == 5.0


def test_laps_line_up_call_by_call():
    laps = layers.Laps()
    for _ in range(3):
        with laps.timed("synth.trace"):
            pass
    assert len(laps.durations) == 3
    assert all(d >= 0 for d in laps.durations)


def test_module_names_from_profile_paths():
    assert layers._repro_module("/x/src/repro/mac/traffic.py") == "mac.traffic"
    assert layers._repro_module("/x/repro/src/repro/rate/base.py") == "rate.base"
    assert layers._repro_module("/usr/lib/python3/json/decoder.py") is None
    assert layers._repro_module("~") is None


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".scratch"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "net_catalog"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert "correct" not in done.stdout
