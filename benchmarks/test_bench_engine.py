"""Hot-loop benchmarks: batch vs fast vs reference replay engines.

Three layers:

* single-link 60 s replays under each engine (the bench trajectory);
* the fast engine's >= 3x single-link speedup over the reference loop
  (its reason to exist, from PR 1), guarded against regressing more
  than 20% below the committed ``BENCH_engine_baseline.json`` pin;
* two 64-task fig3-style grids: a mixed-mode RapidSample/UDP grid (the
  Chapter 3 evaluation shape) run through ``Session(engine="auto")``
  against ``Session(engine="fast")``, and a cruise-friendly fixed-rate
  grid (the fig 3-1 style single-rate replay sweep) at engine level,
  each asserted bit-identical to serial fast-engine runs and pinned
  against their baseline speedups.

Ratios are measured in CPU time (best of three) so the pins are stable
under machine noise, and every measured number is emitted as a
``BENCH_engine.json`` artifact for the per-commit trajectory.
"""

import time

from conftest import (
    check_regression,
    load_bench_baseline,
    run_once,
    write_bench_artifact,
)

import numpy as np

from repro.api import GridSpec, Session
from repro.channel import OFFICE, generate_trace
from repro.core.architecture import HintAwareNode
from repro.experiments.common import cached_hints, cached_trace
from repro.mac import BatchLinkSpec, SimConfig, UdpSource, run_batch, run_link
from repro.rate import FixedRate, RapidSample
from repro.sensors import mixed_mobility_script

_DURATION_S = 60.0
_SEED = 0

#: The 64-task fig3-style grid: the four evaluation mobility modes x 16
#: seeds, RapidSample under saturated UDP (the paper's vehicular
#: workload; TCP grids exercise the same engines via the tier-1 suite).
_GRID_MODES = (("static", "office"), ("mobile", "office"),
               ("mixed", "hallway"), ("vehicular", "vehicular"))
_GRID_SEEDS = 16
_GRID_DURATION_S = 15.0


def _fixture():
    script = mixed_mobility_script(_DURATION_S)
    trace = generate_trace(OFFICE, script, seed=_SEED)
    hints = HintAwareNode(script, seed=_SEED).movement_hint_series()
    return trace, hints


def _replay(trace, hints, engine):
    return run_link(trace, RapidSample(), UdpSource(), hint_series=hints,
                    config=SimConfig(seed=_SEED, engine=engine))


def _best_of_cpu(fn, rounds=3):
    """Best CPU time of ``rounds`` runs (robust to co-tenant noise)."""
    best, result = float("inf"), None
    for _ in range(rounds):
        start = time.process_time()
        result = fn()
        best = min(best, time.process_time() - start)
    return best, result


def _grid_specs():
    """The 64-task grid as specs: one GridSpec per mobility mode."""
    return [
        GridSpec(protocols=("RapidSample",), envs=(env,), mode=mode,
                 n_seeds=_GRID_SEEDS, seed0=0, duration_s=_GRID_DURATION_S,
                 tcp=False, best_samplerate_protocols=())
        for mode, env in _GRID_MODES
    ]


def _fixed_grid_cases():
    """64 single-rate replays (fig 3-1 style: one rate, back to back)."""
    return [("mixed", "hallway", seed) for seed in range(64)]


def test_bench_engine_fast(benchmark):
    trace, hints = _fixture()
    result = run_once(benchmark, _replay, trace, hints, "fast")
    print(f"\n[engine/fast] 60 s replay: {result.delivered} delivered, "
          f"{result.attempts} attempts")
    assert result.delivered > 0


def test_bench_engine_reference(benchmark):
    trace, hints = _fixture()
    result = run_once(benchmark, _replay, trace, hints, "reference")
    print(f"\n[engine/reference] 60 s replay: {result.delivered} delivered, "
          f"{result.attempts} attempts")
    assert result.delivered > 0


def test_bench_engine_batch(benchmark):
    """The batch engine as a single-link replay (its worst geometry)."""
    trace, hints = _fixture()
    result = run_once(benchmark, _replay, trace, hints, "batch")
    print(f"\n[engine/batch] 60 s replay: {result.delivered} delivered, "
          f"{result.attempts} attempts")
    assert result.delivered > 0


def test_fast_engine_speedup_and_equivalence():
    """The fast engine must be bit-identical and >= 3x faster on the
    60 s single-link replay, and must not regress more than 20% below
    its pinned baseline speedup.

    Wall-clock assertions only belong where benchmarks are wanted, so
    this skips alongside the fixture-based benchmarks on images without
    pytest-benchmark."""
    import pytest

    pytest.importorskip("pytest_benchmark")
    trace, hints = _fixture()

    t_fast, fast = _best_of_cpu(lambda: _replay(trace, hints, "fast"),
                                rounds=5)
    t_ref, ref = _best_of_cpu(lambda: _replay(trace, hints, "reference"),
                              rounds=5)
    speedup = t_ref / t_fast
    print(f"\n[engine speedup] reference {t_ref * 1e3:.0f} ms, "
          f"fast {t_fast * 1e3:.0f} ms -> {speedup:.1f}x")
    assert fast.delivered == ref.delivered
    assert fast.dropped == ref.dropped
    assert fast.attempts == ref.attempts
    assert np.array_equal(fast.delivery_times_s, ref.delivery_times_s)
    assert speedup >= 3.0
    check_regression(speedup, load_bench_baseline("engine"),
                     "fast_vs_reference")
    write_bench_artifact("engine_single_link", {
        "reference_s": t_ref,
        "fast_s": t_fast,
        "fast_vs_reference": speedup,
    })


def test_batch_grid_speedup_and_equivalence():
    """The batch engine on the 64-task fig3-style grid: bit-identical
    to serial fast-engine replays, faster, and pinned against the
    committed baseline speedups (>20% regression fails).  The mixed
    grid runs through sessions, so ``engine="auto"`` must also keep
    planning every task onto the batch engine.

    Two grid shapes bracket the engine's regimes: the mixed-mode
    RapidSample grid (every round pays general steps for the lossy
    links) and the fig 3-1 style fixed-rate grid (long success runs,
    where the cruise tableau does nearly all the work)."""
    import pytest

    pytest.importorskip("pytest_benchmark")
    baseline = load_bench_baseline("engine")

    # --- mixed-mode RapidSample grid, through sessions ---------------
    specs = _grid_specs()
    tasks = [link for spec in specs for link in spec.expand(spec.seed0)]
    for task in tasks:  # warm the trace store outside the timings
        cached_trace(task.env, task.mode, task.seed, task.duration_s)
        cached_hints(task.mode, task.seed, task.duration_s)
    fast_session = Session(engine="fast", jobs=1)
    auto_session = Session(engine="auto", jobs=1)
    t_fast, fast_runs = _best_of_cpu(lambda: fast_session.map(specs))
    t_batch, auto_runs = _best_of_cpu(lambda: auto_session.map(specs))
    grid_speedup = t_fast / t_batch
    fast_grid = [v for run in fast_runs for v in run.throughputs]
    batch_grid = [v for run in auto_runs for v in run.throughputs]
    assert batch_grid == fast_grid, "batch grid diverged from fast grid"
    assert all(run.engine == "batch" for run in auto_runs), (
        "auto stopped batching the 64-task grid"
    )

    # --- fig 3-1 style fixed-rate grid, engine level -----------------
    cases = _fixed_grid_cases()
    for mode, env, seed in cases:
        cached_trace(env, mode, seed, _GRID_DURATION_S)
        cached_hints(mode, seed, _GRID_DURATION_S)

    def run_fixed_fast():
        return [run_link(cached_trace(env, mode, seed, _GRID_DURATION_S),
                         FixedRate(4), UdpSource(),
                         hint_series=cached_hints(mode, seed,
                                                  _GRID_DURATION_S),
                         config=SimConfig(seed=seed)).throughput_mbps
                for mode, env, seed in cases]

    def run_fixed_batch():
        results = run_batch([
            BatchLinkSpec(
                trace=cached_trace(env, mode, seed, _GRID_DURATION_S),
                controller=FixedRate(4),
                traffic=UdpSource(),
                hint_series=cached_hints(mode, seed, _GRID_DURATION_S),
                config=SimConfig(seed=seed),
            )
            for mode, env, seed in cases
        ])
        return [r.throughput_mbps for r in results]

    t_ffast, fixed_fast = _best_of_cpu(run_fixed_fast)
    t_fbatch, fixed_batch = _best_of_cpu(run_fixed_batch)
    cruise_speedup = t_ffast / t_fbatch
    assert fixed_batch == fixed_fast, "fixed-rate grid diverged"

    print(f"\n[batch grid] fig3 mixed-mode x64: fast {t_fast:.2f}s, "
          f"batch {t_batch:.2f}s -> {grid_speedup:.2f}x")
    print(f"[batch grid] fig3-1 fixed-rate x64: fast {t_ffast:.2f}s, "
          f"batch {t_fbatch:.2f}s -> {cruise_speedup:.2f}x")
    write_bench_artifact("engine", {
        "grid_tasks": len(tasks),
        "grid_duration_s": _GRID_DURATION_S,
        "fast_grid_s": t_fast,
        "batch_grid_s": t_batch,
        "batch_grid_vs_fast": grid_speedup,
        "fixed_fast_grid_s": t_ffast,
        "fixed_batch_grid_s": t_fbatch,
        "batch_cruise_grid_vs_fast": cruise_speedup,
    })
    # Hard floors (well under the measured speedups, above "broken"),
    # then the committed-baseline regression guards.  The mixed grid's
    # ratio swings the most with co-tenant load (its rounds interleave
    # many small NumPy dispatches), so its guard gets a wider tolerance;
    # the cruise grid and the single-link ratio are steadier and keep
    # the default 20%.  The mixed-grid floor was raised from 1.2 once
    # the adapter-layer dispatch work (vectorized SampleRate /
    # hint-aware static side, trimmed loop fallback, adaptive cruise
    # gating) settled the measured ratio at 2.1-2.5x.
    assert grid_speedup >= 1.6, (
        f"batch engine no longer pays for itself on the mixed grid "
        f"({grid_speedup:.2f}x)"
    )
    assert cruise_speedup >= 3.0, (
        f"cruise path collapsed on the fixed-rate grid "
        f"({cruise_speedup:.2f}x)"
    )
    check_regression(grid_speedup, baseline, "batch_grid_vs_fast",
                     tolerance=0.35)
    check_regression(cruise_speedup, baseline, "batch_cruise_grid_vs_fast")
