"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fig3_mixed_tcp --seed 0 \\
        --seconds 60 --trace 0

Run from the repository root (the program is imported from ``src/``).
Everything runs in this one process through ``repro.api.Session``
(``engine="auto"``, ``jobs=1``):

* ``--trace 0``: set-ups -- a cold synthesis of the workload's traces
  and hint series into an empty temporary trace store under
  ``perfbench/.scratch`` -- each followed by replays of the workload
  from that store with in-process caches cleared, until ``--seconds``
  are spent.  Every synthesis call and every spec's replay is timed
  on its own; ``setup_s`` and ``wall_s`` sum, over calls and specs, the
  median time each took (see :func:`median_total`).
  Also reported: ``sim_attempts_per_s`` and ``peak_rss_mb``;
* ``--trace 1``: one cold synthesis under the profiler, then one plain,
  one span-timed and one profiled replay, reported as the per-layer
  metrics of ``BENCHMARK.json``.

Every replay's simulated outputs are checked (see ``check.py``).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = str(Path(__file__).resolve().parent / ".scratch")
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

# Session imports the replay engines lazily; load them before timing.
import repro.mac.batch  # noqa: E402,F401
import repro.network.batch  # noqa: E402,F401
from perfbench import check, layers, workloads  # noqa: E402
from repro.api import Session  # noqa: E402
from repro.channel.store import generator_fingerprint  # noqa: E402

#: Fewest replays in an untraced run, whatever the budget.
MIN_REPLAYS = 3

#: A fresh set-up precedes a replay while set-ups have taken at most
#: this share of the replay time so far, so a workload whose set-up
#: outweighs its replay still spends most of a run replaying.
SETUP_SHARE = 1 / 3

#: Module metrics taken from the set-up profile (trace synthesis); the
#: other ``self_s.*``/``calls.*`` metrics come from the replay profile.
SETUP_MODULE_METRICS = (
    "self_s.sensors.trajectory",
    "calls.sensors.trajectory",
    "self_s.sensors.accelerometer",
    "self_s.channel.tracegen",
    "self_s.channel.fading",
)


class Replayer:
    """Replays one workload through a session and gates every output."""

    def __init__(self, session, workload, reference) -> None:
        self.session = session
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.attempts = 0

    def once(self, around=None) -> list[float] | None:
        """One replay with cold in-process caches.

        Returns the host seconds of each spec's run, in spec order, or
        ``None`` if the replay raised.  ``around`` (a context manager
        such as a profiler) is entered for the timed region only.
        """
        workloads.clear_caches()
        runs, seconds = [], []
        try:
            with around or contextlib.nullcontext():
                for spec in self.workload.specs:
                    start = time.perf_counter()
                    runs.append(self.session.run(spec))
                    seconds.append(time.perf_counter() - start)
        except Exception:
            traceback.print_exc()
            self.attempted += self.workload.n_tasks
            self.failed += self.workload.n_tasks
            return None
        results = [result for run in runs for result in run.results]
        if self.reference is None:
            self.reference = [check.task_digest(r) for r in results]
        self.attempted += len(results)
        self.failed += check.count_failures(results, self.reference)
        self.attempts = sum(result.attempts for result in results)
        return seconds


def timed_setup(workload, spans) -> float:
    start = time.perf_counter()
    workloads.cold_synthesize(workload, spans)
    return time.perf_counter() - start


def median_total(rounds: list[list[float]]) -> float:
    """Sum over pieces of each piece's median time over the rounds.

    ``rounds[r][i]`` is piece ``i``'s host seconds in round ``r``; every
    round runs the same pieces in the same order.  The host's speed
    swings by up to 1.6x within seconds, so a slow moment inflates a
    few pieces of one round.  The median of round totals keeps the slow
    moments of its round; each piece's own median drops them.
    """
    return sum(statistics.median(piece) for piece in zip(*rounds))


def measure(workload, reference, seconds: float):
    """End-to-end metrics of one untraced run.

    A set-up synthesizes the workload cold into a fresh store; replays
    follow from that store until the next set-up is due (see
    ``SETUP_SHARE``), and so on until ``seconds`` are spent.  Every
    synthesis call and every spec's replay is timed on its own, and
    :func:`median_total` turns the set-ups and replays into ``setup_s``
    and ``wall_s``.
    """
    replayer = Replayer(Session(engine="auto", jobs=1), workload, reference)
    setups: list[list[float]] = []
    replays: list[list[float]] = []

    def setup_due() -> bool:
        return (sum(map(sum, setups))
                <= SETUP_SHARE * sum(map(sum, replays)))

    start = time.perf_counter()
    done = False
    while not done:
        with workloads.temp_store(SCRATCH):
            laps = layers.Laps()
            workloads.cold_synthesize(workload, laps)
            setups.append(laps.durations)
            while True:
                replay = replayer.once()
                if replay is None:
                    done = True
                    break
                replays.append(replay)
                next_s = statistics.mean(map(sum, replays))
                if setup_due():
                    next_s += statistics.mean(map(sum, setups))
                if replayer.failed or (
                        len(replays) >= MIN_REPLAYS and
                        time.perf_counter() - start + next_s > seconds):
                    done = True
                    break
                if setup_due():
                    break
    if not replays:
        return {}, replayer, []
    print("set-ups s: " + " ".join(f"{sum(r):.3f}" for r in setups)
          + "; replays s: " + " ".join(f"{sum(r):.3f}" for r in replays),
          file=sys.stderr)
    wall_s = median_total(replays)
    metrics = {
        "wall_s": wall_s,
        "sim_attempts_per_s": replayer.attempts / wall_s,
        "setup_s": median_total(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, replayer, []


def measure_layers(workload, reference):
    """Per-layer metrics of one traced run, and any consistency problems."""
    spans = layers.Spans()
    setup_profile = cProfile.Profile()
    replay_profile = cProfile.Profile()
    with workloads.temp_store(SCRATCH):
        with setup_profile:
            timed_setup(workload, spans)
        replayer = Replayer(Session(engine="auto", jobs=1), workload,
                            reference)
        plain_s = sum(replayer.once() or [math.nan])
        spanned = replayer.once(layers.layer_spans(spans))
        spanned_s = sum(spanned or [math.nan])
        spanned_attempts = replayer.attempts
        profiled_s = sum(replayer.once(replay_profile) or [math.nan])

    values = dict(spans.values)
    chunks = values.pop("api.batch_chunks", 0)
    values["api.batch_width_mean"] = (
        values.get("api.tasks_batch", 0) / chunks if chunks else 0.0)
    for protocol in workloads.PROTOCOLS:
        attempts = values.get(f"mac.attempts.{protocol}", 0)
        replay_s = values.get(f"mac.replay_s.{protocol}", 0.0)
        values[f"mac.us_per_attempt.{protocol}"] = (
            1e6 * replay_s / attempts if attempts else 0.0)
    setup_modules, _ = layers.module_profile(setup_profile)
    replay_modules, replay_self_s = layers.module_profile(replay_profile)
    values.update(replay_modules)
    for name in SETUP_MODULE_METRICS:
        values[name] = setup_modules.get(name, 0.0)
    values["trace_overhead"] = spanned_s / plain_s
    values["profile_overhead"] = profiled_s / plain_s

    problems = []
    if replay_self_s > profiled_s:
        problems.append(f"profiled self time {replay_self_s:.3f} s exceeds "
                        f"the profiled replay's {profiled_s:.3f} s")
    layer_attempts = sum(value for name, value in values.items()
                         if name.startswith(("mac.attempts.",
                                             "net.attempts.")))
    if layer_attempts != spanned_attempts:
        problems.append(f"layer attempts {layer_attempts} != replay "
                        f"attempts {spanned_attempts}")
    return values, replayer, problems


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="replay budget (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or declared["run_seconds"]

    generator_fingerprint()  # lazy, once per process: not set-up time

    workload = workloads.build(args.workload, args.seed)
    reference = (check.load_expected()[args.workload]
                 if args.seed == check.DEFAULT_SEED else None)
    if args.trace:
        values, replayer, problems = measure_layers(workload, reference)
    else:
        values, replayer, problems = measure(workload, reference, seconds)
    for problem in problems:
        print(f"inconsistent trace: {problem}", file=sys.stderr)

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'error_rate':34s} "
          f"{replayer.failed / max(1, replayer.attempted):>16.6g} ratio")
    print(json.dumps({
        "correct": replayer.failed == 0 and not problems,
        "attempted": replayer.attempted,
        "failed": replayer.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
