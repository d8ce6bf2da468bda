"""Chapter 4 experiments: Figures 4-1 through 4-6.

The probing study uses a *weak link* (the delivery probability of even
6 Mb/s probes is well below 1 and moves with the channel): the paper's
plots show 6 Mb/s delivery between ~0.2 and 1.0.  We place the office
link near the low-rate delivery cliff.

* Figure 4-1 -- 1 s-bucket delivery ratio + movement hint over a long
  mixed trace: "motion causes the packet delivery ratio to fluctuate
  from second to second, with many of the jumps exceeding 20%".
* Figures 4-2/4-3 -- mean estimation error vs probing rate over 20
  static and 20 mobile traces; the factor-20 rate gap at 5% error.
* Figures 4-4/4-5 -- estimated delivery over time at 1/5/10 probes/s
  for one representative static and mobile trace.
* Figure 4-6 -- the adaptive prober vs the fixed 1 probe/s baseline
  over a combined static+mobile trace.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..channel import ChannelTrace, OFFICE, generate_trace
from ..core.architecture import HintAwareNode
from ..sensors import (
    Motion,
    MotionScript,
    MotionSegment,
    pacing_script,
    stationary_script,
)
from ..topology import (
    AdaptiveProber,
    DEFAULT_PROBE_RATES_HZ,
    FixedRateProber,
    error_vs_probing_rate,
    min_rate_for_error,
    probing_rate_ratio,
    probe_outcomes,
    run_probing,
    subsampled_estimate,
    actual_delivery_series,
)
from ..api import Session
from .common import print_table

__all__ = [
    "WEAK_LINK_ENV",
    "run_fig4_1",
    "run_fig4_2_4_3",
    "run_fig4_4_4_5",
    "run_fig4_6",
    "main",
]

#: Office link pushed out near the 6 Mb/s delivery cliff (Chapter 4's
#: probing study watches a *fluctuating* low-rate delivery probability).
#: The static channel drifts slowly (quiet office: tens of seconds), so
#: very low probing rates accumulate error even when still -- the
#: paper's static curve rises toward 11% at 0.1 probes/s -- while a
#: walking receiver's body shadowing swings delivery second-to-second.
import dataclasses as _dc

WEAK_LINK_ENV = _dc.replace(
    OFFICE,
    base_distance_m=40.0,
    k_factor=8.0,           # the probe link has a partial line of sight:
                            # delivery tracks body shadowing sharply
    shadow_sigma_db=4.0,
    residual_doppler_hz=0.06,
)


def _combined_script(total_s: float = 140.0) -> MotionScript:
    """Alternating still/walk segments like the Figure 4-1 trace."""
    segments = [MotionSegment(Motion.STATIONARY, 30.0)]
    segments += pacing_script(30.0).segments
    segments.append(MotionSegment(Motion.STATIONARY, 25.0))
    segments += pacing_script(35.0).segments
    if total_s > 120.0:
        segments.append(MotionSegment(Motion.STATIONARY, total_s - 120.0))
    return MotionScript(segments)


def _calibrated_weak_trace(script, seed: int) -> ChannelTrace:
    """Calibrated placement: the link sits a little above the 6 Mb/s
    cliff (the paper's probing links deliver most probes when still,
    and fluctuate once moving).  Distance sets the margin."""
    rng = np.random.default_rng(seed ^ 0xC11FF)
    margin_db = float(rng.uniform(1.5, 4.0))
    env = WEAK_LINK_ENV
    target_snr = 6.0 + margin_db
    distance = 10.0 ** (
        (env.tx_power_dbm - env.noise_floor_dbm - env.pathloss_ref_db - target_snr)
        / (10.0 * env.pathloss_exponent)
    )
    from ..channel.tracegen import TraceGenerator

    generator = TraceGenerator(
        env.with_distance(distance), script, seed=seed, zero_initial_shadow=True
    )
    return generator.generate()


@lru_cache(maxsize=64)
def _weak_trace(mode: str, seed: int, duration_s: float) -> ChannelTrace:
    if mode == "static":
        script = stationary_script(duration_s)
    elif mode == "mobile":
        script = pacing_script(duration_s)
    elif mode == "combined":
        script = _combined_script(duration_s)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return _calibrated_weak_trace(script, seed)


def run_fig4_1(seed: int = 0, duration_s: float = 140.0) -> dict:
    """Delivery ratio (1 s buckets) + movement hint over time."""
    trace = _weak_trace("combined", seed, duration_s)
    script = _combined_script(duration_s)
    hints = HintAwareNode(script, seed=seed).movement_hint_series()
    delivery = trace.delivery_series(rate_index=0, bucket_s=1.0)
    hint_per_s = np.array([
        bool(hints.value_at(t + 0.5)) for t in range(len(delivery))
    ])
    jumps = np.abs(np.diff(delivery))
    moving_pairs = hint_per_s[1:] & hint_per_s[:-1]
    static_pairs = ~hint_per_s[1:] & ~hint_per_s[:-1]
    return {
        "delivery": delivery,
        "hint": hint_per_s,
        "jumps_moving_over_20pct": float((jumps[moving_pairs] > 0.2).mean())
        if moving_pairs.any() else float("nan"),
        "jumps_static_over_20pct": float((jumps[static_pairs] > 0.2).mean())
        if static_pairs.any() else float("nan"),
        "mean_jump_moving": float(jumps[moving_pairs].mean())
        if moving_pairs.any() else float("nan"),
        "mean_jump_static": float(jumps[static_pairs].mean())
        if static_pairs.any() else float("nan"),
    }


def _weak_trace_task(args: tuple[str, int, float]) -> ChannelTrace:
    """Worker: one calibrated weak-link trace (picklable top-level task)."""
    mode, seed, duration_s = args
    return _weak_trace(mode, seed, duration_s)


def run_fig4_2_4_3(
    n_traces: int = 20, duration_s: float = 180.0, seed0: int = 0,
    session: Session | None = None,
) -> dict:
    """Error vs probing rate, static and mobile, plus the rate-gap ratio.

    Trace synthesis (the dominant cost: minutes of fading at 1 ms
    resolution per trace) fans out over :meth:`repro.api.Session.scatter`
    workers.
    """
    if session is None:
        session = Session()
    tasks = [("static", seed0 + i, duration_s) for i in range(n_traces)]
    tasks += [("mobile", seed0 + 1000 + i, duration_s) for i in range(n_traces)]
    traces = session.scatter(_weak_trace_task, tasks)
    static_traces = traces[:n_traces]
    mobile_traces = traces[n_traces:]
    static_points = error_vs_probing_rate(static_traces)
    mobile_points = error_vs_probing_rate(mobile_traces)
    return {
        "probe_rates_hz": list(DEFAULT_PROBE_RATES_HZ),
        "static": static_points,
        "mobile": mobile_points,
        "static_error_at_0.1": static_points[0].mean_error,
        "mobile_error_at_0.5": next(
            p.mean_error for p in mobile_points if p.probe_rate_hz == 0.5
        ),
        "ratio_at_10pct": probing_rate_ratio(static_points, mobile_points, 0.10),
        "ratio_at_5pct": probing_rate_ratio(static_points, mobile_points, 0.05),
        "static_rate_for_5pct": min_rate_for_error(static_points, 0.05),
        "mobile_rate_for_5pct": min_rate_for_error(mobile_points, 0.05),
    }


def run_fig4_4_4_5(seed: int = 0, duration_s: float = 25.0) -> dict:
    """Estimated vs actual delivery over time at 1/5/10 probes/s."""
    out: dict = {}
    for mode in ("static", "mobile"):
        trace = _weak_trace(mode, seed + 7, duration_s)
        outcomes = probe_outcomes(trace)
        actual = actual_delivery_series(outcomes)
        curves = {}
        deviations = {}
        for rate in (1.0, 5.0, 10.0):
            times, estimates = subsampled_estimate(outcomes, rate)
            idx = np.minimum((times * 200.0).astype(int), len(actual) - 1)
            truth = actual[idx]
            mask = ~np.isnan(truth)
            curves[rate] = (times, estimates)
            deviations[rate] = float(
                np.abs(estimates[mask] - truth[mask]).mean()
            )
        out[mode] = {"curves": curves, "mean_abs_dev": deviations,
                     "actual": actual}
    return out


def run_fig4_6(seed: int = 0, duration_s: float = 60.0) -> dict:
    """Adaptive (1<->10 probes/s, 1 s hold) vs fixed 1 probe/s."""
    script = MotionScript(
        [MotionSegment(Motion.STATIONARY, 20.0)]
        + pacing_script(20.0).segments
        + [MotionSegment(Motion.STATIONARY, duration_s - 40.0)]
    )
    trace = _calibrated_weak_trace(script, seed + 3)
    hints = HintAwareNode(script, seed=seed).movement_hint_series()

    adaptive = run_probing(trace, AdaptiveProber(1.0, 10.0, hold_s=1.0), hints)
    fixed = run_probing(trace, FixedRateProber(1.0), hints)
    fast = run_probing(trace, FixedRateProber(10.0), hints)

    def window_error(run, lo_s=20.0, hi_s=41.0):
        """Error during the movement episode (the Figure 4-6 focus:
        the 1/s prober "lags by multiple seconds" exactly there).
        Overall means would be sample-weighted -- the adaptive prober
        collects 10x more samples in the hard period -- so the windowed
        comparison is the apples-to-apples one."""
        mask = ((run.times_s >= lo_s) & (run.times_s < hi_s)
                & ~np.isnan(run.actual) & ~np.isnan(run.estimates))
        if not mask.any():
            return float("nan")
        return float(np.abs(run.estimates[mask] - run.actual[mask]).mean())

    return {
        "adaptive": adaptive,
        "fixed_1hz": fixed,
        "fixed_10hz": fast,
        "hints": hints,
        "adaptive_error": window_error(adaptive),
        "fixed_error": window_error(fixed),
        "fast_error": window_error(fast),
        "adaptive_overall_error": adaptive.mean_abs_error,
        "fixed_overall_error": fixed.mean_abs_error,
        "adaptive_probes_per_s": adaptive.probes_per_s,
        "fixed_probes_per_s": fixed.probes_per_s,
        "fast_probes_per_s": fast.probes_per_s,
    }


def main(seed: int = 0, session: Session | None = None) -> dict:
    fig41 = run_fig4_1(seed)
    print_table("Figure 4-1: delivery fluctuation (1 s buckets)", {
        "P(jump>20% | moving)": fig41["jumps_moving_over_20pct"],
        "P(jump>20% | static)": fig41["jumps_static_over_20pct"],
    })
    fig423 = run_fig4_2_4_3(n_traces=8, duration_s=120.0, seed0=seed,
                            session=session)
    print_table("Figures 4-2/4-3: error vs probing rate", {
        "static error @0.1/s": fig423["static_error_at_0.1"],
        "mobile error @0.5/s": fig423["mobile_error_at_0.5"],
        "rate ratio @5% error": fig423["ratio_at_5pct"] or float("nan"),
        "rate ratio @10% error": fig423["ratio_at_10pct"] or float("nan"),
    })
    fig46 = run_fig4_6(seed)
    print_table("Figure 4-6: adaptive vs 1 probe/s", {
        "adaptive error": fig46["adaptive_error"],
        "1/s error": fig46["fixed_error"],
        "10/s error": fig46["fast_error"],
        "adaptive probes/s": fig46["adaptive_probes_per_s"],
    })
    return {"fig4_1": fig41, "fig4_2_4_3": fig423, "fig4_6": fig46}


if __name__ == "__main__":
    main()
