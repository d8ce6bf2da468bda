"""Shared machinery for the per-figure experiment drivers.

Every driver is a pure function of (seed, parameters) returning a plain
dict of rows/series -- what the paper's corresponding figure or table
displays -- plus a ``main()`` that prints it.  Heavy intermediates
(traces, hint series) are memoised at two levels: an in-process
``lru_cache`` for the figures of one run, layered over the on-disk
content-addressed :mod:`repro.channel.store`, which repeated runs and
:class:`repro.api.Session` worker processes share instead of
regenerating traces per process.
"""

from __future__ import annotations

import hashlib
import inspect
from functools import lru_cache

import numpy as np

from ..channel import ChannelTrace, Environment, environment_by_name, generate_trace, get_store
from ..core.architecture import HintAwareNode, HintSeries
from ..mac import SimConfig, TcpSource, UdpSource, run_link
from ..rate import RATE_PROTOCOLS, SampleRate
from ..sensors import (
    MotionScript,
    drive_by_script,
    mixed_mobility_script,
    pacing_script,
    stationary_script,
)

__all__ = [
    "RATE_PROTOCOLS",
    "script_for_mode",
    "cached_trace",
    "cached_hints",
    "cached_script_trace",
    "cached_script_hints",
    "protocol_throughput",
    "best_samplerate_throughput",
    "print_table",
]

#: The evaluation's three indoor/outdoor environments (Figure 3-5).
INDOOR_OUTDOOR_ENVS = ("office", "hallway", "outdoor")

# RATE_PROTOCOLS is re-exported from repro.rate, where the registry
# lives; drivers keep importing it from here.

#: SampleRate windows tried per trace for the paper's post-facto best (s).
SAMPLERATE_WINDOWS_S = (2.0, 5.0, 10.0)


def script_for_mode(mode: str, seed: int = 0, duration_s: float = 20.0) -> MotionScript:
    """The motion script for an experiment mode.

    ``mixed`` alternates which half moves, like the paper ("static for
    the first 10 seconds and mobile for the next 10 seconds or the
    vice versa").
    """
    if mode == "static":
        return stationary_script(duration_s)
    if mode == "mobile":
        return pacing_script(duration_s)
    if mode == "mixed":
        return mixed_mobility_script(duration_s, mobile_first=bool(seed % 2))
    if mode == "vehicular":
        rng = np.random.default_rng(seed)
        # 8-72 km/h drive-bys past the roadside sender (Figure 3-4).
        speed = float(rng.uniform(2.2, 20.0))
        return drive_by_script(passes=2, pass_duration_s=duration_s / 2.0,
                               speed_mps=speed)
    raise ValueError(f"unknown mode {mode!r}")


@lru_cache(maxsize=1)
def _script_salt() -> str:
    """Digest of :func:`script_for_mode`'s source.

    The motion script shapes trace content but lives outside the
    packages :func:`repro.channel.store.generator_fingerprint` hashes,
    so it is folded into the store keys separately: editing the script
    recipe orphans cached traces instead of silently serving stale
    physics.
    """
    try:
        blob = inspect.getsource(script_for_mode).encode()
    except (OSError, TypeError):
        # No source on disk (frozen app, REPL-defined override): the
        # bytecode + constants still identify the recipe deterministically.
        code = script_for_mode.__code__
        blob = code.co_code + repr(code.co_consts).encode()
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


@lru_cache(maxsize=256)
def cached_trace(env_name: str, mode: str, seed: int,
                 duration_s: float = 20.0) -> ChannelTrace:
    """Memoised trace generation (figures share trace sets).

    Backed by the on-disk trace store: a trace generated once -- by any
    process on this machine -- is loaded from ``.npz`` thereafter.  The
    round-trip is exact, so cached and fresh traces replay identically.
    """
    store = get_store()
    key = store.key("trace", env=env_name, mode=mode, seed=seed,
                    duration_s=duration_s, script=_script_salt())
    trace = store.get_trace(key)
    if trace is not None:
        return trace
    env = environment_by_name(env_name)
    script = script_for_mode(mode, seed, duration_s)
    trace = generate_trace(env, script, seed=seed)
    store.put_trace(key, trace)
    return trace


@lru_cache(maxsize=256)
def cached_hints(mode: str, seed: int, duration_s: float = 20.0) -> HintSeries:
    """Memoised receiver-side movement-hint series for a mode/seed.

    Store-backed like :func:`cached_trace`: the accelerometer synthesis
    and jerk detection run at most once per (mode, seed, duration).
    """
    store = get_store()
    key = store.key("hints", mode=mode, seed=seed, duration_s=duration_s,
                    script=_script_salt())
    stored = store.get_series(key)
    if stored is not None:
        times_s, values = stored
        return HintSeries(times_s=times_s, values=values)
    script = script_for_mode(mode, seed, duration_s)
    node = HintAwareNode(script, seed=seed)
    series = node.movement_hint_series()
    store.put_series(key, series.times_s, series.values)
    return series


@lru_cache(maxsize=64)
def cached_script_trace(env_name: str, segments: tuple, seed: int) -> ChannelTrace:
    """Memoised trace for an explicit plain-value motion script.

    The content-addressed twin of :func:`cached_trace` for workloads
    outside the four evaluation modes (``repro.api`` specs carrying
    ``segments``): the store key covers the segments themselves, so no
    script salt is needed -- the recipe *is* the key.
    """
    from ..sensors import script_from_segments

    store = get_store()
    key = store.key("trace", env=env_name, segments=segments, seed=seed)
    trace = store.get_trace(key)
    if trace is not None:
        return trace
    env = environment_by_name(env_name)
    trace = generate_trace(env, script_from_segments(segments), seed=seed)
    store.put_trace(key, trace)
    return trace


@lru_cache(maxsize=64)
def cached_script_hints(segments: tuple, seed: int) -> HintSeries:
    """Movement-hint series for an explicit plain-value motion script
    (the :func:`cached_hints` twin of :func:`cached_script_trace`)."""
    from ..sensors import script_from_segments

    store = get_store()
    key = store.key("hints", segments=segments, seed=seed)
    stored = store.get_series(key)
    if stored is not None:
        times_s, values = stored
        return HintSeries(times_s=times_s, values=values)
    node = HintAwareNode(script_from_segments(segments), seed=seed)
    series = node.movement_hint_series()
    store.put_series(key, series.times_s, series.values)
    return series


def protocol_throughput(
    protocol: str,
    env_name: str,
    mode: str,
    seed: int,
    duration_s: float = 20.0,
    tcp: bool = True,
) -> float:
    """Throughput (Mb/s) of one protocol on one trace."""
    trace = cached_trace(env_name, mode, seed, duration_s)
    hints = cached_hints(mode, seed, duration_s)
    controller = RATE_PROTOCOLS[protocol](seed)
    traffic = TcpSource() if tcp else UdpSource()
    result = run_link(trace, controller, traffic=traffic,
                      hint_series=hints, config=SimConfig(seed=seed))
    return result.throughput_mbps


def best_samplerate_throughput(env_name: str, mode: str, seed: int,
                               duration_s: float = 20.0,
                               tcp: bool = True) -> float:
    """The paper's bias in SampleRate's favour: best window per trace.

    "We post-process the trace to determine the best SampleRate
    parameter to use in each case."
    """
    trace = cached_trace(env_name, mode, seed, duration_s)
    hints = cached_hints(mode, seed, duration_s)
    best = 0.0
    for window_s in SAMPLERATE_WINDOWS_S:
        controller = SampleRate(window_s=window_s)
        traffic = TcpSource() if tcp else UdpSource()
        result = run_link(trace, controller, traffic=traffic,
                          hint_series=hints, config=SimConfig(seed=seed))
        best = max(best, result.throughput_mbps)
    return best


def print_table(title: str, rows: dict, value_format: str = "{:.3f}") -> None:
    """Uniform experiment output: one labelled row per entry."""
    print(f"== {title} ==")
    for key, value in rows.items():
        if isinstance(value, dict):
            cells = "  ".join(
                f"{k}={value_format.format(v) if isinstance(v, float) else v}"
                for k, v in value.items()
            )
            print(f"  {key:24s} {cells}")
        elif isinstance(value, float):
            print(f"  {key:24s} {value_format.format(value)}")
        else:
            print(f"  {key:24s} {value}")
