"""Trace-driven 802.11a link simulator (the paper's modified ns-3 stand-in).

Replays a :class:`~repro.channel.trace.ChannelTrace` under a rate-control
algorithm and a traffic source, with real 802.11a timing: DIFS, backoff,
data airtime at the chosen rate, SIFS, ACK (or ACK timeout), retries with
contention-window doubling, and a retry limit after which the packet is
dropped (which a TCP source experiences as a timeout).

The simulator also feeds the sender side channels the paper grants:

* the receiver's movement hint (via the Hint Protocol), modelled as the
  receiver-side hint series delayed by ``hint_delay_s``; and
* up-to-date receiver SNR for the SNR-based protocols (Section 3.4
  "assumed that the sender has up-to-date knowledge about the receiver
  SNR"), modelled as the previous slot's SNR.

Controllers are duck-typed; :mod:`repro.rate.base` provides the ABC.

Engines
-------
Three replay engines share identical semantics and RNG streams, selected
by ``SimConfig(engine=...)``:

* ``"fast"`` (default) -- the hot path.  Integer-microsecond clock,
  direct indexing into per-slot arrays materialised once per run (fates
  row pointers, SNR series, hint-transition edge list walked by a
  cursor), block-drawn randomness (backoff uniforms, floor-loss
  uniforms, SNR-noise normals refilled 1024 at a time), per-rate airtime
  tables, and a preallocated delivery-time buffer.
* ``"reference"`` -- the readable per-attempt loop, retained as the
  executable specification for equivalence testing.
* ``"batch"`` -- the :mod:`repro.mac.batch` array program that replays
  many links in lockstep (here, a batch of one).  Its reason to exist is
  grid executors -- :class:`repro.api.Session` plans grids onto it
  (``engine="auto"``); per-link results are bit-identical to the other
  engines.

Randomness is split into four independent streams spawned from
``SeedSequence(config.seed)`` -- calibration bias, SNR observation noise,
backoff, floor loss -- so both engines consume the exact same variates
regardless of draw batching (numpy ``Generator`` block draws are
stream-identical to repeated scalar draws).  ``run()`` re-derives the
streams on every call, so a simulator instance replays identically each
time.  The fast engine quantises traffic-source release times to whole
microseconds; both built-in sources only ever return whole microseconds,
so the engines agree exactly on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..channel.rates import N_RATES
from ..channel.trace import ChannelTrace
from ..core.architecture import HintSeries
from ..core.hints import MovementHint
from . import timing
from .traffic import TrafficSource, UdpSource

__all__ = [
    "ENGINES",
    "RateControllerLike",
    "SimConfig",
    "SimResult",
    "LinkSimulator",
    "LinkProcess",
    "run_link",
]

#: Replay engines accepted by :attr:`SimConfig.engine`.
ENGINES = ("fast", "reference", "batch")

#: Block size for the fast engine's batched RNG refills.
_RNG_BLOCK = 1024

_INF = float("inf")


@runtime_checkable
class RateControllerLike(Protocol):
    """Structural interface the simulator needs from a controller."""

    def choose_rate(self, now_ms: float) -> int: ...

    def on_result(self, rate_index: int, success: bool, now_ms: float) -> None: ...

    def observe_snr(self, snr_db: float, now_ms: float) -> None: ...

    def on_hint(self, hint: MovementHint) -> None: ...


@dataclass(frozen=True)
class SimConfig:
    """Knobs of the link simulator."""

    payload_bytes: int = 1000
    retry_limit: int = 7
    #: Sender-side hint latency: detector latency lives in the hint
    #: series itself; this adds Hint Protocol delivery delay.
    hint_delay_s: float = 0.02
    #: Give the controller the previous slot's receiver SNR each attempt.
    snr_feedback: bool = True
    #: Per-frame SNR measurement noise (dB std).  Real chipset RSSI is
    #: quantised and noisy; this is what CHARM's averaging smooths away
    #: and what makes raw RBAR jittery on a stable channel.
    snr_obs_noise_db: float = 1.5
    #: Per-run systematic SNR calibration error (dB std of a fixed
    #: offset).  A scalar SNR imperfectly predicts PER under
    #: frequency-selective fading, so even an environment-trained
    #: SNR->rate mapping is biased by a couple of dB on any given link;
    #: CHARM's adaptive margin partially compensates, RBAR eats it.
    snr_calibration_error_db: float = 1.5
    #: Per-attempt loss floor on top of the trace's per-slot
    #: interference floor: collisions and noise bursts hit individual
    #: transmissions, not whole 5 ms slots.  Isolated attempt losses
    #: are exactly what "aggressively reduces the rate even with a
    #: single loss" (Section 3.5) pays for on a stable channel.
    floor_loss_prob: float = 0.01
    #: Include random backoff (contention-window draw) per attempt.
    use_backoff: bool = True
    #: Driver-level multi-rate retry chain (MadWiFi-style): after this
    #: many failed attempts at the controller's rate, each further retry
    #: steps one rate lower.  0 disables the ladder.
    retry_ladder_after: int = 5
    seed: int = 0
    #: Replay engine: ``"fast"`` (batched hot path) or ``"reference"``
    #: (the per-attempt specification loop).  Results are identical.
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )


@dataclass
class SimResult:
    """Outcome of one replay."""

    duration_s: float
    delivered: int
    dropped: int
    attempts: int
    payload_bytes: int
    rate_attempts: np.ndarray
    rate_successes: np.ndarray
    #: Delivery timestamps (s), for throughput-over-time series.
    delivery_times_s: np.ndarray

    @property
    def packets_offered(self) -> int:
        """Payload packets the MAC finished serving (delivered or dropped).

        A packet still in flight when the trace ends counts as dropped,
        so ``delivered + dropped`` accounts for every packet the traffic
        source released.
        """
        return self.delivered + self.dropped

    @property
    def throughput_mbps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.delivered * self.payload_bytes * 8.0 / self.duration_s / 1e6

    @property
    def loss_rate(self) -> float:
        total = self.packets_offered
        return self.dropped / total if total else 0.0

    @property
    def attempts_per_packet(self) -> float:
        total = self.packets_offered
        return self.attempts / total if total else 0.0

    def throughput_series_mbps(self, bucket_s: float = 1.0) -> np.ndarray:
        """Per-bucket delivered throughput (for Figure 5-1 style plots)."""
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        n_buckets = int(np.ceil(self.duration_s / bucket_s))
        if n_buckets <= 0:
            return np.zeros(0)
        counts = np.zeros(n_buckets)
        times = np.asarray(self.delivery_times_s, dtype=np.float64)
        if times.size:
            idx = np.minimum((times / bucket_s).astype(int), n_buckets - 1)
            np.add.at(counts, idx, 1.0)
        return counts * self.payload_bytes * 8.0 / bucket_s / 1e6


def _airtime_tables(
    payload_bytes: int,
) -> tuple[list, list, int | float, list[int]]:
    """Per-rate airtime tables in whole microseconds (fast-path setup).

    802.11a airtimes are integral; exact floats are kept if a custom
    timing table ever makes them fractional.  Returns
    ``(ok_us, fail_us, slot_time_us, cw_plus1)``.
    """
    def _exact(us: float) -> int | float:
        return int(us) if float(us).is_integer() else us

    ok_us = [_exact(timing.exchange_airtime_us(r, payload_bytes))
             for r in range(N_RATES)]
    fail_us = [_exact(timing.failed_exchange_us(r, payload_bytes))
               for r in range(N_RATES)]
    slot_time_us = _exact(timing.SLOT_TIME_US)
    cw_plus1 = [timing.contention_window(r) + 1 for r in range(16)]
    return ok_us, fail_us, slot_time_us, cw_plus1


def _hint_edges(series: HintSeries) -> tuple[list[float], list[bool]]:
    """Hint-transition edge list: (time, new truth value) pairs.

    Collapses :meth:`HintSeries.edges` to its *boolean* transitions;
    walking this list with a cursor reproduces
    ``bool(HintSeries.value_at(t, default=False))`` for monotonically
    non-decreasing ``t``.
    """
    edge_t: list[float] = []
    edge_v: list[bool] = []
    prev: bool | None = None
    for t, v in series.edges():
        b = bool(v)
        if b != prev:
            edge_t.append(t)
            edge_v.append(b)
            prev = b
    return edge_t, edge_v


def _rng_streams(
    seed: int,
) -> tuple[np.random.Generator, np.random.Generator, np.random.Generator,
           np.random.Generator]:
    """Four independent per-purpose streams for one replay.

    Splitting by purpose (rather than interleaving one stream) is what
    lets the fast engine batch its draws while staying bit-identical to
    the reference loop.
    """
    bias_ss, snr_ss, backoff_ss, floor_ss = np.random.SeedSequence(seed).spawn(4)
    return (
        np.random.default_rng(bias_ss),
        np.random.default_rng(snr_ss),
        np.random.default_rng(backoff_ss),
        np.random.default_rng(floor_ss),
    )


class LinkSimulator:
    """One sender, one receiver, one trace, one controller."""

    def __init__(
        self,
        trace: ChannelTrace,
        controller: RateControllerLike,
        traffic: TrafficSource | None = None,
        hint_series: HintSeries | None = None,
        config: SimConfig | None = None,
    ) -> None:
        self._trace = trace
        self._controller = controller
        self._traffic = traffic if traffic is not None else UdpSource()
        self._hints = hint_series
        self._config = config if config is not None else SimConfig()

    # ------------------------------------------------------------------
    # Shared pieces
    # ------------------------------------------------------------------
    def _draw_bias_db(self, bias_rng: np.random.Generator) -> float:
        cfg = self._config
        if cfg.snr_calibration_error_db > 0:
            return float(
                bias_rng.standard_normal() * cfg.snr_calibration_error_db
            )
        return 0.0

    def _hint_edges(self) -> tuple[list[float], list[bool]]:
        """Boolean hint-transition edge list (see :func:`_hint_edges`)."""
        assert self._hints is not None
        return _hint_edges(self._hints)

    def run(self) -> SimResult:
        if self._config.engine == "reference":
            return self._run_reference()
        if self._config.engine == "batch":
            # A batch of one: same array program the grid executors use.
            from .batch import BatchLinkSpec, run_batch

            return run_batch([BatchLinkSpec(
                trace=self._trace,
                controller=self._controller,
                traffic=self._traffic,
                hint_series=self._hints,
                config=self._config,
            )])[0]
        return self._run_fast()

    # ------------------------------------------------------------------
    # Reference engine: the executable specification
    # ------------------------------------------------------------------
    def _run_reference(self) -> SimResult:
        cfg = self._config
        trace = self._trace
        bias_rng, snr_rng, backoff_rng, floor_rng = _rng_streams(cfg.seed)
        snr_bias_db = self._draw_bias_db(bias_rng)
        duration_us = trace.duration_s * 1e6
        t_us = 0.0
        delivered = 0
        dropped = 0
        attempts_total = 0
        rate_attempts = np.zeros(N_RATES, dtype=np.int64)
        rate_successes = np.zeros(N_RATES, dtype=np.int64)
        delivery_times: list[float] = []
        last_hint: bool | None = None

        while t_us < duration_us:
            send_at = self._traffic.next_send_time_us(t_us)
            if send_at > t_us:
                if send_at >= duration_us or send_at == _INF:
                    break
                t_us = send_at
                continue

            # Serve one payload packet: attempts until ACK or retry limit.
            retries = 0
            while True:
                now_s = t_us / 1e6
                now_ms = t_us / 1e3

                if self._hints is not None:
                    hinted = bool(
                        self._hints.value_at(now_s - cfg.hint_delay_s, default=False)
                    )
                    if hinted != last_hint:
                        self._controller.on_hint(
                            MovementHint(time_s=now_s, moving=hinted)
                        )
                        last_hint = hinted

                if cfg.snr_feedback:
                    prev_slot_t = max(0.0, now_s - trace.slot_s)
                    observed = trace.snr_at(prev_slot_t) + snr_bias_db
                    if cfg.snr_obs_noise_db > 0:
                        observed += cfg.snr_obs_noise_db * snr_rng.standard_normal()
                    self._controller.observe_snr(observed, now_ms)

                rate = int(self._controller.choose_rate(now_ms))
                if not 0 <= rate < N_RATES:
                    raise ValueError(f"controller chose invalid rate {rate}")
                if cfg.retry_ladder_after > 0 and retries > cfg.retry_ladder_after:
                    # Driver retry chain: step below the chosen rate once
                    # the configured attempts are exhausted.
                    rate = max(0, rate - (retries - cfg.retry_ladder_after))

                if cfg.use_backoff:
                    cw = timing.contention_window(retries)
                    slots = int(backoff_rng.random() * (cw + 1))
                    t_us += float(slots) * timing.SLOT_TIME_US
                success = trace.fate(t_us / 1e6, rate)
                if success and cfg.floor_loss_prob > 0:
                    success = floor_rng.random() >= cfg.floor_loss_prob
                if success:
                    t_us += timing.exchange_airtime_us(rate, cfg.payload_bytes)
                else:
                    t_us += timing.failed_exchange_us(rate, cfg.payload_bytes)

                attempts_total += 1
                rate_attempts[rate] += 1
                self._controller.on_result(rate, success, t_us / 1e3)

                if success:
                    rate_successes[rate] += 1
                    delivered += 1
                    delivery_times.append(t_us / 1e6)
                    self._traffic.on_delivered(t_us)
                    break
                retries += 1
                if retries > cfg.retry_limit:
                    dropped += 1
                    self._traffic.on_dropped(t_us)
                    break
                if t_us >= duration_us:
                    # Trace ended mid-service: the in-flight packet was
                    # offered but never ACKed, so it counts as dropped
                    # (no traffic timeout -- the run is over).
                    dropped += 1
                    break

        return SimResult(
            duration_s=trace.duration_s,
            delivered=delivered,
            dropped=dropped,
            attempts=attempts_total,
            payload_bytes=cfg.payload_bytes,
            rate_attempts=rate_attempts,
            rate_successes=rate_successes,
            delivery_times_s=np.asarray(delivery_times, dtype=np.float64),
        )

    # ------------------------------------------------------------------
    # Fast engine: the hot path
    # ------------------------------------------------------------------
    def _run_fast(self) -> SimResult:
        cfg = self._config
        trace = self._trace
        controller = self._controller
        traffic = self._traffic
        bias_rng, snr_rng, backoff_rng, floor_rng = _rng_streams(cfg.seed)
        snr_bias_db = self._draw_bias_db(bias_rng)

        # --- Per-slot arrays, materialised once -----------------------
        fate_rows = trace.fates.tolist()        # row pointers: list[list[bool]]
        snr_series = trace.snr_db.tolist()
        slot_s = trace.slot_s
        n_slots = trace.n_slots
        last_slot = n_slots - 1
        duration_us = trace.duration_s * 1e6

        # --- Per-rate airtime tables (whole microseconds) -------------
        ok_us, fail_us, slot_time_us, cw_plus1 = _airtime_tables(
            cfg.payload_bytes)

        # --- Hint edge list + cursor ----------------------------------
        have_hints = self._hints is not None
        if have_hints:
            hint_times, hint_vals = self._hint_edges()
            hint_n = len(hint_times)
        else:
            hint_times, hint_vals, hint_n = [], [], 0
        hint_i = 0
        hint_cur = False                        # value_at default
        hint_delay_s = cfg.hint_delay_s
        last_hint: bool | None = None

        # --- Block-drawn randomness -----------------------------------
        # Buffers hold a reversed block so list.pop() (a C call, no
        # Python frame) yields draws in generator order; popping an
        # empty buffer triggers a refill via IndexError (~1/block).
        backoff_buf: list[float] = []
        floor_buf: list[float] = []
        noise_buf: list[float] = []

        # --- Preallocated result buffers ------------------------------
        delivery_buf = np.empty(4096, dtype=np.float64)
        n_deliv = 0
        rate_attempts = [0] * N_RATES
        rate_successes = [0] * N_RATES

        snr_feedback = cfg.snr_feedback
        noise_db = cfg.snr_obs_noise_db
        floor_p = cfg.floor_loss_prob
        use_backoff = cfg.use_backoff
        ladder_after = cfg.retry_ladder_after
        retry_limit = cfg.retry_limit

        # Bound-method hoists: attribute lookups out of the hot loop.
        next_send_time_us = traffic.next_send_time_us
        on_delivered = traffic.on_delivered
        on_dropped = traffic.on_dropped
        observe_snr = controller.observe_snr
        choose_rate = controller.choose_rate
        on_result = controller.on_result
        on_hint = controller.on_hint

        t = 0                                   # integer microseconds
        delivered = 0
        dropped = 0
        attempts_total = 0

        while t < duration_us:
            send_at = next_send_time_us(t)
            if send_at > t:
                if send_at >= duration_us or send_at == _INF:
                    break
                t = int(send_at)
                continue

            retries = 0
            while True:
                now_s = t / 1e6
                now_ms = t / 1e3

                if have_hints:
                    q = now_s - hint_delay_s
                    while hint_i < hint_n and hint_times[hint_i] <= q:
                        hint_cur = hint_vals[hint_i]
                        hint_i += 1
                    if hint_cur != last_hint:
                        on_hint(MovementHint(time_s=now_s, moving=hint_cur))
                        last_hint = hint_cur

                if snr_feedback:
                    prev_slot_t = now_s - slot_s
                    if prev_slot_t < 0.0:
                        prev_slot_t = 0.0
                    slot = int(prev_slot_t / slot_s)
                    if slot > last_slot:
                        slot = last_slot
                    observed = snr_series[slot] + snr_bias_db
                    if noise_db > 0:
                        try:
                            z = noise_buf.pop()
                        except IndexError:
                            noise_buf = snr_rng.standard_normal(
                                _RNG_BLOCK)[::-1].tolist()
                            z = noise_buf.pop()
                        observed += noise_db * z
                    observe_snr(observed, now_ms)

                rate = int(choose_rate(now_ms))
                if not 0 <= rate < N_RATES:
                    raise ValueError(f"controller chose invalid rate {rate}")
                if 0 < ladder_after < retries:
                    rate = rate - (retries - ladder_after)
                    if rate < 0:
                        rate = 0

                if use_backoff:
                    try:
                        u = backoff_buf.pop()
                    except IndexError:
                        backoff_buf = backoff_rng.random(
                            _RNG_BLOCK)[::-1].tolist()
                        u = backoff_buf.pop()
                    cw1 = cw_plus1[retries if retries < 15 else 15]
                    t += int(u * cw1) * slot_time_us
                slot = int((t / 1e6) / slot_s)
                if slot > last_slot:
                    slot = last_slot
                success = fate_rows[slot][rate]
                if success and floor_p > 0:
                    try:
                        u = floor_buf.pop()
                    except IndexError:
                        floor_buf = floor_rng.random(_RNG_BLOCK)[::-1].tolist()
                        u = floor_buf.pop()
                    success = u >= floor_p
                t += ok_us[rate] if success else fail_us[rate]

                attempts_total += 1
                rate_attempts[rate] += 1
                on_result(rate, success, t / 1e3)

                if success:
                    rate_successes[rate] += 1
                    delivered += 1
                    if n_deliv == len(delivery_buf):
                        delivery_buf = np.concatenate(
                            [delivery_buf, np.empty_like(delivery_buf)]
                        )
                    delivery_buf[n_deliv] = t / 1e6
                    n_deliv += 1
                    on_delivered(t)
                    break
                retries += 1
                if retries > retry_limit:
                    dropped += 1
                    on_dropped(t)
                    break
                if t >= duration_us:
                    # In-flight packet at trace end counts as dropped.
                    dropped += 1
                    break

        return SimResult(
            duration_s=trace.duration_s,
            delivered=delivered,
            dropped=dropped,
            attempts=attempts_total,
            payload_bytes=cfg.payload_bytes,
            rate_attempts=np.asarray(rate_attempts, dtype=np.int64),
            rate_successes=np.asarray(rate_successes, dtype=np.int64),
            delivery_times_s=delivery_buf[:n_deliv].copy(),
        )


class LinkProcess:
    """Resumable single-link replay: the fast engine, one exchange at a time.

    The network simulator (:mod:`repro.network`) interleaves many links
    on a shared medium, so it needs the replay loop *inverted*: instead
    of running a trace to completion, :meth:`step` performs exactly one
    unit of work -- an idle advance to the traffic source's next release
    or one frame-exchange attempt -- and returns control to the caller.

    Semantics and RNG-stream consumption are identical to
    :class:`LinkSimulator`'s engines: a process stepped to completion on
    a free medium (no :meth:`defer_until` calls) produces a
    bit-identical :class:`SimResult`, which is what makes a
    1-station/1-AP network scenario a strict generalisation of the
    single-link simulator (pinned by ``tests/test_network.py``).

    This is deliberately a third copy of the replay semantics (after
    the reference loop and ``_run_fast``): per-attempt stepping costs
    ~30% over ``_run_fast``'s hoisted-locals loop, which would break
    the benchmarked >= 3x single-link speedup if the fast engine were
    implemented as ``LinkProcess.run_to_completion()``.  The
    equivalence tests pin all three copies to each other, so a
    semantics edit that misses one fails the suite rather than
    diverging silently.

    CSMA hooks
    ----------
    * :meth:`next_ready_us` -- the earliest time this station wants the
      medium (``inf`` once the replay is over).  May peek at the traffic
      source; sources must therefore be idempotent for repeated queries
      at the same instant (both built-ins are).
    * :meth:`defer_until` -- carrier sense: another station occupies the
      medium, so this station's clock cannot start an exchange earlier.
    """

    def __init__(
        self,
        trace: ChannelTrace,
        controller: RateControllerLike,
        traffic: TrafficSource | None = None,
        hint_series: HintSeries | None = None,
        config: SimConfig | None = None,
    ) -> None:
        cfg = config if config is not None else SimConfig()
        self._trace = trace
        self._controller = controller
        self._traffic = traffic if traffic is not None else UdpSource()
        self._hints = hint_series
        self._config = cfg

        bias_rng, snr_rng, backoff_rng, floor_rng = _rng_streams(cfg.seed)
        self._snr_rng = snr_rng
        self._backoff_rng = backoff_rng
        self._floor_rng = floor_rng
        if cfg.snr_calibration_error_db > 0:
            self._snr_bias_db = float(
                bias_rng.standard_normal() * cfg.snr_calibration_error_db
            )
        else:
            self._snr_bias_db = 0.0

        # Per-slot arrays and per-rate timing tables (see _run_fast).
        self._fate_rows = trace.fates.tolist()
        self._snr_series = trace.snr_db.tolist()
        self._slot_s = trace.slot_s
        self._last_slot = trace.n_slots - 1
        self._duration_us = trace.duration_s * 1e6

        (self._ok_us, self._fail_us, self._slot_time_us,
         self._cw_plus1) = _airtime_tables(cfg.payload_bytes)

        self._have_hints = hint_series is not None
        if hint_series is not None:
            edge_t, edge_v = _hint_edges(hint_series)
            self._hint_times, self._hint_vals = edge_t, edge_v
        else:
            self._hint_times, self._hint_vals = [], []
        self._hint_n = len(self._hint_times)
        self._hint_i = 0
        self._hint_cur = False
        self._last_hint: bool | None = None

        self._backoff_buf: list[float] = []
        self._floor_buf: list[float] = []
        self._noise_buf: list[float] = []

        self._delivery_buf = np.empty(4096, dtype=np.float64)
        self._n_deliv = 0
        self._rate_attempts = [0] * N_RATES
        self._rate_successes = [0] * N_RATES
        self._delivered = 0
        self._dropped = 0
        self._attempts = 0

        self._t: int | float = 0
        self._serving = False
        self._retries = 0
        self._done = False

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def now_us(self) -> float:
        """The station's local clock (integer microseconds)."""
        return self._t

    def next_ready_us(self) -> float:
        """Earliest time this station wants the medium (inf when over)."""
        if self._done:
            return _INF
        if self._serving:
            if self._t >= self._duration_us:
                self._expire_in_flight()
                return _INF
            return float(self._t)
        t = self._t
        if t >= self._duration_us:
            self._done = True
            return _INF
        send_at = self._traffic.next_send_time_us(t)
        if send_at <= t:
            return float(t)
        if send_at >= self._duration_us or send_at == _INF:
            self._done = True
            return _INF
        return float(send_at)

    def defer_until(self, t_us: float) -> None:
        """Carrier sense: the medium is busy until ``t_us``."""
        if t_us > self._t:
            # Round up: starting mid-microsecond would overlap the
            # tail of the busy exchange if airtimes are fractional.
            busy_until = int(t_us)
            if busy_until < t_us:
                busy_until += 1
            self._t = busy_until

    def defer_and_ready(self, t_us: float) -> float:
        """:meth:`defer_until` fused with :meth:`next_ready_us`.

        The network scheduler's carrier-sense path touches every
        co-cell contender on every exchange; fusing the two calls
        halves its per-station method-call overhead.  Semantics are
        exactly ``defer_until(t_us)`` followed by ``next_ready_us()``.
        """
        t = self._t
        if t_us > t:
            busy_until = int(t_us)
            if busy_until < t_us:
                busy_until += 1
            self._t = t = busy_until
        if self._done:
            return _INF
        if self._serving:
            if t >= self._duration_us:
                self._expire_in_flight()
                return _INF
            return float(t)
        if t >= self._duration_us:
            self._done = True
            return _INF
        send_at = self._traffic.next_send_time_us(t)
        if send_at <= t:
            return float(t)
        if send_at >= self._duration_us or send_at == _INF:
            self._done = True
            return _INF
        return float(send_at)

    def resync_hints(self) -> None:
        """Forget the last delivered hint, re-delivering the current one.

        After a fresh association the controller was reset, so the
        sender-side hint state must be re-learned: the next attempt
        fires ``on_hint`` with the currently hinted value even if the
        series has no new transition.
        """
        self._last_hint = None

    def step(self) -> tuple[float, float, bool] | None:
        """Advance by one unit of work.

        Returns ``(start_us, end_us, success)`` when a frame-exchange
        attempt occupied the medium, or ``None`` for an idle advance /
        end-of-replay bookkeeping.
        """
        if self._done:
            return None
        t = self._t
        if not self._serving:
            if t >= self._duration_us:
                self._done = True
                return None
            send_at = self._traffic.next_send_time_us(t)
            if send_at > t:
                if send_at >= self._duration_us or send_at == _INF:
                    self._done = True
                    return None
                self._t = int(send_at)
                return None
            self._serving = True
            self._retries = 0
        elif t >= self._duration_us:
            # A contender's exchange deferred this station past the end
            # of its trace mid-service: the in-flight packet expires
            # (the trace-end drop rule), it does not transmit into a
            # world that no longer exists.  Unreachable on a free
            # medium, so single-link equivalence is unaffected.
            self._expire_in_flight()
            return None
        return self._attempt()

    def _expire_in_flight(self) -> None:
        """Drop the in-service packet at trace end (no traffic timeout)."""
        self._dropped += 1
        self._serving = False
        self._done = True

    # ------------------------------------------------------------------
    def _attempt(self) -> tuple[float, float, bool]:
        """One frame exchange: the body of the fast engine's inner loop."""
        cfg = self._config
        controller = self._controller
        t = self._t
        start = t
        now_s = t / 1e6
        now_ms = t / 1e3

        # Guarded like the engines (series present, even if edgeless):
        # an empty series still delivers the initial False once.
        if self._have_hints:
            q = now_s - cfg.hint_delay_s
            while self._hint_i < self._hint_n and \
                    self._hint_times[self._hint_i] <= q:
                self._hint_cur = self._hint_vals[self._hint_i]
                self._hint_i += 1
            if self._hint_cur != self._last_hint:
                controller.on_hint(MovementHint(time_s=now_s, moving=self._hint_cur))
                self._last_hint = self._hint_cur

        if cfg.snr_feedback:
            prev_slot_t = now_s - self._slot_s
            if prev_slot_t < 0.0:
                prev_slot_t = 0.0
            slot = int(prev_slot_t / self._slot_s)
            if slot > self._last_slot:
                slot = self._last_slot
            observed = self._snr_series[slot] + self._snr_bias_db
            if cfg.snr_obs_noise_db > 0:
                try:
                    z = self._noise_buf.pop()
                except IndexError:
                    self._noise_buf = self._snr_rng.standard_normal(
                        _RNG_BLOCK)[::-1].tolist()
                    z = self._noise_buf.pop()
                observed += cfg.snr_obs_noise_db * z
            controller.observe_snr(observed, now_ms)

        rate = int(controller.choose_rate(now_ms))
        if not 0 <= rate < N_RATES:
            raise ValueError(f"controller chose invalid rate {rate}")
        retries = self._retries
        if 0 < cfg.retry_ladder_after < retries:
            rate = rate - (retries - cfg.retry_ladder_after)
            if rate < 0:
                rate = 0

        if cfg.use_backoff:
            try:
                u = self._backoff_buf.pop()
            except IndexError:
                self._backoff_buf = self._backoff_rng.random(
                    _RNG_BLOCK)[::-1].tolist()
                u = self._backoff_buf.pop()
            cw1 = self._cw_plus1[retries if retries < 15 else 15]
            t += int(u * cw1) * self._slot_time_us
        slot = int((t / 1e6) / self._slot_s)
        if slot > self._last_slot:
            slot = self._last_slot
        success = self._fate_rows[slot][rate]
        if success and cfg.floor_loss_prob > 0:
            try:
                u = self._floor_buf.pop()
            except IndexError:
                self._floor_buf = self._floor_rng.random(
                    _RNG_BLOCK)[::-1].tolist()
                u = self._floor_buf.pop()
            success = u >= cfg.floor_loss_prob
        t += self._ok_us[rate] if success else self._fail_us[rate]
        self._t = t

        self._attempts += 1
        self._rate_attempts[rate] += 1
        controller.on_result(rate, success, t / 1e3)

        if success:
            self._rate_successes[rate] += 1
            self._delivered += 1
            if self._n_deliv == len(self._delivery_buf):
                self._delivery_buf = np.concatenate(
                    [self._delivery_buf, np.empty_like(self._delivery_buf)]
                )
            self._delivery_buf[self._n_deliv] = t / 1e6
            self._n_deliv += 1
            self._traffic.on_delivered(t)
            self._serving = False
        else:
            retries += 1
            self._retries = retries
            if retries > cfg.retry_limit:
                self._dropped += 1
                self._traffic.on_dropped(t)
                self._serving = False
            elif t >= self._duration_us:
                # In-flight packet at trace end counts as dropped.
                self._expire_in_flight()
        return (start, t, success)

    def run_to_completion(self) -> SimResult:
        """Drain the process on a free medium (== ``LinkSimulator.run``)."""
        while not self._done:
            self.step()
        return self.result()

    def result(self) -> SimResult:
        """Snapshot of the replay outcome (complete once :attr:`done`)."""
        return SimResult(
            duration_s=self._trace.duration_s,
            delivered=self._delivered,
            dropped=self._dropped,
            attempts=self._attempts,
            payload_bytes=self._config.payload_bytes,
            rate_attempts=np.asarray(self._rate_attempts, dtype=np.int64),
            rate_successes=np.asarray(self._rate_successes, dtype=np.int64),
            delivery_times_s=self._delivery_buf[: self._n_deliv].copy(),
        )


def run_link(
    trace: ChannelTrace,
    controller: RateControllerLike,
    traffic: TrafficSource | None = None,
    hint_series: HintSeries | None = None,
    config: SimConfig | None = None,
) -> SimResult:
    """Convenience wrapper: build and run a :class:`LinkSimulator`."""
    return LinkSimulator(trace, controller, traffic, hint_series, config).run()
