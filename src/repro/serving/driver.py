"""Deterministic load generation against a prediction server.

A :class:`LoadDriver` plays a population of clients against a
:class:`~repro.serving.server.PredictionServer` on a simulated-time tick
grid, reusing the arrival-process idioms of
:mod:`repro.workload.loadgen` (seeded exponential inter-arrival draws):

* **open loop** (:class:`OpenLoop`) — submissions arrive by a Poisson
  process, indifferent to responses.  The honest way to overload a
  server: arrivals do not slow down when the queue grows.  The rate is
  either a constant or any
  :class:`~repro.serving.schedules.RateSchedule` (diurnal waves, flash
  crowds, explicit segments), realised as a non-homogeneous Poisson
  process by seeded Lewis–Shedler thinning.
* **closed loop** (:class:`ClosedLoop`) — each client keeps exactly one
  request in flight: submit, wait for the response, think, submit
  again.  Shed clients back off by the server's ``retry_after`` advice.

Both drivers draw their requests from one seeded generator: one
arrival function, one model picker and one ``model_weights`` parser.

Every run is bit-reproducible from a seed: arrival draws, model choice
and the server's own sampling all flow from seeded generators, and time
is simulated throughout.  Wall-clock time is measured only as an
*observation* (for throughput reporting); it never feeds back into the
schedule.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serving.columnar import RequestBatch
from repro.serving.protocol import PredictRequest, Response
from repro.serving.schedules import RateSchedule
from repro.util.rng import as_generator
from repro.util.validation import check_nonnegative, check_positive

__all__ = ["OpenLoop", "ClosedLoop", "DriveReport", "LoadDriver", "ColumnarLoadDriver"]


@dataclass(frozen=True)
class OpenLoop:
    """Poisson arrivals attributed round-robin to ``clients`` identities.

    ``rate`` is either a constant (requests per simulated second — the
    draw sequence is bit-identical to the original constant-rate
    driver) or a :class:`~repro.serving.schedules.RateSchedule`, whose
    time axis is relative to the drive start.
    """

    rate: float | RateSchedule
    clients: int = 8

    def __post_init__(self) -> None:
        if not isinstance(self.rate, RateSchedule):
            check_positive(self.rate, "rate")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")


@dataclass(frozen=True)
class ClosedLoop:
    """``clients`` concurrent clients, one request in flight each,
    ``think_time`` simulated seconds between response and resubmit."""

    clients: int
    think_time: float = 0.0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        check_nonnegative(self.think_time, "think_time")


@dataclass
class DriveReport:
    """What a drive produced, summarised for gates and tables.

    ``responses`` holds every typed response in completion order;
    the count/latency fields are derived once at the end of the run.
    """

    responses: list = field(default_factory=list)
    submitted: int = 0
    ok: int = 0
    shed: int = 0
    errors: int = 0
    shed_reasons: dict = field(default_factory=dict)
    qualities: dict = field(default_factory=dict)
    sim_duration: float = 0.0
    wall_seconds: float = 0.0
    latency_p50: float = float("nan")
    latency_p99: float = float("nan")
    latency_max: float = float("nan")
    #: Delivery-accounting violations, tracked by the columnar driver:
    #: a drive is lossless iff both stay zero.
    duplicates: int = 0
    lost: int = 0

    @property
    def qps_sim(self) -> float:
        """Answered requests per simulated second."""
        return self.ok / self.sim_duration if self.sim_duration > 0 else 0.0

    @property
    def qps_wall(self) -> float:
        """Answered requests per wall-clock second (engine throughput)."""
        return self.ok / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def summary(self) -> str:
        """One paragraph a human can read after a drive."""
        shed = ", ".join(f"{k}={v}" for k, v in sorted(self.shed_reasons.items())) or "none"
        qual = ", ".join(f"{k}={v}" for k, v in sorted(self.qualities.items())) or "none"
        return (
            f"submitted={self.submitted} ok={self.ok} shed={self.shed} errors={self.errors}\n"
            f"shed reasons: {shed}\n"
            f"answer quality: {qual}\n"
            f"sim latency p50={self.latency_p50:.3f} s  p99={self.latency_p99:.3f} s  "
            f"max={self.latency_max:.3f} s\n"
            f"throughput: {self.qps_sim:.1f} q/s simulated, {self.qps_wall:.1f} q/s wall"
        )


def latency_summary(latencies) -> tuple[float, float, float]:
    """``(p50, p99, max)`` of answered latencies; NaNs when there are none.

    The rule every drive report and scenario uses: sorted values at
    index ``n // 2`` and ``min(n - 1, int(0.99 * n))``, and the last.
    """
    lat = np.sort(np.asarray(latencies, dtype=float))
    n = lat.size
    if n == 0:
        return float("nan"), float("nan"), float("nan")
    return float(lat[n // 2]), float(lat[min(n - 1, int(0.99 * n))]), float(lat[-1])


class _RequestSource:
    """The seeded request generator both load drivers share.

    Checks and holds the drive's bounds and deadline; one generator
    draws the arrival instants, then the model codes.  ``rate`` is a
    constant, a :class:`~repro.serving.schedules.RateSchedule`, or
    ``None`` for a closed loop.
    """

    #: Constant-rate arrival gaps drawn per vectorised chunk.
    ARRIVAL_CHUNK = 1 << 16

    def __init__(
        self, server, models, rate, max_requests, duration, deadline, rng, model_weights
    ):
        if not models:
            raise ValueError("models must be non-empty")
        if max_requests is None and duration is None:
            raise ValueError("need max_requests and/or duration to bound the drive")
        if deadline is not None:
            check_positive(deadline, "deadline")
        self.server = server
        self.models = list(models)
        self.rate = rate
        self.max_requests = max_requests
        self.duration = duration
        self.deadline = deadline
        self._rng = as_generator(rng)
        self._cum_weights = None
        if model_weights is not None:
            unknown = set(model_weights) - set(self.models)
            if unknown:
                raise ValueError(
                    f"model_weights name unknown models {sorted(unknown)}; "
                    f"drive models: {self.models}"
                )
            raw = np.array([float(model_weights.get(m, 0.0)) for m in self.models])
            if np.any(raw < 0.0) or raw.sum() <= 0.0:
                raise ValueError("model_weights must be non-negative with a positive sum")
            self._cum_weights = np.cumsum(raw / raw.sum())

    def _model_codes(self, size: int | None = None):
        """Seeded model codes: one (``size=None``) or an array of ``size``.

        Uniform by default, else by inverse CDF over ``model_weights``.
        """
        n = len(self.models)
        if self._cum_weights is None:
            return self._rng.integers(n, size=size)
        idx = np.searchsorted(self._cum_weights, self._rng.random(size), side="right")
        return np.minimum(idx, n - 1)

    def _arrival_times(self, start: float) -> np.ndarray:
        """Seeded open-loop arrival instants, in order.

        A constant rate draws exponential gaps in vectorised chunks and
        sums them in sequence from ``start``; a chunk that crosses the
        horizon is redrawn from a snapshot of the generator up to the
        first gap past it, so the instants and the generator state left
        behind equal a one-gap-at-a-time loop bit for bit.  A
        :class:`~repro.serving.schedules.RateSchedule` is realised by
        Lewis–Shedler thinning: candidates arrive at the schedule's
        ``max_rate`` and each survives with probability
        ``rate_at(t) / max_rate`` — an exact non-homogeneous Poisson
        process, still bit-reproducible from the seed.
        """
        horizon = start + (self.duration if self.duration is not None else float("inf"))
        budget = self.max_requests if self.max_requests is not None else float("inf")
        rng = self._rng
        if isinstance(self.rate, RateSchedule):
            schedule, lam_max = self.rate, self.rate.max_rate
            out: list[float] = []
            t = start
            while len(out) < budget:
                t += float(rng.exponential(1.0 / lam_max))
                if t > horizon:
                    break
                if float(rng.random()) * lam_max <= schedule.rate_at(t - start):
                    out.append(t)
            return np.array(out, dtype=float)
        scale = 1.0 / self.rate
        parts = [np.empty(0)]
        t, total = start, 0
        while total < budget:
            m = int(min(self.ARRIVAL_CHUNK, budget - total))
            state = rng.bit_generator.state
            seg = np.cumsum(np.concatenate(([t], rng.exponential(scale, size=m))))[1:]
            if seg[-1] > horizon:
                cut = int(np.searchsorted(seg, horizon, side="right"))
                rng.bit_generator.state = state
                rng.exponential(scale, size=cut + 1)
                parts.append(seg[:cut])
                break
            parts.append(seg)
            total += m
            t = float(seg[-1])
        return np.concatenate(parts)


class LoadDriver(_RequestSource):
    """Drives seeded client load through a server's event loop.

    Requests come from the generator it shares with
    :class:`ColumnarLoadDriver`: open-loop arrival instants are drawn up
    front, and each submission then picks its model from the same
    generator.

    Parameters
    ----------
    server:
        The service under test — a
        :class:`~repro.serving.server.PredictionServer` or anything
        sharing its ``submit`` / ``step`` / ``now`` / ``queue_depth`` /
        ``models`` surface, such as a
        :class:`~repro.serving.cluster.ServingCluster`.
    models:
        Model names requests draw from (uniformly, seeded).
    workload:
        An :class:`OpenLoop` or :class:`ClosedLoop` arrival process.
    max_requests:
        Stop submitting after this many requests.
    duration:
        Stop submitting after this much simulated time (the drive then
        drains in-flight work before returning).
    deadline:
        Relative per-request deadline in simulated seconds; ``None``
        submits requests that wait forever.
    tick:
        Event-loop step size in simulated seconds.
    rng:
        Seed for arrival draws and model choice.
    model_weights:
        Optional traffic skew: map of model name to relative weight
        (unlisted models get zero traffic).  ``None`` (default) keeps
        the original uniform seeded choice, draw-for-draw.  This is how
        the scenario suite builds *hot-key* workloads where one shard
        soaks most of the offered load.
    precision:
        Optional :class:`~repro.structural.repeaters.PrecisionTarget`
        stamped on every submitted request — the adaptive-sampling
        workload.  ``None`` (default) submits fixed-budget requests,
        draw-for-draw identical to earlier drivers.
    """

    #: Hard cap on drain time after submissions stop, in ticks.
    DRAIN_TICKS = 200_000

    def __init__(
        self,
        server,
        models: list[str],
        workload,
        *,
        max_requests: int | None = None,
        duration: float | None = None,
        deadline: float | None = None,
        tick: float = 0.05,
        rng=None,
        model_weights: dict | None = None,
        precision=None,
    ):
        if not isinstance(workload, (OpenLoop, ClosedLoop)):
            raise TypeError(f"workload must be OpenLoop or ClosedLoop, got {workload!r}")
        check_positive(tick, "tick")
        rate = workload.rate if isinstance(workload, OpenLoop) else None
        super().__init__(
            server, models, rate, max_requests, duration, deadline, rng, model_weights
        )
        self.workload = workload
        self.precision = precision
        self.tick = tick

    def run(self) -> DriveReport:
        """Play the workload to completion and summarise it."""
        server = self.server
        report = DriveReport()
        start = server.now
        self._start = start
        wall0 = time.perf_counter()

        # (due_time, seq, client) submission events: sorted, so already a heap.
        if isinstance(self.workload, ClosedLoop):
            due = [start] * self.workload.clients
        else:
            due = self._arrival_times(start).tolist()
        clients = self.workload.clients
        events = [(t, seq, f"client-{seq % clients}") for seq, t in enumerate(due)]
        seq = len(events)

        in_flight = 0
        next_id = 0
        now = start
        ticks_after_stop = 0

        def record(resp: Response) -> None:
            nonlocal in_flight, seq
            in_flight -= 1
            report.responses.append(resp)
            if resp.status == "ok":
                report.ok += 1
                report.qualities[resp.quality] = report.qualities.get(resp.quality, 0) + 1
            elif resp.status == "overloaded":
                report.shed += 1
                report.shed_reasons[resp.reason] = report.shed_reasons.get(resp.reason, 0) + 1
            else:
                report.errors += 1
            if isinstance(self.workload, ClosedLoop) and self._submitting(report):
                backoff = resp.retry_after if resp.status == "overloaded" else 0.0
                due = max(now, resp.completed) + self.workload.think_time + backoff
                heapq.heappush(events, (due, seq, resp.client_id))
                seq += 1

        while True:
            now += self.tick
            # Submissions due this tick (skipped once the budget is spent).
            while events and events[0][0] <= now and self._submitting(report):
                due, _, client = heapq.heappop(events)
                submitted = max(due, server.now)
                req = PredictRequest(
                    request_id=next_id,
                    client_id=client,
                    model=self.models[int(self._model_codes())],
                    submitted=submitted,
                    deadline=None if self.deadline is None else submitted + self.deadline,
                    precision=self.precision,
                )
                next_id += 1
                report.submitted += 1
                in_flight += 1
                immediate = server.submit(req)
                if immediate is not None:
                    record(immediate)
            for resp in server.step(now):
                record(resp)
            if not self._submitting(report) or not events:
                if in_flight == 0 and server.queue_depth == 0:
                    break
                ticks_after_stop += 1
                if ticks_after_stop > self.DRAIN_TICKS:  # pragma: no cover - safety valve
                    break

        report.sim_duration = now - start
        report.wall_seconds = time.perf_counter() - wall0
        report.latency_p50, report.latency_p99, report.latency_max = latency_summary(
            [r.latency for r in report.responses if r.status == "ok"]
        )
        return report

    def _submitting(self, report: DriveReport) -> bool:
        """True while the submission budget (count and time) remains."""
        if self.max_requests is not None and report.submitted >= self.max_requests:
            return False
        if self.duration is not None and self.server.now > self._start + self.duration:
            return False
        return True


class ColumnarLoadDriver(_RequestSource):
    """Open-loop load through the columnar ``submit_batch`` surface.

    The array-native twin of :class:`LoadDriver`, built for soak runs
    of a million-plus requests where the scalar driver's per-request
    object churn *is* the benchmark noise.  Three things change:

    * The whole drive's arrivals and model codes are drawn up front,
      as arrays, from the same generator :class:`LoadDriver` uses.
    * Requests are built directly as :class:`RequestBatch` columns —
      no :class:`~repro.serving.protocol.PredictRequest` is ever
      materialised on the hot path.  Each simulated ``window`` the
      arrivals that fell due are submitted as one batch and the server
      is stepped once via ``step_batch``.
    * Responses are accounted column-wise (status/reason/quality
      bincounts, latency columns pooled for percentiles), and every
      ``request_id`` is checked off against a bitmap, so the report can
      *prove* the drive was lossless: ``duplicates`` counts ids
      answered twice and ``lost`` counts ids never answered.

    The report's ``responses`` list stays empty — that is the point.
    Works against any server exposing ``submit_batch`` / ``step_batch``
    / ``now`` / ``queue_depth``: a
    :class:`~repro.serving.server.PredictionServer` or a whole
    :class:`~repro.serving.cluster.ServingCluster`.

    Parameters
    ----------
    server, models, max_requests, duration, deadline, rng, model_weights:
        As for :class:`LoadDriver`; ``server`` must expose the columnar
        batch surface.
    rate:
        Constant open-loop arrival rate, requests per simulated second.
    clients:
        Round-robin client-identity population (``client-0`` …).
    window:
        Simulated seconds per drive step.  Coarser than the scalar
        driver's ``tick`` because a whole window of arrivals is one
        batch; it bounds how much simulated time can pass between
        server steps, not answer accuracy.
    progress / progress_every:
        Optional soak-run instrumentation: ``progress(answered,
        wall_seconds)`` is called each time another ``progress_every``
        responses have been accounted (and once at the end), letting a
        benchmark build a wall-QPS step summary from a single run.
    """

    #: Hard cap on drain windows after submissions stop.
    DRAIN_WINDOWS = 200_000

    def __init__(
        self,
        server,
        models: list[str],
        *,
        rate: float,
        clients: int = 8,
        max_requests: int | None = None,
        duration: float | None = None,
        deadline: float | None = None,
        window: float = 0.25,
        rng=None,
        model_weights: dict | None = None,
        progress=None,
        progress_every: int = 100_000,
    ):
        check_positive(rate, "rate")
        check_positive(window, "window")
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if progress_every < 1:
            raise ValueError(f"progress_every must be >= 1, got {progress_every}")
        super().__init__(
            server, models, float(rate), max_requests, duration, deadline, rng, model_weights
        )
        self.clients = clients
        self.window = float(window)
        self.progress = progress
        self.progress_every = int(progress_every)

    def run(self) -> DriveReport:
        """Play the workload to completion and summarise it."""
        server = self.server
        report = DriveReport()
        wall0 = time.perf_counter()
        start = server.now

        times = self._arrival_times(start)
        n = times.shape[0]
        report.submitted = n
        request_id = np.arange(n, dtype=np.int64)
        client = (request_id % self.clients).astype(np.int32)
        clients_table = tuple(f"client-{c}" for c in range(self.clients))
        model = self._model_codes(n).astype(np.int32)
        deadline = (
            np.full(n, float("inf")) if self.deadline is None else times + self.deadline
        )

        seen = np.zeros(n, dtype=bool)
        lat_parts: list[np.ndarray] = []

        def account(rb) -> int:
            m = len(rb)
            if m == 0:
                return 0
            counts = rb.status_counts()
            report.ok += counts["ok"]
            report.shed += counts["overloaded"]
            report.errors += counts["error"]
            for name, c in rb.reason_counts().items():
                report.shed_reasons[name] = report.shed_reasons.get(name, 0) + c
            for name, c in rb.quality_counts().items():
                report.qualities[name] = report.qualities.get(name, 0) + c
            if counts["ok"]:
                lat_parts.append(rb.latency[rb.ok_mask])
            ids = rb.request_id
            report.duplicates += int(np.count_nonzero(seen[ids]))
            seen[ids] = True
            return m

        now = start
        pos = 0
        answered = 0
        next_mark = self.progress_every
        windows_after_stop = 0
        while True:
            now += self.window
            if pos < n:
                j = int(np.searchsorted(times, now, side="right"))
                if j > pos:
                    seg = RequestBatch(
                        request_id=request_id[pos:j],
                        client=client[pos:j],
                        clients=clients_table,
                        model=model[pos:j],
                        models=self.models,
                        submitted=times[pos:j],
                        deadline=deadline[pos:j],
                    )
                    pos = j
                    answered += account(server.submit_batch(seg))
            answered += account(server.step_batch(now))
            if self.progress is not None and answered >= next_mark:
                self.progress(answered, time.perf_counter() - wall0)
                next_mark = (answered // self.progress_every + 1) * self.progress_every
            if pos >= n:
                if answered >= n and server.queue_depth == 0:
                    break
                windows_after_stop += 1
                if windows_after_stop > self.DRAIN_WINDOWS:  # pragma: no cover
                    break

        report.lost = n - int(np.count_nonzero(seen))
        report.sim_duration = now - start
        report.wall_seconds = time.perf_counter() - wall0
        if self.progress is not None and answered:
            self.progress(answered, report.wall_seconds)
        report.latency_p50, report.latency_p99, report.latency_max = latency_summary(
            np.concatenate(lat_parts) if lat_parts else []
        )
        return report
