"""The prediction server: a synchronous-core, event-loop service.

:class:`PredictionServer` is the first component that exercises the
whole NWS -> structural-engine -> scheduler pipeline *as a service*
rather than a script.  It is driven entirely in simulated time, through
one engine with two surfaces:

``submit_batch(batch)`` / ``step_batch(to)``
    The engine.  ``submit_batch`` validates every row of a
    :class:`~repro.serving.columnar.RequestBatch`, runs admission control
    (bounded queue, per-client token bucket) in a few array passes,
    answers malformed or shed rows immediately and queues the rest.
    ``step_batch`` is the event loop: while the server has capacity
    before ``to``, it sheds queued rows whose deadline has passed, forms
    a **batch** of queued rows against the same model, and answers the
    whole batch with one vectorised Monte Carlo evaluation on the
    model's compiled plan (one compile, many queries).  Completed
    answers are returned in completion order as a
    :class:`~repro.serving.columnar.ResponseBatch`.

``submit(request)`` / ``step(to)``
    The per-request protocol, a thin view over the same engine: a
    request is a one-row batch, and stepping returns the answers as
    typed response objects.

Batching works because per-request variation lives entirely in the
*run-time* parameters: every run-time parameter referenced by the model
is treated as sampled, so a batch of K rows draws a K x n_samples block
per parameter and flows through the compiled plan in one array pass —
rows with per-request overrides still share the plan (see
``docs/serving.md``, "One engine").

Capacity is modelled in simulated time: a batch of K requests occupies
the server for ``service_time_base + K * service_time_per_request``
simulated seconds.  When arrivals outpace that, the queue grows, the
admission bound sheds, and deadline-aware shedding drops answers nobody
is waiting for — graceful degradation in the same spirit as the NWS
quality tags every answer carries.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.calib.loop import CalibrationConfig, CalibrationLoop
from repro.core.empirical import EmpiricalValue
from repro.core.stochastic import StochasticValue, as_stochastic
from repro.nws.service import QUALITIES, NetworkWeatherService
from repro.obs.tracer import STAGE_SERVING, STAGE_STRUCTURAL, as_tracer
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.columnar import (
    ADMIT,
    REASONS,
    STATUSES,
    RequestBatch,
    ResponseBatch,
    Tables,
    admit_batch,
)
from repro.serving.forecasts import ForecastCache, SharedRefreshLedger
from repro.serving.metrics import MetricsRegistry
from repro.serving.protocol import (
    DEGRADED_QUEUE_PRESSURE,
    SHED_DEADLINE,
    PrecisionInfo,
    PredictRequest,
    PredictResponse,
    Response,
)
from repro.structural.engine import (
    UnsupportedExpressionError,
    UnsupportedPolicyError,
    compile_expr,
    plan_cache_stats,
)
from repro.structural.expr import EvalPolicy, Expr
from repro.structural.parameters import Bindings
from repro.structural.repeaters import (
    PrecisionTarget,
    SampleBufferPool,
    SequentialProbe,
    chunk_schedule,
)
from repro.util.rng import as_generator
from repro.util.validation import check_positive

__all__ = ["ModelSpec", "ServerConfig", "PredictionServer"]

#: Batch-size histogram bucket bounds.
_BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Staleness-at-answer histogram bucket bounds (seconds).
_STALENESS_BUCKETS = (1.0, 5.0, 15.0, 60.0, 300.0, 1800.0)

#: Draws-per-request histogram bucket bounds (adaptive sampling).
_DRAWS_BUCKETS = (16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0)

#: Columnar status / reason codes (indexes into the protocol tables).
_ST_OVERLOADED = STATUSES.index("overloaded")
_ST_ERROR = STATUSES.index("error")
_RE_DEADLINE = REASONS.index(SHED_DEADLINE)


@dataclass(frozen=True)
class ModelSpec:
    """A servable structural model.

    Attributes
    ----------
    name:
        The handle requests address (``request.model``).
    expression:
        The structural-model expression to evaluate.
    bindings:
        Full parameter environment: compile-time parameters plus
        defaults for every run-time parameter.  Several specs may share
        one expression with different bindings — they share one compiled
        plan, because plans key on the expression, not the bindings.
    resources:
        Map of run-time parameter name to NWS resource name; at service
        time each mapped parameter is rebound to the resource's current
        qualified forecast.  Unmapped run-time parameters keep their
        bound defaults (unless a request overrides them).
    clip:
        Optional per-parameter ``(lo, hi)`` draw bounds (availability
        parameters must stay positive to be divisible).
    policy:
        Evaluation policy for residual stochastic values; ``None`` uses
        the Monte Carlo point policy.
    """

    name: str
    expression: Expr
    bindings: Bindings
    resources: dict = field(default_factory=dict)
    clip: dict | None = None
    policy: EvalPolicy | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("model name must be non-empty")
        runtime = set(self.bindings.runtime_names())
        unknown = set(self.resources) - runtime
        if unknown:
            raise ValueError(
                f"resources map non-runtime parameters {sorted(unknown)}; "
                f"runtime parameters: {sorted(runtime)}"
            )

    @property
    def sampled(self) -> tuple[str, ...]:
        """Run-time parameters referenced by the expression, sorted.

        These are the per-draw axes of the vectorised plan; treating
        *all* of them as sampled (point-valued ones become constant draw
        arrays) keeps the plan-cache key independent of which parameters
        happen to vary at any instant.
        """
        referenced = set(self.expression.params())
        return tuple(n for n in self.bindings.runtime_names() if n in referenced)


@dataclass(frozen=True)
class ServerConfig:
    """Serving knobs.

    Attributes
    ----------
    n_samples:
        Monte Carlo draws per request.
    batch_max:
        Maximum requests answered by one vectorised evaluation.
    service_time_base, service_time_per_request:
        Simulated seconds one evaluation occupies the server:
        ``base + per_request * batch_size``.  This is what creates
        backpressure in simulated time; wall-clock speed is measured
        separately by the benchmark.
    refresh_interval:
        Maximum simulated age of a cached NWS forecast
        (:class:`~repro.serving.forecasts.ForecastCache`).
    admission:
        Queue bound, per-client token-bucket policy, and (optionally)
        the precision-shedding ladder.
    precision:
        Server-wide default
        :class:`~repro.structural.repeaters.PrecisionTarget` applied to
        requests that do not carry their own; ``None`` (default) keeps
        such requests on the fixed ``n_samples`` budget, bit-identical
        to previous releases.
    min_rel_tol:
        Server-side clamp on per-request relative tolerances: a client
        asking for a tighter (smaller) ``rel_tol`` is served at this
        floor instead (and can read the clamped contract back from the
        response's ``precision.requested``).  Per-request ``max_samples``
        is likewise clamped to ``n_samples``.
    calibration:
        Optional :class:`~repro.calib.loop.CalibrationConfig`.  When
        set, every answer carries a full predictive distribution
        (quantile sketch over its Monte Carlo draws) and the server
        runs the online calibration loop: realised outcomes are
        simulated from each model's truth distribution, scored (CRPS,
        PIT, rolling 2σ-coverage), and drifting models are widened by
        the conformal recalibrator — every adjustment tagged on the
        response.  ``None`` (default) is byte-identical to previous
        releases (see ``docs/calibration.md``).
    """

    n_samples: int = 400
    batch_max: int = 64
    service_time_base: float = 0.004
    service_time_per_request: float = 0.001
    refresh_interval: float = 5.0
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    precision: PrecisionTarget | None = None
    min_rel_tol: float = 0.001
    calibration: CalibrationConfig | None = None

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.batch_max < 1:
            raise ValueError(f"batch_max must be >= 1, got {self.batch_max}")
        check_positive(self.service_time_base, "service_time_base")
        check_positive(self.service_time_per_request, "service_time_per_request")
        check_positive(self.refresh_interval, "refresh_interval")
        check_positive(self.min_rel_tol, "min_rel_tol")
        if self.precision is not None and not isinstance(self.precision, PrecisionTarget):
            raise TypeError(
                f"precision must be a PrecisionTarget or None, got {self.precision!r}"
            )
        if self.calibration is not None and not isinstance(
            self.calibration, CalibrationConfig
        ):
            raise TypeError(
                f"calibration must be a CalibrationConfig or None, got {self.calibration!r}"
            )

    def service_time(self, batch_size: int) -> float:
        """Simulated seconds one evaluation of ``batch_size`` occupies."""
        return self.service_time_base + self.service_time_per_request * batch_size

    def adaptive_service_time(self, total_draws: int) -> float:
        """Simulated seconds a chunk-wise adaptive evaluation occupies.

        The per-request term scales with draws actually evaluated
        relative to the fixed budget, so a batch whose requests converge
        early occupies the server for a fraction of the fixed-path time
        — this is what lets precision shedding drain an overloaded
        queue.  At full budget (``total_draws == batch_size *
        n_samples``) it equals :meth:`service_time` exactly.
        """
        return self.service_time_base + (
            self.service_time_per_request * total_draws / self.n_samples
        )

    def drain_rate(self) -> float:
        """Service capacity in requests per simulated second."""
        return self.batch_max / self.service_time(self.batch_max)


def _consulted(shared: dict, overrides) -> tuple[int, float]:
    """Worst quality code and oldest staleness of the forecasts a row used.

    A row consults every shared forecast it does not override; with none
    consulted the answer is ``fresh`` and zero seconds stale.
    """
    used = [f for p, f in shared.items() if p not in overrides]
    quality = max((QUALITIES.index(f.quality) for f in used), default=0)
    return quality, max((f.staleness for f in used), default=0.0)


def _summarise(samples) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row mean, 2σ spread and p95 of a batch's draw clouds.

    ``samples`` is a ``(k, n)`` matrix (fixed budget: axis-1 reductions)
    or a list of rows of differing lengths (adaptive); either way the
    numbers are those of :meth:`EmpiricalValue.to_stochastic` and
    :meth:`EmpiricalValue.quantile` on each row, and a non-finite draw
    fails the batch exactly as :class:`EmpiricalValue` would.
    """
    if isinstance(samples, np.ndarray):
        if not np.isfinite(samples).all():
            raise ValueError("samples must contain only finite values")
        return (
            samples.mean(axis=1),
            2.0 * samples.std(axis=1, ddof=1),
            np.quantile(samples, 0.95, axis=1),
        )
    clouds = [EmpiricalValue(s) for s in samples]
    return (
        np.array([c.mean for c in clouds]),
        np.array([c.spread for c in clouds]),
        np.array([c.quantile(0.95) for c in clouds]),
    )


def _unanswered(
    batch: RequestBatch, workers, status: int, completed, *, reason=0, retry_after=0.0, messages=None
) -> ResponseBatch:
    """Every row of ``batch`` as a shed or error response (scalars or columns).

    ``workers`` is the deployment's worker table: the rows are unattributed.
    """
    n = len(batch)
    z = np.zeros(n)
    return ResponseBatch(
        request_id=batch.request_id,
        client=batch.client,
        clients=batch.clients,
        model=batch.model,
        models=batch.models,
        status=np.full(n, status, np.int8),
        reason=np.full(n, reason, np.int8),
        completed=np.full(n, completed),
        mean=z,
        spread=z,
        p95=z,
        quality=np.zeros(n, np.int8),
        staleness=z,
        latency=z,
        batch_size=np.zeros(n, np.int32),
        retry_after=np.full(n, retry_after),
        workers=workers,
        messages=messages,
    )


def validate_rows(batch: RequestBatch, models: dict, tables: Tables) -> tuple[RequestBatch, dict]:
    """``batch`` on the deployment ``tables``, and the rows that break the input contract.

    The one check at a deployment's front door: a standalone server
    runs it in ``submit_batch``, a cluster runs it once and hands its
    workers only valid rows.  :meth:`~repro.serving.columnar.Tables.adopt`
    re-codes the batch and flags codes outside its own tables; the rest
    is the contract :class:`PredictRequest` enforces at construction
    (same messages) and what only the registry ``models`` (name ->
    :class:`ModelSpec`) knows: unknown models and overrides of
    parameters a model does not sample.  Bad rows come back as
    ``{row: (why, message)}`` in row order.
    """
    ours, bad_client, bad_model = tables.adopt(batch)
    submitted, deadline = batch.submitted, batch.deadline
    bad_time = ~np.isfinite(submitted)
    late = deadline < submitted
    suspect = bad_time | late | bad_client | bad_model
    if not all(m in models for m in batch.models):
        known = np.array([m in models for m in batch.models] + [True])
        suspect |= ~known[np.minimum(batch.model.view(np.uint32), len(batch.models))]
    if batch.overrides is not None:
        suspect |= np.fromiter((bool(o) for o in batch.overrides), bool, len(batch))
    out: dict[int, tuple[str, str]] = {}
    if not suspect.any():
        return ours, out
    for i in np.flatnonzero(suspect).tolist():
        t = float(submitted[i])
        if bad_time[i]:
            out[i] = ("invalid", f"submitted must be finite, got {t!r}")
        elif late[i]:
            out[i] = ("invalid", f"deadline ({float(deadline[i])}) must be >= submitted ({t})")
        elif bad_client[i] or bad_model[i]:
            column = "client" if bad_client[i] else "model"
            table = getattr(batch, f"{column}s")
            code = int(getattr(batch, column)[i])
            out[i] = (
                "invalid",
                f"{column} code {code} is outside the {column} table ({len(table)} entries)",
            )
        else:
            name = batch.models[batch.model[i]]
            spec = models.get(name)
            if spec is None:
                out[i] = (
                    "unknown_model",
                    f"unknown model {name!r}; registered: {sorted(models)}",
                )
                continue
            bad = set(batch.overrides[i]) - set(spec.sampled)
            if bad:
                out[i] = (
                    "bad_override",
                    f"overrides {sorted(bad)} are not run-time parameters of "
                    f"{name!r} (run-time: {list(spec.sampled)})",
                )
    return ours, out


def rejection_errors(batch: RequestBatch, rejected: dict, clock: float, workers) -> tuple:
    """``(rows, responses)``: one ``ErrorResponse`` per :func:`validate_rows` entry."""
    rows = np.fromiter(rejected, np.int64, len(rejected))
    at = np.maximum(batch.submitted[rows], clock)
    return rows, _unanswered(
        batch.select(rows),
        workers,
        _ST_ERROR,
        np.where(np.isfinite(at), at, clock),
        messages=tuple(message for _, message in rejected.values()),
    )


def _in_row_order(parts: list) -> ResponseBatch:
    """``(rows, ResponseBatch)`` parts, each in row order, merged into row order."""
    if not parts:
        return ResponseBatch.empty()
    if len(parts) == 1:
        return parts[0][1]
    rows = np.concatenate([r for r, _ in parts])
    merged = ResponseBatch.concat([rb for _, rb in parts])
    return merged.select(np.argsort(rows, kind="stable"))


class PredictionServer:
    """Online stochastic-prediction service over a live NWS deployment."""

    def __init__(
        self,
        nws: NetworkWeatherService,
        *,
        config: ServerConfig | None = None,
        rng=None,
        forecast_ledger: SharedRefreshLedger | None = None,
        tracer=None,
        clock: float | None = None,
    ):
        self.nws = nws
        self.config = config if config is not None else ServerConfig()
        self.tracer = as_tracer(tracer)
        self.forecasts = ForecastCache(
            nws,
            refresh_interval=self.config.refresh_interval,
            ledger=forecast_ledger,
            tracer=self.tracer,
        )
        self.metrics = MetricsRegistry()
        self.admission = AdmissionController(self.config.admission)
        # How this deployment codes client, model and worker names; a
        # cluster replaces it with the one it shares with every worker.
        self.tables = Tables()
        self._models: dict[str, ModelSpec] = {}
        # Admitted rows as RequestBatch segments in arrival order; the
        # event loop coalesces them into one segment before serving.
        self._queue: list[RequestBatch] = []
        self._queued = 0
        # Computed answers awaiting their completion instant.  Parts are
        # kept in park order, so a stable sort by completion time
        # delivers ties in the order they were computed.
        self._parked: list[ResponseBatch] = []
        # The last batch taken off the queue, with the mask of queue rows
        # it left behind (``None``: it took them all).  While it is in
        # service (``_busy_until > _clock``) its rows are admitted but
        # undelivered, and ``drain`` returns them in admission order.
        self._serving: tuple[RequestBatch, np.ndarray | None] | None = None
        # Per-model compiled-plan memo (or the name of the error that
        # keeps a model off the vectorised engine).  The engine's own
        # plan cache already dedupes compilation, but a cache *hit*
        # still hashes the whole expression tree.  Safe to key by name:
        # register_model refuses re-registration.
        self._plans: dict[str, object] = {}
        # ``clock`` lets an elastic cluster commission a worker mid-run:
        # the newcomer's event loop starts at its ready instant instead
        # of wherever the shared NWS clock happens to stand.
        self._clock = nws.now if clock is None else float(clock)
        self._busy_until = self._clock
        self._rng = as_generator(rng)
        # Accumulation buffers for chunk-wise adaptive evaluation; reused
        # across batches so steady-state adaptive serving allocates
        # nothing.  (Adaptive metrics are created lazily on the first
        # adaptive batch so fixed-budget snapshots stay byte-identical.)
        self._pool = SampleBufferPool()
        # The calibration loop scores answers against simulated realised
        # outcomes on an RNG child *spawned* from the serving generator,
        # so enabling it never shifts the serving draw sequence; its
        # metrics are likewise created lazily on the first scored batch.
        self.calib: CalibrationLoop | None = None
        if self.config.calibration is not None:
            self.calib = CalibrationLoop(
                self.config.calibration,
                self._rng,
                tracer=self.tracer,
                metrics=self.metrics,
            )
        # Open per-request trace spans, keyed (client_id, request_id);
        # only populated when a live tracer is installed.
        self._req_spans: dict[tuple[str, int], object] = {}
        # Touch the headline metrics so an idle snapshot shows them at 0.
        for name in (
            "requests_total",
            "responses_ok",
            "shed_total",
            "errors_total",
            "batches_total",
        ):
            self.metrics.counter(name)
        self.metrics.histogram("latency_s")
        self.metrics.histogram("batch_size", _BATCH_BUCKETS)
        self.metrics.histogram("staleness_at_answer_s", _STALENESS_BUCKETS)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_model(self, spec: ModelSpec, *, truth: ModelSpec | None = None) -> None:
        """Make ``spec`` addressable; resources must exist in the NWS.

        ``truth`` (calibration only) is the model realised outcomes are
        simulated from — defaults to ``spec`` itself; a different spec
        stages a model-is-wrong chaos scenario.
        """
        if spec.name in self._models:
            raise ValueError(f"model {spec.name!r} already registered")
        known = set(self.nws.resources)
        missing = {r for r in spec.resources.values() if r not in known}
        if missing:
            raise ValueError(
                f"model {spec.name!r} maps unregistered NWS resources {sorted(missing)}"
            )
        self._models[spec.name] = spec
        if self.calib is not None:
            self.calib.register(spec, truth)
        self.metrics.gauge("models_registered").set(len(self._models))

    @property
    def models(self) -> list[str]:
        """Registered model names, sorted."""
        return sorted(self._models)

    @property
    def now(self) -> float:
        """Simulated time the event loop has been stepped to."""
        return self._clock

    @property
    def queue_depth(self) -> int:
        """Requests admitted and waiting for service."""
        return self._queued

    @property
    def in_flight(self) -> int:
        """Requests admitted and not yet delivered: queued or in service."""
        return self._queued + (len(self._serving[0]) if self._busy_until > self._clock else 0)

    # ------------------------------------------------------------------
    # The per-request protocol: a view over the batch engine
    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> Response | None:
        """Admit ``request`` (returns ``None``) or answer it immediately.

        A one-row :meth:`submit_batch`: the immediate response is an
        :class:`~repro.serving.protocol.OverloadedResponse` (admission
        shed) or an :class:`~repro.serving.protocol.ErrorResponse`
        (unknown model, bad override); admitted requests are answered
        by a later :meth:`step`.
        """
        immediate = self.submit_batch(self.tables.batch([request]))
        return immediate.response(0) if len(immediate) else None

    def step(self, to: float) -> list[Response]:
        """:meth:`step_batch`, with the answers as typed response objects."""
        return self.step_batch(to).to_responses()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_batch(self, batch: RequestBatch) -> ResponseBatch:
        """Validate and admit a whole :class:`RequestBatch`.

        Returns the *immediate* responses in row order: an
        ``ErrorResponse`` per row that breaks the input contract
        (non-finite ``submitted``, a deadline before submission, a model
        or client code outside its table, an unknown model, an override
        of a parameter the model does not sample; see
        :func:`validate_rows`) and an ``OverloadedResponse`` per row
        admission sheds.  Admitted rows queue for :meth:`step_batch`.
        Verdicts — and the token-bucket state left behind — are
        identical to submitting the rows one at a time.

        With a tracer installed, every admitted row opens a ``request``
        span (its own trace) that stays open until the answer is
        delivered; rejected rows record an instant ``serving.reject``
        span instead.
        """
        if len(batch) == 0:
            return ResponseBatch.empty()
        batch, rejected = validate_rows(batch, self._models, self.tables)
        rows = np.arange(len(batch))
        parts: list = []
        if rejected:
            self.metrics.counter("requests_total").inc(len(rejected))
            self.metrics.counter("errors_total").inc(len(rejected))
            parts.append(rejection_errors(batch, rejected, self._clock, self.tables.workers))
            rows = np.delete(rows, parts[0][0])
        shed = self._admit(batch, rows, rejected)
        if shed is not None:
            parts.append(shed)
        return _in_row_order(parts)

    def _admit(self, batch: RequestBatch, rows: np.ndarray, rejected: dict) -> tuple | None:
        """Admission control for the valid rows ``rows`` of ``batch``.

        ``batch`` is already on this deployment's tables and ``rows``
        passed :func:`validate_rows` (a cluster validates once and hands
        each worker its rows here).  Admitted rows queue for
        :meth:`step_batch`; returns ``(rows, responses)`` for the rows
        admission sheds, or ``None``.  ``rejected`` only places reject
        spans in row order when tracing.
        """
        self.metrics.counter("requests_total").inc(len(rows))
        valid = batch if len(rows) == len(batch) else batch.select(rows)
        verdict = admit_batch(self.admission, valid, self._queued, self._clock)
        if self.tracer.enabled:
            self._trace_submissions(batch, rows, verdict, rejected)
        admitted = verdict == ADMIT
        part = None
        if not admitted.all():
            shed = ~admitted
            self.metrics.counter("shed_total").inc(int(shed.sum()))
            counts = np.bincount(verdict[shed], minlength=len(REASONS))
            for code, name in enumerate(REASONS):
                if name and counts[code]:
                    self.metrics.counter(f"shed_{name}").inc(int(counts[code]))
            # Each shed row's retry hint reads the queue depth at its
            # own instant in the submission order.
            depth_at = self._queued + np.cumsum(admitted) - admitted
            gone = valid.select(shed)
            answers = _unanswered(
                gone,
                self.tables.workers,
                _ST_OVERLOADED,
                np.maximum(gone.submitted, self._clock),
                reason=verdict[shed],
                retry_after=depth_at[shed] / self.config.drain_rate(),
            )
            part = (rows[shed], answers)
            valid = valid.select(admitted)
        if len(valid):
            self._queue.append(valid)
            self._queued += len(valid)
            self.metrics.gauge("queue_depth").set(self._queued)
        return part

    def _trace_submissions(self, batch, rows, verdict, rejected: dict) -> None:
        """Per row, in row order: a ``request`` span or a reject span.

        ``rows`` are the rows admission ruled on (``verdict`` each),
        ``rejected`` the rows refused before admission.
        """
        verdicts = dict(zip(rows.tolist(), verdict.tolist()))
        for i in sorted([*verdicts, *rejected]):
            rid = int(batch.request_id[i])
            client = batch.clients[batch.client[i]]
            model = batch.models[batch.model[i]]
            at = max(float(batch.submitted[i]), self._clock)
            if i in rejected:
                outcome = f"error:{rejected[i][0]}"
                at = at if np.isfinite(at) else self._clock
            elif (code := verdicts[i]) != ADMIT:
                outcome = f"shed:{REASONS[code]}"
            else:
                self._req_spans[(client, rid)] = self.tracer.start_span(
                    "request",
                    at,
                    stage=STAGE_SERVING,
                    new_trace=True,
                    request_id=rid,
                    client_id=client,
                    model=model,
                )
                continue
            self.tracer.start_span(
                "serving.reject",
                at,
                stage=STAGE_SERVING,
                new_trace=True,
                request_id=rid,
                client_id=client,
                model=model,
                outcome=outcome,
            ).finish(at)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def step_batch(self, to: float) -> ResponseBatch:
        """Run the event loop up to simulated time ``to``.

        Serves as many batches as *start* before ``to`` (the server
        stays busy ``service_time(batch)`` per evaluation; a backlog
        carries over to the next step) and returns every response whose
        completion time has been reached, in completion order — a batch
        still in service at ``to`` is delivered by a later step.  Never
        raises on a request's behalf: an evaluation failure becomes an
        error response for every row of its batch.
        """
        if to < self._clock:
            raise ValueError(f"cannot step the server backwards from {self._clock} to {to}")
        while self._queued:
            t_start = max(self._busy_until, self._clock, float(self._queue[0].submitted[0]))
            if t_start > to:
                break
            if len(self._queue) > 1:
                self._queue = [RequestBatch.concat(self._queue)]
            self._shed_expired_rows(t_start)
            if not self._queued:
                break
            batch = self._next_batch(self.config.batch_max)
            t_start = max(t_start, float(batch.submitted.max()))
            self._busy_until = self._serve(batch, t_start)
            self.metrics.counter("batches_total").inc()
            self.metrics.histogram("batch_size", _BATCH_BUCKETS).observe(len(batch))
        self._clock = to
        self.forecasts.ingest_to(to)
        self.metrics.gauge("queue_depth").set(self._queued)
        return self._deliver(to)

    def _shed_expired_rows(self, t: float) -> None:
        """Shed queued rows whose deadline passed *strictly* before ``t``."""
        queue = self._queue[0]
        expired = queue.deadline < t
        if not expired.any():
            return
        gone = queue.select(expired)
        n = len(gone)
        self.metrics.counter("shed_total").inc(n)
        self.metrics.counter(f"shed_{SHED_DEADLINE}").inc(n)
        retry = self.admission.retry_after(self._queued, self.config.drain_rate())
        self._parked.append(
            _unanswered(
                gone, self.tables.workers, _ST_OVERLOADED, t, reason=_RE_DEADLINE, retry_after=retry
            )
        )
        if self.tracer.enabled:
            for client, rid in zip(gone.client.tolist(), gone.request_id.tolist()):
                sp = self._req_spans.pop((gone.clients[client], rid), None)
                if sp is not None:
                    sp.set(outcome=f"shed:{SHED_DEADLINE}").finish(t)
        self._requeue(queue.select(~expired))

    def _next_batch(self, cap: int) -> RequestBatch:
        """The head row's model's queued rows, FIFO, up to ``cap``."""
        queue = self._queue[0]
        take = np.flatnonzero(queue.model == queue.model[0])[:cap]
        if len(take) == len(queue):
            self._requeue(None)
            self._serving = (queue, None)
            return queue
        keep = np.ones(len(queue), dtype=bool)
        keep[take] = False
        self._requeue(queue.select(keep))
        self._serving = (queue.select(take), keep)
        return self._serving[0]

    def _requeue(self, rest: RequestBatch | None) -> None:
        self._queue = [rest] if rest is not None and len(rest) else []
        self._queued = len(self._queue[0]) if self._queue else 0

    def _deliver(self, to: float) -> ResponseBatch:
        """Parked answers whose completion instant has been reached.

        Answer metrics are observed here, at *delivery*, not at compute
        time, so work computed by a worker that crashes before
        delivering (discarded by :meth:`drain`) never appears as a
        served answer; request spans close here too.
        """
        if not self._parked:
            return ResponseBatch.empty()
        pending = ResponseBatch.concat(self._parked)
        ready = pending.completed <= to
        if ready.all():
            self._parked = []
            out = pending
        elif ready.any():
            self._parked = [pending.select(~ready)]
            out = pending.select(ready)
        else:
            self._parked = [pending]
            return ResponseBatch.empty()
        out = out.sorted_by_completion()
        ok = out.ok_mask
        n_ok = int(ok.sum())
        if n_ok:
            self.metrics.counter("responses_ok").inc(n_ok)
            for q, c in out.quality_counts().items():
                self.metrics.counter(f"quality_{q}").inc(c)
            self.metrics.histogram("latency_s").observe_many(out.latency[ok])
            self.metrics.histogram("staleness_at_answer_s", _STALENESS_BUCKETS).observe_many(
                np.minimum(out.staleness[ok], 1e9)
            )
        if self.tracer.enabled:
            for i in range(len(out)):
                key = (out.clients[out.client[i]], int(out.request_id[i]))
                sp = self._req_spans.pop(key, None)
                if sp is None:
                    continue
                if ok[i]:
                    sp.set(
                        outcome="ok",
                        quality=QUALITIES[out.quality[i]],
                        staleness=float(out.staleness[i]),
                        latency=float(out.latency[i]),
                        batch_size=int(out.batch_size[i]),
                    )
                else:
                    sp.set(outcome=STATUSES[out.status[i]])
                sp.finish(float(out.completed[i]))
        return out

    # ------------------------------------------------------------------
    # Cluster lifecycle hooks
    # ------------------------------------------------------------------
    def drain(self) -> RequestBatch:
        """Crash hook: abandon all pending work and return it.

        Called by a serving cluster the instant this worker's host
        crashes or its drain deadline passes.  Returns every row the
        worker admitted but has not delivered — the queue plus the batch
        still in service — as one :class:`RequestBatch` in admission
        order (the cluster re-routes them to the shard's replicas).
        Answers computed but not yet delivered are discarded (a dead
        worker cannot deliver), and the in-service window is cancelled
        so a later restart does not resume a half-finished batch.
        """
        parts = list(self._queue)
        order = None
        if self._busy_until > self._clock:
            batch, keep = self._serving
            parts.insert(0, batch)
            if keep is not None:
                # The batch came from queue positions ~keep; the rows it
                # left (keep) still head the queue, later admissions follow.
                later = np.arange(len(keep), len(batch) + self._queued)
                order = np.argsort(
                    np.concatenate([np.flatnonzero(~keep), np.flatnonzero(keep), later])
                )
        rows = RequestBatch.concat(parts) if parts else RequestBatch.from_requests(())
        if order is not None:
            rows = rows.select(order)
        self._requeue(None)
        self._parked = []
        self._busy_until = self._clock
        self.metrics.gauge("queue_depth").set(0)
        if self.tracer.enabled:
            for sp in self._req_spans.values():
                sp.set(outcome="drained").finish(self._clock)
            self._req_spans.clear()
        return rows

    def restart(self, at: float) -> None:
        """Recovery hook: bring a crashed worker back cold at time ``at``.

        The event-loop clock jumps over the downtime (nothing was
        served during it), and the forecast cache is invalidated — a
        restarted host holds no telemetry view, so its first answers
        recompute every consulted forecast from the live NWS instead of
        trusting pre-crash entries.
        """
        if at < self._clock:
            raise ValueError(f"cannot restart at {at}, before the clock ({self._clock})")
        self._requeue(None)
        self._parked = []
        self._clock = at
        self._busy_until = at
        self.forecasts.invalidate()
        self.metrics.counter("restarts_total").inc()
        if self.tracer.enabled:
            for sp in self._req_spans.values():
                sp.set(outcome="lost_in_restart").finish(at)
            self._req_spans.clear()
            self.tracer.event("worker.restart", at)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _serve(self, batch: RequestBatch, t_start: float) -> float:
        """Answer one single-model batch and park the answers; returns t_done.

        With a tracer installed the batch gets a ``serving.batch`` span
        of its own trace (a batch serves several request traces at
        once); request spans link to it through ``batch_span``.
        """
        targets = self._precision_targets(batch)
        if not self.tracer.enabled:
            return self._answer(batch, t_start, targets)[0]
        extra = {} if targets is None else {"adaptive": True}
        with self.tracer.span(
            "serving.batch",
            t_start,
            stage=STAGE_SERVING,
            new_trace=True,
            model=batch.models[batch.model[0]],
            batch_size=len(batch),
            request_ids=batch.request_id.tolist(),
            **extra,
        ) as sp:
            t_done, draws = self._answer(batch, t_start, targets)
            if targets is not None:
                sp.set(draws=draws)
            sp.finish(t_done)
        for client, rid in zip(batch.client.tolist(), batch.request_id.tolist()):
            rsp = self._req_spans.get((batch.clients[client], rid))
            if rsp is not None:
                rsp.set(batch_span=sp.span_id)
        return t_done

    def _answer(
        self, batch: RequestBatch, t_start: float, targets: list | None
    ) -> tuple[float, int]:
        """The one evaluator: draws, plan, reductions, blocks, answers.

        Returns ``(t_done, draws evaluated)``.  What the batch carries
        picks the work: overrides switch the affected parameters to
        per-row draws, precision targets switch to chunk-wise adaptive
        sampling (and attach a ``precision`` block), calibration
        attaches a ``distribution`` block.  Rows with blocks ride as
        whole response objects in the answer batch's sidecar.
        """
        cfg = self.config
        spec = self._models[batch.models[batch.model[0]]]
        sampled = spec.sampled
        k = len(batch)
        overrides = batch.overrides
        # Precision shedding: the queue left behind sets a tolerance
        # multiplier, applied before sampling and tagged on every answer
        # — the server never silently loosens a contract.
        factor = 1.0 if targets is None else self.admission.precision_factor(self._queued)
        try:
            self.forecasts.ingest_to(t_start)
            shared = {
                param: self.forecasts.get(resource, t_start)
                for param, resource in sorted(spec.resources.items())
                if param in sampled
            }
            base = self._effective(spec, sampled, shared, {})
            effective = (
                [base] * k
                if overrides is None
                else [self._effective(spec, sampled, shared, o) if o else base for o in overrides]
            )
            if targets is None:
                samples = self._propagate(spec, effective, overrides)
                outcomes, draws = None, k * cfg.n_samples
                t_done = t_start + cfg.service_time(k)
            else:
                loosened = [None if t is None else t.degraded(factor) for t in targets]
                samples, outcomes, draws = self._propagate_adaptive(
                    spec, batch, effective, loosened
                )
                t_done = t_start + cfg.adaptive_service_time(draws)
            scale, dists = self._distributions(spec, samples)
            mean, spread, p95 = _summarise(samples)
            if scale != 1.0:
                spread = spread * scale
                p95 = mean + (p95 - mean) * scale

            q0, s0 = _consulted(shared, {})
            quality = np.full(k, q0, np.int8)
            staleness = np.full(k, s0)
            for i, o in enumerate(overrides or ()):
                if o:
                    quality[i], staleness[i] = _consulted(shared, o)
            infos = None if outcomes is None else self._precision_infos(
                targets, outcomes, factor, draws
            )
            latency = t_done - batch.submitted
            messages = None
            if dists is not None or infos is not None:
                messages = tuple(
                    PredictResponse(
                        request_id=int(batch.request_id[i]),
                        client_id=batch.clients[batch.client[i]],
                        completed=t_done,
                        value=StochasticValue(float(mean[i]), float(spread[i])),
                        p95=float(p95[i]),
                        quality=QUALITIES[quality[i]],
                        staleness=float(staleness[i]),
                        latency=float(latency[i]),
                        batch_size=k,
                        model=spec.name,
                        precision=None if infos is None else infos[i],
                        distribution=None if dists is None else dists[i],
                    )
                    if dists is not None or infos[i] is not None
                    else None
                    for i in range(k)
                )
            if dists is not None:
                for i, dist in enumerate(dists):
                    self.calib.enqueue(
                        spec.name, QUALITIES[quality[i]], dist, effective[i], t_done
                    )
            self._parked.append(
                ResponseBatch(
                    request_id=batch.request_id,
                    client=batch.client,
                    clients=batch.clients,
                    model=batch.model,
                    models=batch.models,
                    status=np.zeros(k, np.int8),
                    reason=np.zeros(k, np.int8),
                    completed=np.full(k, t_done),
                    mean=mean,
                    spread=spread,
                    p95=p95,
                    quality=quality,
                    staleness=staleness,
                    latency=latency,
                    batch_size=np.full(k, k, np.int32),
                    retry_after=np.zeros(k),
                    workers=self.tables.workers,
                    messages=messages,
                )
            )
            return t_done, draws
        except Exception as exc:  # noqa: BLE001 - protocol boundary
            self.metrics.counter("errors_total").inc(k)
            t_done = t_start + cfg.service_time(k)
            message = f"evaluation failed: {type(exc).__name__}: {exc}"
            self._parked.append(
                _unanswered(
                    batch, self.tables.workers, _ST_ERROR, t_done, messages=(message,) * k
                )
            )
            return t_done, 0

    @staticmethod
    def _effective(spec: ModelSpec, sampled: tuple, shared: dict, overrides) -> dict:
        """The value every sampled parameter takes for a row at this instant."""
        return {
            p: as_stochastic(overrides[p])
            if p in overrides
            else shared[p].value
            if p in shared
            else spec.bindings.resolve(p)
            for p in sampled
        }

    def _plan(self, spec: ModelSpec):
        """The model's compiled plan (memoised), or ``None`` when it has none.

        A model whose expression or policy the compiler cannot lower is
        served by the per-sample reference loop; every batch that falls
        back is counted in ``plan_fallback_total`` and
        ``plan_fallback_<reason>`` (and tagged on its trace span).
        """
        plan = self._plans.get(spec.name)
        if plan is None:
            try:
                plan = compile_expr(
                    spec.expression, spec.sampled, policy=spec.policy, tracer=self.tracer
                )
            except (UnsupportedPolicyError, UnsupportedExpressionError) as exc:
                plan = type(exc).__name__
            self._plans[spec.name] = plan
        if isinstance(plan, str):
            self.metrics.counter("plan_fallback_total").inc()
            self.metrics.counter(f"plan_fallback_{plan}").inc()
            if self.tracer.enabled and self.tracer.active is not None:
                self.tracer.active.set(fallback=plan)
            return None
        if self.tracer.enabled and self.tracer.active is not None:
            self.tracer.active.set(engine="vectorised")
        return plan

    def _propagate(self, spec: ModelSpec, effective: list, overrides) -> np.ndarray:
        """Fixed-budget draw clouds for the batch, as a ``(k, n)`` matrix.

        One ``k * n`` draw per parameter no row overrides, per-row draws
        for the others — the same draw stream as drawing every row
        separately — then one plan evaluation for the whole batch.
        """
        plan = self._plan(spec)
        if plan is None:
            return self._propagate_reference(spec, effective)
        n = self.config.n_samples
        k = len(effective)
        draws: dict[str, np.ndarray] = {}
        for param in effective[0]:
            bounds = spec.clip.get(param) if spec.clip else None
            if overrides is not None and any(param in o for o in overrides):
                draws[param] = np.concatenate(
                    [self._draw(e[param], n, bounds) for e in effective]
                )
            else:
                draws[param] = self._draw(effective[0][param], k * n, bounds)
        return plan.evaluate(draws, spec.bindings, n_samples=k * n).reshape(k, n)

    def _distributions(self, spec: ModelSpec, samples) -> tuple[float, list | None]:
        """Calibration distribution blocks for a batch, or ``(1.0, None)``.

        Returns the recalibration scale read once for the batch (control
        decisions apply from the *next* flush) and one distribution per
        row (already widened — and tagged — when the scale is active).
        Annotation failures never break serving: on any exception the
        batch is answered un-annotated and ``calib_errors_total`` counts
        it.
        """
        if self.calib is None:
            return 1.0, None
        try:
            scale = self.calib.scale(spec.name)
            dists = self.calib.distributions(list(samples))
            if scale != 1.0:
                dists = [d.widened(scale) for d in dists]
            return scale, dists
        except Exception:  # noqa: BLE001 - scoring must never break serving
            self.metrics.counter("calib_errors_total").inc()
            return 1.0, None

    # ------------------------------------------------------------------
    # Adaptive (precision-targeted) evaluation
    # ------------------------------------------------------------------
    def _precision_targets(self, batch: RequestBatch) -> list | None:
        """Clamped per-row precision targets, or ``None`` for fixed.

        A row's own target wins over the server default
        (``config.precision``); each is clamped to the server's limits.
        ``None`` means *no* row in the batch is adaptive — the fixed
        path runs.  Adaptive serving needs a sane draw budget
        (``n_samples >= 8``); below it targets are ignored and answers
        simply lack a ``precision`` block.
        """
        cfg = self.config
        if cfg.n_samples < 8:
            return None
        if batch.precision is None:
            if cfg.precision is None:
                return None
            return [self._clamp_target(cfg.precision)] * len(batch)
        targets = [cfg.precision if t is None else t for t in batch.precision]
        if all(t is None for t in targets):
            return None
        return [None if t is None else self._clamp_target(t) for t in targets]

    def _clamp_target(self, target: PrecisionTarget) -> PrecisionTarget:
        """Apply server-side limits to a client's precision target."""
        cfg = self.config
        changes: dict = {}
        if target.max_samples > cfg.n_samples:
            changes["max_samples"] = cfg.n_samples
        max_samples = changes.get("max_samples", target.max_samples)
        if target.min_samples > max_samples:
            changes["min_samples"] = max_samples
        if target.rel_tol is not None and target.rel_tol < cfg.min_rel_tol:
            changes["rel_tol"] = cfg.min_rel_tol
        return replace(target, **changes) if changes else target

    def _precision_infos(
        self, targets: list, outcomes: list, factor: float, draws: int
    ) -> list:
        """Adaptive metrics for one batch plus each row's ``precision`` block."""
        degraded = factor > 1.0
        self.metrics.counter("adaptive_batches_total").inc()
        self.metrics.counter("draws_used_total").inc(draws)
        self.metrics.counter("draws_budget_total").inc(len(targets) * self.config.n_samples)
        if degraded:
            self.metrics.counter("precision_degraded_total").inc(
                sum(1 for t in targets if t is not None)
            )
        hist = self.metrics.histogram("draws_used", _DRAWS_BUCKETS)
        infos = []
        for target, outcome in zip(targets, outcomes):
            if outcome is None:
                infos.append(None)
                continue
            hist.observe(outcome.draws)
            infos.append(
                PrecisionInfo(
                    metric=outcome.target.metric,
                    rule=outcome.target.rule,
                    requested=target.describe(),
                    effective=outcome.target.describe(),
                    draws=outcome.draws,
                    budget=outcome.budget,
                    half_width=outcome.half_width,
                    tolerance=outcome.tolerance,
                    converged=outcome.converged,
                    degraded=degraded,
                    shed_factor=factor,
                    reason=DEGRADED_QUEUE_PRESSURE if degraded else "",
                )
            )
        return infos

    def _propagate_adaptive(
        self,
        spec: ModelSpec,
        batch: RequestBatch,
        effective: list,
        targets: list,
    ) -> tuple[list, list, int]:
        """Chunk-wise fused evaluation with shrinking index masks.

        All rows advance through one shared geometric chunk schedule;
        each chunk concatenates fresh draws for the *still-active* rows
        only, flows once through the compiled plan, and scatters back
        into pooled per-row buffers.  A row leaves the active set when
        its stopping rule converges (or its cap fills); rows without a
        target ride along at the fixed budget.  Returns (per-row
        samples, per-row outcomes or ``None``, total draws evaluated).
        """
        cfg = self.config
        n_budget = cfg.n_samples
        k_total = len(batch)
        caps = [n_budget if t is None else t.max_samples for t in targets]
        probes = [
            None if t is None else SequentialProbe(t, self._rng) for t in targets
        ]

        plan = self._plan(spec)
        if plan is None:
            # No vectorised plan: the full-budget reference loop, assessed
            # once so provenance is still truthful (draws == budget).
            samples = self._propagate_reference(spec, effective)
            outcomes = []
            for k, probe in enumerate(probes):
                if probe is None:
                    outcomes.append(None)
                    continue
                probe.assess(samples[k])
                outcomes.append(probe.outcome(budget=n_budget))
            return samples, outcomes, k_total * n_budget

        adaptive = [t for t in targets if t is not None]
        first = min(t.min_samples for t in adaptive)
        growth = min(t.growth for t in adaptive)
        totals = sorted(set(chunk_schedule(first, max(caps), growth)) | set(caps))

        bufs = [self._pool.acquire(cap) for cap in caps]
        try:
            filled = [0] * k_total
            active = list(range(k_total))
            total_draws = 0
            for total in totals:
                members = []
                counts = []
                for k in active:
                    need = min(caps[k], total) - filled[k]
                    if need > 0:
                        members.append(k)
                        counts.append(need)
                if not members:
                    continue
                m = sum(counts)
                draws: dict[str, np.ndarray] = {}
                for param in effective[0]:
                    bounds = spec.clip.get(param) if spec.clip else None
                    arr = np.empty(m)
                    off = 0
                    for k, need in zip(members, counts):
                        arr[off : off + need] = self._draw(effective[k][param], need, bounds)
                        off += need
                    draws[param] = arr
                out = plan.evaluate(draws, spec.bindings, n_samples=m)
                off = 0
                for k, need in zip(members, counts):
                    bufs[k][filled[k] : filled[k] + need] = out[off : off + need]
                    filled[k] += need
                    off += need
                total_draws += m

                still = []
                for k in active:
                    target, probe = targets[k], probes[k]
                    done = filled[k] >= caps[k]
                    if probe is not None and filled[k] >= target.min_samples:
                        record = probe.assess(bufs[k][: filled[k]])
                        if record.converged:
                            done = True
                        if done and self.tracer.enabled:
                            self.tracer.start_span(
                                "mc.converged",
                                stage=STAGE_STRUCTURAL,
                                request_id=int(batch.request_id[k]),
                                metric=target.metric,
                                rule=target.rule,
                                draws=record.draws,
                                budget=n_budget,
                                converged=record.converged,
                                half_width=record.half_width,
                                tolerance=record.tolerance,
                                votes={v.rule: v.converged for v in record.votes},
                            ).finish()
                    if not done:
                        still.append(k)
                if self.tracer.enabled:
                    self.tracer.start_span(
                        "mc.chunk",
                        stage=STAGE_STRUCTURAL,
                        draws=total,
                        chunk=m,
                        batch_size=k_total,
                        active=len(still),
                    ).finish()
                active = still
                if not active:
                    break

            samples = [bufs[k][: filled[k]].copy() for k in range(k_total)]
        finally:
            for buf in bufs:
                self._pool.release(buf)
        outcomes = [
            None if probe is None else probe.outcome(budget=n_budget) for probe in probes
        ]
        return samples, outcomes, total_draws

    def _draw(self, sv: StochasticValue, n: int, clip_bounds) -> np.ndarray:
        if sv.is_point:
            seg = np.full(n, sv.mean)
        else:
            seg = sv.sample(n, self._rng)
        if clip_bounds is not None:
            seg = np.clip(seg, *clip_bounds)
        return seg

    def _propagate_reference(self, spec: ModelSpec, effective: list) -> np.ndarray:
        """The plan fallback: one per-sample reference loop per row."""
        from repro.structural.montecarlo import monte_carlo_predict

        if self.tracer.enabled and self.tracer.active is not None:
            self.tracer.active.set(engine="reference")
        n = self.config.n_samples
        return np.stack(
            [
                monte_carlo_predict(
                    spec.expression,
                    spec.bindings.overlaid(e),
                    n_samples=n,
                    rng=self._rng,
                    clip=spec.clip,
                    engine="reference",
                ).samples
                for e in effective
            ]
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def calibration_summary(self) -> dict | None:
        """Per-model calibration scores + recalibration state (or ``None``)."""
        if self.calib is None:
            return None
        return self.calib.summary()

    def snapshot(self) -> dict:
        """Operational state: metrics + caches, JSON-serialisable."""
        from repro.serving.metrics import _sanitise

        doc = {
            "now": self._clock,
            "queue_depth": self.queue_depth,
            "models": self.models,
            "metrics": self.metrics.snapshot(),
            "forecast_cache": self.forecasts.stats(),
            "plan_cache": plan_cache_stats(),
        }
        if self.calib is not None:
            doc["calibration"] = self.calib.summary()
        return _sanitise(doc)
