"""Request/response protocol for the prediction service.

Everything a client exchanges with :class:`~repro.serving.server.PredictionServer`
is a frozen dataclass: a :class:`PredictRequest` goes in, and exactly one
typed response comes out — :class:`PredictResponse` (answered),
:class:`OverloadedResponse` (shed by admission control or deadline) or
:class:`ErrorResponse` (malformed request: unknown model, bad override).
The server never lets an exception escape to a client; the worst
possible outcome of a request is a typed response with a non-``ok``
status, mirroring how the NWS degradation layer turns missing telemetry
into tagged forecasts instead of errors.

Every answered prediction carries the *quality* of the forecasts it
stood on (``fresh`` / ``stale`` / ``fallback``, the worst across all
resources consulted) and the staleness of the oldest one, so a client
can weigh an answer exactly like a scheduler weighs a degraded NWS
query.

When a :class:`~repro.serving.cluster.ServingCluster` delivers the
response, it additionally stamps the ``worker`` that produced it and —
for answers served by a standby replica after its shard's primary
crashed — sets ``failover=True`` and degrades the quality tag to at
least ``stale`` (a replica answers from standby-grade shard state, and
the transition must never be silent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.calib.distribution import DistributionInfo
from repro.core.stochastic import StochasticValue
from repro.nws.service import QUALITIES
from repro.structural.repeaters import PrecisionTarget
from repro.util.validation import check_finite

__all__ = [
    "PredictRequest",
    "PredictResponse",
    "PrecisionInfo",
    "OverloadedResponse",
    "ErrorResponse",
    "Response",
    "STATUS_OK",
    "STATUS_OVERLOADED",
    "STATUS_ERROR",
    "SHED_QUEUE_FULL",
    "SHED_THROTTLED",
    "SHED_DEADLINE",
    "SHED_UNAVAILABLE",
    "DEGRADED_QUEUE_PRESSURE",
]

#: Response statuses.
STATUS_OK = "ok"
STATUS_OVERLOADED = "overloaded"
STATUS_ERROR = "error"

#: Reasons an :class:`OverloadedResponse` can carry.
SHED_QUEUE_FULL = "queue_full"
SHED_THROTTLED = "throttled"
SHED_DEADLINE = "deadline"
#: Cluster-level shed: the request's shard has no healthy owner left
#: (every replica of the shard is crashed at routing time).
SHED_UNAVAILABLE = "unavailable"
_SHED_REASONS = (SHED_QUEUE_FULL, SHED_THROTTLED, SHED_DEADLINE, SHED_UNAVAILABLE)

#: Why a response's precision was degraded below what was requested:
#: the server loosened the tolerance under queue pressure (*precision
#: shedding* — trade accuracy for capacity before shedding requests).
DEGRADED_QUEUE_PRESSURE = "queue_pressure"


@dataclass(frozen=True)
class PredictRequest:
    """One prediction query against a registered model.

    Attributes
    ----------
    request_id:
        Client-unique integer identifier echoed back on the response
        (the server keeps ids as an ``int64`` column).
    client_id:
        Identity the per-client token bucket meters.
    model:
        Name of a registered :class:`~repro.serving.server.ModelSpec`.
    submitted:
        Simulated submission time (the driver's clock).
    deadline:
        Absolute simulated time after which the answer is worthless;
        ``None`` means the client will wait forever.  Requests whose
        deadline passes while queued are shed, not evaluated.

        The boundary is **inclusive** everywhere a deadline is
        checked: a request whose deadline *equals* the instant service
        (or cluster re-routing after a crash or drain) would begin is
        still served; it is shed only when that instant is *strictly
        after* the deadline (``deadline < t``).  One convention on
        every path — worker-side shedding, the columnar queue, and
        in-flight migration — so the same trace sheds the same
        requests no matter which path handled them.
    overrides:
        Run-time parameter overrides (name -> value) applied *for this
        request only* on top of the server's live NWS forecasts — e.g. a
        what-if query pinning one machine's load.  Values are floats or
        :class:`~repro.core.stochastic.StochasticValue`.
    precision:
        Optional per-request
        :class:`~repro.structural.repeaters.PrecisionTarget` ("the p95
        to ±2%"): the server samples adaptively and stops as soon as the
        target converges, instead of burning its full fixed draw budget.
        The server clamps the target to its own limits (draw cap,
        minimum tolerance) and reports what it actually did in the
        response's :class:`PrecisionInfo` block.  ``None`` keeps the
        fixed-budget behaviour (unless the server configures a default
        target of its own).
    """

    request_id: int
    client_id: str
    model: str
    submitted: float
    deadline: float | None = None
    overrides: dict = field(default_factory=dict)
    precision: PrecisionTarget | None = None

    def __post_init__(self) -> None:
        check_finite(self.submitted, "submitted")
        if self.deadline is not None and self.deadline < self.submitted:
            raise ValueError(
                f"deadline ({self.deadline}) must be >= submitted ({self.submitted})"
            )
        if self.precision is not None and not isinstance(self.precision, PrecisionTarget):
            raise TypeError(
                f"precision must be a PrecisionTarget or None, got {self.precision!r}"
            )


@dataclass(frozen=True)
class Response:
    """Fields every typed response shares.

    ``worker`` is the serving-cluster attribution: the name of the
    worker that produced the response (empty for a standalone
    :class:`~repro.serving.server.PredictionServer`, or for cluster
    decisions made before routing, e.g. a global-admission shed).
    """

    request_id: int
    client_id: str
    completed: float
    worker: str = ""

    @property
    def status(self) -> str:
        raise NotImplementedError

    @property
    def ok(self) -> bool:
        """True for an answered prediction."""
        return self.status == STATUS_OK


@dataclass(frozen=True)
class PrecisionInfo:
    """What the adaptive sampler actually did for one answer.

    Present on every :class:`PredictResponse` served adaptively (absent
    — ``None`` — on fixed-budget answers).  Mirrors the quality tags:
    any gap between what the client asked for and what it got is stated
    here, never silent.

    Attributes
    ----------
    metric, rule:
        The converged-upon metric and the stopping rule that judged it.
    requested:
        The precision target after server-side clamping, in
        :meth:`~repro.structural.repeaters.PrecisionTarget.describe`
        form (e.g. ``p95±2%@0.95/ci``) — what the client's contract
        became under this server's limits.
    effective:
        The target actually evaluated.  Equal to ``requested`` unless
        the server *precision-shed*: under queue pressure it multiplies
        the tolerance (``shed_factor``) instead of shedding the request.
    draws, budget:
        Monte Carlo draws spent vs the fixed budget the server would
        have burned without adaptivity (its configured ``n_samples``).
    half_width, tolerance:
        Achieved confidence-interval half-width of the metric at stop
        time, and the tolerance it had to beat.
    converged:
        False when the hard draw cap hit before the rule was satisfied
        (the answer is still delivered, at the achieved precision).
    degraded:
        True when ``effective`` is looser than ``requested``; then
        ``shed_factor`` (>1) and ``reason`` say how much and why.
    """

    metric: str = "p95"
    rule: str = "ci"
    requested: str = ""
    effective: str = ""
    draws: int = 0
    budget: int = 0
    half_width: float = 0.0
    tolerance: float = 0.0
    converged: bool = False
    degraded: bool = False
    shed_factor: float = 1.0
    reason: str = ""

    def __post_init__(self) -> None:
        if self.draws < 0 or self.budget < 0:
            raise ValueError("draws and budget must be >= 0")
        if self.degraded and self.shed_factor <= 1.0:
            raise ValueError(
                f"degraded precision requires shed_factor > 1, got {self.shed_factor}"
            )
        if self.degraded and not self.reason:
            raise ValueError("degraded precision must carry a reason (never silent)")

    @property
    def saved_fraction(self) -> float:
        """Fraction of the fixed budget left unspent."""
        return 1.0 - self.draws / self.budget if self.budget else 0.0

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "rule": self.rule,
            "requested": self.requested,
            "effective": self.effective,
            "draws": self.draws,
            "budget": self.budget,
            "half_width": self.half_width,
            "tolerance": self.tolerance,
            "converged": self.converged,
            "degraded": self.degraded,
            "shed_factor": self.shed_factor,
            "reason": self.reason,
            "saved_fraction": self.saved_fraction,
        }


@dataclass(frozen=True)
class PredictResponse(Response):
    """An answered prediction.

    Attributes
    ----------
    value:
        The predicted execution time as a stochastic value (mean +/-
        spread summary of the propagated sample cloud).
    p95:
        95th percentile of the propagated samples — the QoS-quotable
        tail bound.
    quality:
        Worst forecast quality consulted (``fresh``/``stale``/``fallback``).
    staleness:
        Seconds since the *oldest* consulted forecast's resource last
        delivered a measurement (``inf`` if one never has).
    latency:
        Simulated seconds from submission to completion.
    batch_size:
        Number of requests answered by the same vectorised evaluation.
    failover:
        True when a cluster answered from a standby replica because the
        shard's primary worker was down; such answers carry a quality
        tag of at least ``stale``.
    model:
        Name of the model the prediction was evaluated against.
    precision:
        :class:`PrecisionInfo` for adaptively sampled answers — draws
        used, achieved half-width, and any precision shedding applied —
        or ``None`` for fixed-budget answers.
    distribution:
        The full predictive distribution
        (:class:`~repro.calib.distribution.DistributionInfo`: quantile
        grid + mergeable sketch over the Monte Carlo draws) when the
        server runs a calibration loop, else ``None``.  When the online
        recalibrator has widened this model's spread, the block carries
        ``recalibrated=True`` and the applied ``scale`` — and ``value``
        / ``p95`` reflect the widened claim (never silent).
    """

    value: StochasticValue = StochasticValue.point(0.0)
    p95: float = 0.0
    quality: str = "fresh"
    staleness: float = 0.0
    latency: float = 0.0
    batch_size: int = 1
    failover: bool = False
    model: str = ""
    precision: PrecisionInfo | None = None
    distribution: DistributionInfo | None = None

    def __post_init__(self) -> None:
        if self.quality not in QUALITIES:
            raise ValueError(f"quality must be one of {QUALITIES}, got {self.quality!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def status(self) -> str:
        return STATUS_OK


@dataclass(frozen=True)
class OverloadedResponse(Response):
    """A request shed by admission control or deadline expiry.

    ``retry_after`` is the server's advice (simulated seconds) on when
    capacity is likely to exist again — the time for the backlog ahead
    of the request to drain at the configured service rate.
    """

    reason: str = SHED_QUEUE_FULL
    retry_after: float = 0.0

    def __post_init__(self) -> None:
        if self.reason not in _SHED_REASONS:
            raise ValueError(f"reason must be one of {_SHED_REASONS}, got {self.reason!r}")

    @property
    def status(self) -> str:
        return STATUS_OVERLOADED


@dataclass(frozen=True)
class ErrorResponse(Response):
    """A malformed request (unknown model, bad override name)."""

    message: str = ""

    @property
    def status(self) -> str:
        return STATUS_ERROR
