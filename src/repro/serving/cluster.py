"""A sharded multi-worker serving cluster with failover.

One :class:`~repro.serving.server.PredictionServer` batches well, but a
production deployment scales *out*: N workers, each owning a share of
the registered models, standing in for each other when hosts crash.
:class:`ServingCluster` is that layer, driven entirely in simulated time
through the same surfaces as a single server: one engine
(``submit_batch`` / ``step_batch`` over
:class:`~repro.serving.columnar.RequestBatch` columns) and the
per-request protocol (``submit`` / ``step``) as a thin view over it, so
either load driver drives a cluster unchanged.

**Sharding.**  Every registered model is a shard, keyed by its name plus
a fingerprint of its bindings, placed on a consistent-hash ring
(:class:`~repro.serving.router.ClusterRouter`).  A shard has one primary
worker and ``replication - 1`` standby replicas; requests normally go to
the primary, so each worker's plan and forecast caches stay hot for its
own shards rather than every worker paging through every model.

**Failover.**  A seeded :class:`~repro.faults.plan.FaultPlan` (the
``machine_crashes`` schedule, keyed by worker name) crashes and restarts
workers.  The cluster's event loop processes crash boundaries exactly:
at a crash instant the dead worker is drained — every row it admitted
but never delivered (its queue plus the batch in service) comes back
from :meth:`~repro.serving.server.PredictionServer.drain` in admission
order and is re-routed to the shard's replicas — and routing skips it
until the restart instant, when it re-registers cold (forecast cache
invalidated, clock jumped over the downtime).  A replica's answer is *never silent*
about the transition: it is delivered with ``failover=True`` and a
quality tag degraded to at least ``stale``, because a standby serves the
migrated shard from standby-grade state.  The worst a client ever sees
is a typed :class:`~repro.serving.protocol.OverloadedResponse` — a
crash never surfaces as an error.

**Admission.**  A global token bucket meters the whole cluster before
per-worker queues apply their own bounds, so an aggregate overload sheds
at the front door with a ``retry_after`` hint instead of filling N
queues first.

**Elasticity.**  With an :class:`~repro.serving.elastic.ElasticConfig`
installed, an :class:`~repro.serving.elastic.Autoscaler` runs inside the
event loop at control-interval boundaries: its placement policy (static,
load-adaptive, or forecast-aware over an internal NWS load feed) votes a
fleet size, and the cluster orders new workers (live after a
``provision_time`` cold start, joining the ring with a sticky-primary
rebalance) or gracefully drains existing ones (off the ring first so new
arrivals route elsewhere, then a grace period to finish the queue, then
forced migration of the remainder through the same failover machinery a
crash uses — so a migrated answer is tagged and degraded, never silently
wrong).  A worker that *crashes while draining* is migrated once by the
crash path and retired on the spot, so it can neither double-deliver nor
resurrect at the fault window's end.  With ``elastic=None`` (the
default) none of this code runs and the cluster is bit-identical to the
fixed-fleet version, golden traces included.

**Observability.**  The cluster keeps its own metrics registry
(cluster-wide latency/queue-depth exact-quantile histograms, failover /
shard-migration / crash counters) and ``snapshot()`` merges per-worker
histograms into exact cluster-wide views
(:meth:`~repro.serving.metrics.Histogram.merged`), all JSON-ready.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from repro.faults.plan import FaultPlan
from repro.nws.service import QUALITIES, NetworkWeatherService
from repro.obs.tracer import STAGE_CLUSTER, STAGE_ELASTIC, as_tracer
from repro.serving.admission import TokenBucket
from repro.serving.columnar import REASONS, RequestBatch, ResponseBatch, Tables
from repro.serving.elastic import Autoscaler, ElasticConfig
from repro.serving.forecasts import SharedRefreshLedger
from repro.serving.metrics import Histogram, MetricsRegistry, _sanitise
from repro.serving.protocol import (
    SHED_DEADLINE,
    SHED_THROTTLED,
    SHED_UNAVAILABLE,
    PredictRequest,
    Response,
)
from repro.serving.router import ClusterRouter, bindings_fingerprint
from repro.serving.server import (
    _BATCH_BUCKETS,
    _ST_OVERLOADED,
    ModelSpec,
    PredictionServer,
    ServerConfig,
    _in_row_order,
    _unanswered,
    rejection_errors,
    validate_rows,
)
from repro.structural.engine import plan_cache_stats
from repro.util.rng import as_generator

__all__ = ["ClusterConfig", "ServingCluster"]

#: Queue-depth histogram bucket bounds (requests waiting per worker).
_DEPTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Shed-reason codes the cluster itself answers with.
_THROTTLED = REASONS.index(SHED_THROTTLED)
_DEADLINE = REASONS.index(SHED_DEADLINE)
_UNAVAILABLE = REASONS.index(SHED_UNAVAILABLE)


def _degraded(quality: str, floor: str = "stale") -> str:
    """``quality`` degraded to at least ``floor`` (never upgraded)."""
    return QUALITIES[max(QUALITIES.index(quality), QUALITIES.index(floor))]


def _keys(rows) -> list[tuple[int, int]]:
    """``(client code, request_id)`` of every row: the key a request is known by."""
    return list(zip(rows.client.tolist(), rows.request_id.tolist()))


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-level knobs (per-worker knobs live in ``worker``).

    Attributes
    ----------
    n_workers:
        Number of :class:`~repro.serving.server.PredictionServer`
        workers.
    replication:
        Owners per shard: the primary plus standby replicas that take
        the shard over when the primary crashes.
    vnodes:
        Virtual nodes per worker on the consistent-hash ring.
    cluster_rate, cluster_burst:
        Global token bucket over the whole cluster, metered in requests
        per simulated second; ``cluster_rate=0`` disables it (the
        default — per-worker queue bounds still apply).
    worker:
        The :class:`~repro.serving.server.ServerConfig` every worker
        runs with.
    """

    n_workers: int = 4
    replication: int = 2
    vnodes: int = 64
    cluster_rate: float = 0.0
    cluster_burst: float = 64.0
    worker: ServerConfig = field(default_factory=ServerConfig)

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")
        if self.cluster_rate < 0.0:
            raise ValueError(f"cluster_rate must be >= 0, got {self.cluster_rate}")
        if self.cluster_burst < 1.0:
            raise ValueError(f"cluster_burst must be >= 1, got {self.cluster_burst}")


class ServingCluster:
    """N sharded prediction workers behind one submit/step surface.

    Parameters
    ----------
    nws:
        The shared live weather service all workers consult (telemetry
        is a deployment-wide substrate; what is per-worker is the
        *cache view* of it).
    config:
        Cluster and per-worker knobs.
    faults:
        Optional fault schedule; ``machine_crashes`` entries keyed by
        worker name (``worker-0`` ... ``worker-N-1``) crash and restart
        workers.  ``None`` runs a perfectly healthy cluster.
    rng:
        Seed; each worker draws from an independent child generator so
        per-worker sampling is stable under cluster-size changes.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`, shared with every
        worker: routing decisions, failover migrations and deliveries
        then record spans (stage ``cluster``) alongside the workers'
        serving spans, so a failover hop is visible end to end.
        ``None`` (default) traces nothing and changes nothing.
    elastic:
        Optional :class:`~repro.serving.elastic.ElasticConfig`; installs
        an autoscaler that adds and drains workers at runtime under the
        configured placement policy.  ``None`` (default) keeps the fleet
        fixed — the event loop then takes no elastic branches and stays
        bit-identical to the pre-elastic cluster.
    """

    def __init__(
        self,
        nws: NetworkWeatherService,
        *,
        config: ClusterConfig | None = None,
        faults: FaultPlan | None = None,
        rng=None,
        tracer=None,
        elastic: ElasticConfig | None = None,
    ):
        self.nws = nws
        self.config = config if config is not None else ClusterConfig()
        self.faults = faults if faults is not None else FaultPlan.none()
        self.ledger = SharedRefreshLedger()
        # One set of string tables for the whole deployment, shared with
        # every worker like the forecast ledger.
        self.tables = Tables()
        self.metrics = MetricsRegistry()
        self.tracer = as_tracer(tracer)

        gen = as_generator(rng)
        children = gen.spawn(self.config.n_workers)
        # Kept for elastic scale-ups: each new worker draws the next
        # child stream, so the first n_workers draws above — and with
        # them every seeded golden — are untouched by elasticity.
        self._gen = gen
        self.workers = {
            f"worker-{i}": self._new_worker(children[i]) for i in range(self.config.n_workers)
        }
        self.router = ClusterRouter(
            self.workers, replication=self.config.replication, vnodes=self.config.vnodes
        )

        self._clock = nws.now
        self._up = {name: not self.faults.machine_down(name, self._clock) for name in self.workers}
        self._bucket = (
            TokenBucket(self.config.cluster_rate, self.config.cluster_burst, now=self._clock)
            if self.config.cluster_rate > 0.0
            else None
        )
        self._shards: dict[str, str] = {}  # model name -> shard key
        self._models: dict[str, ModelSpec] = {}
        self._truths: dict[str, ModelSpec | None] = {}
        # Keys of rows routed to a standby (or re-routed off a drained
        # worker) that are still in flight: their answers are delivered
        # with failover=True and a degraded quality tag.
        self._failover: set[tuple[int, int]] = set()

        # Elastic state.  All empty/inert when elasticity is off.
        self.elastic = elastic
        self._next_worker_idx = self.config.n_workers
        self._provisioning: list[tuple[str, PredictionServer, float]] = []
        self._draining: dict[str, float] = {}  # name -> force deadline
        self.shard_arrivals: dict[str, int] = {}
        self.autoscaler = Autoscaler(self, elastic) if elastic is not None else None

        for name in (
            "requests_total",
            "responses_ok",
            "shed_total",
            "errors_total",
            "failovers_total",
            "requeued_total",
            "shard_migrations_total",
            "worker_crashes_total",
            "worker_recoveries_total",
            "scale_ups_total",
            "scale_downs_total",
            "workers_retired_total",
        ):
            self.metrics.counter(name)
        self.metrics.histogram("latency_s")
        self.metrics.histogram("worker_queue_depth", _DEPTH_BUCKETS)
        self.metrics.gauge("workers_up").set(sum(self._up.values()))

    def _new_worker(self, rng, clock: float | None = None) -> PredictionServer:
        """A worker on the cluster's forecast ledger, tracer and string tables."""
        server = PredictionServer(
            self.nws,
            config=self.config.worker,
            rng=rng,
            forecast_ledger=self.ledger,
            tracer=self.tracer,
            clock=clock,
        )
        server.tables = self.tables
        return server

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_model(self, spec: ModelSpec, *, truth: ModelSpec | None = None) -> None:
        """Register ``spec`` cluster-wide and place its shard.

        Every worker registers the model (any of them may have to stand
        in as a replica), but routing sends its traffic to the shard's
        owners, so only they keep its working set hot.  ``truth`` is
        forwarded to each worker's calibration loop (see
        :meth:`PredictionServer.register_model`).
        """
        if spec.name in self._shards:
            raise ValueError(f"model {spec.name!r} already registered")
        for worker in self.workers.values():
            worker.register_model(spec, truth=truth)
        for _, server, _ in self._provisioning:
            server.register_model(spec, truth=truth)
        self._models[spec.name] = spec
        self._truths[spec.name] = truth
        shard = f"{spec.name}|{bindings_fingerprint(spec.bindings)}"
        self._shards[spec.name] = shard
        self.router.owners(shard)  # place eagerly, in registration order
        self.metrics.gauge("models_registered").set(len(self._shards))

    @property
    def models(self) -> list[str]:
        """Registered model names, sorted."""
        return sorted(self._shards)

    @property
    def now(self) -> float:
        """Simulated time the cluster event loop has been stepped to."""
        return self._clock

    @property
    def queue_depth(self) -> int:
        """Requests admitted and waiting across all workers."""
        return sum(w.queue_depth for w in self.workers.values())

    @property
    def healthy_workers(self) -> list[str]:
        """Names of workers currently up, sorted."""
        return sorted(name for name, up in self._up.items() if up)

    @property
    def routable_workers(self) -> list[str]:
        """Workers both on the ring and up — the real serving capacity.

        Excludes crashed workers (on the ring, not serving) and
        draining ones (serving their remainder, off the ring); this is
        the count autoscaling policies size against.
        """
        return [n for n in self.router.workers if self._up.get(n, False)]

    def owners(self, model: str) -> tuple[str, ...]:
        """The owner list (primary first) of ``model``'s shard."""
        return self.router.owners(self._shards[model])

    # ------------------------------------------------------------------
    # The per-request protocol: a view over the batch engine
    # ------------------------------------------------------------------
    def submit(self, request: PredictRequest) -> Response | None:
        """A one-row :meth:`submit_batch`: ``None`` means admitted."""
        immediate = self.submit_batch(self.tables.batch([request]))
        return immediate.response(0) if len(immediate) else None

    def step(self, to: float) -> list[Response]:
        """:meth:`step_batch`, with the answers as typed response objects."""
        return self.step_batch(to).to_responses()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit_batch(self, batch: RequestBatch) -> ResponseBatch:
        """Validate, meter and route a whole :class:`RequestBatch`.

        Every row is checked once, here, against the input contract
        (:func:`~repro.serving.server.validate_rows`), which also
        re-codes the batch onto the cluster's string tables: a malformed
        row gets its own ``ErrorResponse`` and never reaches a worker.
        Valid rows pass the cluster token bucket, then route with one
        decision per *distinct* model, and each target worker admits its
        rows without validating them again.  Returns the immediate
        responses (errors, cluster and worker sheds) in row order;
        admitted rows are answered by :meth:`step_batch`.
        """
        n = len(batch)
        if n == 0:
            return ResponseBatch.empty()
        self.metrics.counter("requests_total").inc(n)
        batch, rejected = validate_rows(batch, self._models, self.tables)
        at = np.maximum(batch.submitted, self._clock)
        shed = np.zeros(n, dtype=np.int8)
        parts: list = []
        if rejected:
            parts.append(rejection_errors(batch, rejected, self._clock, self.tables.workers))
            shed[parts[0][0]] = -1  # answered: neither routed nor shed
        valid = batch.model[shed == 0] if rejected else batch.model
        for code, count in Counter(valid.tolist()).items():
            shard = self._shards[batch.models[code]]
            self.shard_arrivals[shard] = self.shard_arrivals.get(shard, 0) + count
        if self._bucket is not None:
            for i in np.flatnonzero(shed == 0).tolist():
                if not self._bucket.allow(float(at[i])):
                    shed[i] = _THROTTLED
        self._dispatch(batch, at, shed, self._healthy_set(), parts, requeue=False)
        return self._account(_in_row_order(parts))

    def _dispatch(
        self, batch: RequestBatch, at, shed, healthy: set, parts: list, *, requeue: bool
    ) -> np.ndarray:
        """Route every row whose ``shed`` code is 0; shed the positive ones.

        ``shed`` holds a :data:`~repro.serving.columnar.REASONS` code per
        row (negative: already answered); rows whose shard has no owner
        in ``healthy`` are shed ``unavailable`` in place.  Routing is one
        decision per distinct model, and each target worker admits its
        validated rows by row index.  Rows routed to a standby — and
        every requeued row — keep a failover mark until delivered.  Each
        shed row's ``retry_after`` reads the cluster queue depth at its
        own position in row order.  Appends ``(rows, responses)`` parts
        to ``parts``; returns the mask of routed rows.
        """
        n = len(batch)
        live = shed == 0
        target = np.full(n, -1)
        names: list[str] = []
        failover = np.zeros(n, dtype=bool)
        for code in dict.fromkeys(batch.model[live].tolist()):
            rows = live & (batch.model == code)
            name, standby = self.router.route(self._shards[batch.models[code]], healthy)
            if name is None:
                shed[rows] = _UNAVAILABLE
                continue
            if name not in names:
                names.append(name)
            target[rows] = names.index(name)
            failover[rows] = standby or requeue
        routed = target >= 0
        sheds = np.flatnonzero(shed > 0)
        depth = self.queue_depth if len(sheds) else 0
        if self.tracer.enabled:
            for i in np.flatnonzero(routed).tolist():
                t = float(at[i])
                self.tracer.start_span(
                    "cluster.route",
                    t,
                    stage=STAGE_CLUSTER,
                    new_trace=not requeue,
                    request_id=int(batch.request_id[i]),
                    client_id=batch.clients[batch.client[i]],
                    shard=self._shards[batch.models[batch.model[i]]],
                    target=names[target[i]],
                    failover=bool(failover[i]),
                ).finish(t)

        admitted = routed.copy()
        for k, name in enumerate(names):
            part = self.workers[name]._admit(batch, np.flatnonzero(target == k), {})
            if part is not None:
                rows, immediate = part
                admitted[rows] = False
                parts.append((rows, immediate.with_worker(name)))
        marked = failover & admitted
        if marked.any():
            self._failover.update(_keys(batch.select(marked)))

        if len(sheds):
            up = [worker for w, worker in self.workers.items() if self._up[w]]
            capacity = sum(worker.config.drain_rate() for worker in up)
            ahead = (depth + np.cumsum(admitted) - admitted)[sheds]
            retry = ahead / capacity if capacity > 0.0 else float("inf")
            answers = _unanswered(
                batch.select(sheds),
                self.tables.workers,
                _ST_OVERLOADED,
                at[sheds],
                reason=shed[sheds],
                retry_after=retry,
            )
            parts.append((sheds, answers))
        return routed

    def _healthy_set(self) -> set:
        return {name for name, up in self._up.items() if up}

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------
    def step_batch(self, to: float) -> ResponseBatch:
        """Run every worker's event loop up to ``to``, with failover.

        Crash and restart instants, autoscaler control ticks, worker
        ready times and drain deadlines inside the window are processed
        exactly: workers are stepped segment by segment between those
        boundaries, a worker crossing into a crash window is drained
        (its undelivered rows re-route to replicas), and one crossing
        out is restarted cold.  Answers come back in completion order
        (stable: ties keep fleet order within a segment) with worker
        attribution and failover tagging applied.
        """
        if to < self._clock:
            raise ValueError(f"cannot step the cluster backwards from {self._clock} to {to}")
        parts: list[ResponseBatch] = []
        controls = (
            set(self.autoscaler.control_times(self._clock, to))
            if self.autoscaler is not None
            else ()
        )
        for t in self._boundaries(self._clock, to, controls):
            for name, worker in self.workers.items():
                if self._up[name]:
                    delivered = worker.step_batch(t)
                    if len(delivered):
                        parts.append(self._deliver(name, delivered))
            if self._provisioning:
                self._commission_ready(t)
            self._apply_transitions(t, parts)
            if self._draining:
                self._finalize_drains(t, parts)
            if self.autoscaler is not None and t in controls:
                self.autoscaler.control(t)
            self._clock = t
        depth_hist = self.metrics.histogram("worker_queue_depth", _DEPTH_BUCKETS)
        for name, worker in self.workers.items():
            if self._up[name]:
                depth_hist.observe(worker.queue_depth)
        return ResponseBatch.concat(parts).sorted_by_completion()

    def _boundaries(self, t0: float, t1: float, extra=()) -> list[float]:
        """Event instants in ``(t0, t1]``, ending with ``t1``.

        Fault edges always cut; with elasticity enabled, autoscaler
        control ticks (``extra``), worker ready times and drain
        deadlines cut too, so commissions, retirements and scaling
        decisions all land at their exact simulated instants.
        """
        cuts = set()
        for name in self.workers:
            for outage in self.faults.machine_crashes.get(name, ()):
                for edge in (outage.start, outage.end):
                    if t0 < edge <= t1:
                        cuts.add(edge)
        cuts.update(e for e in extra if t0 < e <= t1)
        cuts.update(r for _, _, r in self._provisioning if t0 < r <= t1)
        cuts.update(d for d in self._draining.values() if t0 < d <= t1)
        out = sorted(cuts)
        if not out or out[-1] != t1:
            out.append(t1)
        return out

    def _apply_transitions(self, t: float, parts: list) -> None:
        """Crash/restart workers whose fault state flips at ``t``.

        A worker that crashes *while draining* is a special case: the
        crash path migrates its undelivered work exactly once (the
        worker's drain hands it over and forgets it, so the drain
        finalizer cannot see those rows again), and the worker is
        retired immediately — it is already off the ring, and letting
        the fault window's end "restart" a retired worker would
        resurrect a ghost no request can ever route to.
        """
        for name, worker in list(self.workers.items()):
            down_now = self.faults.machine_down(name, t)
            if down_now and self._up[name]:
                self._up[name] = False
                self.metrics.counter("worker_crashes_total").inc()
                self._evacuate(name, t, self._healthy_set(), parts)
                if name in self._draining:
                    self._retire(name, t, reason="crashed_while_draining")
            elif not down_now and not self._up[name]:
                worker.restart(t)
                self._up[name] = True
                self.metrics.counter("worker_recoveries_total").inc()
        self.metrics.gauge("workers_up").set(sum(self._up.values()))

    def _evacuate(self, name: str, t: float, healthy: set, parts: list, **attrs) -> None:
        """Drain worker ``name`` and re-route what it had not delivered.

        Rows come back from the worker's drain in admission order and
        are requeued in that order: a row whose deadline passed
        *strictly* before ``t`` is shed ``deadline`` (the inclusive
        boundary of worker-side shedding — a deadline equal to the
        migration instant is still servable), one whose shard has no
        owner in ``healthy`` is shed ``unavailable``, and the rest are
        routed with a failover mark.  With tracing, the migration is a
        ``cluster.failover`` span parenting each re-route's
        ``cluster.route`` span.
        """
        rows = self.workers[name].drain()
        if self._failover:
            self._failover.difference_update(_keys(rows))
        shed = np.where(rows.deadline < t, _DEADLINE, 0).astype(np.int8)
        out: list = []
        with self.tracer.span(
            "cluster.failover",
            t,
            stage=STAGE_CLUSTER,
            new_trace=True,
            worker=name,
            stranded=len(rows),
            **attrs,
        ) as sp:
            routed = self._dispatch(rows, np.full(len(rows), t), shed, healthy, out, requeue=True)
            requeued = int(routed.sum())
            sp.set(requeued=requeued, shed=len(rows) - requeued)
        self.metrics.counter("requeued_total").inc(requeued)
        self.metrics.counter("shard_migrations_total").inc(len(np.unique(rows.model[routed])))
        parts.append(self._account(_in_row_order(out)))

    # ------------------------------------------------------------------
    # Elastic membership
    # ------------------------------------------------------------------
    @property
    def provisioning_count(self) -> int:
        """Workers ordered but not yet routable."""
        return len(self._provisioning)

    @property
    def draining_workers(self) -> list[str]:
        """Names of workers currently draining toward retirement, sorted."""
        return sorted(self._draining)

    def order_worker(self, t: float, *, provenance: dict | None = None) -> str:
        """Order one new worker at time ``t``; it joins the ring after
        the configured provision time.

        The newcomer draws the *next* child generator from the cluster's
        seed stream — the original ``n_workers`` draws are untouched, so
        enabling elasticity never perturbs the seeded behaviour of the
        starting fleet.  Returns the new worker's name.
        """
        if self.elastic is None:
            raise RuntimeError("order_worker needs an ElasticConfig installed")
        name = f"worker-{self._next_worker_idx}"
        self._next_worker_idx += 1
        ready = t + self.elastic.provision_time
        server = self._new_worker(self._gen.spawn(1)[0], ready)
        for model, spec in self._models.items():
            server.register_model(spec, truth=self._truths[model])
        self._provisioning.append((name, server, ready))
        self.metrics.counter("scale_ups_total").inc()
        if self.tracer.enabled:
            self.tracer.start_span(
                "elastic.scale_up",
                t,
                stage=STAGE_ELASTIC,
                new_trace=True,
                worker=name,
                ready_at=ready,
                **(provenance or {}),
            ).finish(t)
        return name

    def _commission_ready(self, t: float) -> None:
        """Join every provisioned worker whose ready time has arrived."""
        ready_now = [p for p in self._provisioning if p[2] <= t]
        if not ready_now:
            return
        self._provisioning = [p for p in self._provisioning if p[2] > t]
        for name, server, _ in ready_now:
            self.workers[name] = server
            self._up[name] = not self.faults.machine_down(name, t)
            moves = self.router.add_worker(name)
            primaries_moved = sum(1 for m in moves if m.primary_moved)
            self.metrics.counter("shard_migrations_total").inc(primaries_moved)
            if self.tracer.enabled:
                self.tracer.start_span(
                    "elastic.rebalance",
                    t,
                    stage=STAGE_ELASTIC,
                    new_trace=True,
                    worker=name,
                    joined=True,
                    shards_moved=len(moves),
                    primaries_moved=primaries_moved,
                ).finish(t)
        self.metrics.gauge("workers_up").set(sum(self._up.values()))

    def drain_candidate(self) -> str | None:
        """The worker a scale-down should retire, or ``None``.

        Candidates are up, routable, and not already draining; among
        them the one holding the fewest primaries goes first (least
        traffic to migrate), with the highest worker index breaking
        ties (retire the newest).  ``None`` when at most one routable
        worker remains — the ring never empties.
        """
        candidates = [
            name
            for name in self.router.workers
            if name in self.workers and self._up[name] and name not in self._draining
        ]
        if len(candidates) < 2:
            return None
        counts = self.router.primary_counts()

        def rank(name: str) -> tuple:
            return (counts.get(name, 0), -int(name.rsplit("-", 1)[1]))

        return min(candidates, key=rank)

    def begin_drain(
        self, name: str, t: float, *, grace: float | None = None, provenance: dict | None = None
    ) -> None:
        """Start retiring ``name`` gracefully at time ``t``.

        The worker leaves the ring immediately — new arrivals route to
        the rebalanced owners — but keeps serving its queue for
        ``grace`` seconds (default: the elastic config's
        ``drain_grace``).  Whatever it has not answered by the deadline
        is force-migrated through the failover machinery, tagged and
        degraded like any other migrated answer.
        """
        if name not in self.workers or name not in self.router.workers:
            raise ValueError(f"worker {name!r} is not a routable cluster member")
        if name in self._draining:
            raise ValueError(f"worker {name!r} is already draining")
        if not self._up[name]:
            raise ValueError(f"worker {name!r} is down; crash migration already covers it")
        if grace is None:
            if self.elastic is None:
                raise ValueError("grace is required when no ElasticConfig is installed")
            grace = self.elastic.drain_grace
        moves = self.router.remove_worker(name)
        primaries_moved = sum(1 for m in moves if m.primary_moved)
        self.metrics.counter("shard_migrations_total").inc(primaries_moved)
        self.metrics.counter("scale_downs_total").inc()
        self._draining[name] = t + grace
        if self.tracer.enabled:
            self.tracer.start_span(
                "elastic.scale_down",
                t,
                stage=STAGE_ELASTIC,
                new_trace=True,
                worker=name,
                deadline=t + grace,
                shards_moved=len(moves),
                primaries_moved=primaries_moved,
                **(provenance or {}),
            ).finish(t)

    def _finalize_drains(self, t: float, parts: list) -> None:
        """Retire draining workers that emptied out or hit their deadline.

        Pending work is whatever the worker holds *at the moment of
        retirement* — never a snapshot taken at drain start — so a
        request it answered during the grace period can never also be
        re-routed, and one it did not answer is handed over by its
        drain exactly once.
        """
        for name in list(self._draining):
            if not self.workers[name].in_flight:
                self._retire(name, t, reason="drained_clean")
            elif t >= self._draining[name]:
                self._evacuate(
                    name, t, self._healthy_set() - {name}, parts, drain_deadline=True
                )
                self._retire(name, t, reason="drain_deadline")

    def _retire(self, name: str, t: float, *, reason: str) -> None:
        """Remove a drained (or crashed-while-draining) worker for good."""
        self.workers.pop(name)
        self._up.pop(name, None)
        self._draining.pop(name, None)
        self.metrics.counter("workers_retired_total").inc()
        self.metrics.gauge("workers_up").set(sum(self._up.values()))
        if self.tracer.enabled:
            self.tracer.start_span(
                "elastic.retire",
                t,
                stage=STAGE_ELASTIC,
                new_trace=True,
                worker=name,
                reason=reason,
            ).finish(t)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver(self, name: str, rb: ResponseBatch) -> ResponseBatch:
        """Stamp worker attribution and failover degradation; account.

        A delivered row carrying a failover mark loses it; if answered,
        it is tagged ``failover=True`` and its quality degraded to at
        least ``stale``.  With tracing, each row records a
        ``cluster.deliver`` span.
        """
        rb = rb.with_worker(name)
        marked = np.zeros(len(rb), dtype=bool)
        if self._failover:
            keys = _keys(rb)
            marked = np.fromiter((k in self._failover for k in keys), bool, len(keys))
            self._failover.difference_update(k for k, m in zip(keys, marked) if m)
            answered = np.flatnonzero(marked & rb.ok_mask).tolist()
            if answered:
                # rb shares its value columns with the worker's answer:
                # retag a copy of the quality column.
                rb.quality = rb.quality.copy()
                messages = list(rb.messages or (None,) * len(rb))
                for i in answered:
                    resp = rb.response(i)
                    quality = _degraded(resp.quality)
                    messages[i] = replace(resp, failover=True, quality=quality)
                    rb.quality[i] = QUALITIES.index(quality)
                rb.messages = tuple(messages)
                self.metrics.counter("failovers_total").inc(len(answered))
        if self.tracer.enabled:
            for i, resp in enumerate(rb):
                attrs = {"quality": resp.quality} if resp.ok else {}
                self.tracer.start_span(
                    "cluster.deliver",
                    resp.completed,
                    stage=STAGE_CLUSTER,
                    new_trace=True,
                    request_id=resp.request_id,
                    client_id=resp.client_id,
                    worker=name,
                    failover=bool(marked[i]),
                    status=resp.status,
                    **attrs,
                ).finish(resp.completed)
        return self._account(rb)

    def _account(self, rb: ResponseBatch) -> ResponseBatch:
        """Count a batch of final responses in the cluster metrics."""
        if not len(rb):
            return rb
        counts = rb.status_counts()
        if counts["ok"]:
            self.metrics.counter("responses_ok").inc(counts["ok"])
            for quality, c in rb.quality_counts().items():
                self.metrics.counter(f"quality_{quality}").inc(c)
            self.metrics.histogram("latency_s").observe_many(rb.latency[rb.ok_mask])
        if counts["overloaded"]:
            self.metrics.counter("shed_total").inc(counts["overloaded"])
            for reason, c in rb.reason_counts().items():
                self.metrics.counter(f"shed_{reason}").inc(c)
        if counts["error"]:
            self.metrics.counter("errors_total").inc(counts["error"])
        return rb

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def calibration_summary(self) -> dict | None:
        """Cluster-wide calibration scores, merged across workers.

        Per-model scores fold exactly (counts add; rolling windows
        concatenate in worker-name order); recalibration scales are
        reported per worker — each worker controls its own shard
        traffic — alongside the worst (widest) scale per model, and
        events carry their originating ``worker``.  Any answers still
        queued for deferred scoring are flushed first, so end-of-run
        reports cover everything that was served.  Returns ``None``
        when calibration is off.
        """
        from repro.calib.scorer import CalibrationScorer

        loops = {
            name: w.calib for name, w in sorted(self.workers.items()) if w.calib is not None
        }
        scorers = []
        for lp in loops.values():
            lp.flush()
            if lp.scorer is not None:
                scorers.append(lp.scorer)
        if not scorers:
            return None
        doc: dict = {
            "scores": CalibrationScorer.merged(scorers).summary(),
            "truth_spread_scale": next(iter(loops.values())).config.truth_spread_scale,
        }
        scales: dict[str, float] = {}
        flagged: set[str] = set()
        events: list[dict] = []
        for name, lp in loops.items():
            if lp.recalibrator is None:
                continue
            summary = lp.recalibrator.summary()
            events.extend({**e, "worker": name} for e in summary["events"])
            flagged.update(summary["flagged"])
            for model, scale in summary["scales"].items():
                scales[model] = max(scales.get(model, 1.0), scale)
        doc["recalibration"] = {
            "scales": dict(sorted(scales.items())),
            "flagged": sorted(flagged),
            "events": events,
            "per_worker": {
                name: lp.recalibrator.summary()["scales"]
                for name, lp in loops.items()
                if lp.recalibrator is not None
            },
        }
        return doc

    def snapshot(self) -> dict:
        """Cluster-wide operational state, JSON-serialisable.

        Includes per-worker snapshots, the cluster's own metrics, shard
        placement, the shared-refresh ledger, and *exact* cluster-wide
        latency / batch-size quantiles merged from worker histograms.
        """
        merged_latency = Histogram.merged(
            "latency_s", (w.metrics.histogram("latency_s") for w in self.workers.values())
        )
        merged_batch = Histogram.merged(
            "batch_size",
            (w.metrics.histogram("batch_size", _BATCH_BUCKETS) for w in self.workers.values()),
        )
        aggregated = {
            "latency_s": merged_latency.stats(),
            "batch_size": merged_batch.stats(),
        }
        # Adaptive-sampling metrics exist only on workers that actually
        # served an adaptive batch; peek so the merge neither creates
        # empty histograms nor adds snapshot keys to fixed-budget runs.
        draws_hists = [
            h
            for w in self.workers.values()
            if (h := w.metrics.peek_histogram("draws_used")) is not None
        ]
        if draws_hists:
            aggregated["draws_used"] = Histogram.merged("draws_used", draws_hists).stats()
        calibration = self.calibration_summary()
        if calibration is not None:
            aggregated["calibration"] = calibration
        return _sanitise(
            {
                "now": self._clock,
                "workers": {
                    name: {
                        "up": self._up[name],
                        "queue_depth": worker.queue_depth,
                        "metrics": worker.metrics.snapshot(),
                        "forecast_cache": worker.forecasts.stats(),
                    }
                    for name, worker in self.workers.items()
                },
                "cluster": self.metrics.snapshot(),
                "aggregated": aggregated,
                "shards": self.router.placement(self._shards.values()),
                "forecast_ledger": self.ledger.stats(),
                "plan_cache": plan_cache_stats(),
                "in_flight": sum(w.in_flight for w in self.workers.values()),
                "elastic": None
                if self.autoscaler is None
                else {
                    **self.autoscaler.snapshot(),
                    "provisioning": [name for name, _, _ in self._provisioning],
                    "draining": sorted(self._draining),
                },
            }
        )
