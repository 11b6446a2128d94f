"""The benchmark's three serving workloads and the drive loop that feeds them.

Every workload is an open loop in simulated time: arrivals are a seeded
Poisson process drawn here, independent of how fast the system answers,
because the clients they model are independent.  The benchmark builds
its own ``RequestBatch`` columns or ``PredictRequest`` objects from the
seed and talks only to the public cluster surface
(``submit_batch``/``step_batch`` or ``submit``/``step``), so a rewrite of
the library's own load drivers cannot move the numbers.

One *pass* is: build a fresh deployment (:func:`setup`, timed as set-up),
then :func:`drive` its whole arrival schedule to the last answer (timed
as the drive).  A pass is fully determined by the workload and the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from repro.faults.plan import FaultPlan
from repro.obs import Tracer
from repro.serving import (
    DEFAULT_PRECISION_LADDER,
    AdmissionPolicy,
    CalibrationConfig,
    ClusterConfig,
    PredictRequest,
    RequestBatch,
    ServerConfig,
    demo_cluster,
)
from repro.serving.demo import DEMO_SIZES
from repro.serving.scenarios import SCENARIO_WORKER, load_scenario
from repro.sor.decomposition import equal_strips
from repro.structural.engine import clear_plan_cache, compile_expr
from repro.structural.repeaters import PrecisionTarget
from repro.structural.sor_model import SORModel, bindings_for_platform

import speed

#: Iterations of every demo SOR model (``repro.serving.demo`` registers
#: its models with this count); set-up compiles the shared plan with it.
DEMO_ITERATIONS = 20

#: The bare worker of the columnar soak: a small fixed draw budget and
#: big batches, where plumbing rather than math sets the pace.
BARE_WORKER = ServerConfig(
    n_samples=16, batch_max=512, admission=AdmissionPolicy(max_queue=8192)
)

#: Status codes of the answer columns (the order of
#: ``repro.serving.columnar.STATUSES``).
OK, OVERLOADED, ERROR = 0, 1, 2


@dataclass(frozen=True)
class Workload:
    """One named traffic mix against one deployment shape."""

    name: str
    why: str
    #: Simulated seconds of arrivals (the drive then runs to the last answer).
    duration: float
    #: Offered load, requests per simulated second.
    rate: float
    #: Simulated seconds per drive step.
    window: float
    #: Feed ``PredictRequest`` objects through ``submit``/``step`` instead
    #: of ``RequestBatch`` columns through ``submit_batch``/``step_batch``.
    per_request: bool
    clients: int
    #: Relative deadline in simulated seconds, ``None`` for none.
    deadline: float | None
    #: Relative model weights over the registered models (``None``: uniform).
    weights: tuple | None = None


# 2000 q/s keeps each model's primary worker at ~67% busy.  At 2500 q/s
# (84%) the batch loop is multistable: batches lock into one- or
# two-window sizes depending on the seed, and the simulated p50 swings
# between 0.38 s and 0.66 s from seed to seed.
STEADY = Workload(
    name="steady-columnar",
    why=(
        "bare 4-worker cluster at ~50% load through submit_batch/step_batch: "
        "the columnar fast path, with no calibration, precision, faults or tracing"
    ),
    duration=150.0,
    rate=2000.0,
    window=0.25,
    per_request=False,
    clients=8,
    deadline=None,
)

PRODUCTION = Workload(
    name="production-mix",
    why=(
        "the same cluster with calibration, p95:2% precision, a tracer, a worker "
        "crash, 5 s deadlines and 6:3:1 skew: every row takes the scalar path"
    ),
    duration=30.0,
    rate=400.0,
    window=0.1,
    per_request=False,
    clients=64,
    deadline=5.0,
    weights=(6.0, 3.0, 1.0),
)

RACK = Workload(
    name="rack-failure",
    why=(
        "the shipped rack-failure scenario fed one PredictRequest at a time: "
        "2 of 3 slow workers crash, admission sheds, the autoscaler reacts"
    ),
    duration=80.0,
    rate=200.0,
    window=0.05,
    per_request=True,
    clients=64,
    deadline=5.0,
)

WORKLOADS = {w.name: w for w in (STEADY, PRODUCTION, RACK)}

#: Production-mix crash window, seconds after the drive starts.  The
#: crashed worker is the primary of the hottest model's shard, so the
#: crash forces failover of the bulk of the traffic and a cold restart.
PRODUCTION_CRASH = ("worker-0", 10.0, 18.0)


@dataclass
class Deployment:
    """A freshly built cluster plus what the drive and report need."""

    cluster: object
    worker: ServerConfig
    tracer: Tracer | None


def _compile_first_plan(plat) -> None:
    """Compile the plan every demo model shares (the first plan compile)."""
    n = len(plat.machines)
    expression = SORModel(n_procs=n, iterations=DEMO_ITERATIONS).expression()
    bindings = bindings_for_platform(
        plat.machines, plat.network, equal_strips(DEMO_SIZES[0], n)
    )
    referenced = set(expression.params())
    compile_expr(expression, [p for p in bindings.runtime_names() if p in referenced])


def setup(workload: Workload, seed: int) -> Deployment:
    """Build the workload's deployment from scratch (cold plan cache)."""
    clear_plan_cache()
    tracer = None
    if workload is RACK:
        # Exactly as run_scenario builds it under the forecast policy,
        # with the benchmark seed in place of the scenario's own.
        scenario = load_scenario("rack-failure")
        worker = SCENARIO_WORKER
        cluster, plat, _ = demo_cluster(
            duration=scenario.warmup + scenario.duration + 120.0,
            sizes=scenario.sizes,
            config=ClusterConfig(
                n_workers=scenario.workers,
                replication=scenario.replication,
                worker=worker,
            ),
            faults=scenario.fault_plan(scenario.warmup),
            warmup=scenario.warmup,
            rng=seed,
            elastic=scenario.elastic_config("forecast"),
        )
    elif workload is PRODUCTION:
        worker = replace(
            BARE_WORKER,
            calibration=CalibrationConfig(),
            precision=PrecisionTarget.parse("p95:2%"),
            admission=replace(
                BARE_WORKER.admission, precision_ladder=DEFAULT_PRECISION_LADDER
            ),
        )
        warmup = 60.0
        name, down, up = PRODUCTION_CRASH
        tracer = Tracer()
        cluster, plat, _ = demo_cluster(
            config=ClusterConfig(n_workers=4, worker=worker),
            faults=FaultPlan.crashes({name: [(warmup + down, warmup + up)]}),
            warmup=warmup,
            rng=seed,
            tracer=tracer,
        )
    else:
        worker = BARE_WORKER
        cluster, plat, _ = demo_cluster(
            config=ClusterConfig(n_workers=4, worker=worker), rng=seed
        )
    _compile_first_plan(plat)
    return Deployment(cluster=cluster, worker=worker, tracer=tracer)


@dataclass
class Load:
    """A whole arrival schedule as columns (request ``i`` has id ``i``)."""

    submitted: np.ndarray
    deadline: np.ndarray
    model: np.ndarray
    models: tuple
    client: np.ndarray
    clients: tuple

    def __len__(self) -> int:
        return int(self.submitted.shape[0])


def make_load(workload: Workload, models, start: float, seed: int) -> Load:
    """The seeded open-loop arrival schedule for one pass."""
    rng = np.random.default_rng(seed)
    expected = int(workload.rate * workload.duration)
    gaps = rng.exponential(1.0 / workload.rate, size=expected + 8 * int(expected**0.5) + 64)
    times = start + np.cumsum(gaps)
    if times[-1] <= start + workload.duration:
        raise RuntimeError("arrival draw ended before the workload's duration")
    times = times[times <= start + workload.duration]
    n = times.shape[0]
    models = tuple(models)
    if workload.weights is None:
        model = rng.integers(0, len(models), size=n)
    else:
        w = np.asarray(workload.weights, dtype=float)
        model = rng.choice(len(models), size=n, p=w / w.sum())
    deadline = (
        np.full(n, np.inf) if workload.deadline is None else times + workload.deadline
    )
    client = np.arange(n) % workload.clients
    return Load(
        submitted=times,
        deadline=deadline,
        model=model.astype(np.int32),
        models=models,
        client=client.astype(np.int32),
        clients=tuple(f"client-{c}" for c in range(workload.clients)),
    )


def make_batch(load: Load, lo: int, hi: int) -> RequestBatch:
    """Rows ``lo:hi`` of the schedule as one ``RequestBatch``."""
    return RequestBatch(
        request_id=np.arange(lo, hi, dtype=np.int64),
        client=load.client[lo:hi],
        clients=load.clients,
        model=load.model[lo:hi],
        models=load.models,
        submitted=load.submitted[lo:hi],
        deadline=load.deadline[lo:hi],
    )


def make_requests(load: Load, lo: int, hi: int) -> list:
    """Rows ``lo:hi`` of the schedule as ``PredictRequest`` objects."""
    out = []
    for i in range(lo, hi):
        deadline = float(load.deadline[i])
        out.append(
            PredictRequest(
                request_id=i,
                client_id=load.clients[load.client[i]],
                model=load.models[load.model[i]],
                submitted=float(load.submitted[i]),
                deadline=None if deadline == np.inf else deadline,
            )
        )
    return out


@dataclass
class Drive:
    """What one timed drive produced: wall times and the raw answers."""

    #: Drive wall without the speed probes.
    wall_s: float
    window_wall_s: np.ndarray
    #: Wall time of the speed probe run after each window.
    probe_s: np.ndarray
    submitted: int
    batches: list  # ResponseBatch objects (columnar workloads)
    responses: list  # Response objects (per-request workloads)


#: Drain windows allowed after the last arrival before the drive gives
#: up; unanswered requests then fail the correctness check.
MAX_DRAIN_WINDOWS = 20_000


def drive(workload: Workload, cluster, load: Load) -> Drive:
    """Feed ``load`` window by window until every request is answered.

    Only ``submit`` plus ``step`` of each window is timed as the window
    wall; building the requests and keeping the answers fall inside the
    drive wall but outside the windows.  The speed probe after each
    window falls outside both.
    """
    n = len(load)
    window = workload.window
    times = load.submitted
    walls: list[float] = []
    probes: list[float] = []
    probing = 0.0
    batches: list = []
    responses: list = []
    answered = 0
    pos = 0
    now = cluster.now
    drain = 0
    clock = time.perf_counter
    t_drive = clock()
    while answered < n and drain <= MAX_DRAIN_WINDOWS:
        now += window
        hi = int(np.searchsorted(times, now, side="right")) if pos < n else n
        if workload.per_request:
            requests = make_requests(load, pos, hi) if hi > pos else ()
            t0 = clock()
            for req in requests:
                immediate = cluster.submit(req)
                if immediate is not None:
                    responses.append(immediate)
            stepped = cluster.step(now)
            walls.append(clock() - t0)
            responses.extend(stepped)
            answered = len(responses)
        else:
            batch = make_batch(load, pos, hi) if hi > pos else None
            t0 = clock()
            immediate = cluster.submit_batch(batch) if batch is not None else None
            stepped = cluster.step_batch(now)
            walls.append(clock() - t0)
            for rb in (immediate, stepped):
                if rb is not None and len(rb):
                    batches.append(rb)
                    answered += len(rb)
        t0 = clock()
        probes.append(speed.timed_probe())
        probing += clock() - t0
        if hi >= n and pos >= n:
            drain += 1
        pos = hi
    wall = clock() - t_drive - probing
    return Drive(
        wall_s=wall,
        window_wall_s=np.asarray(walls),
        probe_s=np.asarray(probes),
        submitted=n,
        batches=batches,
        responses=responses,
    )
