"""Soak + microbench gates for the columnar serving hot path.

Not a paper artifact — the performance contract of the struct-of-arrays
refactor (``repro.serving.columnar``, ``docs/serving.md``):

* **Microbench** — the same single-server Platform 1 deployment is
  driven with the same open-loop Poisson workload through the columnar
  surface (:class:`~repro.serving.driver.ColumnarLoadDriver`, arrivals
  built directly as ``RequestBatch`` columns) and through the
  per-request protocol (:class:`~repro.serving.driver.LoadDriver`, one
  ``PredictRequest`` dataclass per submission), as :data:`MICRO_PAIRS`
  interleaved pairs.  Both surfaces feed the same engine, so their
  ratio no longer measures a second code path; the per-request QPS is
  reported, not gated.  The columnar leg is gated twice: on an absolute
  wall-QPS floor (an environment-wide slowdown still fails loudly) and
  on its **plumbing share** — the fraction of its wall time spent
  *outside* plan evaluation (``CompiledExpr.evaluate``) and parameter
  sampling (``PredictionServer._draw``), both timed with
  ``perf_counter`` by wrappers installed here.  A uniformly slower
  machine slows math and plumbing alike, so the share is robust across
  machines where a raw QPS ratio is not; a regression in admission,
  batching or delivery raises it.  The 100k wall-QPS design target is
  measured and reported (``meets_target_qps``).
* **Soak** — :data:`SOAK_REQUESTS` requests (1M by default; CI's
  ``soak-smoke`` job scales down via ``REPRO_SOAK_REQUESTS``) flow
  through a 4-worker sharded cluster in one run.  Delivery must be
  *provably lossless*: the driver checks every ``request_id`` off a
  bitmap, and the gate is zero lost and zero duplicate answers.  A
  wall-QPS step summary (cumulative throughput at each progress mark)
  lands in ``benchmarks/out/BENCH_soak.json``.
* **Fault + elastic soak** — :data:`FAULT_SOAK_REQUESTS` requests
  through the same cluster with an autoscaler installed and one crash
  window on a busy primary, so crash migration, failover delivery and
  elastic membership run at soak scale.  Same lossless gate; its
  wall-QPS is reported next to the bare soak's, not gated.

Everything runs in simulated time, so shed/latency numbers are
deterministic per seed; only the wall-clock throughput depends on the
machine.
"""

import json
import os
import time
from contextlib import contextmanager

from conftest import emit

from repro.faults import FaultPlan
from repro.serving import (
    AdmissionPolicy,
    ClusterConfig,
    ColumnarLoadDriver,
    ElasticConfig,
    LoadDriver,
    OpenLoop,
    ServerConfig,
    demo_cluster,
    demo_server,
    policy_by_name,
)
from repro.serving.server import PredictionServer
from repro.structural.engine import CompiledExpr
from repro.util.tables import format_table

SEED = 11
RATE = 900.0  # offered load, requests per simulated second (server capacity ~992/s)
MICRO_COLUMNAR_REQUESTS = 50_000
MICRO_SCALAR_REQUESTS = 5_000  # per-request leg, reported only (rate-based)
MICRO_PAIRS = 3  # interleaved (columnar, per-request) pairs; best share gated
# The plumbing-share bound is the worst of ten runs of this file's
# columnar leg, each in a fresh process, on the server as it stood just
# before its per-request event loop was folded into the columnar one
# (2-vCPU x86-64 host, Python 3.11, NumPy 2.x).  The ten shares:
BASELINE_PLUMBING_SHARES = (
    0.4053, 0.4143, 0.3992, 0.4019, 0.3905, 0.4123, 0.4000, 0.3839, 0.4011, 0.3971,
)
MAX_PLUMBING_SHARE = max(BASELINE_PLUMBING_SHARES)
TARGET_COLUMNAR_QPS = 100_000.0  # the design target, measured and reported
MIN_COLUMNAR_QPS = 25_000.0  # absolute wall-clock floor, deliberately conservative

SOAK_REQUESTS = int(os.environ.get("REPRO_SOAK_REQUESTS", "1000000"))
SOAK_RATE = 2500.0  # 4 workers x ~992/s capacity; comfortable headroom
FAULT_SOAK_REQUESTS = 100_000
FAULT_SOAK_CRASH = (10.0, 20.0)  # crash window, simulated seconds into the drive


def _server_config() -> ServerConfig:
    # Small fixed draw budget and big batches: the regime where object
    # plumbing, not math, dominates the per-request path.
    return ServerConfig(
        n_samples=16,
        batch_max=512,
        admission=AdmissionPolicy(max_queue=8192),
    )


def _leg(report, wall):
    return {
        "requests": report.submitted,
        "ok": report.ok,
        "shed": report.shed,
        "errors": report.errors,
        "latency_p50_s": report.latency_p50,
        "latency_p99_s": report.latency_p99,
        "qps_wall": report.qps_wall,
        "qps_sim": report.qps_sim,
        "wall_s": wall,
    }


class _MathClock:
    """Wall seconds spent inside plan evaluation and parameter sampling."""

    def __init__(self):
        self.seconds = 0.0

    def _timed(self, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds += clock() - t0

        return wrapper

    @contextmanager
    def installed(self):
        evaluate, draw = CompiledExpr.evaluate, PredictionServer._draw
        CompiledExpr.evaluate = self._timed(evaluate)
        PredictionServer._draw = self._timed(draw)
        try:
            yield self
        finally:
            CompiledExpr.evaluate, PredictionServer._draw = evaluate, draw


def _columnar_leg():
    server, _, _ = demo_server(config=_server_config(), rng=SEED)
    driver = ColumnarLoadDriver(
        server,
        server.models,
        rate=RATE,
        max_requests=MICRO_COLUMNAR_REQUESTS,
        rng=SEED,
    )
    with _MathClock().installed() as math:
        t0 = time.perf_counter()
        report = driver.run()
        wall = time.perf_counter() - t0
    return report, wall, (wall - math.seconds) / wall


def _scalar_leg():
    server, _, _ = demo_server(config=_server_config(), rng=SEED)
    driver = LoadDriver(
        server,
        server.models,
        OpenLoop(rate=RATE),
        max_requests=MICRO_SCALAR_REQUESTS,
        rng=SEED,
    )
    t0 = time.perf_counter()
    report = driver.run()
    return report, time.perf_counter() - t0


def test_columnar_microbench_plumbing_share(out_dir):
    # Interleaved (columnar, per-request) pairs, gating the best
    # columnar share — the bench_tracing idiom: the extreme over pairs
    # is robust against per-run scheduler noise while a genuine
    # plumbing regression still drags every pair over the bound.
    pairs = []
    for _ in range(MICRO_PAIRS):
        rep_c, wall_c, share = _columnar_leg()
        rep_s, wall_s = _scalar_leg()
        pairs.append((rep_c, wall_c, share, rep_s, wall_s))

    shares = [share for _, _, share, _, _ in pairs]
    best = min(range(len(pairs)), key=lambda i: shares[i])
    rep_c, wall_c, share, rep_s, wall_s = pairs[best]
    best_columnar_qps = max(c.qps_wall for c, _, _, _, _ in pairs)

    emit(
        f"Columnar vs per-request serving at {RATE:.0f} q/s offered "
        f"(seed {SEED}, best of {MICRO_PAIRS} pairs)",
        format_table(
            ["path", "requests", "ok", "p50 (s)", "wall q/s", "sim q/s"],
            [
                [name, r.submitted, r.ok, f"{r.latency_p50:.3f}",
                 f"{r.qps_wall:,.0f}", f"{r.qps_sim:,.0f}"]
                for name, r in (("columnar", rep_c), ("per-request", rep_s))
            ],
        )
        + f"\ncolumnar plumbing share: {share:.3f} (gate: <= {MAX_PLUMBING_SHARE:.3f}, "
        f"pairs: {', '.join(f'{x:.3f}' for x in shares)}), "
        f"columnar floor: >= {MIN_COLUMNAR_QPS:,.0f} q/s, "
        f"target: {TARGET_COLUMNAR_QPS:,.0f} q/s",
    )

    payload = {
        "seed": SEED,
        "rate": RATE,
        "pairs": MICRO_PAIRS,
        "columnar": _leg(rep_c, wall_c),
        "per_request": _leg(rep_s, wall_s),
        "plumbing_share": share,
        "plumbing_share_pairs": shares,
        "max_plumbing_share": MAX_PLUMBING_SHARE,
        "baseline_plumbing_shares": list(BASELINE_PLUMBING_SHARES),
        "min_columnar_qps": MIN_COLUMNAR_QPS,
        "target_columnar_qps": TARGET_COLUMNAR_QPS,
        "meets_target_qps": best_columnar_qps >= TARGET_COLUMNAR_QPS,
    }
    out = out_dir / "BENCH_soak.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["microbench"] = payload
    out.write_text(json.dumps(doc, indent=2))

    # Correctness riders: every leg answers everything, losslessly.
    for rep_ci, _, _, rep_si, _ in pairs:
        assert rep_ci.lost == 0 and rep_ci.duplicates == 0
        assert rep_ci.errors == 0 and rep_si.errors == 0
        assert rep_ci.ok + rep_ci.shed == MICRO_COLUMNAR_REQUESTS
        assert rep_si.ok + rep_si.shed == MICRO_SCALAR_REQUESTS

    assert share <= MAX_PLUMBING_SHARE
    assert best_columnar_qps >= MIN_COLUMNAR_QPS


def _soak(cluster, requests: int, title: str):
    """Drive ``requests`` through ``cluster``; emit the step summary.

    Returns the drive report and its ``BENCH_soak.json`` payload.
    """
    steps = []

    def progress(answered: int, wall: float) -> None:
        steps.append(
            {
                "answered": answered,
                "wall_s": round(wall, 3),
                "qps_wall": round(answered / wall) if wall > 0 else None,
            }
        )

    driver = ColumnarLoadDriver(
        cluster,
        cluster.models,
        rate=SOAK_RATE,
        max_requests=requests,
        rng=SEED,
        progress=progress,
        progress_every=max(1, requests // 10),
    )
    report = driver.run()

    emit(
        f"{title}: {requests:,} requests at {SOAK_RATE:.0f} q/s (seed {SEED})",
        format_table(
            ["answered", "wall (s)", "wall q/s"],
            [[f"{s['answered']:,}", s["wall_s"], f"{s['qps_wall']:,}"] for s in steps],
        )
        + f"\nok={report.ok:,} shed={report.shed:,} errors={report.errors} "
        f"lost={report.lost} duplicates={report.duplicates}\n"
        f"sim latency p50={report.latency_p50:.3f} s  p99={report.latency_p99:.3f} s",
    )

    payload = {
        "seed": SEED,
        "requests": requests,
        "rate": SOAK_RATE,
        "workers": cluster.config.n_workers,
        "ok": report.ok,
        "shed": report.shed,
        "errors": report.errors,
        "lost": report.lost,
        "duplicates": report.duplicates,
        "latency_p50_s": report.latency_p50,
        "latency_p99_s": report.latency_p99,
        "sim_duration_s": report.sim_duration,
        "wall_s": report.wall_seconds,
        "qps_wall": report.qps_wall,
        "qps_sim": report.qps_sim,
        "steps": steps,
    }
    return report, payload


def _record(out_dir, key: str, payload: dict) -> None:
    out = out_dir / "BENCH_soak.json"
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[key] = payload
    out.write_text(json.dumps(doc, indent=2))


def _assert_lossless(report, requests: int) -> None:
    assert report.submitted == requests
    assert report.lost == 0
    assert report.duplicates == 0
    assert report.errors == 0
    assert report.ok + report.shed == requests


def test_cluster_soak_lossless(out_dir):
    cluster, _, _ = demo_cluster(
        config=ClusterConfig(worker=_server_config()), rng=SEED
    )
    report, payload = _soak(cluster, SOAK_REQUESTS, "Cluster soak")
    _record(out_dir, "soak", payload)

    # The headline gate: a million answers, none lost, none duplicated.
    _assert_lossless(report, SOAK_REQUESTS)
    # Offered load sits under cluster capacity; nothing should shed.
    assert report.shed == 0


def test_fault_elastic_soak_lossless(out_dir):
    # The production features at soak scale: the same cluster with an
    # autoscaler and one crash of a busy primary mid-drive, so crash
    # migration, failover delivery and elastic membership all run on
    # the batch path.  Its wall-QPS is reported next to the bare soak's;
    # no ratio between the two is gated.
    probe, _, _ = demo_cluster(config=ClusterConfig(worker=_server_config()), rng=SEED)
    victim = probe.owners(probe.models[0])[0]
    down, up = probe.now + FAULT_SOAK_CRASH[0], probe.now + FAULT_SOAK_CRASH[1]
    cluster, _, _ = demo_cluster(
        config=ClusterConfig(worker=_server_config()),
        faults=FaultPlan.crashes({victim: [(down, up)]}),
        elastic=ElasticConfig(policy=policy_by_name("reactive"), min_workers=4, max_workers=6),
        rng=SEED,
    )
    report, payload = _soak(cluster, FAULT_SOAK_REQUESTS, "Fault + elastic cluster soak")
    counters = cluster.metrics.snapshot()["counters"]
    payload["crash"] = {"worker": victim, "down": down, "up": up}
    payload["counters"] = {
        k: counters[k]
        for k in (
            "worker_crashes_total",
            "requeued_total",
            "failovers_total",
            "scale_ups_total",
            "scale_downs_total",
            "workers_retired_total",
        )
    }
    _record(out_dir, "fault_elastic_soak", payload)

    _assert_lossless(report, FAULT_SOAK_REQUESTS)
    assert counters["worker_crashes_total"] == 1
    assert counters["failovers_total"] > 0
