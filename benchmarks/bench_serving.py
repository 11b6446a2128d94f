"""Perf smoke: batched vectorised serving vs the per-sample reference engine.

Not a paper artifact — a performance regression gate for the serving
subsystem.  A seeded closed-loop drive with 64 concurrent clients hits
the Platform 1 demo server, which fuses concurrent requests against the
same compiled plan into one vectorised Monte Carlo evaluation.  The
baseline is the per-sample reference engine
(``monte_carlo_predict(..., engine="reference")``) timed directly on
the demo models' expression, bindings and clip at the server's draw
budget: one evaluation per request, with no serving overhead at all.
The batched drive must sustain at least 5x the baseline's wall-clock
rate, and must clear an absolute floor so an environment-wide slowdown
still fails loudly.

The baseline evaluates fewer requests (the per-sample loop is ~2 orders
of magnitude slower); the comparison is rate-based.  Latency
percentiles, throughput and the speedup land in
``benchmarks/out/BENCH_serving.json``.
"""

import json
import time

from conftest import emit

from repro.serving import ClosedLoop, LoadDriver, ServerConfig, demo_server
from repro.serving.server import _BATCH_BUCKETS
from repro.structural.engine import clear_plan_cache, plan_cache_stats
from repro.structural.montecarlo import monte_carlo_predict
from repro.util.rng import as_generator
from repro.util.tables import format_table

SEED = 11
CLIENTS = 64
BATCHED_REQUESTS = 2000
REFERENCE_REQUESTS = 30  # rate-based comparison; ~0.1 s per request
MIN_SPEEDUP = 5.0
MIN_BATCHED_QPS = 25.0  # absolute wall-clock floor, deliberately conservative


def drive_batched():
    clear_plan_cache()
    server, _, _ = demo_server(config=ServerConfig(), rng=SEED)
    driver = LoadDriver(
        server,
        server.models,
        ClosedLoop(clients=CLIENTS),
        max_requests=BATCHED_REQUESTS,
        rng=SEED,
    )
    t0 = time.perf_counter()
    report = driver.run()
    wall = time.perf_counter() - t0
    return report, wall, server


def time_reference(server):
    """Wall seconds for ``REFERENCE_REQUESTS`` reference-engine answers.

    Requests cycle through the demo models; each is one
    ``n_samples``-draw evaluation of the model's own expression,
    bindings and clip.
    """
    specs = [server._models[name] for name in server.models]
    rng = as_generator(SEED)
    n = server.config.n_samples
    t0 = time.perf_counter()
    for i in range(REFERENCE_REQUESTS):
        spec = specs[i % len(specs)]
        monte_carlo_predict(
            spec.expression,
            spec.bindings,
            n_samples=n,
            rng=rng,
            clip=spec.clip,
            engine="reference",
        )
    return time.perf_counter() - t0


def test_batched_serving_speedup(out_dir):
    batched, wall_b, server = drive_batched()
    cache = plan_cache_stats()
    wall_r = time_reference(server)

    reference_qps = REFERENCE_REQUESTS / wall_r
    speedup = batched.qps_wall / reference_qps

    emit(
        f"Serving throughput at {CLIENTS} closed-loop clients (seed {SEED})",
        format_table(
            ["leg", "requests", "p50 (s)", "p99 (s)", "wall q/s"],
            [
                ["batched", batched.submitted, f"{batched.latency_p50:.4f}",
                 f"{batched.latency_p99:.4f}", f"{batched.qps_wall:,.0f}"],
                ["reference engine", REFERENCE_REQUESTS, "-", "-", f"{reference_qps:,.1f}"],
            ],
        )
        + f"\nspeedup: {speedup:.1f}x (gate: >= {MIN_SPEEDUP}x, "
        f"floor: >= {MIN_BATCHED_QPS} q/s)",
    )

    payload = {
        "clients": CLIENTS,
        "seed": SEED,
        "batched": {
            "requests": batched.submitted,
            "ok": batched.ok,
            "shed": batched.shed,
            "errors": batched.errors,
            "latency_p50_s": batched.latency_p50,
            "latency_p99_s": batched.latency_p99,
            "latency_max_s": batched.latency_max,
            "qps_wall": batched.qps_wall,
            "qps_sim": batched.qps_sim,
            "wall_s": wall_b,
        },
        "reference_engine": {
            "requests": REFERENCE_REQUESTS,
            "n_samples": server.config.n_samples,
            "qps_wall": reference_qps,
            "wall_s": wall_r,
        },
        "speedup_wall": speedup,
        "min_speedup": MIN_SPEEDUP,
        "min_batched_qps": MIN_BATCHED_QPS,
        "plan_cache": cache,
        "batch_size_p50": server.metrics.histogram("batch_size", _BATCH_BUCKETS).quantile(0.50),
    }
    (out_dir / "BENCH_serving.json").write_text(json.dumps(payload, indent=2))

    # Correctness riders: every request answered, nothing leaked as an error.
    assert batched.errors == 0
    assert batched.ok + batched.shed == BATCHED_REQUESTS
    # The three SOR model sizes share one compiled plan.
    assert cache["misses"] == 1 and cache["hits"] >= 1

    assert speedup >= MIN_SPEEDUP
    assert batched.qps_wall >= MIN_BATCHED_QPS
