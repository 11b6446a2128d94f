"""Perf smoke: vectorised Monte Carlo engine vs the per-sample reference.

Not a paper artifact — a performance regression gate.  The vectorised
engine (``repro.structural.engine``) must propagate the SOR model's
2000-draw batch at least 10x faster than the per-sample loop while
producing *identical* seeded samples.  Results (wall times, samples/sec,
speedup) are written to ``benchmarks/out/BENCH_montecarlo.json`` so the
perf trajectory is tracked run over run.

The same file also records, without gating them, the SOR plan's own
cost: its cold compile (ms, empty plan cache) and one ``evaluate`` at
the draw counts the server hands it (µs at k·n = 1048 and 8192; median
of :data:`PLAN_REPS` calls).
"""

import json
import statistics
import time

import numpy as np
from conftest import emit

from repro.cluster.machine import Machine
from repro.cluster.network import Network, SharedEthernet
from repro.core.stochastic import StochasticValue
from repro.sor.decomposition import equal_strips
from repro.structural.engine import clear_plan_cache, compile_expr, plan_cache_stats
from repro.structural.montecarlo import (
    monte_carlo_predict,
    monte_carlo_predict_reference,
)
from repro.structural.sor_model import SORModel, bindings_for_platform
from repro.util.tables import format_table

N_SAMPLES = 2000
MIN_SPEEDUP = 10.0
PLAN_DRAWS = (1048, 8192)  # k·n per evaluate call, reported
PLAN_REPS = 50


def sor_case():
    """The production SOR prediction: 4 machines, stochastic loads + bw."""
    machines = [Machine(f"m{i}", 1e5) for i in range(4)]
    network = Network(SharedEthernet(dedicated_bytes_per_sec=1.25e6, latency=0.0))
    dec = equal_strips(802, 4)
    loads = {i: StochasticValue(0.5, 0.08) for i in range(4)}
    bindings = bindings_for_platform(
        machines, network, dec, loads=loads, bw_avail=StochasticValue(0.6, 0.1)
    )
    expr = SORModel(n_procs=4, iterations=20).expression()
    clip = {f"load[{i}]": (0.02, 1.0) for i in range(4)}
    clip["bw_avail"] = (0.02, 1.0)
    return expr, bindings, clip


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def plan_timings() -> dict:
    """Cold compile and per-call evaluate time of the SOR plan (medians)."""
    cold = []
    for _ in range(5):
        expr, bindings, _ = sor_case()  # a fresh tree: nothing memoised
        clear_plan_cache()
        cold_s, plan = _timed(lambda: compile_expr(expr, bindings))
        cold.append(cold_s)
    rng = np.random.default_rng(0)
    out = {"cold_compile_ms": 1e3 * statistics.median(cold)}
    for n in PLAN_DRAWS:
        draws = {name: rng.uniform(0.3, 0.9, n) for name in plan.sampled}
        reps = [_timed(lambda: plan.evaluate(draws, bindings))[0] for _ in range(PLAN_REPS)]
        out[f"evaluate_us_{n}"] = 1e6 * statistics.median(reps)
    return out


def test_vectorised_speedup(out_dir):
    expr, bindings, clip = sor_case()
    kwargs = dict(n_samples=N_SAMPLES, rng=11, clip=clip)

    t_ref, ref = _timed(lambda: monte_carlo_predict_reference(expr, bindings, **kwargs))
    clear_plan_cache()
    t_cold, vec = _timed(lambda: monte_carlo_predict(expr, bindings, **kwargs))
    t_warm, vec2 = _timed(lambda: monte_carlo_predict(expr, bindings, **kwargs))

    # Identical RNG consumption: seeded results agree to the last bit
    # (the acceptance bar is 1e-9 relative; in practice the diff is 0).
    np.testing.assert_allclose(vec.samples, ref.samples, rtol=1e-9, atol=0.0)
    np.testing.assert_array_equal(vec.samples, vec2.samples)

    speedup_cold = t_ref / t_cold
    speedup_warm = t_ref / t_warm
    stats = plan_cache_stats()
    plan = plan_timings()

    emit(
        "Monte Carlo propagation: per-sample reference vs vectorised engine",
        format_table(
            ["engine", "wall (s)", "samples/sec", "speedup"],
            [
                ["reference loop", f"{t_ref:.4f}", f"{N_SAMPLES / t_ref:,.0f}", "1.0x"],
                [
                    "vectorised (cold)",
                    f"{t_cold:.4f}",
                    f"{N_SAMPLES / t_cold:,.0f}",
                    f"{speedup_cold:.1f}x",
                ],
                [
                    "vectorised (warm)",
                    f"{t_warm:.4f}",
                    f"{N_SAMPLES / t_warm:,.0f}",
                    f"{speedup_warm:.1f}x",
                ],
            ],
        )
        + f"\nSOR plan: cold compile {plan['cold_compile_ms']:.2f} ms, evaluate "
        + ", ".join(f"{plan[f'evaluate_us_{n}']:.0f} us at k*n={n}" for n in PLAN_DRAWS)
        + " (reported, not gated)",
    )

    payload = {
        "n_samples": N_SAMPLES,
        "reference_wall_s": t_ref,
        "vectorised_cold_wall_s": t_cold,
        "vectorised_warm_wall_s": t_warm,
        "reference_samples_per_sec": N_SAMPLES / t_ref,
        "vectorised_cold_samples_per_sec": N_SAMPLES / t_cold,
        "vectorised_warm_samples_per_sec": N_SAMPLES / t_warm,
        "speedup_cold": speedup_cold,
        "speedup_warm": speedup_warm,
        "plan_cache": stats,
        "max_abs_diff": float(np.max(np.abs(vec.samples - ref.samples))),
        "sor_plan": plan,
    }
    (out_dir / "BENCH_montecarlo.json").write_text(json.dumps(payload, indent=2))

    assert speedup_cold >= MIN_SPEEDUP
    assert stats["hits"] >= 1  # the warm call reused the compiled plan
