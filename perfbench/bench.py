"""Passes, answer checks and metrics of the serving benchmark (see ``run.py``)."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

import layers
import speed
import workloads as wl
from repro.serving import columnar
from repro.serving.protocol import OverloadedResponse, PredictResponse
from repro.structural import engine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HISTORY = HERE / "out" / "history.jsonl"

#: Candidate tail percentiles, lowest first.
TAIL_LADDER = (0.9, 0.95, 0.99, 0.995, 0.999, 0.9995, 0.9999)

#: Deployments built (and timed) per pass; the pass drives the last one.
#: Set-up takes tens of milliseconds, so one sample per pass is too few.
SETUPS_PER_PASS = 5

#: Speed probes run right before and right after each timed set-up.
SETUP_PROBES = 8


def quantile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile of ``values``."""
    ordered = np.sort(np.asarray(values, dtype=float))
    k = max(1, math.ceil(q * ordered.size - 1e-9))
    return float(ordered[k - 1])


def tail_level(n: int) -> float:
    """Highest ladder percentile with at least ten of ``n`` samples above it."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - math.ceil(q * n - 1e-9) >= 10:
            best = q
    return best


# ----------------------------------------------------------------------
# Answers
# ----------------------------------------------------------------------
@dataclass
class Answers:
    """Every response of one drive as columns sorted by request id."""

    request_id: np.ndarray
    status: np.ndarray
    reason: np.ndarray
    mean: np.ndarray
    spread: np.ndarray
    p95: np.ndarray
    latency: np.ndarray
    completed: np.ndarray
    batch_size: np.ndarray
    worker: np.ndarray
    draws: np.ndarray

    def digest(self) -> str:
        h = hashlib.sha256()
        for col in (
            self.request_id,
            self.status,
            self.reason,
            self.mean,
            self.spread,
            self.p95,
            self.latency,
            self.completed,
            self.batch_size,
        ):
            h.update(np.ascontiguousarray(col).tobytes())
        h.update("\0".join(self.worker.tolist()).encode())
        return h.hexdigest()


def collect(drive) -> Answers:
    """Columnise a drive's answers (batches or response objects)."""
    cols: dict[str, list] = {k: [] for k in Answers.__dataclass_fields__}
    for rb in drive.batches:
        for name in ("request_id", "status", "reason", "mean", "spread", "p95",
                     "latency", "completed", "batch_size"):
            cols[name].append(getattr(rb, name))
        cols["worker"].append(np.asarray(rb.workers, dtype=object)[rb.worker])
        draws = np.zeros(len(rb), dtype=np.int64)
        if rb.messages is not None:
            for i, m in enumerate(rb.messages):
                if isinstance(m, PredictResponse) and m.precision is not None:
                    draws[i] = m.precision.draws
        cols["draws"].append(draws)
    if drive.responses:
        rows = {k: [] for k in cols}
        for r in drive.responses:
            ok = isinstance(r, PredictResponse)
            rows["request_id"].append(r.request_id)
            rows["status"].append(columnar.STATUSES.index(r.status))
            rows["reason"].append(
                columnar.REASONS.index(r.reason) if isinstance(r, OverloadedResponse) else 0
            )
            rows["mean"].append(r.value.mean if ok else 0.0)
            rows["spread"].append(r.value.spread if ok else 0.0)
            rows["p95"].append(r.p95 if ok else 0.0)
            rows["latency"].append(r.latency if ok else 0.0)
            rows["completed"].append(r.completed)
            rows["batch_size"].append(r.batch_size if ok else 0)
            rows["worker"].append(r.worker)
            rows["draws"].append(r.precision.draws if ok and r.precision else 0)
        for k, v in rows.items():
            cols[k].append(np.asarray(v, dtype=object if k == "worker" else None))
    dtypes = {
        "request_id": np.int64, "status": np.int8, "reason": np.int8,
        "batch_size": np.int32, "draws": np.int64, "worker": object,
    }
    merged = {
        k: np.concatenate(v).astype(dtypes.get(k, float)) if v else np.empty(0)
        for k, v in cols.items()
    }
    order = np.argsort(merged["request_id"], kind="stable")
    return Answers(**{k: v[order] for k, v in merged.items()})


@dataclass
class Check:
    """Correctness of one pass against the benchmark's own bitmap."""

    submitted: int
    ok: int
    shed: int
    errors: int
    lost: int
    duplicates: int
    stray: int
    nonfinite: int
    shed_reasons: dict

    @property
    def failed(self) -> int:
        return self.errors + self.lost + self.duplicates + self.stray


def check(ans: Answers, submitted: int) -> Check:
    ids = ans.request_id
    inside = (ids >= 0) & (ids < submitted)
    seen = np.bincount(ids[inside], minlength=submitted)
    ok = ans.status == wl.OK
    finite = np.isfinite(ans.mean) & np.isfinite(ans.spread) & np.isfinite(ans.p95)
    reasons = np.bincount(
        ans.reason[ans.status == wl.OVERLOADED], minlength=len(columnar.REASONS)
    )
    return Check(
        submitted=submitted,
        ok=int(ok.sum()),
        shed=int((ans.status == wl.OVERLOADED).sum()),
        errors=int((ans.status == wl.ERROR).sum()),
        lost=int((seen == 0).sum()),
        duplicates=int(np.maximum(seen - 1, 0).sum()),
        stray=int((~inside).sum()),
        nonfinite=int((ok & ~finite).sum()),
        shed_reasons={columnar.REASONS[i]: int(c) for i, c in enumerate(reasons) if c},
    )


# ----------------------------------------------------------------------
# Passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One pass; wall times are raw, ``scale`` turns them into reference time."""

    traced: bool
    #: Set-up times, already scaled by the probes around each set-up.
    setup_s: list
    setup_raw_s: list
    drive_s: float
    window_s: np.ndarray
    #: ``speed.scale`` of the probes run after the drive's windows.
    scale: float
    check: Check
    digest: str
    #: Simulated latency quantiles of the ok answers.
    sim_p50_s: float
    sim_p99_s: float
    #: Peak RSS of the process when the pass ended.
    rss_mb: float
    calib: dict | None = None
    layers: dict = field(default_factory=dict)
    layer_self_s: dict = field(default_factory=dict)


def run_pass(workload, seed: int, traced: bool) -> Pass:
    setups, setups_raw = [], []
    for _ in range(SETUPS_PER_PASS):
        dep = None
        gc.collect()
        probes = [speed.timed_probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        dep = wl.setup(workload, seed)
        took = time.perf_counter() - t0
        probes += [speed.timed_probe() for _ in range(SETUP_PROBES)]
        setups.append(took * speed.scale(probes))
        setups_raw.append(took)
    cluster = dep.cluster
    load = wl.make_load(workload, cluster.models, cluster.now, seed)
    clock = layers.LayerClock() if traced else None
    if clock is not None:
        clock.install()
    try:
        drive = wl.drive(workload, cluster, load)
    finally:
        if clock is not None:
            clock.uninstall()
    ans = collect(drive)
    chk = check(ans, drive.submitted)
    p = Pass(
        traced=traced,
        setup_s=setups,
        setup_raw_s=setups_raw,
        drive_s=drive.wall_s,
        window_s=drive.window_wall_s,
        scale=speed.scale(drive.probe_s),
        check=chk,
        digest=ans.digest(),
        sim_p50_s=quantile(ans.latency[ans.status == wl.OK], 0.5),
        sim_p99_s=quantile(ans.latency[ans.status == wl.OK], 0.99),
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        calib=calibration(cluster),
    )
    if clock is not None:
        p.layers, p.layer_self_s = layer_metrics(clock, dep, ans, drive, p.calib, p.scale)
    return p


def calibration(cluster) -> dict | None:
    """Cluster-wide 2-sigma coverage and mean CRPS, if calibration runs."""
    summary = cluster.calibration_summary()
    if summary is None:
        return None
    models = summary["scores"]["models"].values()
    n = sum(m["n"] for m in models)
    if not n:
        return None
    return {
        "n": n,
        "coverage_2sd": sum(m["coverage"] * m["n"] for m in models) / n,
        "crps_mean": sum(m["crps"] * m["n"] for m in models) / n,
    }


def layer_metrics(clock, dep, ans: Answers, drive, calib, scale) -> tuple[dict, dict]:
    """Per-layer values of one traced pass and each layer's self time.

    Wall times are scaled to reference time by ``scale``.
    """
    cluster, cfg = dep.cluster, dep.worker
    calls, counts = clock.calls, clock.counts
    self_s = {layer: clock.self_s[layer] * scale for layer in layers.LAYERS}
    ok = ans.status == wl.OK
    submitted = drive.submitted

    # Batches as the answers show them: one (worker, completion) group
    # per evaluated batch; its service time from the worker config.
    worker = np.unique(ans.worker[ok], return_inverse=True)[1]
    _, group, n_batches = np.unique(
        np.column_stack([worker, ans.completed[ok]]),
        axis=0,
        return_inverse=True,
        return_counts=True,
    )
    group = group.ravel()
    batch_draws = np.bincount(group, weights=ans.draws[ok])
    adaptive = ans.draws[ok] > 0
    service = np.where(
        adaptive,
        cfg.service_time_base
        + cfg.service_time_per_request * batch_draws[group] / cfg.n_samples,
        cfg.service_time_base + cfg.service_time_per_request * ans.batch_size[ok],
    )
    wait = ans.latency[ok] - service

    plan = engine.plan_cache_stats()
    lookups = plan["hits"] + plan["misses"]
    snap = cluster.snapshot()
    counters = snap["cluster"]["counters"]
    registries = [snap["cluster"]] + [w["metrics"] for w in snap["workers"].values()]
    held = sum(
        h.get("count", 0) for reg in registries for h in reg.get("histograms", {}).values()
    )
    fstats = [w.forecasts.stats() for w in cluster.workers.values()]
    f_lookups = sum(s["hits"] + s["shared_hits"] + s["refreshes"] for s in fstats)
    f_hits = sum(s["hits"] + s["shared_hits"] for s in fstats)
    calib = calib or {"coverage_2sd": 0.0, "crps_mean": 0.0, "n": 0}
    draws = counts["evaluate.draws"]
    considered = counts["admission.considered"]

    out = {
        "structural.engine.evaluate.calls": calls["structural.engine.evaluate"],
        "structural.engine.evaluate.self_s": self_s["structural.engine.evaluate"],
        "structural.engine.evaluate.draws": draws,
        "structural.engine.evaluate.ns_per_draw": (
            1e9 * self_s["structural.engine.evaluate"] / draws if draws else 0.0
        ),
        "structural.engine.compile.calls": calls["structural.engine.compile"],
        "structural.engine.compile.self_s": self_s["structural.engine.compile"],
        "structural.engine.plan_cache.hit_frac": plan["hits"] / lookups if lookups else 0.0,
        "core.sample.calls": calls["core.sample"],
        "core.sample.self_s": self_s["core.sample"],
        "core.sample.draws": counts["sample.draws"],
        "serving.columnar.admit_batch.calls": calls["serving.columnar.admit_batch"],
        "serving.columnar.admit_batch.self_s": self_s["serving.columnar.admit_batch"],
        "serving.columnar.soa.calls": calls["serving.columnar.soa"],
        "serving.columnar.soa.self_s": self_s["serving.columnar.soa"],
        "serving.server.self_s": self_s["serving.server"],
        "serving.server.batches": n_batches.size,
        "serving.server.batch_size_mean": (
            float(ok.sum()) / n_batches.size if n_batches.size else 0.0
        ),
        "serving.server.scalar_rows_frac": len(counts["server.scalar_ids"]) / submitted,
        "serving.server.queue_wait_sim_p50_s": quantile(wait, 0.5) if wait.size else 0.0,
        "structural.repeaters.assess.calls": calls["structural.repeaters.assess"],
        "structural.repeaters.assess.self_s": self_s["structural.repeaters.assess"],
        "structural.repeaters.draws_used_frac": (
            ans.draws[ok][adaptive].sum() / (adaptive.sum() * cfg.n_samples)
            if adaptive.any()
            else 0.0
        ),
        "calib.sketch.self_s": self_s["calib.sketch"],
        "calib.score.self_s": self_s["calib.score"],
        "calib.flushes": counts["calib.flushes"],
        "calib.scored": calib["n"],
        "calib.coverage_2sd": calib["coverage_2sd"],
        "calib.crps_mean": calib["crps_mean"],
        "serving.metrics.calls": calls["serving.metrics"],
        "serving.metrics.self_s": self_s["serving.metrics"],
        "serving.metrics.held_observations": held,
        "serving.admission.admit.calls": calls["serving.admission.admit"],
        "serving.admission.admit.self_s": self_s["serving.admission.admit"],
        "serving.admission.admit_frac": (
            counts["admission.admitted"] / considered if considered else 0.0
        ),
        "serving.router.route.calls": calls["serving.router.route"],
        "serving.router.route.self_s": self_s["serving.router.route"],
        "serving.cluster.self_s": self_s["serving.cluster"],
        "serving.cluster.failovers": counters.get("failovers_total", 0),
        "serving.cluster.requeued": counters.get("requeued_total", 0),
        "serving.forecasts.get.calls": calls["serving.forecasts.get"],
        "serving.forecasts.get.self_s": self_s["serving.forecasts.get"],
        "serving.forecasts.hit_frac": f_hits / f_lookups if f_lookups else 0.0,
        "nws.calls": calls["nws"],
        "nws.self_s": self_s["nws"],
        "serving.elastic.control.calls": calls["serving.elastic.control"],
        "serving.elastic.control.self_s": self_s["serving.elastic.control"],
        "serving.elastic.scale_events": (
            counters.get("scale_ups_total", 0) + counters.get("scale_downs_total", 0)
        ),
        "obs.span.self_s": self_s["obs.span"],
        "obs.spans_held": len(dep.tracer.spans) if dep.tracer is not None else 0,
        "bench.generate.self_s": self_s["bench.generate"],
        "unattributed_s": (drive.wall_s - clock.covered_s()) * scale,
    }
    return out, {layer: self_s[layer] for layer in layers.LAYERS}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(passes: list[Pass], lines: list[str]) -> dict:
    """End-to-end values from the untraced passes, wall times in reference time."""
    untraced = [p for p in passes if not p.traced]
    first = untraced[0]
    windows = first.window_s.size
    level = tail_level(windows)
    chk = first.check
    values = {
        "answers_per_s": median([p.check.ok / (p.drive_s * p.scale) for p in untraced]),
        "window_wall_p50_ms": median(
            [1e3 * quantile(p.window_s, 0.5) * p.scale for p in untraced]
        ),
        "window_wall_tail_ms": median(
            [
                1e3 * quantile(p.window_s, tail_level(p.window_s.size)) * p.scale
                for p in untraced
            ]
        ),
        "sim_latency_p50_s": first.sim_p50_s,
        "sim_latency_p99_s": first.sim_p99_s,
        "ok_frac": chk.ok / chk.submitted,
        # After the first pass: later passes only add allocator growth,
        # and how many passes fit depends on the machine's speed.
        "peak_rss_mb": first.rss_mb,
        "setup_s": median([s for p in passes for s in p.setup_s]),
    }
    lines.append(
        f"passes: {len(untraced)} untraced; {chk.submitted} requests, "
        f"{windows} windows per pass; window tail = p{100 * level:g} "
        f"({windows - math.ceil(level * windows - 1e-9)} windows above it per pass); "
        f"sim latency over {chk.ok} ok answers"
    )
    lines.append(
        f"shed_frac {chk.shed / chk.submitted:.6f} {chk.shed_reasons or ''}  "
        f"failed_frac {chk.failed / chk.submitted:.6f}  "
        f"raw answers/s per pass: "
        + " ".join(f"{p.check.ok / p.drive_s:.1f}" for p in untraced)
    )
    lines.append(
        f"wall scale (reference / probe) per pass: "
        + " ".join(f"{p.scale:.3f}" for p in untraced)
        + f"; raw window p50 {median([1e3 * quantile(p.window_s, 0.5) for p in untraced]):.4g} ms"
        + f", raw setup {median([s for p in passes for s in p.setup_raw_s]):.4g} s"
    )
    if first.calib is not None:
        lines.append(
            f"calibration: coverage_2sd {first.calib['coverage_2sd']:.6f}  "
            f"crps_mean {first.calib['crps_mean']:.6g}  over {first.calib['n']} answers"
        )
    return values


def per_layer(passes: list[Pass], lines: list[str]) -> dict:
    """Per-layer values (medians over traced passes) and the ranked report."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    values = {k: median([p.layers[k] for p in traced]) for k in traced[0].layers}
    traced_wall = median([p.drive_s * p.scale for p in traced])
    plain_wall = median([p.drive_s * p.scale for p in untraced])
    values["trace_overhead_frac"] = traced_wall / plain_wall - 1.0

    self_s = {
        layer: median([p.layer_self_s[layer] for p in traced]) for layer in layers.LAYERS
    }
    lines.append(
        f"ranked layers by self time (median of {len(traced)} traced passes, "
        f"traced drive wall {traced_wall:.3f} reference s):"
    )
    for layer, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:32s} {s:9.4f} s  {100 * s / traced_wall:6.2f}%")
    lines.append(
        f"  {'unattributed':32s} {values['unattributed_s']:9.4f} s  "
        f"{100 * values['unattributed_s'] / traced_wall:6.2f}%"
    )
    lines.append(
        f"tracing overhead: traced {traced_wall:.3f} s vs untraced {plain_wall:.3f} s "
        f"(median of {len(untraced)}) = {100 * values['trace_overhead_frac']:+.1f}%"
    )
    return values


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def git_sha() -> str | None:
    """The checkout's commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


# ----------------------------------------------------------------------
def main(args) -> int:
    """Run the benchmark for parsed ``args``; returns the exit code."""
    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; known: {sorted(wl.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    t0 = time.perf_counter()
    passes: list[Pass] = []
    kinds = (False, True) if args.trace else (False,)
    durations: dict[bool, list] = {False: [], True: []}
    while True:
        traced = kinds[len(passes) % len(kinds)]
        start = time.perf_counter()
        passes.append(run_pass(workload, args.seed, traced))
        durations[traced].append(time.perf_counter() - start)
        if len(passes) < len(kinds):
            continue
        nxt = kinds[len(passes) % len(kinds)]
        if time.perf_counter() - t0 + median(durations[nxt]) > args.seconds:
            break
    measured_s = time.perf_counter() - t0

    digests = {p.digest for p in passes}
    attempted = sum(p.check.submitted for p in passes)
    failed = sum(p.check.failed for p in passes)
    nonfinite = sum(p.check.nonfinite for p in passes)
    correct = failed == 0 and nonfinite == 0 and len(digests) == 1

    lines = [
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{len(passes)} passes in {measured_s:.1f} s"
    ]
    if args.trace:
        values = per_layer(passes, lines)
    else:
        values = end_to_end(passes, lines)
    lines.append(
        f"correctness: {'ok' if correct else 'FAILED'}; attempted {attempted}, "
        f"failed {failed}, non-finite answers {nonfinite}, "
        f"answer digest{'s' if len(digests) > 1 else ''} {' '.join(sorted(digests))}"
    )
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 2
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted
    }
    width = max(len(k) for k in metrics)
    for name, m in metrics.items():
        lines.append(f"  {name:{width}s} {m['value']:.6g} {m['unit']}")

    record = {
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "env": environment(),
        "passes": len(passes),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "digests": sorted(digests),
        "setup_s": [s for p in passes for s in p.setup_s],
        "setup_raw_s": [s for p in passes for s in p.setup_raw_s],
        "drive_s": [p.drive_s for p in passes],
        "wall_scale": [p.scale for p in passes],
        "metrics": metrics,
        "report": lines,
    }
    HISTORY.parent.mkdir(parents=True, exist_ok=True)
    with HISTORY.open("a") as fh:
        fh.write(json.dumps(record) + "\n")

    print("\n".join(lines))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if correct else 1

