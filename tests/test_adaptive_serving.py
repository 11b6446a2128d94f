"""Tests for per-request precision targets in the serving stack."""

import numpy as np
import pytest

from repro.serving import (
    DEFAULT_PRECISION_LADDER,
    AdmissionController,
    AdmissionPolicy,
    ClosedLoop,
    ClusterConfig,
    LoadDriver,
    PrecisionInfo,
    ServerConfig,
    demo_cluster,
    demo_server,
)
from repro.serving.protocol import DEGRADED_QUEUE_PRESSURE, PredictRequest
from repro.structural.repeaters import PrecisionTarget

TARGET = PrecisionTarget.parse("p95:2%", min_samples=64)


def _submit(server, n, *, precision=None, model="sor-1000", t=60.0, client="c"):
    for i in range(n):
        resp = server.submit(
            PredictRequest(
                request_id=i,
                client_id=client if isinstance(client, str) else client(i),
                model=model,
                submitted=t,
                precision=precision,
            )
        )
        assert resp is None, resp


class TestPrecisionProtocol:
    def test_request_rejects_non_target_precision(self):
        with pytest.raises(TypeError):
            PredictRequest(
                request_id=0, client_id="c", model="m", submitted=0.0, precision="p95:2%"
            )

    def test_degraded_info_requires_factor_and_reason(self):
        with pytest.raises(ValueError):
            PrecisionInfo(degraded=True, shed_factor=1.0, reason="x")
        with pytest.raises(ValueError):
            PrecisionInfo(degraded=True, shed_factor=2.0, reason="")
        info = PrecisionInfo(
            draws=100, budget=400, degraded=True, shed_factor=2.0, reason="queue_pressure"
        )
        assert info.saved_fraction == pytest.approx(0.75)
        assert info.to_dict()["reason"] == "queue_pressure"


class TestPrecisionLadder:
    def test_policy_validates_ladder(self):
        AdmissionPolicy(precision_ladder=DEFAULT_PRECISION_LADDER)  # ok
        with pytest.raises(ValueError):
            AdmissionPolicy(precision_ladder=((0.5, 2.0), (0.4, 4.0)))
        with pytest.raises(ValueError):
            AdmissionPolicy(precision_ladder=((0.5, 2.0), (0.75, 2.0)))
        with pytest.raises(ValueError):
            AdmissionPolicy(precision_ladder=((1.5, 2.0),))

    def test_factor_steps_with_queue_depth(self):
        ctl = AdmissionController(
            AdmissionPolicy(max_queue=100, precision_ladder=DEFAULT_PRECISION_LADDER)
        )
        assert ctl.precision_factor(0) == 1.0
        assert ctl.precision_factor(49) == 1.0
        assert ctl.precision_factor(50) == 2.0
        assert ctl.precision_factor(75) == 4.0
        assert ctl.precision_factor(95) == 8.0

    def test_no_ladder_means_no_degradation(self):
        ctl = AdmissionController(AdmissionPolicy(max_queue=10))
        assert ctl.precision_factor(10) == 1.0


class TestAdaptiveServer:
    def test_adaptive_response_carries_precision_info(self):
        server, _, _ = demo_server(duration=300.0)
        _submit(server, 4, precision=TARGET)
        out = server.step(70.0)
        assert len(out) == 4
        for resp in out:
            info = resp.precision
            assert info is not None
            assert 0 < info.draws <= info.budget == server.config.n_samples
            assert info.requested == info.effective == TARGET.describe()
            assert not info.degraded and info.reason == ""

    @pytest.mark.parametrize(
        "n_samples, precision", [(400, None), (4, TARGET)], ids=["fixed", "tiny-budget"]
    )
    def test_fixed_requests_have_no_precision_block(self, n_samples, precision):
        # Below 8 draws a server ignores precision targets and serves fixed.
        server, _, _ = demo_server(
            duration=300.0, config=ServerConfig(n_samples=n_samples)
        )
        _submit(server, 4, precision=precision)
        out = server.step(70.0)
        assert len(out) == 4 and all(r.ok and r.precision is None for r in out)

    def test_mixed_batch_serves_both_kinds(self):
        server, _, _ = demo_server(duration=300.0)
        for i in range(4):
            server.submit(
                PredictRequest(
                    request_id=i,
                    client_id="c",
                    model="sor-1000",
                    submitted=60.0,
                    precision=TARGET if i % 2 == 0 else None,
                )
            )
        out = sorted(server.step(70.0), key=lambda r: r.request_id)
        assert [r.precision is not None for r in out] == [True, False, True, False]
        # Fixed riders in an adaptive batch still get full-budget clouds.
        assert all(r.ok for r in out)

    def test_server_default_target_applies_to_bare_requests(self):
        server, _, _ = demo_server(
            duration=300.0, config=ServerConfig(precision=TARGET)
        )
        _submit(server, 2)
        out = server.step(70.0)
        assert all(r.precision is not None and r.precision.draws > 0 for r in out)

    def test_clamps_cap_and_tolerance_to_server_limits(self):
        server, _, _ = demo_server(
            duration=300.0, config=ServerConfig(n_samples=200, min_rel_tol=0.01)
        )
        greedy = PrecisionTarget.parse(
            "p95:0.001%", min_samples=64, max_samples=1_000_000
        )
        _submit(server, 1, precision=greedy)
        (resp,) = server.step(70.0)
        info = resp.precision
        assert info.budget == 200 and info.draws <= 200
        # The clamped contract is reported back, never silently applied.
        assert "1%" in info.requested

    def test_adaptive_run_is_deterministic(self):
        def run():
            server, _, _ = demo_server(duration=300.0)
            _submit(server, 4, precision=TARGET)
            return [
                (r.p95, r.precision.draws, r.precision.half_width)
                for r in sorted(server.step(70.0), key=lambda r: r.request_id)
            ]

        assert run() == run()

    def test_adaptive_batch_finishes_faster_than_fixed(self):
        cfg = ServerConfig()
        server, _, _ = demo_server(duration=300.0, config=cfg)
        _submit(server, 4, precision=TARGET)
        (adaptive,) = {r.completed for r in server.step(70.0)}

        server2, _, _ = demo_server(duration=300.0, config=cfg)
        _submit(server2, 4)
        (fixed,) = {r.completed for r in server2.step(70.0)}
        assert adaptive < fixed

    def test_draws_metrics_created_lazily(self):
        server, _, _ = demo_server(duration=300.0)
        _submit(server, 2)
        server.step(70.0)
        counters = server.metrics.snapshot()["counters"]
        assert "draws_used_total" not in counters
        _submit(server, 2, precision=TARGET)
        server.step(80.0)
        counters = server.metrics.snapshot()["counters"]
        assert counters["draws_used_total"] > 0
        assert counters["draws_budget_total"] == 2 * server.config.n_samples


class TestPrecisionShedding:
    def _flooded_server(self):
        cfg = ServerConfig(
            batch_max=4,
            admission=AdmissionPolicy(
                max_queue=16, precision_ladder=DEFAULT_PRECISION_LADDER
            ),
        )
        server, _, _ = demo_server(duration=600.0, config=cfg)
        _submit(server, 16, precision=TARGET, client=lambda i: f"c{i}")
        return server

    def test_degradation_under_pressure_is_tagged_and_recovers(self):
        server = self._flooded_server()
        out = sorted(server.step(200.0), key=lambda r: r.request_id)
        assert len(out) == 16
        degraded = [r for r in out if r.precision.degraded]
        assert degraded, "expected precision shedding under a flooded queue"
        for resp in degraded:
            assert resp.precision.shed_factor > 1.0
            assert resp.precision.reason == DEGRADED_QUEUE_PRESSURE
            assert resp.precision.effective != resp.precision.requested
        # Once the queue drains the tail of the run is served at full
        # contract again.
        assert not out[-1].precision.degraded

    def test_degraded_count_lands_in_metrics(self):
        server = self._flooded_server()
        out = server.step(200.0)
        counters = server.metrics.snapshot()["counters"]
        assert counters["precision_degraded_total"] == sum(
            1 for r in out if r.precision.degraded
        )


class TestDriverPrecision:
    def test_driver_stamps_targets_on_every_request(self):
        server, _, _ = demo_server(duration=600.0)
        driver = LoadDriver(
            server,
            server.models,
            ClosedLoop(clients=4),
            max_requests=20,
            rng=11,
            precision=TARGET,
        )
        report = driver.run()
        assert report.ok == 20
        assert all(r.precision is not None for r in report.responses if r.ok)

    def test_driver_without_precision_is_unchanged(self):
        def drive(precision):
            server, _, _ = demo_server(duration=600.0)
            driver = LoadDriver(
                server,
                server.models,
                ClosedLoop(clients=4),
                max_requests=20,
                rng=11,
                precision=precision,
            )
            return [
                (r.request_id, r.p95) for r in driver.run().responses if r.ok
            ]

        assert drive(None) == drive(None)


class TestClusterAdaptive:
    def test_cluster_preserves_precision_block_and_merges_draws(self):
        config = ClusterConfig(n_workers=2, replication=2)
        cluster, _, _ = demo_cluster(duration=600.0, config=config)
        driver = LoadDriver(
            cluster,
            cluster.models,
            ClosedLoop(clients=4),
            max_requests=16,
            rng=11,
            precision=TARGET,
        )
        report = driver.run()
        assert report.ok == 16
        oks = [r for r in report.responses if r.ok]
        assert all(r.precision is not None and r.worker for r in oks)
        snap = cluster.snapshot()
        assert snap["aggregated"]["draws_used"]["count"] == 16

    def test_fixed_cluster_snapshot_has_no_draws_key(self):
        config = ClusterConfig(n_workers=2, replication=2)
        cluster, _, _ = demo_cluster(duration=600.0, config=config)
        driver = LoadDriver(
            cluster, cluster.models, ClosedLoop(clients=4), max_requests=8, rng=11
        )
        driver.run()
        snap = cluster.snapshot()
        assert "draws_used" not in snap["aggregated"]
        assert set(snap["aggregated"]) == {"latency_s", "batch_size"}
