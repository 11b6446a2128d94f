"""Tests for the seeded load driver (open/closed loop) and its report."""

import math

import numpy as np
import pytest

from repro.serving import (
    AdmissionPolicy,
    ClosedLoop,
    LoadDriver,
    OpenLoop,
    ServerConfig,
    demo_server,
)


def make_server(**kw):
    server, _, _ = demo_server(rng=11, **kw)
    return server


class TestWorkloadConfigs:
    def test_open_loop_validation(self):
        with pytest.raises(ValueError):
            OpenLoop(rate=0.0)
        with pytest.raises(ValueError):
            OpenLoop(rate=10.0, clients=0)

    def test_closed_loop_validation(self):
        with pytest.raises(ValueError):
            ClosedLoop(clients=0)
        with pytest.raises(ValueError):
            ClosedLoop(clients=1, think_time=-1.0)

    def test_driver_needs_a_bound(self):
        server = make_server()
        with pytest.raises(ValueError, match="bound the drive"):
            LoadDriver(server, server.models, ClosedLoop(clients=2))

    def test_driver_rejects_unknown_workload(self):
        server = make_server()
        with pytest.raises(TypeError):
            LoadDriver(server, server.models, "poisson", max_requests=5)


class TestClosedLoop:
    def test_every_request_answered(self):
        server = make_server()
        drv = LoadDriver(server, server.models, ClosedLoop(clients=4), max_requests=40, rng=2)
        rep = drv.run()
        assert rep.submitted == 40
        assert rep.ok + rep.shed + rep.errors == 40
        assert rep.errors == 0
        assert rep.ok > 0

    def test_one_in_flight_per_client(self):
        server = make_server()
        drv = LoadDriver(server, server.models, ClosedLoop(clients=3), max_requests=30, rng=2)
        rep = drv.run()
        # A client never has two outstanding requests: its responses'
        # completion times are non-decreasing and spaced by >= one
        # service interval.
        by_client = {}
        for r in rep.responses:
            by_client.setdefault(r.client_id, []).append(r.completed)
        assert set(by_client) == {"client-0", "client-1", "client-2"}
        for times in by_client.values():
            assert times == sorted(times)

    def test_latency_stats_populated(self):
        server = make_server()
        rep = LoadDriver(
            server, server.models, ClosedLoop(clients=4), max_requests=20, rng=2
        ).run()
        assert rep.latency_p50 > 0.0
        assert rep.latency_p99 >= rep.latency_p50
        assert rep.latency_max >= rep.latency_p99
        assert rep.qps_sim > 0.0 and rep.qps_wall > 0.0
        assert "throughput" in rep.summary()


class TestOpenLoop:
    def test_bounded_by_duration(self):
        server = make_server()
        drv = LoadDriver(
            server, server.models, OpenLoop(rate=20.0), duration=10.0, rng=4
        )
        rep = drv.run()
        # Poisson with rate 20 over 10 s: ~200 arrivals, all answered.
        assert 140 < rep.submitted < 280
        assert rep.ok + rep.shed + rep.errors == rep.submitted

    def test_overload_sheds_not_raises(self):
        cfg = ServerConfig(admission=AdmissionPolicy(max_queue=32))
        server = make_server(config=cfg)
        drv = LoadDriver(
            server,
            server.models,
            OpenLoop(rate=5000.0, clients=8),
            max_requests=500,
            duration=5.0,
            rng=4,
        )
        rep = drv.run()
        assert rep.shed > 0
        assert rep.shed_reasons.get("queue_full", 0) > 0
        assert rep.errors == 0
        assert rep.ok + rep.shed == rep.submitted

    def test_deterministic_given_seed(self):
        def drive():
            server = make_server()
            rep = LoadDriver(
                server, server.models, OpenLoop(rate=50.0), duration=4.0, rng=13
            ).run()
            return [(r.request_id, r.status, r.completed) for r in rep.responses]

        assert drive() == drive()

    def test_different_seeds_differ(self):
        def drive(seed):
            server = make_server()
            rep = LoadDriver(
                server, server.models, OpenLoop(rate=50.0), duration=4.0, rng=seed
            ).run()
            return [(r.request_id, r.status, r.completed) for r in rep.responses]

        assert drive(1) != drive(2)


class TestThrottling:
    def test_token_bucket_limits_one_client(self):
        cfg = ServerConfig(
            admission=AdmissionPolicy(max_queue=1000, client_rate=2.0, client_burst=4.0)
        )
        server = make_server(config=cfg)
        drv = LoadDriver(
            server,
            server.models,
            OpenLoop(rate=200.0, clients=1),  # one chatty client
            duration=5.0,
            rng=4,
        )
        rep = drv.run()
        assert rep.shed_reasons.get("throttled", 0) > 0
        # The bucket admits roughly burst + rate * duration requests.
        assert rep.ok <= 4 + 2.0 * (rep.sim_duration + 1.0)
        assert all(math.isfinite(r.completed) for r in rep.responses)


class TestColumnarDriver:
    def test_every_request_answered_losslessly(self):
        from repro.serving import ColumnarLoadDriver

        server = make_server()
        rep = ColumnarLoadDriver(
            server, server.models, rate=200.0, max_requests=2000, rng=3
        ).run()
        assert rep.submitted == 2000
        assert rep.ok + rep.shed + rep.errors == 2000
        assert rep.lost == 0 and rep.duplicates == 0
        assert rep.responses == []  # columnar accounting never materialises

    def test_deadlines_and_queue_bounds_shed(self):
        from repro.serving import ColumnarLoadDriver

        cfg = ServerConfig(admission=AdmissionPolicy(max_queue=32))
        server = make_server(config=cfg)
        rep = ColumnarLoadDriver(
            server,
            server.models,
            rate=2000.0,  # far over capacity
            max_requests=3000,
            deadline=1.0,
            rng=3,
        ).run()
        assert rep.shed > 0
        assert set(rep.shed_reasons) <= {"queue_full", "deadline", "throttled"}
        assert rep.lost == 0 and rep.duplicates == 0
        assert rep.ok + rep.shed == 3000

    def test_seeded_runs_reproduce_and_seeds_differ(self):
        from repro.serving import ColumnarLoadDriver

        def drive(seed):
            server = make_server()
            rep = ColumnarLoadDriver(
                server, server.models, rate=100.0, duration=5.0, rng=seed
            ).run()
            return (rep.submitted, rep.ok, rep.shed, rep.latency_p50, rep.latency_p99)

        assert drive(1) == drive(1)
        assert drive(1) != drive(2)

    def test_progress_marks_fire(self):
        from repro.serving import ColumnarLoadDriver

        server = make_server()
        marks = []
        ColumnarLoadDriver(
            server,
            server.models,
            rate=200.0,
            max_requests=1000,
            rng=3,
            progress=lambda answered, wall: marks.append(answered),
            progress_every=250,
        ).run()
        assert marks[-1] == 1000
        assert all(b >= a for a, b in zip(marks, marks[1:]))
        assert marks[0] >= 250

    def test_model_weights_skew_traffic(self):
        from repro.serving import ColumnarLoadDriver

        server = make_server()
        hot = server.models[0]
        drv = ColumnarLoadDriver(
            server,
            server.models,
            rate=100.0,
            max_requests=400,
            rng=3,
            model_weights={hot: 1.0},
        )
        rep = drv.run()
        assert rep.ok == 400  # all answered, all on the hot model
        counters = server.metrics.snapshot()["counters"]
        assert counters["responses_ok"] == 400

    def test_validation(self):
        from repro.serving import ColumnarLoadDriver

        server = make_server()
        with pytest.raises(ValueError, match="bound the drive"):
            ColumnarLoadDriver(server, server.models, rate=10.0)
        with pytest.raises(ValueError):
            ColumnarLoadDriver(server, server.models, rate=0.0, max_requests=5)
        with pytest.raises(ValueError, match="model_weights"):
            ColumnarLoadDriver(
                server, server.models, rate=10.0, max_requests=5,
                model_weights={"nope": 1.0},
            )


def _scalar_arrivals(rng, rate, start, duration, max_requests):
    """The one-gap-at-a-time Poisson loop the vectorised generator must equal."""
    horizon = start + (duration if duration is not None else math.inf)
    out, t = [], start
    while max_requests is None or len(out) < max_requests:
        t += float(rng.exponential(1.0 / rate))
        if t > horizon:
            break
        out.append(t)
    return out


class TestArrivalGenerator:
    @pytest.mark.parametrize("chunk", [7, 1 << 16], ids=["small-chunks", "default-chunk"])
    @pytest.mark.parametrize(
        "duration, max_requests",
        [(30.0, None), (None, 500), (30.0, 500), (30.0, 10_000)],
        ids=["by-duration", "by-budget", "budget-first", "duration-first"],
    )
    def test_vectorised_arrivals_equal_the_scalar_loop(self, duration, max_requests, chunk):
        from repro.serving import ColumnarLoadDriver

        server = make_server()
        drv = ColumnarLoadDriver(
            server, server.models, rate=50.0, duration=duration,
            max_requests=max_requests, rng=9,
        )
        drv.ARRIVAL_CHUNK = chunk
        ref = np.random.default_rng(9)
        expected = _scalar_arrivals(ref, 50.0, 60.0, duration, max_requests)
        assert drv._arrival_times(60.0).tolist() == expected
        # The generator is left where the loop leaves it, so model picks match.
        assert drv._model_codes(64).tolist() == ref.integers(3, size=64).tolist()
