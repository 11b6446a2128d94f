"""Columnar serving core: view fidelity, admission parity, path equivalence.

The struct-of-arrays core (:mod:`repro.serving.columnar`,
``docs/serving.md``) is the server's one engine; the per-request
protocol is a view over it and must stay *observationally identical*
to feeding the same rows as columns.  This file is that contract:

* **Round-trip fidelity** (hypothesis) — columnising requests/responses
  and materialising the lazy views reproduces the exact protocol
  dataclasses, field for field, including ragged sidecars.
* **Admission parity** (hypothesis) — :func:`admit_batch` returns the
  same verdicts as feeding the stream through the scalar
  :class:`~repro.serving.admission.AdmissionController` one request at
  a time, and leaves the token buckets in the same state.
* **Path equivalence** — the same seeded workload submitted per-request
  vs as one ``RequestBatch`` produces bit-identical responses from a
  server and from a cluster (values, tags, sheds, worker attribution,
  batch membership), the cluster also under a crash, its token bucket,
  an elastic forced drain and a tracer.
* **Row validation** — a malformed row gets its own typed error and
  never fails the step, at a worker and at a cluster's front door.
* **Bugfix regressions** — delivery preserves stable
  completion order; the deadline boundary is inclusive (equal instant
  is served) on both the server path and cluster re-routing.
"""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.stochastic import StochasticValue
from repro.faults import FaultPlan
from repro.nws.service import QUALITIES
from repro.obs import Tracer
from repro.serving import ClusterConfig, ElasticConfig, StaticPolicy
from repro.serving.admission import AdmissionController, AdmissionPolicy
from repro.serving.columnar import (
    ADMIT,
    NO_DEADLINE,
    REASONS,
    RequestBatch,
    ResponseBatch,
    admit_batch,
)
from repro.serving.demo import demo_cluster, demo_server
from repro.serving.protocol import (
    SHED_DEADLINE,
    ErrorResponse,
    OverloadedResponse,
    PredictRequest,
    PredictResponse,
)
from repro.serving.server import ServerConfig
from repro.structural.repeaters import PrecisionTarget

CLIENTS = ("ann", "bob", "cyd", "dee")
MODELS = ("sor-600", "sor-1000", "sor-1600")
#: Names no generated row uses: tables that list them carry unused entries.
UNUSED = ("eve", "fay", "gus")
_PRECISION = PrecisionTarget.parse("p95:2%")


def _recoded(batch, clients, models):
    """``batch`` with its codes pointed into the tables ``clients``/``models``."""
    return RequestBatch(
        request_id=batch.request_id,
        client=[list(clients).index(batch.clients[c]) for c in batch.client.tolist()],
        clients=clients,
        model=[list(models).index(batch.models[m]) for m in batch.model.tolist()],
        models=models,
        submitted=batch.submitted,
        deadline=batch.deadline,
        overrides=batch.overrides,
        precision=batch.precision,
    )


def _wide_tables(batch, random):
    """``batch`` on its own shuffled tables that also list names no row uses."""
    clients = [*CLIENTS, *UNUSED]
    models = [*dict.fromkeys([*batch.models, *MODELS]), "sor-unused"]
    random.shuffle(clients)
    random.shuffle(models)
    return _recoded(batch, tuple(clients), tuple(models))


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def request_lists(draw, max_n=40, ragged=True):
    n = draw(st.integers(min_value=0, max_value=max_n))
    reqs = []
    t = 0.0
    for i in range(n):
        t += draw(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
        rel = draw(st.one_of(st.none(), st.floats(min_value=0.0, max_value=5.0)))
        overrides = {}
        precision = None
        if ragged and draw(st.booleans()):
            overrides = draw(
                st.dictionaries(
                    st.sampled_from(["n_procs", "bw_avail"]),
                    st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
                    max_size=2,
                )
            )
            precision = draw(st.sampled_from([None, _PRECISION]))
        reqs.append(
            PredictRequest(
                request_id=i,
                client_id=draw(st.sampled_from(CLIENTS)),
                model=draw(st.sampled_from(MODELS)),
                submitted=t,
                deadline=None if rel is None else t + rel,
                overrides=overrides,
                precision=precision,
            )
        )
    return reqs


@st.composite
def response_lists(draw, max_n=30):
    n = draw(st.integers(min_value=0, max_value=max_n))
    out = []
    for i in range(n):
        kind = draw(st.integers(min_value=0, max_value=2))
        common = dict(
            request_id=i,
            client_id=draw(st.sampled_from(CLIENTS)),
            completed=draw(st.floats(min_value=0.0, max_value=100.0)),
            worker=draw(st.sampled_from(["", "worker-0", "worker-3"])),
        )
        if kind == 0:
            out.append(
                PredictResponse(
                    **common,
                    value=StochasticValue(
                        draw(st.floats(min_value=-5.0, max_value=5.0)),
                        draw(st.floats(min_value=0.0, max_value=3.0)),
                    ),
                    p95=draw(st.floats(min_value=0.0, max_value=10.0)),
                    quality=draw(st.sampled_from(QUALITIES)),
                    staleness=draw(st.floats(min_value=0.0, max_value=50.0)),
                    latency=draw(st.floats(min_value=0.0, max_value=5.0)),
                    batch_size=draw(st.integers(min_value=1, max_value=64)),
                    model=draw(st.sampled_from(MODELS)),
                )
            )
        elif kind == 1:
            out.append(
                OverloadedResponse(
                    **common,
                    reason=draw(
                        st.sampled_from(
                            ["queue_full", "throttled", "deadline", "unavailable"]
                        )
                    ),
                    retry_after=draw(st.floats(min_value=0.0, max_value=10.0)),
                )
            )
        else:
            out.append(ErrorResponse(**common, message=draw(st.sampled_from(
                ["", "unknown model 'x'", "bad override"]))))
    return out


# ----------------------------------------------------------------------
# Round-trip fidelity
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(reqs=request_lists())
    def test_requests_survive_columnisation_exactly(self, reqs):
        batch = RequestBatch.from_requests(reqs)
        assert len(batch) == len(reqs)
        assert batch.to_requests() == reqs
        # Lazy views are per-row, not whole-batch.
        for i in (0, len(reqs) - 1):
            if reqs:
                assert batch.request(i) == reqs[i]

    @settings(max_examples=60, deadline=None)
    @given(reqs=request_lists())
    def test_select_and_concat_preserve_views(self, reqs):
        batch = RequestBatch.from_requests(reqs)
        evens = batch.select(np.arange(0, len(batch), 2))
        odds = batch.select(np.arange(1, len(batch), 2))
        assert evens.to_requests() == reqs[::2]
        assert odds.to_requests() == reqs[1::2]
        if len(evens) and len(odds):
            both = RequestBatch.concat([evens, odds])
            assert both.to_requests() == reqs[::2] + reqs[1::2]

    @settings(max_examples=60, deadline=None)
    @given(resps=response_lists())
    def test_responses_survive_columnisation_exactly(self, resps):
        batch = ResponseBatch.from_responses(resps)
        assert batch.to_responses() == resps
        counts = batch.status_counts()
        assert counts["ok"] == sum(1 for r in resps if r.status == "ok")
        assert counts["overloaded"] == sum(
            1 for r in resps if r.status == "overloaded"
        )
        assert counts["error"] == sum(1 for r in resps if r.status == "error")

    def test_no_deadline_encodes_as_inf(self):
        req = PredictRequest(request_id=1, client_id="ann", model="m", submitted=3.0)
        batch = RequestBatch.from_requests([req])
        assert batch.deadline[0] == NO_DEADLINE
        assert batch.request(0).deadline is None

    def test_concat_refuses_batches_on_different_tables(self):
        # Batches inside a deployment share its tables; concatenation is
        # plain array work and never re-codes names.
        req = PredictRequest(request_id=1, client_id="ann", model="m", submitted=0.0)
        a, b = RequestBatch.from_requests([req]), RequestBatch.from_requests([req])
        assert RequestBatch.concat([a, a.select([0])]).to_requests() == [req, req]
        with pytest.raises(ValueError, match="different clients tables"):
            RequestBatch.concat([a, b])
        resp = ErrorResponse(request_id=1, client_id="ann", completed=0.0, message="x")
        ra, rb = ResponseBatch.from_responses([resp]), ResponseBatch.from_responses([resp])
        assert ResponseBatch.concat([ra, ra.with_worker("w")]).to_responses() == [
            resp,
            replace(resp, worker="w"),
        ]
        with pytest.raises(ValueError, match="different clients tables"):
            ResponseBatch.concat([ra, rb])

    def test_rich_response_blocks_ride_verbatim(self):
        # precision / distribution / failover blocks don't columnise;
        # the view must hand back the original object untouched.
        rich = PredictResponse(
            request_id=9,
            client_id="ann",
            completed=4.0,
            value=StochasticValue(1.0, 0.2),
            p95=1.5,
            failover=True,
            quality="stale",
            model="sor-600",
        )
        batch = ResponseBatch.from_responses([rich])
        assert batch.response(0) is rich
        stamped = batch.with_worker("worker-7")
        assert stamped.response(0).worker == "worker-7"
        assert stamped.response(0).failover is True


# ----------------------------------------------------------------------
# Vectorised admission parity
# ----------------------------------------------------------------------
class TestAdmissionParity:
    @settings(max_examples=80, deadline=None)
    @given(
        reqs=request_lists(ragged=False),
        max_queue=st.integers(min_value=1, max_value=12),
        rate=st.sampled_from([0.0, 0.5, 1.0, 3.0]),
        burst=st.floats(min_value=1.0, max_value=4.0),
        queue_depth=st.integers(min_value=0, max_value=6),
        clock=st.floats(min_value=0.0, max_value=10.0),
        random=st.randoms(use_true_random=False),
    )
    def test_verdicts_and_buckets_match_scalar_controller(
        self, reqs, max_queue, rate, burst, queue_depth, clock, random
    ):
        policy = AdmissionPolicy(
            max_queue=max_queue, client_rate=rate, client_burst=burst
        )
        scalar = AdmissionController(policy)
        vector = AdmissionController(policy)

        depth = queue_depth
        expected = []
        for r in reqs:
            reason = scalar.admit(r.client_id, depth, max(r.submitted, clock))
            expected.append(ADMIT if reason is None else REASONS.index(reason))
            if reason is None:
                depth += 1

        # Tables wider than the batch (as a deployment's are): admission
        # consults only the clients that have rows.
        batch = _wide_tables(RequestBatch.from_requests(reqs), random)
        verdicts = admit_batch(vector, batch, queue_depth, clock)
        assert verdicts.tolist() == expected

        # Not just the verdicts: the buckets left behind must be the
        # same buckets, so the *next* batch decides identically too.
        assert set(scalar._buckets) == set(vector._buckets)
        assert set(vector._buckets) <= {r.client_id for r in reqs}
        for cid, b in scalar._buckets.items():
            v = vector._buckets[cid]
            assert (b._tokens, b._anchor) == (v._tokens, v._anchor), cid

    @settings(max_examples=30, deadline=None)
    @given(
        streams=st.lists(request_lists(max_n=12, ragged=False), max_size=4),
        clock=st.floats(min_value=0.0, max_value=5.0),
    )
    def test_parity_holds_across_consecutive_batches(self, streams, clock):
        policy = AdmissionPolicy(max_queue=8, client_rate=1.0, client_burst=2.0)
        scalar = AdmissionController(policy)
        vector = AdmissionController(policy)
        depth_s = depth_v = 0
        for reqs in streams:
            expected = []
            for r in reqs:
                reason = scalar.admit(r.client_id, depth_s, max(r.submitted, clock))
                expected.append(ADMIT if reason is None else REASONS.index(reason))
                if reason is None:
                    depth_s += 1
            batch = RequestBatch.from_requests(reqs)
            verdicts = admit_batch(vector, batch, depth_v, clock)
            depth_v += int(np.count_nonzero(verdicts == ADMIT))
            assert verdicts.tolist() == expected
        assert depth_s == depth_v


# ----------------------------------------------------------------------
# Path equivalence: scalar vs columnar, server and cluster
# ----------------------------------------------------------------------
def _mixed_requests(models, n=240, t0=0.0):
    """A deterministic stream exercising every admission outcome."""
    reqs = []
    for i in range(n):
        t = t0 + 0.01 * i
        deadline = None
        if i % 7 == 3:
            deadline = t + 0.05  # tight: some will expire in queue
        elif i % 7 == 5:
            deadline = t + 30.0
        reqs.append(
            PredictRequest(
                request_id=i,
                client_id=CLIENTS[i % len(CLIENTS)],
                model=models[i % len(models)],
                submitted=t,
                deadline=deadline,
            )
        )
    return reqs


def _equivalence_config():
    return ServerConfig(
        n_samples=32,
        batch_max=16,
        admission=AdmissionPolicy(max_queue=48, client_rate=40.0, client_burst=4.0),
    )


def _response_columns(rb):
    """Every column of ``rb``: value bytes, decoded names, the sidecar."""
    cols = {name: getattr(rb, name).tobytes() for name in ResponseBatch.COLUMNS}
    for name in ("client", "model", "worker"):  # codes differ; the names must not
        table = getattr(rb, f"{name}s")
        cols[name] = [table[code] for code in getattr(rb, name).tolist()]
    cols["messages"] = rb.messages
    return cols


def _victim(cluster):
    """The primary of the first model's shard: crashing it forces failover."""
    return cluster.owners(cluster.models[0])[0]


def _slow_worker():
    """The equivalence worker, slow enough to hold work when it is taken down."""
    return replace(_equivalence_config(), service_time_base=0.05)


def _cluster(*, crash=False, worker=None, config=None, **kwargs):
    """A demo cluster; ``crash`` takes the first model's primary down mid-drive."""
    if crash:
        probe, _, _ = demo_cluster(duration=300.0, rng=5)
        t0 = probe.now
        kwargs["faults"] = FaultPlan.crashes({_victim(probe): [(t0 + 0.55, t0 + 1.55)]})
        worker = _slow_worker()
    config = ClusterConfig(worker=worker or _equivalence_config(), **(config or {}))
    return demo_cluster(duration=300.0, config=config, rng=5, **kwargs)[0]


def _drain_victim_after(offset):
    """A drive hook: begin draining the first model's primary ``offset`` s in."""

    def during(cluster, elapsed):
        if elapsed > offset and not cluster.metrics.counter("scale_downs_total").value:
            cluster.begin_drain(_victim(cluster), cluster.now)

    return during


def _no_op(cluster, elapsed):
    return None


_CLUSTER_SETUPS = {
    "healthy": (_cluster, _no_op),
    "crash": (lambda: _cluster(crash=True), _no_op),
    "throttle": (lambda: _cluster(config={"cluster_rate": 60.0, "cluster_burst": 8.0}), _no_op),
    # The drained primary still holds work at its drain deadline, so the
    # remainder is force-migrated.
    "elastic-drain": (
        lambda: _cluster(
            worker=_slow_worker(),
            elastic=ElasticConfig(policy=StaticPolicy(), drain_grace=0.01),
        ),
        _drain_victim_after(0.5),
    ),
    "tracer": (lambda: _cluster(crash=True, tracer=Tracer()), _no_op),
}


class TestPathEquivalence:
    def test_server_columnar_answers_bit_identical(self):
        s_scalar, _, _ = demo_server(config=_equivalence_config(), rng=5)
        s_columnar, _, _ = demo_server(config=_equivalence_config(), rng=5)
        reqs = _mixed_requests(s_scalar.models)

        out_scalar = []
        for r in reqs:
            immediate = s_scalar.submit(r)
            if immediate is not None:
                out_scalar.append(immediate)
        out_scalar += list(s_scalar.step(120.0))

        batch = RequestBatch.from_requests(reqs)
        rb = s_columnar.submit_batch(batch)
        out_columnar = rb.to_responses() + s_columnar.step_batch(120.0).to_responses()

        by_id_s = {r.request_id: r for r in out_scalar}
        by_id_c = {r.request_id: r for r in out_columnar}
        assert set(by_id_s) == set(by_id_c) == {r.request_id for r in reqs}
        for rid in by_id_s:
            assert by_id_s[rid] == by_id_c[rid]

        # Headline metrics agree too (the dashboards must not notice).
        ms = s_scalar.metrics.snapshot()["counters"]
        mc = s_columnar.metrics.snapshot()["counters"]
        for key in ("requests_total", "responses_ok", "shed_total", "errors_total"):
            assert ms.get(key, 0) == mc.get(key, 0), key

    def test_cluster_columnar_answers_bit_identical(self):
        self._assert_cluster_surfaces_agree("healthy")

    @pytest.mark.parametrize("setup", sorted(set(_CLUSTER_SETUPS) - {"healthy"}))
    def test_cluster_columnar_answers_bit_identical_with(self, setup):
        # Every feature that makes routing or delivery stateful (a
        # crash, the cluster token bucket, an elastic drain, a tracer)
        # runs on the same engine, so both surfaces still agree.
        self._assert_cluster_surfaces_agree(setup)

    def _assert_cluster_surfaces_agree(self, setup):
        """Same responses in the same order -- values, worker attribution,
        failover tags, degraded quality, retry hints -- and the same
        cluster counters through submit/step and submit_batch/step_batch."""
        build, during = _CLUSTER_SETUPS[setup]
        c_scalar, c_columnar = build(), build()
        t0 = c_scalar.now
        reqs = _mixed_requests(c_scalar.models, n=200, t0=t0)
        out_scalar, out_columnar = [], []
        pos = 0
        for k in range(1, 301):
            to = t0 + 0.1 * k
            due = [r for r in reqs[pos:] if r.submitted <= to]
            pos += len(due)
            for cluster in (c_scalar, c_columnar):
                during(cluster, to - t0)
            out_scalar += [r for r in map(c_scalar.submit, due) if r is not None]
            out_scalar += c_scalar.step(to)
            if due:
                out_columnar += c_columnar.submit_batch(
                    RequestBatch.from_requests(due)
                ).to_responses()
            out_columnar += c_columnar.step_batch(to).to_responses()

        assert sorted(r.request_id for r in out_scalar) == [r.request_id for r in reqs]
        assert out_scalar == out_columnar
        counters = c_scalar.metrics.snapshot()["counters"]
        assert counters == c_columnar.metrics.snapshot()["counters"]
        assert counters["responses_ok"] > 0
        if setup == "crash":
            assert counters["requeued_total"] > 0 and counters["failovers_total"] > 0
            assert any(r.failover and r.quality != "fresh" for r in out_scalar if r.ok)
        elif setup == "throttle":
            assert counters["shed_throttled"] > 0
        elif setup == "elastic-drain":
            assert counters["workers_retired_total"] == 1
            assert counters["requeued_total"] > 0
        elif setup == "tracer":
            names = [Counter(sp.name for sp in c.tracer.spans) for c in (c_scalar, c_columnar)]
            assert names[0] == names[1] and names[0]["cluster.deliver"] > 0

    @pytest.mark.parametrize("setup", ["server", "cluster-crash"])
    def test_foreign_tables_answer_like_shared_tables_and_per_request(self, setup):
        # The same stream three ways: batches on their own shuffled tables
        # with unused entries, batches on the deployment's own tables, and
        # one request at a time.  How a caller codes names must not move
        # an answer, a worker attribution or a counter.
        import random

        rng = random.Random(3)

        def build():
            if setup == "server":
                return demo_server(config=_equivalence_config(), rng=5)[0]
            return _cluster(crash=True)

        def foreign(deployment, due):
            return _wide_tables(RequestBatch.from_requests(due), rng)

        def shared(deployment, due):
            tables = deployment.tables
            tables.clients.codes([r.client_id for r in due])
            tables.models.codes([r.model for r in due])
            return _recoded(RequestBatch.from_requests(due), tables.clients, tables.models)

        runs = {}
        for name, make in (("foreign", foreign), ("shared", shared), ("scalar", None)):
            deployment = build()
            t0 = deployment.now
            reqs = _mixed_requests(deployment.models, n=200, t0=t0)
            answers, pos = [], 0
            for k in range(1, 301):
                to = t0 + 0.1 * k
                due = [r for r in reqs[pos:] if r.submitted <= to]
                pos += len(due)
                if make is None:
                    answers += [r for r in map(deployment.submit, due) if r is not None]
                    answers += deployment.step(to)
                    continue
                if due:
                    answers.append(deployment.submit_batch(make(deployment, due)))
                answers.append(deployment.step_batch(to))
            snapshot = deployment.snapshot()
            counters = snapshot.get("metrics", snapshot.get("cluster"))["counters"]
            runs[name] = (answers, counters)

        (foreign_rbs, c_foreign), (shared_rbs, c_shared), (scalar, c_scalar) = runs.values()
        merged = [ResponseBatch.concat(rbs) for rbs in (foreign_rbs, shared_rbs)]
        columns = [_response_columns(rb) for rb in merged]
        assert columns[0] == columns[1]
        assert merged[0].to_responses() == scalar
        assert c_foreign == c_shared == c_scalar
        assert c_scalar["responses_ok"] > 0
        if setup == "cluster-crash":
            assert c_scalar["failovers_total"] > 0

    def test_ragged_rows_fall_back_to_scalar_path(self):
        # Overrides/precision don't vectorise; submit_batch must split
        # them off and answer them exactly like scalar submissions.
        s_scalar, _, _ = demo_server(config=_equivalence_config(), rng=5)
        s_columnar, _, _ = demo_server(config=_equivalence_config(), rng=5)
        reqs = _mixed_requests(s_scalar.models, n=40)
        ragged = [
            PredictRequest(
                request_id=1000 + i,
                client_id=CLIENTS[i % len(CLIENTS)],
                model=s_scalar.models[0],
                submitted=0.005 + 0.01 * i,
                overrides={"n_procs": 4.0},
            )
            for i in range(5)
        ]
        merged = sorted(reqs + ragged, key=lambda r: r.submitted)

        out_scalar = []
        for r in merged:
            immediate = s_scalar.submit(r)
            if immediate is not None:
                out_scalar.append(immediate)
        out_scalar += list(s_scalar.step(120.0))

        rb = s_columnar.submit_batch(RequestBatch.from_requests(merged))
        out_columnar = rb.to_responses() + s_columnar.step_batch(120.0).to_responses()
        by_id_s = {r.request_id: r for r in out_scalar}
        by_id_c = {r.request_id: r for r in out_columnar}
        assert set(by_id_s) == set(by_id_c)
        for rid in by_id_s:
            assert by_id_s[rid] == by_id_c[rid]

    def test_override_row_batches_with_dense_rows_on_both_surfaces(self):
        # Regression: the batch surface used to split override rows off
        # into a second queue, so the override row below was served
        # alone (batch size 1) after the five dense rows instead of in
        # one batch of six -- the answer depended on the entry point.
        s_scalar, _, _ = demo_server(rng=5)
        s_columnar, _, _ = demo_server(rng=5)
        t0 = s_scalar.now
        reqs = [
            PredictRequest(
                request_id=i,
                client_id=CLIENTS[i % len(CLIENTS)],
                model=s_scalar.models[0],
                submitted=t0,
                overrides={"load[0]": 0.5} if i == 5 else {},
            )
            for i in range(6)
        ]
        out_scalar = [r for r in map(s_scalar.submit, reqs) if r is not None]
        out_scalar += s_scalar.step(t0 + 60.0)
        rb = s_columnar.submit_batch(RequestBatch.from_requests(reqs))
        out_columnar = rb.to_responses() + s_columnar.step_batch(t0 + 60.0).to_responses()
        assert out_scalar == out_columnar
        assert [r.batch_size for r in out_columnar] == [6] * 6
        assert len({r.completed for r in out_columnar}) == 1

    def test_unknown_model_errors_match_scalar_messages(self):
        s_scalar, _, _ = demo_server(rng=5)
        s_columnar, _, _ = demo_server(rng=5)
        bad = PredictRequest(
            request_id=1, client_id="ann", model="nope", submitted=0.0
        )
        scalar_resp = s_scalar.submit(bad)
        rb = s_columnar.submit_batch(RequestBatch.from_requests([bad]))
        assert rb.response(0) == scalar_resp


# ----------------------------------------------------------------------
# Row validation: the input contract of the one worker entry point
# ----------------------------------------------------------------------
def _raw_batch(model_name, submitted, deadline=None, model=None, client=None):
    """Hand-built columns, free to break the contract PredictRequest enforces."""
    n = len(submitted)
    return RequestBatch(
        request_id=np.arange(n),
        client=np.zeros(n) if client is None else client,
        clients=("ann",),
        model=np.zeros(n) if model is None else model,
        models=(model_name,),
        submitted=submitted,
        deadline=np.full(n, NO_DEADLINE) if deadline is None else deadline,
    )


def _contract_message(**kw):
    with pytest.raises(ValueError) as exc:
        PredictRequest(request_id=0, client_id="ann", model="m", **kw)
    return str(exc.value)


def _probe_rows(model, t0, bad_row):
    """Rows 0 and 2 are well formed; row 1 breaks the contract as ``bad_row`` says."""
    rows = dict(
        request_id=np.arange(3),
        client=np.zeros(3),
        clients=("ann",),
        model=np.zeros(3),
        models=(model,),
        submitted=np.full(3, t0),
        deadline=np.full(3, NO_DEADLINE),
    )
    for column, value in bad_row.items():
        if column in ("models", "overrides"):
            rows[column] = value
        else:
            rows[column][1] = value
    return RequestBatch(**rows)


#: One malformed row per broken clause of the input contract, with the
#: message its ErrorResponse must carry.
_BAD_ROWS = {
    "nan-submitted": ({"submitted": np.nan}, "submitted must be finite, got nan"),
    "deadline-before-submitted": ({"deadline": -1.0}, "must be >= submitted"),
    "model-code-outside-table": (
        {"model": 7},
        "model code 7 is outside the model table (1 entries)",
    ),
    "negative-model-code": ({"model": -1}, "model code -1 is outside the model table (1 entries)"),
    "unknown-model": (
        {"model": 1, "models": None},
        "unknown model 'nope'; registered: ['sor-1000', 'sor-1600', 'sor-600']",
    ),
    "bad-override": (
        {"overrides": ({}, {"nope": 1.0}, {})},
        "overrides ['nope'] are not run-time parameters",
    ),
}


class TestRowValidation:
    @pytest.mark.parametrize("crash", [False, True], ids=["healthy", "crash-scheduled"])
    @pytest.mark.parametrize("bad", sorted(_BAD_ROWS))
    def test_cluster_answers_each_bad_row_at_its_front_door(self, bad, crash):
        # A crash scheduled far in the future must not change how a row
        # submitted now is answered: the bad row gets its own error,
        # counted by the cluster and never handed to a worker, and the
        # good rows around it are served.
        faults = FaultPlan.crashes({"worker-3": [(1e6, 1e6 + 1)]}) if crash else None
        cluster, _, _ = demo_cluster(duration=300.0, faults=faults, rng=5)
        t0 = cluster.now
        bad_row, message = _BAD_ROWS[bad]
        if "models" in bad_row:
            bad_row = {**bad_row, "models": (cluster.models[0], "nope")}
        batch = _probe_rows(cluster.models[0], t0, bad_row)
        immediate = cluster.submit_batch(batch).to_responses()
        served = cluster.step_batch(t0 + 10.0).to_responses()
        assert [(r.request_id, r.status, r.worker) for r in immediate] == [(1, "error", "")]
        assert message in immediate[0].message
        assert sorted(r.request_id for r in served) == [0, 2]
        assert all(r.ok for r in served)
        counters = cluster.metrics.snapshot()["counters"]
        assert (counters["requests_total"], counters["errors_total"]) == (3, 1)
        handed = sum(w.metrics.counter("requests_total").value for w in cluster.workers.values())
        assert handed == 2

    def test_cluster_validates_each_row_once(self, monkeypatch):
        # The cluster checks a batch at its front door and hands each
        # worker its rows without a second validate_rows pass.
        import repro.serving.cluster as cluster_module
        import repro.serving.server as server_module

        seen, real = [], server_module.validate_rows

        def counted(batch, *args):
            seen.append(len(batch))
            return real(batch, *args)

        monkeypatch.setattr(server_module, "validate_rows", counted)
        monkeypatch.setattr(cluster_module, "validate_rows", counted)
        cluster, _, _ = demo_cluster(duration=300.0, rng=5)
        reqs = _mixed_requests(cluster.models, n=30, t0=cluster.now)
        cluster.submit_batch(RequestBatch.from_requests(reqs))
        assert seen == [30]
        handed = [w.metrics.counter("requests_total").value for w in cluster.workers.values()]
        assert sum(handed) == 30 and sum(1 for h in handed if h) >= 2

    def _submit(self, columns):
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        immediate = server.submit_batch(columns(server.models[0], t0)).to_responses()
        served = server.step_batch(t0 + 10.0).to_responses()
        return server, t0, immediate, served

    def test_nan_submitted_row_is_rejected_and_the_step_survives(self):
        server, _, immediate, served = self._submit(
            lambda m, t0: _raw_batch(m, [t0, np.nan, t0])
        )
        assert [(r.request_id, r.status) for r in immediate] == [(1, "error")]
        assert immediate[0].message == _contract_message(submitted=float("nan"))
        assert sorted(r.request_id for r in served) == [0, 2]
        assert all(r.ok for r in served)
        assert server.metrics.counter("errors_total").value == 1

    def test_deadline_before_submission_is_rejected(self):
        server, t0, immediate, served = self._submit(
            lambda m, t0: _raw_batch(m, [t0 + 1.0, t0], deadline=[t0, NO_DEADLINE])
        )
        assert [(r.request_id, r.status) for r in immediate] == [(0, "error")]
        assert immediate[0].message == _contract_message(submitted=t0 + 1.0, deadline=t0)
        assert [r.request_id for r in served] == [1]
        assert server.metrics.counter("errors_total").value == 1

    def test_codes_outside_the_intern_tables_are_rejected(self):
        server, _, immediate, served = self._submit(
            lambda m, t0: _raw_batch(m, [t0, t0, t0], model=[0, 7, 0], client=[0, 0, -1])
        )
        by_id = {r.request_id: r for r in immediate}
        assert sorted(by_id) == [1, 2]
        assert all(r.status == "error" for r in by_id.values())
        assert by_id[1].message == "model code 7 is outside the model table (1 entries)"
        assert by_id[2].message == "client code -1 is outside the client table (1 entries)"
        assert by_id[2].client_id == ""
        assert [r.request_id for r in served] == [0]
        assert server.metrics.counter("errors_total").value == 2

    def test_immediate_answers_come_back_in_row_order(self):
        # A shed row ahead of an unknown-model row: the worker answers
        # them in row order, as the cluster does.
        server, _, _ = demo_server(
            rng=5, config=ServerConfig(admission=AdmissionPolicy(max_queue=1))
        )
        t0 = server.now
        batch = RequestBatch(
            request_id=np.arange(3),
            client=np.zeros(3),
            clients=("ann",),
            model=[0, 0, 1],
            models=(server.models[0], "nope"),
            submitted=np.full(3, t0),
            deadline=np.full(3, NO_DEADLINE),
        )
        immediate = server.submit_batch(batch).to_responses()
        assert [(r.request_id, r.status) for r in immediate] == [
            (1, "overloaded"),
            (2, "error"),
        ]


# ----------------------------------------------------------------------
# Bugfix regressions
# ----------------------------------------------------------------------
class TestDeliveryOrder:
    def test_heap_delivery_is_stable_completion_order(self):
        # Satellite regression for the old sort-and-rebuild delivery
        # path: responses parked out of order must come back sorted by
        # completion, ties in park order (the stable-sort contract).
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        parked = []
        for i, rel in enumerate([5.0, 1.0, 3.0, 1.0, 2.0, 3.0, 0.5]):
            parked.append(
                PredictResponse(
                    request_id=i,
                    client_id="ann",
                    completed=t0 + rel,
                    value=StochasticValue(1.0, 0.1),
                    p95=1.0,
                    model=server.models[0],
                )
            )
        server._parked.append(ResponseBatch.from_responses(parked))
        early = server.step(t0 + 2.0)
        late = server.step(t0 + 10.0)
        delivered = early + late
        assert [r.completed - t0 for r in early] == [0.5, 1.0, 1.0, 2.0]
        expected = sorted(parked, key=lambda r: r.completed)  # stable
        assert delivered == expected

    def test_drive_delivers_in_nondecreasing_completion_order(self):
        server, _, _ = demo_server(rng=7)
        t0 = server.now
        reqs = _mixed_requests(server.models, n=120, t0=t0)
        for r in reqs:
            server.submit(r)
        seen = []
        for to in np.arange(t0 + 0.05, t0 + 10.0, 0.05):
            step = server.step(float(to))
            assert all(r.completed <= to for r in step)
            seen.extend(step)
        assert [r.completed for r in seen] == sorted(r.completed for r in seen)


class TestDeadlineBoundary:
    def test_server_serves_deadline_equal_to_service_start(self):
        # With default timing, request A (model 0) occupies the server
        # until service_time(1) = 0.005; request B (model 1) then starts
        # at exactly t = 0.005.  deadline == start must serve.
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        start = t0 + server.config.service_time(1)
        a = PredictRequest(request_id=0, client_id="ann",
                           model=server.models[0], submitted=t0)
        b = PredictRequest(request_id=1, client_id="bob",
                           model=server.models[1], submitted=t0, deadline=start)
        server.submit(a)
        server.submit(b)
        responses = {r.request_id: r for r in server.step(t0 + 10.0)}
        assert responses[1].status == "ok"

    def test_server_sheds_deadline_strictly_before_service_start(self):
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        start = t0 + server.config.service_time(1)
        a = PredictRequest(request_id=0, client_id="ann",
                           model=server.models[0], submitted=t0)
        b = PredictRequest(request_id=1, client_id="bob",
                           model=server.models[1], submitted=t0,
                           deadline=start - 1e-4)
        server.submit(a)
        server.submit(b)
        responses = {r.request_id: r for r in server.step(t0 + 10.0)}
        assert responses[1].status == "overloaded"
        assert responses[1].reason == SHED_DEADLINE

    def test_columnar_queue_uses_the_same_boundary(self):
        server, _, _ = demo_server(rng=5)
        t0 = server.now
        start = t0 + server.config.service_time(1)
        reqs = [
            PredictRequest(request_id=0, client_id="ann",
                           model=server.models[0], submitted=t0),
            PredictRequest(request_id=1, client_id="bob",
                           model=server.models[1], submitted=t0, deadline=start),
            PredictRequest(request_id=2, client_id="cyd",
                           model=server.models[2], submitted=t0,
                           deadline=start - 1e-4),
        ]
        server.submit_batch(RequestBatch.from_requests(reqs))
        out = {r.request_id: r for r in server.step_batch(t0 + 10.0).to_responses()}
        assert out[1].status == "ok"
        assert out[2].status == "overloaded" and out[2].reason == SHED_DEADLINE

    def test_cluster_requeue_uses_the_same_boundary(self):
        # Satellite regression: before the sweep, in-flight migration
        # shed `deadline <= t` while worker-side shedding used
        # `deadline < t`, so the same trace shed different requests
        # depending on whether a crash happened to move it.  Here the
        # first model's primary serves two rows a second: four filler
        # rows go first, and it crashes at tc with both probe rows in
        # service, so the replica gets exactly the probes at tc.
        worker = ServerConfig(batch_max=2, service_time_base=1.0)
        probe, _, _ = demo_cluster(duration=300.0, rng=5)
        t0, primary, model = probe.now, _victim(probe), probe.models[0]
        tc = t0 + 2.5
        cluster, _, _ = demo_cluster(
            duration=300.0,
            config=ClusterConfig(worker=worker),
            faults=FaultPlan.crashes({primary: [(tc, tc + 100.0)]}),
            rng=5,
        )
        rows = [
            PredictRequest(request_id=i, client_id="ann", model=model, submitted=t0)
            for i in range(4)
        ]
        rows.append(PredictRequest(request_id=4, client_id="bob", model=model,
                                   submitted=t0, deadline=tc))
        rows.append(PredictRequest(request_id=5, client_id="cyd", model=model,
                                   submitted=t0, deadline=tc - 1e-9))
        assert all(cluster.submit(r) is None for r in rows)
        out = {r.request_id: r for r in cluster.step(tc + 10.0)}

        assert all(out[i].ok and out[i].worker == primary for i in range(4))
        served, dead = out[4], out[5]
        assert served.ok and served.failover and served.worker != primary
        assert dead.status == "overloaded" and dead.reason == SHED_DEADLINE
        assert dead.completed == tc
        assert cluster.metrics.counter("requeued_total").value == 1
