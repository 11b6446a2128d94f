"""Struct-of-arrays request/response core for the serving hot path.

The per-request Python object path — one frozen dataclass per request,
dict shuffles through admission → batch → deliver — tops out around a
couple of thousand wall-QPS: the math stopped being the bottleneck the
moment evaluation was vectorised, and object plumbing took its place.
This module is the array-native core that removes it:

* :class:`RequestBatch` — parallel NumPy arrays (submitted, deadline,
  model code, client code, precision) describing many
  requests at once, with the string-valued columns coded against
  :class:`Table`\\ s.  The typed protocol survives as a **lazy view**:
  indexing a batch materialises the exact
  :class:`~repro.serving.protocol.PredictRequest` a scalar caller would
  have built, byte-identical, so goldens, traces and tags never see the
  representation change.
* :class:`ResponseBatch` — the answer-side mirror: status / reason /
  quality codes plus value columns, again with lazy
  :class:`~repro.serving.protocol.PredictResponse` /
  :class:`~repro.serving.protocol.OverloadedResponse` /
  :class:`~repro.serving.protocol.ErrorResponse` views.
* :class:`Tables` — how one deployment codes names.  A standalone
  server, or a cluster and all its workers, owns one append-only
  ``clients`` / ``models`` / ``workers`` table each.  A batch that
  arrives on its own tables is re-coded once, at the deployment's front
  door (:meth:`Tables.adopt`); from then on every batch inside the
  deployment shares the table objects, so ``concat`` is a plain array
  concatenation and concatenating batches on different tables raises.
* :func:`admit_batch` — vectorised admission control: token-bucket
  refill and spend, queue bounds, all as array ops, with decisions
  *request-for-request identical* to feeding the same stream through
  the scalar :class:`~repro.serving.admission.AdmissionController`
  (property-tested in ``tests/test_columnar.py``).

Ragged per-request payloads (override dicts, precision targets) do not
vectorise; they ride as optional tuple sidecars, and the server's one
evaluator reads them per batch: overridden parameters get per-row
draws, precision targets switch the batch to adaptive sampling (see
``docs/serving.md``, "One engine").

Deadlines are stored as ``float64`` with ``+inf`` standing in for
"wait forever", so deadline checks are a single array comparison.  The
boundary convention is **inclusive** (see
:mod:`repro.serving.protocol`): a request is shed only when service
would begin *strictly after* its deadline — ``deadline < t``, never
``<=``.
"""

from __future__ import annotations

from copy import copy
from dataclasses import replace

import numpy as np

from repro.core.stochastic import StochasticValue
from repro.nws.service import QUALITIES
from repro.serving.admission import SPEND_EPS, AdmissionController, TokenBucket
from repro.serving.protocol import (
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SHED_THROTTLED,
    SHED_UNAVAILABLE,
    STATUS_ERROR,
    STATUS_OK,
    STATUS_OVERLOADED,
    ErrorResponse,
    OverloadedResponse,
    PredictRequest,
    PredictResponse,
    Response,
)

__all__ = [
    "NO_DEADLINE",
    "ADMIT",
    "RequestBatch",
    "ResponseBatch",
    "Table",
    "Tables",
    "admit_batch",
    "REASONS",
    "STATUSES",
]

#: Column encoding of "no deadline" (``PredictRequest.deadline is None``).
NO_DEADLINE = float("inf")

#: Status codes used by :class:`ResponseBatch` (index into this tuple).
STATUSES = (STATUS_OK, STATUS_OVERLOADED, STATUS_ERROR)

#: Shed-reason codes: index 0 is "no reason" (ok/error rows).
REASONS = ("", SHED_QUEUE_FULL, SHED_THROTTLED, SHED_DEADLINE, SHED_UNAVAILABLE)

#: Admission verdict codes returned by :func:`admit_batch`.
ADMIT = 0
_VERDICT_QUEUE_FULL = REASONS.index(SHED_QUEUE_FULL)
_VERDICT_THROTTLED = REASONS.index(SHED_THROTTLED)

_STATUS_OK = STATUSES.index(STATUS_OK)
_STATUS_OVERLOADED = STATUSES.index(STATUS_OVERLOADED)
_STATUS_ERROR = STATUSES.index(STATUS_ERROR)


class Table:
    """An append-only string table: ``table[code]`` is a name.

    Codes never change once handed out, so batches coded against the
    same table *object* concatenate as plain arrays.  A table built from
    a caller's sequence keeps its entries as given; :meth:`code` appends
    names it has not seen.
    """

    __slots__ = ("_names", "_codes")

    def __init__(self, names=()):
        self._names = list(names)
        self._codes = dict(zip(self._names, range(len(self._names))))

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, code) -> str:
        return self._names[code]

    def __iter__(self):
        return iter(self._names)

    def code(self, name: str) -> int:
        """The code of ``name``, appended to the table if it is new."""
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self._names)
            self._names.append(name)
        return code

    def codes(self, names) -> np.ndarray:
        """:meth:`code` of every entry of ``names``, as ``int32``."""
        return np.fromiter(map(self.code, names), np.int32, len(names))

    def recode(self, codes: np.ndarray, names) -> tuple[np.ndarray, np.ndarray]:
        """``codes`` into the table ``names``, re-coded into this table.

        One pass over ``names``.  Returns the new codes and the mask of
        codes outside ``names``; those rows get the code of ``""``.
        """
        # Negative codes wrap to huge unsigned ones: one bound check.
        bad = codes.view(np.uint32) >= len(names)
        flagged = bool(bad.any())
        if names is not self:
            lut = self.codes([*names, ""] if flagged else names)
            codes = lut[np.where(bad, len(names), codes) if flagged else codes]
        elif flagged:
            codes = np.where(bad, self.code(""), codes)
        return codes, bad


def _fill(batch, args: dict) -> None:
    """Set ``batch``'s slots from its constructor ``args``, checking lengths."""
    n = len(args["request_id"])
    for name, dtype in batch.COLUMNS.items():
        column = np.asarray(args[name], dtype=dtype)
        if column.shape != (n,):
            raise ValueError(f"column {name!r} has shape {column.shape}, expected ({n},)")
        setattr(batch, name, column)
    for name in batch.TABLES:
        names = args[name]
        setattr(batch, name, names if isinstance(names, Table) else Table(names))
    for name in batch.SIDECARS:
        side = args[name]
        if side is not None and len(side) != n:
            raise ValueError(f"sidecar {name!r} has {len(side)} entries, expected {n}")
        setattr(batch, name, side)


def _select(batch, index):
    """Row subset of ``batch`` by boolean mask or index array (tables shared)."""
    index = np.asarray(index)
    if index.dtype == bool:
        index = np.flatnonzero(index)
    # Built slot by slot: the columns are already typed and aligned.
    out = object.__new__(type(batch))
    for name in batch.COLUMNS:
        setattr(out, name, getattr(batch, name)[index])
    for name in batch.TABLES:
        setattr(out, name, getattr(batch, name))
    for name in batch.SIDECARS:
        side = getattr(batch, name)
        setattr(out, name, None if side is None else tuple(side[i] for i in index))
    return out


def _concat(cls, batches: list):
    """Non-empty batches of ``cls`` as one; they must share every table."""
    if len(batches) == 1:
        return batches[0]
    out = object.__new__(cls)
    for name in cls.TABLES:
        table = getattr(batches[0], name)
        if any(getattr(b, name) is not table for b in batches):
            raise ValueError(f"cannot concatenate batches on different {name} tables")
        setattr(out, name, table)
    for name in cls.COLUMNS:
        setattr(out, name, np.concatenate([getattr(b, name) for b in batches]))
    for name, empty in cls.SIDECARS.items():
        sides = [getattr(b, name) for b in batches]
        if all(side is None for side in sides):
            setattr(out, name, None)
        else:
            rows = (x for b, s in zip(batches, sides) for x in (s or (empty,) * len(b)))
            setattr(out, name, tuple(rows))
    return out


class Tables:
    """The string tables of one deployment: ``clients``, ``models``, ``workers``.

    A standalone server owns one; a cluster owns one and shares it with
    every worker.  Every batch inside the deployment is coded against
    these table objects; :meth:`adopt` brings an outside batch in.
    """

    __slots__ = ("clients", "models", "workers")

    def __init__(self):
        self.clients = Table()
        self.models = Table()
        # Code 0: no worker attribution (a standalone server's answers).
        self.workers = Table(("",))

    def adopt(self, batch: "RequestBatch") -> tuple["RequestBatch", np.ndarray, np.ndarray]:
        """``batch`` coded against these tables, one pass per table.

        Returns the re-coded batch and the row masks of client and model
        codes outside ``batch``'s own tables (re-coded as ``""``).  A
        batch already on these tables with every code in range comes
        back unchanged.
        """
        client, bad_client = self.clients.recode(batch.client, batch.clients)
        model, bad_model = self.models.recode(batch.model, batch.models)
        if client is not batch.client or model is not batch.model:
            batch = copy(batch)
            batch.client, batch.clients, batch.model, batch.models = (
                client, self.clients, model, self.models
            )
        return batch, bad_client, bad_model

    def batch(self, requests) -> "RequestBatch":
        """:class:`PredictRequest` objects as a batch coded against these tables."""
        requests = list(requests)
        n = len(requests)
        overrides = tuple(r.overrides for r in requests)
        precision = tuple(r.precision for r in requests)
        return RequestBatch(
            request_id=np.fromiter((r.request_id for r in requests), np.int64, n),
            client=self.clients.codes([r.client_id for r in requests]),
            clients=self.clients,
            model=self.models.codes([r.model for r in requests]),
            models=self.models,
            submitted=np.fromiter((r.submitted for r in requests), float, n),
            deadline=np.fromiter(
                (NO_DEADLINE if r.deadline is None else r.deadline for r in requests), float, n
            ),
            overrides=None if not any(overrides) else overrides,
            precision=None if all(p is None for p in precision) else precision,
        )


class RequestBatch:
    """Many :class:`~repro.serving.protocol.PredictRequest`\\ s as columns.

    Parameters
    ----------
    request_id, submitted, deadline:
        Parallel arrays; ``deadline`` uses :data:`NO_DEADLINE` (``inf``)
        for requests that wait forever.
    client, clients / model, models:
        Coded string columns: ``client``/``model`` are integer codes
        into the ``clients``/``models`` tables (a :class:`Table`, or any
        sequence of names, which becomes this batch's own table).
    overrides, precision:
        Optional tuple sidecars (one entry per request) for the ragged
        payloads the protocol allows.  ``None`` (the hot-path case)
        means "all empty"/"all None".
    """

    #: The schema: NumPy columns with their dtypes, string tables, and
    #: ragged sidecars with the entry that stands for "empty".
    COLUMNS = {
        "request_id": np.int64,
        "client": np.int32,
        "model": np.int32,
        "submitted": float,
        "deadline": float,
    }
    TABLES = ("clients", "models")
    SIDECARS = {"overrides": {}, "precision": None}
    __slots__ = (*COLUMNS, *TABLES, *SIDECARS)

    def __init__(
        self,
        request_id: np.ndarray,
        client: np.ndarray,
        clients: tuple,
        model: np.ndarray,
        models: tuple,
        submitted: np.ndarray,
        deadline: np.ndarray,
        overrides: tuple | None = None,
        precision: tuple | None = None,
    ):
        _fill(self, locals())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.request_id.shape[0])

    @classmethod
    def from_requests(cls, requests) -> "RequestBatch":
        """Columnise :class:`PredictRequest` objects, on tables of their own."""
        return Tables().batch(requests)

    def request(self, i: int) -> PredictRequest:
        """Materialise row ``i`` as the exact scalar-protocol dataclass."""
        deadline = float(self.deadline[i])
        return PredictRequest(
            request_id=int(self.request_id[i]),
            client_id=self.clients[self.client[i]],
            model=self.models[self.model[i]],
            submitted=float(self.submitted[i]),
            deadline=None if deadline == NO_DEADLINE else deadline,
            overrides=self.overrides[i] if self.overrides is not None else {},
            precision=self.precision[i] if self.precision is not None else None,
        )

    def __iter__(self):
        return (self.request(i) for i in range(len(self)))

    def to_requests(self) -> list[PredictRequest]:
        """Every row materialised (tests, and a crashed worker's queue)."""
        return [self.request(i) for i in range(len(self))]

    def select(self, index) -> "RequestBatch":
        """Row subset by boolean mask or index array (tables shared)."""
        return _select(self, index)

    @classmethod
    def concat(cls, batches) -> "RequestBatch":
        """Concatenate batches coded against the same tables."""
        batches = [b for b in batches if len(b)]
        if not batches:
            raise ValueError("cannot concatenate zero non-empty batches")
        return _concat(cls, batches)


class ResponseBatch:
    """Many typed responses as columns, with lazy dataclass views.

    Value columns (``mean``/``spread``/``p95``/…) are meaningful only on
    ``ok`` rows; ``retry_after`` only on ``overloaded`` rows; the
    ``messages`` sidecar only on ``error`` rows.  ``quality`` indexes
    :data:`~repro.nws.service.QUALITIES`; ``status`` indexes
    :data:`STATUSES`; ``reason`` indexes :data:`REASONS`.
    """

    COLUMNS = {
        "request_id": np.int64,
        "client": np.int32,
        "model": np.int32,
        "status": np.int8,
        "reason": np.int8,
        "completed": float,
        "mean": float,
        "spread": float,
        "p95": float,
        "quality": np.int8,
        "staleness": float,
        "latency": float,
        "batch_size": np.int32,
        "retry_after": float,
        "worker": np.int16,
    }
    TABLES = ("clients", "models", "workers")
    SIDECARS = {"messages": None}
    __slots__ = (*COLUMNS, *TABLES, *SIDECARS)

    def __init__(
        self,
        request_id,
        client,
        clients,
        model,
        models,
        status,
        reason,
        completed,
        mean,
        spread,
        p95,
        quality,
        staleness,
        latency,
        batch_size,
        retry_after,
        worker=None,
        workers=("",),
        messages=None,
    ):
        if worker is None:
            worker = np.zeros(len(request_id), np.int16)
        _fill(self, locals())

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.request_id.shape[0])

    @classmethod
    def empty(cls) -> "ResponseBatch":
        out = object.__new__(cls)
        for name, dtype in cls.COLUMNS.items():
            setattr(out, name, np.empty(0, dtype))
        out.clients, out.models, out.workers, out.messages = Table(), Table(), Table(), None
        return out

    @classmethod
    def from_responses(cls, responses) -> "ResponseBatch":
        """Columnise typed response objects (per-request routing paths)."""
        responses = list(responses)
        n = len(responses)
        clients, models, workers = Table(), Table(), Table()
        client = clients.codes([r.client_id for r in responses])
        worker = workers.codes([r.worker for r in responses])
        model = models.codes(
            [r.model if isinstance(r, PredictResponse) else "" for r in responses]
        )
        status = np.fromiter(
            (STATUSES.index(r.status) for r in responses), dtype=np.int8, count=n
        )
        reason = np.zeros(n, dtype=np.int8)
        mean = np.zeros(n)
        spread = np.zeros(n)
        p95 = np.zeros(n)
        quality = np.zeros(n, dtype=np.int8)
        staleness = np.zeros(n)
        latency = np.zeros(n)
        batch_size = np.ones(n, dtype=np.int32)
        retry_after = np.zeros(n)
        messages = [None] * n
        any_message = False
        for i, r in enumerate(responses):
            if isinstance(r, PredictResponse):
                mean[i] = r.value.mean
                spread[i] = r.value.spread
                p95[i] = r.p95
                quality[i] = QUALITIES.index(r.quality)
                staleness[i] = r.staleness
                latency[i] = r.latency
                batch_size[i] = r.batch_size
                if r.precision is not None or r.distribution is not None or r.failover:
                    # Rich per-answer blocks do not columnise; keep the
                    # original object so the view stays byte-identical.
                    messages[i] = r
                    any_message = True
            elif isinstance(r, OverloadedResponse):
                reason[i] = REASONS.index(r.reason)
                retry_after[i] = r.retry_after
            else:
                messages[i] = r.message
                any_message = True
        return cls(
            request_id=np.fromiter((r.request_id for r in responses), np.int64, count=n),
            client=client,
            clients=clients,
            model=model,
            models=models,
            status=status,
            reason=reason,
            completed=np.fromiter((r.completed for r in responses), float, count=n),
            mean=mean,
            spread=spread,
            p95=p95,
            quality=quality,
            staleness=staleness,
            latency=latency,
            batch_size=batch_size,
            retry_after=retry_after,
            worker=worker,
            workers=workers,
            messages=tuple(messages) if any_message else None,
        )

    def response(self, i: int) -> Response:
        """Materialise row ``i`` as its scalar-protocol dataclass."""
        sidecar = self.messages[i] if self.messages is not None else None
        if isinstance(sidecar, Response):
            return sidecar
        status = int(self.status[i])
        common = dict(
            request_id=int(self.request_id[i]),
            client_id=self.clients[self.client[i]],
            completed=float(self.completed[i]),
            worker=self.workers[self.worker[i]],
        )
        if status == _STATUS_OK:
            return PredictResponse(
                **common,
                value=StochasticValue(float(self.mean[i]), float(self.spread[i])),
                p95=float(self.p95[i]),
                quality=QUALITIES[self.quality[i]],
                staleness=float(self.staleness[i]),
                latency=float(self.latency[i]),
                batch_size=int(self.batch_size[i]),
                model=self.models[self.model[i]],
            )
        if status == _STATUS_OVERLOADED:
            return OverloadedResponse(
                **common,
                reason=REASONS[self.reason[i]],
                retry_after=float(self.retry_after[i]),
            )
        return ErrorResponse(**common, message=sidecar or "")

    def __iter__(self):
        return (self.response(i) for i in range(len(self)))

    def to_responses(self) -> list[Response]:
        return [self.response(i) for i in range(len(self))]

    # ------------------------------------------------------------------
    @property
    def ok_mask(self) -> np.ndarray:
        return self.status == _STATUS_OK

    @property
    def overloaded_mask(self) -> np.ndarray:
        return self.status == _STATUS_OVERLOADED

    @property
    def error_mask(self) -> np.ndarray:
        return self.status == _STATUS_ERROR

    def status_counts(self) -> dict:
        """``{"ok": n, "overloaded": n, "error": n}``."""
        counts = np.bincount(self.status, minlength=len(STATUSES))
        return {name: int(c) for name, c in zip(STATUSES, counts)}

    def reason_counts(self) -> dict:
        """Shed counts keyed by reason (overloaded rows only)."""
        reasons = self.reason[self.overloaded_mask]
        counts = np.bincount(reasons, minlength=len(REASONS))
        return {name: int(c) for name, c in zip(REASONS, counts) if name and c}

    def quality_counts(self) -> dict:
        """Answer counts keyed by forecast quality (ok rows only)."""
        quality = self.quality[self.ok_mask]
        counts = np.bincount(quality, minlength=len(QUALITIES))
        return {name: int(c) for name, c in zip(QUALITIES, counts) if c}

    def select(self, index) -> "ResponseBatch":
        """Row subset by boolean mask or index array (tables shared)."""
        return _select(self, index)

    def with_worker(self, name: str) -> "ResponseBatch":
        """These rows attributed to worker ``name`` (cluster delivery).

        ``name`` is coded into this batch's ``workers`` table.  Only the
        worker column is new; the other columns are shared with ``self``.
        """
        out = copy(self)
        out.worker = np.full(len(self), self.workers.code(name), np.int16)
        if self.messages is not None:
            # Rows carried as whole Response objects (rich per-answer
            # blocks) must be stamped individually, like the column.
            out.messages = tuple(
                replace(m, worker=name) if isinstance(m, Response) else m
                for m in self.messages
            )
        return out

    @classmethod
    def concat(cls, batches) -> "ResponseBatch":
        """Concatenate batches coded against the same tables."""
        batches = [b for b in batches if len(b)]
        return _concat(cls, batches) if batches else cls.empty()

    def sorted_by_completion(self) -> "ResponseBatch":
        """Rows in completion order (stable, so ties keep arrival order)."""
        order = np.argsort(self.completed, kind="stable")
        if np.array_equal(order, np.arange(len(self))):
            return self
        return self.select(order)


# ----------------------------------------------------------------------
# Vectorised admission
# ----------------------------------------------------------------------
def admit_batch(
    controller: AdmissionController,
    batch: RequestBatch,
    queue_depth: int,
    clock: float,
) -> np.ndarray:
    """Admission verdicts for ``batch``, scalar-equivalent, in one pass.

    Returns an ``int8`` array per request: :data:`ADMIT` (0) to admit,
    else the :data:`REASONS` code of the shed
    (``queue_full``/``throttled``).  Feeding the same request stream
    through ``controller.admit`` one at a time yields the same verdicts
    *and* leaves the controller's token buckets in the same state —
    that equivalence is what lets ``submit(request)`` be a one-row
    ``submit_batch``.

    The scalar controller's sequential coupling (queue depth moves as
    requests are admitted; buckets refill lazily per submission) is
    reproduced exactly:

    * With no per-client rate limit the queue bound is a pure prefix
      rule — cumulative-admission arithmetic finds the cutoff.
    * With rate limiting, buckets are scanned **round-wise**: requests
      are ranked within their client, and rank ``r`` of every client is
      processed in one vectorised step (distinct clients are
      independent), so the scan costs ``O(max requests per client in
      the batch)`` array ops, not ``O(requests)`` Python iterations.
    * Queue-full interacts with throttling only at one point: once the
      queue fills, *every* later request is shed ``queue_full`` before
      its bucket is consulted (the scalar check order), so token spends
      after the cutoff are rolled back by re-running the cheap scan on
      the prefix.
    """
    n = len(batch)
    policy = controller.policy
    verdict = np.zeros(n, dtype=np.int8)
    if n == 0:
        return verdict
    # The scalar server admits at now = max(clock, submitted).
    times = np.maximum(batch.submitted, clock)

    if policy.client_rate <= 0.0:
        room = policy.max_queue - queue_depth
        if room < n:
            verdict[max(room, 0) :] = _VERDICT_QUEUE_FULL
        return verdict

    names, codes = batch.clients, batch.client
    token_ok = _token_scan(controller, names, codes, times, apply=False)
    # Queue depth before request i counts earlier admissions; before the
    # cutoff "admitted" == "token_ok" (queue_full cannot fire yet).
    cum_before = np.cumsum(token_ok) - token_ok
    full = queue_depth + cum_before >= policy.max_queue
    if full.any():
        cutoff = int(np.argmax(full))
        verdict[cutoff:] = _VERDICT_QUEUE_FULL
        verdict[:cutoff][~token_ok[:cutoff]] = _VERDICT_THROTTLED
        # Replay bucket updates for the pre-cutoff prefix only: requests
        # shed queue_full never reach the bucket in the scalar order.
        _token_scan(controller, names, codes[:cutoff], times[:cutoff], apply=True)
    else:
        verdict[~token_ok] = _VERDICT_THROTTLED
        _token_scan(controller, names, codes, times, apply=True)
    return verdict


def _token_scan(
    controller: AdmissionController,
    names,
    codes: np.ndarray,
    times: np.ndarray,
    *,
    apply: bool,
) -> np.ndarray:
    """Round-wise vectorised token-bucket scan over one batch's rows.

    ``codes`` index the client table ``names``; only the clients that
    have rows are consulted, so the cost follows the batch, not the
    table.  Returns the per-request grant mask.  With ``apply=False``
    the controller's buckets are left untouched (a what-if pass); with
    ``apply=True`` the final per-client states are written back.
    """
    policy = controller.policy
    n = codes.shape[0]
    present, first, group = np.unique(codes, return_index=True, return_inverse=True)
    # Gather bucket state per client with rows (creating buckets the
    # scalar controller would create on first sight).
    tokens = np.empty(len(present))
    anchor = np.empty(len(present))
    buckets: list[TokenBucket] = []
    for g, (code, row) in enumerate(zip(present.tolist(), first.tolist())):
        client_id = names[code]
        bucket = controller._buckets.get(client_id)
        if bucket is None:
            bucket = TokenBucket(policy.client_rate, policy.client_burst, now=float(times[row]))
            if apply:
                controller._buckets[client_id] = bucket
        buckets.append(bucket)
        tokens[g] = bucket._tokens
        anchor[g] = bucket._anchor
    # Rank each request within its client (arrival order).
    ranks = _rank_within(group, len(present))
    grant = np.zeros(n, dtype=bool)
    max_rank = int(ranks.max()) if n else -1
    for r in range(max_rank + 1):
        idx = np.flatnonzero(ranks == r)
        c = group[idx]
        t = times[idx]
        avail = np.minimum(
            policy.client_burst,
            tokens[c] + policy.client_rate * np.maximum(0.0, t - anchor[c]),
        )
        ok = avail >= 1.0 - SPEND_EPS
        # Spend re-anchors (exact accounting); a denied request leaves
        # the anchor alone so polling cannot accumulate drift — the
        # same rule as TokenBucket.allow.
        tokens[c] = np.where(ok, np.maximum(0.0, avail - 1.0), tokens[c])
        anchor[c] = np.where(ok, np.maximum(anchor[c], t), anchor[c])
        grant[idx] = ok
    if apply:
        for g, bucket in enumerate(buckets):
            bucket._tokens = float(tokens[g])
            bucket._anchor = float(anchor[g])
    return grant


def _rank_within(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Arrival rank of each element within its group code."""
    ranks = np.empty(codes.shape[0], dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    # Position within the sorted run of each group == rank within group.
    starts = np.searchsorted(sorted_codes, np.arange(n_groups), side="left")
    ranks[order] = np.arange(codes.shape[0]) - starts[sorted_codes]
    return ranks
