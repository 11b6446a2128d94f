"""Vectorised batch evaluation of structural-model expressions.

Monte Carlo propagation (:mod:`repro.structural.montecarlo`) evaluates a
model expression once per draw.  The per-sample reference path walks the
AST once per draw through :class:`StochasticValue` arithmetic.  This
module compiles the expression once instead: one lowering pass emits a
straight-line Python function over ``(n_samples,)`` arrays (one per
sampled run-time parameter), built by one :func:`compile` per plan and
held by :class:`CompiledExpr` (``plan.source`` shows it).  The pass:

* **shares subexpressions** — nodes are hash-consed after stripping
  ``ComponentModel`` wrappers, so each distinct subtree, reciprocal and
  zero-denominator check (one ``all()``) runs once per evaluation;
* **computes only live spreads** — ``evaluate`` returns means, so a
  spread is computed only where a mean needs it: the unrelated Mul/Div
  zero-mean convention, ``BY_ENDPOINT``/``CLARK`` keys, or a spread read
  by such a node.  Under ``EvalPolicy()`` none is.  Live spreads go
  through the elementwise Table 2 helpers below, which hold each rule
  once; spreads known to be the scalar 0.0 (sampled draws, point
  constants) pick the point rows at compile time;
* **keeps each rule's operation order** — a quotient is
  ``(1.0 / d) * n``, a ``Sum`` a left fold from ``0.0``, a by-mean
  ``Max``/``Min`` a first-win strict ``where`` fold — so plans match the
  reference path bit for bit under ``EvalPolicy()`` and to ULP level
  otherwise (``math.*`` vs ``numpy`` transcendentals).

Sampled parameters enter as per-draw point values; unsampled ones keep
their bound spread and are read at each ``evaluate``, so one plan serves
any re-bound prediction instant.  Parameter-free subtrees are folded
through the reference evaluator.  ``MONTE_CARLO`` Max nodes draw per
evaluation, which no array program reproduces: :func:`compile_expr`
raises :class:`UnsupportedPolicyError` and callers fall back to the
reference path.  Plans are memoised (LRU) on ``(expression, sampled set,
policy)``.
"""

from __future__ import annotations

import math
import re
from collections import OrderedDict

import numpy as np

from repro.core.arithmetic import Relatedness, ReciprocalRule
from repro.core.group_ops import MaxStrategy
from repro.obs.tracer import STAGE_STRUCTURAL
from repro.structural.components import ComponentModel
from repro.structural.expr import Add, Const, Div, EvalPolicy, Expr, Max, Min, Mul, Param, Sub, Sum
from repro.structural.parameters import Bindings

__all__ = [
    "CompiledExpr", "compile_expr", "clear_plan_cache", "plan_cache_stats",
    "UnsupportedPolicyError", "UnsupportedExpressionError",
]

_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)

#: Maximum number of cached evaluation plans (LRU eviction: hits move a
#: plan to the back of the queue, the front is evicted when full).
_PLAN_CACHE_MAX = 256

_PLAN_CACHE: OrderedDict = OrderedDict()
_PLAN_CACHE_HITS = 0
_PLAN_CACHE_MISSES = 0
_PLAN_CACHE_EVICTIONS = 0


class UnsupportedPolicyError(ValueError):
    """``MaxStrategy.MONTE_CARLO`` with ``Max``/``Min`` nodes: its per-draw
    RNG order cannot be reproduced array-parallel, so callers fall back
    to the per-sample reference path."""


class UnsupportedExpressionError(ValueError):
    """The expression contains a node type the compiler cannot lower."""


def _is_zero(s) -> bool:  # the spread is the scalar 0.0, not an array
    return isinstance(s, float) and s == 0.0


# Elementwise Table 2 combination rules over (mean, spread) pairs


def _add(x, y, related: bool):
    (mx, sx), (my, sy) = x, y
    m = mx + my
    if _is_zero(sx):
        return m, sy
    if _is_zero(sy):
        return m, sx
    if related:
        return m, sx + sy
    return m, np.hypot(sx, sy)


def _sub(x, y, related: bool):
    return _add(x, (-y[0], y[1]), related)  # x - y is x + (-y) in IEEE 754


def _mul(x, y, related: bool):
    (mx, sx), (my, sy) = x, y
    if _is_zero(sx) and _is_zero(sy):
        return mx * my, 0.0
    if _is_zero(sx):
        return mx * my, np.abs(mx) * sy
    if _is_zero(sy):
        return mx * my, np.abs(my) * sx
    if related:
        return mx * my, np.abs(sx * my) + np.abs(sy * mx) + np.abs(sx * sy)
    # Unrelated: elementwise point shortcuts, then the zero-mean
    # convention for two genuinely stochastic operands.
    px = np.equal(sx, 0.0)
    py = np.equal(sy, 0.0)
    both = ~px & ~py
    zero = np.equal(mx, 0.0) | np.equal(my, 0.0)
    m = np.where(both & zero, 0.0, mx * my)
    s_shortcut = np.where(px, np.abs(mx) * sy, np.abs(my) * sx)
    s_both = np.hypot(sx * my, sy * mx)
    s = np.where(both, np.where(zero, 0.0, s_both), s_shortcut)
    return m, s


def _div(x, y, inv, related: bool, rule: ReciprocalRule):
    """``x / y`` given ``inv = 1.0 / mean(y)``, checked nonzero by the caller."""
    (mx, sx), (my, sy) = x, y
    if _is_zero(sy):
        # Point denominator: scale by the reciprocal (exact rule).
        if _is_zero(sx):
            return inv * mx, 0.0
        return inv * mx, np.abs(inv) * sx
    if rule is ReciprocalRule.PAPER_LITERAL:
        sy_arr = np.asarray(sy, dtype=float)
        s_inv = np.divide(
            1.0, sy_arr, out=np.zeros_like(sy_arr), where=sy_arr != 0.0
        )
        if np.ndim(sy) == 0:
            s_inv = float(s_inv)
    else:
        s_inv = np.where(np.equal(sy, 0.0), 0.0, sy / (my * my))
        if np.ndim(s_inv) == 0:
            s_inv = float(s_inv)
    return _mul(x, (inv, s_inv), related)


def _sum(values, related: bool):
    """N-ary sum: a left fold from ``0.0`` of means and of spreads."""
    m, s = 0.0, 0.0
    for vm, vs in values:
        m = m + vm
        s = s + (vs if related else vs * vs)
    return m, (s if related else np.sqrt(s))


def _fold_select(values, key, better):
    """First-win strict-``better`` fold, mirroring Python's ``max(key=...)``."""
    m, s = values[0]
    k = key(m, s)
    for vm, vs in values[1:]:
        vk = key(vm, vs)
        take = better(vk, k)
        if np.ndim(take) == 0:
            if take:
                m, s, k = vm, vs, vk
        else:
            m = np.where(take, vm, m)
            s = np.where(take, vs, s)
            k = np.where(take, vk, k)
    return m, s


def _clark_pair(x, y):
    """Vectorised Clark (1961) max of two normals (zero correlation).

    Mirrors :func:`repro.core.group_ops.clark_max` term by term; the
    normal CDF uses ``math.erf`` per non-degenerate lane so results track
    the scalar reference to ULP level rather than the coarser vectorised
    erf approximation.
    """
    (mx, sx), (my, sy) = x, y
    if np.ndim(mx) == 0 and np.ndim(sx) == 0 and np.ndim(my) == 0 and np.ndim(sy) == 0:
        from repro.core.group_ops import clark_max
        from repro.core.stochastic import StochasticValue

        v = clark_max(StochasticValue(float(mx), float(sx)), StochasticValue(float(my), float(sy)))
        return v.mean, v.spread
    mx, sx, my, sy = (np.asarray(a, dtype=float) for a in np.broadcast_arrays(mx, sx, my, sy))
    s1 = sx / 2.0
    s2 = sy / 2.0
    a2 = s1 * s1 + s2 * s2
    deg = a2 <= 1e-300
    x_wins = mx >= my
    m_out = np.where(x_wins, mx, my)
    s_out = np.where(x_wins, sx, sy)
    nd = ~deg
    if np.any(nd):
        a = np.sqrt(a2[nd])
        alpha = (mx[nd] - my[nd]) / a
        phi = np.exp(-0.5 * alpha * alpha) / _SQRT2PI
        z = alpha / _SQRT2
        big_phi = 0.5 * (1.0 + np.fromiter((math.erf(v) for v in z), dtype=float, count=z.size))
        m1 = mx[nd] * big_phi + my[nd] * (1.0 - big_phi) + a * phi
        m2 = (
            (mx[nd] * mx[nd] + s1[nd] * s1[nd]) * big_phi
            + (my[nd] * my[nd] + s2[nd] * s2[nd]) * (1.0 - big_phi)
            + (mx[nd] + my[nd]) * a * phi
        )
        var = np.maximum(m2 - m1 * m1, 0.0)
        m_out[nd] = m1
        s_out[nd] = 2.0 * np.sqrt(var)
    return m_out, s_out


def _group_max(values, strategy: MaxStrategy):
    if strategy is MaxStrategy.BY_MEAN:
        return _fold_select(values, lambda m, s: m, np.greater)
    if strategy is MaxStrategy.BY_ENDPOINT:
        return _fold_select(values, lambda m, s: m + s, np.greater)
    out = values[0]  # CLARK: a pairwise left fold, as in the scalar reference
    for v in values[1:]:
        out = _clark_pair(out, v)
    return out


def _group_min(values, strategy: MaxStrategy):
    # The scalar reference computes Min as -Max(-values); negation is
    # exact, so flipped strict comparisons reproduce it bitwise.
    if strategy is MaxStrategy.BY_MEAN:
        return _fold_select(values, lambda m, s: m, np.less)
    if strategy is MaxStrategy.BY_ENDPOINT:
        return _fold_select(values, lambda m, s: s - m, np.greater)
    negated = [(-m if np.ndim(m) else -float(m), s) for m, s in values]
    m, s = _group_max(negated, strategy)
    return (-m if np.ndim(m) else -float(m)), s


# Lowering: expression tree -> straight-line program

_ZDIV = "division by a zero-mean stochastic value"

#: Names a generated program reads besides its own constants.
_RUNTIME = dict(
    _where=np.where, _greater=np.greater, _less=np.less, _add=_add, _sub=_sub, _mul=_mul,
    _div=_div, _sum=_sum, _group_max=_group_max, _group_min=_group_min, _ZDIV=_ZDIV,
)
_OPS = {Add: ("+", "_add"), Sub: ("-", "_sub"), Mul: ("*", "_mul"), Div: ("*", "_div")}
_GROUPS = {Sum: ("_sum", "_REL"), Max: ("_group_max", "_STRAT"), Min: ("_group_min", "_STRAT")}
_KINDS = frozenset((Const, Param, *_OPS, *_GROUPS))


def _lower(expression: Expr, sampled: tuple, bound: tuple, policy: EvalPolicy):
    """Lower ``expression`` to ``(source, namespace)`` of one function,
    ``_plan(x0, ..., b0, ...)``: sampled arrays in ``sampled`` order, then
    bound values in ``bound`` order, to the result mean."""
    related = policy.relatedness is Relatedness.RELATED
    strategy = policy.max_strategy
    ns = dict(_RUNTIME, _REL=related, _RULE=policy.reciprocal_rule, _STRAT=strategy)

    # 1. Hash-cons: one register per structurally distinct node, operands
    #    first.  A register is (kind, args); an operator's args are
    #    registers.  zeros[r]: its spread is statically the scalar 0.0;
    #    arrays[r]: its mean is an array over the draws.
    nodes, zeros, arrays = [], [], []
    index: dict = {}  # structural key -> register
    seen: dict = {}  # id(node) -> register, so shared objects are walked once

    def walk(n: Expr) -> int:
        while isinstance(n, ComponentModel):
            n = n.expression
        kind = type(n)
        if kind is Param:  # a leaf: its name is its key
            x = n.name in sampled
            key, kind, args = n.name, ("x" if x else "b"), (sampled if x else bound).index(n.name)
            zero = array = x
        elif id(n) in seen:
            return seen[id(n)]
        elif kind not in _KINDS:
            raise UnsupportedExpressionError(
                f"cannot compile expression node of type {kind.__name__}"
            )
        elif strategy is MaxStrategy.MONTE_CARLO and kind in (Max, Min):
            raise UnsupportedPolicyError(
                "MaxStrategy.MONTE_CARLO consumes RNG state per draw and "
                "cannot be vectorised; use the per-sample reference path"
            )
        else:
            kids = (n.left, n.right) if kind in _OPS else getattr(n, "items", ())
            args = tuple(map(walk, kids))  # every node is checked, folded or not
            if not n.params():  # fold through the reference rules
                v = n.evaluate(Bindings(), policy)
                m, s = float(v.mean), float(v.spread)
                key, kind, args, zero, array = (m.hex(), s.hex()), "k", (m, s), s == 0.0, False
            else:
                zero = all(map(zeros.__getitem__, args))
                zero = zero and not (kind in (Max, Min) and strategy is MaxStrategy.CLARK)
                key, array = (kind, args), any(map(arrays.__getitem__, args))
        seen[id(n)] = r = index.setdefault(key, len(nodes))
        if r == len(nodes):
            nodes.append((kind, args))
            zeros.append(zero)
            arrays.append(array)
        return r

    root = walk(expression)

    # 2. Spread liveness, root first.  A register is "rich" -- computed as
    #    a (mean, spread) pair by the Table 2 helpers -- when its spread is
    #    not statically zero and a rich consumer reads it or its own mean
    #    depends on its operands' spreads.  No other spread is computed.
    live = [False] * len(nodes)
    rich = [False] * len(nodes)
    for r in reversed(range(len(nodes))):
        kind, args = nodes[r]
        if isinstance(kind, str) or zeros[r]:
            continue
        if kind in (Max, Min):  # BY_ENDPOINT and CLARK keys read spreads
            needs = strategy is not MaxStrategy.BY_MEAN
        else:  # the unrelated zero-mean convention reads them
            needs = kind in (Mul, Div) and not related and not any(map(zeros.__getitem__, args))
        if live[r] or needs:
            rich[r] = True
            for a in args:
                live[a] = True

    # 3. Emit the statements, children first.
    mean, spread, lines = [], [], []
    recip: dict = {}  # denominator register -> reciprocal name
    temps: set = set()  # array-valued registers

    def reciprocal(d: int) -> str:
        if d not in recip:
            recip[d] = f"r{d}"
            if nodes[d][0] == "k" and nodes[d][1][0] != 0.0:
                ns[recip[d]] = 1.0 / nodes[d][1][0]
            else:  # one nonzero check and one reciprocal per denominator
                test = f"{mean[d]}.all()" if arrays[d] else mean[d]
                lines.append(f"if not {test}: raise ZeroDivisionError(_ZDIV)")
                lines.append(f"{recip[d]} = 1.0 / {mean[d]}")
                temps.update([recip[d]] if arrays[d] else [])
        return recip[d]

    for r, (kind, args) in enumerate(nodes):
        zero, is_array = zeros[r], arrays[r]
        m, s = f"m{r}", ("0.0" if zero else f"s{r}")
        ins = [mean[a] for a in args] if not isinstance(kind, str) else []
        if kind == "k":
            m = f"k{r}"
            ns[m] = args[0]
            if not zero:
                s = f"ks{r}"
                ns[s] = args[1]
        elif kind == "x":
            m = f"x{args}"
        elif kind == "b":
            m, s = f"b{args}.mean", f"b{args}.spread"
        elif rich[r]:
            pairs = [f"({mean[a]}, {spread[a]})" for a in args]
            if kind in _GROUPS:
                call = f"{_GROUPS[kind][0]}(({', '.join(pairs)},), {_GROUPS[kind][1]})"
            elif kind is Div:
                call = f"_div({pairs[0]}, {pairs[1]}, {reciprocal(args[1])}, _REL, _RULE)"
            else:
                call = f"{_OPS[kind][1]}({pairs[0]}, {pairs[1]}, _REL)"
            lines.append(f"{m}, {s} = {call}")
        elif kind is Div:  # (1.0 / d) * n, as the scalar rule scales
            lines.append(f"{m} = {reciprocal(args[1])} * {ins[0]}")
        elif kind in _OPS:
            lines.append(f"{m} = {ins[0]} {_OPS[kind][0]} {ins[1]}")
        elif kind is Sum:  # left fold from 0.0
            lines.append(f"{m} = {' + '.join(['0.0'] + ins)}")
        else:  # first-win strict fold, as max()/min() with a key
            cmp = {Max: ("_greater", ">"), Min: ("_less", "<")}[kind][0 if is_array else 1]
            lines += [f"{m} = {ins[0]}"] if len(ins) == 1 else []
            for i, new in enumerate(ins[1:]):
                cur = m if i else ins[0]
                if is_array:
                    lines.append(f"{m} = _where({cmp}({new}, {cur}), {new}, {cur})")
                else:
                    lines.append(f"{m} = {new} if {new} {cmp} {cur} else {cur}")
        if is_array and not isinstance(kind, str):
            temps.update([m, s] if rich[r] else [m])
        mean.append(m)
        spread.append(s)

    # 4. Delete each array temporary after the last line naming it, so
    #    the allocator hands its memory on while it is still in cache.
    last = {name: i for i, line in enumerate(lines) for name in re.findall(r"\b[msr]\d+\b", line)}
    dead: dict = {}
    for name in temps - {mean[root]}:
        dead.setdefault(last[name], []).append(name)
    code = "".join(
        f"    {line}\n" + (f"    del {', '.join(sorted(dead[i]))}\n" if i in dead else "")
        for i, line in enumerate(lines)
    )
    params = [f"x{j}" for j in range(len(sampled))] + [f"b{j}" for j in range(len(bound))]
    return f"def _plan({', '.join(params)}):\n{code}    return {mean[root]}\n", ns


class CompiledExpr:
    """A reusable vectorised evaluation plan for one expression.

    Attributes
    ----------
    expression:
        The source expression.
    sampled:
        Names evaluated from per-draw sample arrays, sorted.
    bound:
        Referenced names resolved from the bindings at each
        :meth:`evaluate` call (compile-time parameters, unsampled
        run-time parameters), sorted.
    policy:
        The :class:`EvalPolicy` the plan was specialised for.
    source:
        The generated straight-line program (one ``def _plan``).
    """

    __slots__ = ("expression", "sampled", "bound", "policy", "source", "_fn")

    def __init__(self, expression: Expr, sampled, policy: EvalPolicy):
        self.expression = expression
        self.sampled = tuple(sorted(sampled))
        referenced = expression.params()
        unknown = set(self.sampled) - set(referenced)
        if unknown:
            raise ValueError(
                f"sampled parameters {sorted(unknown)} are not referenced by the expression"
            )
        self.bound = tuple(sorted(set(referenced) - set(self.sampled)))
        self.policy = policy
        self.source, namespace = _lower(expression, self.sampled, self.bound, policy)
        exec(compile(self.source, "<structural plan>", "exec"), namespace)
        self._fn = namespace["_plan"]

    def evaluate(
        self, draws: dict, bindings: Bindings | None = None, *, n_samples: int | None = None
    ) -> np.ndarray:
        """Evaluate the whole sample batch in one vectorised pass.

        Parameters
        ----------
        draws:
            Mapping of sampled-parameter name to an ``(n,)`` array of
            per-draw point values.
        bindings:
            Environment supplying every referenced-but-unsampled
            parameter (ignored when the plan has none).
        n_samples:
            Batch size, required only when ``sampled`` is empty (the
            result of a constant plan is broadcast to this length).

        Returns
        -------
        ``(n,)`` array of per-draw result means — elementwise equal to
        the per-sample reference path's output.
        """
        args = []
        n = None
        for name in self.sampled:
            arr = np.asarray(draws[name], dtype=float)
            if arr.ndim != 1:
                raise ValueError(f"draws[{name!r}] must be 1-D, got shape {arr.shape}")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise ValueError(
                    f"inconsistent draw lengths: {name!r} has {arr.shape[0]}, expected {n}"
                )
            args.append(arr)
        if self.bound:
            if bindings is None:
                raise ValueError(
                    f"plan references unsampled parameters {list(self.bound)}; "
                    "bindings are required"
                )
            args.extend(bindings.resolve(name) for name in self.bound)
        out = np.asarray(self._fn(*args), dtype=float)
        if out.ndim == 0:
            n = n_samples if n is None else n
            if n is None:
                raise ValueError("n_samples is required for a constant plan")
            out = np.full(int(n), float(out))
        return out


def compile_expr(
    expression: Expr, bindings_or_sampled=None, *, policy: EvalPolicy | None = None, tracer=None
) -> CompiledExpr:
    """Compile (or fetch from cache) a vectorised plan for ``expression``.

    Parameters
    ----------
    expression:
        The structural-model expression to lower.
    bindings_or_sampled:
        Either a :class:`Bindings` environment — the sampled set is then
        derived exactly as Monte Carlo propagation does (run-time,
        nonzero-spread, referenced parameters) — or an explicit iterable
        of parameter names to treat as per-draw sample arrays.  ``None``
        means no sampled parameters (a constant-per-bindings plan).
    policy:
        Evaluation policy applied to residual stochastic values; defaults
        to the Monte Carlo point policy (related sums, by-mean Max).
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer`; each call then
        records an instant span (stage ``structural``) with the
        plan-cache outcome (``cache_hit``) and the sampled-parameter
        count.  Tracing never affects the cache key or its contents.

    Raises
    ------
    UnsupportedPolicyError
        ``MaxStrategy.MONTE_CARLO`` with ``Max``/``Min`` nodes present.
    UnsupportedExpressionError
        The tree contains a node type the compiler cannot lower.
    """
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES, _PLAN_CACHE_EVICTIONS
    if policy is None:
        policy = EvalPolicy()
    if bindings_or_sampled is None:
        sampled: tuple = ()
    elif isinstance(bindings_or_sampled, Bindings):
        b = bindings_or_sampled
        referenced = expression.params()
        sampled = tuple(
            name
            for name in b.runtime_names()
            if name in b and not b.resolve(name).is_point and name in referenced
        )
    else:
        sampled = tuple(sorted(set(bindings_or_sampled)))
    rules = (policy.relatedness, policy.reciprocal_rule, policy.max_strategy)
    key = (expression, tuple(sorted(sampled)), rules)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        _PLAN_CACHE_HITS += 1
        _PLAN_CACHE.move_to_end(key)
        _trace_compile(tracer, plan, cache_hit=True)
        return plan
    _PLAN_CACHE_MISSES += 1
    plan = CompiledExpr(expression, sampled, policy)
    _PLAN_CACHE[key] = plan
    while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
        _PLAN_CACHE_EVICTIONS += 1
    _trace_compile(tracer, plan, cache_hit=False)
    return plan


def _trace_compile(tracer, plan: CompiledExpr, *, cache_hit: bool) -> None:
    """Record one ``plan.compile`` span (no-op without a live tracer)."""
    if tracer is None or not tracer.enabled:
        return
    tracer.start_span(
        "plan.compile",
        stage=STAGE_STRUCTURAL,
        cache_hit=cache_hit,
        sampled=len(plan.sampled),
        bound=len(plan.bound),
    ).finish()


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the hit/miss/eviction counters."""
    global _PLAN_CACHE_HITS, _PLAN_CACHE_MISSES, _PLAN_CACHE_EVICTIONS
    _PLAN_CACHE.clear()
    _PLAN_CACHE_HITS = 0
    _PLAN_CACHE_MISSES = 0
    _PLAN_CACHE_EVICTIONS = 0


def plan_cache_stats() -> dict:
    """Cache diagnostics.

    Returns ``{"size", "hits", "misses", "evictions", "hit_rate",
    "max_size"}`` — the counters the serving metrics surface as the
    plan-cache hit rate (``hit_rate`` is 0.0 before any lookup).
    """
    lookups = _PLAN_CACHE_HITS + _PLAN_CACHE_MISSES
    return {
        "size": len(_PLAN_CACHE),
        "hits": _PLAN_CACHE_HITS,
        "misses": _PLAN_CACHE_MISSES,
        "evictions": _PLAN_CACHE_EVICTIONS,
        "hit_rate": (_PLAN_CACHE_HITS / lookups) if lookups else 0.0,
        "max_size": _PLAN_CACHE_MAX,
    }
