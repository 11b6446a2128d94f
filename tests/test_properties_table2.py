"""Property-based tests for the Table 2 stochastic arithmetic.

Hand-rolled seeded generators (no extra dependency) draw hundreds of
random stochastic values, value lists and expression trees, and check
the *algebra* the paper relies on rather than individual examples:

* commutativity of stochastic ``+`` and ``*`` in both relatedness
  regimes;
* the point-value rows of Table 2 (a point operand degenerates to
  exact shift/scale arithmetic, zero/one are identities);
* the related rule is never tighter than the unrelated rule — the
  conservative regime must not over-smooth (Section 2.3.1);
* bounds for every group-``Max`` strategy (Section 2.3.3) and the
  ``Min = -Max(-v)`` duality;
* closed-form evaluation and the vectorised Monte Carlo engine agree on
  random expression trees — bit-identical draws, elementwise-equal
  propagation (``engine="vectorised"`` vs ``engine="reference"``).

Failures print the offending seed, so every case is reproducible.
"""

import math

import numpy as np
import pytest

from repro.core.arithmetic import (
    ReciprocalRule,
    Relatedness,
    add,
    divide,
    multiply,
    scale,
    shift,
    subtract,
    sum_stochastic,
)
from repro.core.group_ops import MaxStrategy, stochastic_max, stochastic_min
from repro.core.stochastic import StochasticValue
from repro.structural.engine import compile_expr
from repro.structural.expr import Add, Div, EvalPolicy, Max, Min, Mul, Param, Sub, Sum, as_expr
from repro.structural.montecarlo import monte_carlo_predict
from repro.structural.parameters import Bindings

N_CASES = 200
BOTH_REGIMES = (Relatedness.RELATED, Relatedness.UNRELATED)

# ----------------------------------------------------------------------
# Hand-rolled seeded generators
# ----------------------------------------------------------------------


def gen_value(rng, *, point_prob: float = 0.15, lo: float = -50.0, hi: float = 50.0):
    """A random stochastic value; occasionally an exact point value."""
    mean = float(rng.uniform(lo, hi))
    if rng.random() < point_prob:
        return StochasticValue.point(mean)
    return StochasticValue(mean, float(rng.uniform(0.0, 10.0)))


def gen_positive_value(rng):
    """A stochastic value safely bounded away from zero (divisible)."""
    mean = float(rng.uniform(0.5, 20.0))
    return StochasticValue(mean, float(rng.uniform(0.0, 0.2 * mean)))


def gen_values(rng, n_max: int = 6):
    return [gen_value(rng) for _ in range(int(rng.integers(1, n_max + 1)))]


def cases(n: int = N_CASES):
    """Seeds for ``n`` independent generator instances."""
    return [(seed, np.random.default_rng(seed)) for seed in range(n)]


def assert_close(a: StochasticValue, b: StochasticValue, seed, tol: float = 1e-9):
    assert math.isclose(a.mean, b.mean, rel_tol=tol, abs_tol=tol), (
        f"seed {seed}: means differ: {a} vs {b}"
    )
    assert math.isclose(a.spread, b.spread, rel_tol=tol, abs_tol=tol), (
        f"seed {seed}: spreads differ: {a} vs {b}"
    )


# ----------------------------------------------------------------------
# Commutativity
# ----------------------------------------------------------------------


class TestCommutativity:
    @pytest.mark.parametrize("regime", BOTH_REGIMES)
    def test_addition_commutes(self, regime):
        for seed, rng in cases():
            x, y = gen_value(rng), gen_value(rng)
            assert_close(add(x, y, regime), add(y, x, regime), seed)

    @pytest.mark.parametrize("regime", BOTH_REGIMES)
    def test_multiplication_commutes(self, regime):
        for seed, rng in cases():
            x, y = gen_value(rng), gen_value(rng)
            assert_close(multiply(x, y, regime), multiply(y, x, regime), seed)

    @pytest.mark.parametrize("regime", BOTH_REGIMES)
    def test_sum_is_permutation_invariant(self, regime):
        for seed, rng in cases():
            vals = gen_values(rng)
            shuffled = [vals[i] for i in rng.permutation(len(vals))]
            assert_close(
                sum_stochastic(vals, regime), sum_stochastic(shuffled, regime), seed
            )


# ----------------------------------------------------------------------
# Point-value rows of Table 2
# ----------------------------------------------------------------------


class TestPointIdentities:
    @pytest.mark.parametrize("regime", BOTH_REGIMES)
    def test_adding_a_point_is_a_shift(self, regime):
        for seed, rng in cases():
            x = gen_value(rng)
            p = float(rng.uniform(-20.0, 20.0))
            got = add(x, StochasticValue.point(p), regime)
            assert_close(got, shift(x, p), seed)
            assert got.spread == x.spread  # spread untouched by a shift

    @pytest.mark.parametrize("regime", BOTH_REGIMES)
    def test_multiplying_by_a_point_is_a_scale(self, regime):
        for seed, rng in cases():
            x = gen_value(rng)
            p = float(rng.uniform(-5.0, 5.0))
            got = multiply(x, StochasticValue.point(p), regime)
            assert_close(got, scale(x, p), seed)
            assert got.spread == pytest.approx(abs(p) * x.spread)

    @pytest.mark.parametrize("regime", BOTH_REGIMES)
    def test_zero_and_one_are_identities(self, regime):
        for seed, rng in cases():
            x = gen_value(rng)
            assert_close(add(x, StochasticValue.point(0.0), regime), x, seed)
            assert_close(multiply(x, StochasticValue.point(1.0), regime), x, seed)

    def test_subtracting_itself_centres_on_zero(self):
        for seed, rng in cases():
            x = gen_value(rng)
            diff = subtract(x, x, Relatedness.UNRELATED)
            assert diff.mean == pytest.approx(0.0, abs=1e-9), f"seed {seed}"

    def test_dividing_by_a_point_is_an_exact_scale(self):
        for seed, rng in cases():
            x = gen_value(rng)
            p = float(rng.uniform(0.5, 5.0))
            assert_close(
                divide(x, StochasticValue.point(p)), scale(x, 1.0 / p), seed
            )


# ----------------------------------------------------------------------
# Related >= unrelated (the conservative regime is conservative)
# ----------------------------------------------------------------------


class TestSpreadOrdering:
    def test_related_addition_is_never_tighter(self):
        for seed, rng in cases():
            x, y = gen_value(rng), gen_value(rng)
            rel = add(x, y, Relatedness.RELATED)
            unrel = add(x, y, Relatedness.UNRELATED)
            assert rel.spread >= unrel.spread - 1e-12, f"seed {seed}"
            assert rel.mean == pytest.approx(unrel.mean)

    def test_related_multiplication_is_never_tighter(self):
        for seed, rng in cases():
            x, y = gen_value(rng), gen_value(rng)
            rel = multiply(x, y, Relatedness.RELATED)
            unrel = multiply(x, y, Relatedness.UNRELATED)
            if unrel.is_point and not rel.is_point:
                continue  # zero-mean convention zeroes the unrelated product
            assert rel.spread >= unrel.spread - 1e-12, f"seed {seed}"

    def test_related_sum_is_never_tighter(self):
        for seed, rng in cases():
            vals = gen_values(rng)
            rel = sum_stochastic(vals, Relatedness.RELATED)
            unrel = sum_stochastic(vals, Relatedness.UNRELATED)
            assert rel.spread >= unrel.spread - 1e-12, f"seed {seed}"


# ----------------------------------------------------------------------
# Group Max / Min bounds (Section 2.3.3)
# ----------------------------------------------------------------------


class TestGroupBounds:
    def test_by_mean_max_attains_the_largest_mean(self):
        for seed, rng in cases():
            vals = gen_values(rng)
            got = stochastic_max(vals, MaxStrategy.BY_MEAN)
            assert got.mean == max(v.mean for v in vals), f"seed {seed}"
            assert got in vals  # selection, not synthesis

    def test_by_endpoint_max_attains_the_largest_endpoint(self):
        for seed, rng in cases():
            vals = gen_values(rng)
            got = stochastic_max(vals, MaxStrategy.BY_ENDPOINT)
            assert got.hi == max(v.hi for v in vals), f"seed {seed}"

    def test_clark_max_dominates_every_mean(self):
        for seed, rng in cases():
            vals = gen_values(rng)
            got = stochastic_max(vals, MaxStrategy.CLARK)
            # E[max(X, Y)] >= max(E[X], E[Y]) for the moment-matched fold.
            assert got.mean >= max(v.mean for v in vals) - 1e-9, f"seed {seed}"

    def test_monte_carlo_max_dominates_every_mean(self):
        for seed, rng in cases(40):  # sampling-based, keep it quick
            vals = gen_values(rng)
            got = stochastic_max(vals, MaxStrategy.MONTE_CARLO, rng=seed, n_samples=4000)
            # Sampling noise scales with the spreads in play.
            slack = 0.1 * max(v.spread for v in vals) + 1e-6
            assert got.mean >= max(v.mean for v in vals) - slack, f"seed {seed}"

    @pytest.mark.parametrize(
        "strategy", (MaxStrategy.BY_MEAN, MaxStrategy.BY_ENDPOINT, MaxStrategy.CLARK)
    )
    def test_min_is_negated_max_of_negations(self, strategy):
        for seed, rng in cases():
            vals = gen_values(rng)
            got = stochastic_min(vals, strategy)
            expected = -stochastic_max([-v for v in vals], strategy)
            assert_close(got, expected, seed)

    def test_max_of_a_singleton_is_itself(self):
        for seed, rng in cases(50):
            v = gen_value(rng)
            for strategy in (MaxStrategy.BY_MEAN, MaxStrategy.BY_ENDPOINT, MaxStrategy.CLARK):
                assert_close(stochastic_max([v], strategy), v, seed)


# ----------------------------------------------------------------------
# Random expression trees: closed form vs the vectorised engine
# ----------------------------------------------------------------------


def gen_tree(rng, params: list[str], depth: int = 0):
    """A random expression tree over ``params``.

    Division is restricted to positive-mean denominators (the demo
    models divide only by availabilities), matching the domain the
    engine serves.
    """
    if depth >= 3 or rng.random() < 0.3:
        if rng.random() < 0.7:
            return Param(params[int(rng.integers(len(params)))])
        return as_expr(float(rng.uniform(0.5, 10.0)))
    kind = int(rng.integers(5))
    left = gen_tree(rng, params, depth + 1)
    right = gen_tree(rng, params, depth + 1)
    if kind == 0:
        return Add(left, right)
    if kind == 1:
        return Sub(left, right)
    if kind == 2:
        return Mul(left, right)
    if kind == 3:
        return Max(left, right, gen_tree(rng, params, depth + 1))
    return Sum(left, right, as_expr(float(rng.uniform(0.0, 5.0))))


def gen_bindings(rng, params: list[str]) -> Bindings:
    b = Bindings()
    for name in params:
        mean = float(rng.uniform(0.5, 10.0))
        spread = float(rng.uniform(0.01, 0.3 * mean))
        b.bind_runtime(name, StochasticValue(mean, spread))
    return b


class TestEngineAgreement:
    @pytest.mark.parametrize(
        "policy",
        (
            EvalPolicy(),
            EvalPolicy(relatedness=Relatedness.UNRELATED),
            EvalPolicy(max_strategy=MaxStrategy.BY_ENDPOINT),
            EvalPolicy(max_strategy=MaxStrategy.CLARK),
        ),
        ids=("related-by-mean", "unrelated", "by-endpoint", "clark"),
    )
    def test_vectorised_engine_matches_reference_loop(self, policy):
        params = ["p0", "p1", "p2"]
        for seed, rng in cases(30):
            expr = gen_tree(rng, params)
            bindings = gen_bindings(rng, params)
            vec = monte_carlo_predict(
                expr, bindings, n_samples=256, rng=seed, policy=policy,
                engine="vectorised",
            )
            ref = monte_carlo_predict(
                expr, bindings, n_samples=256, rng=seed, policy=policy,
                engine="reference",
            )
            np.testing.assert_allclose(
                vec.samples, ref.samples, rtol=1e-12, atol=1e-12,
                err_msg=f"seed {seed}: engines disagree on {expr!r}",
            )

    def test_compiled_plan_matches_closed_form_on_point_bindings(self):
        # With every parameter collapsed to a point, Monte Carlo output
        # must equal the closed-form evaluation exactly, draw for draw.
        params = ["p0", "p1"]
        for seed, rng in cases(30):
            expr = gen_tree(rng, params)
            b = Bindings()
            point = {}
            for name in params:
                point[name] = float(rng.uniform(0.5, 10.0))
                b.bind_runtime(name, StochasticValue.point(point[name]))
            closed = expr.evaluate(b, EvalPolicy())
            mc = monte_carlo_predict(expr, b, n_samples=16, rng=seed)
            np.testing.assert_allclose(mc.samples, closed.mean, rtol=1e-12)

    def test_division_trees_agree_on_positive_domains(self):
        for seed, rng in cases(30):
            num = gen_tree(rng, ["p0", "p1"])
            expr = Div(num, Param("avail"))
            b = gen_bindings(rng, ["p0", "p1"])
            b.bind_runtime("avail", gen_positive_value(rng))
            clip = {"avail": (0.05, float("inf"))}
            vec = monte_carlo_predict(
                expr, b, n_samples=256, rng=seed, clip=clip, engine="vectorised"
            )
            ref = monte_carlo_predict(
                expr, b, n_samples=256, rng=seed, clip=clip, engine="reference"
            )
            np.testing.assert_allclose(vec.samples, ref.samples, rtol=1e-12)

    def test_plans_are_reused_across_equal_trees(self):
        from repro.structural.engine import clear_plan_cache, plan_cache_stats

        clear_plan_cache()
        expr = Add(Param("p0"), Mul(Param("p1"), as_expr(2.0)))
        compile_expr(expr, ("p0", "p1"), policy=EvalPolicy())
        compile_expr(
            Add(Param("p0"), Mul(Param("p1"), as_expr(2.0))), ("p0", "p1"), policy=EvalPolicy()
        )
        stats = plan_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1


# ----------------------------------------------------------------------
# Shared subtrees and live spreads: the lowered plan vs the reference loop
# ----------------------------------------------------------------------

#: Leaves of the shared-subtree generator.  ``p*`` are sampled, ``fixed``
#: is a compile-time stochastic value (bound with its spread, so spreads
#: stay live under the unrelated, by-endpoint and Clark policies) and
#: ``pt`` a zero-spread run-time value (bound, never sampled).
SHARED_LEAVES = ["p0", "p1", "p2", "fixed", "pt"]
#: Positive-mean denominators: a sampled availability, a bound stochastic
#: value and a bound point.
DENOMINATORS = ["avail", "fixed", "pt"]


def gen_shared_tree(rng, pool: list, depth: int = 0):
    """A random tree whose subtrees are often reused verbatim.

    Every subtree built is appended to ``pool``; a later node picks an
    earlier one a quarter of the time, so structurally equal subtrees
    recur (the shape the plan's hash-consing shares).  Covers ``Min``
    and ``Div`` by positive parameters as well as ``gen_tree``'s nodes.
    """
    if pool and rng.random() < 0.25:
        return pool[int(rng.integers(len(pool)))]
    if depth >= 3 or rng.random() < 0.25:
        if rng.random() < 0.8:
            return Param(SHARED_LEAVES[int(rng.integers(len(SHARED_LEAVES)))])
        return as_expr(float(rng.uniform(0.5, 10.0)))
    kind = int(rng.integers(7))
    left = gen_shared_tree(rng, pool, depth + 1)
    if kind == 5:
        node = Div(left, Param(DENOMINATORS[int(rng.integers(len(DENOMINATORS)))]))
    else:
        right = gen_shared_tree(rng, pool, depth + 1)
        if kind < 3:
            node = (Add, Sub, Mul)[kind](left, right)
        elif kind == 3:
            node = Max(left, right, gen_shared_tree(rng, pool, depth + 1))
        elif kind == 4:
            node = Min(left, right, gen_shared_tree(rng, pool, depth + 1))
        else:
            node = Sum(left, right, left)
    pool.append(node)
    return node


def gen_shared_bindings(rng) -> Bindings:
    b = gen_bindings(rng, ["p0", "p1", "p2"])
    b.bind_runtime("avail", gen_positive_value(rng))
    b.bind("fixed", StochasticValue(float(rng.uniform(1.0, 5.0)), float(rng.uniform(0.1, 1.0))))
    b.bind_runtime("pt", float(rng.uniform(0.5, 5.0)))
    return b


def shared_case(seed: int):
    rng = np.random.default_rng(1000 + seed)
    pool: list = []
    expr = Add(gen_shared_tree(rng, pool), gen_shared_tree(rng, pool))
    return expr, gen_shared_bindings(rng)


SHARED_CLIP = {"avail": (0.05, float("inf"))}


def run_both(expr, bindings, seed, policy):
    kwargs = dict(n_samples=128, rng=seed, clip=SHARED_CLIP, policy=policy)
    vec = monte_carlo_predict(expr, bindings, engine="vectorised", **kwargs)
    ref = monte_carlo_predict(expr, bindings, engine="reference", **kwargs)
    return vec.samples, ref.samples


class TestSharedSubtreeAgreement:
    def test_default_policy_is_byte_identical(self):
        # EvalPolicy() is every serving model's policy: means only, so the
        # plan must reproduce the reference loop to the last bit.
        for seed in range(40):
            expr, bindings = shared_case(seed)
            vec, ref = run_both(expr, bindings, seed, EvalPolicy())
            assert vec.tobytes() == ref.tobytes(), f"seed {seed}: {expr!r}"

    @pytest.mark.parametrize(
        "policy",
        (
            EvalPolicy(relatedness=Relatedness.UNRELATED),
            EvalPolicy(max_strategy=MaxStrategy.BY_ENDPOINT),
            EvalPolicy(relatedness=Relatedness.UNRELATED, max_strategy=MaxStrategy.BY_ENDPOINT),
            EvalPolicy(max_strategy=MaxStrategy.CLARK),
            EvalPolicy(
                relatedness=Relatedness.UNRELATED,
                reciprocal_rule=ReciprocalRule.PAPER_LITERAL,
                max_strategy=MaxStrategy.CLARK,
            ),
        ),
        ids=("unrelated", "by-endpoint", "unrelated-by-endpoint", "clark", "unrelated-literal-clark"),
    )
    def test_live_spread_policies_agree(self, policy):
        for seed in range(40):
            expr, bindings = shared_case(seed)
            vec, ref = run_both(expr, bindings, seed, policy)
            np.testing.assert_allclose(
                vec, ref, rtol=1e-12, atol=1e-12,
                err_msg=f"seed {seed}: engines disagree on {expr!r}",
            )
