"""Tests for repro.structural.engine — the vectorised evaluation plan.

The contract under test: for every supported policy, compiling an
expression and evaluating a draw batch produces *elementwise-equal*
results to the per-sample reference loop consuming the same RNG stream.
"""

import re

import numpy as np
import pytest

from repro.core.arithmetic import ReciprocalRule, Relatedness
from repro.core.group_ops import MaxStrategy
from repro.core.stochastic import StochasticValue
from repro.structural.engine import (
    CompiledExpr,
    UnsupportedPolicyError,
    clear_plan_cache,
    compile_expr,
    plan_cache_stats,
)
from repro.structural.components import ComponentModel
from repro.structural.expr import (
    Add,
    Const,
    Div,
    EvalPolicy,
    Max,
    Min,
    Mul,
    Param,
    Sub,
    Sum,
)
from repro.structural.montecarlo import (
    monte_carlo_predict,
    monte_carlo_predict_reference,
)
from repro.structural.parameters import Bindings
from repro.structural.sor_model import SORModel


def rich_bindings() -> Bindings:
    """A mix of sampled, bound-stochastic, and point parameters."""
    b = Bindings()
    b.bind("work", 80.0)
    b.bind("fixed", StochasticValue(3.0, 0.8))  # compile time: never sampled
    b.bind_runtime("load", StochasticValue(0.5, 0.1))
    b.bind_runtime("bw", StochasticValue(0.7, 0.12))
    b.bind_runtime("zmean", StochasticValue(0.0, 0.5))  # zero-mean stochastic
    b.bind_runtime("pt", 2.0)  # run time but point: never sampled
    return b


#: Expression shapes covering every node type, plus the awkward cases:
#: non-sampled stochastic operands, zero-mean operands, nested groups.
EXPRESSIONS = {
    "div-chain": Param("work") / Param("load") / Param("pt"),
    "sub-mix": Sub(Param("work") / Param("load"), Param("fixed") * Param("bw")),
    "max-nested": Max(
        Param("work") / Param("load"),
        Param("work") / Param("bw") + Param("fixed"),
        Min(Param("work"), Param("work") * Param("pt")),
    ),
    "sum-terms": Sum(
        Param("load") * Param("work"),
        Param("bw") * 10.0,
        Param("fixed"),
        Param("zmean") * Param("load"),
    ),
    "const-only": Const(StochasticValue(5.0, 1.0)) * 3.0 + 2.0,
}

POLICIES = [
    EvalPolicy(relatedness=rel, reciprocal_rule=rec, max_strategy=strat)
    for rel in (Relatedness.RELATED, Relatedness.UNRELATED)
    for rec in (ReciprocalRule.FIRST_ORDER, ReciprocalRule.PAPER_LITERAL)
    for strat in (MaxStrategy.BY_MEAN, MaxStrategy.BY_ENDPOINT, MaxStrategy.CLARK)
]


class TestSeededEquivalence:
    @pytest.mark.parametrize("name", sorted(EXPRESSIONS))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_engines_agree(self, name, policy):
        expr = EXPRESSIONS[name]
        b = rich_bindings()
        vec = monte_carlo_predict(expr, b, n_samples=200, rng=3, policy=policy)
        ref = monte_carlo_predict_reference(expr, b, n_samples=200, rng=3, policy=policy)
        np.testing.assert_allclose(vec.samples, ref.samples, rtol=1e-9, atol=0.0)

    def test_monte_carlo_strategy_falls_back(self):
        expr = EXPRESSIONS["max-nested"]
        b = rich_bindings()
        # The MC Max strategy consumes the policy RNG per evaluation, so
        # it cannot be compiled; monte_carlo_predict must transparently
        # run the reference loop and match it draw for draw.
        vec = monte_carlo_predict(
            expr,
            b,
            n_samples=50,
            rng=4,
            policy=EvalPolicy(max_strategy=MaxStrategy.MONTE_CARLO, mc_rng=np.random.default_rng(9)),
        )
        ref = monte_carlo_predict_reference(
            expr,
            b,
            n_samples=50,
            rng=4,
            policy=EvalPolicy(max_strategy=MaxStrategy.MONTE_CARLO, mc_rng=np.random.default_rng(9)),
        )
        np.testing.assert_array_equal(vec.samples, ref.samples)

    def test_zero_division_parity(self):
        b = Bindings()
        b.bind("c", 1.0)
        b.bind("zero", 0.0)
        b.bind("zmean", StochasticValue(0.0, 0.5))  # compile time: bound, stochastic
        b.bind_runtime("load", StochasticValue(0.5, 0.1))
        b.bind_runtime("d", StochasticValue(2.0, 0.3))
        cancel = Param("load") - Param("load")  # zero in every draw
        cases = [
            Param("c") / Param("zero"),
            # One zero-mean denominator shared by two Div nodes: checked
            # once in the plan, and it must still raise.
            Param("c") / cancel + Param("d") / cancel,
            Param("load") / Param("zmean") + Param("d") / Param("zmean"),
            # A zero that reaches the denominator only through a bound
            # (scalar) parameter, under a sampled numerator.
            Param("load") / (Param("zero") * 3.0 + Param("c") * 0.0),
            Param("load") / Const(StochasticValue(0.0)),
        ]
        for expr in cases:
            with pytest.raises(ZeroDivisionError):
                monte_carlo_predict(expr, b, n_samples=10, rng=0)
            with pytest.raises(ZeroDivisionError):
                monte_carlo_predict_reference(expr, b, n_samples=10, rng=0)


class TestDegenerateCases:
    def test_all_point_bindings(self):
        b = Bindings({"x": 3.0, "y": 4.0})
        expr = Param("x") * Param("y") + 1.0
        vec = monte_carlo_predict(expr, b, n_samples=25, rng=0)
        assert np.all(vec.samples == 13.0)

    def test_minimum_sample_count(self):
        b = rich_bindings()
        expr = EXPRESSIONS["div-chain"]
        vec = monte_carlo_predict(expr, b, n_samples=2, rng=5)
        ref = monte_carlo_predict_reference(expr, b, n_samples=2, rng=5)
        np.testing.assert_array_equal(vec.samples, ref.samples)

    def test_constant_only_expression(self):
        vec = monte_carlo_predict(EXPRESSIONS["const-only"], Bindings(), n_samples=30, rng=0)
        ref = monte_carlo_predict_reference(
            EXPRESSIONS["const-only"], Bindings(), n_samples=30, rng=0
        )
        np.testing.assert_array_equal(vec.samples, ref.samples)
        assert np.all(vec.samples == vec.samples[0])

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError):
            monte_carlo_predict(
                Param("x"), Bindings({"x": 1.0}), n_samples=10, engine="bogus"
            )


class TestCompileExpr:
    def test_from_bindings_derives_sampled_set(self):
        b = rich_bindings()
        expr = EXPRESSIONS["sub-mix"]
        plan = compile_expr(expr, b)
        assert isinstance(plan, CompiledExpr)
        # Run-time nonzero-spread referenced parameters only.
        assert plan.sampled == ("bw", "load")
        # Everything else referenced stays bound.
        assert set(plan.bound) == {"work", "fixed"}

    def test_explicit_sampled_names(self):
        plan = compile_expr(Param("a") + Param("b"), ["a"])
        out = plan.evaluate({"a": np.array([1.0, 2.0])}, Bindings({"b": 10.0}))
        np.testing.assert_array_equal(out, [11.0, 12.0])

    def test_unknown_sampled_name_rejected(self):
        with pytest.raises(ValueError):
            compile_expr(Param("a"), ["not_referenced"])

    def test_unsupported_policy_raises(self):
        with pytest.raises(UnsupportedPolicyError):
            compile_expr(
                Max(Param("a"), Param("b")),
                ["a"],
                policy=EvalPolicy(max_strategy=MaxStrategy.MONTE_CARLO),
            )

    def test_draw_length_mismatch_rejected(self):
        plan = compile_expr(Param("a") / Param("b"), ["a", "b"])
        with pytest.raises(ValueError, match="inconsistent draw lengths"):
            plan.evaluate({"a": np.ones(3), "b": np.ones(4)})
        with pytest.raises(ValueError, match="must be 1-D"):
            plan.evaluate({"a": np.ones((2, 2)), "b": np.ones(4)})

    def test_missing_bound_parameter_errors_like_reference(self):
        plan = compile_expr(Param("a") + Param("b"), ["a"])
        with pytest.raises(KeyError):
            plan.evaluate({"a": np.array([1.0, 2.0])}, Bindings())


class TestPlanCache:
    def test_repeat_compile_hits_cache(self):
        clear_plan_cache()
        expr = EXPRESSIONS["max-nested"]
        p1 = compile_expr(expr, ["load", "bw"])
        p2 = compile_expr(expr, ["load", "bw"])
        assert p1 is p2
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_structurally_equal_expressions_share_plans(self):
        clear_plan_cache()
        compile_expr(Param("x") / Param("y"), ["x"])
        compile_expr(Param("x") / Param("y"), ["x"])  # a fresh but equal AST
        assert plan_cache_stats()["hits"] == 1

    def test_policy_is_part_of_the_key(self):
        clear_plan_cache()
        expr = Param("x") / Param("y")
        compile_expr(expr, ["x"])
        compile_expr(expr, ["x"], policy=EvalPolicy(relatedness=Relatedness.UNRELATED))
        assert plan_cache_stats()["misses"] == 2

    def test_cached_plan_sees_fresh_bindings(self):
        # The plan must not bake bound-parameter values in at compile
        # time: the Platform 2 loop rebinds NWS forecasts per run while
        # reusing one plan.
        clear_plan_cache()
        expr = Param("work") / Param("load")
        draws = {"load": np.array([0.5, 0.25])}
        plan = compile_expr(expr, ["load"])
        out1 = plan.evaluate(draws, Bindings({"work": 10.0}))
        plan2 = compile_expr(expr, ["load"])
        out2 = plan2.evaluate(draws, Bindings({"work": 20.0}))
        assert plan2 is plan
        np.testing.assert_array_equal(out1, [20.0, 40.0])
        np.testing.assert_array_equal(out2, [40.0, 80.0])


def count_operators(node) -> int:
    """Operator nodes in the tree, ``ComponentModel`` wrappers stripped."""
    while isinstance(node, ComponentModel):
        node = node.expression
    if isinstance(node, (Add, Sub, Mul, Div)):
        return 1 + count_operators(node.left) + count_operators(node.right)
    if isinstance(node, (Sum, Max, Min)):
        return 1 + sum(count_operators(i) for i in node.items)
    return 0


def registers(plan) -> set:
    """Operator registers the generated program assigns."""
    return set(re.findall(r"^ +(m\d+)\b", plan.source, re.M))


class TestLowering:
    SOR_SAMPLED = ["bw_avail", "load[0]", "load[1]", "load[2]", "load[3]"]

    def test_sor_plan_computes_each_unique_node_once(self):
        # The red and black halves of the SOR model repeat the same Comp
        # and Comm terms; the plan computes each distinct node once.
        expr = SORModel(n_procs=4, iterations=20).expression()
        assert count_operators(expr) == 118
        plan = compile_expr(expr, self.SOR_SAMPLED)
        assert len(registers(plan)) <= 39
        # One nonzero check per distinct non-constant denominator.
        assert plan.source.count("ZeroDivisionError") == len(
            set(re.findall(r"^ +(r\d+) = 1.0 / ", plan.source, re.M))
        )

    def test_default_policy_computes_no_spread(self):
        b = rich_bindings()
        for name, expr in EXPRESSIONS.items():
            plan = compile_expr(expr, b, policy=EvalPolicy())
            assert ".spread" not in plan.source, name
            assert not re.search(r"= _(add|sub|mul|div|sum|group_max|group_min)\(", plan.source)

    def test_live_spreads_reach_the_table2_helpers(self):
        # fixed is bound with a spread, so the unrelated zero-mean
        # convention needs both operands' spreads.
        plan = compile_expr(
            Param("fixed") * Param("work"), rich_bindings(),
            policy=EvalPolicy(relatedness=Relatedness.UNRELATED),
        )
        assert "_mul(" in plan.source and "b0.spread" in plan.source
