"""Tests for the safe-subset solvers (standalone module privacy)."""

from __future__ import annotations

import pytest

from repro.errors import InfeasiblePrivacyError, PrivacyError
from repro.privacy.module_privacy import (
    SOLVERS,
    exact_safe_subset,
    greedy_safe_subset,
    randomized_safe_subset,
    solve_safe_subset,
)
from repro.privacy.relations import ModuleRelation


class TestExactSolver:
    def test_result_is_safe_and_minimal(self, weighted_relation):
        result = exact_safe_subset(weighted_relation, 3)
        assert weighted_relation.is_safe(result.hidden, 3)
        assert result.optimal
        assert result.requested_gamma == 3
        # Minimality: no cheaper subset among all subsets is safe.
        names = weighted_relation.attribute_names()
        import itertools

        for size in range(len(names) + 1):
            for subset in itertools.combinations(names, size):
                if weighted_relation.hiding_cost(subset) < result.cost - 1e-9:
                    assert not weighted_relation.is_safe(subset, 3)

    def test_gamma_one_needs_nothing(self, weighted_relation):
        result = exact_safe_subset(weighted_relation, 1)
        assert result.hidden == frozenset()
        assert result.cost == 0.0

    def test_infeasible_gamma_raises(self, xor_relation):
        with pytest.raises(InfeasiblePrivacyError):
            exact_safe_subset(xor_relation, 3)  # only two outputs exist

    def test_invalid_gamma_rejected(self, xor_relation):
        with pytest.raises(PrivacyError):
            exact_safe_subset(xor_relation, 0)

    def test_custom_costs_change_the_choice(self, xor_relation):
        cheap_output = exact_safe_subset(xor_relation, 2, costs={"c": 0.1})
        assert cheap_output.hidden == frozenset({"c"})
        cheap_input = exact_safe_subset(
            xor_relation, 2, costs={"a": 0.05, "c": 10.0}
        )
        assert cheap_input.hidden == frozenset({"a"})

    def test_candidate_attribute_restriction(self, xor_relation):
        result = exact_safe_subset(xor_relation, 2, candidate_attributes=("c",))
        assert result.hidden == frozenset({"c"})
        with pytest.raises(InfeasiblePrivacyError):
            exact_safe_subset(
                ModuleRelation.random("R", seed=1), 9, candidate_attributes=("R.in0",)
            )

    def test_unknown_cost_attribute_rejected(self, xor_relation):
        with pytest.raises(PrivacyError):
            exact_safe_subset(xor_relation, 2, costs={"nope": 1.0})


class TestGreedySolver:
    @pytest.mark.parametrize("gamma", [2, 3, 6, 9])
    def test_greedy_is_safe(self, weighted_relation, gamma):
        result = greedy_safe_subset(weighted_relation, gamma)
        assert weighted_relation.is_safe(result.hidden, gamma)
        assert not result.optimal

    def test_greedy_cost_never_beats_exact(self, weighted_relation):
        for gamma in (2, 3, 6, 9):
            exact = exact_safe_subset(weighted_relation, gamma)
            greedy = greedy_safe_subset(weighted_relation, gamma)
            assert greedy.cost >= exact.cost - 1e-9

    def test_greedy_pruning_removes_redundant_attributes(self, xor_relation):
        result = greedy_safe_subset(xor_relation, 2)
        # One attribute suffices for XOR; pruning must not leave two.
        assert len(result.hidden) == 1

    def test_greedy_infeasible_raises(self, xor_relation):
        with pytest.raises(InfeasiblePrivacyError):
            greedy_safe_subset(xor_relation, 5)


class TestRandomizedSolver:
    def test_randomized_is_safe_and_deterministic_per_seed(self, weighted_relation):
        first = randomized_safe_subset(weighted_relation, 4, seed=3)
        second = randomized_safe_subset(weighted_relation, 4, seed=3)
        assert first.hidden == second.hidden
        assert weighted_relation.is_safe(first.hidden, 4)

    def test_more_restarts_never_hurt(self, weighted_relation):
        few = randomized_safe_subset(weighted_relation, 6, restarts=1, seed=0)
        many = randomized_safe_subset(weighted_relation, 6, restarts=10, seed=0)
        assert many.cost <= few.cost + 1e-9

    def test_invalid_restarts_rejected(self, weighted_relation):
        with pytest.raises(PrivacyError):
            randomized_safe_subset(weighted_relation, 2, restarts=0)


class TestDispatcher:
    def test_known_solvers(self, xor_relation):
        assert set(SOLVERS) == {"exact", "greedy", "randomized"}
        for solver in SOLVERS:
            result = solve_safe_subset(xor_relation, 2, solver=solver)
            assert xor_relation.is_safe(result.hidden, 2)

    def test_unknown_solver_rejected(self, xor_relation):
        with pytest.raises(PrivacyError):
            solve_safe_subset(xor_relation, 2, solver="quantum")

    def test_summary_shape(self, xor_relation):
        result = solve_safe_subset(xor_relation, 2, solver="greedy")
        summary = result.summary()
        assert summary["module"] == "XOR"
        assert summary["requested_gamma"] == 2
        assert isinstance(summary["hidden"], str)
