"""Tests of the design-space exploration engine (`repro.dse`).

Property-style invariants the ISSUE requires:

* the Pareto front never contains a dominated point (checked over random
  point streams with hypothesis and over real search results);
* the same seed produces an identical search trajectory (and front);
* every returned assignment round-trips through the layer-wise graph
  transformation and re-scores to exactly the reported accuracy.

The expensive end-to-end searches run once per module (session fixtures) and
several tests read the same report.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conv_reference import conv_workloads_from_graph
from repro.backends.cache import (DEFAULT_FILTER_CACHE, DEFAULT_LUT_CACHE,
                                  clear_caches)
from repro.datasets import generate_cifar_like
from repro.dse import (
    CandidateResult,
    EvaluationBroker,
    Evaluator,
    GreedyStrategy,
    ParetoFront,
    ParetoPoint,
    SearchSpace,
    available_strategies,
    create_strategy,
    crowding_distance,
    dominates,
    filter_catalogue,
    make_calibrated_builder,
    non_dominated_sort,
    search,
)
from repro.errors import DSEError
from repro.graph import approximate_graph_layerwise
from repro.models import build_simple_cnn

#: Three-plus multiplier families spanning the accuracy/energy trade-off.
CATALOGUE = ["mul8s_exact", "mul8s_udm", "mul8s_trunc2",
             "mul8s_mitchell", "mul8s_drum4"]


# ----------------------------------------------------------------------
# Shared search setup (built once: the functional emulation is the
# expensive part of these tests).
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def dse_setup():
    """Calibrated deterministic builder + datasets + space + evaluator."""
    calibration = generate_cifar_like(100, seed=3, image_size=16, noise=0.4)
    evaluation = generate_cifar_like(48, seed=29, image_size=16, noise=0.4)

    def base_builder():
        return build_simple_cnn(input_size=16, seed=0)

    builder = make_calibrated_builder(base_builder, calibration)
    space = SearchSpace.for_model(builder(), CATALOGUE)
    evaluator = Evaluator(space, builder, evaluation, batch_size=16)
    return builder, evaluation, space, evaluator


@pytest.fixture(scope="module")
def nsga_search(dse_setup):
    """One completed NSGA-II search and the default caches' hits and
    misses over it: ``(report, lut_counts, filter_counts)``."""
    builder, evaluation, space, _ = dse_setup
    clear_caches()
    caches = (DEFAULT_LUT_CACHE, DEFAULT_FILTER_CACHE)
    before = [cache.stats_snapshot() for cache in caches]
    report = search(
        builder, evaluation, space=space, strategy="nsga2",
        strategy_params={"population": 8, "generations": 4},
        budget=18, seed=7, batch_size=16,
    )
    counts = [(after.hits - prior.hits, after.misses - prior.misses)
              for prior, after in zip(
                  before, [cache.stats_snapshot() for cache in caches])]
    return report, *counts


@pytest.fixture(scope="module")
def nsga_report(nsga_search):
    """The NSGA-II search's report, shared by several assertions."""
    return nsga_search[0]


# ----------------------------------------------------------------------
# Pareto-front invariants (pure, hypothesis-driven).
# ----------------------------------------------------------------------

point_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.05, max_value=2.0, allow_nan=False),
    ),
    min_size=0, max_size=40,
)


class TestParetoFront:
    @settings(max_examples=100, deadline=None)
    @given(objectives=point_lists)
    def test_front_never_contains_a_dominated_point(self, objectives):
        front = ParetoFront()
        for i, (accuracy, energy) in enumerate(objectives):
            front.add(ParetoPoint.from_assignment(
                accuracy, energy, {"conv": f"m{i}"}))
        points = front.points
        for a in points:
            for b in points:
                assert not dominates(a, b), (a, b)

    @settings(max_examples=100, deadline=None)
    @given(objectives=point_lists)
    def test_every_candidate_is_on_or_dominated_by_the_front(self, objectives):
        front = ParetoFront()
        points = [
            ParetoPoint.from_assignment(acc, energy, {"conv": f"m{i}"})
            for i, (acc, energy) in enumerate(objectives)
        ]
        for point in points:
            front.add(point)
        for point in points:
            on_front = any(
                p.accuracy == point.accuracy
                and p.relative_energy == point.relative_energy
                for p in front.points
            )
            assert on_front or any(dominates(p, point) for p in front.points)

    def test_dominance_is_irreflexive_and_asymmetric(self):
        a = ParetoPoint(accuracy=0.9, relative_energy=0.5)
        b = ParetoPoint(accuracy=0.8, relative_energy=0.7)
        assert not dominates(a, a)
        assert dominates(a, b) and not dominates(b, a)

    def test_equal_objectives_do_not_dominate(self):
        a = ParetoPoint.from_assignment(0.9, 0.5, {"conv1": "x"})
        b = ParetoPoint.from_assignment(0.9, 0.5, {"conv1": "y"})
        assert not dominates(a, b) and not dominates(b, a)
        front = ParetoFront()
        assert front.add(a) and front.add(b)
        assert len(front) == 2

    def test_duplicate_point_rejected(self):
        front = ParetoFront()
        point = ParetoPoint.from_assignment(0.9, 0.5, {"conv1": "x"})
        assert front.add(point)
        assert not front.add(ParetoPoint.from_assignment(
            0.9, 0.5, {"conv1": "x"}))
        assert len(front) == 1

    def test_add_prunes_newly_dominated_points(self):
        front = ParetoFront()
        front.add(ParetoPoint.from_assignment(0.8, 0.7, {"c": "a"}))
        front.add(ParetoPoint.from_assignment(0.9, 0.6, {"c": "b"}))
        assert len(front) == 1
        assert front.points[0].accuracy == 0.9

    def test_json_round_trip(self):
        front = ParetoFront()
        front.add(ParetoPoint.from_assignment(0.9, 0.5, {"conv1": "m1"}))
        front.add(ParetoPoint.from_assignment(0.7, 0.3, {"conv1": "m2"}))
        restored = ParetoFront.from_json(front.to_json())
        assert restored.to_json() == front.to_json()
        assert front.dumps() == restored.dumps()

    def test_rejects_non_points(self):
        with pytest.raises(DSEError):
            ParetoFront().add((0.9, 0.5))


class TestNonDominatedSort:
    def test_ranks_partition_and_order(self):
        results = [
            CandidateResult(("a",), {"c": "a"}, accuracy=0.9, relative_energy=0.9),
            CandidateResult(("b",), {"c": "b"}, accuracy=0.8, relative_energy=0.5),
            CandidateResult(("c",), {"c": "c"}, accuracy=0.7, relative_energy=0.95),
            CandidateResult(("d",), {"c": "d"}, accuracy=0.6, relative_energy=0.99),
        ]
        ranks = non_dominated_sort(results)
        flat = sorted(i for rank in ranks for i in rank)
        assert flat == [0, 1, 2, 3]
        assert set(ranks[0]) == {0, 1}   # the two non-dominated points
        assert set(ranks[1]) == {2}      # dominated only by rank 0
        assert set(ranks[2]) == {3}

    def test_crowding_boundary_points_are_infinite(self):
        results = [
            CandidateResult((str(i),), {}, accuracy=a, relative_energy=e)
            for i, (a, e) in enumerate([(0.9, 0.9), (0.8, 0.6), (0.7, 0.4)])
        ]
        distance = crowding_distance(results, [0, 1, 2])
        assert distance[0] == float("inf")
        assert distance[2] == float("inf")
        assert np.isfinite(distance[1])


# ----------------------------------------------------------------------
# Search space mechanics.
# ----------------------------------------------------------------------

class TestSearchSpace:
    def test_space_from_model(self, dse_setup):
        _, _, space, _ = dse_setup
        assert space.layers == ("conv1", "conv2", "conv3")
        assert space.size == len(CATALOGUE) ** 3

    def test_assignment_candidate_round_trip(self, dse_setup):
        _, _, space, _ = dse_setup
        rng = np.random.default_rng(0)
        for _ in range(20):
            candidate = space.random_candidate(rng)
            assert space.candidate(space.assignment(candidate)) == candidate

    def test_random_candidates_are_seed_deterministic(self, dse_setup):
        _, _, space, _ = dse_setup
        a = [space.random_candidate(np.random.default_rng(5)) for _ in range(8)]
        b = [space.random_candidate(np.random.default_rng(5)) for _ in range(8)]
        assert a == b

    def test_mutation_changes_at_least_one_gene_slot(self, dse_setup):
        _, _, space, _ = dse_setup
        rng = np.random.default_rng(1)
        candidate = space.uniform("mul8s_exact")
        mutants = {space.mutate(candidate, rng) for _ in range(30)}
        assert any(m != candidate for m in mutants)
        for mutant in mutants:
            space.validate(mutant)

    def test_neighbours_differ_in_exactly_one_layer(self, dse_setup):
        _, _, space, _ = dse_setup
        candidate = space.uniform("mul8s_exact")
        neighbours = space.neighbours(candidate, 1)
        assert len(neighbours) == len(CATALOGUE) - 1
        for other in neighbours:
            diffs = [i for i, (x, y) in enumerate(zip(candidate, other))
                     if x != y]
            assert diffs == [1]

    def test_catalogue_filtering(self):
        signed = filter_catalogue(CATALOGUE, signed=True)
        assert signed == CATALOGUE  # all mul8s_* designs are signed
        with pytest.raises(DSEError):
            filter_catalogue(CATALOGUE, signed=False)

    def test_invalid_spaces_rejected(self):
        with pytest.raises(DSEError):
            SearchSpace(layers=(), catalogue=("mul8s_exact",))
        with pytest.raises(DSEError):
            SearchSpace(layers=("conv1",), catalogue=())
        with pytest.raises(DSEError):
            SearchSpace(layers=("conv1",), catalogue=("not_a_multiplier",))
        with pytest.raises(DSEError):
            SearchSpace(layers=("conv1", "conv1"),
                        catalogue=("mul8s_exact",))

    def test_invalid_candidates_rejected(self, dse_setup):
        _, _, space, _ = dse_setup
        with pytest.raises(DSEError):
            space.validate(("mul8s_exact",))          # wrong arity
        with pytest.raises(DSEError):
            space.validate(("mul8s_exact",) * 2 + ("mul8u_loa4",))
        with pytest.raises(DSEError):
            space.uniform("mul8u_loa4")               # outside catalogue
        with pytest.raises(DSEError):
            space.candidate({"conv1": "mul8s_exact"})  # missing layers


# ----------------------------------------------------------------------
# Evaluator: energy model, memoisation, round-trip re-scoring.
# ----------------------------------------------------------------------

class TestEvaluator:
    def test_exact_everywhere_has_unit_energy(self, dse_setup):
        _, _, space, evaluator = dse_setup
        assignment = space.assignment(space.uniform("mul8s_exact"))
        assert evaluator.relative_energy(assignment) == pytest.approx(1.0)

    def test_energy_is_mac_weighted(self, dse_setup):
        builder, _, space, evaluator = dse_setup
        macs = {workload.name: workload.macs_per_image
                for workload in conv_workloads_from_graph(builder().graph)}
        assert set(macs) == set(space.layers)
        # Approximating only the heaviest layer saves more energy than
        # approximating only the lightest one.
        heaviest = max(space.layers, key=lambda l: macs[l])
        lightest = min(space.layers, key=lambda l: macs[l])
        assert macs[heaviest] > macs[lightest]
        exact = space.assignment(space.uniform("mul8s_exact"))
        heavy = dict(exact, **{heaviest: "mul8s_mitchell"})
        light = dict(exact, **{lightest: "mul8s_mitchell"})
        assert (evaluator.relative_energy(heavy)
                < evaluator.relative_energy(light) < 1.0)

    def test_unassigned_layers_count_as_exact(self, dse_setup):
        _, _, space, evaluator = dse_setup
        assert evaluator.relative_energy({}) == pytest.approx(1.0)

    def test_evaluation_is_memoised(self, dse_setup):
        _, _, space, evaluator = dse_setup
        candidate = space.uniform("mul8s_mitchell")
        first = evaluator.evaluate(candidate)
        second = evaluator.evaluate(candidate)
        assert second is first
        assert evaluator.cached(candidate) is first

    def test_memoised_broker_accounting(self, dse_setup):
        _, _, space, evaluator = dse_setup
        broker = EvaluationBroker(evaluator, budget=4)
        candidate = space.uniform("mul8s_mitchell")
        evaluator.evaluate(candidate)  # ensure the memo is primed
        results = broker.evaluate([candidate, candidate])
        assert len(results) == 2 and results[0] is results[1]
        assert broker.memo_hits >= 1

    def test_partial_assignment_scores_without_a_candidate(self, dse_setup):
        """Unassigned layers stay exact (ALWANN convention), no DSEError."""
        _, _, space, evaluator = dse_setup
        result = evaluator.score_assignment({"conv1": "mul8s_mitchell"})
        assert result.candidate is None
        assert result.assignment == {"conv1": "mul8s_mitchell"}
        assert result.relative_energy == pytest.approx(
            evaluator.relative_energy({"conv1": "mul8s_mitchell"}))
        assert 0.0 <= result.accuracy <= 1.0

    def test_assignment_outside_the_space_is_rejected_up_front(self,
                                                               dse_setup):
        """Out-of-space layers would pair approximate accuracy with exact
        energy; the evaluator must refuse before paying for the inference."""
        builder, evaluation, _, _ = dse_setup
        restricted = SearchSpace(layers=("conv1", "conv2"),
                                 catalogue=("mul8s_exact", "mul8s_mitchell"))
        evaluator = Evaluator(restricted, builder, evaluation, batch_size=16)
        with pytest.raises(DSEError, match="outside the search space.*conv3"):
            evaluator.score_assignment({"conv3": "mul8s_mitchell"})

    def test_candidate_reports_count_every_layer_on_pool_threads(
            self, dse_setup):
        """A candidate's report totals its whole model, also when the
        candidate is scored on a pool thread of a concurrent broker."""
        builder, evaluation, space, _ = dse_setup
        evaluator = Evaluator(space, builder, evaluation, batch_size=16)
        broker = EvaluationBroker(evaluator, budget=2, max_workers=2)
        results = broker.evaluate([space.uniform("mul8s_mitchell"),
                                   space.uniform("mul8s_udm")])
        assert len(results) == 2
        for result in results:
            assert result.report.batch == len(evaluation)
            assert result.report.stats.macs == (
                builder().macs_per_image * len(evaluation))

    def test_broker_budget_is_enforced(self, dse_setup):
        builder, evaluation, space, _ = dse_setup
        evaluator = Evaluator(space, builder, evaluation, batch_size=16)
        broker = EvaluationBroker(evaluator, budget=2)
        rng = np.random.default_rng(11)
        proposals = [space.random_candidate(rng) for _ in range(5)]
        results = broker.evaluate(proposals)
        assert broker.spent == 2
        assert broker.remaining == 0
        assert len(results) <= len(proposals)
        # Further proposals evaluate nothing fresh.
        assert broker.evaluate([space.uniform("mul8s_udm")]) == []
        assert broker.spent == 2


# ----------------------------------------------------------------------
# End-to-end searches: acceptance criteria of the ISSUE.
# ----------------------------------------------------------------------

class TestSearch:
    def test_front_has_three_nondominated_points(self, nsga_report):
        assert len(nsga_report.front) >= 3
        points = nsga_report.front.points
        for a in points:
            for b in points:
                assert not dominates(a, b)

    def test_search_is_bit_identical_for_same_seed(self, dse_setup,
                                                   nsga_report):
        builder, evaluation, space, _ = dse_setup
        repeat = search(
            builder, evaluation, space=space, strategy="nsga2",
            strategy_params={"population": 8, "generations": 4},
            budget=18, seed=7, batch_size=16,
        )
        assert repeat.front.to_json() == nsga_report.front.to_json()
        first = [(r.candidate, r.accuracy, r.relative_energy)
                 for r in nsga_report.history]
        second = [(r.candidate, r.accuracy, r.relative_energy)
                  for r in repeat.history]
        assert first == second

    def test_concurrent_evaluation_matches_sequential(self, dse_setup,
                                                      nsga_report):
        builder, evaluation, space, _ = dse_setup
        threaded = search(
            builder, evaluation, space=space, strategy="nsga2",
            strategy_params={"population": 8, "generations": 4},
            budget=18, seed=7, batch_size=16, max_workers=4,
        )
        assert threaded.front.to_json() == nsga_report.front.to_json()

    def test_assignments_roundtrip_and_rescore(self, dse_setup, nsga_report):
        """Front assignments re-apply through the transform and re-score."""
        builder, evaluation, space, _ = dse_setup
        evaluator = Evaluator(space, builder, evaluation, batch_size=16)
        for point in nsga_report.front.points:
            assignment = point.assignment_dict
            # The assignment applies cleanly to a fresh model...
            model = builder()
            layer_report = approximate_graph_layerwise(
                model.graph, dict(assignment))
            assert layer_report.per_layer == assignment
            # ...and re-scores to exactly the reported objectives.
            rescored = evaluator.score_assignment(assignment)
            assert rescored.accuracy == point.accuracy
            assert rescored.relative_energy == point.relative_energy

    def test_report_accounting(self, nsga_report):
        assert nsga_report.evaluations == 18
        assert nsga_report.strategy == "nsga2"
        assert nsga_report.history and len(nsga_report.history) >= 18
        assert nsga_report.run_report.stats.macs > 0
        payload = nsga_report.to_json()
        assert payload["front"] == nsga_report.front.to_json()
        assert len(payload["history"]) == len(nsga_report.history)

    def test_search_shares_luts_across_candidates(self, nsga_search):
        # Each catalogue multiplier's table is built at most once for the
        # whole search; every further use is a cache hit.
        _, (hits, misses), _ = nsga_search
        assert misses <= len(CATALOGUE)
        assert hits > misses

    def test_search_shares_filter_banks_across_candidates(self, nsga_search):
        # Candidates rebuild the model with identical weights, so one
        # quantised bank per conv layer serves the whole search.
        _, _, (hits, misses) = nsga_search
        assert misses <= 3
        assert hits > 0


class TestStrategies:
    def test_registry_lists_builtins(self):
        assert {"random", "greedy", "nsga2"} <= set(available_strategies())

    def test_unknown_strategy_raises_dse_error(self):
        with pytest.raises(DSEError, match="unknown strategy"):
            create_strategy("simulated_annealing")

    def test_strategy_params_with_instance_rejected(self, dse_setup):
        builder, evaluation, space, _ = dse_setup
        with pytest.raises(DSEError):
            search(builder, evaluation, space=space,
                   strategy=GreedyStrategy(), strategy_params={"x": 1},
                   budget=1)

    def test_invalid_strategy_params(self):
        with pytest.raises(DSEError):
            create_strategy("nsga2", population=1)
        with pytest.raises(DSEError):
            create_strategy("greedy", energy_weight=-1.0)
        with pytest.raises(DSEError):
            create_strategy("random", batch_size=0)

    def test_random_strategy_terminates_on_exhausted_space(self, dse_setup):
        """Budget > space size must stop, not spin on memoised re-draws."""
        builder, evaluation, _, _ = dse_setup
        single = SearchSpace(layers=("conv1", "conv2", "conv3"),
                             catalogue=("mul8s_exact",))
        report = search(builder, evaluation, space=single,
                        strategy="random", budget=4, seed=0, batch_size=16)
        assert report.evaluations == 1  # the one distinct candidate
        assert len(report.history) == 1

    def test_random_strategy_surfaces_memoised_results(self, dse_setup):
        """A primed shared evaluator must still yield a populated front.

        Regression: the space-exhaustion guard used to break before any
        broker call, so a second search over a fully-explored space
        returned an empty front and history.
        """
        builder, evaluation, _, _ = dse_setup
        single = SearchSpace(layers=("conv1", "conv2", "conv3"),
                             catalogue=("mul8s_exact",))
        evaluator = Evaluator(single, builder, evaluation, batch_size=16)
        first = search(builder, evaluation, evaluator=evaluator,
                       strategy="random", budget=4, seed=0)
        second = search(builder, evaluation, evaluator=evaluator,
                        strategy="random", budget=4, seed=1)
        assert len(first.front) == 1
        assert second.front.to_json() == first.front.to_json()
        assert len(second.history) == 1
        assert second.evaluations == 0 and second.memo_hits >= 1

    def test_random_strategy_respects_budget_and_seed(self, dse_setup):
        builder, evaluation, space, _ = dse_setup
        runs = [
            search(builder, evaluation, space=space, strategy="random",
                   budget=5, seed=13, batch_size=16)
            for _ in range(2)
        ]
        assert runs[0].evaluations == 5
        assert ([r.candidate for r in runs[0].history]
                == [r.candidate for r in runs[1].history])

    def test_greedy_improves_on_its_seed_candidates(self, dse_setup):
        builder, evaluation, space, _ = dse_setup
        strategy = GreedyStrategy()
        report = search(builder, evaluation, space=space, strategy="greedy",
                        budget=16, seed=0, batch_size=16)
        assert report.evaluations <= 16
        scores = [strategy.score(r) for r in report.history]
        uniform_best = max(scores[: len(CATALOGUE)])
        assert max(scores) >= uniform_best
