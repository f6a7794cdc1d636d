"""Search strategies: random, greedy hill-climbing, NSGA-II.

Every strategy drives the same loop -- propose candidates, hand them to the
engine's evaluation broker, read the scored results -- and differs only in
*which* candidates it proposes next.  The broker owns the evaluation budget,
the memoisation and the thread pool, so strategies stay pure search logic
and inherit seeded determinism from the ``numpy`` generator they are given:
the same seed always produces the same evaluation trajectory.

The three strategies cover the span the DSE literature uses as baselines:

``random``
    Uniform sampling of the space; the no-assumptions baseline every
    published search is compared against.
``greedy``
    Hill-climbing over single-layer changes of a scalarised objective
    (accuracy minus ``energy_weight`` x relative energy), seeded from the
    best homogeneous candidate -- the ALWANN-style local refinement.
``nsga2``
    A small elitist NSGA-II: non-dominated sorting with crowding-distance
    selection, binary tournaments, uniform crossover and point mutation --
    the multi-objective workhorse of the approximate-computing DSE papers.

:func:`create_strategy` instantiates one by name.
"""

from __future__ import annotations

import abc

import numpy as np

from ..errors import DSEError
from .evaluator import CandidateResult
from .pareto import crowding_distance, non_dominated_sort
from .space import SearchSpace


class SearchStrategy(abc.ABC):
    """Contract of one search strategy.

    :meth:`run` receives the space, the engine's evaluation broker and a
    seeded random generator.  The broker exposes ``evaluate(candidates) ->
    list[CandidateResult]`` (memoised, budget-capped, order-preserving) and
    ``remaining`` (fresh evaluations left); a strategy returns when it is
    done or the budget is exhausted.
    """

    #: Table name; set by subclasses.
    name: str = "?"

    @abc.abstractmethod
    def run(self, space: SearchSpace, broker, rng: np.random.Generator) -> None:
        """Drive the search until done or out of budget."""

    def describe(self) -> str:
        """Human-readable one-liner used by reports and ``--dry-run``."""
        doc = (self.__doc__ or "").strip().splitlines()
        return doc[0] if doc else self.name


class RandomStrategy(SearchStrategy):
    """Uniform random sampling of the space (the baseline every DSE beats)."""

    name = "random"

    def __init__(self, *, batch_size: int = 8) -> None:
        if batch_size <= 0:
            raise DSEError("random strategy batch_size must be positive")
        self.batch_size = batch_size

    def run(self, space, broker, rng) -> None:
        while broker.remaining > 0:
            if broker.evaluator.memo_size >= space.size:
                # Every distinct candidate is already scored (e.g. a shared,
                # primed evaluator): further draws can only be memo hits,
                # which never consume budget, so the remaining-budget loop
                # would otherwise spin forever on small spaces (budget >
                # space size).  Surface the memoised results to the broker
                # first -- free hits -- so the front and history still
                # reflect the fully-explored space, then stop.
                broker.evaluate(list(space.all_candidates()))
                break
            count = min(self.batch_size, broker.remaining)
            broker.evaluate(
                [space.random_candidate(rng) for _ in range(count)])


class GreedyStrategy(SearchStrategy):
    """Hill-climbing over single-layer moves of a scalarised objective.

    The scalar score is ``accuracy - energy_weight * relative_energy``; with
    the default weight a percentage point of accuracy is worth four points
    of relative energy, which keeps the climb from trivially selecting the
    exact multiplier everywhere.  The climb starts from the best homogeneous
    (one multiplier everywhere) candidate and sweeps layers in order, taking
    the best improving single-layer change until no move improves or the
    budget runs out.
    """

    name = "greedy"

    def __init__(self, *, energy_weight: float = 0.25) -> None:
        if energy_weight < 0:
            raise DSEError("greedy energy_weight must be non-negative")
        self.energy_weight = energy_weight

    def score(self, result: CandidateResult) -> float:
        """Scalarised objective of one result (higher is better)."""
        return result.accuracy - self.energy_weight * result.relative_energy

    def run(self, space, broker, rng) -> None:
        seeds = [space.uniform(name) for name in space.catalogue]
        results = broker.evaluate(seeds)
        if not results:
            return
        current = max(results, key=self.score)

        improved = True
        while improved and broker.remaining > 0:
            improved = False
            for layer_index in range(len(space.layers)):
                if broker.remaining <= 0:
                    break
                moves = space.neighbours(current.candidate, layer_index)
                scored = broker.evaluate(moves)
                if not scored:
                    continue
                best = max(scored, key=self.score)
                if self.score(best) > self.score(current) + 1e-12:
                    current = best
                    improved = True


class NSGA2Strategy(SearchStrategy):
    """Small elitist NSGA-II over the (accuracy, relative energy) plane.

    Non-dominated sorting ranks the combined parent+offspring pool, crowding
    distance breaks ties inside a rank, binary tournaments pick parents, and
    uniform crossover plus point mutation produce offspring -- Deb et al.'s
    algorithm at the population sizes (tens) a functional emulator can
    afford.
    """

    name = "nsga2"

    def __init__(self, *, population: int = 12, generations: int = 16,
                 mutation_rate: float | None = None) -> None:
        if population < 2:
            raise DSEError("nsga2 population must be at least 2")
        if generations < 0:
            raise DSEError("nsga2 generations must be non-negative")
        self.population = population
        self.generations = generations
        self.mutation_rate = mutation_rate

    # -- selection helpers ----------------------------------------------
    @staticmethod
    def _ranked(pool: list[CandidateResult]) -> list[tuple[int, float, int]]:
        """(rank, -crowding, index) sort keys of ``pool`` (lower is better)."""
        keys: list[tuple[int, float, int] | None] = [None] * len(pool)
        for rank, indices in enumerate(non_dominated_sort(pool)):
            distance = crowding_distance(pool, indices)
            for i in indices:
                keys[i] = (rank, -distance[i], i)
        return keys  # type: ignore[return-value]

    def _select(self, pool: list[CandidateResult]) -> list[CandidateResult]:
        keys = self._ranked(pool)
        order = sorted(range(len(pool)), key=lambda i: keys[i])
        return [pool[i] for i in order[: self.population]]

    @staticmethod
    def _tournament(parents: list[CandidateResult], keys,
                    rng: np.random.Generator) -> CandidateResult:
        i, j = rng.integers(0, len(parents), size=2)
        return parents[int(i)] if keys[int(i)] <= keys[int(j)] else parents[int(j)]

    # -- main loop -------------------------------------------------------
    def run(self, space, broker, rng) -> None:
        initial = [space.random_candidate(rng) for _ in range(self.population)]
        parents = _unique_results(broker.evaluate(initial))
        if not parents:
            return

        for _ in range(self.generations):
            if broker.remaining <= 0:
                break
            keys = self._ranked(parents)
            offspring = []
            for _ in range(self.population):
                a = self._tournament(parents, keys, rng)
                b = self._tournament(parents, keys, rng)
                child = space.crossover(a.candidate, b.candidate, rng)
                offspring.append(
                    space.mutate(child, rng, rate=self.mutation_rate))
            children = broker.evaluate(offspring)
            pool = _unique_results(parents + children)
            parents = self._select(pool)


def _unique_results(results: list[CandidateResult]) -> list[CandidateResult]:
    """Drop duplicate candidates, keeping first occurrences (stable)."""
    seen = set()
    unique = []
    for result in results:
        if result.candidate not in seen:
            seen.add(result.candidate)
            unique.append(result)
    return unique


_STRATEGIES: dict[str, type[SearchStrategy]] = {
    cls.name: cls for cls in (RandomStrategy, GreedyStrategy, NSGA2Strategy)
}


def create_strategy(name: str, **params) -> SearchStrategy:
    """Instantiate the strategy called ``name``."""
    try:
        cls = _STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(_STRATEGIES))
        raise DSEError(
            f"unknown strategy {name!r}; known strategies: {known}"
        ) from None
    return cls(**params)


def available_strategies() -> list[str]:
    """Sorted names of every strategy."""
    return sorted(_STRATEGIES)
