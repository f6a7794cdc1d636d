"""The search engine: budget, concurrency, accounting and :func:`search`.

This module closes the loop the paper motivates ("automated design of
approximate DNN accelerators in which many candidate designs have to be
quickly evaluated"): a :class:`SearchStrategy` proposes candidates, the
:class:`EvaluationBroker` scores them through the shared
:class:`~repro.dse.evaluator.Evaluator` -- concurrently on a thread pool,
memoised, capped by the evaluation budget -- and every result is folded into
the :class:`~repro.dse.pareto.ParetoFront` and the final
:class:`DSEReport`.

Determinism contract: with the same seed, model builder, dataset, catalogue
and budget, a search produces a bit-identical trajectory and front.  The
broker preserves proposal order when collecting thread-pool results and the
memoisation is keyed on candidate tuples, so concurrency changes wall-clock
time but never results.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ..backends.pipeline import RunReport
from ..errors import DSEError
from .evaluator import CandidateResult, Evaluator
from .pareto import ParetoFront, ParetoPoint
from .space import Candidate, SearchSpace
from .strategies import SearchStrategy, create_strategy


class EvaluationBroker:
    """Budgeted, memoised, order-preserving candidate evaluation.

    Strategies hand in candidate batches; the broker deduplicates them,
    serves memoised results for candidates already scored, evaluates the
    fresh ones (on the thread pool when ``max_workers > 1``) until the
    budget is spent, and returns results in proposal order.  Candidates that
    did not fit the remaining budget are silently dropped -- the strategy
    observes the shrinking ``remaining`` counter instead.
    """

    def __init__(self, evaluator: Evaluator, *, budget: int,
                 max_workers: int = 1) -> None:
        if budget <= 0:
            raise DSEError("evaluation budget must be positive")
        if max_workers <= 0:
            raise DSEError("max_workers must be positive")
        self.evaluator = evaluator
        self.budget = budget
        self.max_workers = max_workers
        self.spent = 0
        self.memo_hits = 0
        self.history: list[CandidateResult] = []
        self.front = ParetoFront()

    @property
    def remaining(self) -> int:
        """Fresh evaluations left in the budget."""
        return max(self.budget - self.spent, 0)

    def evaluate(self, candidates: list[Candidate]) -> list[CandidateResult]:
        """Score ``candidates``; returns results in proposal order."""
        ordered: list[Candidate] = []
        fresh: list[Candidate] = []
        results: dict[Candidate, CandidateResult] = {}
        for candidate in candidates:
            candidate = self.evaluator.space.validate(candidate)
            ordered.append(candidate)
            if candidate in results or candidate in fresh:
                continue  # duplicate within this batch: evaluate once
            hit = self.evaluator.cached(candidate)
            if hit is not None:
                self.memo_hits += 1
                results[candidate] = hit
            elif len(fresh) < self.remaining:
                fresh.append(candidate)

        if fresh:
            if self.max_workers > 1 and len(fresh) > 1:
                workers = min(self.max_workers, len(fresh))
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    # map preserves submission order: the trajectory (and
                    # therefore the strategy's decisions) is identical to a
                    # sequential run.
                    scored = list(pool.map(self.evaluator.evaluate, fresh))
            else:
                scored = [self.evaluator.evaluate(c) for c in fresh]
            self.spent += len(fresh)
            for candidate, result in zip(fresh, scored):
                results[candidate] = result

        out = []
        for candidate in ordered:
            result = results.get(candidate)
            if result is None:
                continue  # dropped: budget exhausted mid-batch
            out.append(result)
        # History and front record unique evaluations in first-seen order.
        for candidate in dict.fromkeys(ordered):
            result = results.get(candidate)
            if result is not None and not any(
                    r.candidate == candidate for r in self.history):
                self.history.append(result)
                self.front.add(ParetoPoint.from_assignment(
                    result.accuracy, result.relative_energy,
                    result.assignment))
        return out


@dataclass
class DSEReport:
    """Outcome of one design-space exploration.

    Rolls the per-candidate :class:`~repro.backends.pipeline.RunReport`
    accounting into one structure next to the front.  It holds no cache
    counts: the caches are shared by the whole process, so a search's share
    of their lookups is only knowable when nothing else runs; read a
    cache's own :meth:`~repro.backends.cache.LUTCache.stats_snapshot`
    around the search in that case.
    """

    strategy: str = ""
    seed: int = 0
    budget: int = 0
    evaluations: int = 0
    memo_hits: int = 0
    wall_time_s: float = 0.0
    front: ParetoFront = field(default_factory=ParetoFront)
    history: list[CandidateResult] = field(default_factory=list)
    space: SearchSpace | None = None
    run_report: RunReport = field(default_factory=RunReport)

    @property
    def candidates_per_second(self) -> float:
        """Distinct candidates scored per wall-clock second."""
        if self.wall_time_s <= 0.0:
            return 0.0
        return self.evaluations / self.wall_time_s

    def summary(self) -> str:
        """Multi-line human-readable digest (CLI / example output)."""
        lines = [
            f"strategy={self.strategy} seed={self.seed} "
            f"budget={self.budget} evaluated={self.evaluations} "
            f"memoised={self.memo_hits}",
            f"wall time: {self.wall_time_s:.2f} s "
            f"({self.candidates_per_second:.2f} candidates/s)",
            f"front: {self.front.summary()}",
        ]
        return "\n".join(lines)

    def to_json(self) -> dict:
        """Plain-data representation for archiving a search outcome.

        Timing fields are included but everything else is deterministic for
        a fixed seed, so two runs can be compared by deleting the
        ``wall_time_s`` / ``candidates_per_second`` keys.
        """
        return {
            "strategy": self.strategy,
            "seed": self.seed,
            "budget": self.budget,
            "evaluations": self.evaluations,
            "memo_hits": self.memo_hits,
            "wall_time_s": self.wall_time_s,
            "candidates_per_second": self.candidates_per_second,
            "layers": list(self.space.layers) if self.space else [],
            "catalogue": list(self.space.catalogue) if self.space else [],
            "front": self.front.to_json(),
            "history": [
                {
                    "assignment": result.assignment,
                    "accuracy": result.accuracy,
                    "relative_energy": result.relative_energy,
                }
                for result in self.history
            ],
        }

    def dumps(self, **kwargs) -> str:
        """JSON text of :meth:`to_json`."""
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_json(), **kwargs)


def format_front(report: DSEReport) -> str:
    """Pareto front of ``report`` as a fixed-width table (energy-ascending)."""
    header = f"{'accuracy':>9} {'rel.energy':>11}  assignment"
    lines = [header, "-" * len(header)]
    for point in report.front.points:
        assignment = ", ".join(
            f"{layer}={name}" for layer, name in point.assignment)
        lines.append(
            f"{point.accuracy:>8.1%} {point.relative_energy:>10.3f}x  "
            f"{assignment}"
        )
    return "\n".join(lines)


def search(model_builder, dataset, *,
           catalogue: list[str] | None = None,
           bit_width: int | None = None,
           signed: bool | None = None,
           strategy: str | SearchStrategy = "nsga2",
           strategy_params: dict | None = None,
           budget: int = 32,
           seed: int = 0,
           max_workers: int = 1,
           batch_size: int = 32,
           normalize_inputs: bool = True,
           space: SearchSpace | None = None,
           evaluator: Evaluator | None = None) -> DSEReport:
    """Explore per-layer multiplier assignments of a model.

    Parameters
    ----------
    model_builder:
        Zero-argument callable returning a fresh, deterministically
        initialised model (``graph`` / ``input_node`` / ``logits``).
    dataset:
        Evaluation split the accuracy objective is measured on.
    catalogue, bit_width, signed:
        Multiplier catalogue (library names); defaults to the whole library,
        optionally filtered by bit width and signedness.
    strategy, strategy_params:
        Registry name (``random``, ``greedy``, ``nsga2``) or a
        :class:`~repro.dse.strategies.SearchStrategy` instance, plus factory
        keyword arguments for the named form.
    budget:
        Maximum number of *fresh* candidate evaluations (memoised re-visits
        are free).
    seed:
        Seed of the search trajectory.  Same seed ⇒ bit-identical results.
    max_workers:
        Thread-pool width for concurrent candidate evaluation.
    batch_size, normalize_inputs:
        Forwarded to the :class:`~repro.dse.evaluator.Evaluator`.
    space, evaluator:
        Pre-built instances for advanced callers (``space`` is ignored when
        ``evaluator`` is given; ``catalogue``/filters are ignored when
        ``space`` is given).

    Returns
    -------
    DSEReport
        Pareto front, full evaluation history and the rolled-up accounting.
    """
    if isinstance(strategy, str):
        strategy = create_strategy(strategy, **(strategy_params or {}))
    elif strategy_params:
        raise DSEError(
            "strategy_params only applies when the strategy is given by name")

    if evaluator is None:
        probe = None
        if space is None:
            probe = model_builder()
            space = SearchSpace.for_model(
                probe, catalogue, bit_width=bit_width, signed=signed)
        evaluator = Evaluator(
            space, model_builder, dataset,
            batch_size=batch_size, normalize_inputs=normalize_inputs,
            probe=probe,
        )

    broker = EvaluationBroker(
        evaluator, budget=budget, max_workers=max_workers)
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    strategy.run(evaluator.space, broker, rng)
    wall = time.perf_counter() - start

    report = DSEReport(
        strategy=strategy.name,
        seed=seed,
        budget=budget,
        evaluations=broker.spent,
        memo_hits=broker.memo_hits,
        wall_time_s=wall,
        front=broker.front,
        history=broker.history,
        space=evaluator.space,
    )
    for result in broker.history:
        report.run_report.merge(result.report)
    return report
