"""Layer-wise multiplier design-space exploration (the ALWANN loop, closed).

TFApprox exists to make emulation fast *enough to drive design-space
exploration*: its CPU-based predecessor ALWANN searches per-layer multiplier
assignments for the best accuracy/energy trade-off, and the paper's
conclusion motivates "automated design of approximate DNN accelerators in
which many candidate designs have to be quickly evaluated".  This package is
that search engine on top of the reproduction's own machinery:

* :class:`SearchSpace` -- the per-Conv2D-layer multiplier catalogue
  (optionally filtered by bit width / signedness);
* :class:`Evaluator` -- scores a candidate by emulated accuracy (through
  :class:`~repro.backends.InferencePipeline`, so LUTs and quantised filter
  banks are shared across the whole search via the process-wide LRU caches)
  and by MAC-weighted relative energy from the unit-gate cost model;
* three search strategies (``random``, ``greedy``, ``nsga2``) with seeded
  determinism, created by name via :func:`create_strategy`;
* :class:`ParetoFront` / :class:`ParetoPoint` -- dominance bookkeeping with
  JSON serialisation;
* :func:`search` -- the one-call entry point returning a :class:`DSEReport`
  (front, history, cache accounting, candidates/s);
* the ``tfapprox-dse`` CLI (:func:`repro.dse.cli.main_dse`).
"""

from .engine import DSEReport, EvaluationBroker, format_front, search
from .evaluator import (
    CandidateResult,
    Evaluator,
    make_calibrated_builder,
    relative_power,
)
from .pareto import (
    ParetoFront,
    ParetoPoint,
    crowding_distance,
    dominates,
    non_dominated_sort,
)
from .space import Candidate, SearchSpace, filter_catalogue
from .strategies import (
    GreedyStrategy,
    NSGA2Strategy,
    RandomStrategy,
    SearchStrategy,
    available_strategies,
    create_strategy,
)

__all__ = [
    "search",
    "DSEReport",
    "EvaluationBroker",
    "Evaluator",
    "CandidateResult",
    "relative_power",
    "make_calibrated_builder",
    "format_front",
    "SearchSpace",
    "Candidate",
    "filter_catalogue",
    "ParetoFront",
    "ParetoPoint",
    "dominates",
    "non_dominated_sort",
    "crowding_distance",
    "SearchStrategy",
    "RandomStrategy",
    "GreedyStrategy",
    "NSGA2Strategy",
    "create_strategy",
    "available_strategies",
]
