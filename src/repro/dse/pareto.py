"""Pareto-front bookkeeping of the accuracy/energy trade-off.

A design-space exploration scores every candidate accelerator on two axes:
classification accuracy (maximise) and relative energy of the multiplier
fabric (minimise; the MAC-weighted relative power of the unit-gate model in
:mod:`repro.multipliers.hwcost`, so 1.0 is "exact multipliers everywhere").
The search keeps the set of *non-dominated* candidates -- the ALWANN paper's
Pareto filtering -- and this module provides the mechanics: dominance checks,
an incrementally maintained :class:`ParetoFront`, the non-dominated sort and
crowding distance used by the NSGA-II strategy, and a JSON round-trip so
fronts can be archived and compared across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import DSEError


@dataclass(frozen=True)
class ParetoPoint:
    """One scored candidate: its assignment and its two objective values.

    >>> better = ParetoPoint(accuracy=0.9, relative_energy=0.8)
    >>> worse = ParetoPoint(accuracy=0.85, relative_energy=0.9)
    >>> dominates(better, worse), dominates(worse, better)
    (True, False)
    """

    accuracy: float
    relative_energy: float
    assignment: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def from_assignment(accuracy: float, relative_energy: float,
                        assignment: dict[str, str]) -> "ParetoPoint":
        """Build a point from a layer→multiplier-name mapping."""
        return ParetoPoint(
            accuracy=float(accuracy),
            relative_energy=float(relative_energy),
            assignment=tuple(sorted(assignment.items())),
        )

    @property
    def assignment_dict(self) -> dict[str, str]:
        """The layer→multiplier assignment as a plain dictionary."""
        return dict(self.assignment)

    def to_json(self) -> dict:
        """Plain-data representation (stable key order for diffing)."""
        return {
            "accuracy": self.accuracy,
            "relative_energy": self.relative_energy,
            "assignment": {layer: name for layer, name in self.assignment},
        }

    @staticmethod
    def from_json(payload: dict) -> "ParetoPoint":
        """Inverse of :meth:`to_json` (accuracy/energy/assignment keys)."""
        return ParetoPoint.from_assignment(
            payload["accuracy"], payload["relative_energy"],
            payload["assignment"],
        )


def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
    """True when ``a`` Pareto-dominates ``b``.

    ``a`` dominates ``b`` when it is at least as accurate *and* at most as
    expensive, and strictly better on at least one of the two axes.  Points
    with identical objective values do not dominate each other (both are kept
    so distinct assignments with equal scores stay visible).
    """
    if a.accuracy < b.accuracy or a.relative_energy > b.relative_energy:
        return False
    return a.accuracy > b.accuracy or a.relative_energy < b.relative_energy


class ParetoFront:
    """Incrementally maintained set of non-dominated points.

    :meth:`add` is the single mutation path and preserves the invariant that
    no point of the front dominates another; the property tests assert this
    over random point streams.
    """

    def __init__(self, points: list[ParetoPoint] | None = None) -> None:
        self._points: list[ParetoPoint] = []
        for point in points or []:
            self.add(point)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self.points)

    def __contains__(self, point: ParetoPoint) -> bool:
        return point in self._points

    @property
    def points(self) -> list[ParetoPoint]:
        """Front points sorted by ascending energy (ties: descending accuracy)."""
        return sorted(
            self._points,
            key=lambda p: (p.relative_energy, -p.accuracy, p.assignment),
        )

    def add(self, point: ParetoPoint) -> bool:
        """Insert ``point`` if it is not dominated; prune what it dominates.

        Returns True when the point joined the front.  Exact duplicates
        (same objectives *and* same assignment) are rejected so repeated
        evaluations of one candidate cannot grow the front.
        """
        if not isinstance(point, ParetoPoint):
            raise DSEError(
                f"ParetoFront stores ParetoPoint instances, got "
                f"{type(point).__name__}"
            )
        if point in self._points:
            return False
        if any(dominates(existing, point) for existing in self._points):
            return False
        self._points = [p for p in self._points if not dominates(point, p)]
        self._points.append(point)
        return True

    def summary(self) -> str:
        """One-line digest used by the CLI and the example."""
        if not self._points:
            return "empty Pareto front"
        accs = [p.accuracy for p in self._points]
        energies = [p.relative_energy for p in self._points]
        return (
            f"{len(self._points)} non-dominated point(s); accuracy "
            f"{min(accs):.3f}..{max(accs):.3f}, relative energy "
            f"{min(energies):.3f}..{max(energies):.3f}"
        )

    # -- serialisation --------------------------------------------------
    def to_json(self) -> list[dict]:
        """Deterministically ordered plain-data representation."""
        return [point.to_json() for point in self.points]

    def dumps(self, **kwargs) -> str:
        """JSON text of :meth:`to_json` (keyword args go to ``json.dumps``)."""
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.to_json(), **kwargs)

    @staticmethod
    def from_json(payload: list[dict]) -> "ParetoFront":
        """Inverse of :meth:`to_json`; re-prunes, so any dominated entries
        smuggled into the payload are dropped on load."""
        return ParetoFront([ParetoPoint.from_json(item) for item in payload])


# ----------------------------------------------------------------------
# NSGA-II machinery: fast non-dominated sort + crowding distance.  These
# operate on arbitrary objects exposing ``accuracy`` / ``relative_energy``
# (both ParetoPoint and the evaluator's CandidateResult qualify).
# ----------------------------------------------------------------------

def non_dominated_sort(items: list) -> list[list[int]]:
    """Partition ``items`` (by index) into successive non-dominated ranks.

    Rank 0 is the Pareto front of the whole set, rank 1 the front of the
    remainder, and so on -- Deb et al.'s fast non-dominated sort, adequate at
    the population sizes (tens) this engine runs.
    """
    as_points = [
        ParetoPoint(accuracy=item.accuracy,
                    relative_energy=item.relative_energy)
        for item in items
    ]
    dominated_by: list[list[int]] = [[] for _ in items]
    domination_count = [0] * len(items)
    for i, a in enumerate(as_points):
        for j, b in enumerate(as_points):
            if i == j:
                continue
            if dominates(a, b):
                dominated_by[i].append(j)
            elif dominates(b, a):
                domination_count[i] += 1

    ranks: list[list[int]] = []
    current = [i for i, count in enumerate(domination_count) if count == 0]
    while current:
        ranks.append(current)
        upcoming: list[int] = []
        for i in current:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    upcoming.append(j)
        current = upcoming
    return ranks


def crowding_distance(items: list, indices: list[int]) -> dict[int, float]:
    """Crowding distance of each index within one non-dominated rank.

    Boundary points get infinite distance so the extremes of the front always
    survive selection; interior points get the normalised perimeter of their
    neighbour cuboid (Deb et al.).
    """
    distance = {i: 0.0 for i in indices}
    if len(indices) <= 2:
        return {i: float("inf") for i in indices}
    for objective in ("accuracy", "relative_energy"):
        ordered = sorted(indices, key=lambda i: getattr(items[i], objective))
        lo = getattr(items[ordered[0]], objective)
        hi = getattr(items[ordered[-1]], objective)
        distance[ordered[0]] = float("inf")
        distance[ordered[-1]] = float("inf")
        span = hi - lo
        if span <= 0.0:
            continue
        for prev_i, i, next_i in zip(ordered, ordered[1:], ordered[2:]):
            gap = (getattr(items[next_i], objective)
                   - getattr(items[prev_i], objective))
            distance[i] += gap / span
    return distance
