"""Search drivers: which design points of a space get (fully) evaluated.

A driver plans *row indices* into the space's
:class:`~repro.dse.space.PointTable` (its deterministic enumeration order);
no design point object is built to plan a sweep.  Three strategies cover the
sweep shapes the scaling study needs:

* :class:`ExhaustiveDriver` — every point, in the space's deterministic
  enumeration order (the reimplemented Fig. 16 uses this on the 9-column
  paper table);
* :class:`RandomDriver` — seeded sampling without replacement; the same
  (seed, space) pair enumerates the identical point sequence on every run
  and under every ``jobs`` setting, because selection happens before any
  evaluation is fanned out;
* :class:`SuccessiveHalvingDriver` — cheap-first adaptive search: every
  candidate is scored with a *proxy* evaluation (a layer-subsampled analytic
  estimate), the best ``1/eta`` survive each rung, and only the final
  ``budget`` survivors receive full evaluations (after which the runner can
  optionally confirm frontier points with the simulator).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .space import SearchSpace

#: scores a batch of rows cheaply; lower is better (the runner adapts
#: direction, memoizes repeat rows, and fans the batch out over the
#: session's process pool).
ProxyScorer = Callable[[Sequence[int]], List[float]]


@dataclass(frozen=True)
class ExhaustiveDriver:
    """Evaluate every point of the space (optionally capped at ``limit``)."""

    limit: Optional[int] = None

    def plan(self, space: SearchSpace) -> np.ndarray:
        return np.arange(len(space))[: self.limit]


@dataclass(frozen=True)
class RandomDriver:
    """Seeded uniform sampling without replacement.

    Determinism contract (regression-tested): ``plan`` depends only on the
    seed and the space's size — never on wall clock, hashing randomization
    or the parallelism of the later evaluation.  Sampling row indices picks
    exactly the points that sampling the point list would.
    """

    budget: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("random driver budget must be positive")

    def plan(self, space: SearchSpace) -> np.ndarray:
        size = len(space)
        if self.budget >= size:
            return np.arange(size)
        rng = random.Random(self.seed)
        return np.array(rng.sample(range(size), self.budget), dtype=np.intp)


@dataclass(frozen=True)
class SuccessiveHalvingDriver:
    """Cheap-first adaptive search (successive halving on a proxy score).

    ``budget`` is the number of points that reach a *full* evaluation; the
    candidate pool starts at ``budget * eta**rungs`` points (seeded-random
    subset of the space when the space is larger) and shrinks by ``eta``
    per rung, re-scoring survivors with the proxy each time.
    """

    budget: int
    eta: int = 4
    rungs: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.budget <= 0:
            raise ValueError("halving driver budget must be positive")
        if self.eta < 2:
            raise ValueError("halving eta must be >= 2")
        if self.rungs < 1:
            raise ValueError("halving needs at least one rung")

    @property
    def adaptive(self) -> bool:
        return True

    def plan(self, space: SearchSpace) -> np.ndarray:
        """The rung-0 candidate pool (deterministic, seeded)."""
        pool_size = self.budget * self.eta ** self.rungs
        return RandomDriver(budget=pool_size, seed=self.seed).plan(space)

    def refine(self, rows: Sequence[int],
               score_rows: ProxyScorer) -> np.ndarray:
        """Shrink the pool to ``budget`` survivors by proxy score (lower wins).

        ``score_rows`` scores a whole rung of rows in one call, so the runner
        can dispatch it over a process pool and answer repeat rows from a
        memo.  Sorting is stable on the plan order, so ties are broken
        deterministically.
        """
        def keep_best(survivors: List[int], keep: int) -> List[int]:
            scored = list(zip(score_rows(survivors), range(len(survivors))))
            scored.sort(key=lambda pair: (pair[0], pair[1]))
            kept_indices = sorted(index for _, index in scored[:keep])
            return [survivors[index] for index in kept_indices]

        survivors = [int(row) for row in rows]
        rung = 0
        while len(survivors) > self.budget and rung < self.rungs:
            keep = max(self.budget,
                       int(math.ceil(len(survivors) / self.eta)))
            survivors = keep_best(survivors, keep)
            rung += 1
        if len(survivors) > self.budget:
            survivors = keep_best(survivors, self.budget)
        return np.array(survivors, dtype=np.intp)


#: any of the three driver classes above.
DriverType = object


def build_driver(name: str, *, budget: Optional[int] = None,
                 seed: int = 0) -> DriverType:
    """Construct a driver from its CLI name (grid | random | halving)."""
    key = name.strip().lower()
    if key in ("grid", "exhaustive"):
        return ExhaustiveDriver(limit=budget)
    if key == "random":
        if budget is None:
            raise ValueError("random driver requires a budget")
        return RandomDriver(budget=budget, seed=seed)
    if key in ("halving", "adaptive"):
        if budget is None:
            raise ValueError("halving driver requires a budget")
        return SuccessiveHalvingDriver(budget=budget, seed=seed)
    raise ValueError(
        f"unknown driver {name!r}; expected grid, random or halving")


def driver_names() -> Tuple[str, ...]:
    return ("grid", "random", "halving")
