"""Pluggable searchers over a :class:`~repro.plan.SearchSpace`.

Two built-ins cover the grid sizes the planner meets in practice:

* :class:`ExhaustiveSearcher` — score every feasible point as one batch;
  with eager pruning and the memoized objective a full Table-2 grid
  costs seconds;
* :class:`AnnealSearcher` — seeded beam-style annealing for spaces too
  large to enumerate: keep the best ``beam`` candidates, mutate each a
  few times per generation, repeat.  Deterministic given ``seed`` (the
  RNG stream is derived with :func:`repro.utils.seeding.derive_seed`).

Third parties register their own via :func:`register_searcher`; the
registry is the same extension-point shape as
``repro.core.policies.register_recovery_policy``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.plan.objective import CandidateScore, GoodputObjective
from repro.plan.space import SearchSpace
from repro.utils.seeding import derive_seed

__all__ = [
    "Searcher",
    "ExhaustiveSearcher",
    "AnnealSearcher",
    "register_searcher",
    "get_searcher",
    "searcher_names",
]


def ranked_scores(scores) -> list[CandidateScore]:
    """Sort by descending goodput, candidate key as the deterministic
    tie-break (insertion order never leaks into the result)."""
    return sorted(
        scores,
        key=lambda s: (-s.goodput_samples_per_sec, s.candidate.key()),
    )


class Searcher:
    """The searcher protocol: rank a space's candidates by objective.

    Subclasses implement :meth:`search`, returning every scored
    candidate best-first.  They must be deterministic given ``seed``.

    >>> issubclass(ExhaustiveSearcher, Searcher)
    True
    >>> get_searcher("exhaustive").name
    'exhaustive'
    """

    name = "base"

    def search(
        self,
        space: SearchSpace,
        objective: GoodputObjective,
        seed: int = 0,
    ) -> list[CandidateScore]:
        raise NotImplementedError


class ExhaustiveSearcher(Searcher):
    """Score every feasible candidate in the grid.

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> from repro.plan.objective import GoodputObjective
    >>> from repro.plan.space import ExperimentSearchSpace
    >>> space = ExperimentSearchSpace(Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2)),
    ...     kinds=("dp",), intervals=(10, 50))
    >>> objective = GoodputObjective(space, "steady_mtbf", eval_seeds=1)
    >>> ranked = ExhaustiveSearcher().search(space, objective)
    >>> len(ranked) == space.stats.feasible
    True
    """

    name = "exhaustive"

    def search(self, space, objective, seed: int = 0):
        return ranked_scores(objective.score_all(space.iter_feasible()))


class AnnealSearcher(Searcher):
    """Seeded beam/anneal search for grids too large to enumerate.

    The pool seeds with the space's default candidate plus ``explore``
    uniform draws; each generation mutates every beam member
    ``mutations`` times, keeping everything ever scored (the memoized
    objective makes re-visits free).  The explore draws, then each
    generation's mutants, are scored as one batch.

    >>> from repro.api import (ClusterSpec, Experiment, ModelSpec,
    ...                        ParallelismSpec)
    >>> from repro.plan.objective import GoodputObjective
    >>> from repro.plan.space import ExperimentSearchSpace
    >>> space = ExperimentSearchSpace(Experiment(
    ...     model=ModelSpec(family="mlp", dim=4, hidden_dim=8),
    ...     cluster=ClusterSpec(num_machines=2, devices_per_machine=1),
    ...     parallelism=ParallelismSpec(kind="dp", num_workers=2)),
    ...     kinds=("dp",), intervals=(10, 50))
    >>> objective = GoodputObjective(space, "steady_mtbf", eval_seeds=1)
    >>> searcher = AnnealSearcher(beam=2, generations=2)
    >>> one = searcher.search(space, objective, seed=7)
    >>> two = searcher.search(space, objective, seed=7)
    >>> [s.candidate.label() for s in one] == [
    ...     s.candidate.label() for s in two]
    True
    """

    name = "anneal"

    def __init__(
        self,
        beam: int = 6,
        generations: int = 10,
        mutations: int = 4,
        explore: int = 8,
    ) -> None:
        self.beam = beam
        self.generations = generations
        self.mutations = mutations
        self.explore = explore

    def search(self, space, objective, seed: int = 0):
        rng = np.random.default_rng(derive_seed(seed, "plan", self.name))
        pool: dict[tuple, CandidateScore] = {}

        def consider(candidates) -> None:
            fresh = {}
            for candidate in candidates:
                key = candidate.key()
                if key in pool or key in fresh:
                    continue
                if space.feasible(candidate) is None:
                    fresh[key] = candidate
            pool.update(zip(fresh, objective.score_all(fresh.values())))

        consider([space.default(), *(
            space.random_candidate(rng) for _ in range(self.explore))])
        for _ in range(self.generations):
            # the beam is fixed for the generation and no draw reads a
            # score, so scoring its mutants as one batch changes nothing
            beam = ranked_scores(pool.values())[: self.beam]
            consider([space.mutate(score.candidate, rng)
                      for score in beam for _ in range(self.mutations)])
        return ranked_scores(pool.values())


_SEARCHERS: dict[str, type[Searcher]] = {
    ExhaustiveSearcher.name: ExhaustiveSearcher,
    AnnealSearcher.name: AnnealSearcher,
}


def register_searcher(cls: type[Searcher]) -> type[Searcher]:
    """Register a custom :class:`Searcher` under its ``name``.

    Returns the class, so it stacks as a decorator.

    >>> @register_searcher
    ... class FirstOnly(Searcher):
    ...     name = "first-only-doc"
    ...     def search(self, space, objective, seed=0):
    ...         for c in space.iter_feasible():
    ...             return [objective.score(c)]
    ...         return []
    >>> "first-only-doc" in searcher_names()
    True
    """
    name = getattr(cls, "name", None)
    if not name or name == Searcher.name:
        raise ConfigurationError(
            "searcher classes must define a unique 'name' attribute"
        )
    _SEARCHERS[name] = cls
    return cls


def get_searcher(name: str) -> Searcher:
    """Instantiate a registered searcher by name.

    >>> get_searcher("anneal").name
    'anneal'
    >>> get_searcher("gradient-descent")
    Traceback (most recent call last):
        ...
    repro.errors.ConfigurationError: unknown searcher 'gradient-descent'; ...
    """
    try:
        cls = _SEARCHERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown searcher {name!r}; known: {searcher_names()}"
        ) from None
    return cls()


def searcher_names() -> list[str]:
    """Sorted names of every registered searcher.

    >>> {'anneal', 'exhaustive'} <= set(searcher_names())
    True
    """
    return sorted(_SEARCHERS)
