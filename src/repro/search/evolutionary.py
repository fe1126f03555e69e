"""Linear Combination Swarm (LCS) style evolutionary optimizer.

Vizier's LCS heuristic (Golovin et al., "Black box optimization via a
bayesian-optimized genetic algorithm") maintains a population and produces
children by linearly combining parent encodings plus mutation.  The paper
finds LCS outperforms the default Bayesian algorithm once trials exceed ~2000
(Figure 11).  This implementation keeps an elite population in the normalized
encoding space, generates children as convex combinations of two parents
(optionally extrapolated, the "linear combination" move), decodes back to the
categorical space, and applies a small number of categorical mutations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from operator import attrgetter
from typing import List, Optional, Tuple

import numpy as np

from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.search.optimizer import Observation, Optimizer

__all__ = ["LinearCombinationSwarmOptimizer"]

_objective = attrgetter("objective")


def _cdf(weights: np.ndarray) -> Tuple[float, ...]:
    """The CDF ``Generator.choice(p=weights)`` searches: ``cumsum``, divided by its last entry."""
    cumulative = np.cumsum(weights)
    cumulative /= cumulative[-1]
    return tuple(cumulative.tolist())


@lru_cache(maxsize=64)
def _rank_weights(n: int) -> Tuple[np.ndarray, Tuple[float, ...]]:
    """Rank weights ``ranks / ranks.sum()`` of ``n`` parents, best first, and their CDF."""
    ranks = np.arange(n, 0, -1, dtype=float)
    weights = ranks / ranks.sum()
    return weights, _cdf(weights)


class LinearCombinationSwarmOptimizer(Optimizer):
    """Population-based optimizer using linear-combination crossover.

    A batch costs O(batch), not O(history):

    * The elite (the best ``population_size`` feasible observations, best
      first) is kept between batches; each batch folds in only the
      observations told since the last one.  An observation that falls out
      never returns, and ``bisect`` inserts after equal objectives, so the
      elite is exactly the head of a stable sort of every feasible
      observation.  Each elite member's encoding is computed once, when it
      is first picked as a parent.
    * Parents are drawn by :meth:`_select_parents` from a rank CDF cached per
      population size, with the same ``rng.random`` draws, and the same
      indices, as ``rng.choice(n, 2, replace=False, p=ranks / ranks.sum())``.
    """

    def __init__(
        self,
        space: DatapathSearchSpace,
        seed: int = 0,
        population_size: int = 24,
        num_initial_random: int = 24,
        mutation_probability: float = 0.6,
        extrapolation_scale: float = 0.3,
    ) -> None:
        super().__init__(space, seed)
        self.population_size = population_size
        self.num_initial_random = num_initial_random
        self.mutation_probability = mutation_probability
        self.extrapolation_scale = extrapolation_scale
        self._elite: List[Observation] = []
        self._elite_codes: List[Optional[np.ndarray]] = []
        self._folded = 0  # observations already folded into the elite

    # ------------------------------------------------------------------
    def ask(self) -> ParameterValues:
        """Propose the next configuration."""
        return self.ask_batch(1)[0]

    def ask_batch(self, n: int) -> List[ParameterValues]:
        """Propose one generation of ``n`` children from the current population.

        The elite population is ranked once and all ``n`` children are bred
        from it — the classic generational move.  Under deferred feedback
        this consumes the RNG exactly as ``n`` repeated asks would (the
        population cannot change between asks of one batch), so the batch
        trajectory is identical; it differs from *interleaved* ask/tell,
        where each tell could promote a new parent mid-batch.
        """
        n = max(0, int(n))
        population = self._population()
        if len(population) < 2 or self.num_trials < self.num_initial_random:
            return [self.space.sample(self.rng) for _ in range(n)]
        children: List[ParameterValues] = []
        for _ in range(n):
            first, second = self._select_parents(len(population))
            child_vector = self._linear_combination(self._code(first), self._code(second))
            child = self.space.decode(child_vector)
            if self.rng.random() < self.mutation_probability:
                child = self.space.mutate(
                    child, self.rng, num_mutations=int(self.rng.integers(1, 3))
                )
            children.append(child)
        return children

    # ------------------------------------------------------------------
    def _population(self) -> List[Observation]:
        """The elite, best first, after folding in the observations told since the last call."""
        for observation in self.observations[self._folded:]:
            # The filter of ``feasible_observations``.
            if not (observation.feasible and math.isfinite(observation.objective)):
                continue
            rank = bisect_right(self._elite, observation.objective, key=_objective)
            if rank < self.population_size:
                self._elite.insert(rank, observation)
                self._elite_codes.insert(rank, None)
                del self._elite[self.population_size:], self._elite_codes[self.population_size:]
        self._folded = len(self.observations)
        return self._elite

    def _code(self, rank: int) -> np.ndarray:
        """The encoding of the elite member at ``rank``."""
        code = self._elite_codes[rank]
        if code is None:
            code = self._elite_codes[rank] = self.space.encode(self._elite[rank].params)
        return code

    def _select_parents(self, n: int) -> Tuple[int, int]:
        """Rank-weighted selection of two distinct parents among ``n``, as elite ranks.

        This is ``rng.choice(n, 2, replace=False, p=ranks / ranks.sum())``
        draw for draw: numpy takes two ``random`` draws and searches its
        CDF with each (``side='right'``); if both land on one index it takes
        one more draw against the CDF without that index's weight.
        """
        weights, cdf = _rank_weights(n)
        first = bisect_right(cdf, self.rng.random())
        second = bisect_right(cdf, self.rng.random())
        if second == first:
            without_first = weights.copy()
            without_first[first] = 0
            second = bisect_right(_cdf(without_first), self.rng.random())
        return first, second

    def _linear_combination(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Convex (possibly extrapolated) combination of two parent encodings."""
        weight = self.rng.uniform(-self.extrapolation_scale, 1.0 + self.extrapolation_scale)
        child = weight * a + (1.0 - weight) * b
        return np.clip(child, 0.0, 1.0)
