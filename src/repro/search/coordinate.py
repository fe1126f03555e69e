"""Coordinate-descent (greedy per-parameter sweep) optimizer.

The Table 3 search space is a product of small categorical axes (mostly
power-of-two ranges), which makes a cyclic coordinate sweep a strong and very
interpretable baseline: hold the best-known configuration fixed, sweep one
parameter through all of its values, keep the best, and move to the next
parameter.  A full pass over all 16-17 parameters costs a few hundred trials
— comparable to the warm phase of the paper's Vizier studies — and the
resulting trajectory shows directly which parameters matter for a workload.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.hardware.search_space import DatapathSearchSpace, ParameterValues
from repro.search.optimizer import Observation, Optimizer

__all__ = ["CoordinateDescentOptimizer"]


class CoordinateDescentOptimizer(Optimizer):
    """Cyclic greedy sweep over one search parameter at a time."""

    def __init__(
        self,
        space: DatapathSearchSpace,
        seed: int = 0,
        num_initial_random: int = 8,
        shuffle_parameter_order: bool = True,
    ) -> None:
        super().__init__(space, seed)
        self.num_initial_random = max(1, num_initial_random)
        self._parameter_order: List[str] = list(space.parameter_names)
        if shuffle_parameter_order:
            self.rng.shuffle(self._parameter_order)
        self._best_params: Optional[ParameterValues] = None
        self._best_objective = math.inf
        self._axis_index = 0
        self._queue: List[ParameterValues] = []

    # ------------------------------------------------------------------
    def ask(self) -> ParameterValues:
        """Propose the next point of the sweep."""
        if self._best_params is None or self.num_trials < self.num_initial_random:
            return self.space.sample(self.rng)
        if not self._queue:
            self._fill_queue()
        if not self._queue:  # every axis has a single choice; fall back to mutation
            return self.space.mutate(self._best_params, self.rng)
        return self._queue.pop()

    def ask_batch(self, n: int) -> List[ParameterValues]:
        """Drain up to ``n`` sweep points in one call, refilling across axes.

        A batch pulls whole chunks of the per-axis sweep queue (one batch
        can cover an entire parameter axis), filling the queue from the next
        axis whenever it runs dry.  The proposals and queue/axis state are
        exactly what ``n`` repeated asks produce under deferred feedback;
        interleaved tells could instead recentre the sweep on an improved
        incumbent between proposals.
        """
        n = max(0, int(n))
        proposals: List[ParameterValues] = []
        while len(proposals) < n:
            if self._best_params is None or self.num_trials < self.num_initial_random:
                proposals.append(self.space.sample(self.rng))
                continue
            if not self._queue:
                self._fill_queue()
            if not self._queue:  # every axis has a single choice
                proposals.append(self.space.mutate(self._best_params, self.rng))
                continue
            for _ in range(min(n - len(proposals), len(self._queue))):
                proposals.append(self._queue.pop())
        return proposals

    def tell(
        self,
        params: ParameterValues,
        objective: float,
        feasible: bool = True,
        metadata: Optional[dict] = None,
    ) -> Observation:
        """Record the trial and update the incumbent if it improved."""
        observation = super().tell(params, objective, feasible=feasible, metadata=metadata)
        if feasible and math.isfinite(objective) and objective < self._best_objective:
            self._best_params = dict(params)
            self._best_objective = objective
        return observation

    # ------------------------------------------------------------------
    def _fill_queue(self) -> None:
        """Queue every alternative value of the next parameter axis."""
        spec = self.space.spec(self._parameter_order[self._axis_index])
        self._axis_index = (self._axis_index + 1) % len(self._parameter_order)
        current_value = self._best_params[spec.name]
        for choice in spec.choices:
            if choice == current_value:
                continue
            candidate = dict(self._best_params)
            candidate[spec.name] = choice
            self._queue.append(candidate)

    # ------------------------------------------------------------------
    def extra_checkpoint_state(self) -> dict:
        """Sweep state that ``tell`` replay cannot rebuild (advances in ``ask``)."""
        from repro.reporting.serialization import params_to_jsonable

        return {
            "parameter_order": list(self._parameter_order),
            "axis_index": self._axis_index,
            "queue": [params_to_jsonable(p) for p in self._queue],
            "best_params": (
                params_to_jsonable(self._best_params) if self._best_params is not None else None
            ),
            "best_objective": self._best_objective,
        }

    def restore_extra_checkpoint_state(self, state: dict) -> None:
        from repro.reporting.serialization import params_from_jsonable

        if not state:
            return
        self._parameter_order = list(state["parameter_order"])
        self._axis_index = int(state["axis_index"])
        self._queue = [params_from_jsonable(p, self.space) for p in state["queue"]]
        best = state["best_params"]
        self._best_params = params_from_jsonable(best, self.space) if best is not None else None
        self._best_objective = float(state["best_objective"])

    @property
    def best_params(self) -> Optional[ParameterValues]:
        """Best feasible configuration found so far."""
        return dict(self._best_params) if self._best_params is not None else None
