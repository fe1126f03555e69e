"""A small 0/1 mixed-integer linear program solver.

The paper solves the FAST fusion problem with SCIP; offline we implement the
needed subset ourselves: minimize ``c @ x`` subject to ``A x <= b`` with a
mix of binary and continuous variables.  The solver is branch-and-bound over
LP relaxations (scipy's HiGHS ``linprog``), with best-first node selection,
most-fractional branching, an incumbent produced by rounding, and a node
budget after which the best incumbent is returned — the counterpart of the
20-minute SCIP timeout described in Section 6.1.  The budget counts nodes,
never wall time, so a solve returns the same answer on any host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.optimize import linprog

__all__ = ["IlpProblem", "IlpSolution", "BranchAndBoundSolver"]

_TOLERANCE = 1e-6


@dataclass
class IlpProblem:
    """A minimization MILP in inequality form.

    minimize    objective @ x
    subject to  constraint_matrix @ x <= constraint_bounds
                lower_bounds <= x <= upper_bounds
                x[i] integer for every i with integer_mask[i]
    """

    objective: np.ndarray
    constraint_matrix: np.ndarray
    constraint_bounds: np.ndarray
    integer_mask: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        self.constraint_matrix = np.asarray(self.constraint_matrix, dtype=float)
        self.constraint_bounds = np.asarray(self.constraint_bounds, dtype=float)
        self.integer_mask = np.asarray(self.integer_mask, dtype=bool)
        self.lower_bounds = np.asarray(self.lower_bounds, dtype=float)
        self.upper_bounds = np.asarray(self.upper_bounds, dtype=float)
        n = self.objective.shape[0]
        if self.constraint_matrix.ndim != 2 or self.constraint_matrix.shape[1] != n:
            raise ValueError("constraint matrix shape does not match objective length")
        if self.constraint_matrix.shape[0] != self.constraint_bounds.shape[0]:
            raise ValueError("constraint bounds length does not match constraint rows")
        for arr_name in ("integer_mask", "lower_bounds", "upper_bounds"):
            if getattr(self, arr_name).shape[0] != n:
                raise ValueError(f"{arr_name} length does not match objective length")

    def is_feasible(self, x: np.ndarray, tolerance: float = 1e-5) -> bool:
        """Check a candidate assignment against all constraints and bounds."""
        x = np.asarray(x, dtype=float)
        if np.any(x < self.lower_bounds - tolerance) or np.any(x > self.upper_bounds + tolerance):
            return False
        if np.any(self.constraint_matrix @ x > self.constraint_bounds + tolerance):
            return False
        integral = np.abs(x[self.integer_mask] - np.round(x[self.integer_mask]))
        return bool(np.all(integral <= tolerance))


@dataclass
class IlpSolution:
    """Result of an ILP solve."""

    x: Optional[np.ndarray]
    objective_value: float
    optimal: bool
    feasible: bool
    nodes_explored: int
    status: str


@dataclass(order=True)
class _Node:
    bound: float
    counter: int = field(compare=True)
    lower: np.ndarray = field(compare=False, default=None)
    upper: np.ndarray = field(compare=False, default=None)


class BranchAndBoundSolver:
    """Branch-and-bound MILP solver over LP relaxations."""

    def __init__(self, max_nodes: int = 2000, gap_tolerance: float = 1e-4) -> None:
        self.max_nodes = max_nodes
        self.gap_tolerance = gap_tolerance

    # ------------------------------------------------------------------
    def solve(self, problem: IlpProblem) -> IlpSolution:
        """Solve the MILP; always returns the best incumbent found."""
        import heapq

        counter = 0
        root = _Node(
            bound=-math.inf,
            counter=counter,
            lower=problem.lower_bounds.copy(),
            upper=problem.upper_bounds.copy(),
        )
        heap: List[_Node] = [root]
        incumbent_x: Optional[np.ndarray] = None
        incumbent_value = math.inf
        nodes = 0
        proven_optimal = False

        while heap:
            if nodes >= self.max_nodes:
                break
            node = heapq.heappop(heap)
            if node.bound >= incumbent_value - self.gap_tolerance and incumbent_x is not None:
                continue
            nodes += 1

            relaxed = self._solve_lp(problem, node.lower, node.upper)
            if relaxed is None:
                continue
            x_lp, value_lp = relaxed
            if value_lp >= incumbent_value - self.gap_tolerance:
                continue

            fractional = self._most_fractional(problem, x_lp)
            if fractional is None:
                # Integral LP solution: new incumbent.
                if value_lp < incumbent_value:
                    incumbent_value = value_lp
                    incumbent_x = x_lp
                continue

            # Try a rounded incumbent to tighten pruning early.
            rounded = self._round_candidate(problem, x_lp)
            if rounded is not None:
                rounded_value = float(problem.objective @ rounded)
                if rounded_value < incumbent_value:
                    incumbent_value = rounded_value
                    incumbent_x = rounded

            index, frac_value = fractional
            for branch_upper in (math.floor(frac_value), None):
                lower = node.lower.copy()
                upper = node.upper.copy()
                if branch_upper is not None:
                    upper[index] = branch_upper
                else:
                    lower[index] = math.ceil(frac_value)
                if lower[index] > upper[index]:
                    continue
                counter += 1
                heapq.heappush(
                    heap, _Node(bound=value_lp, counter=counter, lower=lower, upper=upper)
                )

        if not heap and incumbent_x is not None:
            proven_optimal = True

        if incumbent_x is None:
            return IlpSolution(
                x=None,
                objective_value=math.inf,
                optimal=False,
                feasible=False,
                nodes_explored=nodes,
                status="infeasible_or_unsolved",
            )
        status = "optimal" if proven_optimal else "incumbent"
        return IlpSolution(
            x=incumbent_x,
            objective_value=incumbent_value,
            optimal=proven_optimal,
            feasible=True,
            nodes_explored=nodes,
            status=status,
        )

    # ------------------------------------------------------------------
    def _solve_lp(
        self, problem: IlpProblem, lower: np.ndarray, upper: np.ndarray
    ) -> Optional[Tuple[np.ndarray, float]]:
        bounds = list(zip(lower, upper))
        result = linprog(
            c=problem.objective,
            A_ub=problem.constraint_matrix,
            b_ub=problem.constraint_bounds,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            return None
        return np.asarray(result.x, dtype=float), float(result.fun)

    def _most_fractional(
        self, problem: IlpProblem, x: np.ndarray
    ) -> Optional[Tuple[int, float]]:
        best_index = None
        best_distance = _TOLERANCE
        for index in np.nonzero(problem.integer_mask)[0]:
            value = x[index]
            distance = abs(value - round(value))
            if distance > best_distance:
                best_distance = distance
                best_index = int(index)
        if best_index is None:
            return None
        return best_index, float(x[best_index])

    def _round_candidate(self, problem: IlpProblem, x: np.ndarray) -> Optional[np.ndarray]:
        """Round binaries down (safe for knapsack-style constraints) and re-check."""
        candidate = x.copy()
        integer_indices = np.nonzero(problem.integer_mask)[0]
        candidate[integer_indices] = np.floor(candidate[integer_indices] + _TOLERANCE)
        # Re-optimize the continuous variables with binaries fixed.
        fixed_lower = problem.lower_bounds.copy()
        fixed_upper = problem.upper_bounds.copy()
        fixed_lower[integer_indices] = candidate[integer_indices]
        fixed_upper[integer_indices] = candidate[integer_indices]
        solved = self._solve_lp(problem, fixed_lower, fixed_upper)
        if solved is None:
            return None
        candidate = solved[0]
        if problem.is_feasible(candidate):
            return candidate
        return None
