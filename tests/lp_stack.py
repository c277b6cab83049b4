"""LPs of one shape that differ in any array, solved in one lock-step batch.

The program hands the lock-step core one LP at a stack of right-hand sides
(``lp_core.solve_rhs``).  Tests that pin the core on LPs that differ in
every array, not only in their right-hand sides, stack them here and call
the core directly.
"""

from __future__ import annotations

import numpy as np

from gridshift import lp_core

FIELDS = ("objective", "eq_matrix", "eq_rhs", "lower_bounds", "upper_bounds")


def stack(lps) -> tuple[np.ndarray, ...]:
    """The arrays of ``lps``, which share one shape, each stacked along a
    new first axis, in the argument order of ``lp_core.kkt_residuals``."""
    return tuple(np.array([getattr(lp, field) for lp in lps]) for field in FIELDS)


def rows(sols: lp_core.LpSolutions) -> list[lp_core.LpSolution]:
    """One ``LpSolution`` per row of ``sols``, in stack order."""
    return [lp_core._solution(sols, i) for i in range(len(sols.status))]


def solve_stack(lps) -> list[lp_core.LpSolution]:
    """``lps`` solved in one lock-step batch; solution ``i`` is LP ``i``'s."""
    return rows(lp_core._solve_arrays(*stack(lps)))
