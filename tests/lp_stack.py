"""Stacks of LPs and of solutions, for the tests that compare them row by row.

The lock-step core solves one LP at a stack of right-hand sides
(``lp_core.solve_rhs``); LPs that differ in any other array are solved one
at a time.  ``lp_core.kkt_residuals`` still checks a stack of different LPs
in one call, so the tests stack their arrays here.
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
