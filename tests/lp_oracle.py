"""Brute-force reference results for small LPs, used to check the solver.

Works by enumerating every basic solution: choose a nonsingular column basis,
put each remaining variable on one of its finite bounds, back-solve, and keep
the feasible points.  Independent of the simplex code on purpose — nothing
here prices, pivots, or reuses solver state.

Only meaningful when the constraint matrix has full row rank and every
variable owns at least one finite bound (otherwise vertices need not exist);
the random generator below only produces such problems.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np

from gridshift.lp_core import OPTIMAL, TOLERANCE, LinearProgram, LpInputError, LpSolution


@dataclasses.dataclass
class ReferenceResult:
    status: str  # "optimal" | "infeasible"
    objective: float | None
    vertices: list[np.ndarray]  # all optimal basic feasible points
    duals: list[np.ndarray]  # distinct basis multipliers among optimal bases


def reference_solve(lp: LinearProgram, feas_tol: float = 1e-9) -> ReferenceResult:
    A = lp.eq_matrix
    b = lp.eq_rhs
    c = lp.objective
    lo = lp.lower_bounds
    hi = lp.upper_bounds
    m, n = A.shape

    feasible: list[tuple[float, np.ndarray, tuple[int, ...]]] = []
    for basis in itertools.combinations(range(n), m):
        B = A[:, basis]
        if abs(np.linalg.det(B)) <= 1e-9:
            continue
        nonbasic = [j for j in range(n) if j not in basis]
        options = []
        for j in nonbasic:
            opts = []
            if np.isfinite(lo[j]):
                opts.append(lo[j])
            if np.isfinite(hi[j]) and hi[j] != lo[j]:
                opts.append(hi[j])
            options.append(opts)
        for values in itertools.product(*options):
            x = np.zeros(n)
            for j, v in zip(nonbasic, values):
                x[j] = v
            x[list(basis)] = np.linalg.solve(B, b - A @ x)
            if ((x >= lo - feas_tol) & (x <= hi + feas_tol)).all():
                feasible.append((float(c @ x), x, basis))

    if not feasible:
        return ReferenceResult("infeasible", None, [], [])

    best = min(obj for obj, _, _ in feasible)
    vertices = []
    duals = []
    seen: set[tuple] = set()
    for obj, x, basis in feasible:
        if obj <= best + 1e-9:
            vertices.append(x)
            y = np.linalg.solve(A[:, basis].T, c[list(basis)])
            key = tuple(np.round(y, 9))
            if key not in seen:
                seen.add(key)
                duals.append(y)
    return ReferenceResult("optimal", best, vertices, duals)


def random_bounded_lp(rng: np.random.Generator) -> LinearProgram:
    """Small random LP with integer data and all-finite bounds.

    Integer coefficients keep every feasibility and optimality margin either
    exactly zero or at least ~1/50 (a ratio of small integers), so the solver
    and the enumeration above can never disagree inside their tolerances.
    """
    while True:
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, min(n, 3) + 1))
        A = rng.integers(-2, 3, size=(m, n)).astype(float)
        if np.linalg.matrix_rank(A) < m:
            continue
        lo = rng.integers(-2, 1, size=n).astype(float)
        hi = rng.integers(0, 3, size=n).astype(float)
        c = rng.integers(-2, 3, size=n).astype(float)
        b = rng.integers(-4, 5, size=m).astype(float)
        return LinearProgram(
            objective=c, eq_matrix=A, eq_rhs=b, lower_bounds=lo, upper_bounds=hi
        )


def random_dense_lp(rng: np.random.Generator) -> LinearProgram:
    """Dense LP of 20 to 36 variables and a quarter as many rows, with
    uniform data and finite bounds; feasible by construction, because the
    right-hand side is the image of a point strictly inside the box."""
    n = int(rng.integers(20, 37))
    A = rng.uniform(-1.0, 1.0, size=(n // 4, n))
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    inner = lo + rng.uniform(0.1, 0.9, size=n) * (hi - lo)
    c = rng.uniform(-1.0, 1.0, size=n)
    return LinearProgram(
        objective=c, eq_matrix=A, eq_rhs=A @ inner, lower_bounds=lo, upper_bounds=hi
    )


def dual_objective(lp: LinearProgram, sol: LpSolution) -> float:
    """Lagrangian dual value at ``sol.duals``; equals the primal objective at
    a true optimum (strong duality), making it a handy one-number check."""
    if sol.status != OPTIMAL:
        raise LpInputError("dual objective needs an optimal solution")
    y = sol.duals
    d = lp.objective - y @ lp.eq_matrix
    d = np.where(np.abs(d) <= TOLERANCE, 0.0, d)
    # A positive reduced cost pushes its variable to the lower bound, a
    # negative one to the upper bound; zero reduced cost contributes nothing,
    # so mask the bound arrays first to keep 0 * inf out of the arithmetic.
    lower = np.where(d > 0.0, lp.lower_bounds, 0.0)
    upper = np.where(d < 0.0, lp.upper_bounds, 0.0)
    contribution = np.where(d > 0.0, d * lower, d * upper)
    return float(y @ lp.eq_rhs + contribution.sum())
