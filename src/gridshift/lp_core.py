"""Dense two-phase simplex for small linear programs with variable bounds.

Solves ``min c.x  subject to  A x = b,  lo <= x <= hi`` and reports the
optimal point together with the equality-constraint duals and reduced costs
of the terminating basis.  Nonbasic variables are kept explicitly at their
lower or upper bound (no slack reformulation), so bound flips are ordinary
pivots and the duals come straight out of the final basis factorization.

The implementation favours determinism and transparency over large-scale
performance: dense numpy algebra, Dantzig pricing with a switch to Bland's
rule after a stretch of degenerate pivots, and absolute tolerances suited to
well-scaled inputs of at most a few hundred variables.

:func:`solve_rhs` solves one LP at a stack of right-hand sides, each
right-hand side running its own simplex, and returns the solutions as
columns (:class:`LpSolutions`); :func:`solve` is row 0 of a one-row stack.
There is one simplex loop for every stack height: a *run* (:class:`_Run`)
holds the rows whose pivots so far are the same, with one basis, one
pricing and one pivot column per round, while each row keeps its own basic
values and ratio test.  The rows start in one run per sign pattern of
their artificial columns, a run splits where its rows step differently,
and the runs are taken depth-first; a lone right-hand side is a run of one
row, whose ratio test and basic values stay in Python scalars.  A run of
any size makes the same products and solves on arrays of the same shapes,
so a stack changes no bit of any solution.
:func:`kkt_residuals` certifies a stack the same way, and :func:`verify_kkt`
is its one-LP face.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

# Solution status labels.
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

# Absolute tolerance for feasibility, pricing, and degeneracy decisions.
TOLERANCE = 1e-9
# Consecutive degenerate pivots tolerated before switching to Bland's rule.
BLAND_TRIGGER = 20
# Phase-1 residual above this (scaled by max |rhs|) means infeasible.
_INFEASIBILITY_CUTOFF = 1e-7
# Entries of a direction vector smaller than this cannot block or pivot.
_PIVOT_FLOOR = 1e-11
# Slack used when deciding whether a variable sits on one of its bounds.
_ACTIVE_BOUND_TOL = 1e-7

try:
    # The LAPACK gufunc behind np.linalg.solve, called without the wrapper's
    # per-call checks, which cost several times the solve of a small system.
    from numpy.linalg._umath_linalg import solve as _lapack_solve
except ImportError:  # pragma: no cover - a numpy that moved its internals
    _lapack_solve = np.linalg.solve


class LpInputError(ValueError):
    """Malformed problem data: shape mismatch, NaN, lo > hi, or a box with no real point."""


class SolverFailure(RuntimeError):
    """The solver gave up: iteration budget exhausted or numerical breakdown."""


@dataclasses.dataclass(frozen=True)
class LinearProgram:
    """``min objective . x`` with ``eq_matrix @ x == eq_rhs`` and box bounds.

    Arrays are copied and frozen at construction; bounds may be -inf below
    and +inf above but never NaN, and no lower bound may exceed its upper.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower_bounds: np.ndarray
    upper_bounds: np.ndarray

    def __post_init__(self) -> None:
        try:
            A = np.atleast_2d(np.array(self.eq_matrix, dtype=float))
            c = np.array(self.objective, dtype=float)
            b = np.array(self.eq_rhs, dtype=float)
            lo = np.array(self.lower_bounds, dtype=float)
            hi = np.array(self.upper_bounds, dtype=float)
        except (TypeError, ValueError) as exc:
            raise LpInputError(f"problem data is not an array of numbers: {exc}") from exc
        if A.ndim != 2:
            raise LpInputError("constraint matrix must be two-dimensional")
        m, n = A.shape
        if n == 0 or m == 0:
            raise LpInputError("need at least one variable and one constraint row")
        for name, arr, shape in (
            ("objective", c, (n,)),
            ("eq_rhs", b, (m,)),
            ("lower_bounds", lo, (n,)),
            ("upper_bounds", hi, (n,)),
        ):
            if arr.shape != shape:
                raise LpInputError(
                    f"{name} has shape {arr.shape}, expected {shape} "
                    f"for a {m}x{n} constraint matrix"
                )
        if not np.isfinite(np.concatenate((A.ravel(), c, b))).all():
            raise LpInputError("objective, matrix, and rhs must be finite")
        if not (lo <= hi + TOLERANCE).all():  # NaN bounds fail the comparison too
            if np.isnan(lo).any() or np.isnan(hi).any():
                raise LpInputError("bounds may be infinite but not NaN")
            bad = int(np.argmax(lo - hi))
            raise LpInputError(f"lower bound exceeds upper bound for variable {bad}")
        empty = np.isposinf(lo) | np.isneginf(hi)
        if empty.any():
            bad = int(np.argmax(empty))
            raise LpInputError(f"variable {bad} has no real point in [{lo[bad]}, {hi[bad]}]")
        # The arrays above are this LP's own copies; freeze them in place.
        for name, arr in (
            ("objective", c),
            ("eq_matrix", A),
            ("eq_rhs", b),
            ("lower_bounds", lo),
            ("upper_bounds", hi),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_variables(self) -> int:
        return self.eq_matrix.shape[1]

    @property
    def n_constraints(self) -> int:
        return self.eq_matrix.shape[0]


@dataclasses.dataclass(frozen=True)
class LpSolution:
    """Result of :func:`solve`: one row of :class:`LpSolutions`.

    ``duals`` are the simplex multipliers of the terminating basis, i.e. the
    sensitivity of the optimal objective to each equality right-hand side.
    ``reduced_costs`` are ``objective - duals @ eq_matrix`` with basic entries
    zeroed; ``basis`` is the sorted index set of basic structural variables.
    For non-optimal statuses the numeric fields are ``None``.
    """

    status: str
    primal: np.ndarray | None
    duals: np.ndarray | None
    reduced_costs: np.ndarray | None
    basis: tuple[int, ...]
    objective_value: float | None
    iterations: int


class LpSolutions(NamedTuple):
    """Result of :func:`solve_rhs`: the fields of :class:`LpSolution` as
    columns, one row per LP of the stack.

    ``status`` holds each LP's label; ``primal``, ``duals``,
    ``reduced_costs`` and ``objective_value`` are NaN in the rows of LPs that
    are not optimal.  ``basis`` holds each optimal LP's sorted basic
    columns, where an index of ``n`` (the number of variables) or more
    stands for the zero-valued placeholder of a linearly dependent row.
    """

    status: tuple[str, ...]
    primal: np.ndarray
    duals: np.ndarray
    reduced_costs: np.ndarray
    basis: np.ndarray
    objective_value: np.ndarray
    iterations: np.ndarray


def _solution(sols: LpSolutions, i: int) -> LpSolution:
    """Row ``i`` of ``sols`` as an :class:`LpSolution`, without the
    placeholders of linearly dependent rows in its basis."""
    iterations = int(sols.iterations[i])
    if sols.status[i] != OPTIMAL:
        return LpSolution(sols.status[i], None, None, None, (), None, iterations)
    n = sols.primal.shape[1]
    return LpSolution(
        OPTIMAL,
        sols.primal[i],
        sols.duals[i],
        sols.reduced_costs[i],
        tuple(j for j in sols.basis[i].tolist() if j < n),
        float(sols.objective_value[i]),
        iterations,
    )


def _start(
    A: np.ndarray, b: np.ndarray, lo_n: np.ndarray, hi_n: np.ndarray
) -> tuple[np.ndarray, ...]:
    """What every right-hand side of the stack ``b`` starts from: the bounds
    ``lo`` and ``hi`` of the variables (the structural ones, then one
    artificial per row), ``span = hi - lo``, the flags ``free_var`` of
    variables with no bound (None if there are none), each variable's value
    ``x`` and ``sense`` (as in :class:`_Run`), and each right-hand side's
    ``residual`` at ``x``, in that order.

    Every variable starts at its lower bound when finite, otherwise at its
    upper bound, otherwise at zero; one artificial per row, signed to take
    up the residual, starts basic."""
    m, n = A.shape
    N = n + m
    lo = np.zeros(N)
    hi = np.empty(N)
    lo[:n] = lo_n
    hi[:n] = hi_n
    hi[n:] = np.inf
    lo_finite = np.isfinite(lo)
    hi_finite = np.isfinite(hi)
    free_var = ~(lo_finite | hi_finite)
    x = np.where(lo_finite, lo, hi)
    if free_var.any():
        x[free_var] = 0.0
    else:
        free_var = None
    span = hi - lo
    sense = np.where(hi_finite & ~lo_finite, 1.0, -1.0)
    sense[n:] = 0.0
    sense[span <= TOLERANCE] = 0.0
    residual = b - (A @ x[:n, None])[:, 0]
    return lo, hi, span, free_var, x, sense, residual


def _drive_out(AT: np.ndarray, A: np.ndarray, basis, sense: np.ndarray) -> bool:
    """Drive the artificials left in ``basis`` out of it, in place, after
    phase 1; ``AT`` holds the columns of the augmented matrix as rows.
    Returns whether any left.

    A row whose artificial cannot be exchanged for any structural column is
    linearly dependent and keeps its (zero-valued, now fixed) artificial as
    a placeholder."""
    m, n = A.shape
    swapped = False
    for p in range(m):
        if basis[p] < n:
            continue
        unit = np.zeros(m)
        unit[p] = 1.0
        multipliers = np.linalg.solve(AT[basis], unit)
        row = multipliers @ A
        row[[j for j in basis if j < n]] = 0.0
        entering = int(np.argmax(np.abs(row)))
        if abs(row[entering]) > TOLERANCE:
            basis[p] = entering
            sense[entering] = 0.0
            swapped = True
    return swapped


def _priced(
    c: np.ndarray, A: np.ndarray, cost: np.ndarray, BT: np.ndarray, basis: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The duals and reduced costs of each basis of ``basis`` (one row
    each) under ``cost``, the objective ``c`` padded with zeros: ``BT``
    holds the bases' transposed matrices.  Basic variables have a reduced
    cost of zero."""
    G, n = len(basis), c.size
    y = _lapack_solve(BT, cost.take(basis)[..., None])
    reduced = c - (y.transpose(0, 2, 1) @ A)[:, 0]
    flat = basis if G == 1 else basis + np.arange(0, G * n, n)[:, None]
    reduced.reshape(-1)[flat[basis < n]] = 0.0
    return y[..., 0], reduced


def _solutions(
    c: np.ndarray, status: list[str], x: np.ndarray, duals: np.ndarray, reduced: np.ndarray,
    basis: np.ndarray, iterations: np.ndarray,
) -> LpSolutions:
    """The solutions of a stack from each row's point ``x`` (all variables),
    duals, reduced costs, basis and pivot count, with NaN in the numeric
    columns of the rows that are not optimal."""
    primal = x[:, : c.size].copy()
    objective = (c @ primal[..., None])[:, 0]
    if status.count(OPTIMAL) < len(status):
        failed = [s != OPTIMAL for s in status]
        for values in (primal, duals, reduced, objective):
            values[failed] = np.nan
    basis.sort(axis=1)
    return LpSolutions(
        status=tuple(status),
        primal=primal,
        duals=duals,
        reduced_costs=reduced,
        basis=basis,
        objective_value=objective,
        iterations=iterations,
    )


def _none_optimal(
    status: list[str], basis: np.ndarray, iterations: np.ndarray, n: int
) -> LpSolutions:
    """The solutions of a stack in which no row is optimal: one NaN block,
    cut into the numeric columns, and each row's phase-1 basis."""
    m = basis.shape[1]
    nan = np.empty((len(status), 2 * n + m + 1))
    nan.fill(np.nan)
    return LpSolutions(
        status=tuple(status),
        primal=nan[:, :n],
        duals=nan[:, n : n + m],
        reduced_costs=nan[:, n + m : -1],
        basis=basis,
        objective_value=nan[:, -1],
        iterations=iterations,
    )


def _ratio_test(
    xb: list, lo: list, hi: list, sw: list, basis, theta: float, bland: bool
) -> tuple[int, bool, float]:
    """Ratio test of one row of a run, in Python scalars: the basic
    variables ``basis``, at ``xb`` within ``[lo, hi]``, move by ``-sw`` per
    unit of step, and the entering variable has the range ``theta``.
    Returns the blocking row (-1 if the entering variable reaches its other
    bound first, -2 on an unbounded ray), whether the blocking variable
    leaves at its upper bound, and the step.

    The basic rows are scanned in order for the first step limit below the
    entering variable's own range by more than 1e-12; a limit within 1e-12
    of the current one replaces it under Bland's rule if its variable index
    is lower, and otherwise if its pivot is larger.
    """
    block = -1
    block_to_upper = False
    for row, (swi, xv, lov, hiv) in enumerate(zip(sw, xb, lo, hi)):
        if swi > _PIVOT_FLOOR:
            if lov == -math.inf:
                continue
            limit = (xv - lov) / swi
            hits_upper = False
        elif swi < -_PIVOT_FLOOR:
            if hiv == math.inf:
                continue
            limit = (hiv - xv) / -swi
            hits_upper = True
        else:
            continue
        if limit < 0.0:
            limit = 0.0
        if limit < theta - 1e-12:
            theta = limit
            block = row
            block_to_upper = hits_upper
        elif block >= 0 and limit <= theta + 1e-12:
            if bland:
                better = basis[row] < basis[block]
            else:
                better = abs(swi) > abs(sw[block]) + 1e-12
            if better:
                block = row
                block_to_upper = hits_upper
    if not math.isfinite(theta):
        return -2, False, theta
    return block, block_to_upper, theta


def _ratio_tests(
    xb: np.ndarray, lo: list, hi: list, sw: np.ndarray, basis, own: float, bland: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_ratio_test` for each row of ``xb`` (one row of basic values
    per row of a run), in array operations; a ray leaves its row's step 0.

    A row whose smallest step limit is clear, by more than the tie window,
    of the others and of the entering variable's own range ``own`` has only
    one possible outcome of the scan, the plain minimum; every other row is
    scanned on its own."""
    lane = np.arange(len(xb))
    lo_b, hi_b = np.array(lo), np.array(hi)
    size = np.abs(sw)
    # A variable with no bound in the direction it moves has an infinite
    # limit; |sw| is sw where it rises and -sw where it falls, to the bit.
    limit = np.divide(
        np.where(sw > _PIVOT_FLOOR, xb - lo_b, hi_b - xb),
        size,
        out=np.full(xb.shape, np.inf),
        where=size > _PIVOT_FLOOR,
    )
    limit[limit < 0.0] = 0.0
    first = limit.argmin(axis=1)
    low = limit[lane, first]
    limit[lane, first] = np.inf
    runner = functools.reduce(np.minimum, limit.T)  # column by column: fast for few rows
    flip = own < low
    clear = flip | ((low < np.minimum(own, runner) - 1e-12) & (runner > low + 1e-12))
    block = np.where(flip, -1, first)
    up = sw[first] < -_PIVOT_FLOOR
    theta = np.where(flip, own, low)
    if not clear.all():
        sw_list = sw.tolist()
        for j in np.flatnonzero(~clear).tolist():
            row = xb[j].tolist()
            block[j], up[j], theta[j] = _ratio_test(row, lo, hi, sw_list, basis, own, bland)
            if block[j] == -2:
                theta[j] = 0.0  # on a ray, the row stays put
    return block, up, theta


class _Run:
    """Simplex state of a *run*: the rows of the stack (``rows``, an array
    in order) whose pivots so far are the same.  A lone solve is a run of
    one row.

    Shared by the run's rows: ``Aaug``, the constraint matrix with the
    phase-1 artificial columns (signed by the rows' residuals, which share
    one sign pattern), and ``AT``, its columns as rows; the ``basis`` (a
    list, one column per constraint row); ``xn``, the values of the
    nonbasic variables (zero for the basic ones); ``sense``, +1 for a
    nonbasic variable at its upper bound, -1 at its lower bound and 0 for a
    variable that may not enter (basic, or fixed), so that ``d * sense``
    prices every variable; the pivot count, Bland's switch, the stretch of
    degenerate pivots, and whether the run found an unbounded ray.

    Per row: ``xb``, the values of its basic variables in basis order, a
    list in a run of one row and an array of one row per row otherwise.
    """

    def __init__(
        self, A: np.ndarray, residual: np.ndarray, rows: np.ndarray, xn: np.ndarray,
        sense: np.ndarray,
    ) -> None:
        """A run at the start, from ``xn`` with the artificials basic, each
        signed to take up its row of ``residual`` (the run's rows share the
        signs)."""
        m, n = A.shape
        N = n + m
        self.Aaug = np.zeros((1, m, N))
        self.Aaug[0, :, :n] = A
        self.Aaug.reshape(-1)[n :: N + 1] = np.where(residual[rows[0]] >= 0.0, 1.0, -1.0)
        self.AT, self.rows, self.basis, self.xn, self.sense = (
            self.Aaug[0].T.copy(), rows, list(range(n, N)), xn, sense
        )
        self.xb = np.abs(residual[rows[0]]).tolist() if len(rows) == 1 else np.abs(residual[rows])
        self.iterations, self.bland, self.degenerate, self.ray = 0, False, 0, False

    def parts(self, keys: np.ndarray) -> list[tuple[_Run, int]]:
        """The runs of this run's rows grouped by ``keys`` (one row of keys
        per row of the run), in order of their first rows, each with the
        lane of its first row in ``rows``: the run itself if the keys are
        all equal, otherwise runs with copies of its state."""
        groups = _lanes(keys)
        if len(groups) == 1:
            return [(self, 0)]
        parts = []
        for lanes in groups:
            run = copy.copy(self)
            run.rows, run.basis, run.xn, run.sense = (
                self.rows[lanes], list(self.basis), self.xn.copy(), self.sense.copy()
            )
            run.xb = self.xb[lanes[0]].tolist() if len(lanes) == 1 else self.xb[lanes]
            parts.append((run, lanes[0]))
        return parts

    def pivot(self, phase: tuple) -> list[_Run]:
        """Pivot to the end of ``phase``, or until the rows step
        differently; returns the runs the rows then go on in, or none if
        this run ended (priced out, or on a ray).

        ``phase`` holds what the phase prices and steps by: its ``cost``
        (one entry per variable); the bounds of every variable as lists,
        ``lo``, ``hi`` and ``span = hi - lo`` (a variable with no range is
        fixed); the array ``free_var`` of the variables with no bound, or
        None; and the iteration budget.

        Each round prices the basis and solves for the pivot column once.
        A run of one row takes the ratio test in Python scalars; a run of
        several, one per row (:func:`_ratio_tests`), and each row moves its
        own basic values."""
        Aaug, AT, sense, xn, basis, xb = self.Aaug, self.AT, self.sense, self.xn, self.basis, self.xb
        cost, lo, hi, span, free_var, _ = phase
        lo_b, hi_b = [lo[j] for j in basis], [hi[j] for j in basis]
        one = len(self.rows) == 1
        while True:
            BT = AT.take(basis, axis=0)[None]
            y = _lapack_solve(BT, cost.take(basis)[None, :, None])
            d = cost - (y.transpose(0, 2, 1) @ Aaug)[0, 0]
            score = d * sense
            if free_var is not None:
                score = np.where(free_var & (sense != 0.0), np.abs(d), score)
            t = int((score > TOLERANCE).argmax() if self.bland else score.argmax())
            if not score[t] > TOLERANCE:
                return []
            step_sign = -float(sense[t])
            if free_var is not None and free_var[t]:
                step_sign = 1.0 if d[t] < 0.0 else -1.0
            w = _lapack_solve(BT.transpose(0, 2, 1), AT[None, t, :, None])
            if one:
                sw = (step_sign * w[0, :, 0]).tolist()
                block, up, theta = _ratio_test(xb, lo_b, hi_b, sw, basis, span[t], self.bland)
                if block == -2:
                    self.ray = True
                    return []
                xb[:] = [x - theta * s for x, s in zip(xb, sw)]
                if block >= 0:
                    xb[block] = float(xn[t]) + step_sign * theta
            else:
                sw = step_sign * w[0, :, 0]
                blocks, ups, thetas = _ratio_tests(xb, lo_b, hi_b, sw, basis, span[t], self.bland)
                key = 2 * blocks + (thetas <= TOLERANCE)
                if (key != key[0]).any():
                    # The rows part ways: each outcome goes on in a run of its
                    # own, which takes its own step.
                    xb -= thetas[:, None] * sw
                    p = np.flatnonzero(blocks >= 0)
                    xb[p, blocks[p]] = float(xn[t]) + step_sign * thetas[p]
                    runs = []
                    for run, j in self.parts(key[:, None]):
                        if blocks[j] == -2:
                            run.ray = True
                        else:
                            run.step(t, int(blocks[j]), bool(ups[j]), thetas[j] <= TOLERANCE, phase)
                        runs.append(run)
                    return runs
                block, up, theta = int(blocks[0]), bool(ups[0]), float(thetas[0])
                if block == -2:
                    self.ray = True
                    return []
                xb -= thetas[:, None] * sw
                if block >= 0:
                    xb[:, block] = float(xn[t]) + step_sign * thetas
            if block >= 0:
                lo_b[block], hi_b[block] = lo[t], hi[t]
            self.step(t, block, up, theta <= TOLERANCE, phase)

    def step(self, t: int, block: int, up: bool, degenerate: bool, phase: tuple) -> None:
        """The basis's side of a step in which ``t`` entered: the bound flip
        (``block`` -1) or the pivot on row ``block``, whose variable leaves
        at its upper bound if ``up``; then the pivot count, the stretch of
        degenerate steps and Bland's switch."""
        _, lo, hi, span, _, max_iterations = phase
        self.iterations += 1
        if self.iterations > max_iterations:
            m = len(self.basis)
            raise SolverFailure(
                f"LP {self.rows[0]}: iteration budget {max_iterations} exhausted "
                f"({self.xn.size - m} variables, {m} rows)"
            )
        sense, xn = self.sense, self.xn
        if block < 0:
            sense[t] = -sense[t]
            xn[t] = hi[t] if sense[t] > 0.0 else lo[t]
            self.degenerate = 0
            return
        leaving = self.basis[block]
        xn[leaving] = hi[leaving] if up else lo[leaving]
        sense[leaving] = 0.0 if span[leaving] <= TOLERANCE else (1.0 if up else -1.0)
        xn[t] = 0.0
        sense[t] = 0.0
        self.basis[block] = t
        if not degenerate:
            self.degenerate = 0
            return
        self.degenerate += 1
        self.bland = self.bland or self.degenerate >= BLAND_TRIGGER

    def refresh(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Re-solve for each row's basic values from the exactly-held
        nonbasic values, clearing the drift accumulated by incremental
        updates.  Returns the transposed basis matrix and each row's whole
        point."""
        r = len(self.rows)
        BT = self.AT.take(self.basis, axis=0)[None]
        rhs = (b if r == len(b) else b[self.rows]) - (self.Aaug @ self.xn[None, :, None])[..., 0]
        if r == 1:
            xb = _lapack_solve(BT.transpose(0, 2, 1), rhs[..., None])[0, :, 0]
            self.xb = xb.tolist()
            x = self.xn[None].copy()
            x[0].put(self.basis, xb)
        else:
            self.xb = _lapack_solve(BT.repeat(r, axis=0).transpose(0, 2, 1), rhs[..., None])[..., 0]
            x = self.xn[None].repeat(r, axis=0)
            x[:, self.basis] = self.xb
        return BT, x


def _lanes(keys: np.ndarray) -> list[np.ndarray]:
    """The positions of the equal rows of ``keys``, one array for each
    distinct row, in order of their first positions."""
    order = np.lexsort(keys.T[::-1])  # stable
    ordered = keys[order]
    cuts = np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1
    return sorted(np.split(order, cuts), key=lambda lanes: lanes[0])


def _pivot_all(runs: list[_Run], phase: tuple, status: list[str]) -> list[_Run]:
    """Pivot ``runs`` to the end of ``phase``, depth-first: each run, and
    each run it splits into, in order of their first rows.  Returns the
    runs the rows end in, and marks the rows that end on a ray in
    ``status``."""
    done = []
    todo = runs[::-1]
    while todo:
        run = todo.pop()
        split = None if run.ray else run.pivot(phase)
        if split:
            todo += split[::-1]
            continue
        done.append(run)
        if run.ray:
            for i in run.rows.tolist():
                status[i] = UNBOUNDED
    return done


def _points(runs: list[_Run], b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Refresh every run (:meth:`_Run.refresh`); returns their transposed
    basis matrices, one per run, and the point of each row of ``b``."""
    if len(runs) == 1:
        return runs[0].refresh(b)
    x = np.empty((len(b), runs[0].xn.size))
    BT = []
    for run in runs:
        B, x[run.rows] = run.refresh(b)
        BT.append(B)
    return np.concatenate(BT), x


def _per_row(runs: list[_Run], k: int, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each of ``values``, one row per run, as one row per row of a stack
    of ``k`` rows."""
    if k == 1:
        return values
    member = np.empty(k, dtype=np.intp)
    for g, run in enumerate(runs):
        member[run.rows] = g
    return tuple(v[member] for v in values)


def solve_rhs(lp: LinearProgram, rhs) -> LpSolutions:
    """Run the two-phase bounded-variable simplex method on ``lp`` at every
    row of ``rhs``, a ``(k, rows)`` stack of equality right-hand sides.

    Phase 1 minimizes the total artificial infeasibility from a
    deterministic start (every variable at its lower bound when finite,
    otherwise its upper bound, otherwise zero), and phase 2 reoptimizes the
    true objective with the artificials pinned to zero.  Rows whose pivots
    so far are the same share one simplex run (:class:`_Run`): one basis,
    one pricing and one pivot column per round, while each row keeps its
    own basic values and ratio test.  The rows start in one run per sign
    pattern of their artificials, a run splits where its rows step
    differently, and the runs are taken depth-first; a lone right-hand side
    is a run of one row.  Every product and solve is the same, to the bit,
    in a run of any size, so row ``i`` is what the LP with right-hand side
    ``rhs[i]`` gets alone.

    Raises :class:`LpInputError` if ``rhs`` is not such a stack, with at
    least one row, of finite numbers, and :class:`SolverFailure`, naming the
    row, if one exhausts the iteration budget
    ``max(200, 10 * (variables + rows))`` or meets a singular basis.
    """
    try:
        b = np.array(rhs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise LpInputError(f"rhs stack is not an array of numbers: {exc}") from exc
    m, n = lp.eq_matrix.shape
    if b.ndim != 2 or b.shape[1:] != (m,) or not b.shape[0]:
        raise LpInputError(f"rhs stack has shape {b.shape}, expected (k, {m}) with k >= 1")
    if not np.isfinite(b).all():
        raise LpInputError("objective, matrix, and rhs must be finite")
    max_iterations = max(200, 10 * (n + m))
    try:
        # A singular basis surfaces as an invalid-value signal from the
        # LAPACK gufunc, and as LinAlgError from np.linalg.solve.
        with np.errstate(invalid="raise"):
            return _solve(
                lp.objective, lp.eq_matrix, b, lp.lower_bounds, lp.upper_bounds, max_iterations
            )
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise SolverFailure("singular basis; numerical breakdown") from exc


def _solve(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, lo_n: np.ndarray, hi_n: np.ndarray,
    max_iterations: int,
) -> LpSolutions:
    """:func:`solve_rhs` at the stack ``b``."""
    k, m = b.shape
    n = c.size
    lo, hi, span, free_var, x, sense, residual = _start(A, b, lo_n, hi_n)
    runs = []
    for rows in _lanes(residual < 0.0) if k > 1 else [np.arange(1)]:
        # Every run starts from the same point; the first takes the arrays.
        xn, sn = (x.copy(), sense.copy()) if runs else (x, sense)
        runs.append(_Run(A, residual, rows, xn, sn))
    cost = np.zeros(n + m)
    cost[n:] = 1.0
    phase = (cost, lo.tolist(), hi.tolist(), span.tolist(), free_var, max_iterations)
    status = [OPTIMAL] * k
    runs = _pivot_all(runs, phase, status)
    if UNBOUNDED in status:
        i = status.index(UNBOUNDED)
        raise SolverFailure(f"LP {i}: phase-1 objective diverged; numerical breakdown")
    x = _points(runs, b)[1]
    # A row is feasible if its artificials end within the cutoff of zero.
    infeasibility = np.add.reduce(np.abs(x[:, n:]), axis=1)
    cutoff = _INFEASIBILITY_CUTOFF * (1.0 + np.maximum.reduce(np.abs(b), axis=1))
    infeasible = infeasibility > cutoff
    status = [INFEASIBLE if f else OPTIMAL for f in infeasible.tolist()]
    if OPTIMAL not in status:
        basis = np.array([run.basis for run in runs])
        basis, iterations = _per_row(runs, k, basis, np.array([run.iterations for run in runs]))
        return _none_optimal(status, basis, iterations, n)

    # Infeasible rows stop; the feasible ones drive out the artificials left
    # basic.  Every variable keeps its value, so an artificial that left
    # keeps each row's own: rows whose values differ there part ways.
    live, stopped = [], []
    mixed = INFEASIBLE in status
    for run in runs:
        for part, _ in run.parts(infeasible[run.rows, None]) if mixed else [(run, 0)]:
            if infeasible[part.rows[0]]:
                stopped.append(part)
            elif max(part.basis) >= n and _drive_out(part.AT, A, part.basis, part.sense):
                xr = x[part.rows]
                xb = xr[:, part.basis]
                part.xb = xb[0].tolist() if len(xb) == 1 else xb
                xr[:, part.basis] = 0.0
                for piece, j in part.parts(xr.view(np.uint64)):
                    piece.xn = xr[j]
                    live.append(piece)
            else:
                live.append(part)

    # Phase 2 pins the artificials to zero (none may enter again) and prices
    # by the objective.
    hi[n:] = 0.0
    span = hi - lo
    cost = np.zeros(n + m)
    cost[:n] = c
    phase = (cost, phase[1], hi.tolist(), span.tolist(), free_var, max_iterations)
    for run in live:
        run.sense[n:] = 0.0
        run.bland, run.degenerate = False, 0
    runs = stopped + _pivot_all(live, phase, status)
    BT, x = _points(runs, b)
    basis = np.array([run.basis for run in runs])
    duals, reduced = _priced(c, A, cost, BT, basis)
    duals, reduced, basis, iterations = _per_row(
        runs, k, duals, reduced, basis, np.array([run.iterations for run in runs])
    )
    return _solutions(c, status, x, duals, reduced, basis, iterations)


def solve(lp: LinearProgram) -> LpSolution:
    """Run the two-phase bounded-variable simplex method on ``lp``: row 0 of
    :func:`solve_rhs` at the one right-hand side of ``lp``."""
    return _solution(solve_rhs(lp, lp.eq_rhs[None]), 0)


@dataclasses.dataclass(frozen=True)
class KktReport:
    """Worst-case optimality-condition residuals for a claimed solution.

    ``violations`` lists every check whose residual is not within
    ``tolerance``; an empty list certifies the solution to that tolerance.
    """

    primal_feasibility: float
    dual_feasibility: float
    complementary_slackness: float
    violations: tuple[tuple[str, float], ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_kkt(lp: LinearProgram, sol: LpSolution, tolerance: float = 1e-8) -> KktReport:
    """Check primal feasibility, dual sign conditions, and complementarity.

    The reduced costs are recomputed from ``sol.duals`` rather than trusted
    from the solution, so this is an independent certificate of optimality:
    all three residuals within ``tolerance`` proves ``sol`` optimal for ``lp``
    up to that tolerance, and a NaN residual is a violation.  Requires
    ``sol.status == OPTIMAL`` and a point and duals of ``lp``'s shapes.
    """
    if sol.status != OPTIMAL:
        raise LpInputError("KKT verification needs an optimal solution")
    if (sol.primal.shape, sol.duals.shape) != (lp.objective.shape, lp.eq_rhs.shape):
        raise LpInputError(
            f"primal/duals of shapes {sol.primal.shape}/{sol.duals.shape} do not fit "
            f"an LP of {lp.objective.shape}/{lp.eq_rhs.shape} variables/rows"
        )
    # The LP's own arrays broadcast against the one-row stack of the point.
    arrays = (lp.objective, lp.eq_matrix, lp.eq_rhs, lp.lower_bounds, lp.upper_bounds)
    residuals = kkt_residuals(*arrays, np.array([sol.primal]), np.array([sol.duals]), tolerance)
    values = [float(r[0]) for r in residuals]
    names = ("primal feasibility", "dual feasibility", "complementary slackness")
    violations = tuple((name, v) for name, v in zip(names, values) if not v <= tolerance)
    return KktReport(*values, violations=violations, tolerance=tolerance)


def kkt_residuals(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    tolerance: float = 1e-8,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The residuals of :func:`verify_kkt` for a stack of claimed optimal
    points ``x`` (``(k, n)``) and duals ``y`` (``(k, m)``) of the LPs ``c``,
    ``A``, ``b``, ``lo``, ``hi``, stacked the same way; any LP array may be
    one LP's, broadcast against the stack.  Returns the primal-feasibility,
    dual-feasibility and complementary-slackness residual of each LP."""
    below = lo - x
    above = x - hi

    residual = np.abs((A @ x[..., None])[..., 0] - b).max(axis=1)
    primal = np.maximum(residual, below.max(axis=1, initial=0.0))
    primal = np.maximum(primal, above.max(axis=1, initial=0.0))

    d = c - (y[:, None, :] @ A)[:, 0]
    # A variable within _ACTIVE_BOUND_TOL of a bound may carry a reduced
    # cost of that bound's sign (x - lo is -(lo - x) to the bit); one
    # strictly inside may carry none, and one on both bounds any.
    at_lo = below >= -_ACTIVE_BOUND_TOL
    at_hi = above >= -_ACTIVE_BOUND_TOL
    dual_viol = np.maximum(
        np.maximum(0.0, np.where(at_hi, 0.0, -d)), np.where(at_lo, 0.0, d)
    )
    dual = dual_viol.max(axis=1, initial=0.0)

    # A nonzero reduced cost must pin its variable to the matching bound;
    # the residual is |reduced cost| times the distance left to that bound.
    gap = np.where(d > 0.0, -below, -above)
    gap = np.where(np.isfinite(gap), np.maximum(gap, 0.0), 0.0)
    size = np.abs(d)
    comp = np.where(size <= tolerance, 0.0, size * gap).max(axis=1, initial=0.0)
    return primal, dual, comp


def format_lp(lp: LinearProgram) -> str:
    """Plain-text dump of an LP for bug reports.

    Line 1: ``<rows> <variables>``.  Line 2: objective coefficients.  Then one
    line per constraint row (coefficients followed by the right-hand side),
    then the lower-bound line and the upper-bound line, all space-separated
    ``repr`` values so the dump round-trips exactly.
    """
    m, n = lp.eq_matrix.shape

    def fmt(values) -> str:
        return " ".join(repr(float(v)) for v in values)

    lines = [f"{m} {n}", fmt(lp.objective)]
    for i in range(m):
        lines.append(fmt(list(lp.eq_matrix[i]) + [lp.eq_rhs[i]]))
    lines.append(fmt(lp.lower_bounds))
    lines.append(fmt(lp.upper_bounds))
    return "\n".join(lines) + "\n"
