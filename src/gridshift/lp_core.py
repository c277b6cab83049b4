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
and the runs are taken depth-first.  Each run goes from phase 1 to its
rows' final status on its own: phase 1 ends, unpriced, once no artificial
is basic; then its infeasible rows stop, and the rest go on to phase 2, at
whose end the run writes its rows, with the multipliers of its last
pricing round as their duals and its point refreshed again only if phase 2
pivoted.  A row whose basic values then lie outside their bounds by more
than the infeasibility cutoff of its right-hand side raises
:class:`SolverFailure`: the ratio tests could not keep its point feasible
(a bound far beyond the right-hand side's scale rounds away the step that
would), and such a point is not optimal.  A lone right-hand side is a run
of one row, started without a sign-pattern test, with its ratio test, step
and basic values in Python scalars; every run steps by bound lists made
once per solve.  A run of any size makes the same products and solves on
arrays of the same shapes, so a stack changes no solution's bits.
:func:`kkt_residuals` certifies a stack the same way, and :func:`verify_kkt`
is its one-LP face.
"""

from __future__ import annotations

import copy
import dataclasses
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
# Phase-1 residual, or an optimal basic value outside its bounds, above this
# (scaled by 1 + max |rhs|) means infeasible, or a breakdown.
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
    """The solver gave up: iteration budget exhausted or numerical breakdown
    (a singular basis, or an optimal point outside its bounds)."""


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
            A = np.array(self.eq_matrix, dtype=float, ndmin=2)
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
        empty = (lo == np.inf) | (hi == -np.inf)
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
    are not optimal.  ``basis`` holds every row's sorted basis (the last
    one, in a row that is not optimal), where an index of ``n`` (the number
    of variables) or more stands for the zero-valued placeholder of a
    linearly dependent row.
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
) -> tuple:
    """What every right-hand side of the stack ``b`` starts from: the bounds
    ``lo`` and ``hi`` of the variables (the structural ones, then one
    artificial per row) and ``span = hi - lo``, as lists; the flags
    ``free_var`` of variables with no bound (None if there are none), each
    variable's value ``x`` and ``sense`` (as in :class:`_Run`), and each
    right-hand side's ``residual`` at ``x``, in that order.

    Every variable starts at its lower bound when finite, otherwise at its
    upper bound, otherwise at zero; one artificial per row, signed to take
    up the residual, starts basic."""
    m, n = A.shape
    lo, hi, zero, inf = lo_n.tolist(), hi_n.tolist(), [0.0] * m, [math.inf] * m
    span = [hv - lv for lv, hv in zip(lo, hi)]  # past the float range: inf, with no warning
    free = [lv == -math.inf and hv == math.inf for lv, hv in zip(lo, hi)]
    x = np.array([lv if lv > -math.inf else hv if hv < math.inf else 0.0 for lv, hv in zip(lo, hi)] + zero)
    sense = [
        0.0 if s <= TOLERANCE else 1.0 if lv == -math.inf and hv < math.inf else -1.0
        for lv, hv, s in zip(lo, hi, span)
    ]
    residual = b - (A @ x[:n, None])[:, 0]
    free_var = np.array(free + [False] * m) if True in free else None
    return lo + zero, hi + inf, span + inf, free_var, x, np.array(sense + zero), residual


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
        row = _lapack_solve(AT[basis], np.eye(m)[:, p, None])[:, 0] @ A
        row[[j for j in basis if j < n]] = 0.0
        entering = int(np.argmax(np.abs(row)))
        if abs(row[entering]) > TOLERANCE:
            basis[p] = entering
            sense[entering] = 0.0
            swapped = True
    return swapped


def _priced(c: np.ndarray, A: np.ndarray, y: np.ndarray, basis: list) -> tuple[np.ndarray, np.ndarray]:
    """The duals and reduced costs, each a row of one, of ``basis`` whose
    multipliers under the objective ``c`` are ``y`` (a stack of one column).
    Basic variables have a reduced cost of zero."""
    reduced = c - (y.transpose(0, 2, 1) @ A)[:, 0]
    reduced[0].put([j for j in basis if j < c.size], 0.0)
    return y[..., 0], reduced


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
    is lower, and otherwise if its pivot is larger by more than 1e-12.
    """
    block = -1
    block_to_upper = False
    for row, (swi, xv, lov, hiv) in enumerate(zip(sw, xb, lo, hi)):
        if swi > _PIVOT_FLOOR and lov > -math.inf:
            limit = (xv - lov) / swi
        elif swi < -_PIVOT_FLOOR and hiv < math.inf:
            limit = (hiv - xv) / -swi
        else:
            continue
        if limit < 0.0:
            limit = 0.0
        if limit < theta - 1e-12:
            theta = limit
            block = row
            block_to_upper = swi < 0.0
        elif block >= 0 and limit <= theta + 1e-12:
            if bland:
                better = basis[row] < basis[block]
            else:
                better = abs(swi) > abs(sw[block]) + 1e-12
            if better:
                block = row
                block_to_upper = swi < 0.0
    if not math.isfinite(theta):
        return -2, False, theta
    return block, block_to_upper, theta


def _ratio_tests(
    xb: np.ndarray, lo: list, hi: list, sw: np.ndarray, basis, own: float, bland: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_ratio_test` for each row of ``xb`` (one row of basic values
    per row of a run), with each step of the scan taken by all the rows at
    once; a ray leaves its row's step 0.  The rows share ``sw`` and the
    bounds, so only the limits and each row's step, blocking row and
    leaving side are arrays."""
    block = keys = None
    for row, (swi, lov, hiv) in enumerate(zip(sw.tolist(), lo, hi)):
        if swi > _PIVOT_FLOOR and lov > -math.inf:
            limit = (xb[:, row] - lov) / swi
        elif swi < -_PIVOT_FLOOR and hiv < math.inf:
            limit = (hiv - xb[:, row]) / -swi
        else:
            continue
        limit[limit < 0.0] = 0.0
        if block is None:  # no row blocks before this one, so no row ties with it
            take = limit < own - 1e-12
            if take.any():
                theta, block, up = np.where(take, limit, own), np.where(take, row, -1), take & (swi < 0.0)
            continue
        near = limit <= theta + 1e-12
        if not near.any():  # no row takes this one or ties with it
            continue
        if keys is None:  # the tie-break operands
            keys = np.array(basis) if bland else np.abs(sw)
        tie = (block >= 0) & near
        tie &= keys[row] < keys[block] if bland else keys[row] > keys[block] + 1e-12
        take = limit < theta - 1e-12
        theta[take] = limit[take]
        take |= tie
        block[take], up[take] = row, swi < 0.0
    if block is None:  # no row can block
        theta, block, up = np.full(len(xb), own), np.full(len(xb), -1), np.zeros(len(xb), dtype=bool)
    if own == math.inf:  # only an entering variable with no other bound finds a ray
        ray = theta == math.inf
        block[ray], theta[ray] = -2, 0.0
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
    degenerate pivots, and whether the run found an unbounded ray; and the
    ``phase`` the run pivots in, which holds what the phase prices and
    steps by: its ``cost`` (one entry per variable); the bounds of every
    variable as lists, ``lo``, ``hi`` and ``span = hi - lo`` (a variable
    with no range is fixed); the array ``free_var`` of the variables with
    no bound, or None; the iteration budget; and whether it is phase 1,
    which ends without a pricing round once no artificial is basic.

    Per row: ``xb``, the values of its basic variables in basis order, a
    list in a run of one row and an array of one row per row otherwise.
    ``held``: the pivot count and the point the phase-1 refresh returned
    (None before it and once an artificial is driven out); a phase 2 that
    ends at that count keeps the refresh's basis and so its point.  ``y``:
    the multipliers of the last round that found no variable to enter, a
    stack of one column (None before one); at the end of phase 2 they are
    the duals of the basis, which that round priced.
    """

    def __init__(
        self, A: np.ndarray, residual: np.ndarray, rows: np.ndarray, xn: np.ndarray,
        sense: np.ndarray, phase: tuple,
    ) -> None:
        """A run at the start of phase 1 (``phase``), from ``xn`` with the
        artificials basic, each signed to take up its row of ``residual``
        (the run's rows share the signs)."""
        m, n = A.shape
        N = n + m
        lead = residual[rows[0]].tolist()  # the first row's, whose signs the rows share
        self.Aaug = np.zeros((1, m, N))
        self.Aaug[0, :, :n] = A
        self.Aaug.reshape(-1)[n :: N + 1] = [1.0 if r >= 0.0 else -1.0 for r in lead]
        self.AT, self.rows, self.basis, self.xn, self.sense, self.phase = (
            self.Aaug[0].T.copy(), rows, list(range(n, N)), xn, sense, phase
        )
        self.xb = [abs(r) for r in lead] if len(rows) == 1 else np.abs(residual[rows])
        self.iterations, self.bland, self.degenerate, self.ray, self.held, self.y = 0, False, 0, False, None, None

    def parts(self, keys: np.ndarray) -> list[tuple[_Run, int]]:
        """The runs of this run's rows grouped by ``keys`` (one row of keys
        per row of the run), in order of their first rows, each with the
        lane of its first row in ``rows``: the run itself if the keys are
        all equal, otherwise runs with copies of its state."""
        if (keys == keys[0]).all():
            return [(self, 0)]
        parts = []
        for lanes in _lanes(keys):
            run = copy.copy(self)
            run.rows, run.basis, run.xn, run.sense = (
                self.rows[lanes], list(self.basis), self.xn.copy(), self.sense.copy()
            )
            run.xb = self.xb[lanes[0]].tolist() if len(lanes) == 1 else self.xb[lanes]
            parts.append((run, lanes[0]))
        return parts

    def pivot(self) -> list[_Run]:
        """Pivot to the end of the run's phase, or until the rows step
        differently; returns the runs the rows then go on in, or none if
        this run ended (priced out, or on a ray).

        Each round prices the basis and solves for the pivot column once.
        A run of one row takes the ratio test and its step in Python
        scalars.  A run of several takes the same scan in arrays
        (:func:`_ratio_tests`), and each row steps its own basic values
        before the run tests whether its rows part ways."""
        Aaug, AT, sense, xn, basis, xb = self.Aaug, self.AT, self.sense, self.xn, self.basis, self.xb
        cost, lo, hi, span, free_var, _, feasibility = self.phase
        lo_b, hi_b = [lo[j] for j in basis], [hi[j] for j in basis]
        one, n = len(self.rows) == 1, len(xn) - len(basis)
        while True:
            if feasibility and max(basis) < n:
                # No artificial is basic: their sum is at zero, its least.
                return []
            BT = AT.take(basis, axis=0)[None]
            y = _lapack_solve(BT, cost.take(basis)[None, :, None])
            d = cost - (y.transpose(0, 2, 1) @ Aaug)[0, 0]
            score = d * sense
            if free_var is not None:
                score = np.where(free_var & (sense != 0.0), np.abs(d), score)
            t = int((score > TOLERANCE).argmax() if self.bland else score.argmax())
            if not score[t] > TOLERANCE:
                self.y = y
                return []
            step_sign = -float(sense[t])
            if free_var is not None and free_var[t]:
                step_sign = 1.0 if d[t] < 0.0 else -1.0
            w = _lapack_solve(BT.transpose(0, 2, 1), AT[None, t, :, None])
            if one:
                sw = [step_sign * v for v in w[0, :, 0].tolist()]  # a product with +-1.0 is exact
                block, up, theta = _ratio_test(xb, lo_b, hi_b, sw, basis, span[t], self.bland)
            else:
                sw = step_sign * w[0, :, 0]
                blocks, ups, thetas = _ratio_tests(xb, lo_b, hi_b, sw, basis, span[t], self.bland)
                xb -= thetas[:, None] * sw
                block, key = int(blocks[0]), thetas <= TOLERANCE
                if (blocks == block).all():  # every row blocks alike: one column steps
                    if block >= 0:
                        xb[:, block] = float(xn[t]) + step_sign * thetas
                else:
                    p = np.flatnonzero(blocks >= 0)
                    xb[p, blocks[p]] = float(xn[t]) + step_sign * thetas[p]
                    key = 2 * blocks + key
                if (key != key[0]).any():
                    # The rows part ways: each outcome goes on in a run of
                    # its own, which takes its own step.
                    runs = []
                    for run, j in self.parts(key[:, None]):
                        if blocks[j] == -2:
                            run.ray = True
                        else:
                            run.step(t, int(blocks[j]), bool(ups[j]), thetas[j] <= TOLERANCE)
                        runs.append(run)
                    return runs
                up, theta = bool(ups[0]), float(thetas[0])
            if block == -2:
                self.ray = True
                return []
            if one:
                xb[:] = [x - theta * s for x, s in zip(xb, sw)]
                if block >= 0:
                    xb[block] = float(xn[t]) + step_sign * theta
            if block >= 0:
                lo_b[block], hi_b[block] = lo[t], hi[t]
            self.step(t, block, up, theta <= TOLERANCE)

    def step(self, t: int, block: int, up: bool, degenerate: bool) -> None:
        """The basis's side of a step in which ``t`` entered: the bound flip
        (``block`` -1) or the pivot on row ``block``, whose variable leaves
        at its upper bound if ``up``; then the pivot count, the stretch of
        degenerate steps and Bland's switch."""
        _, lo, hi, span, _, max_iterations, _ = self.phase
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

    def refresh(self, b: np.ndarray) -> np.ndarray:
        """Re-solve for each row's basic values from the exactly-held
        nonbasic values, clearing the drift accumulated by incremental
        updates.  Returns each row's whole point."""
        r = len(self.rows)
        BT = self.AT.take(self.basis, axis=0)[None]
        rhs = (b if r == len(b) else b[self.rows]) - (self.Aaug @ self.xn[None, :, None])[..., 0]
        xb = _lapack_solve(BT.transpose(0, 2, 1), rhs[..., None])[..., 0]  # BT broadcasts
        x = self.xn[None].repeat(r, axis=0)
        x[:, self.basis] = xb
        self.xb = xb[0].tolist() if r == 1 else xb
        return x


def _check_bounds(run: _Run, b: np.ndarray, lo: list, hi: list) -> None:
    """Raise :class:`SolverFailure` if a row of ``run``, at the end of phase
    2, holds a basic value outside its bounds ``lo`` and ``hi`` by more than
    ``_INFEASIBILITY_CUTOFF * (1 + max |rhs|)`` of its right-hand side in
    ``b``: a point the ratio tests could not keep feasible is not optimal.

    The basic values are read as the run holds them, a list for a lone row;
    a right-hand side's scale is worked out only for a value outside its
    bounds by more than the unscaled cutoff, and a NaN breaks no bound."""
    basis, xb, cut = run.basis, run.xb, _INFEASIBILITY_CUTOFF
    if len(run.rows) == 1:
        for j, v in zip(basis, xb):
            if v < lo[j] - cut or v > hi[j] + cut:
                break
        else:
            return
        xb = np.array([xb])
    elif not ((xb < [lo[j] - cut for j in basis]) | (xb > [hi[j] + cut for j in basis])).any():
        return
    for i, row in enumerate(run.rows.tolist()):
        slack = cut * (1.0 + float(np.abs(b[row]).max()))
        for p, j in enumerate(basis):
            v = float(xb[i, p])
            if v < lo[j] - slack or v > hi[j] + slack:
                raise SolverFailure(
                    f"LP {row}: basic variable {j} ends at {v!r}, outside "
                    f"[{lo[j]!r}, {hi[j]!r}]; numerical breakdown"
                )


def _lanes(keys: np.ndarray) -> list[np.ndarray]:
    """The positions of the equal rows of ``keys``, one array for each
    distinct row, in order of their first positions."""
    order = np.lexsort(keys.T[::-1])  # stable
    ordered = keys[order]
    cuts = (np.flatnonzero((ordered[1:] != ordered[:-1]).any(axis=1)) + 1).tolist()
    return sorted((order[i:j] for i, j in zip([0, *cuts], [*cuts, None])), key=lambda lanes: lanes[0])


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
    differently, and the runs are taken depth-first, each from phase 1 to
    its rows' final status: rows infeasible at the end of phase 1 stop
    there, and the others are priced at the end of phase 2.  A lone
    right-hand side is a run of one row.  Every product and solve is the
    same, to the bit, in a run of any size, so row ``i`` is what the LP
    with right-hand side ``rhs[i]`` gets alone.

    Raises :class:`LpInputError` if ``rhs`` is not such a stack, with at
    least one row, of finite numbers, and :class:`SolverFailure` on a
    breakdown: naming the first row of a run that exhausts the iteration
    budget ``max(200, 10 * (variables + rows))`` or whose phase-1 objective
    diverges; naming the row whose point ends phase 2 with a basic value
    outside its bounds by more than ``_INFEASIBILITY_CUTOFF * (1 + max
    |rhs|)`` of its right-hand side, with the variable and its value; and
    naming no row when a basis turns singular.
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
    """:func:`solve_rhs` at the stack ``b``.

    Each run goes on its own from the start to its rows' final status.  At
    the end of phase 1 its infeasible rows stop, and the rest drive out the
    artificials left basic and go on to phase 2; at the end of phase 2 the
    run writes its rows, priced by its last pricing round, and checks their
    basic values against the bounds (:func:`_check_bounds`).  The runs are
    taken depth-first, each run and each run it splits into in order of
    their first rows."""
    k, m = b.shape
    n = c.size
    lo, hi, span, free_var, x, sense, residual = _start(A, b, lo_n, hi_n)
    cost = np.zeros(n + m)
    cost[n:] = 1.0
    first = (cost, lo, hi, span, free_var, max_iterations, True)
    second = None  # set up when a run first reaches phase 2
    # The numeric columns, one NaN block cut in four, stay NaN in the rows
    # that do not end optimal.
    nan = np.empty(k * (2 * n + m + 1))
    nan.fill(np.nan)
    primal, duals = nan[: k * n].reshape(k, n), nan[k * n : k * (n + m)].reshape(k, m)
    reduced, objective = nan[k * (n + m) : -k].reshape(k, n), nan[-k:]
    status, basis, iterations = [OPTIMAL] * k, np.empty((k, m), dtype=int), np.empty(k, dtype=int)

    def end(run: _Run, rows, label: str) -> None:
        """Write the status, sorted basis and pivot count of ``run``'s rows,
        at the index ``rows``."""
        if label != OPTIMAL:
            for i in run.rows.tolist():
                status[i] = label
        basis[rows], iterations[rows] = sorted(run.basis), run.iterations

    todo = []
    # A lone right-hand side has one sign pattern.
    for rows in _lanes(signs) if k > 1 and ((signs := residual < 0.0) != signs[0]).any() else [np.arange(k)]:
        # Every run starts from the same point; the first takes the arrays.
        xn, sn = (x.copy(), sense.copy()) if todo else (x, sense)
        todo.append(_Run(A, residual, rows, xn, sn, first))
    todo.reverse()
    while todo:
        run = todo.pop()
        split = None if run.ray else run.pivot()
        if split:
            todo += split[::-1]
            continue
        # A run of consecutive rows (they are in order) writes them through a slice.
        rows = run.rows if run.rows[-1] - run.rows[0] >= len(run.rows) else slice(run.rows[0], run.rows[-1] + 1)
        if run.ray:
            if run.phase is first:
                raise SolverFailure(
                    f"LP {run.rows[0]}: phase-1 objective diverged; numerical breakdown"
                )
            end(run, rows, UNBOUNDED)
            continue
        if run.phase is second:
            end(run, rows, OPTIMAL)
            # A phase 2 without a pivot ends where the phase-1 refresh left it.
            xr = run.held[1] if run.held and run.held[0] == run.iterations else run.refresh(b)
            _check_bounds(run, b, lo, second[2])
            duals[rows], reduced[rows] = _priced(c, A, run.y, run.basis)
            point = xr[:, :n]
            with np.errstate(over="ignore"):  # an objective past the float range is inf
                primal[rows], objective[rows] = point, (c @ point[..., None])[:, 0]
            continue
        xr = run.refresh(b)
        if max(run.basis) >= n:  # with no artificial basic, all are at zero
            # A row is feasible if its artificials end phase 1 within the cutoff of zero.
            cutoff = _INFEASIBILITY_CUTOFF * (1.0 + np.maximum.reduce(np.abs(b[rows]), axis=1))
            infeasible = np.add.reduce(np.abs(xr[:, n:]), axis=1) > cutoff
            flags = infeasible.tolist()
            if True in flags:
                if False not in flags:
                    end(run, rows, INFEASIBLE)
                    continue
                # The infeasible rows stop; the feasible ones go on.
                for part, j in run.parts(infeasible[:, None]):
                    if flags[j]:
                        end(part, part.rows, INFEASIBLE)
                    else:
                        run = part
                xr = xr[~infeasible]
        pieces, run.held = [run], (run.iterations, xr)
        if max(run.basis) >= n and _drive_out(run.AT, A, run.basis, run.sense):
            run.held = None  # a new basis
            # Every variable keeps its value, so an artificial that left
            # keeps each row's own: rows whose values differ there part ways.
            xb = xr[:, run.basis]
            run.xb = xb[0].tolist() if len(xb) == 1 else xb
            xr[:, run.basis] = 0.0
            pieces = []
            for piece, j in run.parts(xr.view(np.uint64)):
                piece.xn = xr[j]
                pieces.append(piece)
        if second is None:
            # Phase 2 pins the artificials to zero (none may enter again)
            # and prices by the objective.
            cost = np.zeros(n + m)
            cost[:n] = c
            second = (cost, lo, hi[:n] + [0.0] * m, span[:n] + [0.0] * m, free_var, max_iterations, False)
        for piece in pieces[::-1]:
            piece.phase, piece.bland, piece.degenerate = second, False, 0
            piece.sense[n:] = 0.0
            todo.append(piece)
    return LpSolutions(tuple(status), primal, duals, reduced, basis, objective, iterations)


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
    x, y = (np.ascontiguousarray(v)[None] for v in (sol.primal, sol.duals))
    residuals = kkt_residuals(*arrays, x, y, tolerance)
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
    # Maxima are taken down transposed copies: numpy reduces faster across rows.
    below = lo - x
    above = x - hi

    residual = np.abs((A @ x[..., None])[..., 0] - b).T.copy().max(axis=0)
    primal = np.maximum(residual, below.T.copy().max(axis=0, initial=0.0))
    primal = np.maximum(primal, above.T.copy().max(axis=0, initial=0.0))

    d = c - (y[:, None, :] @ A)[:, 0]
    # A variable within _ACTIVE_BOUND_TOL of a bound may carry a reduced
    # cost of that bound's sign (x - lo is -(lo - x) to the bit); one
    # strictly inside may carry none, and one on both bounds any.
    at_lo = below >= -_ACTIVE_BOUND_TOL
    at_hi = above >= -_ACTIVE_BOUND_TOL
    dual_viol = np.maximum(
        np.maximum(0.0, np.where(at_hi, 0.0, -d)), np.where(at_lo, 0.0, d)
    )
    dual = dual_viol.T.copy().max(axis=0, initial=0.0)

    # A nonzero reduced cost must pin its variable to the matching bound;
    # the residual is |reduced cost| times the distance left to that bound.
    gap = -np.where(d > 0.0, below, above)
    gap = np.where(np.isfinite(gap), np.maximum(gap, 0.0), 0.0)
    size = np.abs(d)
    comp = np.where(size <= tolerance, 0.0, size * gap).T.copy().max(axis=0, initial=0.0)
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
