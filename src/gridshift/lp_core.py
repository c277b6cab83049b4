"""Dense two-phase simplex for small linear programs with variable bounds.

Solves ``min c.x  subject to  A x = b,  lo <= x <= hi`` and reports the
optimal point together with the equality-constraint duals and reduced costs
of the terminating basis.  Nonbasic variables are kept explicitly at their
lower or upper bound (no slack reformulation), so bound flips are ordinary
pivots and the duals come straight out of the final basis factorization.

The implementation favours determinism and transparency over large-scale
performance: dense numpy algebra, Dantzig pricing with a switch to Bland's
rule after a run of degenerate pivots, and absolute tolerances suited to
well-scaled inputs of at most a few hundred variables.

Many LPs of one shape are solved in lock-step: each runs its own simplex on
its row of one stacked state, updated in place, and the LPs share only the
numpy calls, one stacked call per pivot round for all of them.  Every
stacked product and solve does the arithmetic a lone solve does, so a batch
changes no bit of any solution.  The lock-step core takes the LP data as
stacked arrays and returns the solutions as columns (:class:`LpSolutions`).
:func:`solve_rhs` solves one LP at a stack of right-hand sides with no LP
object per row, and :func:`solve` is row 0 of a one-row stack.
:func:`kkt_residuals` certifies a stack the same way, and :func:`verify_kkt`
is its one-LP face.
"""

from __future__ import annotations

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
        A = np.atleast_2d(np.array(self.eq_matrix, dtype=float))
        c = np.array(self.objective, dtype=float)
        b = np.array(self.eq_rhs, dtype=float)
        lo = np.array(self.lower_bounds, dtype=float)
        hi = np.array(self.upper_bounds, dtype=float)
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


#: Batches up to this many LPs take their pivot steps one LP at a time in
#: Python scalars; larger ones take them in array operations, which cost
#: more per call but next to nothing per LP.
_SCAN_BATCH = 8


class _Runs:
    """Simplex state of a stack of LPs of one shape, one row per LP, updated
    in place from the first pivot of phase 1 to the last of phase 2.

    ``offsets`` holds the flat index of each run's first variable in the
    ``(runs, variables)`` arrays; flat indices read faster than pairs of
    indices.  ``Aaug`` is the constraint matrix with the phase-1 artificial
    columns and ``AaugT`` its transpose; ``lo``, ``hi`` and ``span = hi - lo``
    are the bounds, ``free_var`` and ``fixed`` flag variables with no bound
    and with no range, and ``cost`` is the objective of the phase being run.
    The pivoting state is the point ``x``, the ``basis`` (one column per row
    of the constraint matrix), the pivot count, Bland's switch and the run of
    degenerate pivots; ``sense`` is +1 for a nonbasic variable at its upper
    bound, -1 at its lower bound, and 0 for a variable that may not enter the
    basis (basic, or fixed), so that ``d * sense`` prices every variable.
    """

    def __init__(self, **arrays: np.ndarray) -> None:
        self.__dict__.update(arrays)

    def flat_basis(self) -> np.ndarray:
        return self.basis + self.offsets[:, None]


def _pivot_run(
    runs: _Runs, i: int, t: int, sw: np.ndarray, step_sign: float, max_iterations: int
) -> bool:
    """Ratio test and pivot of run ``i`` alone, in Python scalars: the
    entering variable ``t`` moves by ``step_sign`` and the basic variables by
    ``-sw`` per unit of step.  Returns False, with the run untouched, if the
    step is unbounded.

    The basic rows are scanned in order for the first step limit below the
    entering variable's own range by more than 1e-12; a limit within 1e-12
    of the current one replaces it under Bland's rule if its variable index
    is lower, and otherwise if its pivot is larger.
    """
    x, lo, hi, basis, sense = runs.x[i], runs.lo[i], runs.hi[i], runs.basis[i], runs.sense[i]
    theta = runs.span[i, t]  # own-range limit: reaching it flips the bound
    block = -1
    block_to_upper = False
    bland = runs.use_bland[i]
    sws, vs = sw.tolist(), basis.tolist()
    for row, (swi, xv, lov, hiv) in enumerate(
        zip(sws, x[basis].tolist(), lo[basis].tolist(), hi[basis].tolist())
    ):
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
                better = vs[row] < vs[block]
            else:
                better = abs(swi) > abs(sws[block]) + 1e-12
            if better:
                block = row
                block_to_upper = hits_upper
    if not math.isfinite(theta):
        return False

    runs.iterations[i] += 1
    if runs.iterations[i] > max_iterations:
        _exhausted(runs, i, max_iterations)
    x[basis] -= theta * sw
    if block < 0:
        sense[t] = -sense[t]
        x[t] = hi[t] if sense[t] > 0.0 else lo[t]
        runs.degenerate_run[i] = 0
        return True
    x[t] += step_sign * theta
    leaving = vs[block]
    x[leaving] = hi[leaving] if block_to_upper else lo[leaving]
    sense[leaving] = 0.0 if runs.fixed[i, leaving] else (1.0 if block_to_upper else -1.0)
    sense[t] = 0.0
    basis[block] = t
    if theta <= TOLERANCE:
        runs.degenerate_run[i] += 1
        if runs.degenerate_run[i] >= BLAND_TRIGGER:
            runs.use_bland[i] = True
    else:
        runs.degenerate_run[i] = 0
    return True


def _exhausted(runs: _Runs, i: int, max_iterations: int) -> None:
    m, N = runs.Aaug.shape[1:]
    raise SolverFailure(
        f"LP {i}: iteration budget {max_iterations} exhausted ({N - m} variables, {m} rows)"
    )


def _pivot_stack(
    runs: _Runs,
    rows: np.ndarray,
    fb: np.ndarray,
    t: np.ndarray,
    sw: np.ndarray,
    step_sign: np.ndarray,
    max_iterations: int,
) -> np.ndarray:
    """:func:`_pivot_run` for the runs ``rows`` of a large batch, whose basic
    variables sit at the flat indices ``fb``; returns which of them took a
    step (the rest found an unbounded ray).

    The step limits of all runs come from one set of array operations.  A
    run whose smallest limit is clear, by more than the tie window, of the
    others and of the entering variable's own range has only one possible
    outcome of the scan, the plain minimum, and pivots with the other such
    runs in array operations; every other run is scanned on its own.
    """
    r = np.arange(t.size)
    xb = runs.x.take(fb)
    rises = sw > _PIVOT_FLOOR
    size = np.abs(sw)
    # A variable with no bound in the direction it moves has an infinite
    # limit; |sw| is sw where it rises and -sw where it falls, to the bit.
    limit = np.divide(
        np.where(rises, xb - runs.lo.take(fb), runs.hi.take(fb) - xb),
        size,
        out=np.full(sw.shape, np.inf),
        where=size > _PIVOT_FLOOR,
    )
    limit[limit < 0.0] = 0.0
    own = runs.span[rows, t]
    first = limit.argmin(axis=1)
    low = limit[r, first]
    limit[r, first] = np.inf
    runner = limit.min(axis=1)
    flip = own < low
    clear = flip | ((low < np.minimum(own, runner) - 1e-12) & (runner > low + 1e-12))

    stepped = clear.copy()
    for j in np.flatnonzero(~clear).tolist():
        stepped[j] = _pivot_run(
            runs, int(rows[j]), int(t[j]), sw[j], float(step_sign[j]), max_iterations
        )

    # ``r`` indexes this round's arrays, ``ri`` the stack.
    r, t, fb, flip, sw = r[clear], t[clear], fb[clear], flip[clear], sw[clear]
    ri = rows[r]
    theta = np.where(flip, own[clear], low[clear])
    runs.iterations[ri] += 1
    if ri.size and runs.iterations[ri].max() > max_iterations:
        _exhausted(runs, int(ri[runs.iterations[ri].argmax()]), max_iterations)
    x, sense = runs.x.reshape(-1), runs.sense.reshape(-1)
    tf = runs.offsets[ri] + t
    x[fb] -= theta[:, None] * sw
    ft = tf[flip]
    sense[ft] = -sense[ft]
    x[ft] = np.where(sense[ft] > 0.0, runs.hi.take(ft), runs.lo.take(ft))
    runs.degenerate_run[ri[flip]] = 0

    pivot = ~flip
    r, ri, t, tf, theta = r[pivot], ri[pivot], t[pivot], tf[pivot], theta[pivot]
    block = first[r]
    lane = np.arange(r.size)
    leaving = fb[pivot][lane, block]
    to_upper = sw[pivot][lane, block] < -_PIVOT_FLOOR
    x[tf] += step_sign[r] * theta
    x[leaving] = np.where(to_upper, runs.hi.take(leaving), runs.lo.take(leaving))
    sense[leaving] = np.where(runs.fixed.take(leaving), 0.0, np.where(to_upper, 1.0, -1.0))
    sense[tf] = 0.0
    runs.basis[ri, block] = t
    run = np.where(theta <= TOLERANCE, runs.degenerate_run[ri] + 1, 0)
    runs.degenerate_run[ri] = run
    runs.use_bland[ri] |= run >= BLAND_TRIGGER
    return stepped


def _run_phase(runs: _Runs, pivoting: np.ndarray, max_iterations: int, free: bool) -> list[int]:
    """Pivot the runs flagged in ``pivoting`` to the end of one phase, all in
    lock-step and in place in ``runs``.  Returns the indices of the runs
    that found an unbounded ray.

    Each round prices every run of the stack in stacked calls: a stopped run
    keeps its basis, so pricing it again is finite and changes nothing.  A
    run stops when it is priced out (optimal) or finds an unbounded ray, and
    only once some run has stopped are the basis matrices and entering
    variables of the rest picked out of the round's arrays.  The runs still
    pivoting then solve for their pivot columns in one stacked call and take
    their steps one by one in a small batch, together in a large one
    (:func:`_pivot_stack`).  ``free`` says whether any run has a free
    variable, which prices and steps by the sign of its reduced cost.
    """
    k, N = runs.x.shape
    AT = runs.AaugT.reshape(k * N, -1)
    stack = np.arange(k)
    unbounded = []
    while True:
        fb = runs.flat_basis()
        BT = AT[fb]
        y = _lapack_solve(BT, runs.cost.take(fb)[..., None])
        d = runs.cost - (y.transpose(0, 2, 1) @ runs.Aaug)[:, 0]
        score = d * runs.sense
        if free:
            score = np.where(runs.free_var & (runs.sense != 0.0), np.abs(d), score)
        t = score.argmax(axis=1)
        if any(runs.use_bland.tolist()):
            t = np.where(runs.use_bland, (score > TOLERANCE).argmax(axis=1), t)
        tf = t + runs.offsets
        pivoting = pivoting & (score.take(tf) > TOLERANCE)
        rows = stack
        if not all(pivoting.tolist()):
            rows = np.flatnonzero(pivoting)
            if not rows.size:
                return unbounded
            fb, BT, t, tf = fb[rows], BT[rows], t[rows], tf[rows]

        step_sign = -runs.sense.take(tf)
        if free:
            step_sign = np.where(
                runs.free_var.take(tf), np.where(d.take(tf) < 0.0, 1.0, -1.0), step_sign
            )
        w = _lapack_solve(BT.transpose(0, 2, 1), AT[tf][..., None])
        sw = step_sign[:, None] * w[..., 0]
        if rows.size > _SCAN_BATCH:
            stepped = _pivot_stack(runs, rows, fb, t, sw, step_sign, max_iterations).tolist()
        else:
            stepped = [
                _pivot_run(runs, i, ti, swi, si, max_iterations)
                for i, ti, swi, si in zip(rows.tolist(), t.tolist(), sw, step_sign.tolist())
            ]
        if not all(stepped):
            ray = rows[~np.array(stepped)]
            unbounded += ray.tolist()
            pivoting[ray] = False


def _refresh_basics(runs: _Runs, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Re-solve for the basic values from the exactly-held nonbasic bounds,
    clearing the drift accumulated by incremental updates.  Returns the flat
    basic indices and the transposed basis matrices, for reuse."""
    k, N = runs.x.shape
    fb = runs.flat_basis()
    x_nonbasic = runs.x.copy()
    x_nonbasic.reshape(-1)[fb] = 0.0
    rhs = b - (runs.Aaug @ x_nonbasic[..., None])[..., 0]
    BT = runs.AaugT.reshape(k * N, -1)[fb]
    runs.x.reshape(-1)[fb] = _lapack_solve(BT.transpose(0, 2, 1), rhs[..., None])[..., 0]
    return fb, BT


def solve_rhs(lp: LinearProgram, rhs) -> LpSolutions:
    """Run the two-phase bounded-variable simplex method on ``lp`` at every
    row of ``rhs``, a ``(k, rows)`` stack of equality right-hand sides, in
    one lock-step batch with no LP object per row.

    Phase 1 minimizes the total artificial infeasibility from a
    deterministic start (every variable at its lower bound when finite,
    otherwise its upper bound, otherwise zero), and phase 2 reoptimizes the
    true objective with the artificials pinned to zero.  Each row has its
    own pricing, Bland switch and pivot count, and the rows share only the
    numpy calls, so row ``i`` is, to the bit, what the LP with right-hand
    side ``rhs[i]`` gets alone.

    Raises :class:`LpInputError` if ``rhs`` is not such a stack, with at
    least one row, of finite numbers, and :class:`SolverFailure`, naming the
    row, if one exhausts the iteration budget
    ``max(200, 10 * (variables + rows))`` or meets a singular basis.
    """
    b = np.array(rhs, dtype=float)
    m, n = lp.eq_matrix.shape
    if b.ndim != 2 or b.shape[1:] != (m,) or not b.shape[0]:
        raise LpInputError(f"rhs stack has shape {b.shape}, expected (k, {m}) with k >= 1")
    if not np.isfinite(b).all():
        raise LpInputError("objective, matrix, and rhs must be finite")
    k = b.shape[0]
    return _solve_arrays(
        lp.objective[None].repeat(k, axis=0),
        lp.eq_matrix[None].repeat(k, axis=0),
        b,
        lp.lower_bounds[None].repeat(k, axis=0),
        lp.upper_bounds[None].repeat(k, axis=0),
    )


def _solve_arrays(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> LpSolutions:
    """The lock-step simplex on stacked LP data: ``c``, ``lo`` and ``hi`` of
    shape ``(k, n)``, ``A`` of ``(k, m, n)`` and ``b`` of ``(k, m)``."""
    try:
        # A singular basis surfaces as an invalid-value signal from the
        # LAPACK gufunc, and as LinAlgError from np.linalg.solve.
        with np.errstate(invalid="raise"):
            return _solve_stack(c, A, b, lo, hi)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise SolverFailure("singular basis; numerical breakdown") from exc


def _solve_stack(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, lo_n: np.ndarray, hi_n: np.ndarray
) -> LpSolutions:
    k, m, n = A.shape
    N = n + m
    lo = np.zeros((k, N))
    hi = np.full((k, N), np.inf)
    lo[:, :n] = lo_n
    hi[:, :n] = hi_n

    # Every variable starts at its lower bound when finite, otherwise at its
    # upper bound, otherwise at zero; one artificial per row, signed to take
    # up the residual, starts basic.
    lo_finite = np.isfinite(lo)
    hi_finite = np.isfinite(hi)
    x = np.where(lo_finite, lo, np.where(hi_finite, hi, 0.0))
    residual = b - (A @ x[:, :n, None])[..., 0]
    Aaug = np.zeros((k, m, N))
    Aaug[:, :, :n] = A
    Aaug.reshape(k, m * N)[:, n :: N + 1] = np.where(residual >= 0.0, 1.0, -1.0)
    x[:, n:] = np.abs(residual)
    span = hi - lo
    fixed = span <= TOLERANCE
    free_var = ~(lo_finite | hi_finite)
    sense = np.where(~lo_finite & hi_finite, 1.0, -1.0)
    sense[:, n:] = 0.0
    sense[fixed] = 0.0
    phase1_cost = np.zeros((k, N))
    phase1_cost[:, n:] = 1.0
    runs = _Runs(
        offsets=np.arange(0, k * N, N),
        Aaug=Aaug,
        AaugT=Aaug.transpose(0, 2, 1).copy(),
        lo=lo,
        hi=hi,
        span=span,
        free_var=free_var,
        fixed=fixed,
        cost=phase1_cost,
        x=x,
        sense=sense,
        basis=np.arange(n, N) + np.zeros((k, 1), dtype=np.intp),
        iterations=np.zeros(k, dtype=int),
        use_bland=np.zeros(k, dtype=bool),
        degenerate_run=np.zeros(k, dtype=int),
    )
    max_iterations = max(200, 10 * (n + m))
    free = bool(np.count_nonzero(free_var))

    diverged = _run_phase(runs, np.ones(k, dtype=bool), max_iterations, free)
    if diverged:
        raise SolverFailure(f"LP {diverged[0]}: phase-1 objective diverged; numerical breakdown")
    _refresh_basics(runs, b)
    infeasibility = np.abs(x[:, n:]).sum(axis=1)
    feasible = ~(infeasibility > _INFEASIBILITY_CUTOFF * (1.0 + np.abs(b).max(axis=1)))
    status = [OPTIMAL if f else INFEASIBLE for f in feasible.tolist()]
    if OPTIMAL not in status:
        # One NaN block, cut into the numeric columns.
        nan = np.full((k, 2 * n + m + 1), np.nan)
        return LpSolutions(
            status=tuple(status),
            primal=nan[:, :n],
            duals=nan[:, n : n + m],
            reduced_costs=nan[:, n + m : -1],
            basis=runs.basis,
            objective_value=nan[:, -1],
            iterations=runs.iterations,
        )
    # Drive leftover artificials out of the basis; a row whose artificial
    # cannot be exchanged for any structural column is linearly dependent
    # and keeps its (zero-valued, now fixed) artificial as a placeholder.
    for i in np.flatnonzero(feasible & (runs.basis.max(axis=1) >= n)).tolist():
        basis, sense_i = runs.basis[i], sense[i]
        for p in range(m):
            if basis[p] < n:
                continue
            unit = np.zeros(m)
            unit[p] = 1.0
            multipliers = np.linalg.solve(runs.AaugT[i][basis], unit)
            row = multipliers @ A[i]
            row[basis[basis < n]] = 0.0
            entering = int(np.argmax(np.abs(row)))
            if abs(row[entering]) > TOLERANCE:
                basis[p] = entering
                sense_i[entering] = 0.0

    # Phase 2 pins the artificials to zero: none may enter again.
    hi[:, n:] = 0.0
    runs.span = hi - lo
    runs.fixed = runs.span <= TOLERANCE
    sense[:, n:] = 0.0
    runs.use_bland[:] = False
    runs.degenerate_run[:] = 0
    runs.cost = np.zeros((k, N))
    runs.cost[:, :n] = c
    for i in _run_phase(runs, feasible, max_iterations, free):
        status[i] = UNBOUNDED
    fb, BT = _refresh_basics(runs, b)
    y = _lapack_solve(BT, runs.cost.take(fb)[..., None])
    duals = y[..., 0]
    reduced = c - (y.transpose(0, 2, 1) @ A)[:, 0]
    basic = np.zeros((k, N), dtype=bool)
    basic.reshape(-1)[fb] = True
    reduced[basic[:, :n]] = 0.0
    primal = x[:, :n].copy()
    objective = (c[:, None, :] @ primal[..., None])[:, 0, 0]
    failed = [s != OPTIMAL for s in status]
    if any(failed):
        for values in (primal, duals, reduced, objective):
            values[failed] = np.nan
    return LpSolutions(
        status=tuple(status),
        primal=primal,
        duals=duals,
        reduced_costs=reduced,
        basis=np.sort(runs.basis, axis=1),
        objective_value=objective,
        iterations=runs.iterations,
    )


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
