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

:func:`solve_rhs` solves one LP at a stack of right-hand sides, each
right-hand side running its own simplex, and returns the solutions as
columns (:class:`LpSolutions`); :func:`solve` is row 0 of a one-row stack.
The stack's height alone picks the route.  One row runs alone
(:class:`_Run`), its control state in Python scalars.  Two or more run in
lock-step (:class:`_Groups`), with the LP data held once and the state kept
once per group of rows whose pivots so far are the same, starting with one
group per sign pattern of the artificial columns: a group prices and solves
for its pivot column once per round, while each row keeps its own basic
values and takes its own ratio test, and a group whose rows step
differently splits.  Both routes share the start, the ratio test, the step
rule and the wrap-up, and make the same products and solves on arrays of
the same shapes, so a stack changes no bit of any solution.
:func:`kkt_residuals` certifies a stack the same way, and :func:`verify_kkt`
is its one-LP face.
"""

from __future__ import annotations

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
    artificial per row), ``span = hi - lo``, the flags ``fixed`` and
    ``free_var`` of variables with no range and with no bound, each
    variable's value ``x`` and ``sense`` (as in :class:`_Groups`), and each
    right-hand side's ``residual`` at ``x``, in that order.

    Every variable starts at its lower bound when finite, otherwise at its
    upper bound, otherwise at zero; one artificial per row, signed to take
    up the residual, starts basic."""
    m, n = A.shape
    N = n + m
    lo = np.zeros(N)
    hi = np.full(N, np.inf)
    lo[:n] = lo_n
    hi[:n] = hi_n
    lo_finite = np.isfinite(lo)
    hi_finite = np.isfinite(hi)
    free_var = ~(lo_finite | hi_finite)
    x = np.where(lo_finite, lo, hi)
    x[free_var] = 0.0
    span = hi - lo
    fixed = span <= TOLERANCE
    sense = (~lo_finite & hi_finite) * 2.0 - 1.0
    sense[n:] = 0.0
    sense[fixed] = 0.0
    residual = b - (A @ x[:n, None])[:, 0]
    return lo, hi, span, fixed, free_var, x, sense, residual


def _augmented(A: np.ndarray, residual: np.ndarray) -> np.ndarray:
    """The constraint matrix with the phase-1 artificial columns, one copy
    per row of ``residual``, each signed to take up that row."""
    G, m = residual.shape
    n = A.shape[1]
    N = n + m
    Aaug = np.zeros((G, m, N))
    Aaug[:, :, :n] = A
    Aaug.reshape(G, m * N)[:, n :: N + 1] = np.where(residual >= 0.0, 1.0, -1.0)
    return Aaug


def _feasible(x: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Whether each row of ``x``, a phase-1 point, leaves its artificials
    within the infeasibility cutoff of the matching row of ``b``."""
    infeasibility = np.abs(x[:, n:]).sum(axis=1)
    return ~(infeasibility > _INFEASIBILITY_CUTOFF * (1.0 + np.abs(b).max(axis=1)))


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


def _phase_two(
    c: np.ndarray, lo: np.ndarray, hi: np.ndarray, sense: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phase 2 pins the artificials to zero, in place in ``hi`` and in
    ``sense`` (one row per basis, or one basis's): none may enter again.
    Returns the new ``span`` and ``fixed``, and the cost, ``c`` padded with
    zeros."""
    n = c.size
    hi[n:] = 0.0
    sense[..., n:] = 0.0
    span = hi - lo
    cost = np.zeros(hi.size)
    cost[:n] = c
    return span, span <= TOLERANCE, cost


def _priced(
    c: np.ndarray, A: np.ndarray, cost: np.ndarray, BT: np.ndarray, basis: np.ndarray,
    flat: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The duals and reduced costs of each basis of ``basis`` (one row
    each) under ``cost``, the objective ``c`` padded with zeros: ``BT``
    holds the bases' transposed matrices, and ``flat`` their flat indices
    in an array of one row of all variables per basis.  Basic variables
    have a reduced cost of zero."""
    G, N = len(basis), cost.size
    y = _lapack_solve(BT, cost.take(basis)[..., None])
    reduced = c - (y.transpose(0, 2, 1) @ A)[:, 0]
    basic = np.zeros((G, N), dtype=bool)
    basic.reshape(-1)[flat] = True
    reduced[basic[:, : c.size]] = 0.0
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
    failed = [s != OPTIMAL for s in status]
    if any(failed):
        for values in (primal, duals, reduced, objective):
            values[failed] = np.nan
    return LpSolutions(
        status=tuple(status),
        primal=primal,
        duals=duals,
        reduced_costs=reduced,
        basis=np.sort(basis, axis=1),
        objective_value=objective,
        iterations=iterations,
    )


def _none_optimal(
    status: list[str], basis: np.ndarray, iterations: np.ndarray, n: int
) -> LpSolutions:
    """The solutions of a stack in which no row is optimal: one NaN block,
    cut into the numeric columns, and each row's phase-1 basis."""
    m = basis.shape[1]
    nan = np.full((len(status), 2 * n + m + 1), np.nan)
    return LpSolutions(
        status=tuple(status),
        primal=nan[:, :n],
        duals=nan[:, n : n + m],
        reduced_costs=nan[:, n + m : -1],
        basis=basis,
        objective_value=nan[:, -1],
        iterations=iterations,
    )


def _exhausted(i: int, m: int, n: int, max_iterations: int) -> SolverFailure:
    return SolverFailure(
        f"LP {i}: iteration budget {max_iterations} exhausted ({n} variables, {m} rows)"
    )


def _ratio_test(
    xb: list, lo: list, hi: list, sw: list, basis, theta: float, bland: bool
) -> tuple[int, bool, float]:
    """Ratio test of one run, in Python scalars: the basic variables
    ``basis``, at ``xb`` within ``[lo, hi]``, move by ``-sw`` per unit of
    step, and the entering variable has the range ``theta``.  Returns the
    blocking row (-1 if the entering variable reaches its other bound first,
    -2 on an unbounded ray), whether the blocking variable leaves at its
    upper bound, and the step.

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


def _step(
    st, sense: np.ndarray, xn: np.ndarray, basis, t: int, block: int, up: bool,
    degenerate: bool, run: int, bland: bool,
) -> tuple[int, bool]:
    """One basis's side of a step in which ``t`` entered, in place in its
    ``sense``, nonbasic values ``xn`` and ``basis``: the bound flip
    (``block`` -1) or the pivot on row ``block``, whose variable leaves at
    its upper bound if ``up``; ``st`` holds the bounds.  Returns the run of
    degenerate steps and Bland's switch after the step, from those before
    it."""
    if block < 0:
        sense[t] = -sense[t]
        xn[t] = st.hi[t] if sense[t] > 0.0 else st.lo[t]
        return 0, bland
    leaving = basis[block]
    xn[leaving] = st.hi[leaving] if up else st.lo[leaving]
    sense[leaving] = 0.0 if st.fixed[leaving] else (1.0 if up else -1.0)
    xn[t] = 0.0
    sense[t] = 0.0
    basis[block] = t
    if not degenerate:
        return 0, bland
    return run + 1, bland or run + 1 >= BLAND_TRIGGER


class _Run:
    """Simplex state of one LP at one right-hand side ``b`` (a one-row
    stack), with its control state in Python scalars: the ``basis`` as a
    list, the values ``xb`` of the basic variables as a list in basis
    order, and the pivot count.  The rest are the arrays of
    :class:`_Groups` for one group, of the shapes the lock-step core gives
    them, so that every product and solve is the core's, to the bit."""

    def __init__(
        self, A: np.ndarray, b: np.ndarray, lo_n: np.ndarray, hi_n: np.ndarray, max_iterations: int
    ) -> None:
        m, n = A.shape
        self.lo, self.hi, self.span, self.fixed, free_var, self.xn, self.sense, residual = (
            _start(A, b, lo_n, hi_n)
        )
        self.free_var = free_var if free_var.any() else None
        self.Aaug = _augmented(A, residual)
        self.AT = self.Aaug[0].T.copy()
        self.basis = list(range(n, n + m))
        self.xb = np.abs(residual[0]).tolist()
        self.iterations = 0
        self.max_iterations = max_iterations

    def pivot(self, cost: np.ndarray) -> bool:
        """Pivot to the end of the phase that prices by ``cost``; False on
        an unbounded ray.  Each round is the lock-step core's for one run,
        with the bounds of the basic variables as lists in basis order."""
        Aaug, AT, sense, xn, basis, xb = self.Aaug, self.AT, self.sense, self.xn, self.basis, self.xb
        lo, hi, span, free_var = self.lo.tolist(), self.hi.tolist(), self.span.tolist(), self.free_var
        lo_b, hi_b = [lo[j] for j in basis], [hi[j] for j in basis]
        run, bland = 0, False
        while True:
            BT = AT.take(basis, axis=0)[None]
            y = _lapack_solve(BT, cost.take([basis])[..., None])
            d = cost - (y.transpose(0, 2, 1) @ Aaug)[0, 0]
            score = d * sense
            if free_var is not None:
                score = np.where(free_var & (sense != 0.0), np.abs(d), score)
            t = int((score > TOLERANCE).argmax() if bland else score.argmax())
            if not score[t] > TOLERANCE:
                return True
            step_sign = -float(sense[t])
            if free_var is not None and free_var[t]:
                step_sign = 1.0 if d[t] < 0.0 else -1.0
            w = _lapack_solve(BT.transpose(0, 2, 1), AT[None, t, :, None])
            sw = (step_sign * w[0, :, 0]).tolist()
            block, up, theta = _ratio_test(xb, lo_b, hi_b, sw, basis, span[t], bland)
            if block == -2:
                return False
            xb[:] = [x - theta * s for x, s in zip(xb, sw)]
            if block >= 0:
                xb[block] = float(xn[t]) + step_sign * theta
                lo_b[block], hi_b[block] = lo[t], hi[t]
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise _exhausted(0, len(basis), len(lo) - len(basis), self.max_iterations)
            run, bland = _step(self, sense, xn, basis, t, block, up, theta <= TOLERANCE, run, bland)

    def refresh(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_refresh_basics` for the one run: re-solve for the basic
        values; returns the transposed basis matrix and the whole point."""
        BT = self.AT.take(self.basis, axis=0)[None]
        rhs = b - (self.Aaug @ self.xn[None, :, None])[..., 0]
        xb = _lapack_solve(BT.transpose(0, 2, 1), rhs[..., None])[0, :, 0]
        self.xb = xb.tolist()
        x = self.xn[None].copy()
        x[0].put(self.basis, xb)
        return BT, x


def _solve_alone(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, lo_n: np.ndarray, hi_n: np.ndarray,
    max_iterations: int,
) -> LpSolutions:
    """:func:`solve_rhs` at a one-row stack ``b``: one run of the two-phase
    simplex (:class:`_Run`)."""
    m, n = A.shape
    st = _Run(A, b, lo_n, hi_n, max_iterations)
    cost = np.zeros(n + m)
    cost[n:] = 1.0
    if not st.pivot(cost):
        raise SolverFailure("LP 0: phase-1 objective diverged; numerical breakdown")
    x = st.refresh(b)[1]
    if not _feasible(x, b, n)[0]:
        return _none_optimal([INFEASIBLE], np.array([st.basis]), np.array([st.iterations]), n)
    if max(st.basis) >= n and _drive_out(st.AT, A, st.basis, st.sense):
        # Every variable keeps its value.
        st.xb = x[0, st.basis].tolist()
        x[0, st.basis] = 0.0
        st.xn = x[0]

    st.span, st.fixed, cost = _phase_two(c, st.lo, st.hi, st.sense)
    status = [OPTIMAL if st.pivot(cost) else UNBOUNDED]
    BT, x = st.refresh(b)
    basis = np.array([st.basis])
    duals, reduced = _priced(c, A, cost, BT, basis, basis)
    return _solutions(c, status, x, duals, reduced, basis, np.array([st.iterations]))


#: The fields of :class:`_Groups` held once per group.
_GROUP_FIELDS = (
    "Aaug", "AaugT", "xn", "sense", "basis", "iterations", "use_bland", "degenerate_run",
)


class _Groups:
    """Simplex state of one LP at a stack of two or more right-hand sides,
    held once per *group*: the runs (rows of the stack) whose pivots so far
    are the same.  A group prices and solves for its pivot column once;
    each of its runs takes its own ratio test on its own basic values.

    Shared by every group, one entry per variable: the bounds ``lo``, ``hi``
    and ``span = hi - lo``; ``free_var`` and ``fixed``, which flag variables
    with no bound and with no range; and the ``cost`` of the phase being run.

    Per group: ``Aaug``, the constraint matrix with the phase-1 artificial
    columns (signed by the group's residuals), and its transpose ``AaugT``;
    ``xn``, the values of the nonbasic variables (zero for the basic ones);
    the ``basis`` (one column per row of the constraint matrix), the pivot
    count, Bland's switch and the run of degenerate pivots.  ``sense`` is
    +1 for a nonbasic variable at its upper bound, -1 at its lower bound,
    and 0 for a variable that may not enter the basis (basic, or fixed), so
    that ``d * sense`` prices every variable.  ``offsets`` holds the flat
    index of each group's first variable in the ``(groups, variables)``
    arrays, where ``AT`` reads the rows of ``AaugT``; flat indices read
    faster than pairs of indices.

    Per run: ``xb``, the values of its basic variables in basis order, and
    its group, ``member``.
    """

    def __init__(self, **arrays) -> None:
        self.__dict__.update(arrays)
        self._index()

    def _index(self) -> None:
        G, N = self.sense.shape
        self.offsets = np.arange(0, G * N, N)
        self.AT = self.AaugT.reshape(G * N, -1)

    def flat_basis(self) -> np.ndarray:
        return self.basis + self.offsets[:, None]

    def split(self, key: np.ndarray) -> np.ndarray:
        """Split every group whose runs differ in ``key``, one nonnegative
        integer per run; returns each new group's old index."""
        self.member, parent = _renumber(self.member, key)
        for name in _GROUP_FIELDS:
            setattr(self, name, getattr(self, name)[parent])
        self._index()
        return parent

    def one_run_each(self) -> np.ndarray:
        """A run of each group (any one: they share the group's state)."""
        runs = np.empty(len(self.basis), dtype=np.intp)
        runs[self.member] = np.arange(self.member.size)
        return runs

    def run_basis(self) -> np.ndarray:
        """The flat indices of each run's basic variables in an array of one
        row per run."""
        k, N = self.member.size, self.sense.shape[1]
        return self.basis[self.member] + np.arange(0, k * N, N)[:, None]


def _renumber(member: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct pairs ``(member, key)`` of the runs in order;
    returns each run's new number and each new number's ``member``."""
    width = int(key.max()) + 1
    pair = member * width + key
    present = np.bincount(pair) > 0
    return (np.cumsum(present) - 1)[pair], np.flatnonzero(present) // width


def _pivot_many(
    st: _Groups, pivoting: np.ndarray, live: np.ndarray, rows: np.ndarray, gi: np.ndarray,
    tf: np.ndarray, t: np.ndarray, sw: np.ndarray, step_sign: np.ndarray, max_iterations: int,
) -> tuple[np.ndarray, list[int]]:
    """One step of the runs ``rows``, in array operations.  Run ``rows[j]``
    belongs to the live group ``live[gi[j]]``, which enters ``t[gi[j]]``
    (flat index ``tf[gi[j]]``) in the direction ``step_sign[gi[j]]``, and
    whose basic variables move by ``-sw[gi[j]]`` per unit of step.  Returns
    the groups still pivoting and the runs that found an unbounded ray.

    The step limits of all runs come from one set of array operations.  A
    run whose smallest limit is clear, by more than the tie window, of the
    others and of the entering variable's own range has only one possible
    outcome of the scan, the plain minimum; every other run is scanned on
    its own (:func:`_ratio_test`).  Every run moves its own basic values;
    then each group, split first by its runs' outcomes, updates its basis
    once (:func:`_step`).
    """
    lane = np.arange(rows.size)
    own, enter, step_sign = (a.take(gi) for a in (st.span.take(t), st.xn.take(tf), step_sign))
    basis = st.basis.take(live.take(gi), axis=0)
    lo, hi, sw = st.lo.take(basis), st.hi.take(basis), sw.take(gi, axis=0)
    xb = st.xb.take(rows, axis=0)
    rises = sw > _PIVOT_FLOOR
    size = np.abs(sw)
    # A variable with no bound in the direction it moves has an infinite
    # limit; |sw| is sw where it rises and -sw where it falls, to the bit.
    limit = np.divide(
        np.where(rises, xb - lo, hi - xb),
        size,
        out=np.full(sw.shape, np.inf),
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
    up = sw[lane, first] < -_PIVOT_FLOOR
    theta = np.where(flip, own, low)
    rays = []
    for j in [] if clear.all() else np.flatnonzero(~clear).tolist():
        block[j], up[j], theta[j] = _ratio_test(
            xb[j].tolist(), lo[j].tolist(), hi[j].tolist(), sw[j].tolist(),
            basis[j].tolist(), float(own[j]), st.use_bland[live[gi[j]]],
        )
        if block[j] == -2:
            theta[j] = 0.0  # on a ray, the run stays put
            rays.append(int(rows[j]))

    # Every run moves its own basic values.
    xb -= theta[:, None] * sw
    p = np.flatnonzero(block >= 0)
    xb[p, block[p]] = enter[p] + step_sign[p] * theta[p]
    st.xb[rows] = xb

    # Each group, split first by its runs' outcomes, updates its basis once.
    key = 2 * block + 4 + (theta <= TOLERANCE)
    one = np.empty(live.size, dtype=np.intp)
    one[gi] = lane  # a run of each live group
    groups = live
    if (key.take(one).take(gi) != key).any():
        full = np.zeros(st.member.size, dtype=np.intp)
        full[rows] = key
        pivoting = pivoting[st.split(full)]
        groups = np.flatnonzero(pivoting)
        one = np.empty(len(st.basis), dtype=np.intp)
        one[st.member.take(rows)] = lane  # now its runs share their outcome
        one = one.take(groups)
    for g, j in zip(groups.tolist(), one.tolist()):
        if block[j] == -2:
            pivoting[g] = False
            continue
        st.iterations[g] += 1
        if st.iterations[g] > max_iterations:
            m, N = st.Aaug.shape[1:]
            raise _exhausted(int(np.flatnonzero(st.member == g)[0]), m, N - m, max_iterations)
        st.degenerate_run[g], st.use_bland[g] = _step(
            st, st.sense[g], st.xn[g], st.basis[g], int(t[gi[j]]), int(block[j]), bool(up[j]),
            key[j] % 2 == 1, st.degenerate_run[g], st.use_bland[g],
        )
    return pivoting, rays


def _run_phase(st: _Groups, pivoting: np.ndarray, max_iterations: int, free: bool) -> list[int]:
    """Pivot the groups flagged in ``pivoting`` to the end of one phase, all
    in lock-step and in place in ``st``.  Returns the runs that found an
    unbounded ray.

    Each round prices every group in stacked calls: a stopped group keeps
    its basis, so pricing it again is finite and changes nothing.  A group
    stops when it is priced out (optimal) or finds an unbounded ray, and
    only once some group has stopped are the basis matrices and entering
    variables of the rest picked out of the round's arrays.  The groups
    still pivoting then solve for their pivot columns in one stacked call,
    and their runs take their steps together (:func:`_pivot_many`).
    ``free`` says whether any group has a free variable, which prices and
    steps by the sign of its reduced cost.
    """
    unbounded = []
    every_run = np.arange(st.member.size)
    while True:
        fb = st.flat_basis()
        BT = st.AT[fb]
        y = _lapack_solve(BT, st.cost.take(st.basis)[..., None])
        d = st.cost - (y.transpose(0, 2, 1) @ st.Aaug)[:, 0]
        score = d * st.sense
        if free:
            score = np.where(st.free_var & (st.sense != 0.0), np.abs(d), score)
        t = score.argmax(axis=1)
        if any(st.use_bland.tolist()):
            t = np.where(st.use_bland, (score > TOLERANCE).argmax(axis=1), t)
        tf = t + st.offsets
        pivoting = pivoting & (score.take(tf) > TOLERANCE)
        live = np.arange(len(st.basis))
        if not all(pivoting.tolist()):
            live = np.flatnonzero(pivoting)
            if not live.size:
                return unbounded
            BT, t, tf = BT[live], t[live], tf[live]

        step_sign = -st.sense.take(tf)
        if free:
            step_sign = np.where(
                st.free_var.take(t), np.where(d.take(tf) < 0.0, 1.0, -1.0), step_sign
            )
        w = _lapack_solve(BT.transpose(0, 2, 1), st.AT[tf][..., None])
        sw = step_sign[:, None] * w[..., 0]
        if live.size == len(st.basis):
            rows, gi = every_run, st.member
        else:
            rows = np.flatnonzero(pivoting[st.member])
            gi = (np.cumsum(pivoting) - 1)[st.member[rows]]
        pivoting, rays = _pivot_many(
            st, pivoting, live, rows, gi, tf, t, sw, step_sign, max_iterations
        )
        unbounded += rays


def _refresh_basics(st: _Groups, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re-solve for each run's basic values from the exactly-held nonbasic
    values, clearing the drift accumulated by incremental updates.  Returns
    the groups' flat basic indices and transposed basis matrices, for
    reuse, and each run's whole point, one row per run."""
    fb = st.flat_basis()
    BT = st.AT[fb]
    rhs = b - (st.Aaug @ st.xn[..., None])[..., 0][st.member]
    st.xb = _lapack_solve(BT[st.member].transpose(0, 2, 1), rhs[..., None])[..., 0]
    x = st.xn[st.member]
    x.reshape(-1)[st.run_basis()] = st.xb
    return fb, BT, x


def solve_rhs(lp: LinearProgram, rhs) -> LpSolutions:
    """Run the two-phase bounded-variable simplex method on ``lp`` at every
    row of ``rhs``, a ``(k, rows)`` stack of equality right-hand sides.

    Phase 1 minimizes the total artificial infeasibility from a
    deterministic start (every variable at its lower bound when finite,
    otherwise its upper bound, otherwise zero), and phase 2 reoptimizes the
    true objective with the artificials pinned to zero.  One row runs alone,
    with its control state in Python scalars (:class:`_Run`); two or more
    run in one lock-step batch that holds the LP's data once
    (:class:`_Groups`), each with its own pricing, Bland switch and pivot
    count, where rows whose pivots have been the same so far share one
    pricing and one pivot column per round.  Both do the same arithmetic on
    arrays of the same shapes, so row ``i`` is, to the bit, what the LP
    with right-hand side ``rhs[i]`` gets alone.

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
    route = _solve_alone if len(b) == 1 else _solve_stack
    max_iterations = max(200, 10 * (n + m))
    try:
        # A singular basis surfaces as an invalid-value signal from the
        # LAPACK gufunc, and as LinAlgError from np.linalg.solve.
        with np.errstate(invalid="raise"):
            return route(
                lp.objective, lp.eq_matrix, b, lp.lower_bounds, lp.upper_bounds, max_iterations
            )
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise SolverFailure("singular basis; numerical breakdown") from exc


def _solve_stack(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, lo_n: np.ndarray, hi_n: np.ndarray,
    max_iterations: int,
) -> LpSolutions:
    """:func:`solve_rhs` at a stack ``b`` of two or more rows, in lock-step
    (:class:`_Groups`)."""
    k, m = b.shape
    n = c.size
    N = n + m
    lo, hi, span, fixed, free_var, x, sense, residual = _start(A, b, lo_n, hi_n)
    # The runs start in one group per pattern of artificial signs.
    member = np.zeros(k, dtype=np.intp)
    for signs in np.packbits(residual < 0.0, axis=1).T:
        member = _renumber(member, signs)[0]
    runs = np.empty(member.max() + 1, dtype=np.intp)
    runs[member] = np.arange(k)
    Aaug = _augmented(A, residual[runs])
    G = len(Aaug)
    phase1_cost = np.zeros(N)
    phase1_cost[n:] = 1.0
    st = _Groups(
        Aaug=Aaug,
        AaugT=Aaug.transpose(0, 2, 1).copy(),
        lo=lo,
        hi=hi,
        span=span,
        free_var=free_var,
        fixed=fixed,
        cost=phase1_cost,
        xn=np.tile(x, (G, 1)),
        sense=np.tile(sense, (G, 1)),
        basis=np.arange(n, N) + np.zeros((G, 1), dtype=np.intp),
        iterations=np.zeros(G, dtype=int),
        use_bland=np.zeros(G, dtype=bool),
        degenerate_run=np.zeros(G, dtype=int),
        xb=np.abs(residual),
        member=member,
    )
    free = bool(np.count_nonzero(free_var))

    diverged = _run_phase(st, np.ones(G, dtype=bool), max_iterations, free)
    if diverged:
        raise SolverFailure(f"LP {min(diverged)}: phase-1 objective diverged; numerical breakdown")
    x = _refresh_basics(st, b)[2]
    feasible = _feasible(x, b, n)
    status = [OPTIMAL if f else INFEASIBLE for f in feasible.tolist()]
    if OPTIMAL not in status:
        return _none_optimal(status, st.basis[st.member], st.iterations[st.member], n)
    if not feasible.all():
        st.split(feasible)
    pivoting = feasible[st.one_run_each()]
    swapped = False
    for g in np.flatnonzero(pivoting & (st.basis.max(axis=1) >= n)).tolist():
        swapped |= _drive_out(st.AaugT[g], A, st.basis[g], st.sense[g])
    if swapped:
        # Every variable keeps its value, so an artificial that left keeps
        # each run's own: the runs of a group whose values differ there go
        # on in groups of their own.
        fx = st.run_basis()
        st.xb = x.take(fx)
        x.reshape(-1)[fx] = 0.0
        ref = x[st.one_run_each()[st.member]]
        differs = (x.view(np.uint64) != ref.view(np.uint64)).any(axis=1)
        if differs.any():
            mixed = np.zeros(len(st.basis), dtype=bool)
            mixed[st.member[differs]] = True
            pivoting = pivoting[st.split(np.where(mixed[st.member], np.arange(k), 0))]
        st.xn = x[st.one_run_each()]

    st.span, st.fixed, st.cost = _phase_two(c, st.lo, st.hi, st.sense)
    st.use_bland[:] = False
    st.degenerate_run[:] = 0
    for i in _run_phase(st, pivoting, max_iterations, free):
        status[i] = UNBOUNDED
    fb, BT, x = _refresh_basics(st, b)
    duals, reduced = _priced(c, A, st.cost, BT, st.basis, fb)
    member = st.member
    return _solutions(
        c, status, x, duals[member], reduced[member], st.basis[member], st.iterations[member]
    )


def solve(lp: LinearProgram) -> LpSolution:
    """Run the two-phase bounded-variable simplex method on ``lp``: row 0 of
    :func:`solve_rhs` at the one right-hand side of ``lp``, which runs alone
    (:class:`_Run`)."""
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
