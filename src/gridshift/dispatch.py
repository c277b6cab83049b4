"""Economic dispatch of the three-bus system and its marginal signals.

Builds the dispatch LP for a given shift ``delta`` of the flexible block from
bus 2 to bus 1 and reads the bus prices (equality duals) and marginal
emission rates (the same duals with emission rates in place of offers) off
an optimal basis.  :func:`pieces` walks the block with one cold solve at
shift 0 and one dual-simplex pivot per change of basis, and
:func:`solve_ed_columns` reads every shift of a grid off its pieces.  The
cold route (the verification gate, and :func:`solve_ed_detailed`) solves
each shift's own LP from scratch: one dispatch LP at a stack of balance
right-hand sides, in one :func:`~gridshift.lp_core.solve_rhs` call, as the
check from outside.
Also provides the data-center bill and the system-wide cost, which
cross-check the closed-form objectives numerically.

Both routes carry a grid of shifts as columns (:class:`DispatchColumns`)
from the solve to the settlement costs, which work elementwise on them; no
per-shift object is built.  :func:`solve_ed` and :func:`solve_ed_detailed`
are one-shift faces: row 0 of :func:`solve_ed_columns` and of the cold
route, as one :class:`DispatchOutcome`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence
from typing import NamedTuple

import numpy as np

from . import lp_core
from .grid_model import ThreeBusScenario

#: Variable order of the dispatch LP.
VARIABLE_NAMES = ("y0", "y1", "y2", "f01", "f02", "f12")

# Nodal balance rows (generation plus net inflow equals load).  y0 enters
# negatively: it is renewable *curtailment*, absorbing whatever part of the
# bus-0 supply the lines do not carry away.
_BALANCE = np.array(
    [
        [-1.0, 0.0, 0.0, -1.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0, 1.0, 1.0],
    ]
)
_BALANCE.setflags(write=False)

# Change of the balance right-hand side per unit of shift.
_SHIFT_DIRECTION = np.array([0.0, 1.0, -1.0])
_SHIFT_DIRECTION.setflags(write=False)

# A basic variable this close to one of its bounds marks the vertex (and
# possibly the duals) as degenerate.
_DEGENERACY_TOL = 1e-7


class DeltaRangeError(ValueError):
    """Requested shift lies outside the block [0, L]."""


class DispatchInfeasibleError(RuntimeError):
    """No dispatch satisfies the balances; names the limits that cut it off."""

    def __init__(self, message: str, binding: tuple[str, ...]):
        super().__init__(message)
        self.binding = binding


@dataclasses.dataclass(frozen=True)
class DispatchOutcome:
    """Optimal dispatch at one shift value.

    ``lmp`` holds the bus prices ($/MWh, duals of the nodal balances) and
    ``lme`` the marginal emission rates of the same basis (tCO2/MWh), both
    indexed by bus 0..2.  ``degenerate`` records that a basic variable of
    the basis that priced the shift lies within the degeneracy tolerance of
    a bound.  Read off :func:`pieces`, that marks a shift at or next to a
    break (which takes the left piece's prices); from the cold route, a
    vertex priced by whichever optimal basis the simplex stopped in."""

    delta: float
    y0: float
    y1: float
    y2: float
    f01: float
    f02: float
    f12: float
    lmp: tuple[float, float, float]
    lme: tuple[float, float, float]
    total_cost: float
    degenerate: bool = False


class DispatchColumns(NamedTuple):
    """Optimal dispatch at ``k`` shifts, as columns: the shifts ``delta``
    (``k``), the ``flows`` (``k`` rows in :data:`VARIABLE_NAMES` order), the
    bus prices ``lmp`` and emission rates ``lme`` bus-major (``3`` rows of
    ``k``, so that ``lmp[1]`` is the bus-1 column), the ``total_cost`` and
    the ``degenerate`` flags, each as on :class:`DispatchOutcome`.
    :func:`dc_cost_numeric` and :func:`sw_cost_numeric` take these columns
    as they take one outcome."""

    delta: np.ndarray
    flows: np.ndarray
    lmp: np.ndarray
    lme: np.ndarray
    total_cost: np.ndarray
    degenerate: np.ndarray


def _columns(
    lp: lp_core.LinearProgram,
    deltas: np.ndarray,
    flows: np.ndarray,
    lmp: np.ndarray,
    lme: np.ndarray,
    degenerate: np.ndarray,
) -> DispatchColumns:
    """:class:`DispatchColumns` from shift-major ``lmp`` and ``lme``; every
    cost is the row's own dot product with the objective (a 2-D product
    would sum in another order)."""
    with np.errstate(over="ignore"):  # a cost past the float range is inf
        costs = (flows[:, None, :] @ lp.objective)[:, 0]
    return DispatchColumns(deltas, flows, lmp.T, lme.T, costs, degenerate)


def _balance_rhs(s: ThreeBusScenario, delta: float) -> list[float]:
    """Right-hand side of the nodal balances at shift ``delta``."""
    if not 0.0 <= delta <= s.L:
        raise DeltaRangeError(f"delta={delta!r} outside the shiftable block [0, {s.L}]")
    return [s.l0, s.l1 + delta, s.l2 - delta]


def build_ed(s: ThreeBusScenario, delta: float) -> lp_core.LinearProgram:
    """Dispatch LP at shift ``delta``: cost-minimal generation subject to the
    three nodal balances, nonnegative generation, and line limits."""
    rhs = _balance_rhs(s, delta)
    lower = np.array([0.0, 0.0, 0.0, -s.F01, -s.F02, -s.F12])
    upper = np.array([np.inf, np.inf, np.inf, s.F01, s.F02, s.F12])
    objective = np.array([0.0, s.c1, s.c2, 0.0, 0.0, 0.0])
    return lp_core.LinearProgram(
        objective=objective,
        eq_matrix=_BALANCE,
        eq_rhs=rhs,
        lower_bounds=lower,
        upper_bounds=upper,
    )


def _clear_of_bounds(
    lp: lp_core.LinearProgram, bases: np.ndarray, x: np.ndarray, margin: float
) -> np.ndarray:
    """Whether every basic entry of each row of ``x`` (a stack of points)
    lies more than ``margin`` inside its bounds; ``bases`` holds the basic
    columns of each row."""
    xb = np.take_along_axis(x, bases, axis=-1)
    inside = (xb - lp.lower_bounds[bases] > margin) & (lp.upper_bounds[bases] - xb > margin)
    return inside.all(axis=-1)


def _diagnose_infeasible(s: ThreeBusScenario, delta: float) -> DispatchInfeasibleError:
    binding = []
    if s.l0 > s.F01 + s.F02:
        binding.append(
            f"bus-0 load {s.l0:g} exceeds import capacity F01+F02={s.F01 + s.F02:g}"
        )
    if -(s.l1 + delta) > s.F01 + s.F12:
        binding.append(
            f"bus-1 surplus {-(s.l1 + delta):g} exceeds export capacity "
            f"F01+F12={s.F01 + s.F12:g}"
        )
    if -(s.l2 - delta) > s.F02 + s.F12:
        binding.append(
            f"bus-2 surplus {-(s.l2 - delta):g} exceeds export capacity "
            f"F02+F12={s.F02 + s.F12:g}"
        )
    if -(s.l1 + s.l2) > s.F01 + s.F02:
        binding.append(
            f"combined bus-1/2 surplus {-(s.l1 + s.l2):g} exceeds capacity "
            f"toward bus 0 F01+F02={s.F01 + s.F02:g}"
        )
    if not binding:
        binding.append("no single cut identified; balances jointly unsatisfiable")
    return DispatchInfeasibleError(
        f"dispatch infeasible at delta={delta:g}: " + "; ".join(binding),
        binding=tuple(binding),
    )


def _outcome(columns: DispatchColumns, i: int) -> DispatchOutcome:
    """The outcome at shift ``i`` of ``columns``."""
    return DispatchOutcome(
        float(columns.delta[i]),
        *columns.flows[i].tolist(),
        tuple(columns.lmp[:, i].tolist()),
        tuple(columns.lme[:, i].tolist()),
        float(columns.total_cost[i]),
        bool(columns.degenerate[i]),
    )


def _prices(s: ThreeBusScenario, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bus prices ``c_B^T B^-1`` and marginal emission rates ``e_B^T B^-1``
    (Rudkevich & Ruiz 2012) of a basis, or of each of a stack of them: three
    structural columns, as the balance rows have full row rank."""
    rates = np.array([[0.0, s.c1, s.c2, 0.0, 0.0, 0.0], [0.0, s.e1, s.e2, 0.0, 0.0, 0.0]])
    # "+ 0.0" folds IEEE negative zeros into plain zeros for clean output.
    both = np.linalg.solve(_BALANCE.T[bases], rates.T[bases]) + 0.0
    return both[..., 0], both[..., 1]


def _checked(s: ThreeBusScenario, deltas: Sequence[float], statuses: Sequence[str]) -> None:
    """Raise for the first shift of ``deltas`` whose dispatch LP ended with
    another of ``statuses`` than optimal."""
    for delta, status in zip(deltas, statuses):
        if status == lp_core.INFEASIBLE:
            raise _diagnose_infeasible(s, float(delta))
        if status != lp_core.OPTIMAL:  # objective >= 0 rules unboundedness out
            raise lp_core.SolverFailure(f"unexpected dispatch status {status!r}")


def _in_block(s: ThreeBusScenario, deltas: Iterable[float]) -> np.ndarray:
    """``deltas`` as an array, checked to lie in the block ``[0, L]``."""
    deltas = np.fromiter(deltas, dtype=float)
    for d in deltas[~((0.0 <= deltas) & (deltas <= s.L))][:1].tolist():
        _balance_rhs(s, d)  # raises DeltaRangeError
    return deltas


def _solve_ed_cold(
    s: ThreeBusScenario, deltas: Iterable[float]
) -> tuple[lp_core.LinearProgram, np.ndarray, lp_core.LpSolutions, DispatchColumns]:
    """Cold solves at every shift of ``deltas``, all in one ``solve_rhs``
    call on the dispatch LP at a stack of balance right-hand sides: the LP (at
    shift 0), the stack, the solutions and the dispatch columns, so that
    callers checking the solutions need not build anything again.  Each
    shift is solved from scratch, exactly as it would be on its own, and
    priced by its own optimal basis."""
    deltas = _in_block(s, deltas)
    lp = build_ed(s, 0.0)
    rhs = np.array([np.full(deltas.shape, s.l0), s.l1 + deltas, s.l2 - deltas]).T
    sols = lp_core.solve_rhs(lp, rhs)
    _checked(s, deltas.tolist(), sols.status)
    degenerate = ~_clear_of_bounds(lp, sols.basis, sols.primal, _DEGENERACY_TOL)
    # The shifts share a handful of bases: price each distinct one once.
    key = sols.basis @ len(VARIABLE_NAMES) ** np.arange(sols.basis.shape[1])
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    lme = _prices(s, sols.basis[first])[1][inverse]
    return lp, rhs, sols, _columns(lp, deltas, sols.primal, sols.duals + 0.0, lme, degenerate)


class Piece(NamedTuple):
    """An optimal basis and the shifts ``(start, end]`` it prices (the first
    piece from ``start = 0`` on): its bus prices ``lmp``, emission rates
    ``lme``, and flows ``flows + (d - start) * slope`` at shift ``d``."""

    start: float
    end: float
    basis: np.ndarray
    lmp: np.ndarray
    lme: np.ndarray
    flows: np.ndarray
    slope: np.ndarray


def pieces(s: ThreeBusScenario) -> list[Piece]:
    """The optimal bases of the dispatch along the block ``[0, L]``, in order.

    A shift moves only the balance right-hand side, so a basis stays optimal,
    with the same prices, until a basic variable meets a bound along
    ``B^-1 (0, +1, -1)`` (Bertsimas & Tsitsiklis 1997, ch. 5).  The walk
    solves the LP cold at shift 0, raising :class:`DispatchInfeasibleError`
    if no dispatch is feasible there, and makes one dual-simplex pivot
    (ch. 4) per break.  It ends at ``L``, or where feasibility does."""
    return _walk(s, build_ed(s, 0.0))


def _walk(s: ThreeBusScenario, lp: lp_core.LinearProgram) -> list[Piece]:
    lo, hi = lp.lower_bounds, lp.upper_bounds
    sol = lp_core.solve(lp)
    _checked(s, [0.0], [sol.status])
    basis, flows, start = np.array(sol.basis), sol.primal, 0.0
    walk = []
    while len(walk) < 20:  # the balance matrix has C(6, 3) = 20 column triples
        B = _BALANCE[:, basis]
        slope = np.zeros(lp.n_variables)
        slope[basis] = rate = np.linalg.solve(B, _SHIFT_DIRECTION)
        # How far each basic variable moves before it meets a bound.
        room = np.where(rate > 0.0, hi[basis] - flows[basis], flows[basis] - lo[basis])
        reach = np.full(rate.shape, np.inf)
        np.divide(np.maximum(room, 0.0), np.abs(rate), out=reach, where=np.abs(rate) > lp_core.TOLERANCE)
        p = int(reach.argmin())
        end = min(start + reach[p], s.L)
        lmp, lme = _prices(s, basis)
        walk.append(Piece(start, end, basis.copy(), lmp, lme, flows, slope))
        if end == s.L:
            return walk
        # Dual-simplex pivot: basis[p] leaves onto the bound it met.  Of the
        # nonbasic variables free to move the way that holds it there (a basic
        # column's row entry is 0, or 1 for basis[p]), the one whose reduced
        # cost reaches zero first enters.
        flows = flows + (end - start) * slope
        flows[basis[p]] = hi[basis[p]] if rate[p] > 0.0 else lo[basis[p]]
        row = np.linalg.solve(B.T, np.eye(len(basis))[p]) @ _BALANCE
        rises = np.where(flows - lo <= hi - flows, 1.0, -1.0)
        movable = (rises * np.sign(rate[p]) * row > lp_core.TOLERANCE) & (hi - lo > 0.0)
        if not movable.any():  # no dispatch is feasible past this break
            return walk
        reduced = np.abs(lp.objective - lmp @ _BALANCE)
        ratio = np.divide(reduced, np.abs(row), out=np.full(row.shape, np.inf), where=movable)
        basis[p] = ratio.argmin()
        basis.sort()
        start = end
    raise lp_core.SolverFailure("the shift walk met more dispatch bases than there are")


def solve_ed_detailed(
    s: ThreeBusScenario, delta: float
) -> tuple[DispatchOutcome, lp_core.LpSolution]:
    """The dispatch LP at ``delta`` solved cold, and its raw solution, so
    callers can run independent optimality checks on it.  The prices are
    those of the basis the simplex stopped in: at a break, either one."""
    _, _, sols, columns = _solve_ed_cold(s, [delta])
    return _outcome(columns, 0), lp_core._solution(sols, 0)


def solve_ed(s: ThreeBusScenario, delta: float) -> DispatchOutcome:
    """:func:`solve_ed_columns` at one shift."""
    return _outcome(solve_ed_columns(s, [delta]), 0)


def solve_ed_columns(s: ThreeBusScenario, deltas: Iterable[float]) -> DispatchColumns:
    """The dispatch at every shift of ``deltas`` read off :func:`pieces`:
    flows, prices and marginal emissions, as columns.  A shift within
    ``lp_core.TOLERANCE * max(1, L)`` past a break takes the piece left of
    it, so the threshold gets the left-limit prices by construction."""
    deltas = _in_block(s, deltas)
    lp = build_ed(s, 0.0)
    walk = _walk(s, lp)
    start, end, basis, lmp, lme, flows, slope = map(np.array, zip(*walk))
    k = np.searchsorted(end + lp_core.TOLERANCE * max(1.0, s.L), deltas)
    if deltas.size and k.max() == len(walk):  # past the last feasible break
        raise _diagnose_infeasible(s, float(deltas[k.argmax()]))
    flows = flows[k] + (deltas - start[k])[:, None] * slope[k]
    degenerate = ~_clear_of_bounds(lp, basis[k], flows, _DEGENERACY_TOL)
    return _columns(lp, deltas, flows, lmp[k], lme[k], degenerate)


def dc_cost_numeric(s: ThreeBusScenario, out: DispatchOutcome | DispatchColumns):
    """Data-center bill for its own load split: ``delta`` at bus 1 and the
    rest of the block at bus 2, each settled at the bus price blended with the
    bus marginal-emission rate by ``alpha_dc``.  A float for one outcome; for
    columns, the same operations elementwise, so each entry is the float
    one outcome would give, to the bit."""
    price_part = out.lmp[1] * out.delta + out.lmp[2] * (s.L - out.delta)
    emission_part = out.lme[1] * out.delta + out.lme[2] * (s.L - out.delta)
    return _blend(s.alpha_dc, price_part, emission_part)


def sw_cost_numeric(s: ThreeBusScenario, out: DispatchOutcome | DispatchColumns):
    """System-wide settlement over the *entire* generator-bus loads (base plus
    shifted), blended by ``alpha_sw``; bus 0 carries no generator offer.
    Elementwise on columns, as :func:`dc_cost_numeric`."""
    load1 = s.l1 + out.delta
    load2 = s.l2 - out.delta
    price_part = out.lmp[1] * load1 + out.lmp[2] * load2
    emission_part = out.lme[1] * load1 + out.lme[2] * load2
    return _blend(s.alpha_sw, price_part, emission_part)


def _blend(a: float, price_part, emission_part):
    """``a * price_part + (1 - a) * emission_part``, with a part weighted by
    zero left out, so that a part that overflowed to inf cannot turn the
    cost into ``0 * inf = NaN``."""
    price = a * price_part if a != 0.0 else 0.0
    emission = (1.0 - a) * emission_part if a != 1.0 else 0.0
    return price + emission
