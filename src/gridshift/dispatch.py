"""Economic dispatch of the three-bus system and its marginal signals.

Builds the dispatch LP for a given shift ``delta`` of the flexible block from
bus 2 to bus 1 and reads the bus prices (equality duals) and marginal
emission rates (the same duals with emission rates in place of offers) off
an optimal basis.  :func:`pieces` walks the block with one cold solve at
shift 0 and one dual-simplex pivot per change of basis, and :func:`solve_ed`
and :func:`solve_ed_grid` read every shift off its pieces.  The cold route
(:func:`solve_ed_detailed`, the verification gate) solves each shift's own
LP from scratch, all in one lock-step batch, as the check from outside.
Also provides the data-center bill and the system-wide cost, which
cross-check the closed-form objectives numerically.
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


def csv_number(x: float) -> str:
    """Fixed 12-significant-digit rendering used by every CSV writer."""
    return f"{x:.12g}"


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

    CSV_HEADER = (
        "delta,y0,y1,y2,f01,f02,f12,"
        "lambda0,lambda1,lambda2,pi1,pi2,total_cost"
    )

    def to_csv_row(self) -> str:
        cells = (
            self.delta,
            self.y0,
            self.y1,
            self.y2,
            self.f01,
            self.f02,
            self.f12,
            self.lmp[0],
            self.lmp[1],
            self.lmp[2],
            self.lme[1],
            self.lme[2],
            self.total_cost,
        )
        return ",".join(csv_number(v) for v in cells)


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


def _outcomes(
    lp: lp_core.LinearProgram,
    deltas: Sequence[float],
    flows: np.ndarray,
    lmps: np.ndarray,
    lmes: np.ndarray,
    degenerate: np.ndarray,
) -> list[DispatchOutcome]:
    """One outcome per shift, from its rows of ``flows``, ``lmps`` and
    ``lmes``; every cost is the row's own dot product with the objective (a
    2-D product would sum in another order)."""
    costs = (flows[:, None, :] @ lp.objective)[:, 0].tolist()
    return [
        DispatchOutcome(d, *x, tuple(lmp), tuple(lme), cost, flag)
        for d, x, lmp, lme, cost, flag in zip(
            deltas, flows.tolist(), lmps.tolist(), lmes.tolist(), costs, degenerate.tolist()
        )
    ]


def _prices(s: ThreeBusScenario, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bus prices ``c_B^T B^-1`` and marginal emission rates ``e_B^T B^-1``
    (Rudkevich & Ruiz 2012) of a basis, or of each of a stack of them: three
    structural columns, as the balance rows have full row rank."""
    rates = np.array([[0.0, s.c1, s.c2, 0.0, 0.0, 0.0], [0.0, s.e1, s.e2, 0.0, 0.0, 0.0]])
    # "+ 0.0" folds IEEE negative zeros into plain zeros for clean output.
    both = np.linalg.solve(_BALANCE.T[bases], rates.T[bases]) + 0.0
    return both[..., 0], both[..., 1]


def _checked(s: ThreeBusScenario, delta: float, sol: lp_core.LpSolution) -> lp_core.LpSolution:
    if sol.status == lp_core.INFEASIBLE:
        raise _diagnose_infeasible(s, delta)
    if sol.status != lp_core.OPTIMAL:  # objective >= 0 rules unboundedness out
        raise lp_core.SolverFailure(f"unexpected dispatch status {sol.status!r}")
    return sol


def _solve_ed_cold(
    s: ThreeBusScenario, deltas: Sequence[float]
) -> tuple[list[lp_core.LinearProgram], list[DispatchOutcome], list[lp_core.LpSolution]]:
    """Cold solves at every shift of ``deltas``, all in one lock-step batch;
    also returns the LPs and their solutions, so that callers checking them
    need not build them again.  Each LP is solved from scratch, exactly as
    it would be on its own, and priced by its own optimal basis."""
    deltas = [float(d) for d in deltas]
    first = build_ed(s, deltas[0])
    lps = [first] + [first.with_rhs(_balance_rhs(s, d)) for d in deltas[1:]]
    sols = [_checked(s, d, sol) for d, sol in zip(deltas, lp_core.solve_many(lps))]
    primal = np.array([sol.primal for sol in sols])
    bases = np.array([sol.basis for sol in sols])
    duals = np.array([sol.duals for sol in sols]) + 0.0
    degenerate = ~_clear_of_bounds(first, bases, primal, _DEGENERACY_TOL)
    return lps, _outcomes(first, deltas, primal, duals, _prices(s, bases)[1], degenerate), sols


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
    sol = _checked(s, 0.0, lp_core.solve(lp))
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
    _, (outcome,), (sol,) = _solve_ed_cold(s, [delta])
    return outcome, sol


def solve_ed(s: ThreeBusScenario, delta: float) -> DispatchOutcome:
    """:func:`solve_ed_grid` at one shift."""
    return solve_ed_grid(s, [delta])[0]


def solve_ed_grid(s: ThreeBusScenario, deltas: Iterable[float]) -> list[DispatchOutcome]:
    """The dispatch at every shift of ``deltas`` read off :func:`pieces`:
    flows, prices and marginal emissions.  A shift within
    ``lp_core.TOLERANCE * max(1, L)`` past a break takes the piece left of
    it, so the threshold gets the left-limit prices by construction."""
    deltas = np.fromiter(deltas, dtype=float)
    for d in deltas[~((0.0 <= deltas) & (deltas <= s.L))][:1]:
        _balance_rhs(s, float(d))  # raises DeltaRangeError
    lp = build_ed(s, 0.0)
    walk = _walk(s, lp)
    start, end, basis, lmp, lme, flows, slope = map(np.array, zip(*walk))
    k = np.searchsorted(end + lp_core.TOLERANCE * max(1.0, s.L), deltas)
    if deltas.size and k.max() == len(walk):  # past the last feasible break
        raise _diagnose_infeasible(s, float(deltas[k.argmax()]))
    flows = flows[k] + (deltas - start[k])[:, None] * slope[k]
    degenerate = ~_clear_of_bounds(lp, basis[k], flows, _DEGENERACY_TOL)
    return _outcomes(lp, deltas.tolist(), flows, lmp[k], lme[k], degenerate)


def dc_cost_numeric(s: ThreeBusScenario, out: DispatchOutcome) -> float:
    """Data-center bill for its own load split: ``delta`` at bus 1 and the
    rest of the block at bus 2, each settled at the bus price blended with the
    bus marginal-emission rate by ``alpha_dc``."""
    a = s.alpha_dc
    price_part = out.lmp[1] * out.delta + out.lmp[2] * (s.L - out.delta)
    emission_part = out.lme[1] * out.delta + out.lme[2] * (s.L - out.delta)
    return a * price_part + (1.0 - a) * emission_part


def sw_cost_numeric(s: ThreeBusScenario, out: DispatchOutcome) -> float:
    """System-wide settlement over the *entire* generator-bus loads (base plus
    shifted), blended by ``alpha_sw``; bus 0 carries no generator offer."""
    a = s.alpha_sw
    load1 = s.l1 + out.delta
    load2 = s.l2 - out.delta
    price_part = out.lmp[1] * load1 + out.lmp[2] * load2
    emission_part = out.lme[1] * load1 + out.lme[2] * load2
    return a * price_part + (1.0 - a) * emission_part
