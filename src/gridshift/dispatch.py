"""Economic dispatch of the three-bus system and its marginal signals.

Builds the dispatch LP for a given shift ``delta`` of the flexible block from
bus 2 to bus 1, solves it with :mod:`gridshift.lp_core`, and reads the bus
prices (equality duals) and marginal emission rates (the same duals with
emission rates in place of offers) off the optimal basis.  Also provides the
two settlement-style cost evaluations — the data-center bill and the
system-wide cost — used to cross-check the closed-form objectives
numerically.

:func:`solve_ed` solves one shift cold; the cold route takes a vector of
shifts and solves all their LPs in one lock-step batch
(:func:`~gridshift.lp_core.solve_many`), which is how the verification gate
solves its whole grid.  :func:`solve_ed_grid` solves a whole
shift grid and solves again only where the optimal basis changes: the shift
moves just the right-hand side, so one basis, with its prices, holds on an
interval of shifts.  Both routes ask one question of a basis, whether every
basic variable lies clear of its bounds: the cold solve at the degeneracy
tolerance, to flag a degenerate vertex, and the grid walk at twice that, for
every later shift of the grid at once.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Sequence

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
    indexed by bus 0..2.  ``degenerate`` records that the vertex was
    degenerate (a basic variable within the degeneracy tolerance of a bound),
    so both are taken from the left limit: from the basis of one solve at
    ``delta - 1e-7 * max(1, L)``.  Where that nudged solve cannot be made,
    at a degenerate shift no larger than the nudge, or is not optimal, they
    come from the cold solve's own basis."""

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
    lp: lp_core.LinearProgram, basis: np.ndarray, x: np.ndarray, margin: float
) -> np.ndarray:
    """Whether every basic entry of ``x`` lies more than ``margin`` inside its
    bounds, one answer per row of ``x`` (a stack of points).  ``basis`` holds
    the basic columns, one row per point or one for all."""
    basis = np.broadcast_to(basis, x.shape[:-1] + np.shape(basis)[-1:])
    xb = np.take_along_axis(x, basis, axis=-1)
    inside = (xb - lp.lower_bounds[basis] > margin) & (lp.upper_bounds[basis] - xb > margin)
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
    lmps: Sequence[tuple[float, float, float]],
    lmes: Sequence[tuple[float, float, float]],
    degenerate: Sequence[bool],
) -> list[DispatchOutcome]:
    """One outcome per shift, from its row of ``flows``; every cost is the
    row's own dot product with the objective (a 2-D product would sum in
    another order)."""
    costs = (flows[:, None, :] @ lp.objective)[:, 0].tolist()
    return [
        DispatchOutcome(d, *x, lmp, lme, cost, flag)
        for d, x, lmp, lme, cost, flag in zip(
            deltas, flows.tolist(), lmps, lmes, costs, degenerate
        )
    ]


def _solve_ed_cold(
    s: ThreeBusScenario, deltas: Sequence[float]
) -> tuple[list[lp_core.LinearProgram], list[DispatchOutcome], list[lp_core.LpSolution]]:
    """Cold solves at every shift of ``deltas``, all in one lock-step batch;
    also returns the LPs and their solutions, so that callers checking them
    need not build them again.

    Each LP is solved from scratch, exactly as it would be on its own.  The
    shifts the cold solves flag as degenerate take their prices from a
    second batch, of LPs nudged below them, and the marginal emission rates
    of all shifts come from one stacked solve on the bases that priced them.
    """
    deltas = [float(d) for d in deltas]
    first = build_ed(s, deltas[0])
    lps = [first] + [first.with_rhs(_balance_rhs(s, d)) for d in deltas[1:]]
    sols = lp_core.solve_many(lps)
    for d, sol in zip(deltas, sols):
        if sol.status == lp_core.INFEASIBLE:
            raise _diagnose_infeasible(s, d)
        if sol.status != lp_core.OPTIMAL:  # objective >= 0 rules unboundedness out
            raise lp_core.SolverFailure(f"unexpected dispatch status {sol.status!r}")

    primal = np.array([sol.primal for sol in sols])
    degenerate = ~_clear_of_bounds(
        lps[0], np.array([sol.basis for sol in sols]), primal, _DEGENERACY_TOL
    )
    # At a degenerate vertex (several optimal bases) the duals depend on
    # where the pivoting happened to stop.  The reported prices follow the
    # left-limit convention: take them from a solve nudged below delta.
    priced = list(sols)
    epsilon = 1e-7 * max(1.0, s.L)
    nudge = [i for i in np.flatnonzero(degenerate).tolist() if deltas[i] > epsilon]
    if nudge:
        nudged = lp_core.solve_many(
            [first.with_rhs(_balance_rhs(s, deltas[i] - epsilon)) for i in nudge]
        )
        for i, sol in zip(nudge, nudged):
            if sol.status == lp_core.OPTIMAL:
                priced[i] = sol

    # Marginal emissions are the emission sensitivities of the basis that
    # gave the prices: pi = e_B^T B^-1 (Rudkevich & Ruiz 2012).  The balance
    # rows have full row rank, so the optimal basis always holds three
    # structural columns and B is the square submatrix they select.
    bases = np.array([sol.basis for sol in priced])
    emissions = np.array([0.0, s.e1, s.e2, 0.0, 0.0, 0.0])
    rates = np.linalg.solve(_BALANCE.T[bases], emissions[bases][..., None])[..., 0]
    # "+ 0.0" folds IEEE negative zeros into plain zeros for clean output.
    lmps = map(tuple, (np.array([sol.duals for sol in priced]) + 0.0).tolist())
    lmes = map(tuple, (rates + 0.0).tolist())
    return lps, _outcomes(first, deltas, primal, lmps, lmes, degenerate.tolist()), sols


def solve_ed_detailed(
    s: ThreeBusScenario, delta: float
) -> tuple[DispatchOutcome, lp_core.LpSolution]:
    """Like :func:`solve_ed` but also returns the raw LP solution, so callers
    can run independent optimality checks on it."""
    _, (outcome,), (sol,) = _solve_ed_cold(s, [delta])
    return outcome, sol


def solve_ed(s: ThreeBusScenario, delta: float) -> DispatchOutcome:
    """Solve the dispatch at ``delta`` and report flows, prices, and marginal
    emissions, with left-limit duals at degenerate (threshold) points."""
    outcome, _ = solve_ed_detailed(s, delta)
    return outcome


def solve_ed_grid(s: ThreeBusScenario, deltas: Iterable[float]) -> list[DispatchOutcome]:
    """:func:`solve_ed` at every shift of ``deltas``, reusing optimal bases.

    A shift moves only the balance right-hand side, along ``(0, +1, -1)``,
    so a basis optimal at one shift stays optimal, with the same duals,
    wherever it stays primal feasible (parametric programming, Bertsimas &
    Tsitsiklis 1997, section 5).  After each non-degenerate cold solve, the
    basic flows move along ``B^-1 (0, +1, -1)`` to all later shifts at once.
    The leading run of them that stays in ``[0, L]`` and clear of the bounds
    by twice the degeneracy tolerance reuses the solve's ``lmp`` and ``lme``.
    The first shift after the run is solved cold, and so is every shift the
    cold route would call degenerate, which keeps the left-limit prices
    there.  A sweep over a valid scenario needs two solves, or four when the
    threshold lies on a grid node.
    """
    deltas = np.fromiter(deltas, dtype=float)
    outcomes = []
    i = 0
    while i < deltas.size:
        (lp,), (base,), (sol,) = _solve_ed_cold(s, deltas[i : i + 1])
        outcomes.append(base)
        i += 1
        if base.degenerate:  # its prices come from the nudged solve's basis
            continue
        basis = list(sol.basis)
        step = np.zeros(lp.n_variables)
        step[basis] = np.linalg.solve(_BALANCE[:, basis], _SHIFT_DIRECTION)
        rest = deltas[i:]
        flows = sol.primal + np.outer(rest - base.delta, step)
        # Twice the degeneracy tolerance: no shift the cold route would call
        # degenerate joins the run, rounding included.
        reuse = _clear_of_bounds(lp, basis, flows, 2.0 * _DEGENERACY_TOL)
        reuse &= (0.0 <= rest) & (rest <= s.L)
        run = int(np.logical_and.accumulate(reuse).sum())
        outcomes += _outcomes(
            lp, rest[:run].tolist(), flows[:run], [base.lmp] * run, [base.lme] * run, [False] * run
        )
        i += run
    return outcomes


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
