"""Economic dispatch of the three-bus system and its marginal signals.

Builds the dispatch LP for a given shift ``delta`` of the flexible block from
bus 2 to bus 1, solves it with :mod:`gridshift.lp_core`, and reads the bus
prices (equality duals) and marginal emission rates (the same duals with
emission rates in place of offers) off the optimal basis.  Also provides the
two settlement-style cost evaluations — the data-center bill and the
system-wide cost — used to cross-check the closed-form objectives
numerically.

:func:`solve_ed` solves one shift cold.  :func:`solve_ed_grid` solves a whole
shift grid and solves again only where the optimal basis changes: the shift
moves just the right-hand side, so one basis, with its prices, holds on an
interval of shifts.  Both routes ask one question of a basis, whether every
basic variable lies clear of its bounds: the cold solve at the degeneracy
tolerance, to flag a degenerate vertex, and the grid walk at twice that, for
every later shift of the grid at once.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable

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


def build_ed(s: ThreeBusScenario, delta: float) -> lp_core.LinearProgram:
    """Dispatch LP at shift ``delta``: cost-minimal generation subject to the
    three nodal balances, nonnegative generation, and line limits."""
    if not 0.0 <= delta <= s.L:
        raise DeltaRangeError(f"delta={delta!r} outside the shiftable block [0, {s.L}]")
    rhs = np.array([s.l0, s.l1 + delta, s.l2 - delta])
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
    lp: lp_core.LinearProgram, basis: list[int], x: np.ndarray, margin: float
) -> bool | np.ndarray:
    """Whether every basic entry of ``x`` lies more than ``margin`` inside its
    bounds; for a stack of points (one per row of ``x``), one answer per row."""
    xb = x[..., basis]
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


def _outcome(
    lp: lp_core.LinearProgram,
    delta: float,
    primal: np.ndarray,
    lmp: tuple[float, float, float],
    lme: tuple[float, float, float],
    degenerate: bool,
) -> DispatchOutcome:
    return DispatchOutcome(
        delta=delta,
        **{name: float(v) for name, v in zip(VARIABLE_NAMES, primal)},
        lmp=lmp,
        lme=lme,
        total_cost=float(lp.objective @ primal),
        degenerate=degenerate,
    )


def _solve_ed_lp(
    s: ThreeBusScenario, delta: float
) -> tuple[lp_core.LinearProgram, DispatchOutcome, lp_core.LpSolution]:
    """Cold solve at ``delta``; also returns the LP it built, so that callers
    checking the solution need not build it again."""
    lp = build_ed(s, delta)
    sol = lp_core.solve(lp)
    if sol.status == lp_core.INFEASIBLE:
        raise _diagnose_infeasible(s, delta)
    if sol.status != lp_core.OPTIMAL:  # objective >= 0 rules unboundedness out
        raise lp_core.SolverFailure(f"unexpected dispatch status {sol.status!r}")

    priced = sol
    degenerate = not _clear_of_bounds(lp, list(sol.basis), sol.primal, _DEGENERACY_TOL)
    if degenerate:
        # At a degenerate vertex (several optimal bases) the duals depend on
        # where the pivoting happened to stop.  The reported prices follow the
        # left-limit convention: take them from a solve nudged below delta.
        epsilon = 1e-7 * max(1.0, s.L)
        if delta > epsilon:
            nudged = lp_core.solve(build_ed(s, delta - epsilon))
            if nudged.status == lp_core.OPTIMAL:
                priced = nudged

    # Marginal emissions are the emission sensitivities of the basis that
    # gave the prices: pi = e_B^T B^-1 (Rudkevich & Ruiz 2012).  The balance
    # rows have full row rank, so the optimal basis always holds three
    # structural columns and B is the square submatrix they select.
    basis = list(priced.basis)
    emissions = np.array([0.0, s.e1, s.e2, 0.0, 0.0, 0.0])
    rates = np.linalg.solve(_BALANCE[:, basis].T, emissions[basis])
    # "+ 0.0" folds IEEE negative zeros into plain zeros for clean output.
    lmp = tuple(float(price) + 0.0 for price in priced.duals)
    lme = tuple(float(rate) + 0.0 for rate in rates)
    return lp, _outcome(lp, delta, sol.primal, lmp, lme, degenerate), sol


def solve_ed_detailed(
    s: ThreeBusScenario, delta: float
) -> tuple[DispatchOutcome, lp_core.LpSolution]:
    """Like :func:`solve_ed` but also returns the raw LP solution, so callers
    can run independent optimality checks on it."""
    _, outcome, sol = _solve_ed_lp(s, delta)
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
        lp, base, sol = _solve_ed_lp(s, float(deltas[i]))
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
        outcomes.extend(
            _outcome(lp, float(d), x, base.lmp, base.lme, False)
            for d, x in zip(rest[:run], flows[:run])
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
