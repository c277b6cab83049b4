"""Closed-form shift objectives and the incentive-alignment classification.

On a valid scenario the dispatch prices take exactly two regimes as the
flexible block moves from bus 2 to bus 1: below the shift threshold the
bus-1 price is zero (surplus renewable is marginal), above it the bus-1
generator sets the price.  That makes both settlement objectives linear on
each side of the threshold, so they can be written down directly and
optimized by comparing two candidate points — no LP required.  Each
objective is a two-piece :class:`Piecewise`, the shape that
:func:`gridshift.dispatch.settlements` builds independently from the LP's
own pieces; the two must agree, and the test suite holds them to that.

:func:`classify_alignment` and :func:`classify_alignment_grid` read one
derivation of every alignment field, once per distinct threshold of a grid,
and both return it as an :class:`AlignmentReport`.
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

import numpy as np

from .grid_model import (
    ThreeBusScenario,
    ValidityReport,
    choose,
    csv_row,
    eta,
    tau,
    threshold_grid,
    validate,
)

#: Two candidate optima closer than this are considered the same choice, and
#: an exact tie between them resolves to the threshold.
DECISION_TOL = 1e-9


class ScenarioInvalidError(ValueError):
    """The scenario fails the setting conditions; carries the full report."""

    def __init__(self, report: ValidityReport):
        self.report = report
        failed = ", ".join(c.name for c in report.failures())
        super().__init__(f"scenario outside the modeled setting: {failed}")


class DegenerateWeightsError(ValueError):
    """The blended bus-2 rate is zero, so shifting is costless in this
    objective and the optimal shift is not meaningfully defined."""


@dataclasses.dataclass(frozen=True)
class Piecewise:
    """A piecewise-linear function of the shift on ``[0, domain]``.

    Piece ``i`` is ``intercepts[i] + slopes[i] * delta`` on
    ``(breaks[i-1], breaks[i]]``, the first from 0 and the last to
    ``domain``, so the value at a break is the left piece's.  The function
    may jump at a break: there a bus price snaps to another generator's
    offer, repricing whatever the settlement covers at that bus.  On a
    capacity grid a break is an array holding one threshold per cell.
    """

    breaks: tuple
    intercepts: tuple
    slopes: tuple
    domain: float  # evaluation allowed on [0, domain]

    def evaluate(self, delta: float) -> float:
        if not -DECISION_TOL <= delta <= self.domain + DECISION_TOL:
            raise ValueError(f"delta={delta!r} outside the shiftable block [0, {self.domain}]")
        return self.at(delta)

    def sides(self, delta) -> tuple:
        """Every piece's line at ``delta``, in order: for two pieces, the
        values on either side of the break, (left, right)."""
        return tuple(a + b * delta for a, b in zip(self.intercepts, self.slopes))

    def at(self, delta):
        """:meth:`evaluate` without the domain check, elementwise over an
        array break or shift."""
        *lines, value = self.sides(delta)
        for brk, line in zip(reversed(self.breaks), reversed(lines)):
            value = choose(delta <= brk, line, value)
        return value


class Shift(NamedTuple):
    """An optimal shift choice and its objective value."""

    delta: float
    value: float


def _validated_threshold(s: ThreeBusScenario) -> float:
    report = validate(s)
    if not report.valid:
        raise ScenarioInvalidError(report)
    return tau(s).value


def _covered_loads(s: ThreeBusScenario, agent: str) -> tuple[float, float]:
    """Bus-1 base load and bus-2 load that ``agent``'s settlement covers: the
    bill covers only the block, the system settlement every generator-bus
    load."""
    return (0.0, s.L) if agent == "dc" else (s.l1, s.l2)


def _objective(s: ThreeBusScenario, agent: str, threshold: float) -> Piecewise:
    eta1, eta2 = eta(s, 1, agent), eta(s, 2, agent)
    base1, load2 = _covered_loads(s, agent)
    left = eta2 * load2
    return Piecewise((threshold,), (left, eta1 * base1 + left), (-eta2, eta1 - eta2), s.L)


def cutoff(s: ThreeBusScenario, agent: str) -> float:
    """Smallest threshold at which ``agent`` stops there instead of shifting
    the whole block: ``L - (eta1/eta2)(L + b1)``, with ``b1`` the covered
    bus-1 base load that crossing the threshold reprices.  Raises
    :class:`DegenerateWeightsError` when the blended bus-2 rate is within
    :data:`DECISION_TOL` of zero."""
    eta2 = eta(s, 2, agent)
    if eta2 <= DECISION_TOL:
        who = "the data center" if agent == "dc" else "the system objective"
        raise DegenerateWeightsError(
            f"blended bus-2 rate is zero for {who}; every shift costs the same "
            "and no optimum is defined"
        )
    base1, _ = _covered_loads(s, agent)
    return s.L - (eta(s, 1, agent) / eta2) * (s.L + base1)


def _optimum(s: ThreeBusScenario, agent: str, objective: Piecewise) -> Shift:
    # Only two candidates exist because the objective is linear on both sides
    # and strictly decreasing on the left.  Stop-at-threshold wins at the
    # cutoff itself (ties resolve to the threshold, the physically
    # distinguished point).
    (t,) = objective.breaks
    delta = choose(t - cutoff(s, agent) >= -DECISION_TOL, t, s.L)
    return Shift(delta, objective.at(delta))


def objective_dc(s: ThreeBusScenario) -> Piecewise:
    """Data-center bill as a function of the shift.

    Below the threshold the shifted megawatts are free (zero bus-1 price) and
    every shifted unit saves the blended bus-2 rate; above it each extra unit
    trades the bus-2 rate for the bus-1 rate.
    """
    return _objective(s, "dc", _validated_threshold(s))


def objective_sw(s: ThreeBusScenario) -> Piecewise:
    """System-wide settlement cost as a function of the shift: same regime
    structure as the bill, but covering the full bus-1 and bus-2 loads."""
    return _objective(s, "sw", _validated_threshold(s))


def objectives(s: ThreeBusScenario) -> tuple[Piecewise, Piecewise]:
    """:func:`objective_dc` and :func:`objective_sw`, validating ``s`` once."""
    t = _validated_threshold(s)
    return _objective(s, "dc", t), _objective(s, "sw", t)


def optimal_shift_dc(s: ThreeBusScenario) -> Shift:
    """Bill-minimizing shift: the threshold when it reaches the data-center
    :func:`cutoff` ``L - (eta1/eta2) L``, otherwise the whole block."""
    return _optimum(s, "dc", objective_dc(s))


def optimal_shift_sw(s: ThreeBusScenario) -> Shift:
    """System-optimal shift: the threshold when it reaches the system
    :func:`cutoff` ``L - (eta1/eta2)(L + l1)``, otherwise the whole block."""
    return _optimum(s, "sw", objective_sw(s))


@dataclasses.dataclass(frozen=True)
class AlignmentReport:
    """Do private and system incentives pick the same shift?

    ``verdict`` compares the two optima directly.  ``binding_case`` names the
    choice pair: ``both-threshold`` and ``both-full`` are the two aligned
    cases, ``dc-full-sw-threshold`` is the classic split (the data center
    shifts everything while the system would stop at the threshold), and the
    reverse split ``dc-threshold-sw-full`` can only appear when the two
    agents blend price and emissions with different weights, or when the
    bus-1 base load is negative.

    From :func:`classify_alignment_grid` each field is an array over the
    cells, "invalid" or NaN on an invalid cell; :meth:`to_text`,
    :meth:`to_csv_row` and :attr:`CSV_HEADER` serve one scenario's report.
    """

    delta_star_dc: float
    delta_star_sw: float
    verdict: str  # "aligned" | "misaligned" (| "invalid" on a grid)
    binding_case: str
    sw_at_dc_choice: float
    sw_at_sw_choice: float
    externality_at_dc_choice: float
    suboptimality_ratio: float
    residual_at_dc_choice: float
    residual_at_sw_choice: float

    CSV_HEADER = (
        "delta_star_dc,delta_star_sw,verdict,binding_case,"
        "sw_at_dc_choice,sw_at_sw_choice,externality_at_dc_choice,"
        "suboptimality_ratio,residual_at_dc_choice,residual_at_sw_choice"
    )

    def to_csv_row(self) -> str:
        """This report's line under :attr:`CSV_HEADER` (fields in order)."""
        return csv_row(vars(self).values())

    def to_text(self) -> str:
        aligned = self.verdict == "aligned"
        bill_at_dc_choice = self.sw_at_dc_choice - self.residual_at_dc_choice
        lines = [
            f"data-center optimum:  shift {self.delta_star_dc:.6f} "
            f"(bill {bill_at_dc_choice:.6f})",
            f"system optimum:       shift {self.delta_star_sw:.6f} "
            f"(system cost {self.sw_at_sw_choice:.6f})",
            f"verdict: {'ALIGNED' if aligned else 'MISALIGNED'} ({self.binding_case})",
            f"system cost at the data-center choice: {self.sw_at_dc_choice:.6f}",
            f"externality of the private choice:     {self.externality_at_dc_choice:.6f}",
            f"suboptimality ratio:                   {self.suboptimality_ratio:.6f}",
            "residual (system cost minus bill) at dc/system optima: "
            f"{self.residual_at_dc_choice:.6f} / {self.residual_at_sw_choice:.6f}",
        ]
        return "\n".join(lines)


#: :attr:`AlignmentReport.binding_case` by ``2 * dc_stops + sw_stops``,
#: where each flag says that agent stops at the threshold.
_BINDING_CASES = np.array(
    ["both-full", "dc-full-sw-threshold", "dc-threshold-sw-full", "both-threshold"]
)


def _alignment(s: ThreeBusScenario, threshold) -> AlignmentReport:
    """The :class:`AlignmentReport` at ``threshold``; elementwise when
    ``threshold`` holds one value per grid cell."""
    dc_objective = _objective(s, "dc", threshold)
    sw_objective = _objective(s, "sw", threshold)
    # One arithmetic rule on both routes, as on Python floats: overflow is
    # +-inf and inf - inf NaN, silently; and x/0 is +-inf and 0/0 NaN.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        dc = _optimum(s, "dc", dc_objective)
        sw = _optimum(s, "sw", sw_objective)
        sw_at_dc_choice = sw_objective.at(dc.delta)
        dc_stops, sw_stops = (abs(x.delta - threshold) <= DECISION_TOL for x in (dc, sw))
        case = _BINDING_CASES[2 * dc_stops + sw_stops]
        ratio = np.divide(sw_at_dc_choice, sw.value)
        return AlignmentReport(
            delta_star_dc=dc.delta, delta_star_sw=sw.delta,
            verdict=choose(abs(dc.delta - sw.delta) <= DECISION_TOL, "aligned", "misaligned"),
            binding_case=case if isinstance(case, np.ndarray) else str(case),
            sw_at_dc_choice=sw_at_dc_choice, sw_at_sw_choice=sw.value,
            externality_at_dc_choice=sw_at_dc_choice - sw.value,
            suboptimality_ratio=ratio if isinstance(ratio, np.ndarray) else float(ratio),
            residual_at_dc_choice=sw_at_dc_choice - dc.value,
            residual_at_sw_choice=sw.value - dc_objective.at(sw.delta),
        )


def classify_alignment(s: ThreeBusScenario) -> AlignmentReport:
    """Compare the two optima and quantify what the private choice costs.

    ``externality_at_dc_choice`` is the extra system cost caused by the
    data-center's shift relative to the system optimum, and
    ``suboptimality_ratio`` the same gap as a ratio: 1 exactly when aligned,
    and never below 1 when the system optimum costs more than 0, since it
    minimizes over the same two candidates.  At a cost of 0 the ratio is
    +-inf (NaN if both costs are 0), and below 0 it may be negative.

    Each optimum compares the left-limit value at the threshold with the
    value at ``L``.  That is not the infimum when ``l1 + tau < 0``: the
    system cost then jumps down past the threshold, and its right limit
    there may be lower than either candidate.
    """
    return _alignment(s, _validated_threshold(s))


def _keyed_alignment(s: ThreeBusScenario, t: np.ndarray, valid: np.ndarray) -> tuple:
    """:class:`AlignmentReport` over the distinct keys of the thresholds ``t``
    and validity ``valid`` from :func:`threshold_grid`, and each cell's index
    into it, shaped like ``t``.  A key is the bits of a valid cell's
    threshold; every invalid cell shares the NaN key.  Only the threshold
    changes from cell to cell, so :func:`_alignment` runs once, on the
    distinct valid thresholds."""
    # Threshold and validity are all that vary here; a batch must key on all that varies.
    key, index = np.unique(np.where(valid, t, np.nan).view(np.int64), return_inverse=True)
    key = key.view(float)
    valid_key = ~np.isnan(key)
    columns = {
        field.name: np.full(key.shape, "invalid", dtype=object)
        if field.name in ("verdict", "binding_case") else np.full(key.shape, np.nan)
        for field in dataclasses.fields(AlignmentReport)
    }
    try:
        found = _alignment(s, key[valid_key])
    except DegenerateWeightsError:
        pass  # the weights, and so the degeneracy, are every key's
    else:
        for name, column in columns.items():
            column[valid_key] = getattr(found, name)
    return AlignmentReport(**columns), index.reshape(t.shape)


def classify_alignment_grid(
    s: ThreeBusScenario, F01: np.ndarray, F12: np.ndarray
) -> AlignmentReport:
    """Classify ``s`` with its two scanned line limits replaced by each
    ``(F01[i], F12[i])`` pair (broadcast together) through the derivation of
    :func:`classify_alignment`, run once per distinct threshold and validity.
    Every field of the report is an array shaped like the cells, and on a
    valid cell equals the field of :func:`classify_alignment` on that cell's
    scenario.  A cell is invalid where the replaced scenario could not be
    built or fails :func:`validate`, and everywhere when either agent's
    weights are degenerate; there ``verdict`` and ``binding_case`` read
    "invalid" and every number is NaN."""
    grid, index = _keyed_alignment(s, *threshold_grid(s, F01, F12))
    # A 0-d index gives 0-d arrays.
    return AlignmentReport(**{name: column[index, ...] for name, column in vars(grid).items()})
