"""Sweeps, capacity heatmaps, and the analytic-vs-numeric verification gate.

Everything here produces either structured rows for tests or deterministic
CSV text for the command-line tool: fixed column order, 12 significant
digits, LF newlines.  Identical inputs must yield byte-identical output, so
no timestamps, locales, or dict-ordering tricks are allowed anywhere.

A capacity heatmap is one call to
:func:`~gridshift.closed_form.classify_alignment_grid` over the flattened
(F01, F12) grid: only the shift threshold varies between cells, so every
cell is classified by the same array expressions and no per-cell scenario is
built.  :func:`heatmap_csv_lines` formats its rows straight from those
arrays; :func:`heatmap_cells` wraps the same arrays in :class:`HeatmapCell`
objects.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import lp_core
from .closed_form import (
    AlignmentGrid,
    DegenerateWeightsError,
    classify_alignment_grid,
    cutoff,
    objectives,
)
from .dispatch import (
    _solve_ed_cold,
    csv_number,
    dc_cost_numeric,
    solve_ed_grid,
    sw_cost_numeric,
)
from .grid_model import ThreeBusScenario, tau

#: Grid points this close to the threshold are excluded from the cold
#: cross-check: a cold solve of the degenerate vertex there may stop in
#: either optimal basis, and the LP's break matches the threshold only to
#: rounding, so a point between the two is priced on opposite sides.
BREAKPOINT_EXCLUSION = 1e-6

#: Cross-path agreement tolerance for the two settlement objectives.
CROSS_PATH_TOL = 1e-6

#: Worst acceptable optimality-condition residual on any dispatch solve.
KKT_TOL = 1e-8

SWEEP_HEADER = (
    "delta,dc_analytic,dc_numeric,dc_abs_diff,"
    "sw_analytic,sw_numeric,sw_abs_diff,residual,regime,lambda1,pi1"
)
HEATMAP_HEADER = (
    "f01,f12,delta_star_sw,delta_star_dc,sw_at_sw_opt,sw_at_dc_opt,ratio,verdict"
)
BOUNDARY_HEADER = "f12,f01_dc_cutoff,f01_sw_cutoff"


def delta_grid(L: float, resolution: int) -> np.ndarray:
    """Uniform shift grid over [0, L] with exact endpoints."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    return np.linspace(0.0, L, resolution)


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    delta: float
    dc_analytic: float
    dc_numeric: float
    sw_analytic: float
    sw_numeric: float
    regime: str  # "renewable" | "local-generation"
    lambda1: float
    pi1: float

    @property
    def residual(self) -> float:
        """System cost net of the data-center bill (numeric path)."""
        return self.sw_numeric - self.dc_numeric

    def to_csv_row(self) -> str:
        cells = (
            csv_number(self.delta),
            csv_number(self.dc_analytic),
            csv_number(self.dc_numeric),
            csv_number(abs(self.dc_analytic - self.dc_numeric)),
            csv_number(self.sw_analytic),
            csv_number(self.sw_numeric),
            csv_number(abs(self.sw_analytic - self.sw_numeric)),
            csv_number(self.residual),
            self.regime,
            csv_number(self.lambda1),
            csv_number(self.pi1),
        )
        return ",".join(cells)


def sweep_points(s: ThreeBusScenario, resolution: int = 200) -> list[SweepPoint]:
    """Evaluate both objectives along the shift grid by both routes.

    Raises :class:`ScenarioInvalidError` on an invalid scenario (via the
    closed-form construction).  Every grid point is emitted, including any
    that fall on the threshold itself.  The dispatch side comes from
    :func:`~gridshift.dispatch.solve_ed_grid`, which reads every point off
    the LP's pieces (one solve, one pivot per break);
    :func:`verify_scenario` is the check that cold-solves every point.
    """
    dc_objective, sw_objective = objectives(s)
    points = []
    for out in solve_ed_grid(s, delta_grid(s.L, resolution)):
        d = out.delta
        regime = "renewable" if abs(out.lmp[1]) <= CROSS_PATH_TOL else "local-generation"
        points.append(
            SweepPoint(
                delta=d,
                dc_analytic=dc_objective.evaluate(d),
                dc_numeric=dc_cost_numeric(s, out),
                sw_analytic=sw_objective.evaluate(d),
                sw_numeric=sw_cost_numeric(s, out),
                regime=regime,
                lambda1=out.lmp[1],
                pi1=out.lme[1],
            )
        )
    return points


def sweep_csv_lines(s: ThreeBusScenario, resolution: int = 200) -> list[str]:
    return [SWEEP_HEADER] + [p.to_csv_row() for p in sweep_points(s, resolution)]


@dataclasses.dataclass(frozen=True)
class HeatmapCell:
    """Alignment outcome with the two line limits replaced by grid values.

    Invalid parameter combinations stay in the output (verdict "invalid",
    numeric fields NaN) so the row count is always resolution squared.
    """

    F01: float
    F12: float
    delta_star_sw: float
    delta_star_dc: float
    sw_at_sw_opt: float
    sw_at_dc_opt: float
    ratio: float
    verdict: str  # "aligned" | "misaligned" | "invalid"

    def to_csv_row(self) -> str:
        return ",".join(
            (
                csv_number(self.F01),
                csv_number(self.F12),
                csv_number(self.delta_star_sw),
                csv_number(self.delta_star_dc),
                csv_number(self.sw_at_sw_opt),
                csv_number(self.sw_at_dc_opt),
                csv_number(self.ratio),
                self.verdict,
            )
        )


def _heatmap_grid(
    s: ThreeBusScenario, f01_values: np.ndarray, f12_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, AlignmentGrid, tuple[np.ndarray, ...]]:
    """Classify every (F01, F12) pair of the two axes, row-major with F01
    outer: the cells' line limits, the grid, and its numeric heatmap columns
    in CSV order."""
    f01, f12 = np.meshgrid(
        np.asarray(f01_values, dtype=float),
        np.asarray(f12_values, dtype=float),
        indexing="ij",
    )
    f01, f12 = f01.ravel(), f12.ravel()
    grid = classify_alignment_grid(s, f01, f12)
    numbers = (
        grid.delta_star_sw,
        grid.delta_star_dc,
        grid.sw_at_sw_choice,
        grid.sw_at_dc_choice,
        grid.suboptimality_ratio,
    )
    return f01, f12, grid, numbers


def heatmap_cells(
    s: ThreeBusScenario,
    f01_values: np.ndarray,
    f12_values: np.ndarray,
) -> list[HeatmapCell]:
    """Classify alignment across a capacity grid, row-major in (F01, F12).

    The base scenario's own F01/F12 (and validity) are irrelevant — each cell
    re-derives everything from its grid values.  All classification here is
    closed-form, so the scan involves no LP solves.
    """
    f01, f12, grid, numbers = _heatmap_grid(s, f01_values, f12_values)
    columns = (f01, f12, *numbers, grid.verdict)
    return [HeatmapCell(*row) for row in zip(*(c.tolist() for c in columns))]


def alignment_cutoffs(s: ThreeBusScenario) -> tuple[float, float]:
    """Threshold levels at which each agent flips from full shift to
    stopping at the threshold (data-center cutoff, system cutoff); NaN where
    the agent's blended weights leave no optimum defined."""

    def or_nan(agent: str) -> float:
        try:
            return cutoff(s, agent)
        except DegenerateWeightsError:
            return math.nan

    return or_nan("dc"), or_nan("sw")


def boundary_rows(
    s: ThreeBusScenario, f12_values: np.ndarray
) -> list[tuple[float, float, float]]:
    """F01 values where the threshold crosses each agent's cutoff, per F12.

    For a fixed F12 the threshold grows with F01 until the renewable term
    caps it; a cutoff above that cap is unreachable and yields NaN.  These
    curves are the analytic alignment boundaries a heatmap should show.
    """
    dc_cutoff, sw_cutoff = alignment_cutoffs(s)
    rows = []
    for f12 in f12_values:
        f12 = float(f12)
        plateau = -s.l0 - s.F02 - f12 - s.l1
        f01_dc = dc_cutoff + s.l1 + f12 if dc_cutoff <= plateau else math.nan
        f01_sw = sw_cutoff + s.l1 + f12 if sw_cutoff <= plateau else math.nan
        rows.append((f12, f01_dc, f01_sw))
    return rows


def heatmap_csv_lines(
    s: ThreeBusScenario,
    f01_range: tuple[float, float],
    f12_range: tuple[float, float],
    resolution: int = 50,
) -> tuple[list[str], list[str]]:
    """Cell CSV lines and boundary CSV lines for a capacity scan."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    f01_values = np.linspace(f01_range[0], f01_range[1], resolution)
    f12_values = np.linspace(f12_range[0], f12_range[1], resolution)
    _, _, grid, numbers = _heatmap_grid(s, f01_values, f12_values)
    # Rows come straight from the arrays in one pass: each axis value is
    # formatted once, each valid cell's numbers once, and every invalid cell
    # shares one tail.
    invalid_tail = ",".join([csv_number(math.nan)] * len(numbers) + ["invalid"])
    valid = grid.valid
    valid_tails = map(
        ",".join,
        zip(*(map(csv_number, c[valid].tolist()) for c in numbers), grid.verdict[valid].tolist()),
    )
    f12_text = [csv_number(f12) for f12 in f12_values.tolist()]
    heads = (f"{f01},{f12}" for f01 in map(csv_number, f01_values.tolist()) for f12 in f12_text)
    cell_lines = [HEATMAP_HEADER] + [
        f"{head},{next(valid_tails) if ok else invalid_tail}"
        for head, ok in zip(heads, valid.tolist())
    ]
    boundary_lines = [BOUNDARY_HEADER] + [
        ",".join((csv_number(f12), csv_number(a), csv_number(b)))
        for f12, a, b in boundary_rows(s, f12_values)
    ]
    return cell_lines, boundary_lines


def default_f01_range(s: ThreeBusScenario, f12_range: tuple[float, float]) -> tuple[float, float]:
    """Default capacity scan straddles the alignment boundary: from the
    smallest F01 that can serve the bus-1 base load up to 3."""
    return (s.l1 + f12_range[0], 3.0)


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Cross-path agreement summary over a shift grid."""

    threshold: float
    binding: str
    points_total: int
    points_skipped: int
    max_dc_deviation: float
    max_sw_deviation: float
    max_kkt_residual: float
    passed: bool

    def to_text(self) -> str:
        def line(label: str, value: float, tol: float) -> str:
            verdict = "PASS" if value <= tol else "FAIL"
            return f"{label} {value:.6e}  (tolerance {tol:.0e})  {verdict}"

        return "\n".join(
            (
                f"scenario: valid (threshold {self.threshold:.6g}, "
                f"{self.binding}-limited)",
                f"grid: {self.points_total} points, {self.points_skipped} skipped "
                f"within {BREAKPOINT_EXCLUSION:.0e} of the threshold",
                line(
                    "max |analytic - numeric| bill:       ",
                    self.max_dc_deviation,
                    CROSS_PATH_TOL,
                ),
                line(
                    "max |analytic - numeric| system cost:",
                    self.max_sw_deviation,
                    CROSS_PATH_TOL,
                ),
                line(
                    "max dispatch optimality residual:    ",
                    self.max_kkt_residual,
                    KKT_TOL,
                ),
                f"result: {'PASS' if self.passed else 'FAIL'}",
            )
        )


def verify_scenario(s: ThreeBusScenario, resolution: int = 200) -> VerificationReport:
    """Replay the closed forms against independent LP solves over the grid.

    Every grid point off the threshold's immediate neighborhood gets its
    own LP, solved cold, and every solution is re-certified through the
    optimality-condition check.  A pass thus means: the LP really solved its
    instances, and the closed forms reproduce what the LP route measures.
    Unlike :func:`sweep_points`, this walks no pieces, so it checks that
    route from outside.  The LPs share only the numpy calls:
    :func:`~gridshift.lp_core.solve_many` runs each one's own simplex in one
    lock-step batch, and :func:`~gridshift.lp_core.verify_kkt_many`
    certifies them in one stacked check.
    """
    dc_objective, sw_objective = objectives(s)
    t = tau(s)

    max_dc = max_sw = max_kkt = 0.0
    deltas = delta_grid(s.L, resolution)
    checked = deltas[np.abs(deltas - t.value) > BREAKPOINT_EXCLUSION]
    if checked.size:
        lps, outcomes, sols = _solve_ed_cold(s, checked)
        reports = lp_core.verify_kkt_many(lps, sols, tolerance=KKT_TOL)
        for out, kkt in zip(outcomes, reports):
            max_kkt = max(
                max_kkt,
                kkt.primal_feasibility,
                kkt.dual_feasibility,
                kkt.complementary_slackness,
            )
            d = out.delta
            max_dc = max(max_dc, abs(dc_objective.evaluate(d) - dc_cost_numeric(s, out)))
            max_sw = max(max_sw, abs(sw_objective.evaluate(d) - sw_cost_numeric(s, out)))

    return VerificationReport(
        threshold=t.value,
        binding=t.binding,
        points_total=int(deltas.size),
        points_skipped=int(deltas.size - checked.size),
        max_dc_deviation=max_dc,
        max_sw_deviation=max_sw,
        max_kkt_residual=max_kkt,
        passed=(
            max_dc <= CROSS_PATH_TOL
            and max_sw <= CROSS_PATH_TOL
            and max_kkt <= KKT_TOL
        ),
    )
