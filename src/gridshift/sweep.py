"""Sweeps, capacity heatmaps, and the analytic-vs-numeric verification gate.

Everything here produces either structured rows for tests or deterministic
CSV text for the command-line tool: fixed column order, 12 significant
digits, LF newlines.  Identical inputs must yield byte-identical output, so
no timestamps, locales, or dict-ordering tricks are allowed anywhere.

A sweep, and the verification gate, carry the shift grid as columns from
the LP solve to the CSV or the report: the dispatch comes as
:class:`~gridshift.dispatch.DispatchColumns` (for a sweep off the pieces,
for the gate from one stack of cold solves), the closed forms are
evaluated on the whole grid with :meth:`~gridshift.closed_form.Piecewise.at`
(by the gate on either side near the threshold, with its ``sides``; see
:data:`THRESHOLD_BAND`), the settlement costs elementwise, and
:func:`sweep_csv_lines` writes those arrays through
:func:`~gridshift.grid_model.csv_lines`; :func:`sweep_points` wraps the same
columns in :class:`SweepPoint` objects.  :func:`verify_scenario` reduces its
columns to worst cases with numpy reductions, through which a NaN passes
(and fails the check).

A capacity heatmap's (F01, F12) cells are classified in
:mod:`~gridshift.closed_form`: only the shift threshold varies between
cells, so it keys them by threshold and validity (every invalid cell shares
one key) and runs the derivation that
:func:`~gridshift.closed_form.classify_alignment` runs on one scenario once
per key; no per-cell scenario is built, and the boundary is one
``np.where`` per agent.  :func:`heatmap_cells` takes every cell's fields
from :func:`~gridshift.closed_form.classify_alignment_grid`.
:func:`heatmap_csv_lines` takes the keys themselves and writes the fields
after ``f01,f12`` once per key through
:func:`~gridshift.grid_model.csv_lines`; each axis value is formatted once,
and a cell's line joins its two axis texts to its key's fields.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import lp_core
from .closed_form import (
    DegenerateWeightsError,
    _keyed_alignment,
    classify_alignment_grid,
    cutoff,
    objectives,
)
from .dispatch import (
    _solve_ed_cold,
    dc_cost_numeric,
    solve_ed_columns,
    sw_cost_numeric,
)
from .grid_model import ThreeBusScenario, csv_lines, csv_number, csv_row, tau, threshold_grid

#: Grid points this close to the threshold are checked against the nearer
#: segment of the closed forms: a cold solve of the degenerate vertex there
#: may stop in either optimal basis, and the LP's break matches the
#: threshold only to rounding, so such a point may be priced on either side.
THRESHOLD_BAND = 1e-6

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


def _axis(low: float, high: float, resolution: int) -> np.ndarray:
    """``resolution`` evenly spaced points from ``low`` to ``high``.  An axis
    longer than any float array numpy can index raises :class:`MemoryError`,
    as one numpy cannot allocate does."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if resolution > np.iinfo(np.intp).max // 8:  # 8 bytes per float64
        raise MemoryError("the grid has more points than an array can hold")
    return np.linspace(low, high, resolution)


def delta_grid(L: float, resolution: int) -> np.ndarray:
    """Uniform shift grid over [0, L] with exact endpoints."""
    return _axis(0.0, L, resolution)


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
        """This point's line of :func:`sweep_csv_lines`."""
        return csv_row(_sweep_fields(**vars(self)))


def _sweep_fields(delta, dc_analytic, dc_numeric, sw_analytic, sw_numeric, regime, lambda1, pi1):
    """The fields of a :class:`SweepPoint` (or its columns) in
    :data:`SWEEP_HEADER` order: each objective's cross-path gap after its
    two values, and the residual after the system cost."""
    return (
        delta, dc_analytic, dc_numeric, abs(dc_analytic - dc_numeric),
        sw_analytic, sw_numeric, abs(sw_analytic - sw_numeric), sw_numeric - dc_numeric,
        regime, lambda1, pi1,
    )


def _sweep_columns(s: ThreeBusScenario, resolution: int) -> tuple[np.ndarray, ...]:
    """Both objectives along the shift grid by both routes, as the columns
    of :class:`SweepPoint` in field order."""
    dc_objective, sw_objective = objectives(s)
    out = solve_ed_columns(s, delta_grid(s.L, resolution))
    d = out.delta
    # Python floats overflow to inf and turn invalid (NaN) without a
    # warning; so do these columns, which must give the same floats.
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            d,
            dc_objective.at(d),
            dc_cost_numeric(s, out),
            sw_objective.at(d),
            sw_cost_numeric(s, out),
            np.where(np.abs(out.lmp[1]) <= CROSS_PATH_TOL, "renewable", "local-generation"),
            out.lmp[1],
            out.lme[1],
        )


def sweep_points(s: ThreeBusScenario, resolution: int = 200) -> list[SweepPoint]:
    """Evaluate both objectives along the shift grid by both routes.

    Raises :class:`ScenarioInvalidError` on an invalid scenario (via the
    closed-form construction).  Every grid point is emitted, including any
    that fall on the threshold itself.  The dispatch side comes from
    :func:`~gridshift.dispatch.solve_ed_columns`, which reads every point
    off the LP's pieces (one solve, one pivot per break);
    :func:`verify_scenario` is the check that cold-solves every point.
    """
    columns = (c.tolist() for c in _sweep_columns(s, resolution))
    return [SweepPoint(*row) for row in zip(*columns)]


def sweep_csv_lines(s: ThreeBusScenario, resolution: int = 200) -> list[str]:
    """:func:`sweep_points` as CSV, formatted straight from its columns."""
    columns = _sweep_columns(s, resolution)
    with np.errstate(over="ignore", invalid="ignore"):  # as on Python floats
        return csv_lines(SWEEP_HEADER, _sweep_fields(*columns))


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
        """This cell's line of :func:`heatmap_csv_lines` (fields in order)."""
        return csv_row(vars(self).values())


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
    f01, f12 = (np.asarray(a, dtype=float).ravel() for a in (f01_values, f12_values))
    grid = classify_alignment_grid(s, f01[:, None], f12)  # F01 down the rows
    columns = (
        np.repeat(f01, f12.size), np.tile(f12, f01.size), grid.delta_star_sw, grid.delta_star_dc,
        grid.sw_at_sw_choice, grid.sw_at_dc_choice, grid.suboptimality_ratio, grid.verdict,
    )
    return [HeatmapCell(*row) for row in zip(*(c.ravel().tolist() for c in columns))]


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


def _boundary_columns(
    s: ThreeBusScenario, f12_values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F01 values where the threshold crosses each agent's cutoff, per F12,
    as the columns ``f12, f01_dc, f01_sw``.

    For a fixed F12 the threshold grows with F01 until the renewable term
    caps it; a cutoff above that cap is unreachable and yields NaN.  These
    curves are the analytic alignment boundaries a heatmap should show.
    """
    f12 = np.asarray(f12_values, dtype=float)
    plateau = -s.l0 - s.F02 - f12 - s.l1
    f01_dc, f01_sw = (
        np.where(c <= plateau, c + s.l1 + f12, math.nan) for c in alignment_cutoffs(s)
    )
    return f12, f01_dc, f01_sw


def boundary_rows(
    s: ThreeBusScenario, f12_values: np.ndarray
) -> list[tuple[float, float, float]]:
    """:func:`_boundary_columns` as rows ``(f12, f01_dc, f01_sw)``."""
    return list(zip(*(column.tolist() for column in _boundary_columns(s, f12_values))))


def heatmap_csv_lines(
    s: ThreeBusScenario,
    f01_range: tuple[float, float],
    f12_range: tuple[float, float],
    resolution: int = 50,
) -> tuple[list[str], list[str]]:
    """Cell CSV lines and boundary CSV lines for a capacity scan: the fields
    after ``f01,f12`` once per distinct threshold and validity."""
    f01_values, f12_values = (_axis(*r, resolution) for r in (f01_range, f12_range))
    # Row-major with F01 outer: the F01 column broadcasts against the F12 row.
    grid, index = _keyed_alignment(s, *threshold_grid(s, f01_values[:, None], f12_values))
    _, *tails = csv_lines("", (
        grid.delta_star_sw, grid.delta_star_dc, grid.sw_at_sw_choice,
        grid.sw_at_dc_choice, grid.suboptimality_ratio, grid.verdict,
    ))
    tails = np.array(tails, dtype=object)[index.ravel()].tolist()
    f01_text, f12_text = ([csv_number(x) for x in a.tolist()] for a in (f01_values, f12_values))
    f01_text = [text for text in f01_text for _ in range(resolution)]
    return (
        [HEATMAP_HEADER, *map(",".join, zip(f01_text, f12_text * resolution, tails))],
        csv_lines(BOUNDARY_HEADER, _boundary_columns(s, f12_values)),
    )


def default_f01_range(s: ThreeBusScenario, f12_range: tuple[float, float]) -> tuple[float, float]:
    """Default capacity scan straddles the alignment boundary: from the
    smallest F01 that can serve the bus-1 base load up to 3."""
    return (s.l1 + f12_range[0], 3.0)


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Cross-path agreement summary over a shift grid: each worst case, and
    the grid shift where it sits (``worst_*_delta``; the first NaN's shift
    where a column holds a NaN).  Its verdict, :attr:`passed`, and every
    PASS/FAIL of :meth:`to_text` read :meth:`checks`."""

    threshold: float
    binding: str
    points_total: int
    max_dc_deviation: float
    max_sw_deviation: float
    max_kkt_residual: float
    worst_dc_delta: float
    worst_sw_delta: float
    worst_kkt_delta: float

    def checks(self) -> list[tuple[str, float, float, float, bool]]:
        """Each check's label, worst value, tolerance and the shift of the
        worst value, and whether the value is within the tolerance (a NaN is
        not), in line order."""
        return [
            (label, value, tolerance, delta, value <= tolerance)
            for label, value, tolerance, delta in (
                ("max |analytic - numeric| bill:       ",
                 self.max_dc_deviation, CROSS_PATH_TOL, self.worst_dc_delta),
                ("max |analytic - numeric| system cost:",
                 self.max_sw_deviation, CROSS_PATH_TOL, self.worst_sw_delta),
                ("max dispatch optimality residual:    ",
                 self.max_kkt_residual, KKT_TOL, self.worst_kkt_delta),
            )
        ]

    @property
    def passed(self) -> bool:
        """Every check holds."""
        return all(ok for *_, ok in self.checks())

    def to_text(self) -> str:
        return "\n".join((
            f"scenario: valid (threshold {self.threshold:.6g}, {self.binding}-limited)",
            f"grid: {self.points_total} points, either side within "
            f"{THRESHOLD_BAND:.0e} of the threshold",
            *(
                f"{label} {value:.6e}  (tolerance {tolerance:.0e})  {'PASS' if ok else 'FAIL'}"
                for label, value, tolerance, _, ok in self.checks()
            ),
            f"result: {'PASS' if self.passed else 'FAIL'}",
        ))


def verify_scenario(s: ThreeBusScenario, resolution: int = 200) -> VerificationReport:
    """Replay the closed forms against independent LP solves over the grid.

    Every grid point gets its own LP, solved cold, and every solution is
    re-certified through the optimality-condition check.  A pass thus
    means: the LP really solved its instances, and the closed forms
    reproduce what the LP route measures.  A point is compared with the
    closed forms on its side of the threshold, or within
    :data:`THRESHOLD_BAND` of it on the nearer side.  Unlike
    :func:`sweep_points`, this walks no pieces, so it checks that
    route from outside.  The LPs share only the numpy calls:
    :func:`~gridshift.lp_core.solve_rhs` runs each one's own simplex on the
    dispatch LP at a stack of right-hand sides, where shifts whose pivots
    so far are the same share one pricing per round, and
    :func:`~gridshift.lp_core.kkt_residuals` certifies them in one stacked
    check.  Every worst case is a reduction over columns that lets a NaN
    through, so a NaN deviation or residual fails the check; its shift is
    the first that holds the worst value, or the first NaN.
    """
    dc_objective, sw_objective = objectives(s)
    t = tau(s)
    deltas = delta_grid(s.L, resolution)
    lp, rhs, sols, out = _solve_ed_cold(s, deltas)
    residuals = lp_core.kkt_residuals(
        lp.objective, lp.eq_matrix, rhs, lp.lower_bounds, lp.upper_bounds,
        sols.primal, sols.duals, KKT_TOL,
    )
    near = np.abs(deltas - t.value) <= THRESHOLD_BAND
    with np.errstate(over="ignore", invalid="ignore"):
        # In the band the nearer segment's gap counts; np.minimum keeps a NaN.
        dc, sw = (
            np.where(near, np.minimum(*(np.abs(v - numeric) for v in f.sides(deltas))),
                     np.abs(f.at(deltas) - numeric))
            for f, numeric in ((dc_objective, dc_cost_numeric(s, out)),
                               (sw_objective, sw_cost_numeric(s, out)))
        )
    (max_dc, at_dc), (max_sw, at_sw), (max_kkt, at_kkt) = (
        (float(np.max(v)), float(deltas[np.argmax(v)])) for v in (dc, sw, np.max(residuals, axis=0))
    )

    return VerificationReport(
        threshold=t.value, binding=t.binding, points_total=int(deltas.size),
        max_dc_deviation=max_dc, max_sw_deviation=max_sw, max_kkt_residual=max_kkt,
        worst_dc_delta=at_dc, worst_sw_delta=at_sw, worst_kkt_delta=at_kkt,
    )
