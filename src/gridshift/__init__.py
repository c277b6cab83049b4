"""Carbon-aware load shifting on a three-bus network.

A flexible load block of size ``L`` sits at bus 2 and can move a slice
``delta`` of itself to bus 1.  The package solves the underlying economic
dispatch as a linear program to extract locational prices and marginal
emission factors, evaluates the blended price-plus-carbon objectives of the
two settlement designs (device-charging vs. system-wide), reproduces both
objectives in closed form, and classifies when the two designs pick the same
shift.
"""

from .closed_form import (
    AlignmentReport,
    DegenerateWeightsError,
    PiecewiseObjective,
    ScenarioInvalidError,
    Shift,
    classify_alignment,
    objective_dc,
    objective_sw,
    optimal_shift_dc,
    optimal_shift_sw,
)
from .dispatch import (
    DeltaRangeError,
    DispatchInfeasibleError,
    DispatchOutcome,
    build_ed,
    dc_cost_numeric,
    solve_ed,
    solve_ed_detailed,
    sw_cost_numeric,
)
from .grid_model import (
    ScenarioError,
    ScenarioParseError,
    ThreeBusScenario,
    ValidityReport,
    bundled_scenario_names,
    bundled_scenario_path,
    eta,
    parse_scenario,
    parse_scenario_file,
    serialize_scenario,
    tau,
    validate,
    write_scenario_file,
)
from .lp_core import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    KktReport,
    LinearProgram,
    LpInputError,
    LpSolution,
    SolverFailure,
    format_lp,
    solve,
    verify_kkt,
)
from .sweep import (
    HeatmapCell,
    SweepPoint,
    VerificationReport,
    alignment_cutoffs,
    boundary_rows,
    default_f01_range,
    delta_grid,
    heatmap_cells,
    heatmap_csv_lines,
    sweep_csv_lines,
    sweep_points,
    verify_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentReport",
    "DegenerateWeightsError",
    "DeltaRangeError",
    "DispatchInfeasibleError",
    "DispatchOutcome",
    "HeatmapCell",
    "INFEASIBLE",
    "KktReport",
    "LinearProgram",
    "LpInputError",
    "LpSolution",
    "OPTIMAL",
    "PiecewiseObjective",
    "ScenarioError",
    "ScenarioInvalidError",
    "ScenarioParseError",
    "Shift",
    "SolverFailure",
    "SweepPoint",
    "ThreeBusScenario",
    "UNBOUNDED",
    "ValidityReport",
    "VerificationReport",
    "alignment_cutoffs",
    "boundary_rows",
    "build_ed",
    "bundled_scenario_names",
    "bundled_scenario_path",
    "classify_alignment",
    "dc_cost_numeric",
    "default_f01_range",
    "delta_grid",
    "eta",
    "format_lp",
    "heatmap_cells",
    "heatmap_csv_lines",
    "objective_dc",
    "objective_sw",
    "optimal_shift_dc",
    "optimal_shift_sw",
    "parse_scenario",
    "parse_scenario_file",
    "serialize_scenario",
    "solve",
    "solve_ed",
    "solve_ed_detailed",
    "sw_cost_numeric",
    "sweep_csv_lines",
    "sweep_points",
    "tau",
    "validate",
    "verify_kkt",
    "verify_scenario",
    "write_scenario_file",
]
