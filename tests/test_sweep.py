"""Unit tests for grid sweeps, capacity heatmaps, and the verification gate."""

import collections
import dataclasses
import math

import numpy as np
import pytest

import scenario_gen
from gridshift import closed_form, dispatch, grid_model, lp_core, sweep
from gridshift.closed_form import (
    DECISION_TOL,
    DegenerateWeightsError,
    ScenarioInvalidError,
    cutoff,
)
from gridshift.grid_model import TOLERANCE, ScenarioError, csv_number, tau
from gridshift.sweep import (
    BOUNDARY_HEADER,
    CROSS_PATH_TOL,
    HEATMAP_HEADER,
    KKT_TOL,
    SWEEP_HEADER,
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


def _count_calls(monkeypatch, module, name) -> list:
    """Record each call of ``module.name`` and pass it through."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _batch_sizes(calls) -> list[int]:
    """The number of right-hand sides in each recorded call of the solver's
    stacked face (``lp_core.solve_rhs``), through which every LP solve goes."""
    return [len(rhs) for _, rhs in calls]


def _count_constructions(monkeypatch, classes) -> collections.Counter:
    """Count, by class name, the instances of ``classes`` constructed."""
    counts = collections.Counter()
    for cls in classes:

        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


class TestDeltaGrid:
    def test_endpoints_exact(self):
        grid = delta_grid(1.0, 5)
        np.testing.assert_allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            delta_grid(1.0, 1)


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


class TestSweep:
    def test_points_agree_across_paths(self):
        s = scenario_gen.canonical_scenario()
        points = sweep_points(s, resolution=11)
        assert len(points) == 11
        for p in points:
            assert p.dc_numeric == pytest.approx(p.dc_analytic, abs=1e-9)
            assert p.sw_numeric == pytest.approx(p.sw_analytic, abs=1e-9)
            assert p.residual == pytest.approx(p.sw_numeric - p.dc_numeric)
        # The sweep's columns also equal one scalar evaluation per point,
        # bit for bit: solve_ed, the settlement costs of its outcome, and
        # the closed forms' evaluate.  The draws include thresholds on a
        # grid node (the canonical one at 11 points, four moved onto a node
        # of the 200-point grid) and a threshold at the block edge.
        mix = scenario_gen.grid_mix()
        cases = [(scenario_gen.canonical_scenario(), 11), (mix[-3], 21)]
        cases += [(s, 41) for s in mix[:36:9]] + [(s, 200) for s in mix[36:56:5]]
        on_node = 0
        for s, resolution in cases:
            dc, sw = closed_form.objectives(s)
            points = sweep_points(s, resolution)
            on_node += min(abs(p.delta - tau(s).value) for p in points) <= 1e-12
            for p in points:
                o = dispatch.solve_ed(s, p.delta)
                expected = (
                    p.delta, dc.evaluate(p.delta), dispatch.dc_cost_numeric(s, o),
                    sw.evaluate(p.delta), dispatch.sw_cost_numeric(s, o), o.lmp[1], o.lme[1],
                )
                got = (p.delta, p.dc_analytic, p.dc_numeric, p.sw_analytic, p.sw_numeric, p.lambda1, p.pi1)
                assert _bits(got) == _bits(expected)
                assert p.regime == ("renewable" if abs(o.lmp[1]) <= 1e-6 else "local-generation")
            assert sweep_csv_lines(s, resolution)[1:] == [p.to_csv_row() for p in points]
        assert on_node >= 6

    def test_regime_switches_at_threshold(self):
        s = scenario_gen.canonical_scenario()
        points = sweep_points(s, resolution=11)
        # Grid point 0.1 sits on the threshold; left-limit prices keep it in
        # the renewable regime, and everything beyond prices at the local
        # generator.
        regimes = [p.regime for p in points]
        assert regimes[0] == "renewable"
        assert regimes[1] == "renewable"
        assert all(r == "local-generation" for r in regimes[2:])

    def test_csv_lines_frozen(self):
        s = scenario_gen.canonical_scenario()
        lines = sweep_csv_lines(s, resolution=9)
        assert lines[0] == SWEEP_HEADER
        assert lines[1] == "0,2,2,0,4,4,0,2,renewable,0,0"
        assert lines[-1] == "1,1,1,0,4,4,0,3,local-generation,1,1"
        assert len(lines) == 10

    def test_invalid_scenario_raises(self):
        with pytest.raises(ScenarioInvalidError):
            sweep_points(scenario_gen.canonical_scenario(c2=0.5))

    def test_zero_weighted_overflow_stays_out(self):
        # Offers near the float ceiling pass validation, and the system
        # settlement's price part overflows to inf; weighted by zero it must
        # drop out rather than make the numeric costs 0 * inf = NaN.
        s = scenario_gen.canonical_scenario(c1=2e307, c2=1e308, alpha_dc=0.0, alpha_sw=0.0)
        assert grid_model.validate(s).valid
        assert sweep_csv_lines(s, 3)[1] == "0,2,2,0,4,4,0,2,renewable,0,0"
        for p in sweep_points(s, 200):
            fields = (p.dc_analytic, p.dc_numeric, p.sw_analytic, p.sw_numeric, p.residual)
            assert all(math.isfinite(v) for v in fields), p
        assert verify_scenario(s).passed

    def test_solves_once_per_basis(self, monkeypatch):
        # Two price regimes, one solve: the walk solves at shift 0 and
        # reaches the right regime by one pivot.  linspace(0, 1, 11) puts a
        # node on the 0.1 threshold, whose degenerate vertex costs nothing
        # more: the node takes the left piece's prices.
        solves = _count_calls(monkeypatch, lp_core, "solve_rhs")
        sweep_points(scenario_gen.canonical_scenario(), 200)
        assert _batch_sizes(solves) == [1]
        solves.clear()
        sweep_points(scenario_gen.canonical_scenario(), 11)
        assert _batch_sizes(solves) == [1]

    def test_validates_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, closed_form, "validate")
        sweep_points(scenario_gen.canonical_scenario(), 11)
        assert len(calls) == 1

    def test_builds_no_object_per_point(self, monkeypatch):
        # The grid travels as columns from the LP to the CSV and the report:
        # a 200-point sweep builds the walk's one LP and its one solution,
        # and a 200-point verify the one dispatch LP it solves at a stack of
        # right-hand sides; no point gets an object of its own.
        counts = _count_constructions(
            monkeypatch,
            (
                lp_core.LinearProgram,
                lp_core.LpSolution,
                lp_core.KktReport,
                dispatch.DispatchOutcome,
                sweep.SweepPoint,
            ),
        )
        s = scenario_gen.canonical_scenario()
        assert len(sweep_csv_lines(s, 200)) == 201
        assert counts == {"LinearProgram": 1, "LpSolution": 1}
        counts.clear()
        assert verify_scenario(s, 200).passed
        assert counts == {"LinearProgram": 1}


class TestHeatmap:
    def test_cell_count_and_order(self):
        s = scenario_gen.canonical_scenario()
        f01 = np.array([1.2, 1.8, 2.4])
        f12 = np.array([0.1, 0.4])
        cells = heatmap_cells(s, f01, f12)
        assert len(cells) == 6
        # Row-major with F01 as the outer loop.
        assert [(c.F01, c.F12) for c in cells[:3]] == [
            (1.2, 0.1),
            (1.2, 0.4),
            (1.8, 0.1),
        ]

    def test_invalid_cells_marked_not_dropped(self):
        s = scenario_gen.canonical_scenario()
        cells = heatmap_cells(s, np.array([0.5, 1.5]), np.array([0.4]))
        # F01 = 0.5 cannot even carry the bus-1 base load.
        assert cells[0].verdict == "invalid"
        assert math.isnan(cells[0].ratio)
        assert cells[1].verdict == "misaligned"
        assert cells[1].ratio > 1.0

    def test_verdicts_track_line_capacity(self):
        # Along F12 = 0.4: small F01 starves the corridor (invalid), the
        # canonical 1.5 misaligns, and a wide line aligns the two optima.
        s = scenario_gen.canonical_scenario()
        cells = heatmap_cells(s, np.array([1.5, 2.0]), np.array([0.4]))
        assert [c.verdict for c in cells] == ["misaligned", "aligned"]

    def test_csv_lines_and_headers(self):
        s = scenario_gen.canonical_scenario()
        cell_lines, boundary_lines = heatmap_csv_lines(
            s, (1.0, 3.0), (0.0, 1.0), resolution=4
        )
        assert cell_lines[0] == HEATMAP_HEADER
        assert len(cell_lines) == 1 + 16
        assert boundary_lines[0] == BOUNDARY_HEADER
        assert len(boundary_lines) == 1 + 4

    def test_default_f01_range_starts_at_base_load(self):
        s = scenario_gen.canonical_scenario()
        assert default_f01_range(s, (0.0, 1.0)) == (pytest.approx(1.0), 3.0)


#: Unequal-weight variants of the canonical scenario (as in test_golden).
SPLIT_CLASSIC = dict(alpha_dc=0.6, alpha_sw=0.2, e1=1.6, e2=2.5)
SPLIT_REVERSE = dict(alpha_dc=1.0, alpha_sw=0.0, e1=0.1, F01=2.1)


def _scalar_heatmap_row(s, f01: float, f12: float) -> str:
    """One heatmap row the per-cell way: build the cell's scenario and run
    the scalar classification on it."""
    try:
        report = closed_form.classify_alignment(dataclasses.replace(s, F01=f01, F12=f12))
    except (ScenarioError, ScenarioInvalidError, DegenerateWeightsError):
        numbers, verdict = [math.nan] * 5, "invalid"
    else:
        numbers = [
            report.delta_star_sw,
            report.delta_star_dc,
            report.sw_at_sw_choice,
            report.sw_at_dc_choice,
            report.suboptimality_ratio,
        ]
        verdict = report.verdict
    return ",".join([csv_number(x) for x in (f01, f12, *numbers)] + [verdict])


def _assert_cells_match_scalar(s, f01_values, f12_values) -> list[str]:
    rows = [c.to_csv_row() for c in heatmap_cells(s, f01_values, f12_values)]
    expected = [
        _scalar_heatmap_row(s, float(a), float(b)) for a in f01_values for b in f12_values
    ]
    assert rows == expected
    return [row.rsplit(",", 1)[1] for row in rows]


def _offsets(center: float, scale: float) -> np.ndarray:
    """``center`` itself, its neighbouring floats, and steps of half and
    twice ``scale`` to either side."""
    return np.array(
        [
            center - 2 * scale,
            center - scale / 2,
            np.nextafter(center, -np.inf),
            center,
            np.nextafter(center, np.inf),
            center + scale / 2,
            center + 2 * scale,
        ]
    )


class TestHeatmapArrayRoute:
    """The scan is array expressions over the cells; every row must equal
    what building the cell's scenario and classifying it alone gives."""

    def test_csv_matches_scalar_reference_on_random_draws(self):
        rng = np.random.default_rng(404)
        verdicts = collections.Counter()
        for _ in range(20):
            for s in (
                scenario_gen.random_valid_scenario(rng),
                scenario_gen.random_misaligned_scenario(rng),
                scenario_gen.random_split_weight_scenario(rng),
            ):
                # Both ranges start below zero (and so below l1) and end past
                # where the bus-2 and threshold conditions fail.
                f01_range = (-0.4, s.F01 + s.L + 0.8)
                f12_range = (-0.3, s.F12 + s.L + 0.5)
                lines, _ = heatmap_csv_lines(s, f01_range, f12_range, 17)
                f01_values = np.linspace(*f01_range, 17)
                f12_values = np.linspace(*f12_range, 17)
                assert lines[1:] == [
                    _scalar_heatmap_row(s, float(a), float(b))
                    for a in f01_values
                    for b in f12_values
                ]
                assert lines[1:] == [
                    c.to_csv_row() for c in heatmap_cells(s, f01_values, f12_values)
                ]
                verdicts.update(line.rsplit(",", 1)[1] for line in lines[1:])
        assert min(verdicts[v] for v in ("aligned", "misaligned", "invalid")) > 100

    @pytest.mark.parametrize(
        "overrides, agent",
        [({}, "dc"), (SPLIT_CLASSIC, "dc"), (SPLIT_REVERSE, "dc"), (SPLIT_REVERSE, "sw")],
        ids=["canonical-dc", "split_classic-dc", "split_reverse-dc", "split_reverse-sw"],
    )
    def test_threshold_on_a_cutoff(self, overrides, agent):
        # F01 = cutoff + l1 + F12 puts the congestion-limited threshold on
        # the agent's (positive) cutoff, where stopping at the threshold wins
        # the tie; the offsets probe both sides of DECISION_TOL.
        s = scenario_gen.canonical_scenario(**overrides)
        cut = cutoff(s, agent)
        verdicts = _assert_cells_match_scalar(
            s, _offsets(cut + s.l1 + 0.25, DECISION_TOL), np.array([0.25])
        )
        assert "invalid" not in verdicts

    def test_exact_cutoff_on_linspace_grid(self):
        # Canonical's data-center cutoff is 0.5, met exactly at F01 = 1.75,
        # F12 = 0.25; stopping at the threshold wins the tie, so both agents
        # stop there and the cell is aligned at ratio 1.
        s = scenario_gen.canonical_scenario()
        lines, _ = heatmap_csv_lines(s, (1.5, 2.0), (0.0, 0.5), 5)
        assert lines[1 + 2 * 5 + 2] == "1.75,0.25,0.5,0.5,3,3,1,aligned"
        assert lines[1:] == [
            _scalar_heatmap_row(s, float(a), float(b))
            for a in np.linspace(1.5, 2.0, 5)
            for b in np.linspace(0.0, 0.5, 5)
        ]

    def test_shared_threshold_under_different_validity(self):
        # The CSV writes each distinct threshold's fields once; a threshold
        # that one valid and one invalid cell share must still print each
        # cell's own fields.  Steps of 0.125 are exact, so the thresholds
        # repeat bit for bit.
        s = scenario_gen.canonical_scenario()
        f01_values, f12_values = np.linspace(1.0, 2.0, 9), np.linspace(0.0, 1.0, 9)
        f01, f12 = (a.ravel() for a in np.meshgrid(f01_values, f12_values, indexing="ij"))
        t, valid = grid_model.threshold_grid(s, f01, f12)
        assert set(t[valid].tolist()) & set(t[~valid].tolist())
        lines, _ = heatmap_csv_lines(s, (1.0, 2.0), (0.0, 1.0), 9)
        expected = [
            _scalar_heatmap_row(s, float(a), float(b)) for a in f01_values for b in f12_values
        ]
        assert lines[1:] == expected
        assert [c.to_csv_row() for c in heatmap_cells(s, f01_values, f12_values)] == expected

    def test_congestion_equals_renewable(self):
        # F01 = -l0 - F02 makes both capacity terms equal for every F12.
        s = scenario_gen.canonical_scenario()
        f01 = _offsets(-s.l0 - s.F02, TOLERANCE)
        verdicts = _assert_cells_match_scalar(s, f01, np.array([0.0, 0.25, 0.4]))
        assert "invalid" not in verdicts
        # Within TOLERANCE of the tie the congestion term sets the threshold,
        # even where it is the larger one; both agents stop there at F12=0.25.
        cells = heatmap_cells(s, f01[1:-1], np.array([0.25]))
        assert [c.delta_star_dc for c in cells] == [(a - 0.25) - s.l1 for a in f01[1:-1]]

    def test_threshold_at_block(self):
        # F01 = L + l1 + F12 puts the threshold on L, where the non-strict
        # within-block condition still holds; just beyond it fails.
        s = scenario_gen.canonical_scenario(l0=-2.9)
        verdicts = _assert_cells_match_scalar(
            s, _offsets(s.L + s.l1 + 0.25, TOLERANCE), np.array([0.25])
        )
        assert verdicts[3] != "invalid" and verdicts[-1] == "invalid"

    def test_system_optimum_costing_zero_or_less(self):
        # Both routes divide by the system optimum's cost alike: by 0 into
        # inf, by -0.1 into a negative ratio, with no exception or warning.
        for l2, cost, ratio in ((2.25, 0.0, math.inf), (2.2, -0.1, -26.5000000000001)):
            s = scenario_gen.zero_cost_scenario(l2=l2)
            report = closed_form.classify_alignment(s)
            assert report.sw_at_sw_choice == pytest.approx(cost, abs=1e-12)
            assert report.suboptimality_ratio == ratio
            verdicts = _assert_cells_match_scalar(
                s, np.linspace(2.4, 2.6, 5), np.linspace(0.9, 1.1, 5)
            )
            assert verdicts.count("misaligned") >= 20

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(alpha_dc=0.0, e2=1e-12),
            dict(alpha_sw=0.0, e2=1e-12),
            dict(alpha_dc=0.0, alpha_sw=0.0, e2=DECISION_TOL),
        ],
    )
    def test_degenerate_weights_make_every_cell_invalid(self, overrides):
        s = scenario_gen.canonical_scenario(**overrides)
        f01_values, f12_values = np.linspace(-0.5, 3.0, 8), np.linspace(-0.2, 1.0, 7)
        verdicts = _assert_cells_match_scalar(s, f01_values, f12_values)
        assert set(verdicts) == {"invalid"}
        # Some cells are valid scenarios; the weights alone void them.
        f01, f12 = np.meshgrid(f01_values, f12_values, indexing="ij")
        assert grid_model.threshold_grid(s, f01, f12)[1].any()
        grid = closed_form.classify_alignment_grid(s, f01, f12)
        assert grid.verdict.shape == (8, 7) and set(grid.verdict.ravel()) == {"invalid"}
        assert all(np.isnan(column).all() for column in grid[1:])

    def test_non_finite_line_limits_are_invalid(self):
        s = scenario_gen.canonical_scenario()
        f01 = np.array([np.nan, -np.inf, np.inf, -1e-300, -0.0, 1.5])
        f12 = np.array([np.nan, np.inf, -0.0, 0.4])
        with np.errstate(all="raise"):
            verdicts = _assert_cells_match_scalar(s, f01, f12)
        # Only F01 = 1.5 is a usable line limit; F12 = -0.0 is a zero limit.
        assert verdicts[-2:] == ["aligned", "misaligned"]
        assert verdicts.count("invalid") == len(verdicts) - 2

    def test_each_distinct_threshold_classified_once(self, monkeypatch):
        # closed_form alone keys the cells: a heatmap derives its thresholds
        # once, and the alignment runs once on the distinct valid ones.
        s = scenario_gen.canonical_scenario()
        f01_range = default_f01_range(s, (0.0, 1.0))
        derivations = [_count_calls(monkeypatch, m, "threshold_grid") for m in (sweep, closed_form)]
        heatmap_csv_lines(s, f01_range, (0.0, 1.0), 50)
        assert sum(map(len, derivations)) == 1
        f01, f12 = np.meshgrid(np.linspace(*f01_range, 50), np.linspace(0.0, 1.0, 50), indexing="ij")
        t, valid = grid_model.threshold_grid(s, f01, f12)
        alignments = _count_calls(monkeypatch, closed_form, "_alignment")
        grid = closed_form.classify_alignment_grid(s, f01, f12)
        ((_, thresholds),) = alignments
        assert thresholds.size < valid.sum()
        assert sorted(thresholds.view(np.int64)) == np.unique(t[valid].view(np.int64)).tolist()
        # A 2-D call keeps the cells' shape and equals the raveled call.
        flat = closed_form.classify_alignment_grid(s, f01.ravel(), f12.ravel())
        assert grid.verdict.shape == f01.shape
        assert grid.verdict.ravel().tolist() == flat.verdict.tolist()
        for column, flat_column in zip(grid[1:], flat[1:]):
            assert column.shape == f01.shape and _bits(column.ravel()) == _bits(flat_column)

    def test_no_per_cell_scenarios_or_scalar_classification(self, monkeypatch):
        s = scenario_gen.canonical_scenario()
        builds = _count_calls(monkeypatch, grid_model.ThreeBusScenario, "__post_init__")
        validates = _count_calls(monkeypatch, grid_model, "validate")
        validates_cf = _count_calls(monkeypatch, closed_form, "validate")
        classifies = _count_calls(monkeypatch, closed_form, "classify_alignment")
        cells, _ = heatmap_csv_lines(s, default_f01_range(s, (0.0, 1.0)), (0.0, 1.0), 50)
        assert len(cells) == 1 + 2500
        assert builds == []
        assert len(validates) + len(validates_cf) <= 1
        assert classifies == []
        # A copy imported into sweep would escape the counter above.
        assert not hasattr(sweep, "classify_alignment")


class TestAnalyticBoundary:
    def test_canonical_cutoffs(self):
        dc_cut, sw_cut = alignment_cutoffs(scenario_gen.canonical_scenario())
        assert dc_cut == pytest.approx(0.5)
        assert sw_cut == pytest.approx(0.0)

    def test_boundary_curve_values(self):
        s = scenario_gen.canonical_scenario()
        rows = boundary_rows(s, np.array([0.0, 0.25, 0.75]))
        # F01 on the curve = cutoff + l1 + F12 while the congestion term is
        # the binding one; past that the renewable plateau caps the curve.
        assert rows[0] == (pytest.approx(0.0), pytest.approx(1.5), pytest.approx(1.0))
        assert rows[1] == (
            pytest.approx(0.25),
            pytest.approx(1.75),
            pytest.approx(1.25),
        )
        f12, dc_f01, sw_f01 = rows[2]
        assert math.isnan(dc_f01)  # plateau (0.25) sits below the 0.5 cutoff
        assert sw_f01 == pytest.approx(1.75)

    def test_rows_equal_the_per_row_formula(self):
        # The rows come from one array expression per agent; each must equal,
        # to the bit, the formula evaluated one F12 value at a time.
        rng = np.random.default_rng(12)
        nan_cells = 0
        for _ in range(30):
            s = scenario_gen.random_split_weight_scenario(rng)
            f12_values = np.linspace(-0.3, s.F12 + s.L + 0.5, 13)
            cutoffs = alignment_cutoffs(s)
            expected = []
            for f12 in f12_values.tolist():
                plateau = -s.l0 - s.F02 - f12 - s.l1
                f01 = [c + s.l1 + f12 if c <= plateau else math.nan for c in cutoffs]
                expected.append((f12, *f01))
            rows = boundary_rows(s, f12_values)
            assert all(type(x) is float for row in rows for x in row)
            np.testing.assert_array_equal(np.array(rows), np.array(expected))
            nan_cells += int(np.isnan(np.array(rows)).sum())
        assert 0 < nan_cells < 30 * 13 * 2

    def test_heatmap_cells_respect_boundary(self):
        # Every valid cell left of the device-side boundary curve must be
        # misaligned, every cell right of it aligned.
        s = scenario_gen.canonical_scenario()
        f01_values = np.linspace(1.0, 3.0, 12)
        f12_values = np.linspace(0.0, 1.0, 12)
        cells = heatmap_cells(s, f01_values, f12_values)
        dc_cut, _ = alignment_cutoffs(s)
        for cell in cells:
            if cell.verdict == "invalid":
                continue
            t = tau(dataclasses.replace(s, F01=cell.F01, F12=cell.F12)).value
            expected = "aligned" if t >= dc_cut - 1e-9 else "misaligned"
            assert cell.verdict == expected, (cell.F01, cell.F12)

    def test_degenerate_weights_leave_cutoff_undefined(self):
        # A bus-2 rate within the decision tolerance of zero leaves the bill
        # without an optimum, so every cell is invalid and the data-center
        # boundary column must not report a curve either.
        s = scenario_gen.canonical_scenario(alpha_dc=0.0, e2=1e-12)
        assert math.isnan(alignment_cutoffs(s)[0])
        cell_lines, boundary_lines = heatmap_csv_lines(s, (1.4, 3.0), (0.0, 1.0), 4)
        assert all(line.endswith(",invalid") for line in cell_lines[1:])
        assert [line.split(",")[1] for line in boundary_lines[1:]] == ["nan"] * 4


class TestVerification:
    def test_canonical_passes(self):
        report = verify_scenario(scenario_gen.canonical_scenario(), resolution=50)
        assert report.passed
        assert report.points_total == 50
        assert report.points_skipped == 0
        assert report.max_dc_deviation <= 1e-9
        assert report.max_sw_deviation <= 1e-9
        assert report.max_kkt_residual <= 1e-10

    def test_grid_point_on_threshold_is_skipped(self):
        # linspace(0, 1, 11) hits the 0.1 threshold exactly.
        report = verify_scenario(scenario_gen.canonical_scenario(), resolution=11)
        assert report.points_skipped == 1
        assert report.passed

    def test_threshold_at_block_edge_passes(self):
        s = scenario_gen.canonical_scenario(F01=2.4, l0=-2.9)
        report = verify_scenario(s, resolution=21)
        assert report.threshold == pytest.approx(1.0)
        assert report.points_skipped == 1  # the L endpoint itself
        assert report.passed

    @pytest.mark.parametrize("resolution", [200, 2])
    def test_grid_with_every_point_skipped_does_not_pass(self, resolution):
        # A block of 1e-6 puts every grid point within the exclusion band
        # around the threshold (5e-7): a report that checks nothing fails.
        report = verify_scenario(scenario_gen.canonical_scenario(L=1e-6, F01=1.4000005), resolution)
        assert report.threshold == pytest.approx(5e-7)
        assert report.points_skipped == report.points_total == resolution
        assert not report.passed
        assert report.to_text().endswith("result: FAIL (no grid point checked)")
        assert all(math.isnan(delta) for _, _, _, delta, _ in report.checks())

    def test_verdict_agrees_with_every_mark(self):
        # The verdict and each line's PASS/FAIL read one list of checks: a
        # worst value passes at its tolerance and fails above it or as NaN,
        # and a grid with no checked point fails with every line passing.
        base = verify_scenario(scenario_gen.canonical_scenario(), resolution=11)
        tolerances = {
            "max_dc_deviation": CROSS_PATH_TOL,
            "max_sw_deviation": CROSS_PATH_TOL,
            "max_kkt_residual": KKT_TOL,
        }
        cases = [(base, True), (dataclasses.replace(base, points_skipped=base.points_total), False)]
        for name, tol in tolerances.items():
            for value, passes in ((math.nan, False), (math.nextafter(tol, 1.0), False), (tol, True)):
                cases.append((dataclasses.replace(base, **{name: value}), passes))
        for report, passes in cases:
            lines = report.to_text().splitlines()
            marks = [line.rsplit("  ", 1)[1] for line in lines[2:5]]
            assert marks == [
                "PASS" if getattr(report, name) <= tol else "FAIL" for name, tol in tolerances.items()
            ]
            checked = report.points_skipped < report.points_total
            assert report.passed is passes is (checked and marks == ["PASS"] * 3)
            assert lines[-1] == (
                ("result: PASS" if passes else "result: FAIL")
                + ("" if checked else " (no grid point checked)")
            )

    @pytest.mark.parametrize("draw", ["canonical", "seed-5"])
    def test_worst_shift_holds_the_worst_value(self, draw):
        # Each worst case names a grid shift; a lone cold solve there gives
        # back the reported maximum, to the bit.
        if draw == "canonical":
            s = scenario_gen.canonical_scenario()
        else:
            s = scenario_gen.random_valid_scenario(np.random.default_rng(5))
        report = verify_scenario(s, resolution=40)
        dc_objective, sw_objective = closed_form.objectives(s)
        grid = delta_grid(s.L, 40).tolist()

        def kkt(out, sol):
            k = lp_core.verify_kkt(dispatch.build_ed(s, out.delta), sol)
            return max(k.primal_feasibility, k.dual_feasibility, k.complementary_slackness)

        gaps = (
            lambda out, sol: abs(dc_objective.at(out.delta) - dispatch.dc_cost_numeric(s, out)),
            lambda out, sol: abs(sw_objective.at(out.delta) - dispatch.sw_cost_numeric(s, out)),
            kkt,
        )
        for (_, value, _, delta, _), gap in zip(report.checks(), gaps):
            assert delta in grid
            assert gap(*dispatch.solve_ed_detailed(s, delta)) == value

    def test_invalid_scenario_raises(self):
        with pytest.raises(ScenarioInvalidError):
            verify_scenario(scenario_gen.canonical_scenario(l2=0.5))

    def test_cold_solves_and_certifies_every_point(self, monkeypatch):
        # verify is the independent check on the sweep's pieces: one cold
        # solve and one optimality check per grid point off the threshold,
        # and no other solve.  The solver is handed the dispatch LP and a
        # stack of right-hand sides alone, never a basis to start from, and
        # the check certifies what it returned.
        stacks, checks = [], []
        real_solve_rhs, real_kkt = lp_core.solve_rhs, lp_core.kkt_residuals

        def solve_rhs(*args):
            stacks.append((args, real_solve_rhs(*args)))
            return stacks[-1][1]

        def kkt_residuals(*args):
            checks.append(args)
            return real_kkt(*args)

        monkeypatch.setattr(lp_core, "solve_rhs", solve_rhs)
        monkeypatch.setattr(lp_core, "kkt_residuals", kkt_residuals)
        s = scenario_gen.canonical_scenario()
        report = verify_scenario(s, resolution=11)
        assert report.points_skipped == 1
        assert len(stacks) == len(checks) == 1
        ((lp, rhs), sols), = stacks
        assert len(rhs) == len(sols.primal) == 10
        shifts = np.asarray(rhs)[:, 1] - s.l1
        expected = [d for d in delta_grid(s.L, 11) if abs(d - tau(s).value) > 1e-6]
        np.testing.assert_allclose(shifts, expected, rtol=0.0, atol=1e-12)
        (c, A, b, lo, hi, x, y, tol), = checks
        assert (c, A, lo, hi) == (lp.objective, lp.eq_matrix, lp.lower_bounds, lp.upper_bounds)
        assert b is rhs and x is sols.primal and y is sols.duals

    def test_validates_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, closed_form, "validate")
        verify_scenario(scenario_gen.canonical_scenario(), resolution=11)
        assert len(calls) == 1

    def test_report_text_layout(self):
        report = verify_scenario(scenario_gen.canonical_scenario(), resolution=20)
        lines = report.to_text().splitlines()
        assert lines[0].startswith("scenario: valid (threshold 0.1")
        assert lines[-1] == "result: PASS"
        assert sum("PASS" in line for line in lines) >= 4

    def test_random_scenarios_all_verify(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            s = scenario_gen.random_valid_scenario(rng)
            report = verify_scenario(s, resolution=40)
            assert report.passed, report.to_text()

    def test_nan_deviation_fails(self):
        # Offers near the float ceiling pass validation, but with
        # alpha_sw = 1 the system cost of every point but the last
        # overflows to inf on both routes, and inf - inf is a NaN deviation.
        # The worst case must carry the NaN and fail.
        s = scenario_gen.canonical_scenario(c1=2e307, c2=1e308, alpha_dc=0.0, alpha_sw=1.0)
        assert grid_model.validate(s).valid
        report = verify_scenario(s)
        assert math.isnan(report.max_sw_deviation)
        assert report.worst_sw_delta == 0.0  # the first NaN's shift
        assert not report.passed
        lines = report.to_text().splitlines()
        assert lines[3].startswith("max |analytic - numeric| system cost: nan ")
        assert lines[3].endswith("FAIL")
        assert lines[-1] == "result: FAIL"

    def test_free_bus1_generator_passes(self):
        # With c1 = 0 the bus-1 price is zero on both sides of the threshold,
        # yet past it generator 1 is the marginal unit and sets the emission
        # rate; the closed forms must still match the dispatch.
        s = scenario_gen.canonical_scenario(c1=0.0, alpha_dc=0.5, alpha_sw=0.5)
        report = verify_scenario(s)
        assert report.passed, report.to_text()
        assert report.max_dc_deviation <= 1e-12
        assert report.max_sw_deviation <= 1e-12
