"""Acceptance suite: one test per release criterion, in order.

Each test prints a single ``ACCEPTANCE <n> PASS/FAIL`` line (directly to the
terminal, bypassing capture) so the release record shows every criterion and
its measured headroom.  Tolerances are stated inline; seeds are fixed, so the
whole suite is reproducible run to run.
"""

import collections
import dataclasses
import time

import numpy as np

import lp_oracle
import lp_stack
import scenario_gen
from gridshift import cli
from gridshift.closed_form import (
    classify_alignment,
    objective_dc,
    objective_sw,
    optimal_shift_dc,
    optimal_shift_sw,
)
from gridshift.dispatch import solve_ed
from gridshift.grid_model import (
    bundled_scenario_path,
    eta,
    parse_scenario_file,
    tau,
    write_scenario_file,
)
from gridshift.lp_core import OPTIMAL, kkt_residuals, solve
from gridshift.sweep import (
    alignment_cutoffs,
    default_f01_range,
    heatmap_cells,
    sweep_points,
)

DECISION_TOL = 1e-9


def _announce(capsys, number: int, passed: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


def _scenario_mix(seed: int, total: int, band: int) -> list:
    """`total` scenarios, the last `band` drawn inside the misalignment band."""
    rng = np.random.default_rng(seed)
    draws = [scenario_gen.random_valid_scenario(rng) for _ in range(total - band)]
    draws += [scenario_gen.random_misaligned_scenario(rng) for _ in range(band)]
    return draws


def test_criterion_1_closed_form_matches_dispatch_everywhere(capsys):
    # Both settlement objectives, evaluated analytically and via LP dispatch,
    # must agree within 1e-6 on a 200-point grid for 1,000 random scenarios
    # (grid points within 1e-6 of the threshold excluded: the LP's break and
    # the closed-form threshold agree only to rounding, so a point between
    # them may be priced on opposite sides of the kink).  The dispatch side
    # is read off the LP's pieces (solve_ed_columns), which tests/test_dispatch.py
    # checks against a cold solve at every grid point, verify_scenario against
    # cold solves plus optimality checks, and tests/test_properties.py against
    # the closed forms with no grid.
    started = time.perf_counter()
    scenarios = _scenario_mix(seed=101, total=1000, band=100)
    worst_dc = worst_sw = 0.0
    evaluated = 0
    for s in scenarios:
        t = tau(s).value
        for p in sweep_points(s, resolution=200):
            if abs(p.delta - t) <= 1e-6:
                continue
            evaluated += 1
            worst_dc = max(worst_dc, abs(p.dc_analytic - p.dc_numeric))
            worst_sw = max(worst_sw, abs(p.sw_analytic - p.sw_numeric))
    elapsed = time.perf_counter() - started
    passed = worst_dc <= 1e-6 and worst_sw <= 1e-6
    _announce(
        capsys,
        1,
        passed,
        f"analytic vs dispatch on {evaluated} points across 1000 scenarios: "
        f"max bill deviation {worst_dc:.3e}, max system deviation "
        f"{worst_sw:.3e} (tolerance 1e-06, {elapsed:.1f}s)",
    )


def test_criterion_2_optimal_shift_matches_grid_argmin(capsys):
    # The closed-form optimum must coincide with a brute-force argmin over
    # linspace(0, L, 201) plus the threshold point, for both objectives.
    started = time.perf_counter()
    scenarios = _scenario_mix(seed=102, total=1000, band=200)
    mismatches = 0
    for s in scenarios:
        t = tau(s).value
        grid = np.append(np.linspace(0.0, s.L, 201), t)
        for objective, shift in (
            (objective_dc(s), optimal_shift_dc(s)),
            (objective_sw(s), optimal_shift_sw(s)),
        ):
            values = np.array([objective.evaluate(d) for d in grid])
            best = float(grid[int(np.argmin(values))])
            if best != shift.delta:
                mismatches += 1
    elapsed = time.perf_counter() - started
    _announce(
        capsys,
        2,
        mismatches == 0,
        f"closed-form optimum equals 202-point grid argmin for both agents "
        f"on 1000 scenarios ({mismatches} mismatches, {elapsed:.1f}s)",
    )


def test_criterion_3_alignment_clause_equals_direct_comparison(capsys):
    # The threshold-interval test for alignment (threshold at or above the
    # device cutoff, or strictly below the system cutoff) must reproduce the
    # verdict obtained by directly comparing the two optima, on a scenario
    # set that includes at least 50 draws inside the misalignment band.
    started = time.perf_counter()
    scenarios = _scenario_mix(seed=103, total=1000, band=120)
    disagreements = 0
    band_seen = 0
    for s in scenarios:
        t = tau(s).value
        ratio = eta(s, 1, "dc") / eta(s, 2, "dc")
        device_cutoff = s.L * (1.0 - ratio)
        system_cutoff = device_cutoff - ratio * s.l1
        clause_aligned = (t - device_cutoff >= -DECISION_TOL) or (
            t - system_cutoff < -DECISION_TOL
        )
        direct = classify_alignment(s).verdict == "aligned"
        if clause_aligned != direct:
            disagreements += 1
        if not direct:
            band_seen += 1
    passed = disagreements == 0 and band_seen >= 50
    elapsed = time.perf_counter() - started
    _announce(
        capsys,
        3,
        passed,
        f"interval clause vs direct comparison on 1000 scenarios: "
        f"{disagreements} disagreements, {band_seen} misaligned draws (need >= 50, "
        f"{elapsed:.1f}s)",
    )


def test_criterion_4_bundled_scenarios_hit_their_verdicts(capsys):
    started = time.perf_counter()
    expected = {
        "misaligned_full_shift": ("misaligned", "dc-full-sw-threshold"),
        "aligned_expanded_line": ("aligned", "both-threshold"),
        "aligned_costly_bus1": ("aligned", "both-threshold"),
        "aligned_clean_bus1": ("aligned", "both-full"),
    }
    wrong = []
    for name, (verdict, case) in expected.items():
        s = parse_scenario_file(bundled_scenario_path(name))
        rep = classify_alignment(s)
        if (rep.verdict, rep.binding_case) != (verdict, case):
            wrong.append(f"{name}: got {rep.verdict}/{rep.binding_case}")
    elapsed = time.perf_counter() - started
    _announce(
        capsys,
        4,
        not wrong,
        (
            "all four bundled regime scenarios classify exactly as documented"
            if not wrong
            else "; ".join(wrong)
        )
        + f" ({elapsed:.1f}s)",
    )


def test_criterion_5_heatmap_ratio_and_boundary(capsys):
    # On the canonical 50x50 capacity scan: every valid cell's suboptimality
    # ratio is >= 1 (to 1e-9), aligned cells sit at exactly 1, and the
    # analytic boundary (threshold vs device cutoff) classifies every valid
    # cell with zero errors.
    started = time.perf_counter()
    s = scenario_gen.canonical_scenario()
    f12_lo, f12_hi = 0.0, 1.0
    f01_lo, f01_hi = default_f01_range(s, (f12_lo, f12_hi))
    f01_values = np.linspace(f01_lo, f01_hi, 50)
    f12_values = np.linspace(f12_lo, f12_hi, 50)
    cells = heatmap_cells(s, f01_values, f12_values)
    dc_cutoff, _ = alignment_cutoffs(s)
    valid = ratio_bad = aligned_off = misclassified = 0
    for cell in cells:
        if cell.verdict == "invalid":
            continue
        valid += 1
        if cell.ratio < 1.0 - DECISION_TOL:
            ratio_bad += 1
        if cell.verdict == "aligned" and abs(cell.ratio - 1.0) > DECISION_TOL:
            aligned_off += 1
        t = tau(dataclasses.replace(s, F01=cell.F01, F12=cell.F12)).value
        predicted = "aligned" if t - dc_cutoff >= -DECISION_TOL else "misaligned"
        if predicted != cell.verdict:
            misclassified += 1
    passed = (
        len(cells) == 2500
        and valid > 0
        and ratio_bad == 0
        and aligned_off == 0
        and misclassified == 0
    )
    elapsed = time.perf_counter() - started
    _announce(
        capsys,
        5,
        passed,
        f"50x50 scan: {valid} valid cells, {ratio_bad} ratio violations, "
        f"{aligned_off} aligned cells off ratio 1, {misclassified} cells "
        f"misclassified by the analytic boundary ({elapsed:.1f}s)",
    )


def test_criterion_6_solver_matches_enumeration_and_survives_degeneracy(capsys):
    # 10,000 random bounded LPs against the brute-force vertex enumerator:
    # statuses must agree, optima must match to 1e-8, and every optimal
    # solution must pass an independent optimality check at 1e-8.  The LPs
    # differ in every array, so each is solved alone; the optima are checked
    # in one batch per shape (each check is the one its LP gets alone;
    # tests/test_lp_core.py pins that to the bit).  Then the dispatch at the
    # degenerate threshold vertex must still terminate.
    started = time.perf_counter()
    rng = np.random.default_rng(106)
    lps = [lp_oracle.random_bounded_lp(rng) for _ in range(10000)]
    by_shape = collections.defaultdict(list)
    for lp in lps:
        by_shape[lp.eq_matrix.shape].append(lp)
    status_bad = objective_bad = kkt_bad = 0
    optimal_count = 0
    for group in by_shape.values():
        solved = []
        for lp in group:
            sol = solve(lp)
            expected = lp_oracle.reference_solve(lp)
            if sol.status != expected.status:
                status_bad += 1
                continue
            if sol.status != OPTIMAL:
                continue
            optimal_count += 1
            if abs(sol.objective_value - expected.objective) > 1e-8:
                objective_bad += 1
            solved.append((lp, sol))
        if solved:
            residuals = kkt_residuals(
                *lp_stack.stack([lp for lp, _ in solved]),
                np.array([sol.primal for _, sol in solved]),
                np.array([sol.duals for _, sol in solved]),
                1e-8,
            )
            kkt_bad += int(np.count_nonzero(~(np.max(residuals, axis=0) <= 1e-8)))
    scen_rng = np.random.default_rng(1106)
    degenerate_ok = 0
    for _ in range(50):
        s = scenario_gen.random_valid_scenario(scen_rng)
        outcome = solve_ed(s, tau(s).value)  # lands exactly on the kink
        degenerate_ok += outcome.total_cost >= 0.0
    passed = (
        status_bad == 0 and objective_bad == 0 and kkt_bad == 0 and degenerate_ok == 50
    )
    elapsed = time.perf_counter() - started
    _announce(
        capsys,
        6,
        passed,
        f"10000 random LPs vs enumeration: {status_bad} status, "
        f"{objective_bad} objective, {kkt_bad} optimality-check mismatches "
        f"({optimal_count} optimal); {degenerate_ok}/50 threshold dispatches terminated "
        f"({elapsed:.1f}s)",
    )


def test_criterion_7_prices_match_finite_difference_sensitivities(capsys):
    # Bus prices are load sensitivities: perturb each generator-bus load by
    # h = 1e-5 and compare the dispatch-cost difference quotient against the
    # reported dual, at 5 non-degenerate shifts per scenario, 100 scenarios.
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    h = 1e-5
    worst = 0.0
    failures = 0
    checked = 0
    for _ in range(100):
        s = scenario_gen.random_valid_scenario(rng)
        for d in scenario_gen.nondegenerate_deltas(s, rng, count=5):
            base = solve_ed(s, d)
            for bus, bumped in (
                (1, dataclasses.replace(s, l1=s.l1 + h)),
                (2, dataclasses.replace(s, l2=s.l2 + h)),
            ):
                fd = (solve_ed(bumped, d).total_cost - base.total_cost) / h
                gap = abs(fd - base.lmp[bus])
                tolerance = 1e-3 * (1.0 + abs(base.lmp[bus]))
                worst = max(worst, gap)
                checked += 1
                if gap > tolerance:
                    failures += 1
    elapsed = time.perf_counter() - started
    _announce(
        capsys,
        7,
        failures == 0,
        f"finite-difference price check on {checked} (scenario, shift, bus) "
        f"triples: {failures} failures, worst gap {worst:.3e} ({elapsed:.1f}s)",
    )


def test_criterion_8_cli_output_is_byte_reproducible(capsys, tmp_path):
    started = time.perf_counter()
    scenario_path = tmp_path / "scenario.txt"
    write_scenario_file(scenario_gen.canonical_scenario(), scenario_path)
    pairs = []
    for mode, extra in (("sweep", []), ("verify", [])):
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{mode}_{run}.out"
            rc = cli.main(
                [mode, "--scenario", str(scenario_path), "--out", str(out)] + extra
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        pairs.append((mode, outputs[0] == outputs[1], len(outputs[0])))
    passed = all(same for _, same, _ in pairs)
    detail = ", ".join(f"{mode}: {size} bytes identical" for mode, same, size in pairs)
    elapsed = time.perf_counter() - started
    _announce(
        capsys,
        8,
        passed,
        (detail if passed else f"mismatch in {pairs}") + f" ({elapsed:.1f}s)",
    )
