"""Seeded defects (mutants) and the tests expected to catch them.

Each entry of :data:`MUTANTS` names a source file, an exact text that occurs
once in it, the text that replaces it, and the ids of the tests expected to
fail on the mutant.  ``tests/test_mutant_table.py`` checks that every old
text still occurs exactly once, so a refactor that moves the code has to
move its mutants too.

Run from the repository root (the whole table takes about a minute)::

    python tests/mutants.py                  # every mutant
    python tests/mutants.py NAME [NAME ...]  # the named mutants only

For each mutant the runner copies ``src``, ``tests`` and ``pyproject.toml``
to a temporary directory (all three: ``pythonpath = ["src"]`` would
otherwise import the checkout's own package) and applies the mutant there.
It then runs the mutant's expected killers, all of them, and the whole
suite only when none of them fails.  It lists the failed tests on stderr
and prints a table: which tests ran (``killers`` or ``suite``), the wall
time, and the number of failed tests per test module among those that ran.
A mutant is killed when any test fails, and ``missed killers`` lists the
expected killers that passed.  The run exits 1 when a mutant survives, or
is killed while an expected killer passes.
"""

from __future__ import annotations

import collections
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    killers: tuple[str, ...]


_VERIFY = "tests/test_sweep.py::TestVerification::"
_VERIFY_CLI = "tests/test_cli.py::TestVerifyCommand::"
_CEILING = "tests/test_cli.py::TestErrorPaths::test_number_near_the_float_maximum_warns_nothing"
_SOLVE_MANY = "tests/test_lp_core.py::TestSolveMany::"
_TRACE = "tests/test_lp_core.py::TestPinnedTrace::"
_SCAN = "tests/test_lp_core.py::TestRatioTests::test_stacked_scan_equals_the_scalar_scan_row_by_row"
_PART_WAYS = _SOLVE_MANY + "test_rhs_stack_whose_rows_part_ways_equals_lone_solves"
_HEATMAP = "tests/test_sweep.py::TestHeatmapArrayRoute::"
_WORK = "tests/test_lp_core.py::TestWorkCounts::"
_FAR = "tests/test_cli.py::TestErrorPaths::test_line_far_from_binding_gives_no_wrong_numbers"

MUTANTS = (
    # The verdict of a verify report.
    Mutant(
        "passed-ignores-kkt",
        "src/gridshift/sweep.py",
        "all(ok for *_, ok in self.checks())",
        "all(ok for *_, ok in self.checks()[:2])",
        (_VERIFY + "test_verdict_agrees_with_every_mark",
         _VERIFY_CLI + "test_failed_verification_exits_3"),
    ),
    Mutant(
        "strict-tolerance",
        "src/gridshift/sweep.py",
        "(label, value, tolerance, delta, value <= tolerance)",
        "(label, value, tolerance, delta, value < tolerance)",
        (_VERIFY + "test_verdict_agrees_with_every_mark",),
    ),
    # The band around the threshold where either segment may match.
    Mutant(
        "band-dropped",
        "src/gridshift/sweep.py",
        "near = np.abs(deltas - t.value) <= THRESHOLD_BAND",
        "near = False",
        (_VERIFY + "test_grid_mix_verifies",),
    ),
    Mutant(
        "band-everywhere",
        "src/gridshift/sweep.py",
        "near = np.abs(deltas - t.value) <= THRESHOLD_BAND",
        "near = True",
        (_VERIFY + "test_misplaced_threshold_fails",),
    ),
    # Float-range rules: past the range is inf, and inf - inf NaN, silently.
    Mutant(
        "lp-objective-overflow-warns",
        "src/gridshift/lp_core.py",
        '            with np.errstate(over="ignore"):  # an objective past the float range is inf\n'
        "                primal[rows], objective[rows] = point, (c @ point[..., None])[:, 0]\n",
        "            primal[rows], objective[rows] = point, (c @ point[..., None])[:, 0]\n",
        (_CEILING + "[l2]",),
    ),
    Mutant(
        "dispatch-cost-overflow-warns",
        "src/gridshift/dispatch.py",
        '        with np.errstate(over="ignore"):  # a cost past the float range is inf\n'
        "            return (self.flows[:, None, :] @ self.lp.objective)[:, 0]\n",
        "        return (self.flows[:, None, :] @ self.lp.objective)[:, 0]\n",
        ("tests/test_dispatch.py::TestCostEvaluations::test_cost_past_the_float_range_is_inf",),
    ),
    Mutant(
        "alignment-overflow-warns",
        "src/gridshift/closed_form.py",
        'with np.errstate(over="ignore", divide="ignore", invalid="ignore"):',
        'with np.errstate(divide="ignore", invalid="ignore"):',
        (_CEILING + "[e1-emissions-only]",),
    ),
    Mutant(
        "alignment-inf-minus-inf-warns",
        "src/gridshift/closed_form.py",
        'with np.errstate(over="ignore", divide="ignore", invalid="ignore"):',
        'with np.errstate(over="ignore", divide="ignore"):',
        (_CEILING + "[l2]", _CEILING + "[c2]"),
    ),
    # The simplex's lifecycle of a run (lp_core._solve).
    Mutant(
        "infeasible-rows-go-on",
        "src/gridshift/lp_core.py",
        "            if True in flags:\n",
        "            if False:\n",
        (_SOLVE_MANY + "test_only_rows_that_end_optimal_are_priced",),
    ),
    Mutant(
        "no-reset-before-phase-2",
        "src/gridshift/lp_core.py",
        "piece.phase, piece.bland, piece.degenerate = second, False, 0",
        "piece.phase = second",
        (_SOLVE_MANY + "test_phase_2_starts_with_dantzig_pricing",),
    ),
    Mutant(
        "basis-written-at-phase-1-end",
        "src/gridshift/lp_core.py",
        "        if run.phase is second:\n"
        "            end(run, rows, OPTIMAL)\n",
        "        if run.phase is first:\n"
        "            basis[rows] = sorted(run.basis)\n"
        "        if run.phase is second:\n"
        "            iterations[rows] = run.iterations\n",
        ("tests/test_dispatch.py::TestGridDispatch::test_matches_cold_solves_pointwise",
         _TRACE + "test_one_at_a_time_matches_the_pinned_digest",
         _TRACE + "test_rhs_stacks_match_the_pinned_digest",
         _SOLVE_MANY + "test_only_rows_that_end_optimal_are_priced"),
    ),
    Mutant(
        "no-split-after-drive-out",
        "src/gridshift/lp_core.py",
        "for piece, j in run.parts(xr.view(np.uint64)):",
        "for piece, j in [(run, 0)]:",
        (_PART_WAYS + "[within-cutoff]",),
    ),
    Mutant(
        # The duals are the multipliers of the run's last pricing round; here
        # they stay those of the round that ended phase 1, in a run whose
        # phase 1 ended with an artificial still basic (the others end it
        # unpriced).
        "phase-2-priced-by-phase-1-cost",
        "src/gridshift/lp_core.py",
        "                self.y = y\n",
        "                self.y = y if self.y is None else self.y\n",
        ("tests/test_lp_core.py::TestSolveBasics::test_redundant_rows_still_solve",
         _TRACE + "test_one_at_a_time_matches_the_pinned_digest",
         _TRACE + "test_rhs_stacks_match_the_pinned_digest",
         "tests/test_acceptance.py::test_criterion_6_solver_matches_enumeration_and_survives_degeneracy"),
    ),
    # The ratio test of a run of several rows (lp_core._ratio_tests, _Run.pivot).
    Mutant(
        "ratio-tie-dropped",
        "src/gridshift/lp_core.py",
        "take |= tie",
        "take |= False",
        (_PART_WAYS + "[bland-tie-array-step]", _SCAN),
    ),
    Mutant(
        "bland-tie-reversed",
        "src/gridshift/lp_core.py",
        "keys[row] < keys[block] if bland",
        "keys[row] > keys[block] if bland",
        (_PART_WAYS + "[bland-tie-array-step]", _SCAN),
    ),
    Mutant(
        "pivot-size-margin-dropped",
        "src/gridshift/lp_core.py",
        "keys[row] > keys[block] + 1e-12",
        "keys[row] > keys[block]",
        (_SCAN,),
    ),
    Mutant(
        "tie-without-blocker",
        "src/gridshift/lp_core.py",
        "tie = (block >= 0) & near",
        "tie = near",
        (_SCAN,),
    ),
    Mutant(
        "ray-step-infinite",
        "src/gridshift/lp_core.py",
        "block[ray], theta[ray] = -2, 0.0",
        "block[ray] = -2",
        (_PART_WAYS + "[open-box-array-step]", _SCAN),
    ),
    Mutant(
        "step-only-on-split",
        "src/gridshift/lp_core.py",
        "xb -= thetas[:, None] * sw",
        "if (2 * blocks + (thetas <= TOLERANCE) != 2 * blocks[0] + (thetas[0] <= TOLERANCE)).any():"
        " xb -= thetas[:, None] * sw",
        (_TRACE + "test_rhs_stacks_match_the_pinned_digest",
         "tests/test_dispatch.py::TestGridDispatch::test_matches_cold_solves_pointwise",
         "tests/test_golden.py::test_cli_outputs_match_golden_hashes[split_reverse]"),
    ),
    # Work the solver does not repeat: the phase-1 refresh held to the end
    # of a phase 2 without a pivot, the first blocker's scan without ties,
    # the start without a lexsort (and, for one row, without a sign test),
    # the lone step sign on the list, the empty-box test on equalities,
    # phase 1 ended unpriced once no artificial is basic (and then not
    # tested for infeasible rows), and the one-column step.
    Mutant(
        "held-refresh-after-phase-2-pivot",
        "src/gridshift/lp_core.py",
        "run.held and run.held[0] == run.iterations",
        "run.held",
        (_WORK + "test_verify_stack", _TRACE + "test_rhs_stacks_match_the_pinned_digest"),
    ),
    Mutant(
        "held-refresh-after-drive-out",
        "src/gridshift/lp_core.py",
        "            run.held = None  # a new basis\n",
        "",
        (_PART_WAYS + "[within-cutoff]", _TRACE + "test_one_at_a_time_matches_the_pinned_digest"),
    ),
    Mutant(
        "first-blocker-ignores-own-range",
        "src/gridshift/lp_core.py",
        "take = limit < own - 1e-12",
        "take = limit == limit",
        (_SCAN, _WORK + "test_verify_stack"),
    ),
    Mutant(
        "one-lane-start-with-mixed-signs",
        "src/gridshift/lp_core.py",
        "((signs := residual < 0.0) != signs[0]).any()",
        "False",
        (_PART_WAYS + "[open-box]", _SOLVE_MANY + "test_rhs_stack_checks_and_solves_each_row"),
    ),
    Mutant(
        "one-row-start-for-two-rows",
        "src/gridshift/lp_core.py",
        "if k > 1 and ((signs",
        "if k > 2 and ((signs",
        (_PART_WAYS + "[two-rows-of-two-sign-patterns]", _TRACE + "test_rhs_stacks_match_the_pinned_digest"),
    ),
    Mutant(
        "lone-step-sign-dropped",
        "src/gridshift/lp_core.py",
        "sw = [step_sign * v for v in w[0, :, 0].tolist()]",
        "sw = w[0, :, 0].tolist()",
        (_TRACE + "test_one_at_a_time_matches_the_pinned_digest",
         "tests/test_acceptance.py::test_criterion_6_solver_matches_enumeration_and_survives_degeneracy"),
    ),
    Mutant(
        "empty-box-misses-minus-inf-upper",
        "src/gridshift/lp_core.py",
        "(lo == np.inf) | (hi == -np.inf)",
        "(lo == np.inf)",
        ("tests/test_lp_core.py::TestInputValidation::test_box_without_real_point_rejected",),
    ),
    Mutant(
        "phase-1-ends-with-an-artificial-basic",
        "src/gridshift/lp_core.py",
        "if feasibility and max(basis) < n:",
        "if feasibility and min(basis) < n:",
        (_TRACE + "test_one_at_a_time_matches_the_pinned_digest",
         "tests/test_acceptance.py::test_criterion_6_solver_matches_enumeration_and_survives_degeneracy"),
    ),
    Mutant(
        "feasibility-test-skipped-for-the-first-artificial",
        "src/gridshift/lp_core.py",
        "if max(run.basis) >= n:  # with no artificial basic",
        "if max(run.basis) > n:  # with no artificial basic",
        ("tests/test_lp_core.py::TestSolveBasics::test_infeasible_when_bound_blocks_rhs",
         _TRACE + "test_one_at_a_time_matches_the_pinned_digest"),
    ),
    Mutant(
        "column-write-with-differing-blocks",
        "src/gridshift/lp_core.py",
        "if (blocks == block).all():",
        "if True:",
        (_PART_WAYS + "[bland]", _TRACE + "test_rhs_stacks_match_the_pinned_digest"),
    ),
    # An optimal point keeps its bounds (lp_core._check_bounds), and a span
    # past the float range is inf with no warning (lp_core._start).
    Mutant(
        "bound-check-never-fires",
        "src/gridshift/lp_core.py",
        "            _check_bounds(run, b, lo, second[2])\n",
        "",
        (_FAR + "[2e14]", _FAR + "[1e17]",
         _SOLVE_MANY + "test_optimal_point_outside_its_bounds_is_a_solver_failure"),
    ),
    Mutant(
        "bound-slack-unscaled",
        "src/gridshift/lp_core.py",
        "slack = cut * (1.0 + float(np.abs(b[row]).max()))",
        "slack = cut",
        (_SOLVE_MANY + "test_bound_slack_scales_with_the_rhs[False]",
         _SOLVE_MANY + "test_bound_slack_scales_with_the_rhs[True]"),
    ),
    Mutant(
        "start-span-in-numpy-warns",
        "src/gridshift/lp_core.py",
        "span = [hv - lv for lv, hv in zip(lo, hi)]",
        "span = (hi_n - lo_n).tolist()",
        (_FAR + "[1e308]",),
    ),
    # A breakdown in a dispatch solve names its shift (dispatch._naming_shifts).
    Mutant(
        "breakdown-names-the-stack-row",
        "src/gridshift/dispatch.py",
        'f"shift {float(deltas[exc.row]):g}: {exc.args[0]}"',
        'f"shift {exc.row}: {exc.args[0]}"',
        (_FAR + "[2e14]", _FAR + "[1e15]"),
    ),
    # The one piecewise-linear shape of both routes (closed_form.Piecewise,
    # dispatch.settlements).
    Mutant(
        "break-takes-the-right-piece",
        "src/gridshift/closed_form.py",
        "value = choose(delta <= brk, line, value)",
        "value = choose(delta < brk, line, value)",
        ("tests/test_closed_form.py::TestObjectiveShapes::test_breakpoint_evaluates_on_left_branch",),
    ),
    Mutant(
        "lp-system-cost-on-the-bill-loads",
        "src/gridshift/dispatch.py",
        "for cost in (dc_cost_numeric, sw_cost_numeric)",
        "for cost in (dc_cost_numeric, dc_cost_numeric)",
        ("tests/test_properties.py::test_pieces_match_closed_forms_on_the_grid_mix",
         "tests/test_properties.py::test_pieces_match_closed_forms_on_the_edges"),
    ),
    # The capacity grid's scatter of each key's fields (closed_form._keyed_alignment).
    Mutant(
        "grid-binding-case-left-invalid",
        "src/gridshift/closed_form.py",
        "column[valid_key] = getattr(found, name)",
        'column[valid_key] = "invalid" if name == "binding_case" else getattr(found, name)',
        (_HEATMAP + "test_every_field_matches_scalar_on_random_draws_and_grid_mix",),
    ),
)


def apply(mutant: Mutant, root: pathlib.Path) -> None:
    """Write ``mutant`` into the tree at ``root``; its old text must occur
    there exactly once."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


def failures(copy: pathlib.Path, args: list[str]) -> list[str]:
    """The ids of the tests that fail in a pytest run of ``args`` in ``copy``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode not in (0, 1):
        failed.append(f"<pytest exit {done.returncode}>")
    return failed


def run(mutant: Mutant) -> tuple[str, list[str]]:
    """Which tests ran with ``mutant`` applied to a copy (``killers`` or
    ``suite``), and the ids of those that failed: its expected killers run
    first, all of them, and the whole suite only when none of them fails."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        failed = failures(copy, list(mutant.killers))
        if failed:
            return "killers", failed
        # The table's own check fails on every mutant, so it is left out.
        return "suite", failures(copy, ["--ignore=tests/test_mutant_table.py"])


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    rows, modules = [], set()
    for mutant in chosen:
        began = time.perf_counter()
        ran, failed = run(mutant)
        seconds = time.perf_counter() - began
        by_module = collections.Counter(test.split("::")[0].rsplit("/", 1)[-1] for test in failed)
        modules.update(by_module)
        missed = [k for k in mutant.killers if k not in failed]
        rows.append((mutant.name, "killed" if failed else "SURVIVED", ran, seconds, by_module, missed))
        print(f"{mutant.name}: {len(failed)} failed ({ran})", *failed, sep="\n    ", file=sys.stderr)
    columns = sorted(modules)
    print("| mutant | outcome | ran | s | " + " | ".join(columns) + " | missed killers |")
    print("|---|---|---|---|" + "---|" * len(columns) + "---|")
    for name, outcome, ran, seconds, by_module, missed in rows:
        cells = [str(by_module.get(c, ".")) for c in columns]
        print(f"| {name} | {outcome} | {ran} | {seconds:.1f} | " + " | ".join(cells) + f" | {', '.join(missed) or '-'} |")
    return 1 if any(outcome == "SURVIVED" or missed for _, outcome, *_, missed in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
