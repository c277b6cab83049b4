"""Seeded defects (mutants) and the tests expected to catch them.

Each entry of :data:`MUTANTS` names a source file, an exact text that occurs
once in it, the text that replaces it, and the ids of the tests expected to
fail on the mutant.  ``tests/test_mutant_table.py`` checks that every old
text still occurs exactly once, so a refactor that moves the code has to
move its mutants too.

Run from the repository root (each mutant costs one run of the suite)::

    python tests/mutants.py                  # every mutant
    python tests/mutants.py NAME [NAME ...]  # the named mutants only

For each mutant the runner copies ``src``, ``tests`` and ``pyproject.toml``
to a temporary directory (all three: ``pythonpath = ["src"]`` would
otherwise import the checkout's own package), applies the mutant there,
runs pytest, lists the failed tests on stderr, and prints the number of
failed tests per test module: a mutant is killed when any test fails, and
``missed killers`` lists the expected killers that passed.
"""

from __future__ import annotations

import collections
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
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
    Mutant(
        "empty-grid-passes",
        "src/gridshift/sweep.py",
        "return self.points_skipped < self.points_total and all(",
        "return all(",
        (_VERIFY + "test_verdict_agrees_with_every_mark",
         _VERIFY + "test_grid_with_every_point_skipped_does_not_pass[200]",
         _VERIFY + "test_grid_with_every_point_skipped_does_not_pass[2]",
         _VERIFY_CLI + "test_no_checked_point_exits_3[200]",
         _VERIFY_CLI + "test_no_checked_point_exits_3[2]"),
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
        '    with np.errstate(over="ignore"):  # a cost past the float range is inf\n'
        "        costs = (flows[:, None, :] @ lp.objective)[:, 0]\n",
        "    costs = (flows[:, None, :] @ lp.objective)[:, 0]\n",
        (_CEILING + "[l2]",),
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
        "        if True in flags:\n",
        "        if False:\n",
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
        (_SOLVE_MANY + "test_rhs_stack_whose_rows_part_ways_equals_lone_solves[within-cutoff]",),
    ),
    Mutant(
        "phase-2-priced-by-phase-1-cost",
        "src/gridshift/lp_core.py",
        "_priced(c, A, second[0], BT, run.basis)",
        "_priced(c, A, first[0], BT, run.basis)",
        ("tests/test_lp_core.py::TestKktCertificate::test_clean_solution_certifies",
         _TRACE + "test_one_at_a_time_matches_the_pinned_digest",
         _TRACE + "test_rhs_stacks_match_the_pinned_digest",
         "tests/test_golden.py::test_cli_outputs_match_golden_hashes[canonical]"),
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


def run(mutant: Mutant) -> list[str]:
    """The ids of the tests that fail with ``mutant`` applied to a copy."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        done = subprocess.run(
            # The table's own check fails on every mutant, so it is left out.
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutant_table.py"],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode not in (0, 1):
        failed.append(f"<pytest exit {done.returncode}>")
    return failed


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    rows, modules = [], set()
    for mutant in chosen:
        failed = run(mutant)
        by_module = collections.Counter(test.split("::")[0].rsplit("/", 1)[-1] for test in failed)
        modules.update(by_module)
        missed = [k for k in mutant.killers if k not in failed]
        rows.append((mutant.name, "killed" if failed else "SURVIVED", by_module, missed))
        print(f"{mutant.name}: {len(failed)} failed", *failed, sep="\n    ", file=sys.stderr)
    columns = sorted(modules)
    print("| mutant | outcome | " + " | ".join(columns) + " | missed killers |")
    print("|---|---|" + "---|" * len(columns) + "---|")
    for name, outcome, by_module, missed in rows:
        cells = [str(by_module.get(c, ".")) for c in columns]
        print(f"| {name} | {outcome} | " + " | ".join(cells) + f" | {', '.join(missed) or '-'} |")
    return 1 if any(outcome == "SURVIVED" for _, outcome, _, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
