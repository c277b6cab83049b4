"""Unit tests for the bounded-variable simplex solver."""

import collections
import dataclasses
import hashlib

import numpy as np
import pytest

import lp_oracle
import lp_stack
import scenario_gen
from gridshift import lp_core
from gridshift.dispatch import build_ed, pieces
from gridshift.grid_model import bundled_scenario_names, bundled_scenario_path, parse_scenario_file, tau
from gridshift.lp_core import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    LpInputError,
    SolverFailure,
    format_lp,
    solve,
    solve_rhs,
    verify_kkt,
)

INF = np.inf


def toy_lp() -> LinearProgram:
    # min -x  subject to  x + s = 5,  x, s >= 0  -> optimum at x = 5.
    return LinearProgram([-1.0, 0.0], [[1.0, 1.0]], [5.0], [0.0, 0.0], [INF, INF])


class TestSolveBasics:
    def test_single_constraint_pushes_to_capacity(self):
        sol = solve(toy_lp())
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.primal, [5.0, 0.0])
        np.testing.assert_allclose(sol.duals, [-1.0])
        np.testing.assert_allclose(sol.reduced_costs, [0.0, 1.0])
        assert sol.objective_value == pytest.approx(-5.0)
        assert 0 < sol.iterations <= 10

    def test_infeasible_when_bound_blocks_rhs(self):
        lp = LinearProgram([0.0], [[1.0]], [5.0], [0.0], [1.0])
        assert solve(lp).status == INFEASIBLE

    def test_unbounded_ray(self):
        # min -x with x - y = 0 and both variables unbounded above.
        lp = LinearProgram([-1.0, 0.0], [[1.0, -1.0]], [0.0], [0.0, 0.0], [INF, INF])
        assert solve(lp).status == UNBOUNDED

    def test_free_variable_tracks_bounded_partner(self):
        # min y with y - f = 0, y free, f in [-2, 3]: y settles at -2.
        lp = LinearProgram([1.0, 0.0], [[1.0, -1.0]], [0.0], [-INF, -2.0], [INF, 3.0])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.primal, [-2.0, -2.0])
        assert sol.objective_value == pytest.approx(-2.0)
        np.testing.assert_allclose(sol.duals, [1.0])

    def test_fixed_variable_is_respected(self):
        lp = LinearProgram([1.0, 1.0], [[1.0, 1.0]], [5.0], [0.0, 2.0], [INF, 2.0])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.primal, [3.0, 2.0])
        assert sol.objective_value == pytest.approx(5.0)

    def test_redundant_rows_still_solve(self):
        lp = LinearProgram([1.0], [[1.0], [1.0]], [3.0, 3.0], [0.0], [INF])
        sol = solve(lp)
        assert sol.status == OPTIMAL
        np.testing.assert_allclose(sol.primal, [3.0])
        assert verify_kkt(lp, sol).ok

    def test_inconsistent_duplicate_rows_are_infeasible(self):
        lp = LinearProgram([1.0], [[1.0], [1.0]], [3.0, 4.0], [0.0], [INF])
        assert solve(lp).status == INFEASIBLE


class TestInputValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(LpInputError):
            LinearProgram([1.0, 2.0], [[1.0]], [1.0], [0.0, 0.0], [1.0, 1.0])
        # A ragged matrix has no shape at all.
        with pytest.raises(LpInputError, match="not an array of numbers"):
            LinearProgram([1.0, 1.0], [[1.0, 1.0], [1.0]], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0])

    def test_crossed_bounds_rejected(self):
        with pytest.raises(LpInputError):
            LinearProgram([1.0], [[1.0]], [1.0], [2.0], [1.0])

    def test_nan_rejected(self):
        with pytest.raises(LpInputError):
            LinearProgram([np.nan], [[1.0]], [1.0], [0.0], [1.0])
        with pytest.raises(LpInputError, match="not an array of numbers"):
            LinearProgram([1.0, "x"], [[1.0, 1.0]], [1.0], [0.0, 0.0], [1.0, 1.0])

    def test_box_without_real_point_rejected(self):
        # A lower bound of +inf or an upper bound of -inf leaves no real
        # value for the variable, even where lo <= hi holds.
        for lo, hi in ((INF, INF), (-INF, -INF), (0.0, -INF), (INF, 5.0)):
            with pytest.raises(LpInputError, match="variable 1"):
                LinearProgram([1.0, 1.0], [[1.0, 1.0]], [1.0], [0.0, lo], [5.0, hi])


class TestDegenerateClassic:
    def test_cycling_prone_problem_terminates(self):
        # Beale's cycling example; Dantzig pricing alone can loop forever on
        # it, so this doubles as a check of the anti-cycling fallback.
        lp = LinearProgram(
            objective=[-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0],
            eq_matrix=[
                [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
            ],
            eq_rhs=[0.0, 0.0, 1.0],
            lower_bounds=[0.0] * 7,
            upper_bounds=[INF] * 7,
        )
        sol = solve(lp)
        assert sol.status == OPTIMAL
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-12)
        np.testing.assert_allclose(
            sol.primal, [0.04, 0.0, 1.0, 0.0, 0.03, 0.0, 0.0], atol=1e-12
        )
        assert verify_kkt(lp, sol).ok


class TestKktCertificate:
    def test_clean_solution_certifies(self):
        lp = toy_lp()
        report = verify_kkt(lp, solve(lp))
        assert report.ok
        assert report.primal_feasibility <= 1e-12
        assert report.dual_feasibility <= 1e-12
        assert report.complementary_slackness <= 1e-12
        assert report.violations == ()

    def test_perturbed_primal_is_flagged(self):
        lp = toy_lp()
        sol = solve(lp)
        tampered = sol.__class__(
            status=sol.status,
            primal=sol.primal + 1e-3,
            duals=sol.duals,
            reduced_costs=sol.reduced_costs,
            basis=sol.basis,
            objective_value=sol.objective_value,
            iterations=sol.iterations,
        )
        report = verify_kkt(lp, tampered)
        assert not report.ok
        # Both variables moved up 1e-3, so the row residual is 2e-3.
        assert report.primal_feasibility == pytest.approx(2e-3)
        assert any(name == "primal feasibility" for name, _ in report.violations)

    def test_nan_is_a_violation(self):
        # min x0 + 2 x1 with x0 + x1 = 1 in the box [0, 5]^2: a NaN in the
        # point or in the duals makes a residual NaN, which certifies nothing.
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [5.0, 5.0])
        sol = solve(lp)
        assert verify_kkt(lp, sol).ok
        for field in ("primal", "duals"):
            values = getattr(sol, field).copy()
            values[0] = np.nan
            report = verify_kkt(lp, dataclasses.replace(sol, **{field: values}))
            assert not report.ok
            assert all(np.isnan(v) for _, v in report.violations)

    def test_solution_of_another_shape_rejected(self):
        # A solution whose point or duals do not fit the LP is refused with
        # both shapes named, not left to fail inside the matrix products.
        two = LinearProgram([1.0, 2.0], [[1.0, 1.0]], [1.0], [0.0, 0.0], [5.0, 5.0])
        one = LinearProgram([1.0], [[1.0]], [1.0], [0.0], [5.0])
        two_rows = LinearProgram(
            [1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, 0.0], [0.0, 0.0], [5.0, 5.0]
        )
        cases = [
            (two, one, r"shapes \(1,\)/\(1,\) do not fit an LP of \(2,\)/\(1,\)"),
            (one, two, r"shapes \(2,\)/\(1,\) do not fit an LP of \(1,\)/\(1,\)"),
            (two_rows, two, r"shapes \(2,\)/\(1,\) do not fit an LP of \(2,\)/\(2,\)"),
        ]
        for lp, other, message in cases:
            with pytest.raises(LpInputError, match=message):
                verify_kkt(lp, solve(other))


class TestDeterminism:
    def test_repeat_solves_are_byte_identical(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            lp = lp_oracle.random_bounded_lp(rng)
            first = solve(lp)
            second = solve(lp)
            assert first.status == second.status
            if first.status != OPTIMAL:
                continue
            assert first.primal.tobytes() == second.primal.tobytes()
            assert first.duals.tobytes() == second.duals.tobytes()
            assert first.basis == second.basis


class TestAgainstEnumeration:
    def test_random_problems_match_vertex_enumeration(self):
        rng = np.random.default_rng(2024)
        optimal_count = 0
        for _ in range(300):
            lp = lp_oracle.random_bounded_lp(rng)
            expected = lp_oracle.reference_solve(lp)
            sol = solve(lp)
            assert sol.status == expected.status
            if expected.status != OPTIMAL:
                continue
            optimal_count += 1
            assert sol.objective_value == pytest.approx(expected.objective, abs=1e-8)
            assert verify_kkt(lp, sol).ok
            assert lp_oracle.dual_objective(lp, sol) == pytest.approx(
                sol.objective_value, abs=1e-8
            )
        # The generator should not be producing a trivial mix.
        assert optimal_count >= 50


def trace_lps() -> list[LinearProgram]:
    """A seeded set of LPs whose solver traces are pinned below.

    500 small integer LPs, every fifth with its boxes opened upward so that
    unbounded rays occur, 50 dense ones of 20 to 36 variables, and the
    dispatch LP of every bundled scenario at its threshold and on the knife
    edges around it.
    """
    rng = np.random.default_rng(606)
    lps = []
    for k in range(500):
        lp = lp_oracle.random_bounded_lp(rng)
        if k % 5 == 4:
            lp = LinearProgram(
                lp.objective, lp.eq_matrix, lp.eq_rhs, lp.lower_bounds,
                np.full(lp.n_variables, INF),
            )
        lps.append(lp)
    lps += [lp_oracle.random_dense_lp(rng) for _ in range(50)]
    for name in bundled_scenario_names():
        s = parse_scenario_file(bundled_scenario_path(name))
        shifts = np.concatenate([[tau(s).value], scenario_gen.knife_edge_shifts(s)])
        lps += [build_ed(s, float(d)) for d in shifts]
    return lps


def trace_digest(solutions) -> str:
    """SHA-256 over each solution's status, basis, pivot count and the
    bytes of its primal point, duals and reduced costs."""
    h = hashlib.sha256()
    for sol in solutions:
        h.update(repr((sol.status, sol.basis, sol.iterations)).encode())
        for values in (sol.primal, sol.duals, sol.reduced_costs):
            h.update(b"-" if values is None else values.tobytes())
    return h.hexdigest()


#: ``trace_digest`` of ``solve`` over ``trace_lps()``, recorded before the
#: solver ran its LPs in lock-step; any change to a pivot, a tie-break or
#: the arithmetic behind a reported number moves it.
TRACE_SHA256 = "ed5f348e2cefc7f5d735f56480c7448940f35a41f62397d838101098a07f4a70"


class TestPinnedTrace:
    def test_statuses_cover_every_outcome(self):
        statuses = {solve(lp).status for lp in trace_lps()}
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_lone_solves_take_every_path(self, monkeypatch):
        # The pinned LPs take each way through a lone solve: an artificial
        # driven out after phase 1, a phase 2 that pivots and one that
        # does not (its point is the phase-1 refresh's), an infeasible row
        # and an unbounded ray.
        paths = collections.Counter()
        real_pivot, real_drive_out = lp_core._Run.pivot, lp_core._drive_out

        def pivot(run, *args):
            before = run.iterations
            found = real_pivot(run, *args)
            if run.phase[0][-1] == 0.0 and not run.ray:  # phase 2 prices the objective
                paths["phase-2 pivot" if run.iterations > before else "phase 2 without a pivot"] += 1
            return found

        def drive_out(*args):
            swapped = real_drive_out(*args)
            paths["drive-out"] += swapped
            return swapped

        monkeypatch.setattr(lp_core._Run, "pivot", pivot)
        monkeypatch.setattr(lp_core, "_drive_out", drive_out)
        paths.update(solve(lp).status for lp in trace_lps())
        assert set(paths) == {
            "drive-out", "phase-2 pivot", "phase 2 without a pivot", INFEASIBLE, UNBOUNDED, OPTIMAL,
        }

    def test_one_at_a_time_matches_the_pinned_digest(self, monkeypatch):
        # A lone solve is a run of one row from start to end.
        lps = trace_lps()
        real_pivot = lp_core._Run.pivot

        def pivot(run, *args):
            assert len(run.rows) == 1, "a lone solve ran a run of several rows"
            return real_pivot(run, *args)

        monkeypatch.setattr(lp_core._Run, "pivot", pivot)
        assert trace_digest(solve(lp) for lp in lps) == TRACE_SHA256

    def test_rhs_stacks_match_the_pinned_digest(self, monkeypatch):
        # The bundled dispatch LPs (from index 550 on) differ only in their
        # right-hand sides, so each scenario's LPs stack into one LP at many
        # right-hand sides.  The random LPs are grouped the same way, and a
        # few small ones share all but the right-hand side too; an LP with
        # no partner is stacked twice.  Every dispatch stack starts in runs
        # of several rows, which take their ratio tests in arrays, and
        # splits.
        lps = trace_lps()
        real_pivot, real_parts = lp_core._Run.pivot, lp_core._Run.parts
        sizes, splits = [], []

        def pivot(run, *args):
            sizes[-1].append(len(run.rows))
            return real_pivot(run, *args)

        def parts(run, *args):
            found = real_parts(run, *args)
            splits[-1] += len(found) > 1
            return found

        monkeypatch.setattr(lp_core._Run, "pivot", pivot)
        monkeypatch.setattr(lp_core._Run, "parts", parts)
        groups = {}
        for i, lp in enumerate(lps):
            shared = (lp.objective, lp.eq_matrix, lp.lower_bounds, lp.upper_bounds)
            key = (lp.eq_matrix.shape, *(a.tobytes() for a in shared))
            groups.setdefault(key, []).append(i)
        dispatch = [rows for rows in groups.values() if rows[-1] >= 550]
        assert sum(map(len, dispatch)) == len(lps) - 550
        assert min(map(len, dispatch)) > 10
        solutions = [None] * len(lps)
        for rows in groups.values():
            rhs = [lps[i].eq_rhs for i in rows]
            sizes.append([])
            splits.append(0)
            stacked = solve_rhs(lps[rows[0]], rhs if len(rhs) > 1 else rhs * 2)
            for i, sol in zip(rows, lp_stack.rows(stacked)):
                solutions[i] = sol
            if rows[-1] >= 550:
                assert sizes[-1][0] > 1 and splits[-1] > 0
        assert trace_digest(solutions) == TRACE_SHA256


def _bland_lp(m: int = 21) -> LinearProgram:
    """``m`` rows with a zero right-hand side: phase 1 makes a zero step per
    row, and from the 20th on Bland's rule picks other columns than Dantzig
    pricing would."""
    A = np.hstack([np.eye(m), 2.0 * np.eye(m)])
    return LinearProgram(np.tile([1.0, -1.0], m), A, np.zeros(m), np.zeros(2 * m), np.ones(2 * m))


def _bland_tie_lp() -> LinearProgram:
    """:func:`_bland_lp` with column j of its second block ``2 e_j + e_{j+1}``
    (cyclically).  At a zero right-hand side phase 2 turns to Bland's rule
    too, and then ratio tests tie; Bland's rule leaves the row of the lower
    variable index, not the one of the larger pivot."""
    m = 21
    A = np.hstack([np.eye(m), 2.0 * np.eye(m) + np.roll(np.eye(m), 1, axis=0)])
    return LinearProgram(np.tile([1.0, -1.0], m), A, np.zeros(m), np.zeros(2 * m), np.ones(2 * m))


#: An open box: a ray wherever x2 + x3 = b1 can be met; infeasible elsewhere.
_OPEN_BOX = LinearProgram(
    [-1.0, 0.0, 0.0, 0.0], [[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
    [0.0, 0.0], [0.0] * 4, [INF] * 4,
)
_OPEN_BOX_RHS = [[0.0, 1.0], [2.0, 1.0], [-2.0, 3.0], [1.0, -1.0], [3.0, 0.0], [-2.0, -2.0]]


def _mixed_batch() -> list[LinearProgram]:
    """LPs of one shape (21 rows, 42 variables) of every outcome, shuffled:
    dense feasible ones, boxes that cannot meet their right-hand side, open
    boxes with an unbounded ray, and :func:`_bland_lp`."""
    rng = np.random.default_rng(7)
    m, n = 21, 42
    pair = np.hstack([np.eye(m), np.eye(m)])
    lps = [_bland_lp()]
    for _ in range(12):
        A = rng.uniform(-1.0, 1.0, size=(m, n))
        lo = rng.uniform(-2.0, 0.0, size=n)
        hi = lo + rng.uniform(0.5, 3.0, size=n)
        inner = lo + rng.uniform(0.1, 0.9, size=n) * (hi - lo)
        lps.append(LinearProgram(rng.uniform(-1.0, 1.0, size=n), A, A @ inner, lo, hi))
    for _ in range(6):
        lps.append(LinearProgram(rng.uniform(-1.0, 1.0, size=n), pair, rng.uniform(2.5, 4.0, size=m), np.zeros(n), np.ones(n)))
    opposed = np.hstack([np.eye(m), -np.eye(m)])
    for _ in range(6):
        lps.append(LinearProgram(-rng.uniform(0.5, 1.0, size=n), opposed, np.zeros(m), np.zeros(n), np.full(n, INF)))
    return [lps[i] for i in rng.permutation(len(lps))]


def _klee_minty(n: int, objective_scale: float = 1.0) -> LinearProgram:
    """Klee and Minty's cube: Dantzig pricing visits all 2**n vertices."""
    L = np.eye(n)
    for i in range(n):
        for j in range(i):
            L[i, j] = 2.0 ** (i - j + 1)
    c = np.concatenate([-(2.0 ** (n - 1 - np.arange(n))) * objective_scale, np.zeros(n)])
    return LinearProgram(c, np.hstack([L, np.eye(n)]), 5.0 ** np.arange(1, n + 1), np.zeros(2 * n), np.full(2 * n, INF))


class TestSolveMany:
    """One LP solved at a stack of right-hand sides: rows that pivot alike
    share a run, which splits where they part ways."""

    def test_bland_member_really_switches(self, monkeypatch):
        switched = solve(_bland_lp())
        # 22 rows, the 11th with a step that moves: 21 zero steps in all,
        # but no run of 20, so Bland's rule never takes over, alone or in
        # a stack.
        lp = _bland_lp(22)
        broken = LinearProgram(
            lp.objective, lp.eq_matrix, 0.5 * np.eye(22)[10], lp.lower_bounds, lp.upper_bounds
        )
        runs = [solve(broken), *lp_stack.rows(solve_rhs(broken, [broken.eq_rhs] * 2))]
        monkeypatch.setattr(lp_core, "BLAND_TRIGGER", 10**9)
        assert solve(_bland_lp()).iterations != switched.iterations
        assert trace_digest(runs) == trace_digest([solve(broken)] * 3)

    def test_phase_2_starts_with_dantzig_pricing(self, monkeypatch):
        # Phase 1 of _bland_lp makes 21 zero steps in a row and turns to
        # Bland's rule; phase 2 starts over with Dantzig pricing and no
        # stretch of degenerate steps, alone and in a stack.
        calls = []
        real_pivot = lp_core._Run.pivot

        def pivot(run, *args):
            phase_1 = run.phase[0][-1] == 1.0  # phase 1 prices the artificials
            before = (run.bland, run.degenerate)
            found = real_pivot(run, *args)
            calls.append((phase_1, before, run.bland))
            return found

        monkeypatch.setattr(lp_core._Run, "pivot", pivot)
        lp = _bland_lp()
        for rhs in ([lp.eq_rhs], [lp.eq_rhs] * 2):
            calls.clear()
            assert solve_rhs(lp, rhs).status == (OPTIMAL,) * len(rhs)
            assert calls == [(True, (False, 0), True), (False, (False, 0), False)]

    def test_empty_batch_rejected(self):
        with pytest.raises(LpInputError, match="rhs stack has shape"):
            solve_rhs(toy_lp(), np.zeros((0, 1)))

    def test_mixed_shapes_rejected(self):
        # A right-hand side of another LP's shape does not fit the stack.
        with pytest.raises(LpInputError, match="rhs stack has shape"):
            solve_rhs(toy_lp(), [[1.0, 2.0]])

    def test_exhausted_budget_names_the_lp(self):
        # 255 pivots on the 8-dimensional cube exceed the budget of 240; at a
        # zero right-hand side the cube is a point, and its row stops at once.
        cube = _klee_minty(8)
        zero, b = np.zeros(8), cube.eq_rhs
        with pytest.raises(SolverFailure, match=r"LP 2: iteration budget 240 exhausted"):
            solve_rhs(cube, [zero, zero, b, zero])
        # Nine full cubes: the budget runs out after the zero rows before
        # and after them have stopped.
        with pytest.raises(SolverFailure, match=r"LP 3: iteration budget 240 exhausted"):
            solve_rhs(cube, [zero] * 3 + [b] * 9 + [zero])
        # Rows that share their pivots exhaust it together, in one step of
        # their group; the first of them is named.
        with pytest.raises(SolverFailure, match=r"LP 1: iteration budget 240 exhausted"):
            solve_rhs(cube, [zero, b, b])
        # A lone cube runs out too.
        with pytest.raises(SolverFailure, match=r"LP 0: iteration budget 240 exhausted"):
            solve_rhs(cube, [b])

    def test_singular_basis_is_a_solver_failure(self, monkeypatch):
        real = lp_core._lapack_solve
        monkeypatch.setattr(lp_core, "_lapack_solve", lambda a, b: real(np.zeros_like(a), b))
        with pytest.raises(SolverFailure, match="singular basis"):
            solve(toy_lp())

    def test_singular_basis_under_the_numpy_fallback(self, monkeypatch):
        # np.linalg.solve, the fallback for a numpy without the LAPACK
        # gufunc, signals a singular basis with LinAlgError instead.
        monkeypatch.setattr(
            lp_core, "_lapack_solve", lambda a, b: np.linalg.solve(np.zeros_like(a), b)
        )
        with pytest.raises(SolverFailure, match="singular basis"):
            solve(toy_lp())

    @pytest.mark.parametrize(
        "lp, rhs",
        [
            # 32, 31, 32, 52 and 42 pivots; the last row is infeasible.
            pytest.param(
                _bland_lp(),
                [np.zeros(21), np.full(21, 0.5), 0.5 * np.eye(21)[-1], np.full(21, 2.5), np.full(21, 3.5)],
                id="bland",
            ),
            # Consistent rows keep a placeholder for the redundant one.
            pytest.param(
                LinearProgram([1.0, 2.0], [[1.0, 1.0], [1.0, 1.0]], [3.0, 3.0], [0.0, 0.0], [INF, 5.0]),
                [[3.0, 3.0], [3.0, 4.0], [1.0, 1.0], [-1.0, -1.0], [2.0, 2.5], [7.0, 7.0]],
                id="redundant-row",
            ),
            pytest.param(_OPEN_BOX, _OPEN_BOX_RHS, id="open-box"),
            # Two rows whose artificials take different signs start apart.
            pytest.param(_OPEN_BOX, [[1.0, -1.0], [3.0, 0.0]], id="two-rows-of-two-sign-patterns"),
            # Rows with the same outcome find their rays together.
            pytest.param(_OPEN_BOX, _OPEN_BOX_RHS * 3, id="open-box-array-step"),
            # Nine rows break Bland's ties together.
            pytest.param(
                _bland_tie_lp(),
                [np.zeros(21)] * 9 + [np.full(21, 0.5)],
                id="bland-tie-array-step",
            ),
            # x0 = b0 is met only to within the feasibility cutoff, so phase 1
            # ends with row 0's artificial basic at each row's own small value,
            # and swapping x0 in for it leaves that value behind.
            pytest.param(
                LinearProgram([1.0, 1.0], [[1.0, 0.0], [1.0, 1.0]], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]),
                [[1.0, 1.0], [1.0 + 1e-9, 1.5], [1.0 + 2e-9, 1.5], [1.0 + 1e-9, 2.0], [1.5, 1.5]],
                id="within-cutoff",
            ),
        ],
    )
    def test_rhs_stack_whose_rows_part_ways_equals_lone_solves(self, lp, rhs):
        # The rows share one LP, so they start together in runs of several
        # rows and part ways as their pivots differ; each still gets, to the
        # bit, what it gets alone.
        stacked = solve_rhs(lp, rhs)
        alone = [
            solve(LinearProgram(lp.objective, lp.eq_matrix, b, lp.lower_bounds, lp.upper_bounds))
            for b in rhs
        ]
        assert len(set(zip(stacked.status, stacked.iterations.tolist()))) > 1
        for row, sol in zip(lp_stack.rows(stacked), alone):
            assert trace_digest([row]) == trace_digest([sol])

    def test_stacks_with_free_and_upper_bounded_variables_equal_lone_solves(self):
        # A variable with no bound prices by |d| and steps by the sign of d;
        # one bounded only above starts at its upper bound and leaves there.
        # 300 seeded LPs with both kinds, each at 6 right-hand sides, give
        # every row what it gets alone, to the bit.
        rng = np.random.default_rng(1818)
        statuses = set()
        for _ in range(300):
            lp = lp_oracle.random_bounded_lp(rng)
            kind = rng.integers(0, 3, size=lp.n_variables)  # as drawn, free, bounded above
            lo = np.where(kind == 0, lp.lower_bounds, -INF)
            hi = np.where(kind == 1, INF, lp.upper_bounds)
            rhs = rng.integers(-4, 5, size=(6, lp.n_constraints)).astype(float)
            stacked = solve_rhs(LinearProgram(lp.objective, lp.eq_matrix, rhs[0], lo, hi), rhs)
            alone = [solve(LinearProgram(lp.objective, lp.eq_matrix, b, lo, hi)) for b in rhs]
            assert trace_digest(lp_stack.rows(stacked)) == trace_digest(alone)
            statuses.update(stacked.status)
        assert statuses == {OPTIMAL, INFEASIBLE, UNBOUNDED}

    def test_rhs_stack_checks_and_solves_each_row(self):
        # One LP at a stack of right-hand sides: each row solves as that LP
        # with the row as its right-hand side, to the bit, and a row whose
        # LP is infeasible leaves NaN in its numeric columns.
        lp = toy_lp()
        rhs = [[7.0], [5.0], [-1.0]]
        stacked = solve_rhs(lp, rhs)
        alone = [
            solve(LinearProgram(lp.objective, lp.eq_matrix, b, lp.lower_bounds, lp.upper_bounds))
            for b in rhs
        ]
        assert trace_digest(lp_stack.rows(stacked)) == trace_digest(alone)
        assert stacked.status == (OPTIMAL, OPTIMAL, INFEASIBLE)
        assert np.isnan(stacked.primal[2]).all() and np.isnan(stacked.duals[2]).all()
        for wrong_shape in ([7.0], [[[7.0]]]):
            with pytest.raises(LpInputError, match="rhs stack has shape"):
                solve_rhs(lp, wrong_shape)
        for not_finite in ([[7.0], [np.nan]], [[-np.inf]]):
            with pytest.raises(LpInputError, match="must be finite"):
                solve_rhs(lp, not_finite)
        for not_numbers in ([[7.0], [7.0, 8.0]], [["a"]]):
            with pytest.raises(LpInputError, match="not an array of numbers"):
                solve_rhs(lp, not_numbers)

    def test_basis_of_a_row_that_is_not_optimal_is_its_own(self):
        # Every row's basis comes back sorted, optimal or not, so an
        # infeasible row reports the same basis alone, where no row reaches
        # phase 2, as beside an optimal row, which takes the stack there.
        rng = np.random.default_rng(0)
        infeasible = 0
        for _ in range(100):
            lp = lp_oracle.random_bounded_lp(rng)
            alone = solve_rhs(lp, [lp.eq_rhs])
            if alone.status[0] != INFEASIBLE:
                continue
            infeasible += 1
            stacked = solve_rhs(lp, [lp.eq_rhs, lp.eq_matrix @ lp.lower_bounds])
            assert stacked.status == (INFEASIBLE, OPTIMAL)
            assert stacked.basis[0].tolist() == alone.basis[0].tolist()
        assert infeasible >= 20

    def test_only_rows_that_end_optimal_are_priced(self, monkeypatch):
        # A run prices its basis at the end of phase 2 only: rows that end
        # phase 1 infeasible stop there, alone, in a stack of their own, or
        # beside an optimal row.  The LPs are those of the test above.
        priced = []
        real = lp_core._priced

        def record(c, A, y, basis):
            priced.extend(np.reshape(basis, (-1, A.shape[0])).tolist())
            return real(c, A, y, basis)

        monkeypatch.setattr(lp_core, "_priced", record)
        rng = np.random.default_rng(0)
        infeasible = 0
        for _ in range(100):
            lp = lp_oracle.random_bounded_lp(rng)
            priced.clear()
            alone = solve_rhs(lp, [lp.eq_rhs])
            if alone.status[0] != INFEASIBLE:
                assert len(priced) == (alone.status[0] == OPTIMAL)
                continue
            infeasible += 1
            assert solve_rhs(lp, [lp.eq_rhs] * 3).status == (INFEASIBLE,) * 3
            assert priced == []
            stacked = solve_rhs(lp, [lp.eq_rhs, lp.eq_matrix @ lp.lower_bounds])
            assert stacked.status == (INFEASIBLE, OPTIMAL)
            assert [sorted(basis) for basis in priced] == [stacked.basis[1].tolist()]
        assert infeasible >= 20


class TestRatioTests:
    def test_stacked_scan_equals_the_scalar_scan_row_by_row(self):
        # _ratio_tests is _ratio_test's scan taken by all the rows of a run
        # at once.  Limits lie on a grid of small integers or a hair off it,
        # so steps tie, nearly tie and just miss; pivots lie below the floor,
        # a hair apart in size, or of either sign; bounds may be infinite;
        # and the entering range is 0, finite, within 1e-12 of a limit or
        # infinite.  Each row's blocking row, leaving side and step are the
        # scalar scan's, to the bit, except that a ray's step is 0.
        rng = np.random.default_rng(19)
        offsets = np.array([0.0, 1e-13, -1e-13, 5e-13, 2e-12])
        pivots = np.array([0.0, 1e-12, -1e-12, 1.0, -1.0, 1.0 + 5e-13, -1.0 - 5e-13, 2.0, -0.5])
        ranges = np.array([0.0, 1.0, 3.0, INF])
        # 20,000 draws of up to 8 rows and 5 basic rows, each cut to its size.
        n = 20000
        sizes = rng.integers((1, 2, 0, 0), (6, 9, 2, 4), size=(n, 4)).tolist()
        sw = pivots[rng.integers(9, size=(n, 1, 5))]
        base = -rng.integers(2, size=(n, 1, 5)).astype(float)
        lo = np.where(rng.random((n, 1, 5)) < 0.2, -INF, base)
        hi = base + ranges[rng.integers(4, size=(n, 1, 5))]
        limit = rng.integers(0, 4, (n, 8, 5)) + offsets[rng.integers(5, size=(n, 8, 5))]
        xb = np.where(sw > 0.0, lo + limit * sw, hi + limit * sw)
        xb = np.where(np.isfinite(xb), xb, rng.integers(-3, 4, (n, 8, 5)))
        bases = rng.permuted(np.tile(np.arange(8), (n, 1)), axis=1).tolist()
        outcomes = set()
        for i, (m, k, bland, kind) in enumerate(sizes):
            # The entering range: 0, finite, within 1e-12 of a limit, or none.
            own = [0.0, 2.0, float(limit[i, 0, m - 1]) + 5e-13, INF][kind]
            xb_i, sw_i, basis = xb[i, :k, :m], sw[i, 0, :m], bases[i][:m]
            lo_b, hi_b = lo[i, 0, :m].tolist(), hi[i, 0, :m].tolist()
            blocks, ups, thetas = lp_core._ratio_tests(xb_i, lo_b, hi_b, sw_i, basis, own, bland)
            for j, row in enumerate(xb_i.tolist()):
                block, up, theta = lp_core._ratio_test(row, lo_b, hi_b, sw_i.tolist(), basis, own, bland)
                step = 0.0 if block == -2 else theta
                # The leaving side means something only where a row blocks.
                side = bool(ups[j]) if block >= 0 else up
                assert (int(blocks[j]), side, float(thetas[j]).hex()) == (block, up, step.hex())
                outcomes.add((min(block, 0), up))
        assert outcomes == {(-2, False), (-1, False), (0, False), (0, True)}


class TestWorkCounts:
    """The work of canonical's verify stack (its dispatch LP at the 200
    shifts of ``verify``) and of one ``pieces`` walk, counted in calls.  The
    pivots fix these counts, so they do not move with the host."""

    @staticmethod
    def counted(monkeypatch) -> collections.Counter:
        counts = collections.Counter()
        for owner, name in ((lp_core._Run, "refresh"), (lp_core, "_lanes"), (lp_core, "_lapack_solve")):
            real = getattr(owner, name)

            def call(*args, real=real, name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(owner, name, call)
        return counts

    def test_lone_solve(self, monkeypatch):
        # Each pricing round and each pivot column is one solve, and so is
        # each refresh; the duals are the last pricing round's multipliers,
        # and phase 1 ends unpriced once no artificial is basic.  toy_lp
        # pivots once in phase 1 (2 solves), is refreshed (1) and prices
        # out at once in phase 2 (1), keeping the refresh.  The second LP
        # pivots twice in phase 1 (4 solves), is refreshed (1), pivots
        # twice in phase 2 (5) and is refreshed again (1).
        twice = LinearProgram([1.0, -1.0, 0.0], [[1.0, 1.0, 1.0]], [4.0], [0.0] * 3, [3.0, 3.0, INF])
        for lp, pivots, work in ((toy_lp(), 1, {"refresh": 1, "_lapack_solve": 4}),
                                 (twice, 4, {"refresh": 2, "_lapack_solve": 11})):
            counts = self.counted(monkeypatch)
            sol = solve(lp)
            assert (sol.status, sol.iterations) == (OPTIMAL, pivots)
            assert counts == work

    def test_verify_stack(self, monkeypatch):
        # The 200 rows share one sign pattern, so they start in one run with
        # no lexsort; it splits twice in phase 1, into runs of 20, 160 and 20
        # rows.  Two of them take no phase-2 pivot and are refreshed once;
        # the third pivots once in phase 2 and is refreshed again.  Each
        # run's phase 1 ends unpriced, with no artificial basic, and its
        # duals are its last pricing round's multipliers.
        s = parse_scenario_file(bundled_scenario_path("canonical"))
        deltas = np.linspace(0.0, s.L, 200)
        rhs = np.array([np.full(200, s.l0), s.l1 + deltas, s.l2 - deltas]).T
        counts = self.counted(monkeypatch)
        assert set(solve_rhs(build_ed(s, 0.0), rhs).status) == {OPTIMAL}
        assert counts == {"refresh": 4, "_lanes": 2, "_lapack_solve": 33}

    def test_pieces(self, monkeypatch):
        # The cold solve at shift 0 (5 phase-1 pivots of two solves each,
        # after which no artificial is basic, one refresh, and one phase-2
        # round that prices out at once) makes 12 solves; the walk makes two
        # per piece (its rate and its prices) and one at the break between
        # them (the dual-simplex row).
        s = parse_scenario_file(bundled_scenario_path("canonical"))
        counts = self.counted(monkeypatch)
        assert len(pieces(s)) == 2
        assert counts == {"refresh": 1, "_lapack_solve": 17}


class TestKktMany:
    def test_stacked_reports_equal_single_checks(self):
        # kkt_residuals on a stack of LPs that differ in every array gives
        # each pair the residuals verify_kkt gives it alone, to the bit.
        lps = _mixed_batch()
        pairs = [(lp, sol) for lp, sol in ((lp, solve(lp)) for lp in lps) if sol.status == OPTIMAL]
        tampered = dataclasses.replace(pairs[0][1], primal=pairs[0][1].primal + 1e-3)
        pairs.append((pairs[0][0], tampered))
        residuals = lp_core.kkt_residuals(
            *lp_stack.stack([lp for lp, _ in pairs]),
            np.array([sol.primal for _, sol in pairs]),
            np.array([sol.duals for _, sol in pairs]),
        )
        reports = [verify_kkt(lp, sol) for lp, sol in pairs]
        single = [[r.primal_feasibility, r.dual_feasibility, r.complementary_slackness] for r in reports]
        assert np.array(residuals).T.tolist() == single
        assert all(r.ok for r in reports[:-1]) and not reports[-1].ok

    def test_non_optimal_input_rejected(self):
        lp = toy_lp()
        sol = solve(lp)
        with pytest.raises(LpInputError):
            verify_kkt(lp, dataclasses.replace(sol, status=INFEASIBLE))


class TestFormatDump:
    def test_layout_and_roundtrip_values(self):
        lp = LinearProgram(
            [1.0, 0.0], [[1.0, -1.0]], [0.0], [-INF, -2.0], [INF, 3.0]
        )
        dump = format_lp(lp)
        lines = dump.splitlines()
        assert lines[0] == "1 2"
        assert lines[1] == "1.0 0.0"
        assert lines[2] == "1.0 -1.0 0.0"
        assert lines[3] == "-inf -2.0"
        assert lines[4] == "inf 3.0"
        assert dump.endswith("\n")
