"""Unit tests for the dispatch solve, bus prices, and settlement costs."""

import numpy as np
import pytest

import lp_oracle
import scenario_gen
from gridshift import lp_core
from gridshift.dispatch import (
    VARIABLE_NAMES,
    DeltaRangeError,
    DispatchInfeasibleError,
    DispatchOutcome,
    build_ed,
    csv_number,
    _solve_ed_cold,
    dc_cost_numeric,
    pieces,
    solve_ed,
    solve_ed_detailed,
    solve_ed_grid,
    sw_cost_numeric,
)
from gridshift.grid_model import tau
from gridshift.lp_core import verify_kkt
from gridshift.sweep import delta_grid


class TestBuildEd:
    def test_lp_structure(self):
        s = scenario_gen.canonical_scenario()
        lp = build_ed(s, 0.25)
        assert lp.eq_matrix.shape == (3, len(VARIABLE_NAMES))
        np.testing.assert_allclose(lp.objective, [0.0, 1.0, 2.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(lp.eq_rhs, [-2.5, 1.25, 1.75])
        np.testing.assert_allclose(lp.lower_bounds, [0, 0, 0, -1.5, -0.5, -0.4])
        np.testing.assert_allclose(
            lp.upper_bounds, [np.inf, np.inf, np.inf, 1.5, 0.5, 0.4]
        )

    def test_delta_outside_block_rejected(self):
        s = scenario_gen.canonical_scenario()
        with pytest.raises(DeltaRangeError):
            build_ed(s, -0.01)
        with pytest.raises(DeltaRangeError):
            build_ed(s, s.L + 0.01)

    def test_block_endpoints_allowed(self):
        s = scenario_gen.canonical_scenario()
        build_ed(s, 0.0)
        build_ed(s, s.L)


class TestCanonicalDispatch:
    """Frozen values, worked out by hand for the canonical scenario."""

    def test_no_shift(self):
        s = scenario_gen.canonical_scenario()
        o = solve_ed(s, 0.0)
        np.testing.assert_allclose(
            [o.y0, o.y1, o.y2, o.f01, o.f02, o.f12],
            [0.6, 0.0, 1.1, 1.4, 0.5, 0.4],
            atol=1e-12,
        )
        assert o.lmp == (0.0, 0.0, 2.0)
        assert o.lme == (0.0, 0.0, 2.0)
        assert o.total_cost == pytest.approx(2.2)
        assert not o.degenerate

    def test_below_threshold_prices_stay_renewable(self):
        s = scenario_gen.canonical_scenario()
        o = solve_ed(s, 0.05)
        assert o.lmp == (0.0, 0.0, 2.0)
        assert o.total_cost == pytest.approx(2.1)

    def test_threshold_point_reports_left_limit_prices(self):
        s = scenario_gen.canonical_scenario()
        assert tau(s).value == pytest.approx(0.1)
        o = solve_ed(s, 0.1)
        assert o.degenerate
        # Right of 0.1 the bus-1 price jumps to c1; the reported duals must
        # stick to the cheap side of the kink.
        assert o.lmp == (0.0, 0.0, 2.0)
        assert o.total_cost == pytest.approx(2.0)

    def test_past_threshold_local_generator_sets_price(self):
        s = scenario_gen.canonical_scenario()
        o = solve_ed(s, 0.5)
        np.testing.assert_allclose(
            [o.y0, o.y1, o.y2, o.f01, o.f02, o.f12],
            [0.5, 0.4, 0.6, 1.5, 0.5, 0.4],
            atol=1e-12,
        )
        assert o.lmp == (0.0, 1.0, 2.0)
        assert o.lme == (0.0, 1.0, 2.0)
        assert o.total_cost == pytest.approx(1.6)

    def test_full_shift(self):
        s = scenario_gen.canonical_scenario()
        o = solve_ed(s, 1.0)
        np.testing.assert_allclose([o.y1, o.y2], [0.9, 0.1], atol=1e-12)
        assert o.lmp == (0.0, 1.0, 2.0)
        assert o.total_cost == pytest.approx(1.1)


class TestPriceStructure:
    def test_prices_come_from_offer_set(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            s = scenario_gen.random_valid_scenario(rng)
            for frac in (0.0, 0.3, 0.9):
                o = solve_ed(s, frac * s.L)
                for price in o.lmp:
                    assert min(
                        abs(price - anchor) for anchor in (0.0, s.c1, s.c2)
                    ) < 1e-9

    def test_bus2_always_at_local_offer(self):
        # Bus 2 keeps importing at capacity and running its own generator, so
        # its price is pinned to c2 and its emission rate to e2.
        rng = np.random.default_rng(32)
        for _ in range(40):
            s = scenario_gen.random_valid_scenario(rng)
            for frac in (0.0, 0.45, 1.0):
                o = solve_ed(s, frac * s.L)
                assert o.lmp[2] == pytest.approx(s.c2, abs=1e-9)
                assert o.lme[2] == pytest.approx(s.e2, abs=1e-9)

    def test_duals_match_vertex_enumeration(self):
        s = scenario_gen.canonical_scenario()
        for delta in (0.0, 0.3, 0.7):
            lp = build_ed(s, delta)
            expected = lp_oracle.reference_solve(lp)
            outcome, sol = solve_ed_detailed(s, delta)
            assert expected.status == "optimal"
            assert sol.objective_value == pytest.approx(expected.objective, abs=1e-9)
            produced = tuple(round(v, 9) for v in sol.duals)
            assert produced in {tuple(round(v, 9) for v in d) for d in expected.duals}

    def test_solution_certifies(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            s = scenario_gen.random_valid_scenario(rng)
            d = float(rng.uniform(0.0, s.L))
            _, sol = solve_ed_detailed(s, d)
            assert verify_kkt(build_ed(s, d), sol).ok


class TestEmissionMapping:
    def test_exact_anchors(self):
        # Rates come from the optimal basis, not from the price: e1 and e2
        # differ from the offers here, and the threshold point reports the
        # left-limit (renewable) rate like its price.
        s = scenario_gen.canonical_scenario(e1=5.0, e2=3.0)
        assert solve_ed(s, 0.05).lme == (0.0, 0.0, 3.0)
        assert solve_ed(s, 0.1).lme == (0.0, 0.0, 3.0)
        assert solve_ed(s, 0.5).lme == (0.0, 5.0, 3.0)

    def test_free_generator_sets_rate(self):
        # c1 = 0: the bus-1 price is zero on both sides of the threshold, but
        # past it generator 1 is the basic, marginal unit.
        s = scenario_gen.canonical_scenario(c1=0.0, alpha_dc=0.5, alpha_sw=0.5)
        below = solve_ed(s, 0.05)
        above = solve_ed(s, 0.5)
        assert below.lmp[1] == above.lmp[1] == 0.0
        assert below.lme[1] == 0.0
        assert above.lme[1] == s.e1


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _signals(priced) -> bytes:
    """The bits of an outcome's or a piece's prices and emission rates."""
    return _bits([*priced.lmp, *priced.lme])


def _assert_grid_matches_cold(s, deltas) -> int:
    """``solve_ed_grid`` against a cold solve at every shift, all taken in one
    batch.  Returns the number of shifts at which the cold solve is
    degenerate.

    Each shift takes the prices of the piece holding it, the left one when
    it lies within the tolerance past a break.  Where the cold solve is not
    degenerate, they are its prices to the bit.  At a degenerate vertex the
    cold solve may stop in either optimal basis, so its prices are those of
    a piece whose interval, the tolerance included, holds the shift.  The
    degeneracy flags agree except where the cold solve's least basic
    clearance is within rounding of the margin itself; flows and cost
    agree to 1e-9 everywhere.
    """
    walk = pieces(s)
    tol = lp_core.TOLERANCE * max(1.0, s.L)
    grid = solve_ed_grid(s, deltas)
    assert len(grid) == len(deltas)
    lps, colds, sols = _solve_ed_cold(s, deltas)
    degenerate_points = 0
    for d, got, cold, lp, sol in zip(deltas, grid, colds, lps, sols):
        assert got.delta == cold.delta == float(d)
        taken = next(piece for piece in walk if d <= piece.end + tol)
        assert _signals(got) == _signals(taken)
        if cold.degenerate:
            holding = [p for p in walk if p.start - tol <= d <= p.end + tol]
            assert _signals(cold) in {_signals(p) for p in holding}
        else:
            assert _bits(got.lmp) == _bits(cold.lmp)
            assert _bits(got.lme) == _bits(cold.lme)
        clearance = scenario_gen._bound_clearance(lp, sol)
        if abs(clearance - 1e-7) > 1e-12:
            assert got.degenerate == cold.degenerate
        flows = [got.y0, got.y1, got.y2, got.f01, got.f02, got.f12]
        expected = [cold.y0, cold.y1, cold.y2, cold.f01, cold.f02, cold.f12]
        np.testing.assert_allclose(flows, expected, rtol=0.0, atol=1e-9)
        assert got.total_cost == pytest.approx(cold.total_cost, abs=1e-9)
        degenerate_points += cold.degenerate
    return degenerate_points


class TestGridDispatch:
    def test_cold_batch_matches_one_shift_at_a_time(self):
        """The batched cold route gives every shift, knife edges included,
        the outcome of solving it alone."""
        for s in scenario_gen.grid_mix()[::3]:
            deltas = np.sort(
                np.concatenate([delta_grid(s.L, 23), scenario_gen.knife_edge_shifts(s)])
            )
            lps, outcomes, sols = _solve_ed_cold(s, deltas)
            for d, lp, out, sol in zip(deltas, lps, outcomes, sols):
                alone, sol_alone = solve_ed_detailed(s, float(d))
                assert out == alone
                assert _signals(out) == _signals(alone)
                assert sol.primal.tobytes() == sol_alone.primal.tobytes()
                assert lp_core.format_lp(lp) == lp_core.format_lp(build_ed(s, float(d)))

    def test_matches_cold_solves_pointwise(self):
        """The pieces against a cold solve at every grid point.

        ``sweep_points`` (and so acceptance criterion 1) reads its dispatch
        from ``solve_ed_grid``, which solves once and pivots once per break.
        This is the cold per-point check of that route.  Every other
        scenario also gets shifts on the knife edges around its threshold.
        """
        degenerate_points = 0
        for k, s in enumerate(scenario_gen.grid_mix()):
            deltas = delta_grid(s.L, 200)
            if k % 2 == 0:
                deltas = np.sort(np.concatenate([deltas, scenario_gen.knife_edge_shifts(s)]))
            degenerate_points += _assert_grid_matches_cold(s, deltas)
        # The on-node thresholds, the threshold at L and the knife-edge
        # shifts put degenerate vertices on the grid.
        assert degenerate_points >= 21

    def test_on_node_threshold_takes_the_left_piece(self, monkeypatch):
        """linspace(0, 1, 11) puts a node on the canonical threshold, where
        the vertex is degenerate and a cold solve may stop in either optimal
        basis.  The node, and any shift within the tolerance past the break,
        takes the left piece's prices; a shift beyond it the right piece's.
        Pricing the threshold takes the one solve of the walk and no other."""
        s = scenario_gen.canonical_scenario()
        left, right = pieces(s)
        assert left.end == right.start == pytest.approx(tau(s).value, abs=1e-15)
        assert (tuple(left.lmp), tuple(right.lmp)) == ((0.0, 0.0, 2.0), (0.0, 1.0, 2.0))
        node = float(delta_grid(s.L, 11)[1])
        tol = lp_core.TOLERANCE * max(1.0, s.L)
        shifts = [node, left.end + tol, left.end + 2.0 * tol]
        grid = solve_ed_grid(s, shifts)
        assert [_signals(o) for o in grid] == [_signals(left)] * 2 + [_signals(right)]
        assert grid[0].degenerate
        solves = []
        real_solve_many = lp_core.solve_many

        def solve_many(lps):
            solves.extend(lps)
            return real_solve_many(lps)

        monkeypatch.setattr(lp_core, "solve_many", solve_many)
        assert solve_ed(s, node) == grid[0]
        assert len(solves) == 1

    def test_out_of_block_shift_rejected(self):
        s = scenario_gen.canonical_scenario()
        with pytest.raises(DeltaRangeError):
            solve_ed_grid(s, [0.0, 0.5, s.L + 0.01])


class TestCostEvaluations:
    def test_frozen_settlements(self):
        s = scenario_gen.canonical_scenario()
        expected = {0.0: (2.0, 4.0), 0.05: (1.9, 3.9), 0.1: (1.8, 3.8),
                    0.5: (1.5, 4.5), 1.0: (1.0, 4.0)}
        for delta, (dc, sw) in expected.items():
            o = solve_ed(s, delta)
            assert dc_cost_numeric(s, o) == pytest.approx(dc)
            assert sw_cost_numeric(s, o) == pytest.approx(sw)

    def test_total_cost_matches_generation(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            s = scenario_gen.random_valid_scenario(rng)
            o = solve_ed(s, float(rng.uniform(0.0, s.L)))
            assert o.total_cost == pytest.approx(
                s.c1 * o.y1 + s.c2 * o.y2, abs=1e-9
            )


class TestInfeasibility:
    def test_bus0_import_cut(self):
        s = scenario_gen.canonical_scenario()
        stranded = scenario_gen.canonical_scenario(l0=5.0)
        with pytest.raises(DispatchInfeasibleError) as err:
            solve_ed(stranded, 0.0)
        assert any("bus-0" in b for b in err.value.binding)
        # sanity: the base case itself still dispatches
        solve_ed(s, 0.0)

    def test_bus1_export_cut(self):
        flooded = scenario_gen.canonical_scenario(l1=-5.0)
        with pytest.raises(DispatchInfeasibleError) as err:
            solve_ed(flooded, 0.0)
        assert any("bus-1" in b for b in err.value.binding)

    def test_walk_ends_where_feasibility_does(self):
        # Bus 2 exports at most F02 + F12 = 0.5, so no dispatch exists past
        # a shift of 0.7: the pieces end there, shifts before it are priced
        # as a cold solve prices them, and a shift past it is refused.
        s = scenario_gen.canonical_scenario(l2=0.2, F02=0.3, F12=0.2)
        assert pieces(s)[-1].end == pytest.approx(0.7, abs=1e-12)
        cold, _ = solve_ed_detailed(s, 0.5)
        assert (solve_ed(s, 0.5).lmp, solve_ed(s, 0.5).lme) == (cold.lmp, cold.lme)
        with pytest.raises(DispatchInfeasibleError) as err:
            solve_ed_grid(s, [0.0, 0.5, 0.9])
        assert any("bus-2" in b for b in err.value.binding)


class TestCsvRendering:
    def test_number_format_trims_noise(self):
        assert csv_number(0.6000000000000001) == "0.6"
        assert csv_number(2.0) == "2"
        assert csv_number(-0.0) == "-0"
        assert csv_number(1.0 / 3.0) == "0.333333333333"

    def test_header_and_frozen_row(self):
        s = scenario_gen.canonical_scenario()
        o = solve_ed(s, 0.0)
        assert DispatchOutcome.CSV_HEADER == (
            "delta,y0,y1,y2,f01,f02,f12,lambda0,lambda1,lambda2,pi1,pi2,total_cost"
        )
        assert o.to_csv_row() == "0,0.6,0,1.1,1.4,0.5,0.4,0,0,2,0,2,2.2"

    def test_rows_deterministic(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            s = scenario_gen.random_valid_scenario(rng)
            d = float(rng.uniform(0.0, s.L))
            assert solve_ed(s, d).to_csv_row() == solve_ed(s, d).to_csv_row()
