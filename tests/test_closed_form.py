"""Unit tests for the closed-form objectives and the alignment verdict."""

import dataclasses

import numpy as np
import pytest

import scenario_gen
from gridshift import closed_form, dispatch
from gridshift.closed_form import (
    DegenerateWeightsError,
    ScenarioInvalidError,
    Shift,
    classify_alignment,
    objective_dc,
    objective_sw,
    optimal_shift_dc,
    optimal_shift_sw,
)
from gridshift.grid_model import eta, tau, validate
from gridshift.sweep import verify_scenario


def _jump(objective):
    """Right-limit value minus the (left-piece) value attained at the break."""
    left, right = objective.sides(*objective.breaks)
    return right - left


class TestObjectiveShapes:
    def test_canonical_dc_segments(self):
        obj = objective_dc(scenario_gen.canonical_scenario())
        assert obj.breaks == (pytest.approx(0.1),)
        assert obj.domain == pytest.approx(1.0)
        assert obj.intercepts == (pytest.approx(2.0), pytest.approx(2.0))
        assert obj.slopes == (pytest.approx(-2.0), pytest.approx(-1.0))
        assert _jump(obj) == pytest.approx(0.1)

    def test_canonical_sw_segments(self):
        obj = objective_sw(scenario_gen.canonical_scenario())
        assert obj.intercepts == (pytest.approx(4.0), pytest.approx(5.0))
        assert obj.slopes == (pytest.approx(-2.0), pytest.approx(-1.0))
        assert _jump(obj) == pytest.approx(1.1)

    def test_breakpoint_evaluates_on_left_branch(self):
        obj = objective_dc(scenario_gen.canonical_scenario())
        assert obj.evaluate(0.1) == pytest.approx(1.8)
        assert obj.evaluate(0.1 + 1e-6) == pytest.approx(2.0 - (0.1 + 1e-6))
        # Exactly at the break (0.1 plus rounding) the left piece applies.
        (brk,) = obj.breaks
        assert obj.evaluate(brk) == obj.sides(brk)[0] == pytest.approx(1.8)

    def test_evaluate_rejects_outside_domain(self):
        obj = objective_dc(scenario_gen.canonical_scenario())
        with pytest.raises(ValueError):
            obj.evaluate(-0.01)
        with pytest.raises(ValueError):
            obj.evaluate(1.01)

    def test_jump_scales_with_threshold_and_base_load(self):
        # DC jump reprices only the shifted slice (eta1 * tau); SW also
        # reprices the bus-1 base load (eta1 * (l1 + tau)).
        rng = np.random.default_rng(21)
        for _ in range(30):
            s = scenario_gen.random_valid_scenario(rng)
            t = tau(s).value
            eta1 = eta(s, 1, "dc")
            assert _jump(objective_dc(s)) == pytest.approx(
                eta1 * t, abs=1e-9
            )
            eta1_sw = eta(s, 1, "sw")
            assert _jump(objective_sw(s)) == pytest.approx(
                eta1_sw * (s.l1 + t), abs=1e-9
            )

    def test_invalid_scenario_refused(self):
        bad = scenario_gen.canonical_scenario(c2=0.5)
        with pytest.raises(ScenarioInvalidError) as err:
            objective_dc(bad)
        assert not err.value.report.valid
        names = [c.name for c in err.value.report.failures()]
        assert "bus-1 generation cheaper" in names


class TestOptimalShifts:
    def test_canonical_frozen_choices(self):
        s = scenario_gen.canonical_scenario()
        dc = optimal_shift_dc(s)
        sw = optimal_shift_sw(s)
        assert dc == Shift(delta=pytest.approx(1.0), value=pytest.approx(1.0))
        assert sw == Shift(delta=pytest.approx(0.1), value=pytest.approx(3.8))

    def test_exact_tie_prefers_threshold(self):
        # F01 = 1.9 puts the threshold at 0.5, exactly the data-center
        # indifference point: both candidates cost 1.0 and the threshold wins.
        s = scenario_gen.canonical_scenario(F01=1.9)
        assert tau(s).value == pytest.approx(0.5)
        dc = optimal_shift_dc(s)
        assert dc.delta == pytest.approx(0.5)
        assert dc.value == pytest.approx(1.0)
        rep = classify_alignment(s)
        assert rep.verdict == "aligned"
        assert rep.binding_case == "both-threshold"

    def test_degenerate_blend_rejected(self):
        # alpha_dc = 0 with a zero-emission bus-2 generator makes the blended
        # bus-2 rate vanish; "shift everything" stops being comparable.
        s = scenario_gen.canonical_scenario(alpha_dc=0.0, e2=0.0)
        with pytest.raises(DegenerateWeightsError):
            optimal_shift_dc(s)
        optimal_shift_sw(s)  # the system agent still blends normally

    def test_matches_dense_grid_argmin(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            s = scenario_gen.random_valid_scenario(rng)
            t = tau(s).value
            grid = np.append(np.linspace(0.0, s.L, 101), t)
            for objective, shift in (
                (objective_dc(s), optimal_shift_dc(s)),
                (objective_sw(s), optimal_shift_sw(s)),
            ):
                values = [objective.evaluate(d) for d in grid]
                best = int(np.argmin(values))
                assert shift.value <= values[best] + 1e-9
                assert objective.evaluate(shift.delta) == pytest.approx(
                    shift.value, abs=1e-12
                )


class TestAlignmentReport:
    def test_canonical_frozen_report(self):
        rep = classify_alignment(scenario_gen.canonical_scenario())
        assert rep.verdict == "misaligned"
        assert rep.binding_case == "dc-full-sw-threshold"
        assert rep.delta_star_dc == pytest.approx(1.0)
        assert rep.delta_star_sw == pytest.approx(0.1)
        assert rep.sw_at_dc_choice == pytest.approx(4.0)
        assert rep.sw_at_sw_choice == pytest.approx(3.8)
        assert rep.externality_at_dc_choice == pytest.approx(0.2)
        assert rep.suboptimality_ratio == pytest.approx(4.0 / 3.8)
        assert rep.residual_at_dc_choice == pytest.approx(3.0)
        assert rep.residual_at_sw_choice == pytest.approx(2.0)

    def test_canonical_frozen_csv_row(self):
        rep = classify_alignment(scenario_gen.canonical_scenario())
        assert rep.to_csv_row() == (
            "1,0.1,misaligned,dc-full-sw-threshold,4,3.8,0.2,1.05263157895,3,2"
        )

    def test_text_report_mentions_verdict(self):
        text = classify_alignment(scenario_gen.canonical_scenario()).to_text()
        assert "MISALIGNED (dc-full-sw-threshold)" in text
        assert "suboptimality ratio" in text

    def test_ratio_never_below_one(self):
        rng = np.random.default_rng(23)
        for _ in range(150):
            s = scenario_gen.random_valid_scenario(rng)
            rep = classify_alignment(s)
            assert rep.suboptimality_ratio >= 1.0 - 1e-9
            assert rep.externality_at_dc_choice >= -1e-9
            if rep.verdict == "aligned":
                assert rep.suboptimality_ratio == pytest.approx(1.0, abs=1e-9)
                assert rep.externality_at_dc_choice == pytest.approx(0.0, abs=1e-9)

    def test_private_threshold_stop_implies_alignment(self):
        # With equal blend weights the system indifference point sits below
        # the private one, so a data center that stops at the threshold
        # guarantees the system agrees.
        rng = np.random.default_rng(24)
        seen = 0
        for _ in range(200):
            s = scenario_gen.random_valid_scenario(rng)
            rep = classify_alignment(s)
            if abs(rep.delta_star_dc - tau(s).value) <= 1e-9:
                seen += 1
                assert rep.verdict == "aligned"
        assert seen >= 20

    def test_band_scenarios_strictly_misaligned(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            s = scenario_gen.random_misaligned_scenario(rng)
            rep = classify_alignment(s)
            assert rep.verdict == "misaligned"
            assert rep.binding_case == "dc-full-sw-threshold"
            assert rep.externality_at_dc_choice > 0.0

    def test_validates_once(self, monkeypatch):
        calls = []

        def counting_validate(s):
            calls.append(s)
            return validate(s)

        monkeypatch.setattr(closed_form, "validate", counting_validate)
        classify_alignment(scenario_gen.canonical_scenario())
        assert len(calls) == 1

    def test_negative_base_load_system_optimum_is_not_the_infimum(self):
        # A valid scenario with l1 + tau < 0: the system cost jumps down at
        # the threshold by eta1 (l1 + tau), so its right piece there lies
        # below both candidates the optimum compares (the left-limit value
        # at tau and the value at L).  Pinned as it stands, not as it should
        # be: the optimum it reports is not the infimum of the system cost.
        s = scenario_gen.zero_cost_scenario(e1=3.0, e2=0.5, alpha_dc=0.0, alpha_sw=0.0)
        assert validate(s).valid
        assert verify_scenario(s).passed
        t = tau(s).value
        assert t == 0.875 and s.l1 + t < 0.0
        rep = classify_alignment(s)
        assert (rep.delta_star_sw, rep.sw_at_sw_choice) == (1.0, pytest.approx(-6.875))
        sw = objective_sw(s)
        left, right = sw.sides(t)
        assert right - left == pytest.approx(eta(s, 1, "sw") * (s.l1 + t))
        assert right - left == pytest.approx(-7.875)
        assert sw.at(t) == left
        assert right == pytest.approx(-7.1875)
        assert right < rep.sw_at_sw_choice
        out, _ = dispatch.solve_ed_detailed(s, t)
        assert dispatch.sw_cost_numeric(s, out) == pytest.approx(-7.1875)


def _predicted_case(s):
    """Binding case read off the two cutoffs ``L - (eta1/eta2)(L + b1)``,
    with ``b1`` = 0 for the bill and ``l1`` for the system."""
    t = tau(s).value
    stops = [
        t - (s.L - eta(s, 1, agent) / eta(s, 2, agent) * (s.L + base1)) >= -1e-9
        for agent, base1 in (("dc", 0.0), ("sw", s.l1))
    ]
    return {
        (True, True): "both-threshold",
        (False, False): "both-full",
        (False, True): "dc-full-sw-threshold",
        (True, False): "dc-threshold-sw-full",
    }[tuple(stops)]


class TestSplitWeights:
    """The two agents blend price and emissions with different weights."""

    def test_band_draws_verify_and_split_both_ways(self):
        rng = np.random.default_rng(26)
        cases = set()
        for _ in range(30):
            s = scenario_gen.random_split_weight_scenario(rng)
            assert s.alpha_dc != s.alpha_sw
            report = verify_scenario(s, resolution=40)
            assert report.passed, report.to_text()
            rep = classify_alignment(s)
            assert rep.verdict == "misaligned"
            assert rep.binding_case == _predicted_case(s)
            cases.add(rep.binding_case)
        assert cases == {"dc-full-sw-threshold", "dc-threshold-sw-full"}

    def test_verdict_matches_cutoffs_on_independent_weights(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            s = dataclasses.replace(
                scenario_gen.random_valid_scenario(rng),
                alpha_dc=float(rng.uniform(0.0, 1.0)),
                alpha_sw=float(rng.uniform(0.0, 1.0)),
            )
            rep = classify_alignment(s)
            assert rep.binding_case == _predicted_case(s)
            assert (rep.verdict == "aligned") == (
                rep.binding_case in ("both-threshold", "both-full")
            )
