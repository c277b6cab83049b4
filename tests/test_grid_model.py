"""Unit tests for scenario data, validity conditions, and the threshold."""

import dataclasses

import numpy as np
import pytest

import scenario_gen
from gridshift.grid_model import (
    SCENARIO_KEYS,
    ScenarioError,
    ScenarioParseError,
    ThreeBusScenario,
    bundled_scenario_names,
    bundled_scenario_path,
    csv_lines,
    csv_number,
    csv_row,
    eta,
    parse_scenario,
    parse_scenario_file,
    serialize_scenario,
    tau,
    validate,
    write_scenario_file,
)


class TestScenarioConstruction:
    def test_int_inputs_normalize_to_float(self):
        s = scenario_gen.canonical_scenario(c1=1, l1=1)
        assert isinstance(s.c1, float) and s.c1 == 1.0
        assert isinstance(s.l1, float)

    def test_numpy_scalars_accepted(self):
        s = scenario_gen.canonical_scenario(c2=np.float64(2.0))
        assert isinstance(s.c2, float)

    def test_negative_price_rejected(self):
        with pytest.raises(ScenarioError, match="c1 must be nonnegative"):
            scenario_gen.canonical_scenario(c1=-0.5)

    def test_weight_outside_unit_interval_rejected(self):
        with pytest.raises(ScenarioError, match="alpha_dc"):
            scenario_gen.canonical_scenario(alpha_dc=1.2)

    def test_non_numeric_rejected(self):
        with pytest.raises(ScenarioError, match="must be a number"):
            scenario_gen.canonical_scenario(l0="west")

    def test_non_finite_rejected(self):
        with pytest.raises(ScenarioError, match="must be finite"):
            scenario_gen.canonical_scenario(F01=float("inf"))


class TestThreshold:
    def test_canonical_congestion_limited(self):
        t = tau(scenario_gen.canonical_scenario())
        assert t.binding == "congestion"
        assert t.value == pytest.approx(0.1)

    def test_renewable_limited_when_import_scarce(self):
        s = scenario_gen.canonical_scenario(F01=2.0, l0=-2.3)
        t = tau(s)
        assert t.binding == "renewable"
        assert t.value == pytest.approx(0.4)

    def test_both_limits_coincide(self):
        s = scenario_gen.canonical_scenario(F01=2.0)
        t = tau(s)
        assert t.binding == "both"
        assert t.value == pytest.approx(0.6)

    def test_monotone_in_line_capacity_and_base_load(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = scenario_gen.random_valid_scenario(rng)
            base = tau(s).value
            wider = tau(dataclasses.replace(s, F01=s.F01 + 0.3)).value
            assert wider >= base - 1e-12
            loaded = tau(dataclasses.replace(s, l1=s.l1 + 0.2)).value
            assert loaded == pytest.approx(base - 0.2)


class TestValidity:
    def test_canonical_is_valid_with_expected_margins(self):
        report = validate(scenario_gen.canonical_scenario())
        assert report.valid
        assert report.failures() == ()
        margins = {c.name: c.margin for c in report.checks}
        assert margins["bus-1 generation cheaper"] == pytest.approx(1.0)
        assert margins["positive system load"] == pytest.approx(0.5)
        assert margins["bus-1 load renewable-servable"] == pytest.approx(0.9)
        assert margins["bus-2 load exceeds import capacity"] == pytest.approx(0.1)
        assert margins["shift threshold positive"] == pytest.approx(0.1)
        assert margins["shift threshold within block"] == pytest.approx(0.9)

    def test_price_order_failure(self):
        report = validate(scenario_gen.canonical_scenario(c2=0.5))
        assert not report.valid
        names = [c.name for c in report.failures()]
        assert names == ["bus-1 generation cheaper"]

    def test_threshold_nonpositive_failure(self):
        # Shrink the 0-1 line until the corridor cannot even carry l1.
        report = validate(scenario_gen.canonical_scenario(F01=1.3))
        failed = {c.name for c in report.failures()}
        assert "shift threshold positive" in failed

    def test_threshold_equal_to_block_passes(self):
        # F01 = 2.4 and l0 = -2.9 put both capacity terms at 2.0, so
        # tau = 1.0 = L; the within-block condition is non-strict and must
        # accept this while the scenario stays valid overall.
        s = scenario_gen.canonical_scenario(F01=2.4, l0=-2.9)
        report = validate(s)
        assert tau(s).value == pytest.approx(1.0)
        assert report.valid
        check = {c.name: c for c in report.checks}["shift threshold within block"]
        assert check.passed
        assert check.borderline

    def test_borderline_flag_on_knife_edge(self):
        report = validate(scenario_gen.canonical_scenario(c2=1.0))
        check = {c.name: c for c in report.checks}["bus-1 generation cheaper"]
        assert not check.passed
        assert check.borderline

    def test_report_text_shape(self):
        text = validate(scenario_gen.canonical_scenario()).to_text()
        lines = text.splitlines()
        assert len(lines) == 7
        assert all(line.startswith("[ok]") for line in lines[:6])
        assert lines[-1] == "scenario valid"


class TestBlendedRates:
    def test_pure_price_weighting(self):
        s = scenario_gen.canonical_scenario()
        assert eta(s, 1, "dc") == pytest.approx(1.0)
        assert eta(s, 2, "dc") == pytest.approx(2.0)

    def test_half_weighting_blends(self):
        s = scenario_gen.canonical_scenario(e1=7.0, e2=4.0, alpha_dc=0.5, alpha_sw=0.5)
        assert eta(s, 1, "dc") == pytest.approx(4.0)
        assert eta(s, 2, "sw") == pytest.approx(3.0)

    def test_bad_bus_or_agent(self):
        s = scenario_gen.canonical_scenario()
        with pytest.raises(ValueError):
            eta(s, 0, "dc")
        with pytest.raises(ValueError):
            eta(s, 1, "grid")


class TestParsing:
    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = scenario_gen.random_valid_scenario(rng)
            again = parse_scenario(serialize_scenario(s))
            for key in SCENARIO_KEYS:
                assert getattr(again, key) == getattr(s, key)

    def test_comments_and_blank_lines_ignored(self):
        text = serialize_scenario(scenario_gen.canonical_scenario())
        decorated = "# header\n\n" + text.replace("c1 = 1.0", "c1 = 1.0  # cheap")
        s = parse_scenario(decorated)
        assert s.c1 == 1.0

    def test_unknown_key_reports_line(self):
        with pytest.raises(ScenarioParseError, match="line 2: unknown key 'w'"):
            parse_scenario("c1 = 1.0\nw = 3\n")

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ScenarioParseError, match="line 3: duplicate key 'c1'"):
            parse_scenario("\nc1 = 1.0\nc1 = 2.0\n")

    def test_lines_end_at_line_feeds_only(self):
        # Form feed, NEL and the ASCII and Unicode separators are not line
        # ends: a key after one is part of the value before it, and line
        # numbers count line feeds.  A carriage return before a line feed is
        # dropped.
        text = serialize_scenario(scenario_gen.canonical_scenario())
        assert parse_scenario(text.replace("\n", "\r\n")) == parse_scenario(text)
        joined = text.replace("\nc2 = ", "\x0cc2 = ", 1)
        with pytest.raises(ScenarioParseError, match=r"line 1: could not parse value '1\.0\\x0cc2 = 2\.0'"):
            parse_scenario(joined)
        for separator in ("\x85", "\u2028", "\x1c"):
            with pytest.raises(ScenarioParseError, match="line 2: unknown key 'w'"):
                parse_scenario(f"# note{separator}more\nw = 3\n")

    def test_bad_number_reports_line(self):
        with pytest.raises(ScenarioParseError, match="line 1"):
            parse_scenario("c1 = cheap\n")

    def test_missing_equals_reports_line(self):
        with pytest.raises(ScenarioParseError, match="expected 'key = value'"):
            parse_scenario("c1 1.0\n")

    def test_missing_keys_listed(self):
        with pytest.raises(ScenarioParseError, match="missing keys: .*alpha_sw"):
            parse_scenario("c1 = 1.0\n")

    def test_file_round_trip(self, tmp_path):
        s = scenario_gen.canonical_scenario()
        path = tmp_path / "scen.txt"
        write_scenario_file(s, path)
        assert parse_scenario_file(path) == s


class TestCsvNumber:
    def test_number_format_trims_noise(self):
        assert csv_number(0.6000000000000001) == "0.6"
        assert csv_number(2.0) == "2"
        assert csv_number(-0.0) == "-0"
        assert csv_number(1.0 / 3.0) == "0.333333333333"

    def test_table_writer_formats_like_rows_on_hostile_columns(self):
        # csv_lines formats each distinct float once; 0.0 and -0.0 compare
        # equal but print differently, so each must keep its own text.
        nan, inf = float("nan"), float("inf")
        numbers = [0.0, -0.0, nan, inf, -inf, 0.6000000000000001, -0.0, 0.0, nan, -inf, 0.6, -0.0]
        labels = [f"r{i}" for i in range(len(numbers))]
        lines = csv_lines("x,label", [np.array(numbers), labels])
        assert lines == ["x,label"] + [csv_row(row) for row in zip(numbers, labels)]
        zeros = [line.split(",")[0] for line, x in zip(lines[1:], numbers) if x == 0.0]
        assert zeros == ["0", "-0", "-0", "0", "-0"]
        assert lines[6] == "0.6,r5"

    def test_table_writer_dedups_across_columns(self):
        # One dedup serves the whole table: a zero in one column and a
        # negative zero in another keep their own texts, and a value shared
        # by two columns prints alike in both, around a string column.
        nan, inf = float("nan"), float("inf")
        a = [0.0, 0.5, nan, inf, -inf, 2.0]
        b = [-0.0, 0.5, -0.0, -inf, 0.0, 1e-300]
        labels = ["p", "q", "r", "s", "t", "u"]
        c = [3, 0.5, nan, inf, -0.0, 2.0]
        lines = csv_lines("a,b,label,c", [np.array(a), np.array(b), labels, np.array(c)])
        assert lines == ["a,b,label,c"] + [csv_row(row) for row in zip(a, b, labels, c)]
        assert lines[1] == "0,-0,p,3"
        assert csv_lines("a,label", [np.array([]), np.array([], dtype=str)]) == ["a,label"]


class TestBundledScenarios:
    def test_all_bundled_files_parse_and_validate(self):
        names = bundled_scenario_names()
        assert "canonical" in names
        assert len(names) == 5
        for name in names:
            s = parse_scenario_file(bundled_scenario_path(name))
            assert validate(s).valid, name

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError, match="no bundled scenario"):
            bundled_scenario_path("nope")
