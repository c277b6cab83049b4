"""End-to-end tests of the command-line interface (exit codes and output)."""

import dataclasses
import os
import pathlib
import re

import pytest

import scenario_gen
from gridshift import cli, lp_core, sweep
from gridshift.grid_model import (
    bundled_scenario_path,
    write_scenario_file,
)


@pytest.fixture()
def canonical_path(tmp_path):
    path = tmp_path / "canonical.txt"
    write_scenario_file(scenario_gen.canonical_scenario(), path)
    return str(path)


@pytest.fixture()
def invalid_path(tmp_path):
    path = tmp_path / "invalid.txt"
    write_scenario_file(scenario_gen.canonical_scenario(c2=0.5), path)
    return str(path)


class TestSweepCommand:
    def test_stdout_csv(self, canonical_path, capsys):
        rc = cli.main(["sweep", "--scenario", canonical_path, "--resolution", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == sweep.SWEEP_HEADER
        assert len(lines) == 6

    def test_file_output_byte_identical_across_runs(self, canonical_path, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for target in (a, b):
            rc = cli.main(
                ["sweep", "--scenario", canonical_path, "--resolution", "30",
                 "--out", str(target)]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"\r" not in a.read_bytes()

    def test_default_resolution_is_200(self, canonical_path, tmp_path):
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--scenario", canonical_path, "--out", str(out)])
        assert len(out.read_text().splitlines()) == 201


class TestHeatmapCommand:
    def test_writes_cells_and_boundary(self, canonical_path, tmp_path):
        out = tmp_path / "heat.csv"
        rc = cli.main(
            ["heatmap", "--scenario", canonical_path, "--resolution", "4",
             "--f12-range", "0:1", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().splitlines()[0] == sweep.HEATMAP_HEADER
        boundary = tmp_path / "heat_boundary.csv"
        assert boundary.exists()
        assert boundary.read_text().splitlines()[0] == sweep.BOUNDARY_HEADER

    def test_explicit_boundary_path(self, canonical_path, tmp_path):
        out = tmp_path / "cells.csv"
        edge = tmp_path / "edge.csv"
        rc = cli.main(
            ["heatmap", "--scenario", canonical_path, "--resolution", "3",
             "--out", str(out), "--boundary-out", str(edge)]
        )
        assert rc == 0
        assert edge.exists()

    def test_both_tables_to_stdout(self, canonical_path, capsys):
        rc = cli.main(
            ["heatmap", "--scenario", canonical_path, "--resolution", "3",
             "--out", "-", "--boundary-out", "-"]
        )
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == sweep.HEATMAP_HEADER and out[10] == sweep.BOUNDARY_HEADER

    def test_stdout_without_boundary_path_is_usage_error(self, canonical_path, capsys):
        rc = cli.main(["heatmap", "--scenario", canonical_path, "--resolution", "3"])
        assert rc == 2
        assert "boundary" in capsys.readouterr().err

    def test_bad_range_string_exits_2(self, canonical_path):
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["heatmap", "--scenario", canonical_path, "--f12-range", "zero-one"]
            )
        assert err.value.code == 2


class TestClassifyCommand:
    def test_canonical_text(self, canonical_path, capsys):
        rc = cli.main(["classify", "--scenario", canonical_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "threshold: 0.1 (congestion-limited)" in out
        assert "MISALIGNED (dc-full-sw-threshold)" in out

    def test_csv_written_when_out_given(self, canonical_path, tmp_path):
        out = tmp_path / "verdict.csv"
        cli.main(["classify", "--scenario", canonical_path, "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith("misaligned,dc-full-sw-threshold,4,3.8,0.2,1.05263157895,3,2")

    def test_bundled_scenarios_reach_expected_verdicts(self, capsys):
        expected = {
            "canonical": "MISALIGNED (dc-full-sw-threshold)",
            "misaligned_full_shift": "MISALIGNED (dc-full-sw-threshold)",
            "aligned_expanded_line": "ALIGNED (both-threshold)",
            "aligned_costly_bus1": "ALIGNED (both-threshold)",
            "aligned_clean_bus1": "ALIGNED (both-full)",
        }
        for name, verdict in expected.items():
            rc = cli.main(["classify", "--scenario", bundled_scenario_path(name)])
            assert rc == 0
            assert verdict in capsys.readouterr().out, name


    def test_system_optimum_costing_zero(self, tmp_path, capsys):
        # A valid scenario whose system optimum costs exactly 0: the ratio
        # prints as inf, in the text and the CSV row, and the heatmap over
        # its neighbourhood agrees, with exit 0 and nothing on stderr.
        path = tmp_path / "zero.txt"
        write_scenario_file(scenario_gen.zero_cost_scenario(), path)
        out = tmp_path / "verdict.csv"
        rc = cli.main(["classify", "--scenario", str(path), "--out", str(out)])
        assert rc == 0
        assert "suboptimality ratio:                   inf" in capsys.readouterr().out
        assert out.read_text().splitlines()[1] == (
            "0.875,1,misaligned,dc-threshold-sw-full,2.75,0,2.75,inf,2.5,-1"
        )
        heat = tmp_path / "heat.csv"
        rc = cli.main(
            ["heatmap", "--scenario", str(path), "--f01-range", "2.4:2.6",
             "--f12-range", "0.9:1.1", "--resolution", "5", "--out", str(heat)]
        )
        assert rc == 0
        assert capsys.readouterr().err == ""
        assert "2.5,1,1,0.875,0,2.75,inf,misaligned" in heat.read_text().splitlines()


class TestVerifyCommand:
    def test_canonical_passes(self, canonical_path, capsys):
        rc = cli.main(["verify", "--scenario", canonical_path, "--resolution", "40"])
        assert rc == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_failed_verification_exits_3(self, canonical_path, monkeypatch, capsys):
        real = sweep.verify_scenario

        def always_fail(s, resolution=200):
            return dataclasses.replace(real(s, resolution), max_kkt_residual=1.0)

        monkeypatch.setattr(sweep, "verify_scenario", always_fail)
        rc = cli.main(["verify", "--scenario", canonical_path, "--resolution", "10"])
        assert rc == 3
        assert "result: FAIL" in capsys.readouterr().out

    def test_nan_deviation_exits_3(self, tmp_path, capsys):
        # A valid scenario whose system-cost deviation is NaN (see
        # tests/test_sweep.py) must not verify.
        path = tmp_path / "ceiling.txt"
        s = scenario_gen.canonical_scenario(c1=2e307, c2=1e308, alpha_dc=0.0, alpha_sw=1.0)
        write_scenario_file(s, path)
        rc = cli.main(["verify", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert rc == 3
        assert "system cost: nan" in out
        assert "result: FAIL" in out

    @pytest.mark.parametrize("resolution", ["200", "2"])
    def test_tiny_block_exits_0(self, tmp_path, resolution, capsys):
        # A block of 1e-6 puts every grid point within the band around the
        # threshold (5e-7); each is checked against either side, and passes.
        path = tmp_path / "tiny.txt"
        write_scenario_file(scenario_gen.canonical_scenario(L=1e-6, F01=1.4000005), path)
        rc = cli.main(["verify", "--scenario", str(path), "--resolution", resolution])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"grid: {resolution} points, either side within 1e-06 of the threshold" in out
        assert out.endswith("result: PASS\n")

    @pytest.mark.parametrize("j", range(-26, -19))
    def test_scaled_down_canonical_exits_0(self, tmp_path, j, capsys):
        # Canonical with every quantity scaled by 2**j: the block is so short
        # that every grid point lies within the band, which is absolute.
        scaled = {k: v * 2.0**j for k, v in vars(scenario_gen.canonical_scenario()).items()
                  if k in ("l0", "l1", "l2", "L", "F01", "F02", "F12")}
        path = tmp_path / "scaled.txt"
        write_scenario_file(scenario_gen.canonical_scenario(**scaled), path)
        rc = cli.main(["verify", "--scenario", str(path)])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.endswith("result: PASS\n")

    def test_output_file_deterministic(self, canonical_path, tmp_path):
        a = tmp_path / "v1.txt"
        b = tmp_path / "v2.txt"
        for target in (a, b):
            cli.main(["verify", "--scenario", canonical_path, "--resolution", "25",
                      "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()


class TestErrorPaths:
    def test_unparseable_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("c1 = 1.0\nwhat\n", encoding="utf-8")
        rc = cli.main(["sweep", "--scenario", str(path)])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"c1 = 1\n# caf\xe9\n")
        rc = cli.main(["sweep", "--scenario", str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 2: byte 12 is not UTF-8" in err
        assert "Traceback" not in err

    def test_byte_order_mark_is_skipped(self, canonical_path, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        text = pathlib.Path(canonical_path).read_bytes()
        path.write_bytes(b"\xef\xbb\xbf# written with a byte-order mark\n" + text)
        assert cli.main(["sweep", "--scenario", canonical_path, "--resolution", "5"]) == 0
        expected = capsys.readouterr().out
        assert cli.main(["sweep", "--scenario", str(path), "--resolution", "5"]) == 0
        assert capsys.readouterr().out == expected

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--scenario", str(tmp_path / "nope.txt")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_scenario_exits_1_with_report(self, invalid_path, capsys):
        rc = cli.main(["sweep", "--scenario", invalid_path])
        assert rc == 1
        err = capsys.readouterr().err
        assert "scenario INVALID" in err
        assert "bus-1 generation cheaper" in err

    def test_out_of_range_field_exits_1(self, canonical_path, tmp_path, capsys):
        path = tmp_path / "negative_block.txt"
        text = pathlib.Path(canonical_path).read_text(encoding="utf-8")
        path.write_text(re.sub(r"(?m)^L = .*$", "L = -1.0", text), encoding="utf-8")
        rc = cli.main(["sweep", "--scenario", str(path)])
        assert (rc, capsys.readouterr().err) == (
            1, f"error: {path}: shiftable load L must be nonnegative\n"
        )

    def test_degenerate_weights_classify_exits_1(self, tmp_path, capsys):
        # A valid scenario whose data center weighs only emissions and sees
        # none at bus 2: every shift costs it the same.  Only classify needs
        # the data center's optimum; the other modes exit 0.
        path = tmp_path / "degenerate.txt"
        write_scenario_file(scenario_gen.canonical_scenario(alpha_dc=0.0, e2=0.0), path)
        rc = cli.main(["classify", "--scenario", str(path)])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error: blended bus-2 rate is zero for the data center; ")
        assert err.count("\n") == 1 and "Traceback" not in err
        for mode in ("sweep", "verify", "heatmap"):
            rc = cli.main([mode, "--scenario", str(path), "--out", str(tmp_path / "out.csv")])
            assert (rc, capsys.readouterr().err) == (0, ""), mode

    def test_solver_failure_exits_3(self, canonical_path, monkeypatch, capsys):
        def breaks_down(s, resolution=200):
            raise lp_core.SolverFailure("iteration budget exhausted")

        monkeypatch.setattr(sweep, "verify_scenario", breaks_down)
        rc = cli.main(["verify", "--scenario", canonical_path])
        assert (rc, capsys.readouterr().err) == (
            3, "error: solver breakdown: iteration budget exhausted\n"
        )

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    @pytest.mark.parametrize("resolution", ["1", "0", "-3", "many"])
    def test_bad_resolution_exits_2(self, canonical_path, resolution, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["sweep", "--scenario", canonical_path, "--resolution", resolution])
        assert err.value.code == 2
        assert "--resolution" in capsys.readouterr().err

    def test_reversed_range_exits_2(self, canonical_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(
                ["heatmap", "--scenario", canonical_path, "--f01-range", "3:1",
                 "--out", str(tmp_path / "heat.csv")]
            )
        assert err.value.code == 2
        assert "low <= high" in capsys.readouterr().err

    @pytest.mark.parametrize("option", ["--f01-range", "--f12-range"])
    @pytest.mark.parametrize("bounds", ["inf:inf", "-inf:1", "0:inf", "nan:1", "-1e308:1.7e308"])
    def test_non_finite_range_exits_2(self, canonical_path, tmp_path, option, bounds, capsys):
        # An infinite bound, or a span too wide for a float, would put NaN
        # line limits into the scan; the range is refused before any output.
        out = tmp_path / "heat.csv"
        with pytest.raises(SystemExit) as err:
            cli.main(["heatmap", "--scenario", canonical_path, f"{option}={bounds}",
                      "--out", str(out)])
        assert err.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["sweep", "verify", "classify", "heatmap"])
    def test_out_in_missing_directory_exits_2(self, canonical_path, tmp_path, mode, capsys):
        target = tmp_path / "missing" / "out.csv"
        rc = cli.main(
            [mode, "--scenario", canonical_path, "--resolution", "3", "--out", str(target)]
        )
        assert rc == 2
        assert "cannot write output" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["", ".", "/"])
    def test_heatmap_out_without_file_name_exits_2(
        self, canonical_path, tmp_path, monkeypatch, out, capsys
    ):
        # The boundary file's name is derived from --out's, so an --out that
        # names no file is a usage error, refused before anything is written.
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        rc = cli.main(["heatmap", "--scenario", canonical_path, "--resolution", "3", "--out", out])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out"), err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("boundary", ["", "missing/b.csv", "."])
    def test_heatmap_unwritable_boundary_leaves_no_output(
        self, canonical_path, tmp_path, monkeypatch, boundary, capsys
    ):
        # The cells file is written first; when the boundary file then
        # cannot be written, the call fails and takes the cells file back.
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        rc = cli.main(
            ["heatmap", "--scenario", canonical_path, "--resolution", "3",
             "--out", "h.csv", "--boundary-out", boundary]
        )
        assert rc == 2
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("boundary", ["h.csv", "./h.csv", "sub/../h.csv"])
    def test_heatmap_outputs_naming_one_file_exit_2(
        self, canonical_path, tmp_path, monkeypatch, boundary, capsys
    ):
        # Both tables written to one file would leave only the boundary
        # table in it, so the call is refused before anything is written.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        cells = tmp_path / "h.csv"
        cells.write_bytes(b"kept\n")
        before = sorted(tmp_path.iterdir())
        rc = cli.main(
            ["heatmap", "--scenario", canonical_path, "--resolution", "3",
             "--out", "h.csv", "--boundary-out", boundary]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out and --boundary-out"), err
        assert cells.read_bytes() == b"kept\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "argv, link, hard",
        [
            (["--out", "a.csv", "--boundary-out", "b.csv"], "b.csv", True),
            (["--out", "a.csv"], "a_boundary.csv", True),
            (["--out", "a.csv"], "a_boundary.csv", False),
        ],
        ids=["hard-link-explicit", "hard-link-derived", "dangling-symlink-derived"],
    )
    def test_heatmap_outputs_linked_to_one_file_exit_2(
        self, canonical_path, tmp_path, monkeypatch, argv, link, hard, capsys
    ):
        # A link names the file it links to, whether the boundary name is
        # given or derived; a dangling one names the file it would create.
        monkeypatch.chdir(tmp_path)
        cells = tmp_path / "a.csv"
        if hard:
            cells.write_bytes(b"kept\n")
        try:
            (os.link if hard else os.symlink)("a.csv", link)
        except (AttributeError, NotImplementedError, OSError) as exc:
            pytest.skip(f"links are unsupported here: {exc}")
        before = sorted(tmp_path.iterdir())
        rc = cli.main(["heatmap", "--scenario", canonical_path, "--resolution", "3", *argv])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: --out and --boundary-out"), err
        assert not hard or cells.read_bytes() == b"kept\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--scenario", "c.txt", "--out", "c.txt"],
            ["verify", "--scenario", "c.txt", "--out", "./c.txt"],
            ["classify", "--scenario", "c.txt", "--out", "c.txt"],
            ["heatmap", "--scenario", "c.txt", "--out", "c.txt"],
            ["heatmap", "--scenario", "c.txt", "--out", "h.csv", "--boundary-out", "sub/../c.txt"],
            # The boundary file's default name, c_boundary.txt, is the scenario.
            ["heatmap", "--scenario", "c_boundary.txt", "--out", "c.txt"],
        ],
        ids=["sweep", "verify", "classify", "heatmap-out", "heatmap-boundary", "heatmap-derived"],
    )
    def test_output_naming_the_scenario_file_exits_2(
        self, canonical_path, tmp_path, monkeypatch, argv, capsys
    ):
        # Writing over the scenario would leave a file the next run cannot
        # parse, so the call is refused before anything is written.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        text = pathlib.Path(canonical_path).read_bytes()
        for name in ("c.txt", "c_boundary.txt"):
            (tmp_path / name).write_bytes(text)
        before = sorted(tmp_path.iterdir())
        rc = cli.main([*argv, "--resolution", "3"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].endswith("is the scenario file"), err
        assert all(path.read_bytes() == text for path in tmp_path.glob("*.txt"))
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("mode", ["sweep", "verify", "heatmap"])
    def test_grid_too_large_to_allocate_exits_2(self, canonical_path, tmp_path, mode, capsys):
        # 10**17 grid points cannot be allocated at all, and from 2**62 on
        # not even indexed, so each request fails at once; a grid that fits
        # in memory but not in a given machine's is never tried here.
        out = tmp_path / "out.csv"
        for resolution in (10**17, 2**62, 2**63, 10**20):
            rc = cli.main(
                [mode, "--scenario", canonical_path, "--resolution", str(resolution),
                 "--out", str(out)]
            )
            assert rc == 2, resolution
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: --resolution"), resolution
            assert not out.exists()

    @pytest.mark.parametrize(
        "fields",
        [{"l2": 1e308}, {"c2": 1e308}, {"e1": 1e308, "alpha_dc": 0.0, "alpha_sw": 0.0}],
        ids=["l2", "c2", "e1-emissions-only"],
    )
    def test_number_near_the_float_maximum_warns_nothing(self, fields, tmp_path, capsys):
        # A valid scenario with one number at 1e308: what passes the float
        # range is inf, and inf - inf NaN, as on Python floats and without a
        # RuntimeWarning (which this suite turns into an error).  Sweep,
        # heatmap and classify exit 0; verify meets a NaN and fails.
        s = scenario_gen.canonical_scenario(**fields)
        path = tmp_path / "ceiling.txt"
        write_scenario_file(s, path)
        out = tmp_path / "out.csv"
        for mode, expected in (("sweep", 0), ("verify", 3), ("heatmap", 0), ("classify", 0)):
            rc = cli.main([mode, "--scenario", str(path), "--out", str(out)])
            assert (rc, capsys.readouterr().err) == (expected, ""), mode
