"""The three workloads: one job each, its correctness checks, its traced
replay and the per-layer metrics read off that replay.

A job calls only public entry points of the package.  ``job`` is the timed
part; ``collect`` turns a job's result into its output text and per-job
problems outside the timer; ``check_first`` runs the slower checks on each
input's first output and ``summarise`` keeps the few facts about it that the
results report; ``traced`` runs the job with spans around its calls and then
replays the same inputs one layer down at a time (see ``tracing``).
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import io
import pathlib
import re
import time

import numpy as np

import inputs
from tracing import Tracer, mean, median, quantile

import lp_oracle
from gridshift import cli, closed_form, dispatch, grid_model, lp_core
from gridshift import sweep as sweep_mod

tr_now = time.perf_counter_ns

# The benchmark's own references to the solver entry points, so its replays
# never pass through the solve counter it installs on the module.
SOLVE = lp_core.solve
VERIFY_KKT = lp_core.verify_kkt

#: verify_scenario skips grid points this close to the threshold.
BREAKPOINT_EXCLUSION = 1e-6
#: Optimality-condition tolerance for every optimal LP solution.
KKT_TOL = 1e-8
#: Objective agreement with the vertex enumerator on small LPs.
ORACLE_TOL = 1e-7

LAYER_METRICS = {
    "lp_core.LinearProgram.us": "us",
    "lp_core.solve.us": "us",
    "lp_core.solve.us_p90": "us",
    "lp_core.solve.pivots": "count",
    "lp_core.solve.optimal_frac": "frac",
    "lp_core.solve.errors": "count",
    "lp_core.verify_kkt.us": "us",
    "dispatch.build_ed.us": "us",
    "dispatch.solve_ed.us": "us",
    "dispatch.solve_ed_threshold.us": "us",
    "dispatch.solve_ed.self_us": "us",
    "dispatch.degenerate_frac": "frac",
    "dispatch.lp_solves_per_point": "count",
    "dispatch.bases_per_sweep": "count",
    "grid_model.parse_scenario_file.us": "us",
    "grid_model.validate.us": "us",
    "closed_form.objective.us": "us",
    "closed_form.optimal_shift.us": "us",
    "closed_form.classify_alignment.us": "us",
    "sweep.sweep_points.ms": "ms",
    "sweep.sweep_points.self_share": "frac",
    "sweep.verify_scenario.ms": "ms",
    "sweep.verify_scenario.self_share": "frac",
    "sweep.heatmap_cells.ms": "ms",
    "sweep.heatmap_cells.us_per_cell": "us",
    "sweep.heatmap_cells.valid_frac": "frac",
    "sweep.csv_row.us": "us",
    "cli.main.sweep.ms": "ms",
    "cli.main.sweep.self_ms": "ms",
    "cli.main.verify.ms": "ms",
    "cli.main.verify.self_ms": "ms",
    "cli.main.heatmap.ms": "ms",
    "cli.main.heatmap.self_ms": "ms",
    "cli.main.classify.ms": "ms",
    "cli.main.classify.self_ms": "ms",
    "cli.out_bytes": "bytes",
    "trace.overhead_frac": "frac",
}


class SolveCounter:
    """Counts calls the package makes to ``lp_core.solve`` while entered.

    Installed on the module attribute, which is how ``dispatch`` reaches the
    solver, and removed on exit.
    """

    def __init__(self) -> None:
        self.count = 0

    def _counted(self, lp):
        self.count += 1
        return SOLVE(lp)

    def __enter__(self) -> "SolveCounter":
        lp_core.solve = self._counted
        return self

    def __exit__(self, *exc) -> None:
        lp_core.solve = SOLVE


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _objectives(s):
    return closed_form.objective_dc(s), closed_form.objective_sw(s)


def _optimal_shifts(s):
    return closed_form.optimal_shift_dc(s), closed_form.optimal_shift_sw(s)


def _rebuild(lp):
    return lp_core.LinearProgram(
        objective=lp.objective,
        eq_matrix=lp.eq_matrix,
        eq_rhs=lp.eq_rhs,
        lower_bounds=lp.lower_bounds,
        upper_bounds=lp.upper_bounds,
    )


def _cli_problems(label: str, code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"{label} exited {code}: {err.strip()[:200]}"]


def _median_ms(spans) -> float:
    return median(s.us for s in spans) / 1e3


def _self_ms(tr: Tracer, name: str) -> float:
    self_us = tr.self_us()
    return median(self_us.get(s.id, s.us) for s in tr.named(name)) / 1e3


def _self_share(tr: Tracer, name: str) -> float:
    self_us = tr.self_us()
    return median(self_us.get(s.id, s.us) / s.us for s in tr.named(name))


def _out_bytes(tr: Tracer, summaries: dict[int, dict]) -> float:
    """Median bytes a traced job wrote (stdout and files)."""
    return median(summaries[tr.notes[s.id]["item"]]["out_bytes"] for s in tr.named("job"))


def _lp_metrics(tr: Tracer) -> dict:
    solves = tr.named("lp_core.solve")
    done = [tr.notes.get(s.id, {}) for s in solves]
    return {
        "lp_core.LinearProgram.us": median(s.us for s in tr.ok("lp_core.LinearProgram")),
        "lp_core.solve.us": median(s.us for s in solves),
        "lp_core.solve.us_p90": quantile((s.us for s in solves), 0.9),
        "lp_core.solve.pivots": mean(n["iterations"] for n in done if "iterations" in n),
        "lp_core.solve.optimal_frac": mean(n.get("status") == lp_core.OPTIMAL for n in done),
        "lp_core.solve.errors": float(sum("error" in n for n in done)),
        "lp_core.verify_kkt.us": median(s.us for s in tr.named("lp_core.verify_kkt")),
    }


class Workload:
    name = ""

    def __init__(self, pool: list[dict]):
        self.pool = pool

    def __len__(self) -> int:
        return len(self.pool)

    def prepare(self, i: int) -> None:
        """Untimed work before a job."""

    def job(self, i: int):
        raise NotImplementedError

    def collect(self, i: int, raw) -> tuple[str, list[str]]:
        raise NotImplementedError

    def check_first(self, i: int, text: str) -> list[str]:
        return []

    def summarise(self, i: int, text: str) -> dict:
        """Facts about input ``i``'s output that the results report."""
        return {"out_bytes": len(text.encode("utf-8"))}

    def traced(self, i: int, tr: Tracer):
        """Run job ``i`` under spans; return its raw result and job span id."""
        raise NotImplementedError

    def properties(self, summaries: dict[int, dict]) -> dict:
        return {}

    def layer_metrics(self, tr: Tracer, summaries: dict[int, dict]) -> dict:
        raise NotImplementedError


class SweepVerify(Workload):
    name = "sweep-verify"

    def job(self, i):
        path = self.pool[i]["path"]
        return (run_cli(["sweep", "--scenario", path]), run_cli(["verify", "--scenario", path]))

    def collect(self, i, raw):
        (code_s, out_s, err_s), (code_v, out_v, err_v) = raw
        problems = _cli_problems("sweep", code_s, err_s) + _cli_problems("verify", code_v, err_v)
        if "result: PASS" not in out_v:
            problems.append("verify did not report PASS")
        return out_s + out_v, problems

    def check_first(self, i, text):
        lines = text.splitlines()
        rows = [line for line in lines[1:inputs.RESOLUTION + 1] if line.count(",") == 10]
        if len(rows) != inputs.RESOLUTION:
            return [f"sweep CSV has {len(rows)} data rows, expected {inputs.RESOLUTION}"]
        return []

    def summarise(self, i, text):
        found = re.search(r"threshold [^,]+, (\w+)-limited", text)
        return dict(super().summarise(i, text), binding=found.group(1) if found else "unreported")

    def properties(self, summaries):
        return {
            "scenarios": len(self.pool),
            "kind_share": _shares(it["kind"] for it in self.pool),
            "threshold_on_grid_share": mean(it["on_grid"] for it in self.pool),
            "binding_share_reported_by_verify": _shares(sm["binding"] for sm in summaries.values()),
        }

    def traced(self, i, tr):
        item = self.pool[i]
        path = item["path"]
        job = tr.new_id()
        start = tr_now()
        with SolveCounter() as in_job:
            sid_sweep, raw_s = tr.call("cli.main.sweep", job, run_cli, ["sweep", "--scenario", path])
            sid_verify, raw_v = tr.call("cli.main.verify", job, run_cli, ["verify", "--scenario", path])
        tr.record(job, 0, "job", start, tr_now())
        tr.note(job, item=i, lp_solves=in_job.count)

        _, s = tr.call("grid_model.parse_scenario_file", job, grid_model.parse_scenario_file, path)
        tr.call("grid_model.validate", job, grid_model.validate, s)
        sid_points, points = tr.call("sweep.sweep_points", sid_sweep, sweep_mod.sweep_points, s, inputs.RESOLUTION)
        tr.call("closed_form.objective", sid_points, _objectives, s)
        for p in points:
            tr.call("sweep.csv_row", sid_sweep, p.to_csv_row)
        sid_check, _ = tr.call("sweep.verify_scenario", sid_verify, sweep_mod.verify_scenario, s, inputs.RESOLUTION)
        tr.call("grid_model.validate", sid_check, grid_model.validate, s)
        tr.call("closed_form.objective", sid_check, _objectives, s)

        threshold = grid_model.tau(s).value
        bases = set()
        for d in sweep_mod.delta_grid(s.L, inputs.RESOLUTION):
            d = float(d)
            with SolveCounter() as counter:
                sid, (out, sol) = tr.call("dispatch.solve_ed_detailed", sid_points, dispatch.solve_ed_detailed, s, d)
            tr.note(sid, degenerate=out.degenerate, lp_solves=counter.count)
            bases.add(sol.basis)
            sid_build, lp = tr.call("dispatch.build_ed", sid, dispatch.build_ed, s, d)
            tr.call("lp_core.LinearProgram", sid_build, _rebuild, lp)
            sid_solve, again = tr.call("lp_core.solve", sid, SOLVE, lp)
            tr.note(sid_solve, iterations=again.iterations, status=again.status)
            if abs(d - threshold) > BREAKPOINT_EXCLUSION:
                _, (_, sol_v) = tr.call("dispatch.solve_ed_detailed", sid_check, dispatch.solve_ed_detailed, s, d)
                _, lp_v = tr.call("dispatch.build_ed", sid_check, dispatch.build_ed, s, d)
                tr.call("lp_core.verify_kkt", sid_check, VERIFY_KKT, lp_v, sol_v, KKT_TOL)
        tr.note(sid_points, bases=len(bases))
        for _ in range(3):
            tr.call("dispatch.solve_ed_threshold", job, dispatch.solve_ed_detailed, s, threshold)
        return (raw_s, raw_v), job

    def layer_metrics(self, tr, summaries):
        point_ids = {s.id for s in tr.named("sweep.sweep_points")}
        at_points = [s for s in tr.named("dispatch.solve_ed_detailed") if s.parent in point_ids]
        notes = [tr.notes[s.id] for s in at_points]
        off_threshold = [s for s in tr.named("dispatch.solve_ed_detailed") if not tr.notes.get(s.id, {}).get("degenerate")]
        self_us = tr.self_us()
        metrics = _lp_metrics(tr)
        metrics.update(
            {
                "dispatch.build_ed.us": median(s.us for s in tr.named("dispatch.build_ed")),
                "dispatch.solve_ed.us": median(s.us for s in off_threshold),
                "dispatch.solve_ed_threshold.us": median(s.us for s in tr.named("dispatch.solve_ed_threshold")),
                "dispatch.solve_ed.self_us": median(self_us[s.id] for s in off_threshold if s.id in self_us),
                "dispatch.degenerate_frac": mean(n["degenerate"] for n in notes),
                "dispatch.lp_solves_per_point": mean(n["lp_solves"] for n in notes),
                "dispatch.bases_per_sweep": median(tr.notes[i]["bases"] for i in point_ids),
                "grid_model.parse_scenario_file.us": median(s.us for s in tr.named("grid_model.parse_scenario_file")),
                "grid_model.validate.us": median(s.us for s in tr.named("grid_model.validate")),
                "closed_form.objective.us": median(s.us for s in tr.named("closed_form.objective")),
                "sweep.sweep_points.ms": _median_ms(tr.named("sweep.sweep_points")),
                "sweep.sweep_points.self_share": _self_share(tr, "sweep.sweep_points"),
                "sweep.verify_scenario.ms": _median_ms(tr.named("sweep.verify_scenario")),
                "sweep.verify_scenario.self_share": _self_share(tr, "sweep.verify_scenario"),
                "sweep.csv_row.us": median(s.us for s in tr.named("sweep.csv_row")),
                "cli.main.sweep.ms": _median_ms(tr.named("cli.main.sweep")),
                "cli.main.sweep.self_ms": _self_ms(tr, "cli.main.sweep"),
                "cli.main.verify.ms": _median_ms(tr.named("cli.main.verify")),
                "cli.main.verify.self_ms": _self_ms(tr, "cli.main.verify"),
                "cli.out_bytes": _out_bytes(tr, summaries),
            }
        )
        return metrics


class CapacityScan(Workload):
    name = "capacity-scan"

    def prepare(self, i):
        for key in ("heatmap_out", "boundary_out"):
            pathlib.Path(self.pool[i][key]).unlink(missing_ok=True)

    def _heatmap_argv(self, i):
        return ["heatmap", "--scenario", self.pool[i]["path"], "--out", self.pool[i]["heatmap_out"]]

    def job(self, i):
        return (run_cli(self._heatmap_argv(i)), run_cli(["classify", "--scenario", self.pool[i]["path"]]))

    def collect(self, i, raw):
        (code_h, _, err_h), (code_c, out_c, err_c) = raw
        problems = _cli_problems("heatmap", code_h, err_h) + _cli_problems("classify", code_c, err_c)
        files = []
        for key in ("heatmap_out", "boundary_out"):
            path = pathlib.Path(self.pool[i][key])
            if path.is_file():
                files.append(path.read_text(encoding="utf-8"))
            else:
                problems.append(f"heatmap did not write {path.name}")
        if "verdict: " not in out_c:
            problems.append("classify printed no verdict")
        return "".join(files) + out_c, problems

    def check_first(self, i, text):
        lines = text.splitlines()
        cells = inputs.HEATMAP_RESOLUTION ** 2
        if len(lines) < cells + inputs.HEATMAP_RESOLUTION + 2:
            return [f"heatmap output has {len(lines)} lines, expected at least {cells + inputs.HEATMAP_RESOLUTION + 2}"]
        if not all(line.count(",") == 7 for line in lines[1:cells + 1]):
            return ["heatmap CSV rows do not have 8 columns"]
        return []

    def _cases(self, i, text) -> collections.Counter:
        """Binding case of every valid heatmap cell, read from the CSV with
        the threshold recomputed from the cell's line limits."""
        v = self.pool[i]["scenario"]
        cases = collections.Counter()
        lines = text.splitlines()[1:inputs.HEATMAP_RESOLUTION ** 2 + 1]
        for line in lines:
            f01, f12, sw, dc, *_rest, verdict = line.split(",")
            if verdict == "invalid":
                cases["invalid"] += 1
                continue
            f01, f12 = float(f01), float(f12)
            tau = min(f01 - f12, -v["l0"] - v["F02"] - f12) - v["l1"]
            dc_t = abs(float(dc) - tau) <= 1e-8
            sw_t = abs(float(sw) - tau) <= 1e-8
            if dc_t and sw_t:
                cases["both-threshold"] += 1
            elif not dc_t and not sw_t:
                cases["both-full"] += 1
            elif sw_t:
                cases["dc-full-sw-threshold"] += 1
            else:
                cases["dc-threshold-sw-full"] += 1
        return cases

    def summarise(self, i, text):
        return dict(super().summarise(i, text), cases=self._cases(i, text))

    def properties(self, summaries):
        cases = collections.Counter()
        for sm in summaries.values():
            cases.update(sm["cases"])
        total = sum(cases.values())
        valid = total - cases["invalid"]
        return {
            "base_scenarios": len(self.pool),
            "weights_share": _shares(it["weights"] for it in self.pool),
            "valid_cell_share": valid / total if total else 0.0,
            "binding_case_share_of_valid_cells": {
                k: cases[k] / valid if valid else 0.0
                for k in ("both-threshold", "both-full", "dc-full-sw-threshold", "dc-threshold-sw-full")
            },
        }

    def traced(self, i, tr):
        item = self.pool[i]
        self.prepare(i)
        job = tr.new_id()
        start = tr_now()
        with SolveCounter() as in_job:
            sid_heat, raw_h = tr.call("cli.main.heatmap", job, run_cli, self._heatmap_argv(i))
            sid_cls, raw_c = tr.call("cli.main.classify", job, run_cli, ["classify", "--scenario", item["path"]])
        tr.record(job, 0, "job", start, tr_now())
        tr.note(job, item=i, lp_solves=in_job.count)

        _, s = tr.call("grid_model.parse_scenario_file", job, grid_model.parse_scenario_file, item["path"])
        tr.call("grid_model.validate", job, grid_model.validate, s)
        f01_range = sweep_mod.default_f01_range(s, inputs.F12_RANGE)
        f01_values = np.linspace(f01_range[0], f01_range[1], inputs.HEATMAP_RESOLUTION)
        f12_values = np.linspace(inputs.F12_RANGE[0], inputs.F12_RANGE[1], inputs.HEATMAP_RESOLUTION)
        sid_cells, cells = tr.call("sweep.heatmap_cells", sid_heat, sweep_mod.heatmap_cells, s, f01_values, f12_values)
        tr.note(sid_cells, cells=len(cells), valid=sum(c.verdict != "invalid" for c in cells))
        tr.call("sweep.boundary_rows", sid_heat, sweep_mod.boundary_rows, s, f12_values)
        for c in cells:
            tr.call("sweep.csv_row", sid_heat, c.to_csv_row)
        for f01 in f01_values:
            for f12 in f12_values:
                cell = dataclasses.replace(s, F01=float(f01), F12=float(f12))
                tr.call("grid_model.validate", job, grid_model.validate, cell)
                try:
                    sid, _ = tr.call("closed_form.classify_alignment", sid_cells, closed_form.classify_alignment, cell)
                except (grid_model.ScenarioError, closed_form.ScenarioInvalidError, closed_form.DegenerateWeightsError):
                    continue
                tr.call("closed_form.objective", sid, _objectives, cell)
                tr.call("closed_form.optimal_shift", sid, _optimal_shifts, cell)
        tr.call("closed_form.classify_alignment", sid_cls, closed_form.classify_alignment, s)
        return (raw_h, raw_c), job

    def layer_metrics(self, tr, summaries):
        heat = tr.named("sweep.heatmap_cells")
        cells = sum(tr.notes[s.id]["cells"] for s in heat)
        return {
            "grid_model.parse_scenario_file.us": median(s.us for s in tr.named("grid_model.parse_scenario_file")),
            "grid_model.validate.us": median(s.us for s in tr.named("grid_model.validate")),
            "closed_form.objective.us": median(s.us for s in tr.named("closed_form.objective")),
            "closed_form.optimal_shift.us": median(s.us for s in tr.named("closed_form.optimal_shift")),
            "closed_form.classify_alignment.us": median(s.us for s in tr.ok("closed_form.classify_alignment")),
            "sweep.heatmap_cells.ms": _median_ms(heat),
            "sweep.heatmap_cells.us_per_cell": sum(s.us for s in heat) / cells if cells else 0.0,
            "sweep.heatmap_cells.valid_frac": sum(tr.notes[s.id]["valid"] for s in heat) / cells if cells else 0.0,
            "sweep.csv_row.us": median(s.us for s in tr.named("sweep.csv_row")),
            "cli.main.heatmap.ms": _median_ms(tr.named("cli.main.heatmap")),
            "cli.main.heatmap.self_ms": _self_ms(tr, "cli.main.heatmap"),
            "cli.main.classify.ms": _median_ms(tr.named("cli.main.classify")),
            "cli.main.classify.self_ms": _self_ms(tr, "cli.main.classify"),
            "cli.out_bytes": _out_bytes(tr, summaries),
        }


class RandomLp(Workload):
    name = "random-lp"

    def __init__(self, pool):
        super().__init__(pool)
        self.lps = inputs.load_lps(pool[0]["path"])

    def job(self, i):
        c, A, b, lo, hi = self.lps[i]
        lp = lp_core.LinearProgram(objective=c, eq_matrix=A, eq_rhs=b, lower_bounds=lo, upper_bounds=hi)
        sol = lp_core.solve(lp)
        kkt = lp_core.verify_kkt(lp, sol, KKT_TOL) if sol.status == lp_core.OPTIMAL else None
        return sol, kkt

    def collect(self, i, raw):
        sol, kkt = raw
        problems = []
        if kkt is not None and not kkt.ok:
            problems.append(f"LP {i} fails the optimality conditions: {kkt.violations}")
        value = "none" if sol.objective_value is None else f"{sol.objective_value:.10g}"
        return f"{sol.status},{value}\n", problems

    def check_first(self, i, text):
        status, value = text.strip().split(",")
        if self.pool[i]["kind"] == "large":
            return [] if status == lp_core.OPTIMAL else [f"large LP {i} is feasible by construction, solver says {status}"]
        c, A, b, lo, hi = self.lps[i]
        ref = lp_oracle.reference_solve(
            lp_core.LinearProgram(objective=c, eq_matrix=A, eq_rhs=b, lower_bounds=lo, upper_bounds=hi)
        )
        if ref.status != status:
            return [f"LP {i}: solver says {status}, vertex enumeration {ref.status}"]
        if status == lp_core.OPTIMAL and abs(float(value) - ref.objective) > ORACLE_TOL * (1.0 + abs(ref.objective)):
            return [f"LP {i}: objective {value}, vertex enumeration {ref.objective!r}"]
        return []

    def summarise(self, i, text):
        return dict(super().summarise(i, text), status=text.split(",")[0])

    def properties(self, summaries):
        return {
            "lps": len(self.pool),
            "shape_share": _shares(it["kind"] for it in self.pool),
            "dense_mean_variables": mean(A.shape[1] for (_, A, *_), it in zip(self.lps, self.pool) if it["kind"] == "large"),
            "status_share": _shares(sm["status"] for sm in summaries.values()),
        }

    def traced(self, i, tr):
        c, A, b, lo, hi = self.lps[i]
        job = tr.new_id()
        start = tr_now()
        _, lp = tr.call(
            "lp_core.LinearProgram", job, lambda: lp_core.LinearProgram(
                objective=c, eq_matrix=A, eq_rhs=b, lower_bounds=lo, upper_bounds=hi
            )
        )
        sid, sol = tr.call("lp_core.solve", job, SOLVE, lp)
        tr.note(sid, iterations=sol.iterations, status=sol.status)
        kkt = None
        if sol.status == lp_core.OPTIMAL:
            _, kkt = tr.call("lp_core.verify_kkt", job, VERIFY_KKT, lp, sol, KKT_TOL)
        tr.record(job, 0, "job", start, tr_now())
        tr.note(job, item=i)
        return (sol, kkt), job

    def layer_metrics(self, tr, summaries):
        return _lp_metrics(tr)


def _shares(labels) -> dict:
    counts = collections.Counter(labels)
    total = sum(counts.values())
    return {k: v / total for k, v in sorted(counts.items())}


WORKLOADS = {w.name: w for w in (SweepVerify, CapacityScan, RandomLp)}
