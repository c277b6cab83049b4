"""gridshift benchmark: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ``src``)::

    python3 bench/run.py --workload sweep-verify --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sweep-verify``   job = ``cli.main(["sweep", ...])`` + ``cli.main(["verify", ...])``
  on one generated scenario at the default resolution (LP dispatch route);
* ``capacity-scan``  job = ``cli.main(["heatmap", ...])`` at 50x50 with the
  default ranges + ``cli.main(["classify", ...])`` (closed-form route);
* ``random-lp``      job = ``LinearProgram`` + ``solve`` + ``verify_kkt`` on
  one generated LP (the solver with no dispatch structure).

Each run is one closed loop in one process with BLAS pinned to one thread:
jobs run back to back over a seeded input pool for ``--seconds`` (and for at
least 100 jobs, so the 90th percentile has 10 jobs beyond it).  Every job's
exit codes and output are checked outside its timer, and each input's first
output is checked in depth, with the time it takes left out of the timed
phase: verify reports PASS, small LPs match the vertex enumerator in
``tests/lp_oracle.py``, every optimal LP passes ``verify_kkt`` at 1e-8, and
repeated runs of an input give identical bytes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` replays jobs
layer by layer under spans, each paired with an untraced run of the same
input, and prints the per-layer metrics.  The last stdout line is the result
object; the line before it holds the details (environment, input properties,
SHA-256 of the outputs), also written with the spans to ``.bench_out/``.
``--smoke`` shrinks pools and repeats so every workload and check runs in
seconds.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# Single-threaded BLAS.  numpy is first imported inside ``main`` (and in the
# set-up probes, which inherit this environment), after these are set.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

E2E_METRICS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "success_frac": "frac",
    "peak_rss_mb": "MB",
}

#: Jobs a full run completes at least, so the p90 has 10 jobs beyond it.
MIN_JOBS = 100
#: Fresh processes timed per run for ``setup_s`` (their median is reported).
SETUP_REPEATS = 9
#: Untimed jobs before timing starts.
WARMUP_JOBS = 2


class Run:
    """Output hashes, problems and job records of one benchmark run.

    Only small records stay in memory, so the harness adds little to
    ``peak_rss_mb``: a SHA-256 per input, a few facts read off each input's
    first output, a count of jobs per input and one float per timed job.
    """

    def __init__(self, workload):
        self.w = workload
        self.hashes: dict[int, str] = {}
        self.summaries: dict[int, dict] = {}
        self.item_problems: dict[int, list[str]] = {}
        self.jobs = [0] * len(workload)  # jobs counted as attempted, per input
        self.latencies = array.array("d")  # seconds of every timed job
        self.check_s = 0.0  # spent on first-output checks

    def record(self, i: int, raw) -> None:
        """Check one job's result.  An input's first output is also checked
        in depth and summarised, outside any job timer, and then dropped."""
        if isinstance(raw, BaseException):
            problems = [f"raised {''.join(traceback.format_exception_only(raw)).strip()}"]
        else:
            text, problems = self.w.collect(i, raw)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            if i not in self.hashes:
                start = time.perf_counter()
                self.hashes[i] = digest
                problems += self.w.check_first(i, text)
                self.summaries[i] = self.w.summarise(i, text)
                self.check_s += time.perf_counter() - start
            elif self.hashes[i] != digest:
                problems.append("output differs from an earlier run of the same input")
        if problems:
            self.item_problems.setdefault(i, []).extend(problems)

    def run_one(self, i: int):
        self.w.prepare(i)
        start = time.perf_counter()
        try:
            raw = self.w.job(i)
        except Exception as exc:  # a raising job is a failed job; keep going
            raw = exc
        return raw, time.perf_counter() - start

    def timed(self, seconds: float, min_jobs: int) -> float:
        """Run jobs over the pool in order; return the phase's wall time
        less the time its first-output checks took."""
        n = len(self.w)
        checks_before = self.check_s
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        while k < min_jobs or time.perf_counter() < deadline:
            i = k % n
            raw, elapsed = self.run_one(i)
            self.latencies.append(elapsed)
            self.jobs[i] += 1
            self.record(i, raw)
            k += 1
        return time.perf_counter() - start - (self.check_s - checks_before)

    def complete(self) -> None:
        """Run, and so check, every input that no job has run yet."""
        for i in range(len(self.w)):
            if i not in self.hashes and i not in self.item_problems:
                self.record(i, self.run_one(i)[0])

    def attempted(self) -> int:
        return sum(self.jobs)

    def failed_jobs(self) -> int:
        return sum(self.jobs[i] for i in self.item_problems)

    def digest(self) -> str:
        """SHA-256 over the per-input output hashes, in pool order."""
        sha = hashlib.sha256()
        for i in range(len(self.w)):
            sha.update(self.hashes.get(i, "<missing>").encode("ascii"))
        return sha.hexdigest()


def environment() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def setup_seconds(workload: str, workdir: pathlib.Path, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def latency_quantiles_ms(run: Run) -> dict:
    from tracing import quantile

    return {f"p{q}": quantile(run.latencies, q / 100) * 1e3 for q in (10, 25, 50, 75, 90, 100)}


def untraced_metrics(run: Run, wall: float, setup_s: float) -> dict:
    from tracing import quantile

    attempted = run.attempted()
    return {
        "setup_s": setup_s,
        "jobs_per_s": attempted / wall,
        "job_p50_ms": statistics.median(run.latencies) * 1e3,
        "job_p90_ms": quantile(run.latencies, 0.9) * 1e3,
        "success_frac": 1.0 - run.failed_jobs() / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(run: Run, seconds: float, min_jobs: int, out_dir: pathlib.Path, tag: str) -> tuple[dict, dict]:
    """Per-layer metrics and details from jobs replayed under spans.

    Each traced job is paired with an untraced run of the same input, the
    two in alternating order, and ``trace.overhead_frac`` is the median
    ratio of the traced job span to its untraced partner, minus one.
    """
    from tracing import Tracer, median
    from workloads import LAYER_METRICS

    tr = Tracer()
    n = len(run.w)
    partner_us: dict[int, float] = {}  # traced job span id -> untraced job time
    start = time.perf_counter()
    k = 0
    while k < min_jobs or time.perf_counter() < start + seconds:
        i = k % n
        if k % 2:
            raw, elapsed = run.run_one(i)
            run.record(i, raw)
        try:
            raw, job_id = run.w.traced(i, tr)
        except Exception as exc:  # a raising job is a failed job; keep going
            raw, job_id = exc, None
        run.record(i, raw)
        if not k % 2:
            raw, elapsed = run.run_one(i)
            run.record(i, raw)
        run.jobs[i] += 2
        if job_id is not None:
            partner_us[job_id] = elapsed * 1e6
        k += 1

    ratios = [s.us / partner_us[s.id] for s in tr.named("job") if s.id in partner_us]
    metrics = run.w.layer_metrics(tr, run.summaries)
    metrics["trace.overhead_frac"] = median(ratios) - 1.0 if ratios else 0.0
    details = {
        "traced_jobs": len(partner_us),
        "spans": len(tr.spans),
        "not_exercised": sorted(set(LAYER_METRICS) - set(metrics)),
        "lp_core_solves_per_job": median(tr.notes[j].get("lp_solves", 1) for j in partner_us),
    }
    if "dispatch.degenerate_frac" in metrics:
        details["degenerate_point_share"] = metrics["dispatch.degenerate_frac"]
    tr.dump(out_dir / f"{tag}-spans.jsonl")
    return {name: metrics.get(name, 0.0) for name in LAYER_METRICS}, details


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep-verify", "capacity-scan", "random-lp"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny pools and repeats, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/gridshift/__init__.py", "tests/lp_oracle.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a gridshift checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    import inputs
    import workloads

    import gridshift

    if pathlib.Path(gridshift.__file__).resolve().parent != ROOT / "src" / "gridshift":
        print(f"error: imported gridshift from {gridshift.__file__}, not from this checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}{'-smoke' if args.smoke else ''}"
    workdir = pathlib.Path(".bench_work") / tag
    out_dir = pathlib.Path(".bench_out")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    try:
        pool = inputs.make_pool(args.workload, args.seed % 2**63, workdir, args.smoke)
        run = Run(workloads.WORKLOADS[args.workload](pool))
        for k in range(WARMUP_JOBS):
            run.record(k % len(pool), run.run_one(k % len(pool))[0])
        if args.trace:
            metrics, extra_details = traced_metrics(run, args.seconds, 1 if args.smoke else 3, out_dir, tag)
            units = workloads.LAYER_METRICS
            run.complete()
        else:
            setup_s = setup_seconds(args.workload, workdir, 1 if args.smoke else SETUP_REPEATS)
            wall = run.timed(args.seconds, 1 if args.smoke else MIN_JOBS)
            run.complete()
            metrics = untraced_metrics(run, wall, setup_s)
            units = E2E_METRICS
            extra_details = {"job_latency_ms": latency_quantiles_ms(run)}
        problems = [f"input {i}: {p}" for i, ps in sorted(run.item_problems.items()) for p in ps]
        failed = run.failed_jobs()
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "smoke": args.smoke,
            "environment": environment(),
            "inputs": run.w.properties(run.summaries),
            "output_sha256": run.digest(),
            "jobs": run.attempted(),
            "problems": problems[:20],
            **extra_details,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (out_dir / f"{tag}-trace{args.trace}.json").write_text(json.dumps(details, indent=2) + "\n", encoding="utf-8")
    print(json.dumps({"details": details}))
    result = {
        "correct": not problems and failed == 0,
        "attempted": run.attempted(),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
