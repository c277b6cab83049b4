"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/collect.py --seeds 1-10 --out bench/BASELINE.json --label "<commit>"

For each workload, the untraced runs give every end-to-end metric as a
median with quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median; one traced run on the first seed
gives the per-layer metrics.  Runs go one at a time, from the repository
root, over every workload in ``BENCHMARK.json`` and with its run length.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-2000:]}")
    *_, details, result = proc.stdout.strip().splitlines()
    return dict(json.loads(result), details=json.loads(details)["details"])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit id")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    summary = {"label": args.label, "seeds": seeds, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            runs.append(_run(workload, seed, seconds, 0))
            print(workload, seed, {k: round(v["value"], 6) for k, v in runs[-1]["metrics"].items()}, flush=True)
        traced = _run(workload, seeds[0], seconds, 1)
        summary["environment"] = traced["details"]["environment"]
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "inputs": traced["details"]["inputs"],
            "end_to_end": {
                m["name"]: dict(unit=m["unit"], **summarise([r["metrics"][m["name"]]["value"] for r in runs]))
                for m in spec["end_to_end"]
            },
            "per_layer": {name: v["value"] for name, v in traced["metrics"].items()},
            "not_exercised": traced["details"]["not_exercised"],
            "output_sha256_by_seed": {seed: r["details"]["output_sha256"] for seed, r in zip(seeds, runs)},
        }
    pathlib.Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
