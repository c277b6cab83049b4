"""Set-up time of one workload in a fresh process.

Usage: ``python3 bench/setup_probe.py <workload> <input-dir>`` from the root
of a checkout.  Times importing ``gridshift`` and loading the workload's
generated inputs (parsing every scenario file, or unpacking the LP arrays)
and prints the seconds taken as its last line.
"""

import pathlib
import sys
import time


def main(workload: str, input_dir: str) -> None:
    start = time.perf_counter()
    import gridshift

    if workload == "random-lp":
        import inputs

        loaded = inputs.load_lps(str(pathlib.Path(input_dir) / "lps.npz"))
    else:
        loaded = [gridshift.parse_scenario_file(p) for p in sorted(pathlib.Path(input_dir).glob("*.txt"))]
    elapsed = time.perf_counter() - start
    if not loaded:
        raise SystemExit(f"no inputs found in {input_dir}")
    print(f"{elapsed!r}")


if __name__ == "__main__":
    root = pathlib.Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    main(*sys.argv[1:3])
