"""Seeded input generators for the three benchmark workloads.

Everything here is drawn from a ``numpy.random.Generator`` built from the
workload seed.  Scenarios and small LPs come from the test suite's own
factories (``tests/scenario_gen.py`` and ``tests/lp_oracle.py``); this module
adds only the strata the benchmark needs.  Draws are redrawn on validity
(``grid_model.validate``) and on geometric properties such as which term
binds the threshold, never on how the package's ``verify`` judges them.  The
workload itself only ever sees the scenario files and LP arrays written here.

Each pool is laid out in strata that repeat in a fixed cycle, so any prefix
of the pool (a short run covers only a prefix) holds every stratum in close
to its stated share.
"""

from __future__ import annotations

import dataclasses
import pathlib

import numpy as np

import lp_oracle
import scenario_gen
from gridshift import grid_model

#: Shift-grid resolution of ``gridshift sweep`` / ``verify`` (the CLI default).
RESOLUTION = 200
#: Heatmap cells per axis and the F12 scan range (the CLI defaults).
HEATMAP_RESOLUTION = 50
F12_RANGE = (0.0, 1.0)
#: Upper end of the CLI's default F01 scan range.
F01_HIGH = 3.0

#: sweep-verify strata: threshold binding alternates, kinds cycle in fours,
#: so one scenario in four has its threshold on a grid node.
SV_BINDINGS = ("congestion", "renewable")
SV_KINDS = ("plain", "band", "unequal-weights", "threshold-on-grid")

#: capacity-scan strata: share of valid heatmap cells, and equal or
#: unequal price/emission weights for the two agents.  The share is
#: estimated on a CS_PROBE x CS_PROBE subgrid of the heatmap, where one
#: candidate costs a few milliseconds of ``validate`` calls.
CS_VALID_BUCKETS = ((0.15, 0.3), (0.3, 0.45), (0.45, 0.6), (0.6, 0.95))
CS_WEIGHTS = ("equal", "unequal")
CS_PROBE = 10
#: The base scenario's own cell clears every validity margin by this much.
CS_BASE_MARGIN = 1e-3

#: random-lp strata: one LP in LARGE_EVERY is a larger dense one with this
#: many variables (and a quarter as many rows); the rest have acceptance
#: shapes.  With one in four dense, the median job is a small LP and the
#: 90th percentile a dense one, each well inside its own population.
LARGE_EVERY = 4
LARGE_VARIABLES = (20, 36)

POOL_SIZES = {"sweep-verify": 96, "capacity-scan": 48, "random-lp": 4000}
SMOKE_POOL_SIZES = {"sweep-verify": 8, "capacity-scan": 8, "random-lp": 60}


def _u(rng: np.random.Generator, low: float, high: float) -> float:
    return float(rng.uniform(low, high))


# ---------------------------------------------------------------- sweep-verify


def grid_distance(s: grid_model.ThreeBusScenario) -> float:
    """Distance from the threshold the package computes to the nearest node
    of the sweep's shift grid."""
    grid = np.linspace(0.0, s.L, RESOLUTION)
    return float(np.abs(grid - grid_model.tau(s).value).min())


def sweep_verify_scenario(rng: np.random.Generator, kind: str, binding: str) -> grid_model.ThreeBusScenario:
    """One scenario of the given stratum and threshold binding.

    ``plain`` and ``band`` scenarios are the test factories' valid and
    misaligned draws.  ``unequal-weights`` redraws the system's weight;
    ``threshold-on-grid`` moves the threshold onto a grid node by raising
    both capacity terms alike (``F01`` up, ``l0`` down by the same amount).
    A draw is kept when its threshold binds as asked and it still passes
    the factories' acceptance rule (valid, every margin at least 1e-6).
    """
    while True:
        if kind == "band":
            s = scenario_gen.random_misaligned_scenario(rng)
        else:
            s = scenario_gen.random_valid_scenario(rng)
        if kind == "unequal-weights":
            s = dataclasses.replace(s, alpha_sw=_u(rng, 0.0, 1.0))
        elif kind == "threshold-on-grid":
            node = np.linspace(0.0, s.L, RESOLUTION)[int(rng.integers(5, RESOLUTION - 5))]
            shift = float(node) - grid_model.tau(s).value
            s = dataclasses.replace(s, F01=s.F01 + shift, l0=s.l0 - shift)
        if grid_model.tau(s).binding == binding and scenario_gen._acceptable(s):
            return s


def make_sweep_verify(rng: np.random.Generator, count: int, workdir: pathlib.Path) -> list[dict]:
    pool = []
    for i in range(count):
        binding = SV_BINDINGS[i % 2]
        kind = SV_KINDS[(i // 2) % len(SV_KINDS)]
        s = sweep_verify_scenario(rng, kind, binding)
        path = workdir / f"sv{i:03d}.txt"
        grid_model.write_scenario_file(s, path)
        pool.append(dict(path=path.as_posix(), kind=kind, binding=binding, on_grid=grid_distance(s) <= 1e-9))
    return pool


# --------------------------------------------------------------- capacity-scan


def probe_axes(l1: float) -> tuple[np.ndarray, np.ndarray]:
    """Every few nodes of the CLI's default heatmap grid (F01 from ``l1``
    to 3, F12 over 0..1), CS_PROBE per axis, both ends included."""
    pick = np.round(np.linspace(0, HEATMAP_RESOLUTION - 1, CS_PROBE)).astype(int)
    f01 = np.linspace(l1 + F12_RANGE[0], F01_HIGH, HEATMAP_RESOLUTION)
    f12 = np.linspace(F12_RANGE[0], F12_RANGE[1], HEATMAP_RESOLUTION)
    return f01[pick], f12[pick]


def cell_validity(s: grid_model.ThreeBusScenario, f01: np.ndarray, f12: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``grid_model.validate`` on every (F01, F12) cell, row-major in F01.

    Returns which cells are valid and which clear every margin by
    ``CS_BASE_MARGIN``.
    """
    valid, clean = [], []
    for a in f01:
        for b in f12:
            report = grid_model.validate(dataclasses.replace(s, F01=float(a), F12=float(b)))
            valid.append(report.valid)
            clean.append(report.valid and min(c.margin for c in report.checks) > CS_BASE_MARGIN)
    return np.array(valid), np.array(clean)


def capacity_scan_base(
    rng: np.random.Generator, weights: str, bucket: tuple[float, float]
) -> tuple[grid_model.ThreeBusScenario, float]:
    """A base scenario whose probed heatmap has a valid-cell share in ``bucket``.

    With unequal weights the data center weighs price more than the system
    does while bus 1 is cheap in emissions, which opens the reverse split
    (data center stops at the threshold, system shifts fully) on part of the
    grid.  The base takes one cell that clears every margin as its own
    F01/F12, so ``classify`` accepts it.
    """
    while True:
        c1 = _u(rng, 0.05, 2.0)
        e1 = _u(rng, 0.05, 2.0)
        if weights == "equal":
            alpha_dc = alpha_sw = _u(rng, 0.0, 1.0)
            c2, e2 = c1 + _u(rng, 0.05, 2.0), _u(rng, 0.05, 3.0)
        else:
            alpha_dc, alpha_sw = _u(rng, 0.7, 1.0), _u(rng, 0.0, 0.3)
            c2, e2 = c1 + _u(rng, 0.05, 1.0), e1 + _u(rng, 0.5, 4.0)
        block = _u(rng, 0.3, 1.5)
        l1 = _u(rng, 0.05, 1.2)
        f02 = _u(rng, 0.05, 0.8)
        gap = _u(rng, 0.1, 1.4)  # cells with F12 below this pass the bus-2 condition
        plateau = _u(rng, 0.1, block + 0.6)  # renewable headroom left after l1
        f01, f12 = probe_axes(l1)
        s = grid_model.ThreeBusScenario(
            c1=c1, c2=c2, e1=e1, e2=e2, alpha_dc=alpha_dc, alpha_sw=alpha_sw,
            L=block, l1=l1, F02=f02, l2=block + f02 + gap, l0=-(plateau + l1 + f02),
            F01=float(f01[0]), F12=float(f12[0]),
        )
        valid, clean = cell_validity(s, f01, f12)
        share = float(valid.mean())
        cells = np.flatnonzero(clean)
        if bucket[0] <= share < bucket[1] and cells.size:
            cell = int(cells[rng.integers(cells.size)])
            return dataclasses.replace(s, F01=float(f01[cell // f12.size]), F12=float(f12[cell % f12.size])), share


def make_capacity_scan(rng: np.random.Generator, count: int, workdir: pathlib.Path) -> list[dict]:
    pool = []
    for i in range(count):
        bucket = CS_VALID_BUCKETS[i % len(CS_VALID_BUCKETS)]
        weights = CS_WEIGHTS[(i // len(CS_VALID_BUCKETS)) % 2]
        s, share = capacity_scan_base(rng, weights, bucket)
        path = workdir / f"cs{i:03d}.txt"
        grid_model.write_scenario_file(s, path)
        pool.append(
            dict(
                path=path.as_posix(), weights=weights, probed_valid_share=share,
                heatmap_out=(workdir / f"cs{i:03d}_heatmap.csv").as_posix(),
                boundary_out=(workdir / f"cs{i:03d}_heatmap_boundary.csv").as_posix(),
                scenario=dataclasses.asdict(s),
            )
        )
    return pool


# ------------------------------------------------------------------- random-lp


def small_lp(rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The acceptance generator's LP (at most 4 variables and 3 full-rank
    rows, small integer data, finite bounds; about half are infeasible)."""
    lp = lp_oracle.random_bounded_lp(rng)
    return lp.objective, lp.eq_matrix, lp.eq_rhs, lp.lower_bounds, lp.upper_bounds


def large_lp(rng: np.random.Generator, n: int, m: int) -> tuple[np.ndarray, ...]:
    """Dense LP with finite bounds, feasible by construction (the right-hand
    side is the image of a point strictly inside the box)."""
    A = rng.uniform(-1.0, 1.0, size=(m, n))
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    inner = lo + rng.uniform(0.1, 0.9, size=n) * (hi - lo)
    c = rng.uniform(-1.0, 1.0, size=n)
    return c, A, A @ inner, lo, hi


def make_random_lp(rng: np.random.Generator, count: int, workdir: pathlib.Path) -> list[dict]:
    lps = []
    for i in range(count):
        if i % LARGE_EVERY == LARGE_EVERY - 1:
            n = int(rng.integers(LARGE_VARIABLES[0], LARGE_VARIABLES[1] + 1))
            lps.append(("large", large_lp(rng, n, n // 4)))
        else:
            lps.append(("small", small_lp(rng)))
    path = workdir / "lps.npz"
    shapes = np.array([arrays[1].shape for _, arrays in lps], dtype=np.int64)
    np.savez(
        path,
        shapes=shapes,
        large=np.array([kind == "large" for kind, _ in lps]),
        **{
            field: np.concatenate([np.ravel(arrays[k]) for _, arrays in lps])
            for k, field in enumerate(("c", "A", "b", "lo", "hi"))
        },
    )
    return [dict(path=path.as_posix(), index=i, kind=kind) for i, (kind, _) in enumerate(lps)]


def load_lps(path: str) -> list[tuple[np.ndarray, ...]]:
    """Split the packed arrays of :func:`make_random_lp` back into LPs."""
    with np.load(path) as packed:
        shapes = packed["shapes"]
        flat = {field: packed[field] for field in ("c", "A", "b", "lo", "hi")}
    offsets = {field: 0 for field in flat}
    lps = []
    for m, n in shapes:
        sizes = dict(c=n, A=m * n, b=m, lo=n, hi=n)
        parts = []
        for field, size in sizes.items():
            start = offsets[field]
            parts.append(flat[field][start:start + size])
            offsets[field] = start + size
        c, A, b, lo, hi = parts
        lps.append((c, A.reshape(m, n), b, lo, hi))
    return lps


MAKERS = {
    "sweep-verify": make_sweep_verify,
    "capacity-scan": make_capacity_scan,
    "random-lp": make_random_lp,
}


def make_pool(workload: str, seed: int, workdir: pathlib.Path, smoke: bool) -> list[dict]:
    sizes = SMOKE_POOL_SIZES if smoke else POOL_SIZES
    rng = np.random.default_rng([seed, sorted(MAKERS).index(workload)])
    return MAKERS[workload](rng, sizes[workload], workdir)
