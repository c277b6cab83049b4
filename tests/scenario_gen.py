"""Scenario factories shared by the test modules.

Random scenarios are built backwards from a target shift threshold so that
every validity margin is comfortably wide; anything borderline is rejected
and redrawn.  The misaligned variant additionally places the threshold
strictly inside the band where the device-level and system-level optima
disagree.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from gridshift.dispatch import build_ed, solve_ed_detailed
from gridshift.grid_model import ThreeBusScenario, eta, tau, validate

MARGIN_FLOOR = 1e-6

#: Shifts this far either side of the threshold fall on both sides of the
#: 1e-7 clearance margin at which a dispatch vertex counts as degenerate.
KNIFE_EDGE_OFFSETS = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]) * 1e-7


def canonical_scenario(**overrides) -> ThreeBusScenario:
    """The worked example used for all frozen expectations."""
    params = dict(
        c1=1.0,
        c2=2.0,
        e1=1.0,
        e2=2.0,
        l0=-2.5,
        l1=1.0,
        l2=2.0,
        L=1.0,
        F01=1.5,
        F02=0.5,
        F12=0.4,
        alpha_dc=1.0,
        alpha_sw=1.0,
    )
    params.update(overrides)
    return ThreeBusScenario(**params)


def zero_cost_scenario(**overrides) -> ThreeBusScenario:
    """A valid, renewable-limited scenario (threshold 0.875) whose bus-1
    base load is negative and whose system optimum, the full shift, costs
    exactly 0.  ``l2=2.2`` makes that optimum cost -0.1 instead."""
    params = dict(l0=1.5, l1=-3.5, l2=2.25, F01=2.5, F02=0.125, F12=1.0)
    params.update(overrides)
    return canonical_scenario(**params)


def _assemble(rng, c1, c2, e1, e2, alpha, block, l1, f02, f12, tau_target):
    congestion_binding = bool(rng.integers(2))
    slack = float(rng.uniform(0.05, 1.0))
    if congestion_binding:
        f01 = tau_target + l1 + f12
        l0 = -(tau_target + l1 + f02 + f12 + slack)
    else:
        l0 = -(tau_target + l1 + f02 + f12)
        f01 = tau_target + l1 + f12 + slack
    l2 = block + f02 + f12 + float(rng.uniform(0.05, 2.0))
    return ThreeBusScenario(
        c1=c1,
        c2=c2,
        e1=e1,
        e2=e2,
        l0=l0,
        l1=l1,
        l2=l2,
        L=block,
        F01=f01,
        F02=f02,
        F12=f12,
        alpha_dc=alpha,
        alpha_sw=alpha,
    )


def _acceptable(s: ThreeBusScenario) -> bool:
    report = validate(s)
    if not report.valid:
        return False
    return all(check.margin >= MARGIN_FLOOR for check in report.checks)


def random_valid_scenario(rng: np.random.Generator, max_tries: int = 200) -> ThreeBusScenario:
    """A validity-clean scenario with wide margins on every condition."""
    for _ in range(max_tries):
        c1 = float(rng.uniform(0.05, 3.0))
        c2 = c1 + float(rng.uniform(0.05, 3.0))
        e1 = float(rng.uniform(0.05, 5.0))
        e2 = float(rng.uniform(0.05, 5.0))
        alpha = float(rng.uniform(0.0, 1.0))
        block = float(rng.uniform(0.2, 2.0))
        l1 = float(rng.uniform(0.05, 2.0))
        f02 = float(rng.uniform(0.05, 1.0))
        f12 = float(rng.uniform(0.05, 1.0))
        tau_target = float(rng.uniform(0.05, block - 0.01))
        s = _assemble(rng, c1, c2, e1, e2, alpha, block, l1, f02, f12, tau_target)
        if _acceptable(s):
            return s
    raise RuntimeError("random_valid_scenario: no acceptable draw")


def random_misaligned_scenario(rng: np.random.Generator, max_tries: int = 500) -> ThreeBusScenario:
    """A scenario whose threshold sits strictly inside the misalignment band.

    The band is the interval of thresholds where the system plan stops at
    the threshold while the device keeps shifting: it runs from the
    system-side indifference point up to the device-side one.  Both
    endpoints depend only on the blended rates, the block size, and the
    bus-1 base load, so the threshold can be placed before the line limits
    are chosen.
    """
    for _ in range(max_tries):
        c1 = float(rng.uniform(0.05, 2.0))
        c2 = c1 + float(rng.uniform(0.05, 2.0))
        e1 = float(rng.uniform(0.05, 2.0))
        e2 = e1 + float(rng.uniform(0.05, 2.0))
        alpha = float(rng.uniform(0.0, 1.0))
        block = float(rng.uniform(0.3, 2.0))
        l1 = float(rng.uniform(0.05, 1.5))
        eta1 = alpha * c1 + (1.0 - alpha) * e1
        eta2 = alpha * c2 + (1.0 - alpha) * e2
        ratio = eta1 / eta2
        device_cutoff = block * (1.0 - ratio)
        system_cutoff = device_cutoff - ratio * l1
        band_low = max(system_cutoff, 0.0)
        band_width = device_cutoff - band_low
        if band_width < 0.05:
            continue
        tau_target = band_low + float(rng.uniform(0.1, 0.9)) * band_width
        f02 = float(rng.uniform(0.05, 1.0))
        f12 = float(rng.uniform(0.05, 1.0))
        s = _assemble(rng, c1, c2, e1, e2, alpha, block, l1, f02, f12, tau_target)
        if not _acceptable(s):
            continue
        t = tau(s).value
        if t - band_low < 1e-4 or device_cutoff - t < 1e-4:
            continue
        return s
    raise RuntimeError("random_misaligned_scenario: no acceptable draw")


def random_split_weight_scenario(
    rng: np.random.Generator, max_tries: int = 500
) -> ThreeBusScenario:
    """A scenario whose agents blend price and emissions with different
    weights, its threshold strictly between the two agents' cutoffs.

    The bus-1 emission rate is drawn independently of bus 2's, so the
    system's blended bus-1 rate can be the relatively cheaper one.  Then its
    cutoff can rise above the data center's, and the reverse split (the data
    center stops at the threshold, the system would shift everything)
    appears next to the classic one.
    """
    for _ in range(max_tries):
        c1 = float(rng.uniform(0.05, 2.0))
        c2 = c1 + float(rng.uniform(0.05, 2.0))
        e1 = float(rng.uniform(0.05, 2.0))
        e2 = float(rng.uniform(0.05, 2.0))
        alpha_dc = float(rng.uniform(0.0, 1.0))
        alpha_sw = float(rng.uniform(0.0, 1.0))
        block = float(rng.uniform(0.3, 2.0))
        l1 = float(rng.uniform(0.05, 1.5))
        cutoffs = []
        for alpha, base1 in ((alpha_dc, 0.0), (alpha_sw, l1)):
            eta1 = alpha * c1 + (1.0 - alpha) * e1
            eta2 = alpha * c2 + (1.0 - alpha) * e2
            cutoffs.append(block - (eta1 / eta2) * (block + base1))
        band_low = max(min(cutoffs), 0.0)
        band_high = min(max(cutoffs), block)
        if band_high - band_low < 0.05:
            continue
        tau_target = band_low + float(rng.uniform(0.1, 0.9)) * (band_high - band_low)
        f02 = float(rng.uniform(0.05, 1.0))
        f12 = float(rng.uniform(0.05, 1.0))
        s = _assemble(rng, c1, c2, e1, e2, alpha_dc, block, l1, f02, f12, tau_target)
        s = dataclasses.replace(s, alpha_sw=alpha_sw)
        if not _acceptable(s):
            continue
        t = tau(s).value
        if min(abs(t - c) for c in cutoffs) < 1e-4:
            continue
        return s
    raise RuntimeError("random_split_weight_scenario: no acceptable draw")


def threshold_on_node(s: ThreeBusScenario, rng: np.random.Generator, resolution: int):
    """``s`` with its threshold moved onto an interior node of the shift
    grid (``F01`` up and ``l0`` down by the same amount)."""
    node = float(np.linspace(0.0, s.L, resolution)[rng.integers(5, resolution - 5)])
    shift = node - tau(s).value
    return dataclasses.replace(s, F01=s.F01 + shift, l0=s.l0 - shift)


def grid_mix() -> list[ThreeBusScenario]:
    """Fixed-seed mix of valid scenarios for checks of the dispatch along the
    shift: plain, band and unequal-weight draws, thresholds moved onto a
    node of the 200-point grid, a threshold at the block edge, and a free
    bus-1 generator."""
    rng = np.random.default_rng(309)
    mix = []
    for _ in range(12):
        mix.append(random_valid_scenario(rng))
        mix.append(random_misaligned_scenario(rng))
        mix.append(random_split_weight_scenario(rng))
    while len(mix) < 56:
        s = threshold_on_node(random_valid_scenario(rng), rng, 200)
        if _acceptable(s):
            mix.append(s)
    mix.append(canonical_scenario())
    mix.append(canonical_scenario(F01=2.4, l0=-2.9))  # threshold at L
    mix.append(canonical_scenario(c1=0.0))
    mix.append(canonical_scenario(c1=0.0, alpha_dc=0.5, alpha_sw=0.5))
    return mix


def _bound_clearance(lp, solution) -> float:
    """Smallest gap between any basic variable and a finite bound."""
    clearance = np.inf
    for j in solution.basis:
        x = solution.primal[j]
        for bound in (lp.lower_bounds[j], lp.upper_bounds[j]):
            if np.isfinite(bound):
                clearance = min(clearance, abs(x - bound))
    return float(clearance)


def nondegenerate_deltas(
    s: ThreeBusScenario,
    rng: np.random.Generator,
    count: int = 5,
    clearance: float = 1e-3,
) -> list[float]:
    """Interior shifts whose dispatch vertex sits well clear of every bound.

    Used by finite-difference checks: a vertex hugging a bound flips its
    dual under a small load perturbation, so such shifts are skipped.
    """
    t = tau(s).value
    picks: list[float] = []
    for _ in range(400):
        d = float(rng.uniform(0.0, s.L))
        if d < clearance or s.L - d < clearance or abs(d - t) < clearance:
            continue
        outcome, solution = solve_ed_detailed(s, d)
        if outcome.degenerate:
            continue
        if _bound_clearance(build_ed(s, d), solution) <= clearance:
            continue
        picks.append(d)
        if len(picks) == count:
            return picks
    raise RuntimeError("nondegenerate_deltas: not enough clean interior shifts")


def knife_edge_shifts(s: ThreeBusScenario) -> np.ndarray:
    """The shifts :data:`KNIFE_EDGE_OFFSETS` below and above the threshold
    that lie inside the block ``[0, L]``."""
    t = tau(s).value
    knife = np.concatenate([t - KNIFE_EDGE_OFFSETS, t + KNIFE_EDGE_OFFSETS])
    return knife[(0.0 <= knife) & (knife <= s.L)]
