"""Three-bus scenario data, setting checks, and derived threshold quantities.

The system has a renewable-only bus 0 (negative ``l0`` is available renewable
power), a generator bus 1 carrying flexible demand, and a generator bus 2
hosting the remainder of a shiftable load block ``L``.  Everything downstream
(dispatch, closed forms, sweeps) consumes the immutable scenario value defined
here, and the regime analysis is only meaningful when :func:`validate` passes.
CSV numbers are formatted by :func:`csv_number`: a row object's line by
:func:`csv_row`, a table by :func:`csv_lines` (each distinct number of the
table once), and a heatmap's cell lines join texts that these made.
"""

from __future__ import annotations

import dataclasses
import math
from importlib import resources
from typing import NamedTuple

import numpy as np

#: Slack of the setting conditions (:func:`validate`) and of the tie between
#: the threshold's two capacity terms.  Mixed units: MW for the load, line
#: and threshold margins and for the tie, but $/MWh for the price-order
#: margin ``c2 - c1``.
TOLERANCE = 1e-9

SCENARIO_KEYS = (
    "c1",
    "c2",
    "e1",
    "e2",
    "l0",
    "l1",
    "l2",
    "L",
    "F01",
    "F02",
    "F12",
    "alpha_dc",
    "alpha_sw",
)


class ScenarioError(ValueError):
    """Scenario numbers violate a structural requirement (negative capacity,
    weight outside [0, 1], non-finite value, ...)."""


class ScenarioParseError(ValueError):
    """Scenario text could not be parsed; carries the offending line number
    when one can be pointed at."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclasses.dataclass(frozen=True)
class ThreeBusScenario:
    """One complete parameterization of the three-bus system.

    ``c1``/``c2`` are generator offer prices ($/MWh), ``e1``/``e2`` their
    emission rates (tCO2/MWh).  ``l0`` is the bus-0 net load (negative means
    renewable supply), ``l1``/``l2`` the bus loads with ``l2`` counting the
    full shiftable block ``L``.  ``F01``, ``F02``, ``F12`` are line limits,
    and ``alpha_dc``/``alpha_sw`` weight price against emissions in the two
    agents' objectives (1 = pure cost, 0 = pure emissions).
    """

    c1: float
    c2: float
    e1: float
    e2: float
    l0: float
    l1: float
    l2: float
    L: float
    F01: float
    F02: float
    F12: float
    alpha_dc: float
    alpha_sw: float

    def __post_init__(self) -> None:
        problems = []
        for name in SCENARIO_KEYS:
            value = getattr(self, name)
            try:
                number = float(value)
            except (TypeError, ValueError):
                problems.append(f"{name} must be a number, got {value!r}")
                continue
            if not math.isfinite(number):
                problems.append(f"{name} must be finite, got {value!r}")
                continue
            object.__setattr__(self, name, number)  # normalize ints, np scalars
        if not problems:
            for name in ("c1", "c2", "e1", "e2"):
                if getattr(self, name) < 0.0:
                    problems.append(f"{name} must be nonnegative")
            if self.L < 0.0:
                problems.append("shiftable load L must be nonnegative")
            for name in ("F01", "F02", "F12"):
                if getattr(self, name) < 0.0:
                    problems.append(f"line limit {name} must be nonnegative")
            for name in ("alpha_dc", "alpha_sw"):
                weight = getattr(self, name)
                if not 0.0 <= weight <= 1.0:
                    problems.append(f"{name} must lie in [0, 1], got {weight}")
        if problems:
            raise ScenarioError("; ".join(problems))


@dataclasses.dataclass(frozen=True)
class ConditionCheck:
    """Outcome of one setting condition: pass/fail, the signed margin by which
    it holds (positive = satisfied), and a plain-language description."""

    name: str
    passed: bool
    margin: float
    detail: str

    @property
    def borderline(self) -> bool:
        """The margin is within TOLERANCE of the knife edge."""
        return abs(self.margin) <= TOLERANCE


@dataclasses.dataclass(frozen=True)
class ValidityReport:
    checks: tuple[ConditionCheck, ...]

    @property
    def valid(self) -> bool:
        """Every condition holds."""
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[ConditionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            edge = " (borderline)" if c.borderline else ""
            lines.append(f"[{mark}]{edge} {c.name}: {c.detail} (margin {c.margin:.6g})")
        lines.append("scenario valid" if self.valid else "scenario INVALID")
        return "\n".join(lines)


def choose(condition, if_true, if_false):
    """``if_true if condition else if_false``, elementwise when ``condition``
    is an array: Python numbers stay Python numbers, arrays go through
    ``np.where``.  Lets one formula serve one scenario and a capacity grid."""
    if isinstance(condition, np.ndarray):
        return np.where(condition, if_true, if_false)
    return if_true if condition else if_false


def _lesser(a, b):
    # min(a, b) with Python's tie rule: the first argument wins unless the
    # second is strictly smaller (this keeps the sign of a zero margin).
    return choose(b < a, b, a)


#: The setting conditions, in report order, and whether each must hold
#: strictly (margin above TOLERANCE) or only to within TOLERANCE.
_CONDITIONS = (
    ("bus-1 generation cheaper", True),
    ("positive system load", True),
    ("bus-1 load renewable-servable", True),
    ("bus-2 load exceeds import capacity", True),
    ("shift threshold positive", True),
    # Unlike the others this check is non-strict: threshold == L is fine.
    ("shift threshold within block", False),
)


def _holds(margin, strict: bool):
    return margin > TOLERANCE if strict else margin >= -TOLERANCE


def _margins(s: ThreeBusScenario, F01, F12, threshold) -> tuple:
    """Signed margins of :data:`_CONDITIONS` with the two scanned line limits
    given separately; each is a float, or an array over the cells when
    ``F01``/``F12``/``threshold`` are arrays."""
    return (
        s.c2 - s.c1,
        s.l0 + s.l1 + s.l2,
        _lesser(F01 + _lesser(s.F02, F12) - s.l1, abs(s.l0) - s.l1),
        (s.l2 - s.L) - (s.F02 + F12),
        threshold,
        s.L - threshold,
    )


def validate(s: ThreeBusScenario) -> ValidityReport:
    """Check the structural conditions under which the regime analysis holds.

    Four direct conditions (price order, positive system load, bus 1 fully
    servable from renewable, bus 2 never fully import-served) plus two derived
    ones on the shift threshold (positive, and not beyond the block size).
    Pure function; never raises on a structurally well-formed scenario.
    """
    t = tau(s).value
    details = (
        f"c1={s.c1:g} must undercut c2={s.c2:g}",
        "total net load l0+l1+l2 must be positive",
        "l1 must stay below both F01+min(F02,F12) and |l0|",
        "l2-L must exceed F02+F12 so bus 2 always runs local generation",
        f"threshold {t:.6g} must be positive",
        f"threshold {t:.6g} must not exceed the shiftable block L={s.L:g}",
    )
    checks = tuple(
        ConditionCheck(
            name=name,
            passed=_holds(margin, strict),
            margin=margin,
            detail=detail,
        )
        for (name, strict), margin, detail in zip(
            _CONDITIONS, _margins(s, s.F01, s.F12, t), details
        )
    )
    return ValidityReport(checks)


class Threshold(NamedTuple):
    """Shift threshold and which capacity term produced it."""

    value: float
    binding: str  # "congestion" | "renewable" | "both"


def _threshold(s: ThreeBusScenario, F01, F12):
    """Threshold value, whether the two capacity terms tie, and whether the
    congestion term is the smaller; elementwise over ``F01``/``F12``."""
    congestion_term = F01 - F12
    renewable_term = -s.l0 - s.F02 - F12
    tie = abs(congestion_term - renewable_term) <= TOLERANCE
    congestion_lower = congestion_term < renewable_term
    value = choose(tie | congestion_lower, congestion_term, renewable_term)
    return value - s.l1, tie, congestion_lower


def tau(s: ThreeBusScenario) -> Threshold:
    """Largest shift the cheap path to bus 1 can absorb at zero price.

    The bus-1 delivery corridor saturates either because line 0-1 congests
    (``F01 - F12``) or because the renewable supply runs out after serving
    bus 2's imports (``-l0 - F02 - F12``); the threshold is the smaller term
    minus the base load ``l1``.
    """
    value, tie, congestion_lower = _threshold(s, s.F01, s.F12)
    if tie:
        binding = "both"
    elif congestion_lower:
        binding = "congestion"
    else:
        binding = "renewable"
    return Threshold(value=value, binding=binding)


def threshold_grid(
    s: ThreeBusScenario, F01: np.ndarray, F12: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`tau` and :func:`validate` for ``s`` with its two scanned line
    limits replaced by ``F01[i]``/``F12[i]``: the threshold of every cell and
    whether the cell is a valid scenario.  Cells whose line limits are not
    finite and nonnegative (which :class:`ThreeBusScenario` rejects) are
    invalid."""
    F01 = np.asarray(F01, dtype=float)
    F12 = np.asarray(F12, dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):
        t, _, _ = _threshold(s, F01, F12)
        valid = np.isfinite(F01) & np.isfinite(F12) & (F01 >= 0.0) & (F12 >= 0.0)
        for (_, strict), margin in zip(_CONDITIONS, _margins(s, F01, F12, t)):
            valid &= _holds(margin, strict)
    return t, valid


def eta(s: ThreeBusScenario, bus: int, agent: str) -> float:
    """Blended price/emissions rate of the generator at ``bus`` as seen by
    ``agent`` ("dc" for the data center, "sw" for the system view)."""
    if bus == 1:
        cost, emis = s.c1, s.e1
    elif bus == 2:
        cost, emis = s.c2, s.e2
    else:
        raise ValueError(f"no generator at bus {bus!r}; expected 1 or 2")
    if agent == "dc":
        weight = s.alpha_dc
    elif agent == "sw":
        weight = s.alpha_sw
    else:
        raise ValueError(f"unknown agent {agent!r}; expected 'dc' or 'sw'")
    return weight * cost + (1.0 - weight) * emis


def parse_scenario(text: str) -> ThreeBusScenario:
    """Parse ``key = value`` scenario text.

    Lines end at a line feed only (a carriage return before it is dropped),
    so line numbers count the file's lines.  ``#`` starts a comment
    (full-line or trailing), blank lines are skipped, every key in
    :data:`SCENARIO_KEYS` must appear exactly once, and no other keys are
    allowed.  Values round-trip exactly through :func:`serialize_scenario`
    because both sides use ``repr`` floats.
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        raw = raw.removesuffix("\r")
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioParseError(f"expected 'key = value', got {raw!r}", lineno)
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in SCENARIO_KEYS:
            raise ScenarioParseError(f"unknown key {key!r}", lineno)
        if key in values:
            raise ScenarioParseError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = float(value_text)
        except ValueError:
            raise ScenarioParseError(
                f"could not parse value {value_text!r} for key {key!r}", lineno
            ) from None
    missing = [k for k in SCENARIO_KEYS if k not in values]
    if missing:
        raise ScenarioParseError(f"missing keys: {', '.join(missing)}")
    return ThreeBusScenario(**values)


def parse_scenario_file(path) -> ThreeBusScenario:
    """:func:`parse_scenario` on a UTF-8 file; a leading byte-order mark is
    skipped (not by "utf-8-sig", whose error offsets start after it)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ScenarioParseError(f"byte {exc.start} is not UTF-8 ({exc.reason})", line) from None
    return parse_scenario(text)


def serialize_scenario(s: ThreeBusScenario) -> str:
    lines = [f"{key} = {getattr(s, key)!r}" for key in SCENARIO_KEYS]
    return "\n".join(lines) + "\n"


def csv_number(x: float) -> str:
    """Fixed 12-significant-digit rendering used by every CSV writer."""
    return f"{x:.12g}"


def csv_row(values) -> str:
    """One CSV line: numbers through :func:`csv_number`, strings as they are."""
    return ",".join([v if isinstance(v, str) else csv_number(v) for v in values])


def csv_lines(header: str, columns) -> list[str]:
    """The ``header`` line, then one :func:`csv_row` line per entry of the
    equally long ``columns``, each a column of numbers or of strings.

    Each distinct number of the whole table is formatted once, however many
    cells and columns it fills.  Numbers are keyed by their bit pattern, not
    compared as floats, because ``0.0`` and ``-0.0`` are equal yet print as
    ``0`` and ``-0``.
    """
    columns = [np.asarray(column) for column in columns]
    strings = [column.dtype.kind in "OU" for column in columns]
    bits = np.array([c for c, s in zip(columns, strings) if not s], dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    formatted = np.array([csv_number(x) for x in distinct.view(np.float64).tolist()], dtype=object)
    texts = iter(formatted[inverse.reshape(bits.shape)].tolist())
    table = [c.tolist() if s else next(texts) for c, s in zip(columns, strings)]
    return [header, *map(",".join, zip(*table))]


def write_scenario_file(s: ThreeBusScenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(serialize_scenario(s))


def bundled_scenario_names() -> tuple[str, ...]:
    """Names accepted by :func:`bundled_scenario_path`."""
    root = resources.files("gridshift").joinpath("scenarios")
    return tuple(
        sorted(entry.name[:-4] for entry in root.iterdir() if entry.name.endswith(".txt"))
    )


def bundled_scenario_path(name: str) -> str:
    """Filesystem path of a scenario file shipped with the package."""
    entry = resources.files("gridshift").joinpath("scenarios", f"{name}.txt")
    if not entry.is_file():
        known = ", ".join(bundled_scenario_names())
        raise ScenarioError(f"no bundled scenario named {name!r} (have: {known})")
    return str(entry)
