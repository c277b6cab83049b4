"""Property tests: generated scenarios near the edges of validity.

The random factories in ``scenario_gen`` keep every validity margin wide.
These strategies aim at the places they avoid: margins just above the
validity tolerance, near-zero offers and emission rates, a threshold at the
block size, ties between the two threshold terms and unequal agent weights.
"""

import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scenario_gen
from gridshift import cli
from gridshift.closed_form import (
    DegenerateWeightsError,
    objectives,
    optimal_shift_dc,
    optimal_shift_sw,
)
from gridshift.dispatch import pieces
from gridshift.grid_model import (
    SCENARIO_KEYS,
    ThreeBusScenario,
    parse_scenario,
    serialize_scenario,
    tau,
    validate,
)
from gridshift.sweep import verify_scenario

PROPERTY_SETTINGS = dict(derandomize=True, deadline=None)

#: Margins just above the validity tolerance (1e-9), or comfortably wide.
margins = st.one_of(st.sampled_from([2e-9, 1e-8, 1e-7, 1e-6]), st.floats(0.01, 1.0))
#: Offers and emission rates, zero or near it included.
rates = st.one_of(st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]), st.floats(0.0, 3.0))
#: Agent weights, the pure-price and pure-emission ends included.
weights = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
#: Line limits and base loads, zero and near zero included.
sizes = st.one_of(st.sampled_from([0.0, 1e-9, 1e-6]), st.floats(0.0, 2.0))


@st.composite
def edge_scenarios(draw) -> ThreeBusScenario:
    """A scenario built backwards from its threshold, every validity margin
    drawn from :data:`margins`, so most draws are valid and many sit on an
    edge of validity."""
    c1 = draw(rates)
    L = draw(st.floats(0.05, 2.0))
    threshold = draw(
        st.one_of(st.just(L), margins.filter(lambda m: m < L), st.floats(0.0, 1.0).map(L.__mul__))
    )
    l1, f02, f12 = draw(sizes), draw(sizes), draw(sizes)
    slack = draw(margins)  # gap between the congestion and renewable terms
    if draw(st.booleans()):  # congestion-limited
        f01 = threshold + l1 + f12
        l0 = -(threshold + l1 + f02 + f12 + slack)
    else:
        l0 = -(threshold + l1 + f02 + f12)
        f01 = threshold + l1 + f12 + slack
    # l2 leaves bus 2 short of imports by one margin and the system load
    # positive by another.
    l2 = max(L + f02 + f12 + draw(margins), draw(margins) - l0 - l1)
    return ThreeBusScenario(
        c1=c1,
        c2=c1 + draw(margins),
        e1=draw(rates),
        e2=draw(rates),
        l0=l0,
        l1=l1,
        l2=l2,
        L=L,
        F01=f01,
        F02=f02,
        F12=f12,
        alpha_dc=draw(weights),
        alpha_sw=draw(weights),
    )


finite = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
#: Any scenario the constructor accepts, with no regard to validity.
any_scenarios = st.builds(
    ThreeBusScenario,
    **{key: nonnegative for key in ("c1", "c2", "e1", "e2", "L", "F01", "F02", "F12")},
    **{key: finite for key in ("l0", "l1", "l2")},
    **{key: st.floats(0.0, 1.0) for key in ("alpha_dc", "alpha_sw")},
)


@settings(**PROPERTY_SETTINGS, max_examples=50)
@given(edge_scenarios())
def test_valid_scenarios_verify(s):
    assume(validate(s).valid)
    report = verify_scenario(s, 41)
    assert report.passed, report.to_text()


def _assert_pieces_match_closed_forms(s: ThreeBusScenario) -> None:
    """The paper's formulas against the LP's own pieces, with no grid.

    The LP breaks where the threshold says, and nowhere else.  On each piece
    both settlements are linear in the shift; their slopes and intercepts,
    from the piece's prices and emission rates, are the closed forms' left
    and right coefficients, and the jump across the break is the closed
    forms' repricing externality.  The LP's bilevel optimum, the lesser of
    the left piece at the break and the last piece at ``L``, is the closed
    forms' optimum in value, and in shift wherever the two candidates differ
    by more than 1e-9 (closer ones are a tie that rounding decides).
    """
    walk = pieces(s)
    t = tau(s).value
    if len(walk) == 1:
        assert abs(t - s.L) <= 1e-9
    else:
        assert len(walk) == 2
        assert abs(walk[0].end - t) <= 1e-9
    brk = walk[0].end
    covered = {"dc": (0.0, s.L), "sw": (s.l1, s.l2)}  # bus-1 base and bus-2 load
    for (agent, alpha), objective, optimal_shift in zip(
        (("dc", s.alpha_dc), ("sw", s.alpha_sw)), objectives(s), (optimal_shift_dc, optimal_shift_sw)
    ):
        base1, load2 = covered[agent]

        def line(piece):  # (intercept, slope) of the settlement on a piece
            eta1, eta2 = (alpha * piece.lmp[k] + (1.0 - alpha) * piece.lme[k] for k in (1, 2))
            return eta1 * base1 + eta2 * load2, eta1 - eta2

        closed = [
            (objective.left_intercept, objective.left_slope),
            (objective.right_intercept, objective.right_slope),
        ]
        for piece, expected in zip(walk, closed):
            assert abs(line(piece)[0] - expected[0]) <= 1e-9
            assert abs(line(piece)[1] - expected[1]) <= 1e-9
        value = [a + b * brk for a, b in map(line, walk)]
        if len(walk) == 2:
            assert abs(value[1] - value[0] - objective.discontinuity()) <= 1e-9
        intercept, slope = line(walk[-1])
        at_break, at_end = value[0], intercept + slope * s.L
        try:
            best = optimal_shift(s)
        except DegenerateWeightsError:  # every shift costs the same
            continue
        assert abs(min(at_break, at_end) - best.value) <= 1e-9
        if abs(at_break - at_end) > 1e-9:
            assert abs((brk if at_break < at_end else s.L) - best.delta) <= 1e-9


def test_pieces_match_closed_forms_on_the_grid_mix():
    mix = [s for s in scenario_gen.grid_mix() if validate(s).valid]
    assert len(mix) == 60
    for s in mix:
        _assert_pieces_match_closed_forms(s)


@settings(**PROPERTY_SETTINGS, max_examples=100)
@given(edge_scenarios())
def test_pieces_match_closed_forms_on_the_edges(s):
    assume(validate(s).valid)
    _assert_pieces_match_closed_forms(s)


@settings(**PROPERTY_SETTINGS, max_examples=150)
@given(st.one_of(edge_scenarios(), any_scenarios))
def test_serialization_round_trips(s):
    assert parse_scenario(serialize_scenario(s)) == s


def _scenario_texts():
    serialized = st.one_of(edge_scenarios(), any_scenarios).map(serialize_scenario)

    def drop_line(text_and_index):
        text, index = text_and_index
        lines = text.splitlines()
        return "\n".join(lines[:index] + lines[index + 1 :]) + "\n"

    return st.one_of(
        serialized,
        st.tuples(serialized, st.integers(0, len(SCENARIO_KEYS) - 1)).map(drop_line),
        serialized.map(lambda text: text + "c1 = 1\n"),  # duplicate key
        serialized.map(lambda text: text.replace("= ", "= x", 1)),  # bad number
        st.text(max_size=60),
    )


@st.composite
def cli_arguments(draw, scenario_path: str, out_path: str) -> list[str]:
    argv = [draw(st.sampled_from(["sweep", "verify", "classify", "heatmap"]))]
    argv += ["--scenario", draw(st.sampled_from([scenario_path, scenario_path + ".missing"]))]
    argv += ["--resolution", draw(st.sampled_from(["2", "3", "7", "12", "1", "0", "-3", "x", "1e3"]))]
    argv += ["--out", draw(st.sampled_from(["-", out_path]))]
    if argv[0] == "heatmap":
        ranges = st.sampled_from(["0:1", "0.5:2.5", "-0.2:1.2", "2:2", "3:1", "0:inf", "nan:1", "a:b"])
        if draw(st.booleans()):
            argv.append("--f01-range=" + draw(ranges))
        if draw(st.booleans()):
            argv.append("--f12-range=" + draw(ranges))
        if draw(st.booleans()):
            argv += ["--boundary-out", out_path + ".boundary"]
    return argv


@settings(**PROPERTY_SETTINGS, max_examples=100)
@given(data=st.data(), text=_scenario_texts())
def test_cli_ends_in_a_documented_exit_code(tmp_path_factory, data, text):
    """Every run ends in one of the exit codes 0-3.  Usage errors leave
    through argparse's ``SystemExit(2)``, which is how the console script
    exits with that code."""
    directory = tmp_path_factory.mktemp("cli")
    scenario_path = directory / "scenario.txt"
    scenario_path.write_text(text, encoding="utf-8")
    argv = data.draw(cli_arguments(str(scenario_path), str(directory / "out.csv")))
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2, 3), argv


def test_edge_strategy_reaches_the_edges():
    """The edge strategy yields valid scenarios with a threshold at the
    block size and with margins at the tolerance; otherwise the first
    property would test the wide interior only."""
    seen = {"valid": 0, "threshold at L": 0, "margin below 1e-6": 0}

    @settings(**PROPERTY_SETTINGS, max_examples=100)
    @given(edge_scenarios())
    def survey(s):
        report = validate(s)
        if not report.valid:
            return
        seen["valid"] += 1
        seen["threshold at L"] += math.isclose(report.checks[-1].margin, 0.0, abs_tol=1e-12)
        seen["margin below 1e-6"] += min(c.margin for c in report.checks) < 1e-6

    survey()
    assert seen["valid"] >= 60
    assert seen["threshold at L"] >= 10
    assert seen["margin below 1e-6"] >= 30
