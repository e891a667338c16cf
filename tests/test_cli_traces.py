"""The CLI on recorded traces against a plain-Python reference, byte for byte.

With ``trace:PATH`` input the ``simulate``, ``loynes``, ``couple``, ``gg1``
and ``tandem`` subcommands draw nothing at random, so their files are fixed
by the trace and the options.  ``oracles.cli_simulate`` and its siblings
build the same files one step at a time: the step
``x += z; if x < 0.0: x = 0.0``, cells through ``csv.writer`` and the
summary's totals and means from exact sums.  The traces mix values on the quarter grid, where the package
closes blocks in closed form, with values off it, near 1e300, subnormal, and
-0.0, where it steps.  The CSV must match byte for byte and each summary
result must be the same JSON value.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from ergoqueue import cli

import oracles

VALUES = st.one_of(
    st.integers(0, 12).map(lambda k: k / 4),  # the quarter grid
    st.sampled_from([0.3, 1.7, 0.1, 2.9]),  # off it
    st.floats(1e299, 4e300),  # near 1e300: the small values round away beside them
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308]),  # subnormal and the least normal
    st.just(-0.0),
)
RATES = VALUES.filter(lambda v: v > 0)
TRACES = st.lists(VALUES, max_size=80)
EXAMPLES = settings(max_examples=100, deadline=None)


def _matches(work, argv, expected):
    """Run the subcommand into ``work`` and compare its files with the reference's."""
    csv_bytes, results = expected
    base = work / "run"
    assert cli.main([*argv, "--out", str(base)]) == 0
    assert base.with_suffix(".csv").read_bytes() == csv_bytes
    got = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))["results"]
    assert json.dumps(got) == json.dumps(results)


def _trace(work, values, name="trace.txt"):
    path = work / name
    path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
    return f"trace:{path}"


# thresholds on the quarter grid and off it, where the fitted decay is well conditioned
THRESHOLDS = st.lists(st.integers(-2, 12).map(lambda k: k / 4) | st.sampled_from([0.3, 1.7, 2.9]),
                      min_size=1, max_size=6)


@given(data=st.data(), trace=st.lists(VALUES, min_size=1, max_size=80), s=RATES,
       thresholds=THRESHOLDS)
@EXAMPLES
def test_simulate_on_a_trace_matches_the_reference(tmp_path_factory, data, trace, s, thresholds):
    work = tmp_path_factory.mktemp("simulate")
    horizon = data.draw(st.integers(1, len(trace)))
    burn_in = data.draw(st.none() | st.integers(0, horizon - 1))
    argv = ["simulate", "--process", _trace(work, trace), "--s", repr(s), "--horizon", str(horizon),
            "--thresholds", ",".join(map(repr, thresholds))]
    if burn_in is not None:
        argv += ["--burn-in", str(burn_in)]
    _matches(work, argv, oracles.cli_simulate(trace, s, thresholds, horizon, burn_in))


@given(data=st.data(), trace=TRACES, s=RATES, slack=st.sampled_from([0.0, 0.5, 1e300]))
@EXAMPLES
def test_loynes_on_a_trace_matches_the_reference(tmp_path_factory, data, trace, s, slack):
    work = tmp_path_factory.mktemp("loynes")
    window = data.draw(st.integers(0, len(trace)))
    argv = ["loynes", "--process", _trace(work, trace), "--s", repr(s), "--window", str(window),
            "--slack", repr(slack)]
    _matches(work, argv, oracles.cli_loynes(trace, s, window, slack))


@given(data=st.data(), trace=TRACES, s=RATES, x0=VALUES, replicas=st.integers(0, 3))
@EXAMPLES
def test_couple_on_a_trace_matches_the_reference(tmp_path_factory, data, trace, s, x0, replicas):
    work = tmp_path_factory.mktemp("couple")
    horizon = data.draw(st.integers(0, len(trace)))
    argv = ["couple", "--process", _trace(work, trace), "--s", repr(s), "--x0", repr(x0),
            "--horizon", str(horizon), "--replicas", str(replicas)]
    _matches(work, argv, oracles.cli_couple(trace, s, x0, horizon, replicas))


@given(data=st.data(), services=TRACES, gaps=TRACES)
@EXAMPLES
def test_gg1_on_traces_matches_the_reference(tmp_path_factory, data, services, gaps):
    work = tmp_path_factory.mktemp("gg1")
    n = data.draw(st.integers(0, min(len(services), len(gaps))))
    argv = ["gg1", "--service", _trace(work, services, "services.txt"),
            "--interarrival", _trace(work, gaps, "gaps.txt"), "--n", str(n)]
    _matches(work, argv, oracles.cli_gg1(services, gaps, n))


@given(data=st.data(), trace=TRACES, s1=RATES, s2=RATES)
@EXAMPLES
def test_tandem_on_a_trace_matches_the_reference(tmp_path_factory, data, trace, s1, s2):
    work = tmp_path_factory.mktemp("tandem")
    horizon = data.draw(st.integers(0, len(trace)))
    argv = ["tandem", "--process", _trace(work, trace), "--s1", repr(s1), "--s2", repr(s2),
            "--horizon", str(horizon)]
    _matches(work, argv, oracles.cli_tandem(trace, s1, s2, horizon))
