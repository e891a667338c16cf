"""Hostile option values for every subcommand: each run succeeds or fails cleanly.

Every option that ``cli._SUBCOMMANDS`` declares is given a value drawn from
a pool for its kind: plausible ones, and hostile ones (NaN, infinities,
1e308, -0.0, -1, 2**70, text that is no number, the empty string, malformed
process specs and grids).  Sizes, precisions and band indices come from
small sets, so no example allocates more than a few MiB.  Some command lines
are also malformed: a flag abbreviated, a flag given twice, a flag left
without its value at the end, or a subcommand misspelt; each of those must
fail.  ``--out`` stands before the subcommand or after its options.  A run
must return 0, or fail with exit status 2, exactly one JSON line with an
``error`` key on stderr and no output file left behind.  A run that returns
0 must replay byte for byte through ``--config BASE.json``.  Warnings stay
errors, as everywhere in the suite.
"""

import contextlib
import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergoqueue import cli

# offered to every option; sizes, precisions and band indices see no others
HOSTILE = ["nan", "inf", "-inf", "-0.0", "-1", "abc", "", "2.5"]
HUGE = ["1e308", str(2**70)]

SIZES = ["0", "1", "2", "7", "64"]
BOUNDED = {
    "precision": ["1", "2", "3", "64", "65", "130"],
    "i": ["0", "1", "3", "11", "31", "40"],
    "i_max": ["0", "1", "3", "11", "31", "40"],
    "seed": ["0", "5", *HUGE],
}
PROCESSES = [
    "iid-bernoulli:0.5", "iid-table:0,0.3,1.7@0.5,0.3,0.2", "binary-markov:0.3,0.5",
    "odometer", "odometer:2", "odometer:4", "odometer:64,3", "odometer:130", "trace:{trace}",
]
BAD_PROCESSES = [
    "", "abc", "mystery:1", "iid-bernoulli:nan", "iid-bernoulli:2", "iid-bernoulli:",
    "iid-table:1@", "iid-table:nan@1", "iid-table:1e308@1", "iid-table:-1@1",
    "binary-markov:0.3", "binary-markov:inf,0.5", "odometer:1", "odometer:64,99",
    "odometer:4,1,2", "odometer:x", "trace:", "trace:{missing}", "trace:{bad}",
]
GRIDS = ["0:3:0.25", "0,0.5,1", "-1:1:0.5", "0:2:0.5"]
# malformed, non-finite, unbounded, or too large to allocate
BAD_GRIDS = ["0:1:0", "1:0:0.5", "0:1e300:1e-300", "0:1e9:1e-9", "0,inf", "0:1:inf", "0,nan",
             "0:1", ","]
THRESHOLDS = ["0,1,2", "0.5", "1,1", "0,0.5,1e308"]
POINTS = ["1/2", "11/16", "0x2ffe", "0.25"]


def _pools(key, kind):
    """(usual, hostile) values of one option."""
    if key in BOUNDED:
        return BOUNDED[key], HOSTILE
    if kind == cli.COUNT:
        return SIZES, HOSTILE
    if kind is str:
        return PROCESSES, BAD_PROCESSES
    if isinstance(kind, tuple):
        return list(kind), ["abc", ""]
    usual = {float: ["0.75", "0.5", "2", "1e-300"], cli.TEXT_OR_REAL: POINTS,
             cli._theta_grid: GRIDS, cli._thresholds: THRESHOLDS}[kind]
    odd = {cli.TEXT_OR_REAL: ["1/3", "0x", "1/0"], cli._theta_grid: BAD_GRIDS,
           cli._thresholds: ["0,inf", "1,nan", ","]}.get(kind, [])
    return usual, [*odd, *HUGE, *HOSTILE]


# ways to break a command line, each a refusal
MALFORMED = ["abbreviated", "repeated", "trailing", "unknown subcommand"]
OUT = ["--out", "{out}"]


@st.composite
def runs(draw):
    """(argv, how it is malformed or None): a subcommand, its flags and ``--out {out}``.

    At most two options are hostile or left out, the rest usual.  An option
    with a default is given half the time; a required one always, unless it
    is one of the hostile two.
    """
    name = draw(st.sampled_from(sorted(cli._SUBCOMMANDS)))
    options = cli._SUBCOMMANDS[name][3]
    hostile = draw(st.sets(st.sampled_from([key for key, *_ in options]), max_size=2))
    argv = [name]
    for key, kind, default, *_ in options:
        usual, odd = _pools(key, kind)
        if key in hostile:
            value = draw(st.none() | st.sampled_from(odd))
        elif default is cli.REQUIRED or draw(st.booleans()):
            value = draw(st.sampled_from(usual))
        else:
            value = None
        if value is not None:
            argv += ["--" + key.replace("_", "-"), value]
    malformed = draw(st.none() | st.sampled_from(MALFORMED))
    if malformed in ("abbreviated", "repeated") and len(argv) == 1:
        malformed = None  # no flag to break
    if malformed == "abbreviated":
        argv[-2] = argv[-2][:-1]  # one character short, no flag names another option
    elif malformed == "repeated":
        argv += argv[-2:]
    elif malformed == "unknown subcommand":
        argv[0] = name[:-1]
    argv = [*OUT, *argv] if draw(st.booleans()) else [*argv, *OUT]
    if malformed == "trailing":
        argv.append(draw(st.sampled_from(list(cli.build_parser()[name]))))
    return argv, malformed


def _main(argv):
    """(exit status, stderr) of one in-process run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@given(run=runs())
# each of these once ended in a numpy warning, a traceback under -W error
@example(run=(["cumulant", "--process", "odometer:4", "--n", "8", "--m", "3", "--s", "1e308",
               *OUT], None))
@example(run=(["cumulant", "--process", "iid-bernoulli:0.5", "--n", "2", "--m", "2",
               "--theta-grid", "0:1:inf", *OUT], None))
@example(run=(["cumulant", "--process", "iid-table:1e308@1", "--n", "1", "--m", "2", *OUT], None))
@settings(max_examples=300, deadline=None)
def test_hostile_options_run_or_fail_cleanly(tmp_path_factory, run):
    argv, malformed = run
    work = tmp_path_factory.mktemp("fuzz")
    (work / "trace.txt").write_text("1\n0.5\n0\n2\n" * 20, encoding="utf-8")
    (work / "bad.txt").write_text("1\npotato\n", encoding="utf-8")
    files = {"trace": work / "trace.txt", "missing": work / "missing.txt", "bad": work / "bad.txt",
             "out": work / "out"}
    argv = [arg.format(**files) for arg in argv]  # no other pooled value holds a brace
    code, err = _main(argv)
    written = {p.name for p in work.iterdir()} - {"trace.txt", "bad.txt"}
    if code == 0:
        assert malformed is None, malformed
        assert written == {"out.csv", "out.json"}
        assert _main(["--config", str(work / "out.json"), "--out", str(work / "replay")])[0] == 0
        for ext in ("csv", "json"):
            assert (work / f"out.{ext}").read_bytes() == (work / f"replay.{ext}").read_bytes()
        return
    assert written == set(), written
    assert code == 2, (code, err)
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert set(json.loads(err)) == {"error"}
