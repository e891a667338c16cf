"""Runner behavior: determinism, file outputs, config replay, error paths."""

import csv
import io
import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoqueue import cli, lindley
from ergoqueue.processes import parse_process, rng_for


def run(tmp_path, name, args):
    base = tmp_path / name
    code = cli.main([*args, "--out", str(base)])
    assert code == 0
    with open(f"{base}.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(f"{base}.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    return rows, summary


def test_simulate_reruns_are_byte_identical(tmp_path):
    args = ["simulate", "--process", "odometer", "--s", "0.75", "--horizon", "1e6", "--seed", "7"]
    for name in ("a", "b"):
        assert cli.main([*args, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_prop1_exact_json_fields(tmp_path):
    _, summary = run(tmp_path, "p", ["prop1", "--i", "17", "--m", "100", "--seed", "0"])
    res = summary["results"]
    assert res["mu_A"] == "1/524288"
    assert res["target"] == "1/17179869184"
    assert res["pass"] is True
    assert summary["config"]["i"] == 17


def test_loynes_running_max_column_is_nondecreasing(tmp_path):
    rows, summary = run(
        tmp_path,
        "l",
        ["loynes", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--window", "1000"],
    )
    assert rows[0] == ["n", "partial_sum", "running_max"]
    col = [float(r[2]) for r in rows[1:]]
    assert len(col) == 1001
    assert all(a <= b for a, b in zip(col, col[1:]))
    assert summary["results"]["value"] == col[-1]


def test_config_round_trip_reproduces_outputs(tmp_path):
    args = [
        "cumulant",
        "--process",
        "iid-bernoulli:0.5",
        "--theta-grid",
        "0:1:0.25",
        "--n",
        "20",
        "--m",
        "200",
        "--s",
        "0.75",
        "--seed",
        "9",
    ]
    _, summary = run(tmp_path, "direct", args)
    cfg_file = tmp_path / "replay.json"
    cfg_file.write_text(json.dumps(summary["config"]), encoding="utf-8")
    code = cli.main(["--config", str(cfg_file), "--out", str(tmp_path / "replayed")])
    assert code == 0
    assert (tmp_path / "direct.csv").read_bytes() == (tmp_path / "replayed.csv").read_bytes()
    assert (tmp_path / "direct.json").read_bytes() == (tmp_path / "replayed.json").read_bytes()

    # the summary file itself replays too, without extracting the config
    code = cli.main(["--config", str(tmp_path / "direct.json"), "--out", str(tmp_path / "again")])
    assert code == 0
    assert (tmp_path / "direct.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()


def test_couple_rows_match_documented_seed_split(tmp_path):
    rows, _ = run(
        tmp_path,
        "c",
        [
            "couple",
            "--process",
            "iid-bernoulli:0.5",
            "--s",
            "0.75",
            "--x0",
            "2",
            "--horizon",
            "5000",
            "--replicas",
            "4",
            "--seed",
            "21",
        ],
    )
    # replica r draws from SeedSequence(seed, spawn_key=(r,)); row 2 must be
    # reproducible in isolation
    y = parse_process("iid-bernoulli:0.5").forward(5000, rng_for(21, 2))
    res = lindley.forward_couple(2.0, np.asarray(y) - 0.75)
    assert rows[3][0] == "2"
    assert rows[3][1] == str(res.coupling_time)


@pytest.mark.parametrize(
    "args",
    [
        ["tandem", "--process", "odometer", "--s1", "0.75", "--s2", "0.5", "--horizon", "-5"],
        ["couple", "--process", "odometer", "--s", "0.75", "--x0", "2", "--horizon", "-100"],
        ["couple", "--process", "binary-markov:0.3,0.5", "--s", "0.75", "--x0", "2",
         "--horizon", "-1"],
        ["couple", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--x0", "2",
         "--horizon", "100", "--replicas", "-2"],
        ["odometer", "--value", "1/2", "--steps", "-3"],
        ["loynes", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--window=-1e3"],
        ["cumulant", "--process", "iid-bernoulli:0.5", "--n", "8", "--m", "-4"],
    ],
)
def test_negative_counts_fail_fast(tmp_path, capsys, args):
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "must be nonnegative" in err["error"]
    assert not (tmp_path / "x.csv").exists()


def test_csv_floats_round_trip_to_json_values(tmp_path):
    rows, summary = run(
        tmp_path,
        "s",
        ["simulate", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--horizon", "20000"],
    )
    surv = summary["results"]["tail"]["survival"]
    got = [float(r[1]) for r in rows[1:]]
    assert got == surv  # 17 significant digits lose nothing


def test_tandem_output_conserves_work(tmp_path):
    _, summary = run(
        tmp_path,
        "t",
        [
            "tandem",
            "--process",
            "iid-bernoulli:0.5",
            "--s1",
            "0.75",
            "--s2",
            "0.5",
            "--horizon",
            "2000",
        ],
    )
    assert summary["results"]["conservation_exact"] is True


def test_odometer_measure_table(tmp_path):
    rows, summary = run(tmp_path, "m", ["odometer", "--mode", "measure", "--i-max", "3"])
    assert rows[1:] == [
        ["0", "1/4", "1/4"],
        ["1", "1/8", "3/8"],
        ["2", "1/16", "7/16"],
        ["3", "1/32", "59/128"],
    ]
    assert summary["results"]["union_measure"] == "59/128"


def test_env_var_sets_default_directory(tmp_path, monkeypatch):
    monkeypatch.setenv("ERGOQUEUE_OUT", str(tmp_path / "outs"))
    code = cli.main(["prop1", "--i", "5", "--m", "10", "--seed", "0"])
    assert code == 0
    assert (tmp_path / "outs" / "prop1.json").exists()


def test_input_files_never_mutated(tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("1\n0\n1\n1\n0\n" * 400, encoding="utf-8")
    before = trace.read_bytes()
    run(
        tmp_path,
        "tr",
        ["simulate", "--process", f"trace:{trace}", "--s", "0.75", "--horizon", "1000"],
    )
    assert trace.read_bytes() == before


def test_invalid_config_exits_nonzero_with_machine_readable_error(tmp_path, capsys):
    code = cli.main(
        ["simulate", "--process", "mystery:1", "--s", "0.75", "--horizon", "100", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "mystery" in err["error"]
    assert not (tmp_path / "x.csv").exists()


def test_precision_violation_surfaces(tmp_path, capsys):
    code = cli.main(
        ["prop1", "--i", "11", "--m", "10", "--precision", "16", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "precision" in err["error"].lower()


def test_memory_error_surfaces_as_json_error(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        raise MemoryError("Unable to allocate the trajectory")

    _, *rest = cli._SUBCOMMANDS["simulate"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "simulate", (exhausted, *rest))
    code = cli.main(
        ["simulate", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--horizon", "100",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("MemoryError")
    assert not (tmp_path / "x.csv").exists()


def test_unwritable_out_is_the_json_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    code = cli.main(
        ["--out", str(blocker / "sub" / "base"), "gg1", "--service", "iid-bernoulli:0.5",
         "--interarrival", "iid-bernoulli:0.5", "--n", "5"]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("NotADirectoryError") and str(blocker) in err["error"]


# outside the queue recursion, numpy reports the overflow, and the inf - inf
# after it, as RuntimeWarnings: the run goes on past them, as it does without
# -W error
_NUMPY_WARNS = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.mark.parametrize(
    "args, reason",
    [
        # the recursion checks its states once per block, warning-free
        pytest.param(
            ["gg1", "--service", "iid-table:1e308@1", "--interarrival", "iid-table:0@1",
             "--n", "5"],
            "the queue recursion overflows the float range",
            id="gg1",
        ),
        pytest.param(
            ["loynes", "--process", "iid-table:1e308@1", "--s", "0.5", "--window", "5"],
            "JSON compliant",
            id="loynes",
            marks=_NUMPY_WARNS,
        ),
        pytest.param(
            ["cumulant", "--process", "iid-bernoulli:0.5", "--theta-grid", "0,1e308",
             "--n", "10", "--m", "10", "--s", "0.75"],
            "JSON compliant",
            id="cumulant",
            marks=_NUMPY_WARNS,
        ),
        pytest.param(
            ["couple", "--process", "iid-table:1e308@1", "--s", "0.5", "--x0", "10",
             "--horizon", "50", "--replicas", "2"],
            "the queue recursion overflows the float range",
            id="couple",
        ),
        pytest.param(
            ["simulate", "--process", "iid-table:1e308@1", "--s", "0.5", "--horizon", "50",
             "--thresholds", "1"],
            "the queue recursion overflows the float range",
            id="simulate",
        ),
    ],
)
def test_non_finite_results_are_the_json_error(tmp_path, capsys, args, reason):
    # such a run fails before either file is written: in the recursion at the
    # first block that overflows, else when the summary meets JSON, which has
    # no Infinity or NaN
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and reason in json.loads(err)["error"]
    assert list(tmp_path.iterdir()) == []


def test_sums_overflowing_downward_leave_the_queue_empty(tmp_path):
    # the prefix sums reach -inf, but the waits stay 0 and are stepped exactly
    _, summary = run(
        tmp_path,
        "w",
        ["gg1", "--service", "iid-table:0@1", "--interarrival", "iid-table:1e308@1", "--n", "5"],
    )
    assert summary["results"]["max_wait"] == summary["results"]["final_wait"] == 0.0


def test_config_file_without_subcommand_rejected(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"i": 17}), encoding="utf-8")
    assert cli.main(["--config", str(cfg)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "subcommand" in err["error"]


def test_missing_subcommand_rejected(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "ergoqueue.cli", "--help"],
        capture_output=True,
        text=True,
        check=True,
    )
    for sub in (
        "simulate",
        "loynes",
        "couple",
        "gg1",
        "tandem",
        "odometer",
        "cumulant",
        "scaled-cumulant",
        "prop1",
        "prop2",
    ):
        assert sub in proc.stdout


def test_gg1_and_scaled_subcommands_run(tmp_path):
    rows, summary = run(
        tmp_path,
        "g",
        [
            "gg1",
            "--service",
            "iid-table:1@1",
            "--interarrival",
            "iid-table:0.5@1",
            "--n",
            "50",
        ],
    )
    assert summary["results"]["final_wait"] == 25.0
    rows, summary = run(
        tmp_path,
        "sc",
        [
            "scaled-cumulant",
            "--process",
            "iid-bernoulli:0.5",
            "--theta-grid",
            "0,0.5",
            "--n",
            "20",
            "--m",
            "100",
            "--s",
            "0.75",
        ],
    )
    assert float(rows[1][1]) == 0.0  # zero tilt


def test_odometer_precision_without_a_band_fails_fast(tmp_path, capsys):
    # band 0 reads two bits, so precision 1 holds no band
    argv = ["simulate", "--process", "odometer:1", "--s", "0.75", "--horizon", "1"]
    assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "precision 1 holds no band" in json.loads(err)["error"]
    assert list(tmp_path.iterdir()) == []


def test_odometer_precision_above_64_fails_fast(tmp_path, capsys):
    code = cli.main(
        ["simulate", "--process", "odometer:80", "--s", "0.75", "--horizon", "100",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert "precision" in err["error"]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--horizon", "1e400"), ("--horizon", "10.7"), ("--horizon", "nan"),
     ("--horizon", "ten"), ("--replicas", "2.5"), ("--seed", "0.5")],
)
def test_integer_flags_reject_non_integers(tmp_path, capsys, flag, value):
    args = ["couple", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--x0", "2",
            "--horizon", "100", "--replicas", "3"]
    args += [flag, value, "--out", str(tmp_path / "x")]
    assert cli.main(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert flag.lstrip("-") in err["error"]
    assert not (tmp_path / "x.csv").exists()


def test_integer_flags_accept_exact_and_exponent_spellings(tmp_path):
    seed = str((1 << 63) + 1)
    _, summary = run(tmp_path, "p", ["prop1", "--i", "1e1", "--m", "2.5e1", "--seed", seed])
    cfg = summary["config"]
    assert (cfg["i"], cfg["m"], cfg["seed"]) == (10, 25, (1 << 63) + 1)


@pytest.mark.parametrize("horizon", ["1e400", "10.7", "true", '"10.7"'])
def test_integer_config_keys_share_the_flag_rule(tmp_path, capsys, horizon):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        '{"subcommand": "simulate", "process": "iid-bernoulli:0.5", "s": 0.75, '
        f'"thresholds": [0, 1], "horizon": {horizon}, "seed": 1}}',
        encoding="utf-8",
    )
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "horizon" in err["error"]


def test_integer_config_keys_accept_integral_numbers(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        '{"subcommand": "simulate", "process": "iid-bernoulli:0.5", "s": 0.75, '
        '"thresholds": [0, 1], "horizon": 2e3, "seed": "9223372036854775809"}',
        encoding="utf-8",
    )
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    summary = json.loads((tmp_path / "x.json").read_text(encoding="utf-8"))
    assert summary["config"]["horizon"] == 2000
    assert summary["config"]["seed"] == 9223372036854775809


def test_unbounded_theta_grid_is_a_usage_error():
    # no finite point count, then 1e18 points, whose allocation fails at once
    for grid in ("0:1e300:1e-300", "0:1e9:1e-9"):
        proc = subprocess.run(
            [sys.executable, "-m", "ergoqueue.cli", "cumulant", "--process", "iid-bernoulli:0.5",
             "--n", "10", "--m", "10", "--theta-grid", grid],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert "--theta-grid" in proc.stderr


def test_theta_grid_points_are_start_plus_k_steps():
    for text in ("0:3:0.05", "0:3:0.25", "-1.5:2:0.1", "0.3:0.3:0.7", "1e-300:1e-299:3e-301"):
        start, stop, step = map(float, text.split(":"))
        grid = cli._theta_grid(text)
        assert grid == [start + k * step for k in range(len(grid))]
        assert all(type(v) is float for v in grid)


def test_couple_without_replicas_writes_header_only(tmp_path):
    rows, summary = run(
        tmp_path,
        "c",
        ["couple", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--x0", "2",
         "--horizon", "100", "--replicas", "0"],
    )
    assert rows == [["replica", "coupling_time", "final_upper", "final_lower"]]
    assert summary["results"]["coupled"] == 0


def test_couple_reads_a_short_trace_only_when_it_needs_input(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("1\n0\n1\n", encoding="utf-8")
    args = ["couple", "--process", f"trace:{trace}", "--s", "0.5", "--horizon", "10",
            "--replicas", "2"]
    # chains started equal meet at step 0 and read no block
    rows, _ = run(tmp_path, "c", [*args, "--x0", "0"])
    assert [row[1] for row in rows[1:]] == ["0", "0"]
    assert cli.main([*args, "--x0", "2", "--out", str(tmp_path / "x")]) == 2
    assert "trace exhausted" in json.loads(capsys.readouterr().err)["error"]


@pytest.mark.parametrize(
    "args",
    [
        ["cumulant", "--process", "iid-bernoulli:0.5", "--n", "10", "--m", "10",
         "--theta-grid", "0,inf"],
        ["cumulant", "--process", "iid-bernoulli:0.5", "--n", "10", "--m", "10",
         "--theta-grid", "1e308:1.7e308:1e308"],  # the second point overflows
        ["simulate", "--process", "odometer", "--s", "0.75", "--horizon", "10",
         "--thresholds", "nan"],
    ],
)
def test_non_finite_grid_entries_are_usage_errors(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ergoqueue.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert args[-2] in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["cumulant", "--process", "iid-bernoulli:0.5", "--n", "10", "--m", "10",
         "--theta-grid", "-1:1:0.5"],
        ["scaled-cumulant", "--process", "iid-bernoulli:0.5", "--n", "10", "--m", "10",
         "--s", "0.75", "--theta-grid", "-1,0,1"],
        ["loynes", "--process", "odometer", "--s", "0.75", "--window", "100",
         "--slack", "-1e-3"],
    ],
)
def test_negative_values_may_follow_their_option(tmp_path, args):
    # the token after an option is its value, as in the --key=value spelling
    joined = [*args[:-2], f"{args[-2]}={args[-1]}"]
    for name, argv in (("spaced", args), ("joined", joined)):
        assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
    for ext in ("csv", "json"):
        spaced, joined = (tmp_path / f"{name}.{ext}" for name in ("spaced", "joined"))
        assert spaced.read_bytes() == joined.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["cumulant", "--process", "iid-bernoulli:0.5", "--n", "10", "--m", "10",
         "--theta-g", "-1:1:0.5"],
        ["cumulant", "--process", "iid-bernoulli:0.5", "--n", "10", "--m", "10",
         "--theta-g=-1:1:0.5"],
        ["simulate", "--process", "odometer", "--s", "0.75", "--hor", "100"],
        ["--conf", "run.json"],
    ],
)
def test_abbreviated_options_are_usage_errors(tmp_path, capsys, args):
    # an option has one spelling, so the token after it is always its value
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_subcommand_help_lists_every_option(capsys, name):
    # argparse formats the help text only when asked for it
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for key, *_ in cli._SUBCOMMANDS[name][3]:
        assert re.search(rf"(?m)^ +--{key.replace('_', '-')} ", out), key


def test_negative_non_finite_value_is_the_json_error(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ergoqueue.cli", "loynes", "--process", "odometer", "--s", "0.75",
         "--window", "100", "--slack", "-inf", "--out", str(tmp_path / "x")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1
    assert "slack must be a real number" in json.loads(proc.stderr)["error"]


def test_odometer_measure_is_polynomial_in_i_max(tmp_path):
    run_measure = [sys.executable, "-m", "ergoqueue.cli", "odometer", "--mode", "measure",
                   "--out", str(tmp_path / "m"), "--i-max"]
    # the cap at precision 64; the interval-set union would have ~2**31 components
    proc = subprocess.run([*run_measure, "31"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["results"]
    assert results["components"] == 1116869116
    assert results["tail_bound"] == "1/8589934592"
    # beyond the cap: fails before any band is built
    proc = subprocess.run([*run_measure, "62"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "band 62" in json.loads(proc.stderr)["error"]


def test_odometer_measure_walks_the_automaton_once(tmp_path):
    # one walk for every band: a table per band would grow cubically in memory
    argv = [sys.executable, "-m", "ergoqueue.cli", "odometer", "--mode", "measure",
            "--i-max", "1000", "--precision", "2001", "--out", str(tmp_path / "m")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["results"]
    rows = list(csv.reader(io.StringIO((tmp_path / "m.csv").read_text(encoding="utf-8"))))
    assert len(rows) == 1002 and rows[-1][0] == "1000"
    assert rows[-1][2] == results["union_measure"]
    assert results["tail_bound"] == f"1/{1 << 1002}"


# -- the subcommand table drives the flags and the --config checks ----------

# the required options of each subcommand, small enough to run at once
MINIMAL = {
    "simulate": {"process": "iid-bernoulli:0.5", "s": 0.75, "horizon": 10},
    "loynes": {"process": "iid-bernoulli:0.5", "s": 0.75, "window": 10},
    "couple": {"process": "iid-bernoulli:0.5", "s": 0.75, "x0": 2.0, "horizon": 10},
    "gg1": {"service": "iid-table:1@1", "interarrival": "iid-table:0.5@1", "n": 10},
    "tandem": {"process": "odometer", "s1": 0.75, "s2": 0.5, "horizon": 10},
    "odometer": {"value": "1/2", "direction": "backward"},
    "cumulant": {"process": "iid-bernoulli:0.5", "n": 4, "m": 4},
    "scaled-cumulant": {"process": "iid-bernoulli:0.5", "n": 4, "m": 4, "s": 0.75},
    "prop1": {"i": 3, "m": 10},
    "prop2": {"i": 3, "theta": 1.0, "m": 10},
}


def _options(accept):
    return [
        pytest.param(name, key, default, id=f"{name}-{key}")
        for name, (_, _, _, options) in cli._SUBCOMMANDS.items()
        for key, kind, default, *_ in options
        if accept(kind)
    ]


def _flags_of(cfg):
    return [arg for key, value in cfg.items() for arg in ("--" + key.replace("_", "-"), str(value))]


def _flags(name, **override):
    return [name, *_flags_of({**MINIMAL[name], **override})]


def _config_rejects(tmp_path, capsys, text) -> str:
    """Run a --config file holding ``text``; return its one-line JSON error."""
    cfg = tmp_path / "c.json"
    cfg.write_text(text, encoding="utf-8")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "x.csv").exists()
    return json.loads(err)["error"]


def _bad_config(tmp_path, capsys, name, key, value) -> str:
    cfg = {"subcommand": name, **MINIMAL[name], "seed": 1, key: value}
    return _config_rejects(tmp_path, capsys, json.dumps(cfg))


def test_table_covers_every_subcommand():
    assert list(cli._SUBCOMMANDS) == list(MINIMAL)
    for _, _, _, options in cli._SUBCOMMANDS.values():
        assert options[-1][0] == "seed"  # last, as the config key order has it


@pytest.mark.parametrize("name", sorted(MINIMAL))
def test_minimal_runs_replay_through_config(tmp_path, name):
    assert cli.main([*_flags(name), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["--config", str(tmp_path / "a.json"), "--out", str(tmp_path / "b")]) == 0
    for ext in ("csv", "json"):
        assert (tmp_path / f"a.{ext}").read_bytes() == (tmp_path / f"b.{ext}").read_bytes()


def _bare(name):
    """Values of the options the table marks REQUIRED, from MINIMAL.

    The odometer has none, but orbit mode needs a start point: 1/64 is
    counter 32, whose default 16 forward steps stay on the orbit.
    """
    if name == "odometer":
        return {"value": "1/64"}
    options = cli._SUBCOMMANDS[name][3]
    return {key: MINIMAL[name][key] for key, _, default, *_ in options if default is cli.REQUIRED}


@pytest.mark.parametrize("name", sorted(MINIMAL))
def test_bare_config_runs_with_declared_defaults(tmp_path, name):
    given = {"subcommand": name, **_bare(name)}
    assert cli.main([name, *_flags_of(_bare(name)), "--out", str(tmp_path / "a")]) == 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(given), encoding="utf-8")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    # the summary echoes the config as given, defaults not filled in
    assert json.loads((tmp_path / "b.json").read_text())["config"] == given


@pytest.mark.parametrize("name", sorted(MINIMAL))
def test_bare_config_without_a_required_option_names_it(tmp_path, capsys, name):
    for key in _bare(name):
        cfg = {"subcommand": name, **_bare(name)}
        del cfg[key]
        want = "orbit mode needs value" if name == "odometer" else f"{name} needs option {key!r}"
        assert want in _config_rejects(tmp_path, capsys, json.dumps(cfg))


@pytest.mark.parametrize("name, key, default", _options(lambda k: k in (cli.INT, cli.COUNT)))
def test_integer_options_reject_fractions(tmp_path, capsys, name, key, default):
    assert cli.main([*_flags(name, **{key: "10.7"}), "--out", str(tmp_path / "x")]) == 2
    assert key in json.loads(capsys.readouterr().err)["error"]
    assert key in _bad_config(tmp_path, capsys, name, key, 10.7)


@pytest.mark.parametrize("name, key, default", _options(lambda k: k == cli.COUNT))
def test_count_options_reject_negatives(tmp_path, capsys, name, key, default):
    assert cli.main([*_flags(name, **{key: "-1"}), "--out", str(tmp_path / "x")]) == 2
    assert "must be nonnegative" in json.loads(capsys.readouterr().err)["error"]
    assert "must be nonnegative" in _bad_config(tmp_path, capsys, name, key, -1)


@pytest.mark.parametrize("name, key, default", _options(lambda k: k is float))
def test_real_config_keys_reject_non_numbers(tmp_path, capsys, name, key, default):
    for value in ["x", True] + ([] if default is None else [None]):
        assert f"{key} must be a real number" in _bad_config(tmp_path, capsys, name, key, value)
    for value in ["nan", "inf", "-inf"]:  # from a flag and from a config file alike
        flag = f"--{key.replace('_', '-')}={value}"  # the last flag wins; -inf is no option
        assert cli.main([*_flags(name), flag, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{key} must be a real number" in json.loads(err)["error"]
        assert not (tmp_path / "x.csv").exists()
        bad = _bad_config(tmp_path, capsys, name, key, float(value))
        assert f"{key} must be a real number" in bad


@pytest.mark.parametrize("name, key, default", _options(lambda k: isinstance(k, tuple)))
def test_choices_reject_unknown_values(tmp_path, capsys, name, key, default):
    with pytest.raises(SystemExit) as exc:
        cli.main([*_flags(name, **{key: "zzz"}), "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert f"{key} must be one of" in _bad_config(tmp_path, capsys, name, key, "zzz")


TANDEM = '"subcommand": "tandem", "process": "odometer", "s2": 0.5, "horizon": 10, "seed": 1'
ODOMETER = '"subcommand": "odometer", "seed": 1'


@pytest.mark.parametrize(
    "text",
    [
        '{"subcommand": "tandem", "process": 5, "s1": 0.75, "s2": 0.5, "horizon": 10, "seed": 1}',
        f'{{{TANDEM}, "s1": null}}',
        f'{{{TANDEM}, "s1": "0.75"}}',
        f'{{{TANDEM}, "s1": true}}',
        '{"subcommand": ["tandem"]}',
        '{"subcommand": "zzz"}',
        f'{{{ODOMETER}, "value": 1e400}}',
        f'{{{ODOMETER}, "value": "1/0"}}',
        f'{{{ODOMETER}, "value": "1/2", "mode": "zzz"}}',
        f'{{{ODOMETER}, "value": "1/2", "direction": "up"}}',
        '{"subcommand": "cumulant", "process": "odometer", "n": 4, "m": 4, "seed": 1, '
        '"theta_grid": 1}',
        '{"subcommand": "cumulant", "process": "odometer", "n": 4, "m": 4, "seed": 1, '
        '"theta_grid": [0, NaN]}',
        '{"subcommand": "cumulant", "process": "odometer", "n": 4, "m": 4, "seed": 1, '
        '"theta_grid": "0:1e9:1e-9"}',
        '{"subcommand": "prop2", "i": 3, "m": 10, "seed": 1, "theta": "1"}',
        '[{"subcommand": "prop1", "i": 3, "m": 10}]',
        '"prop1"',
        pytest.param("[" * 100_000 + "]" * 100_000, id="nested-too-deep"),
    ],
)
def test_badly_typed_configs_fail_fast(tmp_path, capsys, text):
    _config_rejects(tmp_path, capsys, text)


@pytest.mark.parametrize("name", sorted(MINIMAL))
def test_config_rejects_undeclared_keys(tmp_path, capsys, name):
    assert "'horizn'" in _bad_config(tmp_path, capsys, name, "horizn", 5)
    # an option of another subcommand is undeclared here too
    other = "theta_grid" if name not in ("cumulant", "scaled-cumulant") else "horizon"
    assert repr(other) in _bad_config(tmp_path, capsys, name, other, [0.0])
    # a summary's embedded config is checked the same way
    cfg = {"subcommand": name, **MINIMAL[name], "seed": 1, "horizn": 5}
    assert "'horizn'" in _config_rejects(tmp_path, capsys, json.dumps({"config": cfg}))


def test_trace_block_sums_are_disjoint_stretches(tmp_path, capsys):
    trace = tmp_path / "t.txt"
    trace.write_text("".join(f"{k}\n" for k in range(1, 51)), encoding="utf-8")
    args = ["cumulant", "--process", f"trace:{trace}", "--theta-grid", "0,1", "--n", "5"]
    _, summary = run(tmp_path, "c", [*args, "--m", "4"])
    # blocks 1..5, 6..10, 11..15, 16..20: sums 15, 40, 65, 90
    assert [summary["results"][k] for k in ("mean_rate", "min_rate", "max_rate")] == [
        10.5, 3.0, 18.0]
    assert cli.main([*args, "--m", "11", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == (
        "TraceError: trace too short: 11 windows of 5 need 55 values, 50 recorded")


def test_odometer_block_sums_beyond_orbit_fail_fast(tmp_path, capsys):
    argv = ["cumulant", "--process", "odometer:8", "--n", "300", "--m", "4",
            "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "ProcessError: orbit too short: 300 counters needed, 2**8 exist at K=8"


def test_odometer_value_that_is_no_fraction_fails_fast(tmp_path, capsys):
    assert cli.main(["odometer", "--value", "1/0", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"].startswith("ValueError: value")
    assert not (tmp_path / "x.csv").exists()


def test_null_is_accepted_where_the_default_is_none(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        '{"subcommand": "cumulant", "process": "iid-bernoulli:0.5", "n": 4, "m": 4, '
        '"theta_grid": [0, 0.5], "s": null, "seed": 1}',
        encoding="utf-8",
    )
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
    summary = json.loads((tmp_path / "x.json").read_text(encoding="utf-8"))
    assert summary["config"]["s"] is None


# -- the columnar CSV writer against a per-row oracle ------------------------


def _per_row_csv(header, columns) -> str:
    """The writer's specification: format each cell of each row with _fmt."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow([cli._fmt(v) for v in row])
    return buf.getvalue()


# every pool holds its dtype's edge values, so long columns mix them all
_SPECIAL_FLOATS = [
    -0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308,
    np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), np.nextafter(0.1, 1.0), 0.1, 0.75, 1e300,
]
_FLOAT_POOLS = st.lists(st.floats(), max_size=8).map(
    lambda extra: np.array(_SPECIAL_FLOATS + extra, dtype=np.float64)
)
_INT_POOLS = st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8).map(
    lambda extra: np.array([-(2**63), 2**63 - 1, -1, 0, 1] + extra, dtype=np.int64)
)
_UINT_POOLS = st.lists(st.integers(0, 2**64 - 1), max_size=8).map(
    lambda extra: np.array([0, 2**63, 2**64 - 1] + extra, dtype=np.uint64)
)
_OBJECT_POOLS = st.lists(
    st.fractions(max_denominator=10**6)
    | st.booleans()
    | st.none()
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
    | st.sampled_from([Fraction(1, 3), "7f", "a,b", 'q"t', "", True, None]),
    min_size=1,
    max_size=12,
)
# other dtypes go cell by cell through _fmt, as numpy scalars
_OTHER_POOLS = st.sampled_from(
    [np.array([True, False]), np.array([0.1, -0.0, np.nan], dtype=np.float32)]
)
# numeric arrays only: every block takes the writer's joined path
_NUMERIC_POOLS = _FLOAT_POOLS | _INT_POOLS | _UINT_POOLS | _OTHER_POOLS
_POOLS = _NUMERIC_POOLS | _OBJECT_POOLS
_LENGTHS = [0, 1, cli.WRITE_BLOCK - 1, cli.WRITE_BLOCK, cli.WRITE_BLOCK + 1]


@pytest.mark.parametrize("length", _LENGTHS)
@settings(max_examples=15, deadline=None)
@given(pools=st.lists(_POOLS, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_writer_matches_per_row_oracle(tmp_path_factory, length, pools, seed):
    _check_writer(tmp_path_factory, length, pools, seed)


@pytest.mark.parametrize("length", _LENGTHS)
@settings(max_examples=15, deadline=None)
@given(pools=st.lists(_NUMERIC_POOLS, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_numeric_writer_matches_per_row_oracle(tmp_path_factory, length, pools, seed):
    _check_writer(tmp_path_factory, length, pools, seed)


def _check_writer(tmp_path_factory, length, pools, seed):
    rng = np.random.default_rng(seed)
    columns = []
    for pool in pools:
        picks = rng.integers(len(pool), size=length)
        # fancy indexing copies the bits, so -0.0 and nan signs survive
        columns.append(pool[picks] if isinstance(pool, np.ndarray) else [pool[i] for i in picks])
    header = [f"c{j}" for j in range(len(columns))]
    base = tmp_path_factory.mktemp("writer") / "out"
    cli._write_outputs(base, header, columns, {})
    got = base.with_suffix(".csv").read_bytes()
    assert got == _per_row_csv(header, columns).encode("utf-8")


def test_bool_cells_do_not_depend_on_their_container(tmp_path):
    cli._write_outputs(tmp_path / "a", ["b"], [np.array([True, False])], {})
    cli._write_outputs(tmp_path / "l", ["b"], [[True, False]], {})
    text = (tmp_path / "a.csv").read_text(encoding="utf-8")
    assert text == (tmp_path / "l.csv").read_text(encoding="utf-8") == "b\ntrue\nfalse\n"


def test_writer_quotes_text_beside_numbers(tmp_path):
    # one column needs the csv module's quoting, so no block is joined directly;
    # a numpy text array is not numeric either
    numbers = np.array([0.5, -0.0, np.nan])
    columns = [numbers, ["a,b", 'q"t', ""], np.array(["x\ny", "p", "r,s"])]
    cli._write_outputs(tmp_path / "m", ["f", "o", "u"], columns, {})
    got = (tmp_path / "m.csv").read_text(encoding="utf-8")
    assert got == 'f,o,u\n0.5,"a,b","x\ny"\n-0,"q""t",p\nnan,,"r,s"\n'
    assert got == _per_row_csv(["f", "o", "u"], columns)
