"""Runner behavior: determinism, file outputs, config replay, error paths."""

import csv
import io
import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from ergoqueue import cli, estimators, lindley
from ergoqueue import odometer as od
from ergoqueue.processes import parse_process, rng_for

import oracles


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


def test_cumulant_with_a_huge_service_rate_runs(tmp_path):
    # every tilt's service line t * s overflows to inf, so the whole grid lies below it
    args = ["cumulant", "--process", "odometer:4", "--n", "8", "--m", "3", "--s", "1e308"]
    _, summary = run(tmp_path, "c", args)
    assert summary["results"]["delta"] == {"delta": 3.0, "status": "at-grid-max"}


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
    res = lindley.forward_couple(2.0, [np.asarray(y) - 0.75])
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


@pytest.mark.parametrize(
    "process, s1, s2, exact",
    [
        # off the dyadic grid the rounded totals agreed, yet the exact sums do not
        ("iid-table:0,0.3,1.7@0.5,0.3,0.2", "0.8", "0.7", False),
        ("odometer", "0.75", "0.5", True),
    ],
)
def test_tandem_conservation_is_decided_on_the_exact_sums(tmp_path, process, s1, s2, exact):
    args = ["tandem", "--process", process, "--s1", s1, "--s2", s2, "--horizon", "1000"]
    rows, summary = run(tmp_path, "t", [*args, "--seed", "0"])
    assert summary["results"]["conservation_exact"] is exact
    # the CSV's 17 digits read back exactly: the oracle sums them as Fractions
    header = rows[0]
    column = [[Fraction(float(cell)) for cell in col] for col in zip(*rows[1:])]
    inflow, outflow = (sum(column[header.index(name)]) for name in ("arrival", "output1"))
    assert (inflow - outflow == column[header.index("queue1")][-1]) is exact


@pytest.mark.parametrize("precision", [2, 16, 64, 130])
@pytest.mark.parametrize("direction", ["forward", "backward"])
@pytest.mark.parametrize("with_i_max", [False, True])
def test_odometer_orbit_rows_match_per_point_queries(tmp_path, precision, direction, with_i_max):
    # the run is read as one window; each row must equal its point's own
    # queries, on a run that crosses a RUN_ALIGN boundary where the orbit has one
    top = (1 << precision) - 1
    edge = (3 << (precision - 2)) & -od.RUN_ALIGN
    if direction == "forward":
        start = min(edge + 20, top)
        steps = min(40, start)
    else:
        start = max(edge - 20, 0)
        steps = min(40, top - start)
    i_max = od.band_limit(precision) // 2 if with_i_max else None
    args = ["odometer", "--value", hex(start), "--precision", str(precision),
            "--steps", str(steps), "--direction", direction]
    rows, _ = run(tmp_path, "o", args + (["--i-max", str(i_max)] if with_i_max else []))
    assert rows[0] == ["k", "counter_hex", "value", "arrival"] and len(rows) == steps + 2
    sign = 1 if direction == "forward" else -1
    for k, row in enumerate(rows[1:]):
        pt = od.DyadicPoint(start - sign * k, precision)
        arrival = "true" if od.in_arrival_set(pt, i_max) else "false"
        want = (k, format(pt.counter, "x"), float(pt.value), arrival)
        assert (int(row[0]), row[1], float(row[2]), row[3]) == want


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


def test_orbit_too_long_to_hold_fails_before_building_it(tmp_path, capsys):
    # 1e18 steps is a valid orbit at precision 64; the arrival column's one
    # allocation (888 PiB, past any address space) refuses it before any list grows
    argv = ["odometer", "--value", "1/2", "--direction", "backward", "--steps", "1e18"]
    assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"].startswith("MemoryError: Unable to allocate")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "process, horizon, thresholds",
    [("odometer", "1e5", "1,1"), ("iid-bernoulli:0.5", "1000", "0,0")],
)
def test_repeated_threshold_is_no_fit(tmp_path, capsys, process, horizon, thresholds):
    # one distinct threshold with nonzero survival: no slope, and no numpy warning
    _, summary = run(
        tmp_path, "x",
        ["simulate", "--process", process, "--s", "0.75", "--horizon", horizon,
         "--thresholds", thresholds],
    )
    assert summary["results"]["fitted_decay"] is None
    assert summary["results"]["tail"]["survival"][0] > 0.0
    assert capsys.readouterr().err == ""


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
        # the partial sums and the tilts check their last or largest value
        pytest.param(
            ["loynes", "--process", "iid-table:1e308@1", "--s", "0.5", "--window", "5"],
            "the partial sums overflow the float range",
            id="loynes",
        ),
        pytest.param(
            ["loynes", "--process", "iid-table:0@1", "--s", "1e308", "--window", "5"],
            "the partial sums overflow the float range",
            id="loynes-downward",
        ),
        pytest.param(
            ["cumulant", "--process", "iid-bernoulli:0.5", "--theta-grid", "0,1e308",
             "--n", "10", "--m", "10", "--s", "0.75"],
            "the tilted sums overflow the float range",
            id="cumulant",
        ),
        pytest.param(
            ["scaled-cumulant", "--process", "iid-bernoulli:0.5", "--theta-grid", "0,1e308",
             "--n", "10", "--m", "10", "--s", "0.25"],
            "the tilted sums overflow the float range",
            id="scaled-cumulant",
        ),
        # the window sums of a sampled process check every total
        pytest.param(
            ["cumulant", "--process", "iid-table:1e308@1", "--n", "10", "--m", "10"],
            "the window sums overflow the float range",
            id="cumulant-window-sums",
        ),
        pytest.param(
            ["scaled-cumulant", "--process", "iid-table:1e308@1", "--n", "10", "--m", "10",
             "--s", "0.5"],
            "the window sums overflow the float range",
            id="scaled-cumulant-window-sums",
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
    # such a run fails, warning-free, before either file is written: where the
    # sums that overflow are formed
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and reason in json.loads(err)["error"]
    assert list(tmp_path.iterdir()) == []


def test_non_finite_summary_is_the_json_error(tmp_path, capsys, monkeypatch):
    # JSON has no Infinity or NaN, so the summary fails before either file is written
    def infinite(cfg):
        return ["x"], [[[1.0]]], {"value": math.inf}

    _, *rest = cli._SUBCOMMANDS["simulate"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "simulate", (infinite, *rest))
    argv = ["simulate", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--horizon", "1"]
    assert cli.main([*argv, "--out", str(tmp_path / "x")]) == 2
    assert "JSON compliant" in json.loads(capsys.readouterr().err)["error"]
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


def test_readme_command_block_runs_every_subcommand():
    # the lines the README check runs: the "Command line" section up to the
    # end of its first code block, those that start with the command
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Command line\n"):]
    block = section[: section.index("\n```\n")]
    run = [line.split() for line in block.splitlines()
           if re.match(r"(python -m )?ergoqueue ", line)]
    named = {words[words.index("ergoqueue") + 1] for words in run}
    assert set(cli._SUBCOMMANDS) <= named, set(cli._SUBCOMMANDS) - named


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
    # a run reads one counter of any width; only window counting is uint64
    code = cli.main(
        ["simulate", "--process", "odometer:80", "--s", "0.75", "--horizon", "100",
         "--out", str(tmp_path / "x")]
    )
    assert code == 0
    assert (tmp_path / "x.csv").exists()
    capsys.readouterr()
    code = cli.main(
        ["cumulant", "--process", "odometer:80", "--theta-grid", "0,1", "--n", "8", "--m", "4",
         "--out", str(tmp_path / "y")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "PrecisionError: window counting supports precision <= 64"
    assert not (tmp_path / "y.csv").exists()


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


def test_unbounded_theta_grid_is_the_json_error():
    # no finite point count, then 1e18 points, whose allocation fails at once
    for grid in ("0:1e300:1e-300", "0:1e9:1e-9"):
        proc = subprocess.run(
            [sys.executable, "-m", "ergoqueue.cli", "cumulant", "--process", "iid-bernoulli:0.5",
             "--n", "10", "--m", "10", "--theta-grid", grid],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert json.loads(proc.stderr)["error"].startswith("ValueError: --theta-grid: grid ")


def test_theta_grid_points_are_start_plus_k_steps():
    for text in ("0:3:0.05", "0:3:0.25", "-1.5:2:0.1", "0.3:0.3:0.7", "1e-300:1e-299:3e-301"):
        start, stop, step = map(float, text.split(":"))
        grid = cli._theta_grid(text)
        assert grid == [start + k * step for k in range(len(grid))]
        assert all(type(v) is float for v in grid)


def test_theta_grid_stops_at_stop():
    assert cli._theta_grid("0:1:0.6") == [0.0, 0.6]
    assert cli._theta_grid("0:1:0.4") == [0.0, 0.4, 0.8]
    # an integral ratio keeps its last point, however the division rounds:
    # 0.3 / 0.1 is 2.9999999999999996
    grid = cli._theta_grid("0:3:0.05")
    assert len(grid) == 61 and grid[-1] == 3.0
    assert cli._theta_grid("0:0.9:0.3")[-1] == 0.8999999999999999
    assert len(cli._theta_grid("0:0.3:0.1")) == 4


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
         "--theta-grid", "0:1:inf"],  # the one point is 0 + 0 * inf, NaN
        ["simulate", "--process", "odometer", "--s", "0.75", "--horizon", "10",
         "--thresholds", "nan"],
    ],
)
def test_non_finite_grid_entries_are_the_json_error(args):
    proc = subprocess.run(
        [sys.executable, "-m", "ergoqueue.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    error = json.loads(proc.stderr)["error"]
    flag, text = args[-2:]
    if ":" in text:  # text that is no grid: the error names the flag
        assert error.startswith(f"ValueError: {flag}: ") and "finite" in error
    else:  # a non-finite entry: the error a config file's list gets
        key, values = flag[2:].replace("-", "_"), [float(x) for x in text.split(",")]
        want = f"{key} must be a nonempty list of finite real numbers, got {values!r}"
        assert error == f"ValueError: {want}"


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
    # an option has one spelling, so the token after it is always its value;
    # a prefix is the JSON error naming it
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    flag = next(arg for arg in reversed(args) if arg.startswith("--"))
    assert f"has no option {flag.partition('=')[0]!r}" in json.loads(err)["error"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", list(cli._SUBCOMMANDS))
def test_subcommand_help_lists_every_option(capsys, name):
    assert cli.main([name, "--help"]) == 0
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


@pytest.mark.parametrize("i_max, refused", [(7141, False), (7142, True), (7200, True)])
def test_odometer_measure_refuses_an_i_max_it_cannot_write_before_the_walk(
    tmp_path, capsys, monkeypatch, i_max, refused
):
    # Python's default limit: 2**14285, the denominator bound of band 7142,
    # has 4301 digits, and the walk to band 7200 takes about 10 s
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)

    def walk(i_max):
        raise ValueError("the walk started")

    monkeypatch.setattr(od, "arrival_set_measures", walk)
    argv = ["odometer", "--mode", "measure", "--i-max", str(i_max),
            "--precision", str(2 * i_max + 1), "--out", str(tmp_path / "m")]
    start = time.perf_counter()
    assert cli.main(argv) == 2
    assert time.perf_counter() - start < 0.2
    error = json.loads(capsys.readouterr().err)["error"]
    if refused:
        limit = f"2**{2 * i_max + 1} passes the 4300-digit int text limit"
        assert error == f"ValueError: i_max {i_max}: {limit}"
    else:
        assert error == "ValueError: the walk started"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["cumulant", "--process", "odometer", "--n", str(1 << 64), "--m", "1",
         "--theta-grid", "0,1"],
        ["cumulant", "--process", "odometer:20", "--n", str(1 << 20), "--m", "1"],
        ["loynes", "--process", "odometer:20", "--s", "0.5", "--window", str(1 << 20)],
    ],
)
def test_windows_that_fill_the_orbit_run_at_once(tmp_path, args):
    # counter 0 is the only start whose window fits: a K-bit try lands there
    # once in 2**K tries, a try over the span's bits at once
    argv = [sys.executable, "-m", "ergoqueue.cli", *args, "--out", str(tmp_path / "x")]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr


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


def _header(tmp_path, args) -> str:
    """The header line a run writes, as the help text spells a column list."""
    assert cli.main([*args, "--out", str(tmp_path / "h")]) == 0
    with open(tmp_path / "h.csv", encoding="utf-8") as fh:
        return ", ".join(next(csv.reader(fh)))


@pytest.mark.parametrize("name", sorted(MINIMAL))
def test_help_description_names_the_header_written(tmp_path, name):
    # the table and each runner state the header; the help must not drift from the file
    description = cli._SUBCOMMANDS[name][2]
    if name == "odometer":
        modes = {"orbit": [], "measure": ["--mode", "measure", "--i-max", "3"]}
        assert description == "; ".join(
            f"{mode} mode CSV: {_header(tmp_path, [*_flags(name), *extra])}"
            for mode, extra in modes.items()
        ) + "."
    else:
        # a column may carry a note on its values, as loynes' running maximum does
        header = re.escape(_header(tmp_path, _flags(name)))
        assert re.fullmatch(rf"CSV schema: {header}( \(\w+\))?\.", description), description


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
    # the seed is a count too: SeedSequence takes any nonnegative integer
    want = f"ValueError: {key} must be nonnegative, got -1"
    assert cli.main([*_flags(name, **{key: "-1"}), "--out", str(tmp_path / "x")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == want
    assert _bad_config(tmp_path, capsys, name, key, -1) == want


@pytest.mark.parametrize("name, key, default", _options(lambda k: k is float))
def test_real_config_keys_reject_non_numbers(tmp_path, capsys, name, key, default):
    for value in ["x", True] + ([] if default is None else [None]):
        assert f"{key} must be a real number" in _bad_config(tmp_path, capsys, name, key, value)
    for value in ["nan", "inf", "-inf"]:  # from a flag and from a config file alike
        assert cli.main([*_flags(name, **{key: value}), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"{key} must be a real number" in json.loads(err)["error"]
        assert not (tmp_path / "x.csv").exists()
        bad = _bad_config(tmp_path, capsys, name, key, float(value))
        assert f"{key} must be a real number" in bad


RATE_OPTIONS = [
    pytest.param(name, key, id=f"{name}-{key}")
    for name, (*_, options) in cli._SUBCOMMANDS.items()
    for key, *_ in options
    if key in cli.RATES
]


def test_every_service_rate_option_is_a_rate():
    named = {param.values[0] for param in RATE_OPTIONS}
    assert named == {"simulate", "loynes", "couple", "tandem", "cumulant", "scaled-cumulant"}


@pytest.mark.parametrize("name, key", RATE_OPTIONS)
def test_service_rates_share_one_rule(tmp_path, capsys, name, key):
    want = "ValueError: service rate must be positive and finite"
    for value in (0, -1, -0.0):  # from a flag and from a config file alike
        assert cli.main([*_flags(name, **{key: str(value)}), "--out", str(tmp_path / "x")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == want
        assert not (tmp_path / "x.csv").exists()
        assert _bad_config(tmp_path, capsys, name, key, value) == want


@pytest.mark.parametrize("name, key, default", _options(lambda k: isinstance(k, tuple)))
def test_choices_reject_unknown_values(tmp_path, capsys, name, key, default):
    # from a flag and from a config file alike
    assert cli.main([*_flags(name, **{key: "zzz"}), "--out", str(tmp_path / "x")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert f"{key} must be one of" in error
    assert _bad_config(tmp_path, capsys, name, key, "zzz") == error


PROCESS_OPTIONS = [
    pytest.param(name, key, id=f"{name}-{key}")
    for name, (*_, options) in cli._SUBCOMMANDS.items()
    for key, kind, *_ in options
    if kind == cli.PROCESS
]


@pytest.mark.parametrize("name, key", PROCESS_OPTIONS)
def test_a_bad_process_spec_is_refused_before_the_runner(tmp_path, capsys, monkeypatch, name, key):
    def runner(cfg):
        raise AssertionError("the runner was called")

    _, *rest = cli._SUBCOMMANDS[name]
    monkeypatch.setitem(cli._SUBCOMMANDS, name, (runner, *rest))
    want = "ProcessError: unknown process kind 'bogus'"
    # from a flag and from a config file alike
    assert cli.main([*_flags(name, **{key: "bogus"}), "--out", str(tmp_path / "x")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == want
    assert not (tmp_path / "x.csv").exists()
    assert _bad_config(tmp_path, capsys, name, key, "bogus") == want


@pytest.mark.parametrize(
    "name, bad, want",
    [
        ("simulate", {"process": "bogus", "s": -1}, "ProcessError: unknown process kind 'bogus'"),
        ("simulate", {"process": None, "s": -1}, "ValueError: simulate needs option 'process'"),
        ("gg1", {"interarrival": "trace:", "n": 1.5}, "ProcessError: trace needs a path"),
        ("couple", {"s": 0, "horizon": -1}, "ValueError: service rate must be positive and finite"),
    ],
)
def test_of_two_bad_options_the_first_in_the_table_is_the_error(tmp_path, capsys, name, bad, want):
    # None leaves the option out; the same option is named from flags and from a config
    cfg = {key: value for key, value in {**MINIMAL[name], **bad}.items() if value is not None}
    assert cli.main([name, *_flags_of(cfg), "--out", str(tmp_path / "x")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == want
    assert _config_rejects(tmp_path, capsys, json.dumps({"subcommand": name, **cfg})) == want


@pytest.mark.parametrize(
    "name, bad, as_config, want",
    [
        ("couple", {"s": "0", "x0": "x"}, {"s": 0},
         "ValueError: service rate must be positive and finite"),
        ("simulate", {"horizon": "-1", "thresholds": "x"}, {"horizon": -1},
         "ValueError: horizon must be nonnegative, got -1"),
        ("odometer", {"value": "1/0", "steps": "-1"}, {"steps": -1},
         "ValueError: value must be a finite fraction, got '1/0'"),
        ("simulate", {"thresholds": "0,inf"}, {"thresholds": [0.0, math.inf]},
         "ValueError: thresholds must be a nonempty list of finite real numbers, got [0.0, inf]"),
    ],
    ids=["couple", "simulate", "odometer", "thresholds"],
)
def test_option_text_is_read_in_table_order_as_a_config_is(tmp_path, capsys, name, bad, as_config,
                                                            want):
    # the bad flags in either argv order, and a config holding the values they spell
    good = {key: value for key, value in MINIMAL[name].items() if key not in bad}
    for order in (bad, dict(reversed(bad.items()))):
        argv = [name, *_flags_of(good), *_flags_of(order), "--out", str(tmp_path / "x")]
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == want
    cfg = {"subcommand": name, **MINIMAL[name], **bad, **as_config}
    assert _config_rejects(tmp_path, capsys, json.dumps(cfg)) == want


@pytest.mark.parametrize("name, replicas, calls", [("couple", 3, 1), ("gg1", None, 2)])
def test_each_process_spec_is_parsed_once_per_run(tmp_path, name, replicas, calls):
    cfg = {**MINIMAL[name], **({"replicas": replicas} if replicas else {})}
    with mock.patch.object(cli, "parse_process", wraps=parse_process) as parse:
        assert cli.main([name, *_flags_of(cfg), "--out", str(tmp_path / "x")]) == 0
    assert parse.call_count == calls


def test_config_refuses_a_subcommand_beside_it(tmp_path, capsys):
    # the flags would otherwise be dropped in silence and the config run
    args = ["simulate", "--process", "odometer", "--s", "0.5", "--horizon", "7"]
    assert cli.main([*_flags("simulate"), "--out", str(tmp_path / "a")]) == 0
    refusals = {
        "--config replays a saved run: give no subcommand or options with it": args,
        "ergoqueue has no option '--s'": ["--s", "0.5"],
    }
    for want, tail in refusals.items():
        argv = ["--config", str(tmp_path / "a.json"), "--out", str(tmp_path / "b"), *tail]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and json.loads(err)["error"] == f"ValueError: {want}"
        assert not (tmp_path / "b.csv").exists()


@pytest.mark.parametrize(
    "args, flag",
    [(["--seed", "1", "--seed", "2"], "--seed"), (["--m=10"], "--m"),
     (["--out", "elsewhere"], "--out")],
)
def test_an_option_given_twice_is_the_json_error(tmp_path, capsys, args, flag):
    # --out may stand before the subcommand or after its options, but once
    argv = ["--out", str(tmp_path / "x"), *_flags("prop1"), *args]
    assert cli.main(argv) == 2
    assert json.loads(capsys.readouterr().err)["error"] == f"ValueError: {flag} is given twice"
    assert list(tmp_path.iterdir()) == []
    assert cli.main(argv[: -len(args)]) == 0


@pytest.mark.parametrize(
    "args, error",
    [
        (["prop1", "--i", "3", "--m"], "--m needs a value"),
        (["prop", "--i", "3", "--m", "10"], "ergoqueue has no subcommand 'prop'"),
        (["--seed", "1", "prop1", "--i", "3", "--m", "10"], "ergoqueue has no option '--seed'"),
        (["prop1", "3", "--m", "10"], "prop1 has no option '3'"),
        (["prop1", "--i", "3", "--m", "10", "--config", "c.json"],
         "prop1 has no option '--config'"),
    ],
)
def test_malformed_command_lines_are_the_json_error(tmp_path, capsys, monkeypatch, args, error):
    monkeypatch.setenv("ERGOQUEUE_OUT", str(tmp_path))
    assert cli.main(args) == 2
    assert json.loads(capsys.readouterr().err)["error"] == f"ValueError: {error}"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["--out", ""], ["--out="]],
)
@pytest.mark.parametrize("before", [True, False])
def test_an_empty_out_is_the_json_error(tmp_path, capsys, monkeypatch, args, before):
    # an empty base path is refused, not replaced by $ERGOQUEUE_OUT/SUB
    monkeypatch.setenv("ERGOQUEUE_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    argv = [*args, *_flags("prop1")] if before else [*_flags("prop1"), *args]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "ValueError: --out needs a nonempty base path"
    assert list(tmp_path.iterdir()) == []


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
        pytest.param('{"subcommand": "cumulant", "process": "odometer", "n": 4, "m": 4, '
                     '"seed": 1, "theta_grid": []}', id="empty-theta-grid"),
        pytest.param('{"subcommand": "simulate", "process": "odometer", "s": 0.75, '
                     '"horizon": 10, "seed": 1, "thresholds": []}', id="empty-thresholds"),
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


WINDOW_COUNT_PRECISION = "PrecisionError: window counting supports precision <= 64"


@pytest.mark.parametrize(
    "args, error",
    [
        pytest.param(["odometer", "--mode", "measure"],
                     "ValueError: measure mode needs i_max", id="measure-without-i-max"),
        pytest.param(["prop1", "--i", "3", "--m", "10", "--precision", "80"],
                     WINDOW_COUNT_PRECISION, id="prop1-precision-80"),
        pytest.param(["prop2", "--i", "3", "--theta", "1", "--m", "10", "--precision", "80"],
                     WINDOW_COUNT_PRECISION, id="prop2-precision-80"),
        pytest.param(["scaled-cumulant", "--process", "odometer:80", "--theta-grid", "0,1",
                      "--n", "8", "--m", "4", "--s", "0.75"],
                     WINDOW_COUNT_PRECISION, id="scaled-cumulant-precision-80"),
    ],
)
def test_fail_fast_checks_are_the_json_error(tmp_path, capsys, args, error):
    assert cli.main([*args, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == error
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("value", ["abc", "nan", "-inf"])
def test_odometer_value_error_names_the_option(tmp_path, capsys, value):
    assert cli.main(["odometer", "--value", value, "--out", str(tmp_path / "x")]) == 2
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == f"ValueError: value must be a finite fraction, got {value!r}"


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
# NaNs beyond numpy's two defaults, each a distinct key written "nan": a
# payload, a negative quiet NaN, and a signalling NaN
_NAN_BITS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], np.uint64)
_FLOAT_POOLS = st.lists(st.floats(), max_size=8).map(
    lambda extra: np.concatenate([_SPECIAL_FLOATS + extra, _NAN_BITS.view(np.float64)])
)


def _many_floats(seed):
    """Several thousand distinct doubles: partial sums of random multiples of
    1/4, as a dyadic queue's are, and doubles of uniformly random bits."""
    rng = np.random.default_rng(seed)
    sums = np.cumsum(rng.integers(-400, 401, size=3000) / 4)
    bits = rng.integers(0, 2**64, size=3000, dtype=np.uint64)
    return np.concatenate([sums, bits.view(np.float64)])


# integer edges, each kept in the pool of every dtype whose range holds it:
# the dtype limits, digit-count boundaries, and either side of the magnitude
# 2**31 at which the byte writer narrows its digit arithmetic to int32
_INT_EDGES = [
    -1, 0, 1, 9, 10, 99, 100, -100, 2**31 - 1, 2**31, -(2**31), -(2**31) - 1, 2**32 - 1,
    2**32, 10**18 - 1, 10**18, -(10**18), 10**19, 2**63, 2**64 - 1,
]


def _int_pool(dtype):
    info = np.iinfo(dtype)
    low, high = int(info.min), int(info.max)
    edges = [low, high] + [v for v in _INT_EDGES if low <= v <= high]
    return st.lists(st.integers(low, high), max_size=8).map(
        lambda extra: np.array(edges + extra, dtype=dtype)
    )


_INT_POOLS = st.one_of([_int_pool(t) for t in (np.int8, np.int16, np.int32, np.int64)]) | (
    st.sampled_from(
        [
            np.zeros(3, dtype=np.int64),
            np.array([-1, -9, -10, -100, -(2**63)], dtype=np.int64),
            np.array([-1, -9, -10, -100], dtype=np.int32),
            np.array([2**31 - 1, -(2**31 - 1), 0], dtype=np.int64),
            np.array([2**31, -(2**31), 7], dtype=np.int64),
        ]
    )
)
_UINT_POOLS = st.one_of([_int_pool(t) for t in (np.uint8, np.uint32, np.uint64)])
_OBJECT_POOLS = st.lists(
    st.fractions(max_denominator=10**6)
    | st.booleans()
    | st.none()
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
    | st.sampled_from([Fraction(1, 3), "7f", "a,b", 'q"t', "", True, None]),
    min_size=1,
    max_size=12,
)
# bools take the rule of float64 columns, each distinct bit pattern formatted
# once by _fmt; narrow floats, which no runner writes, are formatted per cell
_OTHER_POOLS = st.sampled_from(
    [
        np.array([True, False]),
        np.array([0.1, -0.0, np.nan], dtype=np.float32),
        np.array([0.1, -0.0, 0.0, np.nan, -np.inf, 65504, 6e-08, 1.0], dtype=np.float16),
    ]
)
# numeric arrays only: no cell needs quoting, so every write is checked byte for byte
_NUMERIC_POOLS = _FLOAT_POOLS | _INT_POOLS | _UINT_POOLS | _OTHER_POOLS
_POOLS = _NUMERIC_POOLS | _OBJECT_POOLS
_LENGTHS = [0, 1, cli.WRITE_BLOCK - 1, cli.WRITE_BLOCK, cli.WRITE_BLOCK + 1]
# each example writes up to 8193 rows against the per-row oracle, so a failing
# seed is reported as drawn: shrinking it would take minutes
_NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


@pytest.mark.parametrize("length", _LENGTHS)
@settings(max_examples=15, deadline=None, phases=_NO_SHRINK)
@given(pools=st.lists(_POOLS, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_writer_matches_per_row_oracle(tmp_path_factory, length, pools, seed):
    _check_writer(tmp_path_factory, length, pools, seed)


@pytest.mark.parametrize("length", _LENGTHS)
@settings(max_examples=15, deadline=None, phases=_NO_SHRINK)
@given(pools=st.lists(_NUMERIC_POOLS, min_size=1, max_size=4), seed=st.integers(0, 2**32 - 1))
def test_numeric_writer_matches_per_row_oracle(tmp_path_factory, length, pools, seed):
    _check_writer(tmp_path_factory, length, pools, seed)


@pytest.mark.parametrize("length", _LENGTHS)
@settings(max_examples=5, deadline=None, phases=_NO_SHRINK)
@given(
    many=st.integers(0, 2**32 - 1).map(_many_floats),
    pools=st.lists(_NUMERIC_POOLS, max_size=1),
    seed=st.integers(0, 2**32 - 1),
)
def test_high_cardinality_floats_match_per_row_oracle(tmp_path_factory, length, many, pools, seed):
    # a block of thousands of distinct keys, where every other pool has a few dozen
    _check_writer(tmp_path_factory, length, [many, *pools], seed)


def test_float_keys_at_the_ends_of_the_bit_order(tmp_path):
    # -0.0 keys as the smallest int64 and 0.0 as zero; NaNs of any sign or
    # payload, signalling or quiet, are distinct keys that all write "nan"
    zeros = np.array([0.0, -0.0, -0.0, 0.0, -0.0])
    nans = np.append(_NAN_BITS, np.uint64(0x7FF8000000000000)).view(np.float64)
    cli._write_outputs(tmp_path / "x", ["z", "n"], [[zeros[:4], nans]], {})
    assert (tmp_path / "x.csv").read_text(encoding="utf-8") == "z,n\n0,nan\n-0,nan\n-0,nan\n0,nan\n"
    table = cli._TextTable()
    assert _texts(table.cells(zeros)) == [b"0", b"-0", b"-0", b"0", b"-0"]
    assert _texts(table.cells(nans[::-1])) == [b"nan"] * 4  # merged into the same table
    assert _texts(table.cells(zeros[1:3])) == [b"-0", b"-0"]
    for dtype in (np.float64, np.bool_):
        assert cli._TextTable().cells(np.array([], dtype)).size == 0


def _texts(cells):
    """The text of each row of a NUL-padded byte matrix."""
    return [bytes(row).rstrip(b"\x00") for row in cells]


def _needs_quoting(text: str, columns: int) -> bool:
    """A cell csv.writer would quote, one whose NUL the byte assembly would drop, or non-ASCII."""
    lone_empty = columns == 1 and text == ""
    return lone_empty or any(c in ',"\r\n\x00' or ord(c) > 127 for c in text)


def _check_writer(tmp_path_factory, length, pools, seed):
    rng = np.random.default_rng(seed)
    columns = []
    for pool in pools:
        picks = rng.integers(len(pool), size=length)
        # fancy indexing copies the bits, so -0.0 and nan signs survive
        columns.append(pool[picks] if isinstance(pool, np.ndarray) else [pool[i] for i in picks])
    header = [f"c{j}" for j in range(len(columns))]
    base = tmp_path_factory.mktemp("writer") / "out"
    # the writer does not quote: it writes csv.writer's bytes, or refuses
    # exactly when some cell would need quoting
    if any(_needs_quoting(cli._fmt(v), len(columns)) for col in columns for v in col):
        with pytest.raises(ValueError, match="CSV cell"):
            cli._write_outputs(base, header, [columns], {})
        assert not base.with_suffix(".json").exists()
        return
    cli._write_outputs(base, header, [columns], {})
    got = base.with_suffix(".csv").read_bytes()
    assert got == _per_row_csv(header, columns).encode("utf-8")


# integers at the edges of the writer's four-digit groups, and the dtype limits
_GROUP_EDGES = [0, 1, 9, 9999, 10**4, 10**4 + 1, 10**8 - 1, 10**8, 10**12 - 1, 10**12, 10**16]
_SIGNED_EDGES = np.array(_GROUP_EDGES + [-v for v in _GROUP_EDGES] + [-(2**63), 2**63 - 1])
_UNSIGNED_EDGES = np.array(_GROUP_EDGES + [2**63, 10**19, 2**64 - 1], np.uint64)


@st.composite
def _block_streams(draw):
    """Blocks of a float64, a bool, an int64 and a uint64 column: each block's
    floats mix a shared pool (both zeros, every NaN pattern, other edges)
    with values new to that block, up to past the text table's cap."""
    shared = np.concatenate([_SPECIAL_FLOATS, _NAN_BITS.view(np.float64)])
    blocks = []
    for b in range(draw(st.integers(1, 4))):
        rows = draw(st.sampled_from([0, 1, 7, 300, 4500]))
        new = draw(st.sampled_from([0, 3, cli.TEXT_TABLE_CAP + 1]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        late = b * 1e6 + np.arange(new) * 0.25 if draw(st.booleans()) else (
            rng.integers(0, 2**64, new, dtype=np.uint64).view(np.float64)
        )
        pool = np.concatenate([shared, late])
        # the late values first, each once, so a block that passes the cap does
        floats = np.concatenate([late, pool[rng.integers(pool.size, size=rows)]])[:rows]
        blocks.append([
            floats,
            rng.integers(2, size=rows).astype(bool),
            _SIGNED_EDGES[rng.integers(_SIGNED_EDGES.size, size=rows)],
            _UNSIGNED_EDGES[rng.integers(_UNSIGNED_EDGES.size, size=rows)],
        ])
    return blocks


@settings(max_examples=25, deadline=None, phases=_NO_SHRINK)
@given(blocks=_block_streams(), cap=st.sampled_from([cli.TEXT_TABLE_CAP, 2, 5]))
@example(  # -0.0 and 0.0, then the NaN patterns, then both again, each in its own block
    blocks=[
        [v, v > 0, np.arange(v.size), np.arange(v.size, dtype=np.uint64)]
        for v in map(np.array, ([-0.0, 0.0], _NAN_BITS.view(np.float64),
                                [0.0, *_NAN_BITS.view(np.float64), -0.0]))
    ],
    cap=2,
)
def test_streamed_blocks_match_per_row_oracle(tmp_path_factory, blocks, cap):
    # each column keeps one text table across the stream: values recur from
    # block to block, new ones come late, and a block that would take the
    # table past its cap (the real one, or a small one here) starts it afresh
    header = ["f", "b", "i", "u"]
    base = tmp_path_factory.mktemp("stream") / "out"
    with mock.patch.object(cli, "TEXT_TABLE_CAP", cap):
        cli._write_outputs(base, header, blocks, {})
    whole = [np.concatenate(col) for col in zip(*blocks)]
    assert base.with_suffix(".csv").read_bytes() == _per_row_csv(header, whole).encode("utf-8")


def test_bool_cells_do_not_depend_on_their_container(tmp_path):
    cli._write_outputs(tmp_path / "a", ["b"], [[np.array([True, False])]], {})
    cli._write_outputs(tmp_path / "l", ["b"], [[[True, False]]], {})
    text = (tmp_path / "a.csv").read_text(encoding="utf-8")
    assert text == (tmp_path / "l.csv").read_text(encoding="utf-8") == "b\ntrue\nfalse\n"


def test_writer_refuses_cells_that_need_quoting(tmp_path):
    # a cell csv.writer would quote, or whose NUL the byte assembly would
    # drop (csv.writer writes "a\x00b", the bytes "ab"), is a ValueError; the
    # summary is not written
    numbers = np.array([0.5, -0.0])
    cases = {
        "comma": [numbers, ["a,b", "c"]],
        "quote": [numbers, ['q"t', "c"]],
        "lf": [numbers, np.array(["x\ny", "p"])],
        "cr": [numbers, ["x\ry", "p"]],
        "nul": [numbers, ["a\x00b", "c"]],
        "non-ascii": [numbers, ["c", "\u00e9"]],
        "lone-empty": [["c", None]],
    }
    for name, columns in cases.items():
        with pytest.raises(ValueError, match="CSV cell"):
            cli._write_outputs(tmp_path / name, ["f", "o"][: len(columns)], [columns], {"ok": 1})
        assert not (tmp_path / f"{name}.json").exists()
    with pytest.raises(ValueError, match="CSV cell"):  # the header is a one-row block
        cli._write_outputs(tmp_path / "h", ["f,g"], [[numbers]], {})
    # an empty field beside another is an empty cell, as csv.writer writes it
    cli._write_outputs(tmp_path / "m", ["f", "o"], [[numbers, ["", None]]], {})
    assert (tmp_path / "m.csv").read_text(encoding="utf-8") == "f,o\n0.5,\n-0,\n"


@pytest.mark.parametrize(
    "lengths",
    [(cli.WRITE_BLOCK, cli.WRITE_BLOCK + 1), (cli.WRITE_BLOCK + 1, cli.WRITE_BLOCK), (5, 3)],
    ids=["longer-past-the-last-block", "shorter-in-the-last-block", "inside-one-block"],
)
def test_writer_refuses_columns_of_unequal_length(tmp_path, lengths):
    # the first column used to set the row count, so cells past its last
    # block were dropped without an error
    columns = [np.arange(lengths[0]), np.arange(lengths[1])]
    message = f"CSV column 'b' has {lengths[1]} rows, the first has {lengths[0]}"
    with pytest.raises(ValueError, match=re.escape(message)):
        cli._write_outputs(tmp_path / "x", ["a", "b"], [columns], {})
    assert list(tmp_path.iterdir()) == []


def test_refused_cell_is_the_json_error(tmp_path, capsys, monkeypatch):
    # no subcommand writes such a cell, so a runner that does stands in for one
    def runner(cfg):
        return ["k", "text"], [[[0], ["a,b"]]], {}

    _, *rest = cli._SUBCOMMANDS["odometer"]
    monkeypatch.setitem(cli._SUBCOMMANDS, "odometer", (runner, *rest))
    assert cli.main(["odometer", "--out", str(tmp_path / "x")]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == "ValueError: a CSV cell holds ','; the writer does not quote"
    assert not (tmp_path / "x.json").exists()


def test_no_subcommand_imports_numpy_ma(tmp_path):
    # numpy.ma costs milliseconds and memory to import, and no run needs
    # it; np.unique imports it on its first call.  Nor does a run or a help
    # text need argparse, or the gettext it imports, or dataclasses, which
    # generates and compiles each class's methods, or the copy it imports
    script = (
        "import json, sys\n"
        "from ergoqueue import cli\n"
        "for k, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    assert cli.main([*argv, '--out', f'{sys.argv[2]}/{k}']) == 0\n"
        "print(sorted(name for name in sys.modules\n"
        "             if name.split('.')[:2] == ['numpy', 'ma']\n"
        "             or name in ('argparse', 'gettext', 'dataclasses', 'copy')))\n"
    )
    runs = [_flags(name) for name in MINIMAL] + [["odometer", "--mode", "measure", "--i-max", "4"]]
    runs += [["--help"], ["prop2", "--help"]]
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_python_dash_m_runs_the_command_line(tmp_path):
    argv = ["odometer", "--value", "11/16", "--precision", "16", "--steps", "3"]
    proc = subprocess.run(
        [sys.executable, "-m", "ergoqueue", *argv, "--out", str(tmp_path / "m")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert cli.main([*argv, "--out", str(tmp_path / "c")]) == 0
    for suffix in (".csv", ".json"):
        assert (tmp_path / f"m{suffix}").read_bytes() == (tmp_path / f"c{suffix}").read_bytes()


# -- streamed trajectories ------------------------------------------------------

NON_DYADIC = "iid-table:0,0.3,1.7@0.5,0.3,0.2"
STREAM_HORIZONS = [0, 1, cli.WRITE_BLOCK - 1, cli.WRITE_BLOCK, cli.WRITE_BLOCK + 1, 80_000]


def _stepped(z):
    """The states after each step from 0, by the step iterated in plain Python."""
    return np.array(oracles.recursion_oracle(0.0, z)[1:])


@pytest.mark.parametrize(
    "argv",
    [
        # integer states, increments and sums of about 1e9
        ["simulate", "--process", "iid-table:0,3e6@0.5,0.5", "--s", "1.6e6", "--horizon", "30000"],
        # quarters beside a chain near 1e12, on the grid of 2**-13
        ["couple", "--process", "binary-markov:0.3,0.5", "--s", "0.75", "--x0", "1e12",
         "--horizon", "50000", "--replicas", "3"],
    ],
    ids=["simulate", "couple"],
)
def test_large_on_grid_runs_close_every_block_by_proof(tmp_path, argv):
    # each block's values fit 53 significant bits together, so no block of
    # either chain reaches the sequential step
    with mock.patch.object(lindley, "_step", wraps=lindley._step) as step:
        run(tmp_path, "proof", argv)
    assert step.call_count == 0


def _whole_columns(name, process, horizon, seed):
    """The CSV columns of a streamed subcommand, built whole as before streaming."""
    proc = parse_process(process)
    if name == "gg1":
        rng = rng_for(seed)
        services = proc.forward(horizon, rng)
        waits = _stepped(services - proc.forward(horizon, rng))
        return [np.arange(horizon + 1), np.concatenate(([0.0], waits))]
    y = proc.forward(horizon, rng_for(seed))
    if name == "simulate":
        states = _stepped(y - 0.75)
        tail = estimators.empirical_tail(states[horizon // 10 :], [0, 1, 2, 4, 8, 16])
        return [tail.thresholds, tail.survival, tail.std_errors]
    q1 = np.concatenate(([0.0], _stepped(y - 0.8)))
    out = (q1[:-1] + y) - q1[1:]
    return [np.arange(horizon), y, q1[1:], out, _stepped(out - 0.7)]


def _streamed_argv(name, process, horizon):
    if name == "gg1":
        return ["gg1", "--service", process, "--interarrival", process, "--n", str(horizon)]
    if name == "simulate":
        return ["simulate", "--process", process, "--s", "0.75", "--horizon", str(horizon)]
    return ["tandem", "--process", process, "--s1", "0.8", "--s2", "0.7", "--horizon", str(horizon)]


@pytest.mark.parametrize("horizon", STREAM_HORIZONS)
@pytest.mark.parametrize("process", ["odometer", NON_DYADIC])
@pytest.mark.parametrize("name", ["simulate", "tandem", "gg1"])
def test_streamed_csv_bytes_match_whole_columns(tmp_path, name, process, horizon):
    # the rows stream through the writer a block at a time; the bytes are
    # those of the whole columns written at once, across the block edges
    if name == "simulate" and horizon == 0:
        return  # a run needs a positive horizon
    for seed in range(3):
        argv = [*_streamed_argv(name, process, horizon), "--seed", str(seed)]
        _, summary = run(tmp_path, "streamed", argv)
        header = (tmp_path / "streamed.csv").read_text(encoding="utf-8").split("\n", 1)[0]
        columns = _whole_columns(name, process, horizon, seed)
        cli._write_outputs(tmp_path / "whole", header.split(","), [columns], {})
        streamed = (tmp_path / "streamed.csv").read_bytes()
        assert streamed == (tmp_path / "whole.csv").read_bytes()
        results = summary["results"]
        if name == "tandem":  # the totals are the correctly rounded sums
            assert results["total_input"] == math.fsum(columns[1].tolist())
            assert results["total_first_output"] == math.fsum(columns[3].tolist())
        if name == "gg1" and seed == 0:
            assert results["mean_wait"] == float(exact_mean(columns[1]))


def exact_mean(values) -> Fraction:
    return sum(map(Fraction, values.tolist()), Fraction(0)) / len(values)


@pytest.mark.parametrize("name", ["simulate", "tandem", "gg1"])
def test_streamed_runs_hold_a_fixed_number_of_blocks(tmp_path, name):
    # numpy reports its buffers to tracemalloc: a run of 20 writer blocks
    # peaks within a few blocks of a run of 2, where whole columns grew the
    # peak by 50 to 100 blocks
    import tracemalloc

    def peak(blocks):
        argv = _streamed_argv(name, NON_DYADIC, blocks * cli.WRITE_BLOCK)
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--out", str(tmp_path / f"{name}{blocks}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = cli.WRITE_BLOCK * 8  # bytes of one float64 column block
    assert peak(20) - peak(2) < 8 * block


def test_totals_past_the_float_range_fail_cleanly(tmp_path):
    # each sum is exact and rounded once: the tandem totals of 4 x 1.5e308
    # leave the float range, the JSON error without a numpy warning, and the
    # simulate mean of the same input is 1.5e308; -W error makes any warning fatal
    def cli_run(*argv):
        return subprocess.run(
            [sys.executable, "-W", "error", "-m", "ergoqueue", *argv],
            capture_output=True, text=True, timeout=60,
        )

    tandem = cli_run("tandem", "--process", "iid-table:1.5e308@1", "--s1", "1.6e308",
                     "--s2", "1.7e308", "--horizon", "4", "--out", str(tmp_path / "t" / "x"))
    assert tandem.returncode == 2 and tandem.stderr.count("\n") == 1
    assert json.loads(tandem.stderr) == {"error": "ValueError: the sum overflows the float range"}
    assert list((tmp_path / "t").iterdir()) == []
    simulate = cli_run("simulate", "--process", "iid-table:1.5e308@1", "--s", "1.6e308",
                       "--horizon", "4", "--out", str(tmp_path / "s"))
    assert simulate.returncode == 0 and simulate.stderr == ""
    summary = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"))
    assert summary["results"]["input_mean"] == 1.5e308
    assert summary["results"]["stable_mean"] is True


def test_a_run_failing_mid_stream_leaves_no_files(tmp_path, capsys):
    # the queue overflows in the third block, after two were written
    trace = tmp_path / "trace.txt"
    trace.write_text("0\n" * (2 * cli.WRITE_BLOCK) + "1.7e308\n" * 5, encoding="utf-8")
    argv = ["tandem", "--process", f"trace:{trace}", "--s1", "0.5", "--s2", "0.5",
            "--horizon", str(2 * cli.WRITE_BLOCK + 5)]
    assert cli.main([*argv, "--out", str(tmp_path / "out" / "x")]) == 2
    err = capsys.readouterr().err
    assert json.loads(err) == {"error": "ValueError: the queue recursion overflows the float range"}
    assert list((tmp_path / "out").iterdir()) == []


def test_long_orbit_rows_span_writer_blocks(tmp_path):
    # counter_hex and value are built one writer block at a time
    start, steps = 0x2FFE << 40, 2 * cli.WRITE_BLOCK + 3
    args = ["odometer", "--value", hex(start), "--precision", "64", "--steps", str(steps),
            "--direction", "backward"]
    rows, _ = run(tmp_path, "o", args)
    assert len(rows) == steps + 2
    edges = {0, cli.WRITE_BLOCK - 1, cli.WRITE_BLOCK, 2 * cli.WRITE_BLOCK, steps}
    for k in sorted(edges | set(range(0, steps + 1, 997))):
        pt = od.DyadicPoint(start + k, 64)
        arrival = "true" if od.in_arrival_set(pt) else "false"
        want = [str(k), format(pt.counter, "x"), format(float(pt.value), ".17g"), arrival]
        assert rows[k + 1] == want
