"""Runner behavior: determinism, file outputs, config replay, error paths."""

import csv
import json
import subprocess
import sys

import numpy as np
import pytest

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

    monkeypatch.setitem(cli._RUNNERS, "simulate", exhausted)
    code = cli.main(
        ["simulate", "--process", "iid-bernoulli:0.5", "--s", "0.75", "--horizon", "100",
         "--out", str(tmp_path / "x")]
    )
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"].startswith("MemoryError")
    assert not (tmp_path / "x.csv").exists()


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
