"""Output checks for the benchmark workloads.

Each checker reads the ``BASE.csv``/``BASE.json`` pair one invocation wrote,
recomputes invariants that hold exactly for any seed, and raises
``CheckError`` on the first violation.  Outputs of the CLI's default seed (0) are also compared, byte for
byte through sha256, with the outputs of the seed commit at the workload
sizes of run.py; ``coupling`` is exempt because vectorizing
``BinaryMarkov.forward`` is allowed to change its seeded stream.

``selftest`` shows that the trajectory checker is not vacuous: it accepts a
valid output pair and rejects three corruptions of it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

# sha256 of (BASE.csv, BASE.json) written by the seed commit for --seed 0 at
# the sizes in run.py (Python 3.11, numpy 2.4)
SEED_DIGESTS = {
    "trajectory": (
        "015e65d6e983fdf4664f4bb080eb2ca9b8852ae925dfa28cc8a445d1fdefd8e8",
        "d85972e11fad379a7501f18d4e810b8d18350f537176e9c20522b4024c26ca49",
    ),
    "burst": (
        "5244e36cbffdbc2d18c42ba84c9ad6608619c885bec99d384b63204c3a28be06",
        "d5056e49ee7a2f7a4c9a578ae2748a874c7ae067fc50f799bbc8bd1b6b883974",
    ),
}


class CheckError(Exception):
    pass


def _expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _load(base: Path, expected_config: dict) -> dict:
    with open(f"{base}.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    config = summary["config"]
    for key, value in expected_config.items():
        _expect(config.get(key) == value, f"config {key}={config.get(key)!r}, want {value!r}")
    return summary["results"]


def _rows(base: Path, header: list[str]):
    with open(f"{base}.csv", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        _expect(next(reader, None) == header, "CSV header differs")
        yield from reader


def digests(base: Path) -> tuple[str, str]:
    return tuple(
        hashlib.sha256(Path(f"{base}.{ext}").read_bytes()).hexdigest() for ext in ("csv", "json")
    )


def check_trajectory(base: Path, config: dict) -> None:
    """tandem: both stations follow the recursion bit for bit; totals conserve.

    Each row is checked against the row written before it, so the checks
    vectorize; numpy's float64 arithmetic is the same IEEE arithmetic the
    program's scalar loop uses.
    """
    results = _load(base, config)
    s1, s2 = float(config["s1"]), float(config["s2"])
    header = ["n", "arrival", "queue1", "output1", "queue2"]
    with open(f"{base}.csv", newline="", encoding="utf-8") as fh:
        _expect(next(csv.reader(fh), None) == header, "CSV header differs")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    _expect(table.shape[1:] == (5,), "CSV rows are not 5 columns wide")
    n, y, q1, out, q2 = table.T
    q1_prev = np.concatenate(([0.0], q1[:-1]))
    q2_prev = np.concatenate(([0.0], q2[:-1]))
    for label, ok in (
        ("index is not the row number", n == np.arange(n.size)),
        ("arrival is not 0/1", (y == 0.0) | (y == 1.0)),
        ("output1 != min(q1 + y, s1)", out == np.minimum(q1_prev + y, s1)),
        ("queue1 breaks the recursion", q1 == np.maximum(q1_prev + (y - s1), 0.0)),
        ("queue2 breaks the recursion", q2 == np.maximum(q2_prev + (out - s2), 0.0)),
    ):
        bad = np.flatnonzero(~ok)
        _expect(bad.size == 0, f"row {bad[0] if bad.size else 0}: {label}")
    rows = n.size
    _expect(rows == config["horizon"] == results["horizon"], f"{rows} rows for horizon")
    total_in, total_out = math.fsum(y), math.fsum(out)
    final1 = float(q1[-1]) if rows else 0.0
    final2 = float(q2[-1]) if rows else 0.0
    _expect(results["total_input"] == total_in, "total_input differs from the CSV sum")
    _expect(results["total_first_output"] == total_out, "total_first_output differs")
    _expect(results["first_backlog_change"] == final1, "first_backlog_change differs")
    _expect(results["second_backlog_final"] == final2, "second_backlog_final differs")
    _expect(total_in - total_out == final1, "work is not conserved at station 1")
    _expect(results["conservation_exact"] is True, "conservation_exact is not true")


def check_coupling(base: Path, config: dict) -> None:
    """couple: coupled rows agree, the summary matches the rows, >= 99% couple."""
    results = _load(base, config)
    x0, s, horizon = float(config["x0"]), float(config["s"]), config["horizon"]
    times: list[int] = []
    header = ["replica", "coupling_time", "final_upper", "final_lower"]
    rows = 0
    for r, row in enumerate(_rows(base, header)):
        _expect(len(row) == 4 and row[0] == str(r), f"row {r}: bad index or width")
        upper, lower = float(row[2]), float(row[3])
        if row[1]:
            tau = int(row[1])
            # the gap between the chains shrinks by at most s per step
            _expect(tau * s >= x0 and tau <= horizon, f"row {r}: coupling time {tau} impossible")
            _expect(upper == lower, f"row {r}: coupled but {upper} != {lower}")
            times.append(tau)
        else:
            _expect(upper > lower, f"row {r}: uncoupled but upper {upper} <= lower {lower}")
        rows += 1
    _expect(rows == config["replicas"] == results["replicas"], f"{rows} rows for replicas")
    _expect(results["coupled"] == len(times), "coupled count differs from the rows")
    _expect(100 * len(times) >= 99 * rows, f"only {len(times)} of {rows} replicas coupled")
    _expect(results["max_coupling_time"] == max(times), "max_coupling_time differs")
    _expect(results["mean_coupling_time"] == sum(times) / len(times), "mean differs")


def check_burst(base: Path, config: dict) -> None:
    """prop2: exact seed measure, bit-exact lower bound, and the sandwich."""
    results = _load(base, config)
    i, theta, m = config["i"], float(config["theta"]), config["m"]
    n = 1 << (i - 1)
    header = ["i", "theta", "window", "m", "lower_bound", "lambda_strat",
              "upper_bound", "lambda_plain", "gap"]
    rows = list(_rows(base, header))
    _expect(len(rows) == 1 and len(rows[0]) == 9, "prop2 writes exactly one 9-column row")
    row = dict(zip(header, rows[0]))
    _expect(int(row["i"]) == results["i"] == i, "band index differs")
    _expect(int(row["window"]) == results["n"] == n, "window is not 2^(i-1)")
    _expect(int(row["m"]) == results["m"] == m, "sample size differs")
    for key in ("theta", "lower_bound", "lambda_strat", "upper_bound", "lambda_plain", "gap"):
        _expect(float(row[key]) == float(results[key]), f"CSV and JSON differ on {key}")
    _expect(Fraction(results["mu_A"]) == Fraction(1, 1 << (i + 2)), "mu_A is not 1/2^(i+2)")
    lower, strat, upper = results["lower_bound"], results["lambda_strat"], results["upper_bound"]
    _expect(lower == theta - (i + 2) * math.log(2.0) / n, "lower_bound is not bit-exact")
    _expect(upper == theta, "upper_bound is not theta")
    _expect(lower <= strat <= upper, "lambda_strat leaves [lower_bound, upper_bound]")
    _expect(results["gap"] == upper - strat, "gap != upper_bound - lambda_strat")
    _expect(0.0 <= results["lambda_plain"] <= theta, "lambda_plain leaves [0, theta]")


CHECKERS = {
    "trajectory": check_trajectory,
    "coupling": check_coupling,
    "burst": check_burst,
}


def _run(checker, base: Path, config: dict) -> None:
    try:
        checker(base, config)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        raise CheckError(f"malformed output: {type(exc).__name__}: {exc}") from exc


def check(workload: str, base: Path, config: dict) -> None:
    """Run the workload's checker; at the default seed compare digests too."""
    _run(CHECKERS[workload], base, config)
    want = SEED_DIGESTS.get(workload)
    if want is not None and config["seed"] == 0:
        _expect(digests(base) == want, "outputs differ from the seed commit's")


def selftest(base: Path, config: dict, workdir: Path) -> list[str]:
    """Corrupt a valid trajectory output three ways; list corruptions accepted.

    ``base`` must already pass ``check_trajectory``.  An empty list means
    the checker rejected an altered CSV digit, a dropped row, and a summary
    claiming ``conservation_exact: false``.
    """
    csv_text = Path(f"{base}.csv").read_text(encoding="utf-8")
    json_text = Path(f"{base}.json").read_text(encoding="utf-8")
    lines = csv_text.splitlines(keepends=True)
    middle = len(lines) // 2
    cells = lines[middle].split(",")
    cells[2] = str((int(cells[2][0]) + 1) % 10) + cells[2][1:]  # queue1's first digit
    summary = json.loads(json_text)
    summary["results"]["conservation_exact"] = False
    corruptions = [
        ("altered CSV digit", "".join(lines[:middle] + [",".join(cells)] + lines[middle + 1:]),
         json_text),
        ("dropped CSV row", "".join(lines[:middle] + lines[middle + 1:]), json_text),
        ("conservation_exact false", csv_text, json.dumps(summary, indent=2) + "\n"),
    ]
    workdir.mkdir(parents=True, exist_ok=True)
    accepted = []
    for k, (label, bad_csv, bad_json) in enumerate(corruptions):
        bad = workdir / f"corrupt{k}"
        Path(f"{bad}.csv").write_text(bad_csv, encoding="utf-8")
        Path(f"{bad}.json").write_text(bad_json, encoding="utf-8")
        try:
            _run(check_trajectory, bad, config)
        except CheckError:
            continue
        accepted.append(label)
    return accepted
