"""ergoqueue benchmark: whole CLI invocations, checked, with a layer trace.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the program is imported from ``src``.
Each workload is a closed loop with one client: one ``ergoqueue`` invocation
at a time, each in a fresh interpreter (bench/invoke.py), so every invocation
pays the import and starts with cold ``lru_cache``s, as a user's does.
Invocations repeat until ``--seconds`` have passed (at least three).  Every
output pair is checked (check.py); a non-zero exit or a failed check counts
as failed.

``--trace 0`` reports the end-to-end metrics as medians over invocations:
``run_s``, ``units_per_s``, ``setup_s`` and ``peak_rss_mb``.  Times are
scaled to a reference machine speed (``at_reference_speed``); the unscaled
medians are printed too.  ``--trace 1``
alternates untraced and traced invocations with the same CLI seed and
reports the per-layer metrics of the traced ones (layertrace.py) and the
tracing overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  Without ``--workload`` every workload runs, both
untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "ergoqueue"
MIN_INVOCATIONS = 3
# no invocation starts after this, so a run ends well within 180 s
LAST_START_S = 120.0


class Workload(NamedTuple):
    argv: list[str]  # CLI arguments after --out and before --seed
    config: dict  # what BASE.json must echo back as its config
    units: int  # work per invocation, the numerator of units_per_s
    unit: str


TRAJECTORY_H = 80_000
COUPLING_X0, COUPLING_H, COUPLING_R = 10_000, 50_000, 20
BURST_I, BURST_M = 11, 40_000

WORKLOADS = {
    "trajectory": Workload(
        ["tandem", "--process", "odometer", "--s1", "0.75", "--s2", "0.5",
         "--horizon", str(TRAJECTORY_H)],
        {"subcommand": "tandem", "process": "odometer", "s1": 0.75, "s2": 0.5,
         "horizon": TRAJECTORY_H},
        TRAJECTORY_H,
        "slots",
    ),
    "coupling": Workload(
        ["couple", "--process", "binary-markov:0.3,0.5", "--s", "0.75",
         "--x0", str(COUPLING_X0), "--horizon", str(COUPLING_H),
         "--replicas", str(COUPLING_R)],
        {"subcommand": "couple", "process": "binary-markov:0.3,0.5", "s": 0.75,
         "x0": COUPLING_X0, "horizon": COUPLING_H, "replicas": COUPLING_R},
        COUPLING_R * COUPLING_H,
        "replica-slots",
    ),
    "burst": Workload(
        ["prop2", "--i", str(BURST_I), "--theta", "1", "--m", str(BURST_M)],
        {"subcommand": "prop2", "i": BURST_I, "theta": 1.0, "m": BURST_M, "precision": 64},
        2 * BURST_M,  # the plain sample and the stratified complement sample
        "windows",
    ),
}

# The host's speed drifts by up to 2x over minutes, so every end-to-end time
# is scaled by the speed of the machine during that very invocation:
# invoke.py times a fixed stdlib-only task before and after the run.  This is
# that task's total on an idle-ish 2-vCPU Xeon VM under Python 3.11, so
# scaled times read close to wall seconds there.
REFERENCE_CALIBRATION_S = 0.075

LAYERS = ("cli", "estimators", "lindley", "processes", "odometer")
END_TO_END_UNITS = {"run_s": "s", "units_per_s": "units/s", "setup_s": "s", "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "self_s": "s", "self_frac": "ratio", "rows_written": "count", "bytes_written": "bytes",
    "bytes_per_s": "bytes/s", "steps": "count", "steps_per_s": "1/s",
    "couple_used_frac": "ratio", "values_drawn": "count", "values_per_s": "1/s",
    "windows_counted": "count", "windows_per_s": "1/s", "memberships": "count",
    "memberships_per_s": "1/s", "counters_drawn": "count", "complement_draw_ratio": "ratio",
    "overhead_frac": "ratio",
}


def cli_seeds(workload: str, seed: int):
    """CLI seeds of a run: the default seed 0 first, then ones drawn from ``seed``."""
    yield 0
    rng = random.Random(f"{workload}/{seed}")
    while True:
        yield rng.randrange(1, 1 << 63)


def invoke(name: str, cli_seed: int, base: Path, spans: Path | None, timeout: float) -> dict:
    """One invocation, checked.  ``error`` is set if it failed or its outputs did.

    A record that ran to completion carries its timings, ``rows`` and ``bytes``.
    """
    workload = WORKLOADS[name]
    cmd = [sys.executable, str(BENCH / "invoke.py")]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cmd += ["--", "--out", str(base), *workload.argv, "--seed", str(cli_seed)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    record = {"seed": cli_seed, "traced": spans is not None, "error": None}
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        record["error"] = f"timed out after {timeout:.0f} s"
        return record
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        record["error"] = f"exit {proc.returncode}: {tail[0]}"
        return record
    report = json.loads(lines[-1])
    if report["exit"] != 0:
        record["error"] = f"ergoqueue exited {report['exit']}: {proc.stderr.strip()}"
        return record
    try:
        csv_bytes = Path(f"{base}.csv").read_bytes()
        json_size = Path(f"{base}.json").stat().st_size
    except OSError as exc:
        record["error"] = f"missing output: {exc}"
        return record
    record.update(report, rows=csv_bytes.count(b"\n") - 1, bytes=len(csv_bytes) + json_size)
    try:
        check.check(name, base, {**workload.config, "seed": cli_seed})
    except check.CheckError as exc:
        record["error"] = f"check failed: {exc}"
    return record


def at_reference_speed(record: dict, seconds: float) -> float:
    """A time of one invocation, in seconds at the reference machine speed."""
    return seconds * REFERENCE_CALIBRATION_S / record["calibration_s"]


def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced invocation."""
    self_s = record["layers"]["self_s"]
    counts = record["layers"]["counts"]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.self_frac"] = self_s[layer] / record["run_s"]
    out["cli.rows_written"] = record["rows"]
    out["cli.bytes_written"] = record["bytes"]
    out["cli.bytes_per_s"] = rate(record["bytes"], self_s["cli"])
    out["lindley.steps"] = counts["lindley.steps"]
    out["lindley.steps_per_s"] = rate(counts["lindley.steps"], self_s["lindley"])
    out["lindley.couple_used_frac"] = rate(counts["lindley.couple_steps"],
                                           counts["lindley.couple_increments"])
    out["processes.values_drawn"] = counts["processes.values_drawn"]
    out["processes.values_per_s"] = rate(counts["processes.values_drawn"], self_s["processes"])
    out["odometer.windows_counted"] = counts["odometer.windows_counted"]
    out["odometer.windows_per_s"] = rate(counts["odometer.windows_counted"], self_s["odometer"])
    out["odometer.memberships"] = counts["odometer.memberships"]
    out["odometer.memberships_per_s"] = rate(counts["odometer.memberships"], self_s["odometer"])
    out["odometer.counters_drawn"] = counts["odometer.counters_drawn"]
    out["estimators.complement_draw_ratio"] = rate(counts["estimators.complement_drawn"],
                                                   counts["estimators.complement_accepted"])
    return out


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, quartiles {q1:.6g} .. {q3:.6g}"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """Run one workload; returns the result object, or None if no invocation completed."""
    workload = WORKLOADS[name]
    work = WORK / f"{name}-{os.getpid()}"
    spans_dir = WORK / "spans" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir(parents=True)
    records = []
    selftest_problems = []
    start = time.perf_counter()
    try:
        for pair, cli_seed in enumerate(cli_seeds(name, seed)):
            elapsed = time.perf_counter() - start
            if elapsed >= LAST_START_S or (elapsed >= seconds and len(records) >= MIN_INVOCATIONS):
                break
            # the default seed's outputs are kept for the checker self-test
            base = work / ("ref" if cli_seed == 0 else "out")
            modes = ((False, True) if pair % 2 == 0 else (True, False)) if trace else (False,)
            for traced in modes:
                spans = spans_dir / f"{len(records)}.jsonl" if traced else None
                timeout = max(10.0, 170.0 - (time.perf_counter() - start))
                records.append(invoke(name, cli_seed, base, spans, timeout))
        if name == "trajectory":
            if any(r["error"] for r in records if r["seed"] == 0):
                selftest_problems = ["not run, the default-seed outputs failed their check"]
            else:
                accepted = check.selftest(work / "ref", {**workload.config, "seed": 0},
                                          work / "selftest")
                selftest_problems = [f"accepted {label}" for label in accepted]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(1 for r in records if r["error"])
    print(f"ergoqueue benchmark: workload {name}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"  {len(records)} invocations attempted, {failed} failed "
          f"(failed_frac {failed / len(records):.4g})")
    for r in records:
        if r["error"]:
            print(f"  FAILED cli seed {r['seed']}: {r['error']}")
    if name == "trajectory":
        verdict = "; ".join(selftest_problems) or "rejected all 3 corruptions"
        print(f"  checker self-test on the default-seed outputs: {verdict}")

    completed = [r for r in records if "rows" in r]
    plain = [r for r in completed if not r["traced"]]
    traced = [r for r in completed if r["traced"]]
    if not plain or (trace and not traced):
        return None
    if not trace:
        series = {
            "run_s": [at_reference_speed(r, r["run_s"]) for r in plain],
            "units_per_s": [workload.units / at_reference_speed(r, r["run_s"]) for r in plain],
            "setup_s": [at_reference_speed(r, r["setup_s"]) for r in plain],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        }
        units = END_TO_END_UNITS
        print(f"  units: {workload.units} {workload.unit} per invocation; unscaled medians: "
              f"run_s {statistics.median(r['run_s'] for r in plain):.6g} s, "
              f"setup_s {statistics.median(r['setup_s'] for r in plain):.6g} s, "
              f"calibration {statistics.median(r['calibration_s'] for r in plain):.6g} s")
    else:
        per = [layer_metrics(r) for r in traced]
        series = {key: [p[key] for p in per] for key in per[0]}
        traced_s = statistics.median(at_reference_speed(r, r["run_s"]) for r in traced)
        plain_s = statistics.median(at_reference_speed(r, r["run_s"]) for r in plain)
        series["trace.overhead_frac"] = [traced_s / plain_s - 1.0]
        units = {key: LAYER_UNITS[key.split(".", 1)[1]] for key in series}
        print(f"  median scaled run_s traced {traced_s:.6g} s, untraced {plain_s:.6g} s; "
              f"spans in {spans_dir.relative_to(ROOT)}")
    metrics = {}
    for key, values in series.items():
        metrics[key] = {"value": statistics.median(values), "unit": units[key]}
        print(f"  {key:34s} {metrics[key]['value']:<14.6g} {units[key]:8s} {spread(values)}")
    print("meta " + json.dumps(metadata(completed[0]["numpy"])))
    return {
        "correct": failed == 0 and not selftest_problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def metadata(numpy_version: str) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)
    if not (SRC / "ergoqueue" / "cli.py").is_file():
        print(f"error: no ergoqueue sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    for name in names:
        for trace in traces:
            result = run_workload(name, args.seed, args.seconds, trace)
            if result is None:
                print(f"error: no invocation of {name} completed", file=sys.stderr)
                return 1
            print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
