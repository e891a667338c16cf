"""Experiment runner.

Every subcommand writes two files next to each other: ``BASE.csv`` with one
row per measurement and ``BASE.json`` with a summary that embeds the resolved
configuration.  BASE comes from ``--out``; its default directory is the
``ERGOQUEUE_OUT`` environment variable (falling back to the working
directory) and its default name is the subcommand.  Runs are deterministic
given the configuration: one global seed, and replica r of any replicated
study draws from SeedSequence(seed, spawn_key=(r,)), so growing the replica
count never perturbs earlier replicas.

A saved run can be replayed with ``--config FILE``: pass the JSON summary a
run wrote (its embedded ``config`` object is unwrapped) or a bare
configuration dict; either reproduces the files byte for byte.

Floats are written with 17 significant digits; exact rationals as "p/q".
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import estimators, lindley, odometer
from .processes import (
    GG1System,
    OdometerProcess,
    ProcessError,
    parse_process,
    rng_for,
)

__all__ = ["main"]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def _write_outputs(base: Path, header, rows, summary: dict) -> None:
    base.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{base}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    with open(f"{base}.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")


def _theta_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' or a comma list."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if step <= 0 or stop < start:
            raise ValueError("grid must be start:stop:step with positive step")
        count = int(math.floor((stop - start) / step + 0.5)) + 1
        return [start + k * step for k in range(count)]
    return [float(x) for x in text.split(",")]


def _thresholds(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


_SCALINGS = {
    "linear": lambda t: float(t),
    "sqrt": lambda t: math.sqrt(t),
    "cbrt": lambda t: float(t) ** (1.0 / 3.0),
    "log1p": lambda t: math.log1p(t),
}


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the resolved config dict and
# returns (csv header, csv rows, results object for the JSON summary)


def _run_simulate(cfg: dict):
    proc = parse_process(cfg["process"])
    report = estimators.queue_tail_run(
        proc,
        cfg["s"],
        cfg["thresholds"],
        cfg["horizon"],
        cfg.get("burn_in"),
        rng_for(cfg["seed"]),
    )
    rows = [
        (q, p, se)
        for q, p, se in zip(
            report.tail.thresholds, report.tail.survival, report.tail.std_errors
        )
    ]
    return ["threshold", "survival", "std_error"], rows, report.to_json()


def _run_loynes(cfg: dict):
    proc = parse_process(cfg["process"])
    window = proc.backward_window(cfg["window"], rng_for(cfg["seed"])) - cfg["s"]
    sums = lindley.partial_sums(window)
    maxima = lindley.loynes_prefix_maxima(window)
    result = lindley.loynes_sup(window, slack=cfg.get("slack", 0.0))
    rows = [(n, sums[n], maxima[n]) for n in range(sums.size)]
    return (
        ["n", "partial_sum", "running_max"],
        rows,
        {
            "value": result.value,
            "argmax": result.argmax,
            "converged": result.converged,
            "window": cfg["window"],
        },
    )


def _run_couple(cfg: dict):
    proc = parse_process(cfg["process"])
    rows = []
    times = []
    for r in range(cfg["replicas"]):
        y = proc.forward(cfg["horizon"], rng_for(cfg["seed"], r))
        res = lindley.forward_couple(cfg["x0"], np.asarray(y) - cfg["s"])
        rows.append((r, res.coupling_time, res.final_upper, res.final_lower))
        times.append(res.coupling_time)
    coupled = [t for t in times if t is not None]
    summary = {
        "replicas": cfg["replicas"],
        "coupled": len(coupled),
        "max_coupling_time": max(coupled) if coupled else None,
        "mean_coupling_time": (sum(coupled) / len(coupled)) if coupled else None,
    }
    return ["replica", "coupling_time", "final_upper", "final_lower"], rows, summary


def _run_gg1(cfg: dict):
    system = GG1System(parse_process(cfg["service"]), parse_process(cfg["interarrival"]))
    trace = system.waiting_trace(cfg["n"], rng_for(cfg["seed"]))
    rows = list(enumerate(trace.states.tolist()))
    summary = {
        "n": cfg["n"],
        "mean_wait": float(np.mean(trace.states)),
        "max_wait": float(np.max(trace.states)),
        "final_wait": float(trace.states[-1]),
    }
    return ["n", "waiting_time"], rows, summary


def _run_tandem(cfg: dict):
    proc = parse_process(cfg["process"])
    y = proc.forward(cfg["horizon"], rng_for(cfg["seed"]))
    first, outputs, second = lindley.tandem_path(y, cfg["s1"], cfg["s2"])
    rows = [
        (n, y[n], first.states[n + 1], outputs[n], second.states[n + 1])
        for n in range(outputs.size)
    ]
    total_in = float(np.sum(y))
    total_out = float(np.sum(outputs))
    summary = {
        "horizon": cfg["horizon"],
        "total_input": total_in,
        "total_first_output": total_out,
        "first_backlog_change": float(first.states[-1] - first.states[0]),
        "conservation_exact": total_in - total_out == float(first.states[-1] - first.states[0]),
        "second_backlog_final": float(second.states[-1]),
    }
    return ["n", "arrival", "queue1", "output1", "queue2"], rows, summary


def _run_odometer(cfg: dict):
    mode = cfg.get("mode", "orbit")
    precision = cfg.get("precision", odometer.DEFAULT_PRECISION)
    if mode == "measure":
        i_max = cfg["i_max"]
        rows = []
        for i in range(i_max + 1):
            rows.append(
                (
                    i,
                    odometer.arrival_band(i, precision).measure,
                    odometer.arrival_set_measure(i),
                )
            )
        truncated, tail = odometer.arrival_set_truncated(
            min(i_max, odometer.band_limit(precision)), precision
        )
        summary = {
            "i_max": i_max,
            "union_measure": str(odometer.arrival_set_measure(i_max)),
            "tail_bound": str(tail),
            "components": len(truncated),
        }
        return ["i", "band_measure", "union_measure"], rows, summary
    # orbit mode
    value = cfg["value"]
    if isinstance(value, str) and value.startswith("0x"):
        p = odometer.DyadicPoint(int(value, 16), precision)
    else:
        frac = Fraction(value) if isinstance(value, str) else Fraction(float(value))
        p = odometer.DyadicPoint.from_fraction(frac, precision)
    steps = cfg.get("steps", 16)
    sign = -1 if cfg.get("direction", "forward") == "backward" else 1
    rows = []
    for k in range(steps + 1):
        pt = odometer.apply_power(p, sign * k)
        rows.append(
            (
                k,
                format(pt.counter, "x"),
                float(pt.value),
                odometer.in_arrival_set(pt, cfg.get("i_max")),
            )
        )
    summary = {
        "start": p.to_json(),
        "steps": steps,
        "first_one_index": odometer.first_one_index(p) if p.counter else None,
    }
    return ["k", "counter_hex", "value", "arrival"], rows, summary


def _run_cumulant(cfg: dict):
    proc = parse_process(cfg["process"])
    est = estimators.estimate_lambda_grid(
        proc, cfg["theta_grid"], cfg["n"], cfg["m"], rng_for(cfg["seed"]), s=cfg.get("s")
    )
    rows = list(zip(est.thetas, est.lambda_hat))
    return ["theta", "lambda_hat"], rows, est.to_json()


def _run_scaled_cumulant(cfg: dict):
    proc = parse_process(cfg["process"])
    scaling = estimators.ScalingFunctions(
        a=_SCALINGS[cfg["a_scale"]], v=_SCALINGS[cfg["v_scale"]]
    )
    rows = []
    for theta in cfg["theta_grid"]:
        val = estimators.estimate_scaled_lambda(
            proc, theta, scaling, cfg["s"], cfg["n"], cfg["m"], rng_for(cfg["seed"])
        )
        rows.append((theta, val))
    summary = {
        "a_scale": cfg["a_scale"],
        "v_scale": cfg["v_scale"],
        "n": cfg["n"],
        "m": cfg["m"],
        "s": cfg["s"],
        "values": {format(t, ".17g"): v for t, v in rows},
    }
    return ["theta", "scaled_lambda"], rows, summary


def _run_prop1(cfg: dict):
    report = estimators.burst_probability_report(
        cfg["i"], cfg["m"], rng_for(cfg["seed"]), cfg.get("precision", 64)
    )
    data = report.to_json()
    rows = [
        (
            report.params.i,
            report.params.window,
            report.params.offset,
            report.m,
            report.hits,
            report.p_hat,
            report.exact_lower,
            report.target,
            report.lower_valid,
            report.analytic_pass,
        )
    ]
    header = [
        "i",
        "window",
        "offset",
        "m",
        "hits",
        "p_hat",
        "mu_A",
        "target",
        "lower_valid",
        "pass",
    ]
    return header, rows, data


def _run_prop2(cfg: dict):
    report = estimators.burst_cumulant_report(
        cfg["i"], cfg["theta"], cfg["m"], rng_for(cfg["seed"]), cfg.get("precision", 64)
    )
    data = report.to_json()
    rows = [
        (
            report.i,
            report.theta,
            report.n,
            report.m,
            report.lower_bound,
            report.lambda_strat,
            report.upper_bound,
            report.lambda_plain,
            report.gap,
        )
    ]
    header = [
        "i",
        "theta",
        "window",
        "m",
        "lower_bound",
        "lambda_strat",
        "upper_bound",
        "lambda_plain",
        "gap",
    ]
    return header, rows, data


_RUNNERS = {
    "simulate": _run_simulate,
    "loynes": _run_loynes,
    "couple": _run_couple,
    "gg1": _run_gg1,
    "tandem": _run_tandem,
    "odometer": _run_odometer,
    "cumulant": _run_cumulant,
    "scaled-cumulant": _run_scaled_cumulant,
    "prop1": _run_prop1,
    "prop2": _run_prop2,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergoqueue",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--config", help="replay a saved JSON configuration")
    parser.add_argument("--out", help="output base path (writes BASE.csv and BASE.json)")
    sub = parser.add_subparsers(dest="subcommand")

    def common(p):
        p.add_argument("--seed", default=0, help="global 64-bit seed")
        # SUPPRESS so an absent sub-level flag cannot shadow the top-level one
        p.add_argument("--out", default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    p = sub.add_parser(
        "simulate",
        help="queue tail by time averages",
        description="CSV schema: threshold, survival, std_error.",
    )
    p.add_argument("--process", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--horizon", required=True)
    p.add_argument("--burn-in", default=None)
    p.add_argument("--thresholds", type=_thresholds, default="0,1,2,4,8,16")
    common(p)

    p = sub.add_parser(
        "loynes",
        help="backward window partial sums and running maxima",
        description="CSV schema: n, partial_sum, running_max (nondecreasing).",
    )
    p.add_argument("--process", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--window", required=True)
    p.add_argument("--slack", type=float, default=0.0)
    common(p)

    p = sub.add_parser(
        "couple",
        help="forward coupling times over replicas",
        description="CSV schema: replica, coupling_time, final_upper, final_lower.",
    )
    p.add_argument("--process", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--horizon", required=True)
    p.add_argument("--replicas", default=100)
    common(p)

    p = sub.add_parser(
        "gg1",
        help="single-server waiting times",
        description="CSV schema: n, waiting_time.",
    )
    p.add_argument("--service", required=True)
    p.add_argument("--interarrival", required=True)
    p.add_argument("--n", required=True)
    common(p)

    p = sub.add_parser(
        "tandem",
        help="two stations in series",
        description="CSV schema: n, arrival, queue1, output1, queue2.",
    )
    p.add_argument("--process", required=True)
    p.add_argument("--s1", type=float, required=True)
    p.add_argument("--s2", type=float, required=True)
    p.add_argument("--horizon", required=True)
    common(p)

    p = sub.add_parser(
        "odometer",
        help="orbit, membership, and measure queries",
        description=(
            "orbit mode CSV: k, counter_hex, value, arrival; "
            "measure mode CSV: i, band_measure, union_measure."
        ),
    )
    p.add_argument("--mode", choices=["orbit", "measure"], default="orbit")
    p.add_argument("--value", help="start point: fraction like 3/4, float, or 0x<hex counter>")
    p.add_argument("--steps", default=16)
    p.add_argument("--direction", choices=["forward", "backward"], default="forward")
    p.add_argument("--precision", default=odometer.DEFAULT_PRECISION)
    p.add_argument("--i-max", default=None)
    common(p)

    p = sub.add_parser(
        "cumulant",
        help="scaled log-moment curve and tail decay",
        description="CSV schema: theta, lambda_hat.",
    )
    p.add_argument("--process", required=True)
    p.add_argument("--theta-grid", type=_theta_grid, default="0:3:0.05")
    p.add_argument("--n", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--s", type=float, default=None)
    common(p)

    p = sub.add_parser(
        "scaled-cumulant",
        help="generalized scalings of the centered log-moment",
        description="CSV schema: theta, scaled_lambda.",
    )
    p.add_argument("--process", required=True)
    p.add_argument("--theta-grid", type=_theta_grid, default="0:3:0.25")
    p.add_argument("--a-scale", choices=sorted(_SCALINGS), default="linear")
    p.add_argument("--v-scale", choices=sorted(_SCALINGS), default="linear")
    p.add_argument("--n", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--s", type=float, required=True)
    common(p)

    p = sub.add_parser(
        "prop1",
        help="burst overflow probability vs exact band-measure bounds",
        description="CSV schema: i, window, offset, m, hits, p_hat, mu_A, target, lower_valid, pass.",
    )
    p.add_argument("--i", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--precision", default=odometer.DEFAULT_PRECISION)
    common(p)

    p = sub.add_parser(
        "prop2",
        help="window log-moment sandwich between exact bounds",
        description=(
            "CSV schema: i, theta, window, m, lower_bound, lambda_strat, "
            "upper_bound, lambda_plain, gap."
        ),
    )
    p.add_argument("--i", required=True)
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--precision", default=odometer.DEFAULT_PRECISION)
    common(p)

    return parser


_INT_KEYS = {
    "horizon",
    "burn_in",
    "window",
    "replicas",
    "n",
    "m",
    "steps",
    "i",
    "i_max",
    "precision",
    "seed",
}


_PLAIN_INT = re.compile(r"\s*[+-]?[0-9]+\s*")


def _as_int(key: str, value) -> int:
    """The one conversion of an integer key, from a flag or a config file.

    Plain integer spellings are exact at any size.  Other spellings, and
    numbers read from a config file, are taken as doubles and must hold an
    integral value: 1e6 works, while 10.7, 1e400 and nan fail.
    """
    if type(value) is int:  # not bool
        return value
    if isinstance(value, str) and _PLAIN_INT.fullmatch(value):
        return int(value)
    try:
        number = float(value) if isinstance(value, (float, str)) else math.nan
    except ValueError:
        number = math.nan
    if not number.is_integer():  # also rejects inf and nan
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(number)


def _resolve_config(args: argparse.Namespace) -> dict:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            cfg = json.load(fh)
        # a run's own summary file works directly: unwrap its config object
        if "subcommand" not in cfg and isinstance(cfg.get("config"), dict):
            cfg = cfg["config"]
        if "subcommand" not in cfg:
            raise ValueError("config file must carry a 'subcommand' field")
    else:
        if not args.subcommand:
            raise ValueError("a subcommand or --config is required")
        cfg = {
            k: v
            for k, v in vars(args).items()
            if k not in ("config", "out") and v is not None
        }
    cfg = dict(cfg)
    for key in list(cfg):
        if key in _INT_KEYS and cfg[key] is not None:
            cfg[key] = _as_int(key, cfg[key])
    return cfg


def _default_base(subcommand: str) -> Path:
    root = os.environ.get("ERGOQUEUE_OUT", ".")
    return Path(root) / subcommand


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        sub = cfg["subcommand"]
        runner = _RUNNERS.get(sub)
        if runner is None:
            raise ValueError(f"unknown subcommand {sub!r}")
        header, rows, results = runner(cfg)
    except (ProcessError, ValueError, OSError, KeyError, MemoryError) as exc:
        json.dump({"error": f"{type(exc).__name__}: {exc}"}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    base = Path(args.out) if args.out else _default_base(cfg["subcommand"])
    summary = {"config": cfg, "results": results}
    _write_outputs(base, header, rows, summary)
    print(f"wrote {base}.csv and {base}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
