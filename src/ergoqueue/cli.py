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

Floats are written with 17 significant digits (``FLOAT_FORMAT``); exact
rationals as "p/q".  The CSV is written column by column, ``WRITE_BLOCK`` rows
at a time, and is byte for byte what formatting each cell on its own and
writing the rows with ``csv.writer`` would give.
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
from .processes import ProcessError, parse_process, rng_for

__all__ = ["main"]


WRITE_BLOCK = 8192  # CSV rows formatted per block
FLOAT_FORMAT = ".17g"  # the format spec of every float cell


def _fmt(x) -> str:
    """The one formatting rule of a CSV cell."""
    if isinstance(x, float):
        return format(x, FLOAT_FORMAT)
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, Fraction):
        return str(x)
    if x is None:
        return ""
    return str(x)


def _column_text(col) -> list[str]:
    """``_fmt`` of every cell of one column slice.

    A float64 array formats each distinct value once with ``FLOAT_FORMAT``,
    keyed on its bit pattern: ``np.unique`` on the floats would merge -0.0
    with 0.0, which ``_fmt`` writes as "-0" and "0".  An integer array becomes
    Python ints, which ``_fmt`` writes with ``str``.  Anything else goes cell
    by cell.
    """
    if isinstance(col, np.ndarray):
        if col.dtype == np.float64:
            keys, inverse = np.unique(col.view(np.int64), return_inverse=True)
            texts = [format(v, FLOAT_FORMAT) for v in keys.view(np.float64).tolist()]
            return np.array(texts, dtype=object)[inverse].tolist()
        if col.dtype.kind in "iu":
            return list(map(str, col.tolist()))
    return [_fmt(v) for v in col]


def _write_outputs(base: Path, header, columns, summary: dict) -> None:
    """Write BASE.csv from one sequence per header field, and BASE.json.

    The text of a number never holds a delimiter, quote or line break, so
    when every column is a numeric array the rows are joined directly;
    otherwise ``csv.writer`` writes them and does the quoting.  JSON has no
    inf or nan, so a non-finite summary is a ValueError before either file
    is written.
    """
    text = json.dumps(summary, indent=2, allow_nan=False)
    rows = len(columns[0])
    numeric = all(isinstance(col, np.ndarray) and col.dtype.kind in "biuf" for col in columns)
    base.parent.mkdir(parents=True, exist_ok=True)
    with open(f"{base}.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for start in range(0, rows, WRITE_BLOCK):
            block = [_column_text(col[start : start + WRITE_BLOCK]) for col in columns]
            if numeric:
                fh.write("\n".join(map(",".join, zip(*block, strict=True))) + "\n")
            else:
                writer.writerows(zip(*block, strict=True))
    with open(f"{base}.json", "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _finite(values: list[float]) -> list[float]:
    if not all(map(math.isfinite, values)):
        raise ValueError("every entry must be finite")
    return values


def _theta_grid(text: str) -> list[float]:
    """Parse 'start:stop:step' or a comma list."""
    if ":" in text:
        start, stop, step = (float(x) for x in text.split(":"))
        if step <= 0 or stop < start:
            raise ValueError("grid must be start:stop:step with positive step")
        points = (stop - start) / step + 0.5
        if not math.isfinite(points):
            raise ValueError("grid must have a finite number of points")
        count = int(math.floor(points)) + 1
        try:  # start + k * step for every k, one array of the same bits
            grid = start + np.arange(count) * step
        except (MemoryError, ValueError) as exc:
            raise ValueError(f"grid of {count} points does not fit in memory") from exc
        return _finite(grid.tolist())
    return _finite([float(x) for x in text.split(",")])


def _thresholds(text: str) -> list[float]:
    return _finite([float(x) for x in text.split(",")])


_SCALINGS = {
    "linear": lambda t: float(t),
    "sqrt": lambda t: math.sqrt(t),
    "cbrt": lambda t: float(t) ** (1.0 / 3.0),
    "log1p": lambda t: math.log1p(t),
}


# ---------------------------------------------------------------------------
# subcommand implementations: each takes the resolved config with every
# declared option present (``_with_defaults``) and returns (csv header, csv
# columns, results object for the JSON summary)


def _run_simulate(cfg: dict):
    proc = parse_process(cfg["process"])
    report = estimators.queue_tail_run(
        proc,
        cfg["s"],
        cfg["thresholds"],
        cfg["horizon"],
        cfg["burn_in"],
        rng=rng_for(cfg["seed"]),
    )
    tail = report.tail
    columns = [tail.thresholds, tail.survival, tail.std_errors]
    return ["threshold", "survival", "std_error"], columns, report.to_json()


def _run_loynes(cfg: dict):
    proc = parse_process(cfg["process"])
    window = proc.backward_window(cfg["window"], rng_for(cfg["seed"])) - cfg["s"]
    sums = lindley.partial_sums(window)
    maxima = lindley.loynes_prefix_maxima(window)
    result = lindley.loynes_sup(window, slack=cfg["slack"])
    return (
        ["n", "partial_sum", "running_max"],
        [np.arange(sums.size), sums, maxima],
        {
            "value": result.value,
            "argmax": result.argmax,
            "converged": result.converged,
            "window": cfg["window"],
        },
    )


class _Shifted:
    """The blocks of a sample of n values, each less s: a stream sized n."""

    def __init__(self, blocks, n: int, s: float):
        self.blocks, self.n, self.s = blocks, n, s

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return (y - self.s for y in self.blocks)


def _run_couple(cfg: dict):
    proc = parse_process(cfg["process"])
    times, uppers, lowers = [], [], []
    for r in range(cfg["replicas"]):
        # the coupler reads the sample only up to its stopping step, and the
        # sampler draws only the blocks read
        y = proc.blocks(cfg["horizon"], rng_for(cfg["seed"], r))
        res = lindley.forward_couple(cfg["x0"], _Shifted(y, cfg["horizon"], cfg["s"]))
        times.append(res.coupling_time)
        uppers.append(res.final_upper)
        lowers.append(res.final_lower)
    coupled = [t for t in times if t is not None]
    summary = {
        "replicas": cfg["replicas"],
        "coupled": len(coupled),
        "max_coupling_time": max(coupled) if coupled else None,
        "mean_coupling_time": (sum(coupled) / len(coupled)) if coupled else None,
    }
    columns = [range(cfg["replicas"]), times, uppers, lowers]
    return ["replica", "coupling_time", "final_upper", "final_lower"], columns, summary


def _run_gg1(cfg: dict):
    service, interarrival = parse_process(cfg["service"]), parse_process(cfg["interarrival"])
    rng = rng_for(cfg["seed"])  # one generator: the services first, then the gaps
    services = service.forward(cfg["n"], rng)
    trace = lindley.waiting_path(services, interarrival.forward(cfg["n"], rng))
    summary = {
        "n": cfg["n"],
        "mean_wait": float(np.mean(trace.states)),
        "max_wait": float(np.max(trace.states)),
        "final_wait": float(trace.states[-1]),
    }
    return ["n", "waiting_time"], [np.arange(trace.states.size), trace.states], summary


def _run_tandem(cfg: dict):
    proc = parse_process(cfg["process"])
    y = proc.forward(cfg["horizon"], rng_for(cfg["seed"]))
    first, outputs, second = lindley.tandem_path(y, cfg["s1"], cfg["s2"])
    n = outputs.size
    columns = [np.arange(n), y[:n], first.states[1:], outputs, second.states[1:]]
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
    return ["n", "arrival", "queue1", "output1", "queue2"], columns, summary


def _run_odometer(cfg: dict):
    precision = cfg["precision"]
    if cfg["mode"] == "measure":
        i_max = cfg["i_max"]
        if i_max is None:
            raise ValueError("measure mode needs i_max")
        odometer.band_limit(precision, i_max)
        bands = range(i_max + 1)
        measures = odometer.arrival_set_measures(i_max)
        columns = [bands, [Fraction(1, 1 << (i + 2)) for i in bands], measures]
        summary = {
            "i_max": i_max,
            "union_measure": str(measures[-1]),
            "tail_bound": str(Fraction(1, 1 << (i_max + 2))),
            "components": odometer.arrival_set_components(i_max),
        }
        return ["i", "band_measure", "union_measure"], columns, summary
    # orbit mode
    value = cfg["value"]
    if value is None:
        raise ValueError("orbit mode needs value")
    if isinstance(value, str) and value.startswith("0x"):
        p = odometer.DyadicPoint(int(value, 16), precision)
    else:
        try:
            frac = Fraction(value)
        except (ZeroDivisionError, OverflowError, TypeError) as exc:
            raise ValueError(f"value must be a finite fraction, got {value!r}") from exc
        p = odometer.DyadicPoint.from_fraction(frac, precision)
    steps = cfg["steps"]
    sign = -1 if cfg["direction"] == "backward" else 1
    ks = range(steps + 1)
    points = [odometer.apply_power(p, sign * k) for k in ks]
    columns = [
        ks,
        [format(pt.counter, "x") for pt in points],
        [float(pt.value) for pt in points],
        [odometer.in_arrival_set(pt, cfg["i_max"]) for pt in points],
    ]
    summary = {
        "start": p.to_json(),
        "steps": steps,
        "first_one_index": odometer.first_one_index(p) if p.counter else None,
    }
    return ["k", "counter_hex", "value", "arrival"], columns, summary


def _run_cumulant(cfg: dict):
    proc = parse_process(cfg["process"])
    est = estimators.estimate_lambda_grid(
        proc, cfg["theta_grid"], cfg["n"], cfg["m"], rng_for(cfg["seed"]), s=cfg["s"]
    )
    return ["theta", "lambda_hat"], [est.thetas, est.lambda_hat], est.to_json()


def _run_scaled_cumulant(cfg: dict):
    proc = parse_process(cfg["process"])
    scaling = estimators.ScalingFunctions(
        a=_SCALINGS[cfg["a_scale"]], v=_SCALINGS[cfg["v_scale"]]
    )
    thetas = cfg["theta_grid"]
    sums = estimators.block_sums(proc, cfg["n"], cfg["m"], rng_for(cfg["seed"]))
    values = [
        estimators.scaled_lambda_from_sums(sums, theta, scaling, cfg["s"], cfg["n"])
        for theta in thetas
    ]
    summary = {
        "a_scale": cfg["a_scale"],
        "v_scale": cfg["v_scale"],
        "n": cfg["n"],
        "m": cfg["m"],
        "s": cfg["s"],
        "values": {format(t, FLOAT_FORMAT): v for t, v in zip(thetas, values)},
    }
    return ["theta", "scaled_lambda"], [thetas, values], summary


def _run_prop1(cfg: dict):
    report = estimators.burst_probability_report(
        cfg["i"], cfg["m"], rng_for(cfg["seed"]), cfg["precision"]
    )
    data = report.to_json()
    header = ["i", "window", "offset", "m", "hits", "p_hat", "mu_A", "target", "lower_valid",
              "pass"]
    return header, [[data[key]] for key in header], data


def _run_prop2(cfg: dict):
    report = estimators.burst_cumulant_report(
        cfg["i"], cfg["theta"], cfg["m"], rng_for(cfg["seed"]), cfg["precision"]
    )
    data = report.to_json()
    header = ["i", "theta", "window", "m", "lower_bound", "lambda_strat", "upper_bound",
              "lambda_plain", "gap"]
    row = dict(data, window=data["n"])
    return header, [[row[key]] for key in header], data


# ---------------------------------------------------------------------------
# the subcommand table: name -> (runner, help, description, options), each
# option (key, kind, default[, help]).  A kind is str, float (a real number),
# INT, COUNT, TEXT_OR_REAL, a tuple of choices, or a text parser that turns
# the flag into a list of finite reals.  The order of the options is the
# order of the keys in the JSON config.

INT = "an integer"
COUNT = "a nonnegative integer"  # sizes and lengths: negative is not read as empty
TEXT_OR_REAL = "a string or a real number"
REQUIRED = ...  # the default of an option that must be given

_SEED = ("seed", INT, 0, "global 64-bit seed")
_PROCESS = ("process", str, REQUIRED)
_SCALES = tuple(sorted(_SCALINGS))

_SUBCOMMANDS = {
    "simulate": (
        _run_simulate, "queue tail by time averages",
        "CSV schema: threshold, survival, std_error.",
        [_PROCESS, ("s", float, REQUIRED), ("horizon", COUNT, REQUIRED), ("burn_in", COUNT, None),
         ("thresholds", _thresholds, "0,1,2,4,8,16"), _SEED],
    ),
    "loynes": (
        _run_loynes, "backward window partial sums and running maxima",
        "CSV schema: n, partial_sum, running_max (nondecreasing).",
        [_PROCESS, ("s", float, REQUIRED), ("window", COUNT, REQUIRED), ("slack", float, 0.0),
         _SEED],
    ),
    "couple": (
        _run_couple, "forward coupling times over replicas",
        "CSV schema: replica, coupling_time, final_upper, final_lower.",
        [_PROCESS, ("s", float, REQUIRED), ("x0", float, REQUIRED), ("horizon", COUNT, REQUIRED),
         ("replicas", COUNT, 100), _SEED],
    ),
    "gg1": (
        _run_gg1, "single-server waiting times", "CSV schema: n, waiting_time.",
        [("service", str, REQUIRED), ("interarrival", str, REQUIRED), ("n", COUNT, REQUIRED),
         _SEED],
    ),
    "tandem": (
        _run_tandem, "two stations in series", "CSV schema: n, arrival, queue1, output1, queue2.",
        [_PROCESS, ("s1", float, REQUIRED), ("s2", float, REQUIRED), ("horizon", COUNT, REQUIRED),
         _SEED],
    ),
    "odometer": (
        _run_odometer, "orbit, membership, and measure queries",
        "orbit mode CSV: k, counter_hex, value, arrival; "
        "measure mode CSV: i, band_measure, union_measure.",
        [("mode", ("orbit", "measure"), "orbit"),
         ("value", TEXT_OR_REAL, None, "start point: fraction like 3/4, float, or 0x<hex counter>"),
         ("steps", COUNT, 16), ("direction", ("forward", "backward"), "forward"),
         ("precision", INT, odometer.DEFAULT_PRECISION), ("i_max", INT, None), _SEED],
    ),
    "cumulant": (
        _run_cumulant, "scaled log-moment curve and tail decay", "CSV schema: theta, lambda_hat.",
        [_PROCESS, ("theta_grid", _theta_grid, "0:3:0.05"), ("n", COUNT, REQUIRED),
         ("m", COUNT, REQUIRED), ("s", float, None), _SEED],
    ),
    "scaled-cumulant": (
        _run_scaled_cumulant, "generalized scalings of the centered log-moment",
        "CSV schema: theta, scaled_lambda.",
        [_PROCESS, ("theta_grid", _theta_grid, "0:3:0.25"), ("a_scale", _SCALES, "linear"),
         ("v_scale", _SCALES, "linear"), ("n", COUNT, REQUIRED), ("m", COUNT, REQUIRED),
         ("s", float, REQUIRED), _SEED],
    ),
    "prop1": (
        _run_prop1, "burst overflow probability vs exact band-measure bounds",
        "CSV schema: i, window, offset, m, hits, p_hat, mu_A, target, lower_valid, pass.",
        [("i", INT, REQUIRED), ("m", COUNT, REQUIRED),
         ("precision", INT, odometer.DEFAULT_PRECISION), _SEED],
    ),
    "prop2": (
        _run_prop2, "window log-moment sandwich between exact bounds",
        "CSV schema: i, theta, window, m, lower_bound, lambda_strat, "
        "upper_bound, lambda_plain, gap.",
        [("i", INT, REQUIRED), ("theta", float, REQUIRED), ("m", COUNT, REQUIRED),
         ("precision", INT, odometer.DEFAULT_PRECISION), _SEED],
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergoqueue",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    parser.add_argument("--config", help="replay a saved JSON configuration")
    parser.add_argument("--out", help="output base path (writes BASE.csv and BASE.json)")
    sub = parser.add_subparsers(dest="subcommand")
    for name, (_, help_text, description, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=description, allow_abbrev=False)
        for key, kind, default, *option_help in options:
            # integers stay text here: _resolve_config converts them, so a bad
            # one is the JSON error rather than a usage error
            required = default is REQUIRED
            p.add_argument(
                "--" + key.replace("_", "-"),
                type=kind if callable(kind) else None,
                choices=kind if isinstance(kind, tuple) else None,
                required=required,
                default=None if required else default,
                help=option_help[0] if option_help else None,
            )
        # SUPPRESS so an absent sub-level flag cannot shadow the top-level one
        p.add_argument("--out", default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return parser


def _joined_values(argv: list[str]) -> list[str]:
    """argv with each declared option and the token after it joined as ``--key=value``.

    Every option takes exactly one value, so the token after it is its value
    even when it starts with "-", as in ``--slack -1e-3`` or ``--theta-grid
    -1:1:0.5``, which argparse would otherwise read as an unknown flag.  The
    parsers take no abbreviation, so an option has only the names joined here.
    """
    options = {"--config", "--out"} | {
        "--" + key.replace("_", "-") for *_, opts in _SUBCOMMANDS.values() for key, *_ in opts
    }
    joined, tokens = [], iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in options else None
        joined.append(token if value is None else f"{token}={value}")
    return joined


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


def _is_real(value) -> bool:
    """An int or float, not a bool, that a double holds finitely: no inf, no nan."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _checked(key: str, kind, default, value):
    """One option's value, from a flag or a config file, checked against its kind.

    Integers are converted by ``_as_int``; every other value is returned as
    it came, so a replayed config writes the same bytes.
    """
    if value is None and default is None:
        return None
    if kind in (INT, COUNT):
        number = _as_int(key, value)
        if kind == COUNT and number < 0:
            raise ValueError(f"{key} must be nonnegative, got {number}")
        return number
    if kind is str:
        ok, want = isinstance(value, str), "a string"
    elif kind is float:
        ok, want = _is_real(value), "a real number"
    elif kind == TEXT_OR_REAL:
        ok, want = isinstance(value, str) or _is_real(value), kind
    elif isinstance(kind, tuple):
        ok, want = value in kind, "one of " + ", ".join(kind)
    else:  # a text parser's list
        ok = isinstance(value, list) and all(map(_is_real, value))
        want = "a list of finite real numbers"
    if not ok:
        raise ValueError(f"{key} must be {want}, got {value!r}")
    return value


def _resolve_config(args: argparse.Namespace) -> dict:
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                cfg = json.load(fh)
            except RecursionError as exc:  # nested deeper than the interpreter's stack
                raise ValueError("config file nests too deeply") from exc
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        # a run's own summary file works directly: unwrap its config object
        if "subcommand" not in cfg and isinstance(cfg.get("config"), dict):
            cfg = cfg["config"]
        sub = cfg.get("subcommand")
        if not isinstance(sub, str) or sub not in _SUBCOMMANDS:
            raise ValueError(f"config file must carry a known 'subcommand', got {sub!r}")
    else:
        if not args.subcommand:
            raise ValueError("a subcommand or --config is required")
        cfg = {k: v for k, v in vars(args).items() if k not in ("config", "out") and v is not None}
    cfg = dict(cfg)
    options = _SUBCOMMANDS[cfg["subcommand"]][3]
    declared = {key for key, *_ in options}
    for key in cfg:
        if key != "subcommand" and key not in declared:
            raise ValueError(f"{cfg['subcommand']} has no option {key!r}")
    for key, kind, default, *_ in options:
        if key in cfg:
            cfg[key] = _checked(key, kind, default, cfg[key])
    return cfg


def _with_defaults(cfg: dict) -> dict:
    """The runner's view of a resolved config: every declared option, defaulted if absent.

    A text default goes through its kind as argparse sends it through the
    flag's type, so a bare config runs as the flags would.
    """
    name = cfg["subcommand"]
    view = dict(cfg)
    for key, kind, default, *_ in _SUBCOMMANDS[name][3]:
        if key in view:
            continue
        if default is REQUIRED:
            raise ValueError(f"{name} needs option {key!r}")
        view[key] = kind(default) if callable(kind) and isinstance(default, str) else default
    return view


def _default_base(subcommand: str) -> Path:
    root = os.environ.get("ERGOQUEUE_OUT", ".")
    return Path(root) / subcommand


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    try:
        cfg = _resolve_config(args)
        header, columns, results = _SUBCOMMANDS[cfg["subcommand"]][0](_with_defaults(cfg))
        base = Path(args.out) if args.out else _default_base(cfg["subcommand"])
        _write_outputs(base, header, columns, {"config": cfg, "results": results})
    except (ProcessError, ValueError, OSError, KeyError, MemoryError) as exc:
        json.dump({"error": f"{type(exc).__name__}: {exc}"}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    print(f"wrote {base}.csv and {base}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
