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
rationals as "p/q".  A runner hands over its rows as a stream of column
blocks: ``simulate``, ``tandem`` and ``gg1`` as they compute them, so memory
does not grow with the horizon, and the summary is read after the last
block.  The CSV is written under a temporary name beside BASE and renamed
once the summary has serialized, so a run that fails, mid-stream too,
leaves neither file.  The CSV is assembled as bytes, the header as a one-row
block and then ``WRITE_BLOCK`` rows at a time: integers four digits per
division, read from tables; doubles and booleans from one text table per
column for the whole run, which formats each bit pattern once (a block that
would take it past ``TEXT_TABLE_CAP`` patterns starts it afresh); any other
cell by ``_fmt``.  The padding is dropped in one byte pass.  The bytes are
what ``csv.writer`` writes for those cells.  A cell it would quote (one
holding a comma, quote, CR or LF, or an empty field alone in its row) or one
holding NUL or non-ASCII text is a ValueError.
"""

from __future__ import annotations

import collections
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
TEXT_TABLE_CAP = 4096  # bit patterns a column's text table keeps between blocks
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


# a character of a cell that ``csv.writer`` would quote (CR on some Python
# versions only), that the assembly would drop (NUL), or that ASCII lacks
_NEEDS_QUOTING = re.compile('[,"\r\n\x00]|[^\x00-\x7f]')


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct keys, sorted: one sort, keeping the first of each run of equal keys."""
    keys = np.sort(keys)
    first = np.empty(keys.size, bool)
    first[:1] = True  # nothing to keep in a 0-row column
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys[first]


class _TextTable:
    """``_fmt`` of each bit pattern a float64 or bool CSV column has shown, kept across blocks.

    The patterns are keyed as signed integers, so -0.0 ("-0") stays apart
    from 0.0 ("0") and each NaN payload is its own key.  ``keys`` is sorted,
    and ``texts`` holds their texts NUL-padded to whole uint64 words, the
    longest ``width`` bytes.  A block's cells are found by ``searchsorted``
    and checked for equality; only the distinct keys it misses are formatted,
    as the Python scalars ``tolist`` gives.  A block that would take the
    table past ``TEXT_TABLE_CAP`` keys starts it afresh from its own distinct
    keys, and a table past the cap is not searched: the next block does too.
    """

    def __init__(self):
        self.keys, self.texts, self.width = np.empty(0, np.int8), np.empty(0, "S8"), 1

    def _merge(self, keep: int, new: np.ndarray, dtype: np.dtype) -> None:
        """Keep the first ``keep`` entries (all or none) and add the distinct ``new`` keys."""
        texts = np.array(list(map(_fmt, new.view(dtype).tolist())), dtype="S")
        self.width = max(texts.itemsize, self.width if keep else 1)
        keys = np.concatenate([self.keys[:keep], new])
        texts = np.concatenate([self.texts[:keep], texts.astype(f"S{-(-texts.itemsize // 8) * 8}")])
        self.keys, self.texts = (np.sort(keys), np.empty_like(texts)) if keep else (keys, texts)
        if keep:  # new alone is sorted; all the keys are distinct
            self.texts[np.searchsorted(self.keys, keys)] = texts

    def cells(self, col: np.ndarray) -> np.ndarray:
        """The NUL-padded text of each cell of ``col``, one row of bytes each."""
        keys = col.view(f"i{col.dtype.itemsize}")
        known = self.keys
        keep = known.size if known.size <= TEXT_TABLE_CAP and known.dtype == keys.dtype else 0
        if keep:
            at = np.searchsorted(known[:-1], keys)  # a key past the last is checked against it
            missed = known[at] != keys
        if not keep or np.count_nonzero(missed):
            new = _distinct(keys[missed] if keep else keys)
            if keep and keep + new.size > TEXT_TABLE_CAP:
                keep, new = 0, _distinct(keys)
            self._merge(keep, new, col.dtype)
            at = np.searchsorted(self.keys, keys)
        words = self.texts.view(np.uint64).reshape(self.keys.size, self.texts.itemsize // 8)
        return np.take(words, at, axis=0).view(np.uint8)[:, : self.width]


def _digit_groups() -> np.ndarray:
    """The four-byte text of each group 0..9999: NUL-padded (0 blank), then zero-padded."""
    groups = np.empty((2, 10**4, 4), np.uint8)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for k in range(4):
        groups.reshape(2, 10, 10, 10, 10, 4)[..., k] = digit.reshape((10,) + (1,) * (3 - k))
        groups[0, : 10 ** (3 - k), k] = 0  # the leading zeros of a NUL-padded group
    return groups.view(np.uint32).ravel()


_GROUPS = _digit_groups()


def _int_bytes(col: np.ndarray) -> list:
    """The decimal text of each cell of an integer column, as NUL-padded byte matrices.

    The magnitudes are taken in uint64, so -2**63 and 2**64-1 are exact, and
    in int32 when they fit.  Each four-digit group, units first, is cut off by
    one scalar divisor and read from ``_GROUPS``: zero-padded while higher
    digits remain, else NUL-padded, so a zero group above the first digit is
    blank.  The first matrix holds a minus sign, or the "0" of a zero cell.
    """
    negative = col < col.dtype.type(0)
    mag = col.astype(np.uint64)
    np.negative(mag, out=mag, where=negative)
    top = int(mag.max())
    if top < 2**31:
        mag = mag.astype(np.int32)
    scalar, width = mag.dtype.type, len(str(top))
    sign = negative.view(np.uint8) * np.uint8(ord("-"))
    sign[mag == scalar(0)] = ord("0")
    groups = []
    for _ in range(0, width, 4):
        high = mag // scalar(10**4)
        mag -= high * scalar(10**4)  # the group, indexing the NUL-padded table
        np.add(mag, scalar(10**4), out=mag, where=high != scalar(0))  # or the zero-padded one
        groups.append(_GROUPS[mag].view(np.uint8).reshape(col.size, 4))
        mag = high
    groups[-1] = groups[-1][:, 3 - (width - 1) % 4 :]  # only the top's digits in its group
    return [sign.reshape(col.size, 1), *reversed(groups)]


def _block_bytes(block: list, tables: list) -> bytes:
    """Rows of column slices as CSV bytes, as ``csv.writer`` writes them.

    Each column becomes NUL-padded matrices of its cells' text: an integer
    array by ``_int_bytes``, a float64 or bool array, the dtypes the runners
    write, by its column's ``_TextTable``, any other column (a list, a range,
    any other array) by ``_fmt`` per cell.  The matrices are joined with one-byte ","
    and "\n" columns and the padding NULs dropped in one byte pass over the
    matrix's bytes.  A cell of another column that ``csv.writer`` would
    quote, one ``_NEEDS_QUOTING`` matches or an empty field alone in its row
    (written '""'), is a ValueError.
    """
    size = len(block[0])
    comma, newline = (np.full((size, 1), ord(c), np.uint8) for c in ",\n")
    parts = []
    for col, table in zip(block, tables):
        dtype = col.dtype if isinstance(col, np.ndarray) else np.dtype(object)
        if dtype.kind in "iu":
            parts += _int_bytes(col)
        elif dtype in (np.bool_, np.float64):
            parts.append(table.cells(col))
        else:
            cells = list(map(_fmt, col))
            bad = _NEEDS_QUOTING.search("".join(cells))
            if bad or (len(block) == 1 and "" in cells):
                what = f"holds {bad.group()!r}" if bad else "is an empty field alone in its row"
                raise ValueError(f"a CSV cell {what}; the writer does not quote")
            parts.append(np.array(cells, dtype="S").view(np.uint8).reshape(size, -1))
        parts.append(comma)
    parts[-1] = newline
    matrix = np.concatenate(parts, axis=1)
    return matrix.tobytes().translate(None, b"\x00")


def _write_outputs(base: Path, header, blocks, summary: dict) -> None:
    """Write BASE.csv from blocks of columns, then BASE.json from the summary.

    Each block holds one sequence per header field, all of one length; the
    header is written as a one-row block, then each block ``WRITE_BLOCK``
    rows at a time, assembled as bytes by ``_block_bytes``.  The summary is
    serialized after the last block, so a runner that streams its rows may
    fill it in as they pass.  The CSV is written under a temporary name
    beside BASE and takes its own name only once the summary has
    serialized; any error on the way (a block's columns of unequal length, a
    cell that would need quoting, a non-finite summary, which JSON cannot
    spell, or an error raised by the blocks themselves) removes it, so a
    failed run leaves neither file.
    """
    base.parent.mkdir(parents=True, exist_ok=True)
    part = Path(f"{base}.csv.part")
    tables = [_TextTable() for _ in header]
    try:
        with open(part, "wb") as fh:
            fh.write(_block_bytes([[name] for name in header], tables))
            for columns in blocks:
                rows = len(columns[0])
                for name, col in zip(header, columns, strict=True):
                    if len(col) != rows:
                        raise ValueError(
                            f"CSV column {name!r} has {len(col)} rows, the first has {rows}"
                        )
                for start in range(0, rows, WRITE_BLOCK):
                    block = [col[start : start + WRITE_BLOCK] for col in columns]
                    fh.write(_block_bytes(block, tables))
        text = json.dumps(summary, indent=2, allow_nan=False)
        # renamed onto a free name: ext4 flushes a file renamed over another
        # (auto_da_alloc), which took longer than writing the whole CSV
        Path(f"{base}.csv").unlink(missing_ok=True)
        os.replace(part, f"{base}.csv")
    except BaseException:
        part.unlink(missing_ok=True)
        raise
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
        if not 0 < step < math.inf or stop < start:  # an infinite step makes the point 0 * inf
            raise ValueError("grid must be start:stop:step with positive finite step")
        ratio = (stop - start) / step
        if not math.isfinite(ratio):
            raise ValueError("grid must have a finite number of points")
        # the points up to stop; a few ulps of slack keep the last point of
        # a grid whose ratio is an integer that division rounded down
        count = math.floor(ratio + 4 * math.ulp(ratio)) + 1
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
# declared option present (``_with_defaults``) and returns (csv header,
# blocks of csv columns, results object for the JSON summary); a runner that
# streams its rows fills its results in after its last block


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
    return ["threshold", "survival", "std_error"], [columns], report.to_json()


def _run_loynes(cfg: dict):
    proc = parse_process(cfg["process"])
    window = proc.backward_window(cfg["window"], rng_for(cfg["seed"])) - cfg["s"]
    result = lindley.loynes_sup(window, slack=cfg["slack"])
    return (
        ["n", "partial_sum", "running_max"],
        [[np.arange(result.sums.size), result.sums, result.prefix_maxima]],
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
    return ["replica", "coupling_time", "final_upper", "final_lower"], [columns], summary


def _run_gg1(cfg: dict):
    service, interarrival = parse_process(cfg["service"]), parse_process(cfg["interarrival"])
    n = cfg["n"]
    # one generator: every service is drawn before the first gap, so the
    # services are drawn once to reach the gaps and again, from a second
    # generator of the same seed, as the waits are written
    rng = rng_for(cfg["seed"])
    collections.deque(service.blocks(n, rng), maxlen=0)
    services = service.blocks(n, rng_for(cfg["seed"]))
    waits = lindley.waiting_blocks(services, interarrival.blocks(n, rng))
    summary = {"n": n}

    def rows():
        total, top, last, k = lindley.ExactSum(), 0.0, 0.0, 0
        yield [np.arange(1), np.zeros(1)]  # W_0 = 0
        for states in waits:
            w = states[1:]
            total.add(w)
            top, last = max(top, float(w.max())), float(w[-1])
            yield [np.arange(k + 1, k + 1 + w.size), w]
            k += w.size
        summary.update(mean_wait=total.mean(n + 1), max_wait=top, final_wait=last)

    return ["n", "waiting_time"], rows(), summary


def _run_tandem(cfg: dict):
    proc = parse_process(cfg["process"])
    arrivals = proc.blocks(cfg["horizon"], rng_for(cfg["seed"]))
    stations = lindley.tandem_blocks(arrivals, cfg["s1"], cfg["s2"])
    summary = {"horizon": cfg["horizon"]}

    def rows():
        inflow, outflow = lindley.ExactSum(), lindley.ExactSum()
        last1, last2, k = 0.0, 0.0, 0
        for y, q, out, w in stations:
            inflow.add(y)
            outflow.add(out)
            last1, last2 = float(q[-1]), float(w[-1])
            yield [np.arange(k, k + y.size), y, q[1:], out, w[1:]]
            k += y.size
        total_in, total_out = inflow.total(), outflow.total()
        summary.update(
            total_input=total_in,
            total_first_output=total_out,
            first_backlog_change=last1,  # from an empty queue
            conservation_exact=Fraction(inflow.units - outflow.units, 1 << 1074) == last1,
            second_backlog_final=last2,
        )

    return ["n", "arrival", "queue1", "output1", "queue2"], rows(), summary


def _run_odometer(cfg: dict):
    precision = cfg["precision"]
    if cfg["mode"] == "measure":
        i_max = cfg["i_max"]
        if i_max is None:
            raise ValueError("measure mode needs i_max")
        odometer.band_limit(precision, i_max)
        bands = range(i_max + 1)
        measures = odometer.arrival_set_measures(i_max)
        columns = [bands, [odometer.band_measure(i) for i in bands], measures]
        summary = {
            "i_max": i_max,
            "union_measure": str(measures[-1]),
            "tail_bound": str(odometer.band_measure(i_max)),  # what the bands past i_max weigh
            "components": odometer.arrival_set_components(i_max),
        }
        return ["i", "band_measure", "union_measure"], [columns], summary
    # orbit mode
    value = cfg["value"]
    if value is None:
        raise ValueError("orbit mode needs value")
    if isinstance(value, str) and value.startswith("0x"):
        p = odometer.DyadicPoint(int(value, 16), precision)
    else:
        try:
            frac = Fraction(value)
        except (ZeroDivisionError, OverflowError, TypeError, ValueError) as exc:
            raise ValueError(f"value must be a finite fraction, got {value!r}") from exc
        p = odometer.DyadicPoint.from_fraction(frac, precision)
    steps = cfg["steps"]
    sign = -1 if cfg["direction"] == "backward" else 1
    # step k is counter c - sign*k: the run is checked once at its far end and
    # read as one window from its lowest counter, reversed going forward
    far = odometer.apply_power(p, sign * steps)
    counters = range(p.counter, far.counter - sign, -sign)
    # the arrival column first, whole, one byte per step: its one allocation
    # refuses an orbit too long to write
    arrival = odometer.membership_window(p if sign < 0 else far, steps + 1, cfg["i_max"])
    blocks = (
        [
            range(k, min(k + WRITE_BLOCK, steps + 1)),
            [format(c, "x") for c in counters[k : k + WRITE_BLOCK]],
            [odometer.bit_reverse(c, precision) / (1 << precision)
             for c in counters[k : k + WRITE_BLOCK]],
            arrival[::-sign][k : k + WRITE_BLOCK],
        ]
        for k in range(0, steps + 1, WRITE_BLOCK)
    )
    summary = {
        "start": p.to_json(),
        "steps": steps,
        "first_one_index": odometer.first_one_index(p) if p.counter else None,
    }
    return ["k", "counter_hex", "value", "arrival"], blocks, summary


def _run_cumulant(cfg: dict):
    proc = parse_process(cfg["process"])
    est = estimators.estimate_lambda_grid(
        proc, cfg["theta_grid"], cfg["n"], cfg["m"], rng_for(cfg["seed"]), s=cfg["s"]
    )
    return ["theta", "lambda_hat"], [[est.thetas, est.lambda_hat]], est.to_json()


def _run_scaled_cumulant(cfg: dict):
    proc = parse_process(cfg["process"])
    thetas, n = cfg["theta_grid"], cfg["n"]
    sums = estimators.block_sums(proc, n, cfg["m"], rng_for(cfg["seed"]))
    a_n, v_n = _SCALINGS[cfg["a_scale"]](n), _SCALINGS[cfg["v_scale"]](n)
    values = [
        estimators.scaled_lambda_from_sums(sums, theta, a_n, v_n, cfg["s"], n)
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
    return ["theta", "scaled_lambda"], [[thetas, values]], summary


def _run_prop1(cfg: dict):
    report = estimators.burst_probability_report(
        cfg["i"], cfg["m"], rng_for(cfg["seed"]), cfg["precision"]
    )
    data = report.to_json()
    header = ["i", "window", "offset", "m", "hits", "p_hat", "mu_A", "target", "lower_valid",
              "pass"]
    return header, [[[data[key]] for key in header]], data


def _run_prop2(cfg: dict):
    report = estimators.burst_cumulant_report(
        cfg["i"], cfg["theta"], cfg["m"], rng_for(cfg["seed"]), cfg["precision"]
    )
    data = report.to_json()
    header = ["i", "theta", "window", "m", "lower_bound", "lambda_strat", "upper_bound",
              "lambda_plain", "gap"]
    row = dict(data, window=data["n"])
    return header, [[[row[key]] for key in header]], data


# ---------------------------------------------------------------------------
# the subcommand table: name -> (runner, help, description, options), each
# option (key, kind, default[, help]).  A kind is str, float (a real number),
# INT, COUNT, TEXT_OR_REAL, a tuple of choices, or a text parser that turns
# the flag into a list of finite reals.  The order of the options is the
# order of the keys in the JSON config.  The table gives the flags, the help
# and the checks of a config file alike.

INT = "an integer"
COUNT = "a nonnegative integer"  # sizes and lengths: negative is not read as empty
TEXT_OR_REAL = "a string or a real number"
REQUIRED = ...  # the default of an option that must be given
RATES = ("s", "s1", "s2")  # the service rates, real options under lindley.service_rate

_SEED = ("seed", COUNT, 0, "global seed, any nonnegative integer")
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


_OUT = ("out", str, None, "output base path (writes BASE.csv and BASE.json)")
_TOP = [("config", str, None, "replay a saved JSON configuration, with no other option"), _OUT]
_PARSED = (float, _theta_grid, _thresholds)  # the kinds whose flag text is parsed


def build_parser() -> dict:
    """Each subcommand's flags, ``--out`` last, and under None the flags before a subcommand."""
    table = {None: _TOP, **{name: [*sub[3], _OUT] for name, sub in _SUBCOMMANDS.items()}}
    return {name: {"--" + opt[0].replace("_", "-"): opt for opt in options}
            for name, options in table.items()}


def _read_argv(argv: list[str]) -> dict:
    """The values of ``[--config F] [--out B] SUB (--key value | --key=value)...``, by key.

    The token after a flag is its value, even when it starts with "-".  Only
    a kind in ``_PARSED`` parses its text, an error naming the flag.  A help
    flag ends the reading.  A token the table lacks (an abbreviation too), a
    flag given twice and one with no value are each a ValueError.
    """
    table, given, tokens = build_parser(), {}, iter(argv)
    for token in tokens:
        name = given.get("subcommand")
        flag, joined, value = token.partition("=")
        if token in ("-h", "--help"):
            return {"help": name}
        if name is None and token in table:
            given["subcommand"] = token
            continue
        if flag not in table[name]:
            what = "option" if name or flag.startswith("-") else "subcommand"
            raise ValueError(f"{name or 'ergoqueue'} has no {what} {flag!r}")
        key, kind, *_ = table[name][flag]
        if key in given:
            raise ValueError(f"{flag} is given twice")
        value = value if joined else next(tokens, None)
        if value is None:
            raise ValueError(f"{flag} needs a value")
        try:
            given[key] = kind(value) if kind in _PARSED else value
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from exc
    return given


def _help(name: str | None) -> str:
    """The help of a subcommand, or of the command when ``name`` is None."""
    lines = [f"usage: ergoqueue [--config F] [--out BASE] {name or 'SUBCOMMAND'} [--key VALUE]..."]
    if name is None:
        rows = [f"  {sub:<16} {row[1]}" for sub, row in _SUBCOMMANDS.items()]
        lines += ["", (__doc__ or "") + "subcommands:", *rows]  # no docstrings under -OO
    else:
        lines += ["", f"{name}: {_SUBCOMMANDS[name][1]}.", _SUBCOMMANDS[name][2]]
    lines += ["", "options:"]
    for flag, (_, kind, default, *text) in build_parser()[name].items():
        need = {REQUIRED: "required", None: "optional"}.get(default, f"default {default}")
        lines.append(f"  {flag:<15} {text[0] if text else _want(kind)}; {need}")
    return "\n".join(lines)


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


def _want(kind) -> str:
    """What a value of ``kind`` must be, as its error and the help say it."""
    if isinstance(kind, tuple):
        return "one of " + ", ".join(kind)
    if isinstance(kind, str):  # INT, COUNT, TEXT_OR_REAL
        return kind
    texts = {str: "a string", float: "a real number"}
    return texts.get(kind, "a nonempty list of finite real numbers")


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
        ok = isinstance(value, str)
    elif kind is float:
        ok = _is_real(value)
    elif kind == TEXT_OR_REAL:
        ok = isinstance(value, str) or _is_real(value)
    elif isinstance(kind, tuple):
        ok = value in kind
    else:  # a text parser's list
        ok = isinstance(value, list) and bool(value) and all(map(_is_real, value))
    if not ok:
        raise ValueError(f"{key} must be {_want(kind)}, got {value!r}")
    if key in RATES:
        lindley.service_rate(value)
    return value


def _resolve_config(given: dict) -> dict:
    """The checked config of a run: a ``--config`` file's, or the subcommand and options of argv."""
    if "config" in given:
        if "subcommand" in given:
            raise ValueError("--config replays a saved run: give no subcommand or options with it")
        with open(given["config"], encoding="utf-8") as fh:
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
    elif "subcommand" not in given:
        raise ValueError("a subcommand or --config is required")
    else:
        cfg = {key: value for key, value in given.items() if key != "out"}
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
    """The runner's view of a resolved config: every declared option in table order.

    An absent one takes its default, a text default parsed as a flag's text
    is, so a bare config runs as the flags would.
    """
    name = cfg["subcommand"]
    view = {"subcommand": name}
    for key, kind, default, *_ in _SUBCOMMANDS[name][3]:
        if key in cfg:
            view[key] = cfg[key]
        elif default is REQUIRED:
            raise ValueError(f"{name} needs option {key!r}")
        else:
            view[key] = kind(default) if kind in _PARSED and isinstance(default, str) else default
    return view


def _default_base(subcommand: str) -> Path:
    root = os.environ.get("ERGOQUEUE_OUT", ".")
    return Path(root) / subcommand


def main(argv=None) -> int:
    try:
        given = _read_argv(sys.argv[1:] if argv is None else argv)
        if "help" in given:
            print(_help(given["help"]))
            return 0
        cfg = _resolve_config(given)
        view = _with_defaults(cfg)
        header, blocks, results = _SUBCOMMANDS[cfg["subcommand"]][0](view)
        if "config" not in given:  # a run from flags echoes every default it ran with
            cfg = {key: value for key, value in view.items() if value is not None}
        base = Path(given["out"]) if given.get("out") else _default_base(cfg["subcommand"])
        _write_outputs(base, header, blocks, {"config": cfg, "results": results})
    except (ProcessError, ValueError, OSError, KeyError, MemoryError) as exc:
        json.dump({"error": f"{type(exc).__name__}: {exc}"}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    print(f"wrote {base}.csv and {base}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
