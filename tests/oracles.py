"""Exact-integer interval sets: the reference the arrival-set tests compare against.

The package computes the arrival set's measures and component counts from
the deadline walk (``arrival_set_measures``, ``arrival_set_components``)
and its membership from band slices (``membership_window``) and residue
tests (``in_arrival_set``), all from one statement of the bands,
``odometer.band``.  This module builds the same set a second way, as an
explicit union of dyadic intervals in canonical form over bands it states
itself (``band_residues``), so the tests can check those routes, and the
band rule they share, against an independent construction.  It also
keeps the earlier, plainer forms of two kernels that must not change their
output: the per-bit digit DP of the window counter (``digit_steps``) and
the counter draw that makes one ``rng.integers`` call per 32-bit word
(``uniform_counters``), and the ``dataclasses`` form of every frozen record
(``dataclass_twin``), which the package's own record helper must match.
Last, it holds the queue recursion stepped in plain Python
(``recursion_oracle``) and, on a recorded trace, the files that the
``simulate``, ``loynes``, ``couple``, ``gg1`` and ``tandem`` subcommands
write, each built step by step with ``csv.writer`` and exact sums
(``cli_simulate`` and the others).  Only tests import it.
"""

from __future__ import annotations

import bisect
import csv
import io
import itertools
import math
import operator
from dataclasses import MISSING, dataclass, field, make_dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np

from ergoqueue import lindley as ld
from ergoqueue import odometer as od


@dataclass(frozen=True)
class DyadicInterval:
    """Half-open dyadic interval of length 2**-depth.

    ``index`` spells the shared leading bits lowest-weight-first; the interval
    therefore collects the points whose counter is congruent to ``index``
    modulo 2**depth.
    """

    depth: int
    index: int

    def __post_init__(self) -> None:
        # Python ints, so the shifts below cannot wrap as numpy integers do
        object.__setattr__(self, "depth", operator.index(self.depth))
        object.__setattr__(self, "index", operator.index(self.index))
        if self.depth < 0:
            raise ValueError(f"depth must be nonnegative, got {self.depth}")
        if not 0 <= self.index < (1 << self.depth):
            raise ValueError(f"index {self.index} out of range at depth {self.depth}")

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.depth)

    def contains(self, p: od.DyadicPoint) -> bool:
        if self.depth > p.precision:
            raise od.PrecisionError(f"depth {self.depth} exceeds point precision {p.precision}")
        return (p.counter & ((1 << self.depth) - 1)) == self.index


class DyadicIntervalSet:
    """A finite union of dyadic intervals in canonical form, in exact integers.

    The canonical form is the unique minimal decomposition: components are
    pairwise disjoint and no two siblings (same parent interval) are both
    present, so equal unions compare equal.  The union is also kept as merged
    segments [start, end) in units of 2**-base, base the deepest input depth.
    Measures are exact rationals.
    """

    __slots__ = ("_cells", "_base", "_starts", "_ends", "_measure")

    def __init__(self, intervals: Iterable[DyadicInterval | tuple[int, int]] = ()):
        ivs = [x if isinstance(x, DyadicInterval) else DyadicInterval(*x) for x in intervals]
        cells = [(iv.depth, iv.index) for iv in ivs]
        base = max((d for d, _ in cells), default=0)
        # place every interval on the value axis, then merge overlapping or
        # touching segments
        starts: list[int] = []
        ends: list[int] = []
        spans = sorted((od.bit_reverse(j, d) << (base - d), 1 << (base - d)) for d, j in cells)
        for a, size in spans:
            if ends and a <= ends[-1]:
                ends[-1] = max(ends[-1], a + size)
            else:
                starts.append(a)
                ends.append(a + size)
        # re-cut each merged segment into maximal aligned blocks
        comps = []
        for a, b in zip(starts, ends):
            while a < b:
                align = (a & -a).bit_length() - 1 if a else base
                exp = min(align, (b - a).bit_length() - 1)
                comps.append((base - exp, od.bit_reverse(a >> exp, base - exp)))
                a += 1 << exp
        self._cells = tuple(sorted(comps))
        self._base = base
        self._starts = tuple(starts)
        self._ends = tuple(ends)
        self._measure = Fraction(sum(ends) - sum(starts), 1 << base)

    @property
    def measure(self) -> Fraction:
        return self._measure

    def __len__(self) -> int:
        return len(self._cells)

    def components(self) -> list[DyadicInterval]:
        """Canonical components sorted by (depth, index)."""
        return [DyadicInterval(d, j) for d, j in self._cells]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DyadicIntervalSet):
            return NotImplemented
        return self._cells == other._cells

    def _covers(self, a: int, b: int, base: int) -> bool:
        """True when [a, b), in units of 2**-base, lies inside the set."""
        # merged segments are maximal: a covered span lies inside the last
        # one that starts at or before it
        up, down = max(base - self._base, 0), max(self._base - base, 0)
        k = bisect.bisect_right(self._starts, (a << down) >> up) - 1
        return k >= 0 and b << down <= self._ends[k] << up

    def contains_point(self, p: od.DyadicPoint) -> bool:
        # a point carried to fewer bits than the base has trailing zeros
        shift = max(self._base - p.precision, 0)
        v = od.bit_reverse(p.counter, p.precision) << shift
        return self._covers(v, v + 1, p.precision + shift)

    def contains_set(self, other: "DyadicIntervalSet") -> bool:
        """Exact containment: every point of `other` lies in this set."""
        return all(self._covers(a, b, other._base) for a, b in zip(other._starts, other._ends))


# ---------------------------------------------------------------------------
# the arrival bands as interval sets


def band_residues(i: int) -> tuple[int, int, int]:
    """Band i as (depth, lo, hi), the residues [lo, hi) modulo 2**depth.

    Written from the rule in the ``odometer`` module docstring, not read from
    the package: band 0 is "first two bits are 00", and band i >= 1 holds the
    counters congruent to a value in [2**(i-1), 2**i) modulo 2**(2i+1).
    """
    if i == 0:
        return 2, 0, 1
    return 2 * i + 1, 2 ** (i - 1), 2**i


def _band_cells(i: int, seeds: bool = False) -> Iterator[tuple[int, int]]:
    """The (depth, index) cells of band i, or of its run seeds."""
    depth, lo, hi = band_residues(i)
    return ((depth, j) for j in (range(lo) if seeds else range(lo, hi)))


def run_seed_set(i: int, precision: int = od.DEFAULT_PRECISION) -> DyadicIntervalSet:
    """Depth-(2i+1) intervals with indices [0, 2**(i-1)): the seeds of all-ones runs.

    Empty for i = 0.  A counter in this set begins a stretch of 2**(i-1)
    consecutive counters that all land in some arrival band.
    """
    od.band_limit(precision, i)
    return DyadicIntervalSet(_band_cells(i, seeds=True))


def arrival_band(i: int, precision: int = od.DEFAULT_PRECISION) -> DyadicIntervalSet:
    """Band i of the arrival set.

    Band 0 is the single depth-2 interval of index 0; band i >= 1 collects the
    depth-(2i+1) intervals with indices [2**(i-1), 2**i).  Every band has
    measure 2**-(i+2).
    """
    od.band_limit(precision, i)
    return DyadicIntervalSet(_band_cells(i))


def arrival_set_truncated(
    i_max: int, precision: int = od.DEFAULT_PRECISION
) -> tuple[DyadicIntervalSet, Fraction]:
    """Union of bands 0..i_max and the measure dropped by truncation.

    The truncation is one-sided: the returned set is a subset of the full
    union, and the dropped bands account for at most the returned tail bound
    sum(2**-(i+2), i > i_max) = 2**-(i_max+2).
    """
    od.band_limit(precision, i_max)
    cells = itertools.chain.from_iterable(_band_cells(i) for i in range(i_max + 1))
    return DyadicIntervalSet(cells), Fraction(1, 1 << (i_max + 2))


def in_run_seed(p: od.DyadicPoint, i: int) -> bool:
    od.band_limit(p.precision, i)
    depth, lo, _ = band_residues(i)
    return od.interval_index(p, depth) < lo


def in_arrival_band(p: od.DyadicPoint, i: int) -> bool:
    od.band_limit(p.precision, i)
    depth, lo, hi = band_residues(i)
    return lo <= od.interval_index(p, depth) < hi


# ---------------------------------------------------------------------------
# the window counter's kernels, one step at a time


def digit_steps(cap: int) -> tuple[np.ndarray, np.ndarray]:
    """``odometer._digit_steps``'s gains and next states, filled one bit position at a time.

    Row b's gains for a set bit are the running sums of the deadline walk's
    members and runs due at bits 0, 1, ..., then all 2**b settings; its next
    state for a set bit is b, or L + 1 once the bits above b hold band b+1.
    """
    top = od.band(cap)[0]
    states = np.arange(top + 2)
    gain = np.zeros((top, 2 * top + 4), np.uint64)
    step = np.empty((top, 2 * top + 4), np.intp)
    step[:, 0::2] = 2 * states
    for b, (member, pending) in zip(range(top), od._deadline_walk(cap)):
        due = itertools.accumulate((pending.get(p, 0) for p in range(top)), initial=member)
        gain[b, 1::2] = (*due, 1 << b)
        whole = od.band(b + 1)[0] - 1 if b < cap else top
        step[b, 1::2] = 2 * np.where(states > whole, top + 1, b)
    return gain, step


def uniform_counters(
    rng: np.random.Generator, size: int, precision: int = od.DEFAULT_PRECISION, width: int = 1
) -> np.ndarray:
    """``odometer.uniform_counters`` with one ``rng.integers`` call per 32-bit word of a try.

    Each try draws the low words of every counter still needed, then the
    next words, and scatters the try into place by index.
    """
    limit = (1 << precision) - width
    bits = limit.bit_length()
    out = np.empty(size, np.uint64)
    need = np.arange(size)
    while need.size:
        draw = np.zeros(need.size, np.uint64)
        for shift in range(0, bits, 32):
            block = rng.integers(0, 1 << 32, size=need.size, dtype=np.uint64)
            draw |= block << np.uint64(shift)
        if bits < 64:
            draw &= np.uint64((1 << bits) - 1)
        out[need] = draw
        need = need[draw > np.uint64(limit)] if limit < (1 << bits) - 1 else need[:0]
    return out


def dataclass_twin(cls: type, hidden: tuple[str, ...] = ()) -> type:
    """``dataclass(frozen=True)`` built from one record class's own statement.

    The twin has the class's name, bases, annotations in order, class-level
    defaults and ``__post_init__``, each read from the class itself, not
    from the record helper's bookkeeping.  A field named in ``hidden`` is
    ``field(repr=False, compare=False)``.
    """
    specs = [
        (name, kind, field(
            default=cls.__dict__.get(name, MISSING),
            repr=name not in hidden,
            compare=name not in hidden,
        ))
        for name, kind in cls.__annotations__.items()
    ]
    post_init = cls.__dict__.get("__post_init__")
    namespace = {"__post_init__": post_init} if post_init else {}
    return make_dataclass(cls.__name__, specs, bases=cls.__bases__, namespace=namespace, frozen=True)


# ---------------------------------------------------------------------------
# the queue recursion, and the CLI's files on a recorded trace, one step at a time


def _step(x: float, z: float) -> float:
    """The defining step max(x + z, 0.0): x + z unless it is below 0.0, so -0.0 and NaN pass."""
    x += z
    if x < 0.0:
        x = 0.0
    return x


def recursion_oracle(x0, increments):
    """The defining step iterated in plain Python: x0 and the state after each increment."""
    states = [x0]
    for z in np.asarray(increments, dtype=np.float64).tolist():
        states.append(_step(states[-1], z))
    return states


def _exact_total(values) -> Fraction:
    return sum(map(Fraction, values), Fraction(0))


def _csv(header: list[str], rows) -> bytes:
    """The CSV of the rows: floats with 17 significant digits, None as an empty cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("ascii")


def cli_simulate(trace: list[float], s: float, thresholds: list[float], horizon: int,
                 burn_in: int | None = None):
    """(CSV bytes, results) of ``simulate --process trace:PATH``.

    The queue steps from empty by each of the first ``horizon`` arrivals less
    s; the states after step burn_in (default horizon // 10) are the sample.
    Each sorted threshold's survival is the share of the sample strictly
    above it, and the decay is fitted by ``np.polyfit`` over the thresholds
    with nonzero survival, when two of them differ.
    """
    burn_in = horizon // 10 if burn_in is None else burn_in
    y = trace[:horizon]
    kept = recursion_oracle(0.0, [a - s for a in y])[burn_in + 1 :]
    m, qs = len(kept), sorted(thresholds)
    survival = [float(sum(x > q for x in kept)) / m for q in qs]
    errors = [math.sqrt(p * (1.0 - p) / m) for p in survival]
    points = np.array([q for q, p in zip(qs, survival) if p > 0.0])
    logs = np.log([p for p in survival if p > 0.0])
    fitted = None
    if points.size >= 2 and points[0] != points[-1]:
        fitted = float(-np.polyfit(points, logs, 1)[0])
    input_mean = float(_exact_total(y) / horizon)
    results = {
        "tail": {"thresholds": qs, "survival": survival, "std_errors": errors, "sample_count": m},
        "s": s,
        "burn_in": burn_in,
        "horizon": horizon,
        "input_mean": input_mean,
        "stable_mean": input_mean < s,
        "fitted_decay": fitted,
    }
    return _csv(["threshold", "survival", "std_error"], zip(qs, survival, errors)), results


def cli_loynes(trace: list[float], s: float, window: int, slack: float = 0.0):
    """(CSV bytes, results) of ``loynes --process trace:PATH``.

    The window holds the last ``window`` values of the trace, the most
    recent first, each less s; V_0 = 0 and V_n adds the n-th in order.
    """
    z = [y - s for y in reversed(trace[len(trace) - window :])]
    sums = [0.0, *itertools.accumulate(z)]
    best, arg, rows = 0.0, 0, []
    for n, v in enumerate(sums):
        if v > best:
            best, arg = v, n
        rows.append((n, v, best))
    results = {
        "value": best,
        "argmax": arg,
        "converged": arg < window and sums[-1] < best - slack,
        "window": window,
    }
    return _csv(["n", "partial_sum", "running_max"], rows), results


def cli_couple(trace: list[float], s: float, x0: float, horizon: int, replicas: int):
    """(CSV bytes, results) of ``couple --process trace:PATH``.

    Every replica reads the trace from its start: the chains from x0 and
    from 0 step together until they meet, then ``ABSORPTION_CHECK`` steps
    more, or until the horizon.
    """
    z = [y - s for y in trace[:horizon]]
    upper, lower, tau, n = x0, 0.0, None, 0
    if upper == lower:
        tau, z = 0, []  # chains started equal read no input
    while n < len(z) and (tau is None or n < tau + ld.ABSORPTION_CHECK):
        upper, lower, n = _step(upper, z[n]), _step(lower, z[n]), n + 1
        if tau is None and upper == lower:
            tau = n
    times = [tau] * replicas if tau is not None else []
    results = {
        "replicas": replicas,
        "coupled": len(times),
        "max_coupling_time": max(times) if times else None,
        "mean_coupling_time": sum(times) / len(times) if times else None,
    }
    rows = [(r, tau, upper, lower) for r in range(replicas)]
    return _csv(["replica", "coupling_time", "final_upper", "final_lower"], rows), results


def cli_gg1(services: list[float], gaps: list[float], n: int):
    """(CSV bytes, results) of ``gg1`` on two traces: W_{k+1} steps W_k by S_k - A_k."""
    waits = recursion_oracle(0.0, [b - a for b, a in zip(services[:n], gaps[:n])])
    results = {
        "n": n,
        "mean_wait": float(_exact_total(waits[1:]) / (n + 1)),
        "max_wait": max(waits),
        "final_wait": waits[-1],
    }
    return _csv(["n", "waiting_time"], enumerate(waits)), results


def cli_tandem(trace: list[float], s1: float, s2: float, horizon: int):
    """(CSV bytes, results) of ``tandem --process trace:PATH``.

    The first station's output in a slot is its backlog plus the arrival,
    less its new backlog; it arrives at the second station in that slot.
    """
    y = trace[:horizon]
    q = recursion_oracle(0.0, [a - s1 for a in y])
    out = [(q[k] + a) - q[k + 1] for k, a in enumerate(y)]
    w = recursion_oracle(0.0, [o - s2 for o in out])
    inflow, outflow = _exact_total(y), _exact_total(out)
    results = {
        "horizon": horizon,
        "total_input": float(inflow),
        "total_first_output": float(outflow),
        "first_backlog_change": q[-1],
        "conservation_exact": inflow - outflow == Fraction(q[-1]),
        "second_backlog_final": w[-1],
    }
    rows = zip(range(horizon), y, q[1:], out, w[1:])
    return _csv(["n", "arrival", "queue1", "output1", "queue2"], rows), results
