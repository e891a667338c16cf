"""Exact adding-machine dynamics on the unit interval.

A point of [0, 1) is carried as a K-bit binary expansion r_1 r_2 ... r_K,
where bit r_l has weight 2**-l.  Reading the same bits lowest-weight-first
as an unsigned integer ("the counter") turns the interval map into an exact
counter decrement: the map flips the leading run of zeros to ones and the
first one to zero, which is exactly what subtracting 1 does to the counter.
Orbits, images of dyadic intervals, and measures of the arrival bands built
from them can therefore be computed without any rounding.

Conventions used throughout:

* ``counter`` bit ``l`` (0-based) equals expansion bit ``r_(l+1)``.
* The dyadic interval with ``depth`` d and ``index`` j collects the points
  whose first d expansion bits spell j lowest-weight-first, i.e. whose
  counter is congruent to j modulo 2**d.  Its length is 2**-d.
* The forward map sends index j to j - 1 at every depth; its inverse is the
  classical adding machine (counter increment).

The arrival model marks a point if some band matches its leading bits.
Band 0 is "first two bits are 00".  Band i >= 1 is "bit i is the first
one among bits i..2i+1", equivalently the counter is congruent to a value
in [2**(i-1), 2**i) modulo 2**(2i+1).  A point seeds a run of length
2**(i-1): starting from a counter whose low 2i+1 bits are below 2**(i-1),
every one of the next 2**(i-1) counter values lands in some band.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "DEFAULT_PRECISION",
    "MAX_SET_DEPTH",
    "ExceptionalPointError",
    "OrbitRangeError",
    "PrecisionError",
    "DyadicPoint",
    "DyadicInterval",
    "DyadicIntervalSet",
    "bit_reverse",
    "first_one_index",
    "apply_map",
    "apply_inverse",
    "apply_power",
    "interval_index",
    "band_limit",
    "run_seed_set",
    "arrival_band",
    "arrival_set_truncated",
    "arrival_set_measure",
    "arrival_set_measures",
    "arrival_set_components",
    "in_run_seed",
    "in_arrival_band",
    "in_arrival_set",
    "membership_window",
    "window_arrival_counts",
    "uniform_counters",
    "uniform_point",
    "sample_run_seed",
]

DEFAULT_PRECISION = 64

# Deepest dyadic interval: DyadicInterval raises PrecisionError beyond it.
# Interval sets compute with exact Python integers and need no cap; the
# limit is kept as public behaviour.
MAX_SET_DEPTH = 63


class ExceptionalPointError(ValueError):
    """The map (or its inverse) is undefined at an orbit endpoint."""


class OrbitRangeError(ValueError):
    """An orbit step would leave the representable counter window."""


class PrecisionError(ValueError):
    """A query needs more bits than the point or set carries."""


def bit_reverse(x: int, width: int) -> int:
    """Reverse the low `width` bits of a nonnegative integer."""
    if width < 0:
        raise ValueError("width must be nonnegative")
    if x < 0 or x >> width:
        raise ValueError(f"{x} does not fit in {width} bits")
    if width == 0:
        return 0
    return int(format(x, f"0{width}b")[::-1], 2)


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class DyadicPoint:
    """A point of [0, 1) held as an exact K-bit expansion.

    ``counter`` is the expansion read lowest-weight-first; ``precision`` is
    the number of carried bits K.  The numeric value is recovered exactly as
    ``bit_reverse(counter, K) / 2**K``.
    """

    counter: int
    precision: int = DEFAULT_PRECISION

    def __post_init__(self) -> None:
        if not isinstance(self.precision, int) or self.precision < 1:
            raise PrecisionError(f"precision must be a positive integer, got {self.precision!r}")
        if not isinstance(self.counter, int):
            raise TypeError(f"counter must be an int, got {type(self.counter).__name__}")
        if not 0 <= self.counter < (1 << self.precision):
            raise ValueError(
                f"counter {self.counter} out of range for precision {self.precision}"
            )

    @classmethod
    def from_bits(cls, bits: Sequence[int], precision: int | None = None) -> "DyadicPoint":
        """Build a point from expansion bits r_1, r_2, ... (highest weight first)."""
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0 or 1")
        k = precision if precision is not None else max(len(bits), 1)
        if len(bits) > k:
            raise PrecisionError(f"{len(bits)} bits exceed precision {k}")
        counter = 0
        for l, b in enumerate(bits):
            counter |= b << l
        return cls(counter, k)

    @classmethod
    def from_fraction(cls, value: Fraction, precision: int = DEFAULT_PRECISION) -> "DyadicPoint":
        value = Fraction(value)
        if not 0 <= value < 1:
            raise ValueError(f"value {value} outside [0, 1)")
        den = value.denominator
        if den & (den - 1) or den > (1 << precision):
            raise PrecisionError(f"{value} is not dyadic at precision {precision}")
        scaled = value.numerator * ((1 << precision) // den)
        return cls(bit_reverse(scaled, precision), precision)

    def bit(self, l: int) -> int:
        """Expansion bit r_l (1-based, weight 2**-l)."""
        if not 1 <= l <= self.precision:
            raise PrecisionError(f"bit index {l} outside 1..{self.precision}")
        return (self.counter >> (l - 1)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.counter >> l) & 1 for l in range(self.precision))

    @property
    def value(self) -> Fraction:
        return Fraction(bit_reverse(self.counter, self.precision), 1 << self.precision)

    def __float__(self) -> float:
        return float(self.value)

    def to_json(self) -> dict:
        return {"counter": format(self.counter, "x"), "precision": self.precision}

    @classmethod
    def from_json(cls, data: dict) -> "DyadicPoint":
        return cls(int(str(data["counter"]), 16), int(data["precision"]))


def first_one_index(p: DyadicPoint) -> int:
    """Position of the first 1 in the expansion (1-based).

    Errors at the all-zeros point, where no carry ever terminates.
    """
    c = p.counter
    if c == 0:
        raise ExceptionalPointError("exceptional point: expansion is all zeros")
    return (c & -c).bit_length()


def apply_map(p: DyadicPoint) -> DyadicPoint:
    """One forward step: flip the leading zeros to ones and the first one to zero.

    On the counter this is an exact decrement; the all-zeros point has no image.
    """
    if p.counter == 0:
        raise ExceptionalPointError("exceptional point: all-zeros expansion has no forward image")
    return DyadicPoint(p.counter - 1, p.precision)


def apply_inverse(p: DyadicPoint) -> DyadicPoint:
    """One backward step (the adding machine); the all-ones point has no image."""
    top = (1 << p.precision) - 1
    if p.counter == top:
        raise ExceptionalPointError("exceptional point: all-ones expansion has no backward image")
    return DyadicPoint(p.counter + 1, p.precision)


def apply_power(p: DyadicPoint, k: int) -> DyadicPoint:
    """k-th iterate (k may be negative); errors if the orbit leaves the window."""
    c = p.counter - k
    if not 0 <= c < (1 << p.precision):
        raise OrbitRangeError(
            f"orbit leaves representable window: counter {p.counter} step {k} "
            f"at precision {p.precision}"
        )
    return DyadicPoint(c, p.precision)


def interval_index(p: DyadicPoint, depth: int) -> int:
    """Index of the depth-`depth` dyadic interval containing the point.

    The index spells the first `depth` expansion bits lowest-weight-first,
    so it is simply the counter reduced modulo 2**depth.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > p.precision:
        raise PrecisionError(f"depth {depth} exceeds precision {p.precision}")
    return p.counter & ((1 << depth) - 1)


# ---------------------------------------------------------------------------
# dyadic intervals and canonical interval sets


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
        if not 0 <= self.depth <= MAX_SET_DEPTH:
            raise PrecisionError(f"depth must be in 0..{MAX_SET_DEPTH}, got {self.depth}")
        if not 0 <= self.index < (1 << self.depth):
            raise ValueError(f"index {self.index} out of range at depth {self.depth}")

    @property
    def measure(self) -> Fraction:
        return Fraction(1, 1 << self.depth)

    @property
    def value_start(self) -> Fraction:
        """Left endpoint on the value axis."""
        return Fraction(bit_reverse(self.index, self.depth), 1 << self.depth)

    def contains(self, p: DyadicPoint) -> bool:
        if self.depth > p.precision:
            raise PrecisionError(f"depth {self.depth} exceeds point precision {p.precision}")
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
        spans = sorted((bit_reverse(j, d) << (base - d), 1 << (base - d)) for d, j in cells)
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
                comps.append((base - exp, bit_reverse(a >> exp, base - exp)))
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

    def __hash__(self) -> int:
        return hash(self._cells)

    def __repr__(self) -> str:
        return f"DyadicIntervalSet({len(self)} components, measure={self._measure})"

    def _covers(self, a: int, b: int, base: int) -> bool:
        """True when [a, b), in units of 2**-base, lies inside the set."""
        # merged segments are maximal: a covered span lies inside the last
        # one that starts at or before it
        up, down = max(base - self._base, 0), max(self._base - base, 0)
        k = bisect.bisect_right(self._starts, (a << down) >> up) - 1
        return k >= 0 and b << down <= self._ends[k] << up

    def contains_point(self, p: DyadicPoint) -> bool:
        # a point carried to fewer bits than the base has trailing zeros
        shift = max(self._base - p.precision, 0)
        v = bit_reverse(p.counter, p.precision) << shift
        return self._covers(v, v + 1, p.precision + shift)

    def __contains__(self, p: DyadicPoint) -> bool:
        return self.contains_point(p)

    def contains_set(self, other: "DyadicIntervalSet") -> bool:
        """Exact containment: every point of `other` lies in this set."""
        return all(self._covers(a, b, other._base) for a, b in zip(other._starts, other._ends))

    def to_json(self) -> list[list[int]]:
        return [[d, j] for d, j in self._cells]

    @classmethod
    def from_json(cls, data: Iterable[Sequence[int]]) -> "DyadicIntervalSet":
        return cls((int(d), int(j)) for d, j in data)


# ---------------------------------------------------------------------------
# arrival bands


def _band_depth(i: int) -> int:
    """max(2i+1, 2): the low counter bits that decide band i, and bands 0..i together."""
    return max(2 * i + 1, 2)


def band_limit(precision: int, i_max: int | None = None) -> int:
    """The deepest band testable at the given precision, or the band ``i_max`` once checked.

    Band i needs ``_band_depth(i)`` bits, so precision 1 holds no band and
    the deepest is (precision - 1) // 2; the one band-cap rule of the
    package, raising PrecisionError.
    """
    if precision < _band_depth(0):
        raise PrecisionError(f"precision {precision} holds no band (band 0 needs depth 2)")
    cap = (precision - 1) // 2
    if i_max is None:
        return cap
    if not 0 <= i_max <= cap:
        raise PrecisionError(
            f"band {i_max} outside 0..{cap} at precision {precision} (depth max(2i+1, 2))"
        )
    return i_max


def _band(i: int) -> tuple[int, int, int]:
    """Band i as (depth, lo, hi): the counters in [lo, hi) modulo 2**depth.

    Band 0 is (2, 0, 1) and band i >= 1 is (2i+1, 2**(i-1), 2**i); the run
    seeds of band i are the residues [0, lo) at its depth, none for band 0.
    """
    return _band_depth(i), (1 << i) >> 1, 1 << i


def _band_cells(i: int, seeds: bool = False) -> Iterator[tuple[int, int]]:
    """The (depth, index) cells of band i, or of its run seeds."""
    depth, lo, hi = _band(i)
    return ((depth, j) for j in (range(lo) if seeds else range(lo, hi)))


def run_seed_set(i: int, precision: int = DEFAULT_PRECISION) -> DyadicIntervalSet:
    """Depth-(2i+1) intervals with indices [0, 2**(i-1)): the seeds of all-ones runs.

    Empty for i = 0.  A counter in this set begins a stretch of 2**(i-1)
    consecutive counters that all land in some arrival band.
    """
    band_limit(precision, i)
    return DyadicIntervalSet(_band_cells(i, seeds=True))


def arrival_band(i: int, precision: int = DEFAULT_PRECISION) -> DyadicIntervalSet:
    """Band i of the arrival set.

    Band 0 is the single depth-2 interval of index 0; band i >= 1 collects the
    depth-(2i+1) intervals with indices [2**(i-1), 2**i).  Every band has
    measure 2**-(i+2).
    """
    band_limit(precision, i)
    return DyadicIntervalSet(_band_cells(i))


def arrival_set_truncated(
    i_max: int, precision: int = DEFAULT_PRECISION
) -> tuple[DyadicIntervalSet, Fraction]:
    """Union of bands 0..i_max and the measure dropped by truncation.

    The truncation is one-sided: the returned set is a subset of the full
    union, and the dropped bands account for at most the returned tail bound
    sum(2**-(i+2), i > i_max) = 2**-(i_max+2).
    """
    band_limit(precision, i_max)
    cells = itertools.chain.from_iterable(_band_cells(i) for i in range(i_max + 1))
    return DyadicIntervalSet(cells), Fraction(1, 1 << (i_max + 2))


def _deadline_walk(cap: int) -> Iterator[tuple[int, dict[int, int]]]:
    """The "pending deadline" automaton over the free low bits of a counter.

    Scanning a counter from bit 0 upward, the only live state is the deadline
    by which the current zero-run must last: band 0 watches bits 0..1, and a
    one at bit j < cap opens band j+1, which needs zeros through bit 2j+2.
    Membership is decided by the low L = _band_depth(cap) bits.  Before each
    bit b = 0..L the walk yields the counts over the 2**b settings of bits
    0..b-1: ``member`` prefixes already in the set and ``pending[d]``
    prefixes whose open run needs zeros through bit d.  The dict is live:
    read it before the next step.
    """
    member, pending = 0, {1: 1}
    for b in range(_band_depth(cap) + 1):
        yield member, pending
        resolved = pending.pop(b, 0)  # a zero at bit b meets deadline b
        broken = resolved + sum(pending.values())  # a one at bit b breaks every run
        member = 2 * member + resolved
        if b < cap:
            pending[2 * b + 2] = broken


def arrival_set_measures(i_max: int) -> list[Fraction]:
    """Exact measures of the unions of bands 0..i, for i = 0..i_max, from one walk.

    After bits 0..i-1 of the cap-i_max walk, the open runs belong to bands
    0..i, and one due at bit d completes on a further d-i+1 zeros, so the
    union of bands 0..i measures member/2**i + sum(pending[d]/2**(d+1)).
    Agrees with the interval-set union but stays cheap for deep truncations,
    where the union has ~2**i components.
    """
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    out = []
    for i, (member, pending) in zip(range(i_max + 1), _deadline_walk(i_max)):
        top = 2 * i + 2  # every open deadline is at most 2i
        num = (member << (top - i)) + sum(n << (top - 1 - d) for d, n in pending.items())
        out.append(Fraction(num, 1 << top))
    return out


def arrival_set_measure(i_max: int) -> Fraction:
    """Exact measure of the union of bands 0..i_max."""
    return arrival_set_measures(i_max)[-1]


def arrival_set_components(i_max: int) -> int:
    """Number of components of the union of bands 0..i_max, in canonical form.

    Read from the same deadline walk: a member prefix is settled at the bit
    b where a zero meets its pending deadline, so ``members[b+1] -
    2*members[b]`` new prefixes of b+1 bits settle there.  These minimal
    prefixes are disjoint, and none is the sibling of another (each ends in
    a zero), so they are exactly the components, ~2**i_max of them, counted
    without building any.
    """
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    members = [member for member, _ in _deadline_walk(i_max)]
    return sum(members[b + 1] - 2 * members[b] for b in range(len(members) - 1))


def in_run_seed(p: DyadicPoint, i: int) -> bool:
    band_limit(p.precision, i)
    depth, lo, _ = _band(i)
    return interval_index(p, depth) < lo


def in_arrival_band(p: DyadicPoint, i: int) -> bool:
    band_limit(p.precision, i)
    depth, lo, hi = _band(i)
    return lo <= interval_index(p, depth) < hi


def in_arrival_set(p: DyadicPoint, i_max: int | None = None) -> bool:
    """True when some band 0..i_max matches the point's leading bits."""
    cap = band_limit(p.precision, i_max)
    c = p.counter
    if c & 3 == 0:
        return True
    for i in range(1, cap + 1):
        if (c >> (i - 1)) & ((1 << (i + 2)) - 1) == 1:
            return True
    return False


# Counters per block of membership_window's padded run: every band whose
# period 2**depth is at most this (bands 0..5) is one strided slice.
RUN_ALIGN = 1 << 12


def membership_window(p: DyadicPoint, width: int, i_max: int | None = None) -> np.ndarray:
    """Arrival indicators at counters c, c+1, ..., c+width-1 (backward orbit), any precision.

    Each band (``_band``) is a periodic slice of the run, padded to whole
    blocks of RUN_ALIGN counters: one strided slice when the period fits a
    block, else one slice per period the run meets, offsets in Python ints.
    """
    if width < 0:
        raise ValueError("width must be nonnegative")
    cap = band_limit(p.precision, i_max)
    c = p.counter
    if c + width > (1 << p.precision):
        raise OrbitRangeError(
            f"window of width {width} from counter {c} leaves precision {p.precision}"
        )
    skip = c % RUN_ALIGN  # the padded run starts at c - skip, a block edge
    out = np.zeros(-(-(skip + width) // RUN_ALIGN) * RUN_ALIGN, bool)
    for i in range(cap + 1):
        depth, lo, hi = _band(i)
        period = 1 << depth
        if period <= RUN_ALIGN:
            out.reshape(-1, period)[:, lo:hi] = True
        else:
            for base in range(-((c - skip) % period), out.size, period):
                out[max(base + lo, 0) : max(base + hi, 0)] = True
    return out[skip : skip + width]


# Counters per block in window_arrival_counts: bounds the temporaries at a
# few hundred KiB whatever the number of windows.  Counter bits per pass of
# _prefix_counts: the chunk tables of a band cap hold (L+1-hi) * 2**COUNT_BITS
# entries for a chunk whose top bit is hi, 223 KiB at cap 31; 8 bits would
# save three of its eleven passes for 633 KiB of tables.
COUNT_BLOCK = 8192
COUNT_BITS = 6


def _digit_steps(cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit DP of ``_prefix_counts`` one bit at a time, as uint64 gains and next states.

    Both are indexed by [bit position b, 2 * state + bit of N at b] for b
    below the period bits L, and the next state is stored doubled, ready to
    take the next bit.  The state is the position of the next set bit of N
    above b (L when none), or L + 1 once the bits above b hold a whole band,
    after which every completion below is a member.  A set bit at b gains,
    from the walk before bit b, the members and the runs due below the state,
    which the zeros b..state-1 complete; in state L + 1, all 2**b settings.
    """
    top = _band_depth(cap)
    states = np.arange(top + 2)
    gain = np.zeros((top, 2 * top + 4), np.uint64)
    step = np.empty((top, 2 * top + 4), np.intp)
    step[:, 0::2] = 2 * states
    for b, (member, pending) in zip(range(top), _deadline_walk(cap)):
        due = itertools.accumulate((pending.get(p, 0) for p in range(top)), initial=member)
        gain[b, 1::2] = (*due, 1 << b)
        # a one at b < cap followed by zeros through bit 2b+2 is band b+1
        whole = 2 * b + 2 if b < cap else top
        step[b, 1::2] = 2 * np.where(states > whole, top + 1, b)
    return gain, step


@functools.lru_cache(maxsize=None)
def _chunk_tables(cap: int) -> tuple[tuple[np.uint64, np.uint64, np.ndarray, np.ndarray], ...]:
    """``_digit_steps`` composed over chunks of up to COUNT_BITS counter bits.

    The chunks run from the top period bit L-1 down, the lowest one narrower
    when COUNT_BITS does not divide L.  A chunk of bits lo..hi is entered in
    the state left by the bits above it, one of hi+1..L+1, so it keeps only
    those rows: its key is (state - hi - 1) << w | (bits lo..hi of N), for w
    = hi - lo + 1.  Each chunk is (lo, mask, gain, next): ``gain`` adds the
    members counted at the chunk's set bits, and ``next`` is the key base of
    the following chunk, (state - lo) << w', as int32.
    """
    gain1, step1 = _digit_steps(cap)
    top = gain1.shape[0]
    chunks = []
    for hi in range(top - 1, -1, -COUNT_BITS):
        lo = max(hi + 1 - COUNT_BITS, 0)
        bits = np.arange(1 << (hi - lo + 1), dtype=np.intp)
        idx = 2 * np.arange(hi + 1, top + 2)[:, None]  # doubled entry states, one row each
        gain = np.zeros((idx.size, bits.size), np.uint64)
        for b in range(hi, lo - 1, -1):
            key = idx + ((bits >> (b - lo)) & 1)
            gain += gain1[b][key]
            idx = step1[b][key]
        nxt = ((idx // 2 - lo) << min(COUNT_BITS, lo)).astype(np.int32)
        chunks.append((np.uint64(lo), np.uint64(bits.size - 1), gain.ravel(), nxt.ravel()))
    return tuple(chunks)


def _prefix_counts(r: np.ndarray, cap: int) -> np.ndarray:
    """Members of bands 0..cap below each counter r inside one period.

    Every set bit b of r contributes the members among the counters that
    agree with r above b, have a zero at b and any bits below.  The bits are
    read from the top down, one chunk of up to COUNT_BITS per pass, through
    the tables of ``_chunk_tables``: the top chunk is entered in state L, row 0.
    """
    total = np.zeros(r.size, np.uint64)
    base = np.zeros(r.size, np.int32)
    for lo, mask, gain, nxt in _chunk_tables(cap):
        key = ((r >> lo) & mask).view(np.int64)
        key += base
        total += gain[key]
        base = nxt[key]
    return total


def window_arrival_counts(
    counters: Iterable[int],
    width: int,
    precision: int = DEFAULT_PRECISION,
    i_max: int | None = None,
) -> np.ndarray:
    """Number of arrivals among counters c..c+width-1, for each starting counter.

    An exact prefix count F(c + width) - F(c), where F(N) counts the members
    below N.  Membership has period P = 2**(2*cap+1) (4 for cap = 0), so F(N)
    is (N // P) * (members per period) plus a digit DP over the bits of
    N mod P, read COUNT_BITS bits per table lookup (``_prefix_counts``) for
    COUNT_BLOCK counters at a time.  The cost does not depend on the width;
    precision must be <= 64.  Agrees with ``membership_window(...).sum()``
    pointwise.
    """
    if precision > 64:
        raise PrecisionError("window counting supports precision <= 64")
    if width < 1:
        raise ValueError("width must be positive")
    cap = band_limit(precision, i_max)
    if isinstance(counters, np.ndarray) and counters.dtype == np.uint64:
        starts = counters.reshape(-1)
        bounds = (int(starts.min()), int(starts.max())) if starts.size else None
    else:
        starts = [int(c) for c in counters]
        bounds = (min(starts), max(starts)) if starts else None
    if bounds and not (0 <= bounds[0] and bounds[1] <= (1 << precision) - width):
        bad = bounds[0] if bounds[0] < 0 else bounds[1]
        raise OrbitRangeError(
            f"window of width {width} from counter {bad} leaves precision {precision}"
        )
    cs = np.asarray(starts, dtype=np.uint64)
    top = _band_depth(cap)
    period_members = np.uint64(arrival_set_measure(cap) * (1 << top))  # exact: period 2**top
    low = np.uint64((1 << top) - 1)
    # c + width may be 2**64, so add the quotients and remainders mod P apart
    w_periods, w_rest = np.uint64(width >> top), np.uint64(width & ((1 << top) - 1))
    out = np.empty(cs.size, np.int64)
    for s in range(0, cs.size, COUNT_BLOCK):
        c_rest = cs[s : s + COUNT_BLOCK] & low
        end = c_rest + w_rest  # below 2P <= 2**64
        periods = w_periods + (end >> np.uint64(top))
        f = _prefix_counts(np.concatenate([end & low, c_rest]), cap)
        k = c_rest.size
        # uint64 arithmetic wraps, but the true count lies in [0, 2**63)
        count = periods * period_members + f[:k] - f[k:]
        out[s : s + k] = count.astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# sampling


def uniform_counters(
    rng: np.random.Generator, size: int, precision: int = DEFAULT_PRECISION, width: int = 1
) -> np.ndarray:
    """Counters uniform over the values whose width-`width` window stays representable.

    Rejection keeps the draw exactly uniform on [0, 2**K - width]; the
    clipped sliver has probability width * 2**-K.
    """
    if precision > 64:
        raise PrecisionError("vector sampling supports precision <= 64")
    if not 1 <= width <= (1 << precision):
        raise ValueError("width out of range")
    limit = (1 << precision) - width  # largest admissible counter
    out = np.empty(size, np.uint64)
    need = np.arange(size)
    while need.size:
        draw = np.zeros(need.size, np.uint64)
        for shift in range(0, precision, 32):
            block = rng.integers(0, 1 << 32, size=need.size, dtype=np.uint64)
            draw |= block << np.uint64(shift)
        if precision < 64:
            draw &= np.uint64((1 << precision) - 1)
        out[need] = draw
        need = need[draw > np.uint64(limit)] if limit < (1 << precision) - 1 else need[:0]
    return out


def _uniform_int(rng: np.random.Generator, bits: int) -> int:
    """Uniform integer in [0, 2**bits), any bit count."""
    value = 0
    for shift in range(0, bits, 32):
        value |= int(rng.integers(0, 1 << 32)) << shift
    return value & ((1 << bits) - 1)


def uniform_point(rng: np.random.Generator, precision: int = DEFAULT_PRECISION) -> DyadicPoint:
    """Uniform point whose forward and backward orbits both exist (endpoints resampled)."""
    if precision < 2:
        raise PrecisionError(f"precision {precision} leaves no counter between the endpoints")
    top = (1 << precision) - 1
    while True:
        c = _uniform_int(rng, precision)
        if 0 < c < top:
            return DyadicPoint(c, precision)


def sample_run_seed(
    i: int, rng: np.random.Generator, precision: int = DEFAULT_PRECISION
) -> DyadicPoint:
    """Uniform draw from the run-seed set of band i (i >= 1)."""
    band_limit(precision, i)
    if i < 1:
        raise ValueError("run seeds exist for band indices i >= 1 only")
    depth, half, _ = _band(i)
    low = int(rng.integers(0, half))
    high = _uniform_int(rng, precision - depth)
    return DyadicPoint((high << depth) | low, precision)
