"""Exact adding-machine dynamics on the unit interval.

A point of [0, 1) is carried as a K-bit binary expansion r_1 r_2 ... r_K,
where bit r_l has weight 2**-l.  Reading the same bits lowest-weight-first
as an unsigned integer ("the counter") turns the interval map into an exact
counter decrement: the map flips the leading run of zeros to ones and the
first one to zero, which is exactly what subtracting 1 does to the counter.
Orbits, band membership, and the measures of the arrival bands can
therefore be computed without any rounding.

Conventions used throughout:

* ``counter`` bit ``l`` (0-based) equals expansion bit ``r_(l+1)``.
* The dyadic interval with ``depth`` d and ``index`` j collects the points
  whose first d expansion bits spell j lowest-weight-first, i.e. whose
  counter is congruent to j modulo 2**d.  Its length is 2**-d.
* The forward map sends index j to j - 1 at every depth; its inverse is the
  classical adding machine (counter increment).

The arrival model marks a point if some band matches its leading bits.
Band 0 is "first two bits are 00".  Band i >= 1 is "bit i is the only
one among bits i..2i+1": the counter is congruent to a value in
[2**(i-1), 2**i) modulo 2**(2i+1), as ``band(i)`` states once.  A point
seeds a run of length 2**(i-1): starting from a counter whose low 2i+1 bits
are below 2**(i-1), every one of the next 2**(i-1) counter values arrives.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from ._record import record

__all__ = [
    "DEFAULT_PRECISION",
    "ExceptionalPointError",
    "OrbitRangeError",
    "PrecisionError",
    "DyadicPoint",
    "bit_reverse",
    "first_one_index",
    "apply_map",
    "apply_inverse",
    "apply_power",
    "interval_index",
    "band",
    "band_measure",
    "band_limit",
    "arrival_set_measure",
    "arrival_set_measures",
    "arrival_set_components",
    "in_arrival_set",
    "run_seed_mask",
    "membership_window",
    "window_arrival_counts",
    "uniform_counters",
    "uniform_counter",
    "sample_run_seed",
]

DEFAULT_PRECISION = 64


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


@record
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

    @property
    def value(self) -> Fraction:
        return Fraction(bit_reverse(self.counter, self.precision), 1 << self.precision)

    def __float__(self) -> float:
        return float(self.value)

    def to_json(self) -> dict:
        return {"counter": format(self.counter, "x"), "precision": self.precision}


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
# arrival bands


def band(i: int) -> tuple[int, int, int]:
    """Band i as (depth, lo, hi): the counters in [lo, hi) modulo 2**depth.

    Band 0 is (2, 0, 1) and band i >= 1 is (2i+1, 2**(i-1), 2**i).  The depth
    grows with i, so band i's depth decides bands 0..i; the run seeds of band
    i are the residues [0, lo) at its depth, none for band 0.
    """
    return max(2 * i + 1, 2), (1 << i) >> 1, 1 << i


def band_measure(i: int) -> Fraction:
    """Exact measure of band i: its hi - lo residues out of 2**depth."""
    depth, lo, hi = band(i)
    return Fraction(hi - lo, 1 << depth)


def band_limit(precision: int, i_max: int | None = None) -> int:
    """The deepest band testable at the given precision, or the band ``i_max`` once checked.

    Band i needs ``band(i)[0]`` bits, so precision 1 holds no band and the
    deepest is (precision - 1) // 2; the one band-cap rule of the package,
    raising PrecisionError.
    """
    if precision < band(0)[0]:
        raise PrecisionError(f"precision {precision} holds no band (band 0 needs depth 2)")
    cap = (precision - 1) // 2
    if i_max is None:
        return cap
    if not 0 <= i_max <= cap:
        raise PrecisionError(
            f"band {i_max} outside 0..{cap} at precision {precision} (depth max(2i+1, 2))"
        )
    return i_max


def _deadline_walk(cap: int) -> Iterator[tuple[int, dict[int, int]]]:
    """The "pending deadline" automaton over the free low bits of a counter.

    Scanning a counter from bit 0 upward, the only live state is the deadline
    by which the current zero-run must last: band 0 needs zeros below its
    depth, and a one at bit j < cap opens band j+1, which needs zeros above
    it up to its depth.  The low L = band(cap)[0] bits decide membership.
    Before each bit b = 0..L the walk yields the counts over the 2**b
    settings of bits 0..b-1: ``member`` prefixes already in the set and
    ``pending[d]`` prefixes whose open run needs zeros through bit d.  The
    dict is live: read it before the next step.
    """
    member, pending = 0, {band(0)[0] - 1: 1}
    for b in range(band(cap)[0] + 1):
        yield member, pending
        resolved = pending.pop(b, 0)  # a zero at bit b meets deadline b
        broken = resolved + sum(pending.values())  # a one at bit b breaks every run
        member = 2 * member + resolved
        if b < cap:
            depth, lo, hi = band(b + 1)
            assert (lo, hi) == (1 << b, 2 << b), "band b+1 is a one at bit b over free bits"
            pending[depth - 1] = broken


def arrival_set_measures(i_max: int) -> list[Fraction]:
    """Exact measures of the unions of bands 0..i, for i = 0..i_max, from one walk.

    After bits 0..i-1 of the cap-i_max walk, the open runs belong to bands
    0..i, and one due at bit d completes on a further d-i+1 zeros, so the
    union of bands 0..i measures member/2**i + sum(pending[d]/2**(d+1)).
    Agrees with the union of the bands' intervals but stays cheap for deep
    truncations, where the union has ~2**i components.
    """
    if i_max < 0:
        raise ValueError("i_max must be nonnegative")
    out = []
    for i, (member, pending) in zip(range(i_max + 1), _deadline_walk(i_max)):
        top = band(i)[0]  # every open deadline lies below band i's depth
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


def in_arrival_set(p: DyadicPoint, i_max: int | None = None) -> bool:
    """True when some band 0..i_max matches the point's leading bits."""
    bands = map(band, range(band_limit(p.precision, i_max) + 1))
    return any(lo <= p.counter % (1 << depth) < hi for depth, lo, hi in bands)


def run_seed_mask(counters: np.ndarray, i: int) -> np.ndarray:
    """Whether each counter of a uint64 array seeds a run of band i.

    A seed's low ``depth`` bits are below ``lo`` (``band``), so the
    2**(i-1) counters from it all arrive; band 0 has no seeds.  A uint64
    counter carries bands 0..31.
    """
    depth, lo, _ = band(band_limit(64, i))
    return (counters & np.uint64((1 << depth) - 1)) < np.uint64(lo)


# Counters per block of membership_window's padded run: every band whose
# period 2**depth is at most this (bands 0..5) is one strided slice.
RUN_ALIGN = 1 << 12


def membership_window(p: DyadicPoint, width: int, i_max: int | None = None) -> np.ndarray:
    """Arrival indicators at counters c, c+1, ..., c+width-1 (backward orbit), any precision.

    Each band (``band``) is a periodic slice of the run, padded to whole
    blocks of RUN_ALIGN counters: one strided slice when the period fits a
    block, else one slice per period the run meets, offsets in Python ints.
    The bands stop at the first whose lo passes the run's last counter: it
    and every deeper band have a period past the run, so the run's residues
    are its counters, all below their lo.
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
    end = c - skip + out.size  # one past the padded run's last counter
    for i in range(cap + 1):
        depth, lo, hi = band(i)
        if lo >= end:
            break
        period = 1 << depth
        if period <= RUN_ALIGN:
            out.reshape(-1, period)[:, lo:hi] = True
        else:
            for base in range(-((c - skip) % period), out.size, period):
                out[max(base + lo, 0) : max(base + hi, 0)] = True
    return out[skip : skip + width]


# Counters per block in window_arrival_counts: bounds the temporaries at a
# few hundred KiB whatever the number of windows.  Counter bits per pass of
# _walk: the chunk tables of a band cap hold (L+1-hi) * 2**COUNT_BITS
# entries for a chunk whose top bit is hi, 223 KiB at cap 31, cached per cap
# with the members per period; 8 bits would save three of its eleven passes
# for 633 KiB of tables.  A block of window counts reads the chunks at and
# below its highest carry bit for both ends and the chunks above it once.
COUNT_BLOCK = 8192
COUNT_BITS = 6


def _digit_steps(cap: int) -> tuple[np.ndarray, np.ndarray, np.uint64]:
    """The digit DP of a prefix count one bit at a time, as uint64 gains and next states.

    The prefix count of a counter N is the number of members of bands 0..cap
    below it inside one period: each set bit b of N adds the members that
    agree with N above b, have a zero at b and any bits below.  The bits are
    read from the top down, starting in state L.  Gains and next states are
    indexed by [bit position b, 2 * state + bit of N at b] for b below the
    period bits L, and the next state is stored doubled, ready to take the
    next bit.  The state is the position of the next set bit of N
    above b (L when none), or L + 1 once the bits above b hold a whole band,
    after which every completion below is a member.  A set bit at b gains,
    from the walk before bit b, the members and the runs due below the state,
    which the zeros b..state-1 complete; in state L + 1, all 2**b settings.
    The third entry is the members of one whole period, the walk's count
    after bit L - 1, when no run is left pending.
    """
    top = band(cap)[0]
    # due[b] = (member, pending[0], ..., pending[L-1]) before bit b, b = 0..L
    due = np.zeros((top + 1, top + 1), np.uint64)
    for b, (member, pending) in enumerate(_deadline_walk(cap)):
        due[b, 0] = member
        for d, n in pending.items():
            due[b, d + 1] = n
    assert not due[top, 1:].any(), "every run is decided within the period"
    states = np.arange(top + 2)
    gain = np.zeros((top, 2 * top + 4), np.uint64)
    gain[:, 1:-2:2] = np.cumsum(due[:top], axis=1)
    gain[:, -1] = np.uint64(1) << np.arange(top, dtype=np.uint64)
    # a one at b < cap followed by zeros up to band b+1's depth is that band
    whole = np.array([band(b + 1)[0] - 1 if b < cap else top for b in range(top)])
    step = np.empty((top, 2 * top + 4), np.intp)
    step[:, 0::2] = 2 * states
    step[:, 1::2] = 2 * np.where(states > whole[:, None], top + 1, np.arange(top)[:, None])
    return gain, step, due[top, 0]


@functools.lru_cache(maxsize=None)
def _chunk_tables(
    cap: int,
) -> tuple[np.uint64, tuple[tuple[np.uint64, np.uint64, np.ndarray, np.ndarray], ...]]:
    """Members per period, and ``_digit_steps`` composed over chunks of up to COUNT_BITS bits.

    The chunks run from the top period bit L-1 down, the lowest one narrower
    when COUNT_BITS does not divide L.  A chunk of bits lo..hi is entered in
    the state left by the bits above it, one of hi+1..L+1, so it keeps only
    those rows: its key is (state - hi - 1) << w | (bits lo..hi of N), for w
    = hi - lo + 1.  Each chunk is (lo, mask, gain, next): ``gain`` adds the
    members counted at the chunk's set bits, and ``next`` is the key base of
    the following chunk, (state - lo) << w', as int32.
    """
    gain1, step1, period_members = _digit_steps(cap)
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
    return period_members, tuple(chunks)


def _walk(r: np.ndarray, chunks: Sequence[tuple], base, total: np.ndarray | None = None):
    """Walk the counters r through ``chunks`` from key base ``base``; return the key base after.

    Each chunk reads its bits of r, adds its gain to ``total`` when one is
    given (else the walk only finds the state) and moves to the next state.
    """
    for lo, mask, gain, nxt in chunks:
        key = ((r >> lo) & mask).view(np.int64)
        key += base
        if total is not None:
            total += gain[key]
        base = nxt[key]
    return base


def window_arrival_counts(
    counters: np.ndarray,
    width: int,
    precision: int = DEFAULT_PRECISION,
    i_max: int | None = None,
) -> np.ndarray:
    """Number of arrivals among counters c..c+width-1, for each starting counter.

    ``counters`` is a uint64 array, as ``uniform_counters`` draws it, of any
    shape, read flat; anything else is a TypeError.

    An exact prefix count F(c + width) - F(c), where F(N) counts the members
    below N.  Membership has period P = 2**band(cap)[0], so F(N) is
    (N // P) * (members per period, cached with the tables) plus a digit DP
    over the bits of N mod P, read COUNT_BITS bits per table lookup
    (``_walk``) for COUNT_BLOCK counters at a time.  Within a block, c mod P and
    (c + width) mod P agree above the highest bit t where any pair of them
    differs, the top of the carry that adding the width sets off: the chunks
    above t are walked once, on the starts, for the state both ends share,
    and only the chunks at and below t on both ends.  A width small against
    P keeps t low (for uniform starts about log2(COUNT_BLOCK) bits above the
    width's top bit); at worst every chunk is read twice.  Precision must be
    <= 64.  Agrees with ``membership_window(...).sum()`` pointwise.
    """
    if precision > 64:
        raise PrecisionError("window counting supports precision <= 64")
    if width < 1:
        raise ValueError("width must be positive")
    if not (isinstance(counters, np.ndarray) and counters.dtype == np.uint64):
        raise TypeError("counters must be a uint64 numpy array")
    cap = band_limit(precision, i_max)
    cs = counters.reshape(-1)
    if cs.size and int(cs.max()) > (1 << precision) - width:
        raise OrbitRangeError(
            f"window of width {width} from counter {int(cs.max())} leaves precision {precision}"
        )
    top = band(cap)[0]
    low = np.uint64((1 << top) - 1)
    # c + width may be 2**64, so add the quotients and remainders mod P apart
    w_periods, w_rest = np.uint64(width >> top), np.uint64(width & ((1 << top) - 1))
    period_members, chunks = _chunk_tables(cap)
    out = np.empty(cs.size, np.int64)
    for s in range(0, cs.size, COUNT_BLOCK):
        c_rest = cs[s : s + COUNT_BLOCK] & low
        end = c_rest + w_rest  # below 2P <= 2**64
        count = (w_periods + (end >> np.uint64(top))) * period_members
        end &= low
        # every start and its end agree above bit t: one walk, shared state
        t = int(np.bitwise_or.reduce(c_rest ^ end)).bit_length() - 1
        shared = sum(int(lo) > t for lo, *_ in chunks)
        base = _walk(c_rest, chunks[:shared], 0)
        minus = np.zeros(c_rest.size, np.uint64)
        _walk(end, chunks[shared:], base, count)
        _walk(c_rest, chunks[shared:], base, minus)
        # uint64 arithmetic wraps, but the true count lies in [0, 2**63)
        count -= minus
        out[s : s + c_rest.size] = count.astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# sampling


def uniform_counters(
    rng: np.random.Generator, size: int, precision: int = DEFAULT_PRECISION, width: int = 1
) -> np.ndarray:
    """Counters uniform over the values whose width-`width` window stays representable.

    Rejection keeps the draw exactly uniform on [0, 2**K - width]; the
    clipped sliver has probability width * 2**-K.  Each try reads the bits
    of the largest admissible counter, K unless the window spans over half
    the orbit, so more than half the tries land.  A try is one 32-bit
    ``rng.integers`` call for all its counters, the low words of all first,
    which reads the stream one call per word would; only the counters above
    the limit are drawn again.
    """
    if precision > 64:
        raise PrecisionError("window counting supports precision <= 64")
    if not 1 <= width <= (1 << precision):
        raise ValueError("width out of range")
    limit = (1 << precision) - width  # largest admissible counter
    bits = limit.bit_length()
    out = _counter_bits(rng, size, bits)
    if limit < (1 << bits) - 1:  # some tries land above the limit
        need = np.flatnonzero(out > np.uint64(limit))
        while need.size:
            draw = _counter_bits(rng, need.size, bits)
            out[need] = draw
            need = need[draw > np.uint64(limit)]
    return out


def _counter_bits(rng: np.random.Generator, size: int, bits: int) -> np.ndarray:
    """``size`` uniform uint64 values of ``bits`` bits, from one 32-bit draw call.

    Word w of value j is draw w * size + j; none is drawn for 0 bits.
    """
    words = -(-bits // 32)
    if not (words and size):
        return np.zeros(size, np.uint64)
    drawn = rng.integers(0, 1 << 32, size=words * size, dtype=np.uint32).reshape(words, size)
    out = drawn[-1].astype(np.uint64)
    for word in drawn[-2::-1]:  # the high word first
        out <<= np.uint64(32)
        out |= word
    if bits % 32:
        out &= np.uint64((1 << bits) - 1)
    return out


def uniform_counter(
    rng: np.random.Generator, precision: int, low: int = 0, high: int | None = None
) -> int:
    """Counter uniform on [low, high] (by default every K-bit counter), any precision K.

    Each try reads the b bits of the span high - low, 32 per
    ``rng.integers(0, 2**32)`` draw, lowest first, as ``uniform_counters``
    does, and adds ``low``; a span of b = K bits reads the counter itself.
    A value outside is drawn again, so more than half the tries land.
    """
    high = (1 << precision) - 1 if high is None else high
    if not 0 <= low <= high < 1 << precision:
        raise PrecisionError(f"no counter in [{low}, {high}] at precision {precision}")
    bits = (high - low).bit_length()
    base = low if bits < precision else 0
    while True:
        words = (int(rng.integers(0, 1 << 32)) << s for s in range(0, bits, 32))
        value = base + sum(words) % (1 << bits)
        if low <= value <= high:
            return value


def sample_run_seed(
    i: int, rng: np.random.Generator, precision: int = DEFAULT_PRECISION
) -> DyadicPoint:
    """Uniform draw from the run-seed set of band i (i >= 1)."""
    band_limit(precision, i)
    if i < 1:
        raise ValueError("run seeds exist for band indices i >= 1 only")
    depth, half, _ = band(i)
    low = int(rng.integers(0, half))
    high = uniform_counter(rng, precision - depth)
    return DyadicPoint((high << depth) | low, precision)
