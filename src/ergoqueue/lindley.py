"""One-sided recursions of Lindley type and their backward-supremum solution.

The driving identity: starting the recursion x -> max(x + z, 0) from zero and
feeding increments oldest-first gives, after N steps, exactly the maximum of
the N+1 backward partial sums of those increments.  The maximum is monotone
in N, so running it over growing windows yields the stationary state from
below; two copies of the chain driven by the same increments and started at
different levels keep their order and merge permanently the first time the
upper one drains to the level of the lower.

Queue length and waiting time are the same map under substitution:
Q_{n+1} = (Q_n + Y_{n+1} - s)^+ and W_{n+1} = (W_n + S_n - T_{n+1})^+.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from ._record import record

__all__ = [
    "LoynesResult",
    "CoupleResult",
    "loynes_sup",
    "ExactSum",
    "run_recursion",
    "forward_couple",
    "service_rate",
    "queue_blocks",
    "waiting_blocks",
    "tandem_blocks",
    "tandem_path",
]


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@record(hidden=("sums",))
class LoynesResult:
    value: float
    argmax: int
    converged: bool
    sums: np.ndarray  # V_0..V_N

    @property
    def prefix_maxima(self) -> np.ndarray:
        """The sup over every prefix length 0..N; nondecreasing, from V_0 = +0.0."""
        maxima = np.maximum.accumulate(self.sums)
        maxima += 0.0  # np.maximum may keep a later -0.0 over V_0's +0.0; -0.0 + 0.0 is +0.0
        return maxima


def loynes_sup(window: Sequence[float], slack: float = 0.0) -> LoynesResult:
    """Maximum backward partial sum, the stationary state built from below.

    window[j] is the increment at lag j (time 0, -1, ..., -N+1); V_0 = 0 and
    V_n is the sum of the n most recent increments, accumulated in order.
    A sum past the float range leaves the last one infinite: a ValueError.
    Returns the max of V_0..V_N and the smallest maximizing index.  The value
    is nonnegative because V_0 = 0 participates.  ``converged`` reports a
    finite-window diagnostic, not a guarantee: the argmax is interior and the
    trailing sum has dropped at least ``slack`` below the max, so extending
    the window a little would not have changed the answer.  The result keeps
    the partial sums it was read from, so their running maxima
    (``prefix_maxima``) need no second pass over the window.
    """
    arr = _as_float_array(window, "window")
    sums = np.zeros(arr.size + 1)
    with np.errstate(over="ignore"):
        np.cumsum(arr, out=sums[1:])
    if not np.isfinite(sums[-1]):
        raise ValueError("the partial sums overflow the float range")
    arg = int(np.argmax(sums))  # first maximizing index
    best = float(sums[arg])
    converged = bool(arg < arr.size and sums[-1] < best - slack)
    return LoynesResult(best, arg, converged, sums)


# the reflection kernel and ExactSum.add walk their input this many values at
# a time, so their temporaries stay small however long the input is
BLOCK = 8192
# forward_couple's first block is short, so that a pair that meets at once
# does not pay for a whole block of prefix sums
FIRST_COUPLE_BLOCK = 256
# after the meeting, forward_couple steps this many more increments and
# checks that the chains stay equal
ABSORPTION_CHECK = 64
# forward_couple closes a block without stepping it when its increments
# and both chain states are whole multiples of 2**-GRID_BITS and its states
# and sums stay below 2**(53 - GRID_BITS), where no addition rounds (_exact)
GRID_BITS = 20


@np.errstate(over="ignore", invalid="ignore")
def _reflect(
    x: float,
    z: np.ndarray,
    out: np.ndarray,
    sums: np.ndarray | None = None,
    low: np.ndarray | None = None,
) -> np.ndarray:
    """Fill out[k] with the state after steps 0..k of x -> max(x + z, 0) from x.

    The reflection identity X_k = S_k - min(-x, min_{j<=k} S_j), over the
    prefix sums S of z (``sums``) and their running minima (``low``), each
    computed here when not given, is exact when no sum rounds, as on a
    dyadic grid.  The block is then certified against the defining step bit
    for bit, sign of zero included; since the first step starts from x, that
    proves the whole block equal to the sequential recursion.  From the
    first step that fails the check, the step itself is iterated, so sums
    that overflow downward are exact; a state that overflows raises.
    """
    x = float(x)
    if sums is None:
        sums = np.cumsum(z)
    if low is None:
        low = np.minimum.accumulate(sums)
    np.minimum(low, -x, out=out)
    np.subtract(sums, out, out=out)
    step = np.empty_like(out)
    step[:1] = x
    step[1:] = out[:-1]
    step += z
    # max(a, 0.0) keeps a unless 0.0 > a, so -0.0 stays -0.0 (np.maximum
    # would give +0.0)
    step[step < 0.0] = 0.0
    bad = np.flatnonzero(step.view(np.int64) != out.view(np.int64))
    if bad.size:
        k = int(bad[0])
        if k:
            x = float(out[k - 1])
        # the step max(x + zn, 0.0), spelled so that it costs no call: like
        # max, it keeps x + zn unless it is below 0.0, so -0.0 and NaN pass
        tail = []
        append = tail.append
        for zn in z[k:].tolist():
            x += zn
            if x < 0.0:
                x = 0.0
            append(x)
        out[k:] = tail
    if np.isinf(out).any():
        raise ValueError("the queue recursion overflows the float range")
    return out


def _exact(upper: float, lower: float, z: np.ndarray, sums: np.ndarray, low: float) -> bool:
    """Whether both chains step ``z`` with no addition rounding, so it may be closed.

    ``sums`` are the prefix sums S of ``z`` as ``np.cumsum`` computes them,
    and ``low`` their least.  True when ``upper``, ``lower`` and ``z`` are
    whole multiples of 2**-J (J = ``GRID_BITS``) and upper + a + b <
    2**(53 - J), with a = max(0, max S) and b = -min(0, min S).  The states
    are tested first, as they cost least, and the bound before ``z``, so
    scaling ``z`` by 2**J cannot overflow: under the bound every
    |z_k| < 2**(54 - J), or S_k would round to beyond it.  The bound's own
    additions decide it exactly: its terms are not negative and, on the
    grid, multiples, so each partial sum is exact below the bound and rounds
    to at least it above.

    Proof that each chain, from x = upper or x = lower, with
    0 <= lower <= upper and neither -0.0 (forward_couple's states, as the
    step makes -0.0 only from -0.0), steps such a block exactly, whether the
    chains meet in it, met before it (upper == lower) or do not meet:

    * A multiple of 2**-J below 2**(53 - J) in size is k 2**-J with
      |k| < 2**53, a double.  Rounding is monotone and 2**(53 - J) is a
      double, so a sum that rounds to below the bound was below it: by
      induction every S_k is the exact sum, a multiple in [-b, a].
    * With m_k = min_(j<=k) S_j, the exact chain is at
      X_k = S_k - min(-x, m_k) = max(x + S_k, S_k - m_k) after step k (the
      reflection identity), in [0, x + a + b], and the step's sum
      X_(k-1) + z_k = S_k - min(-x, m_(k-1)) (x + S_1 for the first step)
      lies in [-b, x + a + b].  As x <= upper, both are multiples below the
      bound, so by induction each step's addition is exact, a sum that is
      not negative is the state, and a negative one reflects to 0.0 as in
      exact arithmetic.
    * The chain ends at S[-1] - min(-x, min S), exactly: both terms are
      exact and so is their difference, a state.  The difference is +0.0
      when the state is 0, as the step gives: of the differences of equal
      values only -0.0 - 0.0 is -0.0, and min(-x, min S) is never +0.0,
      since x is not -0.0 (min(-0.0, 0.0) is -0.0).
    * The exact states differ by min(-lower, m_k) - min(-upper, m_k).  When
      lower < upper that is positive while m_k > -upper and 0 from the first
      k with S_k <= -upper, forward_couple's predicted meeting: the chains
      stay strictly ordered before it and are equal from it on.  When
      upper == lower they are one chain.

    So the block's end states, and its meeting step if it holds one, are
    those of the step recursion bit for bit, as the kernel would give them.
    """
    scale = 2.0**GRID_BITS
    if not ((upper * scale).is_integer() and (lower * scale).is_integer()):
        return False
    if not upper + max(float(sums.max()), 0.0) - min(low, 0.0) < 2.0 ** (53 - GRID_BITS):
        return False
    scaled = z * scale
    return bool((np.rint(scaled) == scaled).all())


def _start(x0: float) -> float:
    x0 = float(x0)
    if not math.isfinite(x0) or x0 < 0:
        raise ValueError("x0 must be finite and nonnegative")
    return x0


def _pieces(streams, names, negative: str | None = None) -> Iterator[tuple[np.ndarray, ...]]:
    """Pieces of at most BLOCK values, one from each stream, cut at the same places.

    A stream is an iterable of 1-D blocks read in order as one sequence, and a
    block is pulled only when the pieces reach it.  Each block is checked as
    it is read (``_as_float_array``, and for a negative entry when
    ``negative`` gives the error); a stream that ends before another is a
    ValueError.
    """
    streams = [iter(stream) for stream in streams]
    heads = [np.empty(0)] * len(streams)
    end = object()  # no stream yields it: a None block is checked, not taken for the end
    while True:
        for i, stream in enumerate(streams):
            while not heads[i].size and (block := next(stream, end)) is not end:
                heads[i] = _as_float_array(block, names[i])
                if negative and (heads[i] < 0).any():
                    raise ValueError(negative)
        size = min(BLOCK, *(head.size for head in heads))
        if not size:
            if any(head.size for head in heads):
                raise ValueError(f"{' and '.join(names)} must have equal length")
            return
        yield tuple(head[:size] for head in heads)
        heads = [head[size:] for head in heads]


def _drive(x: float, pieces: Iterable[tuple]) -> Iterator[tuple]:
    """The one block loop: the recursion from x, over pieces of at most BLOCK increments.

    ``pieces`` yields (inputs, increments) pairs.  ``_drive`` yields
    (inputs, states) per piece, the inputs handed through untouched so that a
    reader keeps each piece beside its states, and the states one longer
    than the piece: entry 0 is the state carried in (x for the first piece),
    entry k + 1 the state after the piece's step k.  The state is carried
    from piece to piece, so the joined states are the sequential
    recursion's bit for bit, however the increments are cut.
    """
    for inputs, z in pieces:
        states = np.empty(z.size + 1)
        states[0] = x
        x = _reflect(x, z, states[1:])[-1]
        yield inputs, states


def _joined(x0: float, blocks: Iterable[np.ndarray]) -> np.ndarray:
    """x0, then the states after each step of ``_drive``'s state blocks."""
    return np.concatenate([[x0], *(states[1:] for states in blocks)])


def run_recursion(x0: float, increments: Sequence[float]) -> np.ndarray:
    """The states X_0..X_T of the recursion driven forward from x0.

    The slotted queue is ``run_recursion(0.0, y - s)`` and the waiting line
    ``run_recursion(0.0, S - T)``: the same map under substitution.
    """
    x0 = _start(x0)
    pieces = ((None, piece) for piece, in _pieces([[increments]], ["increments"]))
    return _joined(x0, (states for _, states in _drive(x0, pieces)))


def _units(x: float) -> int:
    """A finite double as a whole number of units of 2**-1074."""
    numerator, denominator = x.as_integer_ratio()  # the denominator is a power of two
    return numerator << (1075 - denominator.bit_length())


class ExactSum:
    """A sum of float64 blocks that never rounds, read once rounded.

    The sum is kept in units of 2**-1074, the spacing of the subnormals, so
    every finite double is a whole number of them.  ``add`` splits each
    value's bits at bit 26 of its significand into a high part and the rest
    and adds each part, per binade (exponent field), into a float64 bin by
    ``np.bincount``.  The bins are exact: a binade's high parts are
    multiples of 2**26 of its spacing and below 2**53 of it, so up to 2**26
    values of either part keep every bin within 53 bits.  Before that many
    have been added the bins are moved into one Python int, as is, at once,
    every value from binade ``_TOP`` up (above about 1e294), whose bin could
    overflow.  ``total`` and ``mean`` divide the int once, so the total is
    the correctly rounded sum, the value ``math.fsum`` gives, and a mean is
    rounded once too.  A non-finite value, or a result past the float range,
    is a ValueError.
    """

    _HIGH = np.int64(-(1 << 26))  # clears the low 26 bits of the significand
    _CHUNK = 1 << 26  # values per bin flush
    _TOP = 2000  # 2**26 values of a binade below this sum below the float max

    def __init__(self) -> None:
        self._units = 0
        self._bins = np.zeros((2, self._TOP))  # high and low parts per binade
        self._pending = 0  # values in the bins

    @np.errstate(invalid="ignore")  # inf - inf in the split of a non-finite value, refused below
    def add(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=np.float64)
        for k in range(0, values.size, BLOCK):
            z = values[k : k + BLOCK]
            if self._pending + z.size > self._CHUNK:
                self._flush()
            self._pending += z.size
            bits = z.view(np.int64)
            binade = (bits >> 52) & 0x7FF
            high = (bits & self._HIGH).view(np.float64)
            for bins, part in zip(self._bins, (high, z - high)):
                if not part.any():  # values on a coarse grid have no low part
                    continue
                sums = np.bincount(binade, weights=part)
                if sums.size > 0x7FF:
                    raise ValueError("the summed values must be finite")
                for e in np.flatnonzero(sums[self._TOP :]).tolist():
                    self._units += sum(map(_units, part[binade == self._TOP + e].tolist()))
                bins[: sums.size] += sums[: self._TOP]

    def _flush(self) -> None:
        for x in self._bins[self._bins != 0].tolist():
            self._units += _units(x)
        self._bins[:] = 0.0
        self._pending = 0

    @property
    def units(self) -> int:
        """The sum so far, exactly, in units of 2**-1074."""
        self._flush()
        return self._units

    def total(self) -> float:
        return self.mean(1)

    def mean(self, count: int) -> float:
        """The sum over ``count``, rounded once."""
        if count < 1:
            raise ValueError("a mean needs a positive count")
        try:
            return self.units / (count << 1074)
        except OverflowError:  # int / int past the float range
            raise ValueError("the sum overflows the float range") from None


@record
class CoupleResult:
    coupling_time: int | None
    final_upper: float
    final_lower: float
    steps_run: int


def forward_couple(x0: float, increments: Iterable[np.ndarray]) -> CoupleResult:
    """Run the chain from x0 and from 0 on the same increments until they meet.

    Returns the first index where the two chains are equal, or None if they
    do not meet within the increments.  After meeting, continues for
    ``ABSORPTION_CHECK`` steps verifying the chains stay equal (they must:
    same map, same input), then stops early.  The run never reads past its
    input.  Ordering X(x0) >= X(0) is asserted in every block the kernel
    steps before the meeting, and proven in the blocks closed without
    stepping (below).

    ``increments`` is a stream, an iterable of 1-D blocks read in order as
    one sequence, as ``queue_blocks`` reads its arrivals.  Each block is
    checked as it is read, and none is pulled once the run has stopped: the
    stream is drawn no further than the block holding the last step run,
    and not at all when x0 is 0.

    The run goes a block at a time, the first block ``FIRST_COUPLE_BLOCK``
    steps long and the others ``BLOCK``, over the block's prefix sums S.
    The block where S first falls to -upper, the predicted meeting, is cut
    ``ABSORPTION_CHECK`` steps after it.  A block on which ``_exact`` holds
    (increments and states on the grid of 2**-GRID_BITS, states and sums
    below 2**(53 - GRID_BITS)) is not stepped: no addition of the step
    rounds there, so each chain ends it at S[-1] - min(-x, min S) from its
    state x, the chains meet exactly where predicted, and both are the
    states the step gives bit for bit.  Only the other blocks, off the
    grid, run the reflection kernel, which finds the meeting itself.
    """
    x0 = _start(x0)
    # iter here, not in _pieces: a non-iterable is a TypeError even when no block is read
    pieces = _pieces([iter(increments)], ["increments"])
    upper, lower = x0, 0.0
    if upper == lower:
        return CoupleResult(0, upper, lower, 0)
    tau = None
    # the run ends ABSORPTION_CHECK steps after the meeting, or where the
    # increments run out
    n, end, size = 0, math.inf, FIRST_COUPLE_BLOCK
    for z, in pieces:
        while z.size and n < end:
            zb = z[: min(size, end - n)]
            size = BLOCK
            with np.errstate(over="ignore"):  # _reflect raises if a state overflows
                sums = np.cumsum(zb)
            least = float(sums.min())
            meet = None
            if tau is None and least <= -upper:
                # in exact arithmetic the chains meet where the prefix sum
                # first falls to -upper; ending the block there (plus the
                # absorption check) keeps the kernel from stepping off-grid
                # input far past it
                meet = int(np.argmax(sums <= -upper))
                cut = meet + 1 + ABSORPTION_CHECK
                zb, sums = zb[:cut], sums[:cut]
                least = float(sums.min())
            used = zb.size
            if _exact(upper, lower, zb, sums, least):
                # no rounding: the end states in closed form, the meeting where predicted
                last = float(sums[-1])
                upper, lower = last - min(-upper, least), last - min(-lower, least)
                if meet is not None:
                    tau = n + meet + 1
                    end = tau + ABSORPTION_CHECK
            else:
                low = np.minimum.accumulate(sums)  # the same for both chains
                up = _reflect(upper, zb, np.empty(used), sums, low)
                lo = _reflect(lower, zb, np.empty(used), sums, low)
                met = 0  # the block's first step after the meeting
                if tau is None:
                    hits = np.flatnonzero(up == lo)
                    met = int(hits[0]) + 1 if hits.size else used
                    if (up[:met] < lo[:met]).any():
                        raise AssertionError("ordering violated (non-finite input?)")
                    if hits.size:
                        tau = n + met
                        end = tau + ABSORPTION_CHECK
                        used = min(used, met + ABSORPTION_CHECK)
                if (up[met:used] != lo[met:used]).any():
                    raise AssertionError("absorption violated after coupling")
                upper, lower = float(up[used - 1]), float(lo[used - 1])
            n += used
            z = z[used:]
        if n == end:
            break
    return CoupleResult(tau, upper, lower, n)


def service_rate(s: float) -> float:
    """The one rule for a service rate: a positive finite float, else a ValueError."""
    s = float(s)
    if s <= 0 or not math.isfinite(s):
        raise ValueError("service rate must be positive and finite")
    return s


def queue_blocks(
    arrivals: Iterable[np.ndarray], s: float
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """A queue under constant service rate s, from empty, one piece at a time.

    ``arrivals`` is a stream of 1-D blocks, read as the pieces are and each
    checked as it is read (finite and nonnegative).  Yields (arrivals,
    states) per piece of at most BLOCK slots, the states as ``_drive`` yields
    them: entry 0 is the backlog carried in.
    """
    s = service_rate(s)
    checked = _pieces([arrivals], ["arrivals"], "arrivals must be nonnegative")
    return _drive(0.0, ((y, y - s) for y, in checked))


def waiting_blocks(
    services: Iterable[np.ndarray], interarrivals: Iterable[np.ndarray]
) -> Iterator[np.ndarray]:
    """Waiting times from W_0 = 0, one state block (as ``_drive`` yields it) per piece.

    Increment n is services[n] - interarrivals[n]: services[n] is the service
    of customer n (the one ahead), interarrivals[n] the gap to customer n+1.
    Both are streams of 1-D blocks, cut at the same places whatever their own
    blocks, and each block is checked as it is read.
    """
    pairs = _pieces(
        [services, interarrivals], ["services", "interarrivals"], "times must be nonnegative"
    )
    return (states for _, states in _drive(0.0, ((None, s - t) for s, t in pairs)))


@np.errstate(over="ignore")
def _outputs(y: np.ndarray, q: np.ndarray) -> np.ndarray:
    """A station's per-slot outputs, inflow plus backlog drop, from its arrivals and states.

    Never negative, since rounding is monotone: q[n+1] is 0 or
    fl(q[n] + fl(y[n] - s)) <= fl(q[n] + y[n]).  An inflow past the float
    range is a ValueError, raised without a numpy warning.
    """
    out = (q[:-1] + y) - q[1:]
    if np.isinf(out).any():
        raise ValueError("the first station's outputs overflow the float range")
    return out


def tandem_blocks(
    arrivals: Iterable[np.ndarray], s_first: float, s_second: float
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Two stations in series, both from empty: departures of the first feed the second.

    Yields (arrivals, first-station states, first-station outputs,
    second-station states) per piece, the states as ``queue_blocks`` yields
    them.  Outputs satisfy out[n] = min(Q_n + Y_{n+1}, s_first) exactly, and
    each station conserves work: cumulative inflow minus cumulative outflow
    equals the backlog change.
    """
    first = ((y, q, _outputs(y, q)) for y, q in queue_blocks(arrivals, s_first))
    s_second = service_rate(s_second)
    second = _drive(0.0, ((row, row[2] - s_second) for row in first))
    return ((*row, w) for row, w in second)


def tandem_path(
    arrivals: Sequence[float], s_first: float, s_second: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two stations in series, as ``tandem_blocks`` gives them, each piece joined.

    Returns (first-station states, per-slot outputs of the first station,
    second-station states).
    """
    pieces = list(tandem_blocks([arrivals], s_first, s_second))
    outputs = np.concatenate([np.empty(0), *(out for _, _, out, _ in pieces)])
    first = _joined(0.0, (q for _, q, _, _ in pieces))
    return first, outputs, _joined(0.0, (w for *_, w in pieces))
