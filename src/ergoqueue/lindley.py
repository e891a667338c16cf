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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QueueTrace",
    "LoynesResult",
    "CoupleResult",
    "partial_sums",
    "loynes_sup",
    "run_recursion",
    "forward_couple",
    "queue_path",
    "waiting_path",
    "tandem_path",
]


def _as_float_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def partial_sums(window: Sequence[float]) -> np.ndarray:
    """Backward partial sums of a window whose entry 0 is the most recent.

    window[j] is the increment at lag j (time 0, -1, ..., -N+1); V_0 = 0 and
    V_n is the sum of the n most recent increments, accumulated in order.
    A sum past the float range leaves the last one infinite: a ValueError.
    """
    arr = _as_float_array(window, "window")
    sums = np.zeros(arr.size + 1)
    with np.errstate(over="ignore"):
        np.cumsum(arr, out=sums[1:])
    if not np.isfinite(sums[-1]):
        raise ValueError("the partial sums overflow the float range")
    return sums


@dataclass(frozen=True)
class LoynesResult:
    value: float
    argmax: int
    converged: bool
    sums: np.ndarray = field(repr=False, compare=False)  # V_0..V_N, from partial_sums

    @property
    def prefix_maxima(self) -> np.ndarray:
        """The sup over every prefix length 0..N; nondecreasing."""
        return np.maximum.accumulate(np.maximum(self.sums, 0.0))


@dataclass
class QueueTrace:
    """States X_0..X_T with the increments that drove them."""

    states: np.ndarray
    increments: np.ndarray

    def verify(self) -> None:
        """Check the defining recursion holds exactly at every step."""
        x = self.states
        z = self.increments
        if x.shape != (z.size + 1,):
            raise ValueError("states must be one longer than increments")
        if x.size and (x < 0).any():
            raise ValueError("negative state")
        bad = np.flatnonzero(x[1:] != np.maximum(x[:-1] + z, 0.0))
        if bad.size:
            raise ValueError(f"recursion violated at step {bad[0]}")


def loynes_sup(window: Sequence[float], slack: float = 0.0) -> LoynesResult:
    """Maximum backward partial sum, the stationary state built from below.

    Returns the max of V_0..V_N and the smallest maximizing index.  The value
    is nonnegative because V_0 = 0 participates.  ``converged`` reports a
    finite-window diagnostic, not a guarantee: the argmax is interior and the
    trailing sum has dropped at least ``slack`` below the max, so extending
    the window a little would not have changed the answer.  The result keeps
    the partial sums it was read from, so their running maxima
    (``prefix_maxima``) need no second pass over the window.
    """
    sums = partial_sums(window)
    arg = int(np.argmax(sums))  # first maximizing index
    best = float(sums[arg])
    n_total = sums.size - 1
    converged = bool(arg < n_total and sums[-1] < best - slack)
    return LoynesResult(best, arg, converged, sums)


# the reflection kernel walks its input this many steps at a time, so its
# temporaries stay small however long the input is
BLOCK = 8192
# forward_couple's first block is short, so that a pair that meets at once
# does not pay for a whole block of prefix sums
FIRST_COUPLE_BLOCK = 256
# after the meeting, forward_couple steps this many more increments and
# checks that the chains stay equal
ABSORPTION_CHECK = 64


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


def run_recursion(x0: float, increments: Sequence[float]) -> QueueTrace:
    """Drive the recursion forward from x0, keeping the whole trajectory."""
    x0 = float(x0)
    if not math.isfinite(x0) or x0 < 0:
        raise ValueError("x0 must be finite and nonnegative")
    z = _as_float_array(increments, "increments")
    states = np.empty(z.size + 1)
    states[0] = x0
    for n in range(0, z.size, BLOCK):
        end = min(n + BLOCK, z.size)
        _reflect(states[n], z[n:end], states[n + 1 : end + 1])
    return QueueTrace(states=states, increments=z)


@dataclass(frozen=True)
class CoupleResult:
    coupling_time: int | None
    final_upper: float
    final_lower: float
    steps_run: int


def forward_couple(
    x0: float, increments: Sequence[float] | Iterable[np.ndarray]
) -> CoupleResult:
    """Run the chain from x0 and from 0 on the same increments until they meet.

    Returns the first index where the two chains are equal, or None if they
    do not meet within the increments.  After meeting, continues for
    ``ABSORPTION_CHECK`` steps verifying the chains stay equal (they must:
    same map, same input), then stops early.  The run never reads past its
    input.  Ordering X(x0) >= X(0) is asserted throughout.

    ``increments`` is one array, or a stream: an iterable of 1-D arrays
    that are read in order as one sequence.  Each block is checked as it is
    read, and no block is pulled once the run has stopped, so a lazily drawn
    stream is drawn no further than the block holding the last step run.
    """
    x0 = float(x0)
    if x0 < 0 or not math.isfinite(x0):
        raise ValueError("x0 must be finite and nonnegative")
    if isinstance(increments, (np.ndarray, Sequence)) or not isinstance(increments, Iterable):
        blocks = iter((_as_float_array(increments, "increments"),))
    else:
        blocks = (_as_float_array(z, "increments") for z in increments)
    upper = x0
    lower = 0.0
    if upper == lower:
        return CoupleResult(0, upper, lower, 0)
    tau = None
    # the run ends ABSORPTION_CHECK steps after the meeting, or where the
    # increments run out
    n, end, size = 0, math.inf, FIRST_COUPLE_BLOCK
    while n < end:
        z = next(blocks, None)
        if z is None:
            break
        i = 0
        while i < z.size and n < end:
            zb = z[i : i + min(size, end - n)]
            size = BLOCK
            with np.errstate(over="ignore"):  # _reflect raises if a state overflows
                sums = np.cumsum(zb)
            if tau is None:
                # in exact arithmetic the chains meet where the prefix sum
                # first falls to -upper; ending the block there (plus the
                # absorption check) keeps the kernel from stepping off-grid
                # input far past it
                k = int(np.argmax(sums <= -upper))
                if sums[k] <= -upper:
                    stop = k + 1 + ABSORPTION_CHECK
                    zb, sums = zb[:stop], sums[:stop]
            low = np.minimum.accumulate(sums)  # the same for both chains
            up = _reflect(upper, zb, np.empty(zb.size), sums, low)
            lo = _reflect(lower, zb, np.empty(zb.size), sums, low)
            met, used = 0, zb.size  # met: the block's first step after the meeting
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
            i += used
    return CoupleResult(tau, upper, lower, n)


def queue_path(arrivals: Sequence[float], s: float) -> QueueTrace:
    """Queue trajectory under constant service rate s, from an empty queue."""
    y = _as_float_array(arrivals, "arrivals")
    if (y < 0).any():
        raise ValueError("arrivals must be nonnegative")
    s = float(s)
    if s <= 0 or not math.isfinite(s):
        raise ValueError("service rate must be positive and finite")
    return run_recursion(0.0, y - s)


def waiting_path(services: Sequence[float], interarrivals: Sequence[float]) -> QueueTrace:
    """Waiting times W_0..W_T from W_0 = 0; increment n is services[n] - interarrivals[n].

    services[n] is the service of customer n (the one ahead), interarrivals[n]
    the gap to customer n+1.
    """
    s_arr = _as_float_array(services, "services")
    t_arr = _as_float_array(interarrivals, "interarrivals")
    if s_arr.size != t_arr.size:
        raise ValueError("services and interarrivals must have equal length")
    if (s_arr < 0).any() or (t_arr < 0).any():
        raise ValueError("times must be nonnegative")
    return run_recursion(0.0, s_arr - t_arr)


def tandem_path(
    arrivals: Sequence[float], s_first: float, s_second: float
) -> tuple[QueueTrace, np.ndarray, QueueTrace]:
    """Two stations in series, both starting empty: departures of the first feed the second.

    Returns (first-station trace, per-slot outputs of the first station,
    second-station trace).  Outputs satisfy out[n] = min(Q_n + Y_{n+1}, s_first)
    exactly, and each station conserves work: cumulative inflow minus
    cumulative outflow equals the backlog change.
    """
    first = queue_path(arrivals, s_first)
    q = first.states
    y = _as_float_array(arrivals, "arrivals")
    # inflow plus backlog drop; never negative, since rounding is monotone:
    # q[n+1] is 0 or fl(q[n] + fl(y[n] - s_first)) <= fl(q[n] + y[n])
    outputs = (q[:-1] + y) - q[1:]
    second = queue_path(outputs, s_second)
    return first, outputs, second
