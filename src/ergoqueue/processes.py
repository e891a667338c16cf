"""Stationary arrival and increment processes behind one small interface.

Every process produces forward streams (Y_1, Y_2, ...), whole or block by
block, backward windows (Y_0, Y_-1, ..., Y_-N+1), and window totals: the
sums Y_1 + ... + Y_N of m realizations, the block sums every estimator
reads.  Backward windows for the memoryless and Markov kinds are forward
samples relabeled, which is lawful because a stationary window read in
either direction has the same joint law (the two-state Markov chain is
reversible).  The counter-driven kind inverts its dynamics instead: lag j
lives at counter value c + j, so a backward window is literally a stretch
of consecutive counters.

Determinism: every draw takes a numpy Generator, and ``rng_for`` is the
one way a seed becomes one.  Replica r of a seeded experiment uses
SeedSequence(seed, spawn_key=(r,)), so adding replicas never perturbs
existing ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import odometer

__all__ = [
    "ProcessError",
    "TraceError",
    "rng_for",
    "IIDBernoulli",
    "IIDTable",
    "BinaryMarkov",
    "TraceProcess",
    "OdometerProcess",
    "parse_process",
]


class ProcessError(ValueError):
    """Invalid process parameters or an exhausted finite source."""


class TraceError(ProcessError):
    """A trace file failed to parse; carries the offending line number."""


def rng_for(seed: int, replica: int = 0) -> np.random.Generator:
    """Generator for one replica; independent streams per replica index."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replica,)))


# every kind but a trace hands over this many values per piece, so a reader
# that stops early stops the drawing too, and the Markov scan's and the
# membership window's temporaries stay small however long the sample is
SCAN_BLOCK = 8192


def _check_draw(rng: np.random.Generator, *lengths: int) -> None:
    """The one argument check of every public draw: a Generator and nonnegative lengths."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError(f"rng must be a numpy Generator (see rng_for), got {type(rng).__name__}")
    if min(lengths) < 0:
        raise ProcessError("n must be nonnegative")


class _ProcessBase:
    """Shared plumbing; every concrete kind implements ``_blocks``.

    ``_blocks(n, rng)`` yields a sample of n values in consecutive float64
    pieces, drawn from the Generator ``rng`` only as they are read;
    ``forward`` joins them and ``blocks`` hands them over as they come.
    Every public draw takes a Generator and checks it and its lengths here,
    once; a kind may override the hooks ``_backward_window`` and
    ``_window_counts``.
    """

    def forward(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(Y_1, ..., Y_n), the blocks of one stream joined."""
        _check_draw(rng, n)
        out = np.empty(n, dtype=np.float64)
        k = 0
        for block in self._blocks(n, rng):
            out[k : k + block.size] = block
            k += block.size
        return out

    def blocks(self, n: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
        """``forward(n, rng)`` as consecutive float64 pieces, drawn only as they are read.

        A reader that stops early leaves ``rng`` where the last block read
        left it; reading every block leaves it where ``forward`` would.  A
        piece may be a read-only view of a recording.
        """
        _check_draw(rng, n)
        return self._blocks(n, rng)

    def backward_window(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """(Y_0, Y_-1, ..., Y_-n+1); by default a forward sample relabeled."""
        _check_draw(rng, n)
        return self._backward_window(n, rng)

    def window_counts(self, m: int, width: int, rng: np.random.Generator) -> np.ndarray:
        """Totals of m windows of ``width`` values; by default of m independent realizations.

        A total past the float range (or NaN, from overflows of both signs)
        is a ValueError, raised without a numpy warning.
        """
        _check_draw(rng, m, width)
        with np.errstate(over="ignore", invalid="ignore"):
            totals = self._window_counts(m, width, rng)
        if not np.isfinite(totals).all():
            raise ValueError("the window sums overflow the float range")
        return totals

    def _backward_window(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self.forward(n, rng)[::-1]

    def _window_counts(self, m: int, width: int, rng: np.random.Generator) -> np.ndarray:
        return np.asarray([float(np.sum(self.forward(width, rng))) for _ in range(m)])


@dataclass(frozen=True)
class IIDBernoulli(_ProcessBase):
    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ProcessError(f"p must be in [0, 1], got {self.p}")

    def _blocks(self, n: int, rng) -> Iterator[np.ndarray]:
        for k in range(0, n, SCAN_BLOCK):
            yield (rng.random(min(SCAN_BLOCK, n - k)) < self.p).astype(np.float64)


@dataclass(frozen=True)
class IIDTable(_ProcessBase):
    """iid draws from a finite value table."""

    values: tuple[float, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        probs = tuple(float(p) for p in self.probabilities)
        if len(vals) != len(probs) or not vals:
            raise ProcessError("values and probabilities must be equal-length and nonempty")
        if any(not math.isfinite(v) for v in vals):
            raise ProcessError("table values must be finite")
        if not all(0.0 <= p <= 1.0 for p in probs) or abs(sum(probs) - 1.0) > 1e-12:
            raise ProcessError("probabilities must be in [0, 1] and sum to 1")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "probabilities", probs)

    def _blocks(self, n: int, rng) -> Iterator[np.ndarray]:
        values = np.asarray(self.values, dtype=np.float64)
        for k in range(0, n, SCAN_BLOCK):
            size = min(SCAN_BLOCK, n - k)
            yield values[rng.choice(values.size, size=size, p=self.probabilities)]


@dataclass(frozen=True)
class BinaryMarkov(_ProcessBase):
    """Two-state 0/1 Markov chain started from its stationary law.

    p01 is the 0 -> 1 transition probability, p10 the 1 -> 0 one.  The
    stationary weight of state 1 is p01/(p01+p10); the chain satisfies
    detailed balance, so it reads the same forward and backward.
    """

    p01: float
    p10: float

    def __post_init__(self) -> None:
        for name, p in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= p <= 1.0:
                raise ProcessError(f"{name} must be in [0, 1], got {p}")

    @property
    def stationary_p1(self) -> float:
        total = self.p01 + self.p10
        # both-zero chain never moves; any start is stationary, pick fair
        return self.p01 / total if total > 0 else 0.5

    def _blocks(self, n: int, rng) -> Iterator[np.ndarray]:
        # one uniform for the start, then one per step: the draws of a single
        # rng.random(n + 1), since each double takes one 64-bit output
        state = rng.random() < self.stationary_p1
        # step k sends 1 -> 0 when its uniform is < p10 and 0 -> 1 when it is
        # < p01, so it is the constant 0, the constant 1, the identity or a
        # negation (to0 & to1).  The block is the xor scan of the state's
        # changes: a negation changes it, an identity does not, and a
        # constant sets it to its value, to1.  With P the xor scan of the
        # negations, u = state xor P holds still between constants and is
        # to1 xor P at each, so a constant changes the state by u xor the u
        # of the constant before (the carried state, for the first); the
        # carried state itself enters as a change at step 0
        for k in range(0, n, SCAN_BLOCK):
            w = rng.random(min(SCAN_BLOCK, n - k))
            to0 = w < self.p10
            to1 = w < self.p01
            flip = to0 & to1
            at = np.flatnonzero(to0 ^ to1)
            u = (to1 ^ np.logical_xor.accumulate(flip))[at]
            flip[at[1:]] = u[1:] ^ u[:-1]
            flip[at[:1]] = u[:1] ^ state
            flip[0] ^= state
            block = np.logical_xor.accumulate(flip)
            state = block[-1]
            yield block.astype(np.float64)


class TraceProcess(_ProcessBase):
    """One recorded realization, replayed verbatim.

    Forward streams read from the top; backward windows read from the end,
    most recent last in recorded order; window totals sum consecutive, disjoint
    stretches from the top, so m of them are m stretches of the recording,
    not m copies of its first one.  Stationarity of the recording is the
    caller's assumption, not something a single path can certify.
    """

    def __init__(self, values: Sequence[float]):
        arr = np.array(values, dtype=np.float64)  # a copy, so its flags are ours
        if arr.ndim != 1:
            raise TraceError("values: trace must be one-dimensional")
        if not (np.isfinite(arr).all() and (arr >= 0).all()):
            raise TraceError("values: values must be finite and nonnegative")
        arr.flags.writeable = False  # no reader of a piece can write into the recording
        self.values = arr

    def _blocks(self, n: int, rng) -> Iterator[np.ndarray]:
        if n > self.values.size:
            raise TraceError(
                f"trace exhausted: {n} values requested, {self.values.size} recorded"
            )
        yield self.values[:n]

    def _backward_window(self, n: int, rng) -> np.ndarray:
        if n > self.values.size:
            raise TraceError(
                f"trace exhausted: window {n} exceeds {self.values.size} recorded values"
            )
        return self.values[self.values.size - n :][::-1].copy()

    def _window_counts(self, m: int, width: int, rng) -> np.ndarray:
        if m * width > self.values.size:
            raise TraceError(
                f"trace too short: {m} windows of {width} need {m * width} values, "
                f"{self.values.size} recorded"
            )
        return self.values[: m * width].reshape(m, width).sum(axis=1)


@dataclass(frozen=True)
class OdometerProcess(_ProcessBase):
    """0/1 arrivals read off the adding-machine orbit.

    A uniform counter c (``odometer.uniform_counter``, any precision K >= 2)
    is drawn once per realization; Y at forward time k is the arrival-set
    indicator at counter c - k, so a backward window of width N is the
    indicator over counters c, c+1, ..., c+N-1.  Membership uses bands up to
    i_max (default: the deepest), missing at most ``odometer.band_measure(i_max)``
    of the full arrival set.  Window totals are counted by
    ``odometer.window_arrival_counts``, at the precisions it supports.
    """

    precision: int = odometer.DEFAULT_PRECISION
    i_max: int | None = None

    def __post_init__(self) -> None:
        try:
            odometer.band_limit(self.precision, self.i_max)
        except odometer.PrecisionError as exc:
            raise ProcessError(str(exc)) from None

    def exact_mean_bounds(self) -> tuple[Fraction, Fraction]:
        """(exact E[Y] of this truncated process, upper bound for the full set).

        The first entry is the truncated arrival-set measure, which is the
        process mean exactly; the untruncated mean lies between the two.
        """
        cap = odometer.band_limit(self.precision, self.i_max)
        lo = odometer.arrival_set_measure(cap)
        return lo, lo + odometer.band_measure(cap)  # the bands past cap weigh band cap

    def _check_orbit(self, needed: int) -> None:
        if needed > (1 << self.precision):
            raise ProcessError(
                f"orbit too short: {needed} counters needed, "
                f"2**{self.precision} exist at K={self.precision}"
            )

    def _draw_counter(self, rng: np.random.Generator, low: int, width: int) -> int:
        # counters c with c - low >= 0 and c + width <= 2**K
        self._check_orbit(low + width)
        return odometer.uniform_counter(rng, self.precision, low, (1 << self.precision) - width)

    def _blocks(self, n: int, rng) -> Iterator[np.ndarray]:
        if n == 0:
            return  # no counter is drawn for an empty sample
        c = self._draw_counter(rng, low=n, width=1)
        # the counters c-1, ..., c-n, SCAN_BLOCK at a time: piece k is the run
        # below the one before it, read backwards
        for k in range(0, n, SCAN_BLOCK):
            size = min(SCAN_BLOCK, n - k)
            p = odometer.DyadicPoint(c - k - size, self.precision)
            yield odometer.membership_window(p, size, self.i_max)[::-1].astype(np.float64)

    def _backward_window(self, n: int, rng) -> np.ndarray:
        if n == 0:
            return np.empty(0, dtype=np.float64)
        c = self._draw_counter(rng, low=0, width=n)
        p = odometer.DyadicPoint(c, self.precision)
        return odometer.membership_window(p, n, self.i_max).astype(np.float64)

    def _window_counts(self, m: int, width: int, rng) -> np.ndarray:
        # backward-window arrival totals for m independent realizations, counted exactly
        if width == 0:
            return np.zeros(m, np.int64)
        self._check_orbit(width)
        cs = odometer.uniform_counters(rng, m, self.precision, width)
        return odometer.window_arrival_counts(cs, width, self.precision, self.i_max)


# ---------------------------------------------------------------------------
# spec strings


def _load(path: Path) -> np.ndarray:
    """The values of a trace file: one nonnegative decimal per line, UTF-8, LF line ends."""
    out = []
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            out.append(float(line))
        except ValueError:
            raise TraceError(f"{path}:{lineno}: not a number: {line!r}") from None
        if not math.isfinite(out[-1]) or out[-1] < 0:
            raise TraceError(f"{path}:{lineno}: value must be finite and nonnegative")
    return np.asarray(out, dtype=np.float64)


def parse_process(text: str) -> _ProcessBase:
    """Parse a process spec string.

    Forms: ``iid-bernoulli:P``, ``iid-table:V1,V2,..@P1,P2,..``,
    ``binary-markov:P01,P10``, ``trace:PATH``, ``odometer[:K[,I_MAX]]``.
    ``trace:PATH`` reads the file at PATH (``_load``).
    """
    kind, _, arg = text.partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "iid-bernoulli":
            return IIDBernoulli(float(arg))
        if kind == "iid-table":
            vals, _, probs = arg.partition("@")
            return IIDTable(
                tuple(float(v) for v in vals.split(",")),
                tuple(float(p) for p in probs.split(",")),
            )
        if kind == "binary-markov":
            p01, p10 = (float(x) for x in arg.split(","))
            return BinaryMarkov(p01, p10)
        if kind == "trace":
            if not arg:
                raise ProcessError("trace needs a path")
            return TraceProcess(_load(Path(arg)))
        if kind == "odometer":
            parts = [int(x) for x in arg.split(",")] if arg else []
            if len(parts) > 2:
                raise ProcessError("odometer takes at most precision,i_max")
            return OdometerProcess(*parts)
    except ProcessError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProcessError(f"bad process spec {text!r}: {exc}") from exc
    raise ProcessError(f"unknown process kind {kind!r}")
