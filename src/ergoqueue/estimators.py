"""Tail and cumulant estimation for queue inputs, plus packaged experiments.

The scaled log-moment estimator works in log-sum-exp form and is clamped to
the bounds that hold exactly on the sample: the average-rate floor (the
log-mean-exp of a sample never drops below its mean) and the extreme-rate
cap.  Both clamps only repair last-bit rounding; the mathematics already
guarantees them.

The two packaged experiments turn the exact band measures of the
counter-driven arrival process into checkable inequalities:

* the burst-probability report compares a Monte Carlo estimate of a window
  overflow probability against the exact seed-set measure lower bound and
  an exponential-decay target it must beat;
* the burst-cumulant report sandwiches the scaled log-moment between the
  deterministic cap (arrivals are 0/1) and the exact measure-based floor,
  using the seed-set stratum, whose window sum is deterministic, as an
  exactly-weighted stratified term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import odometer
from .lindley import queue_path
from .processes import OdometerProcess

__all__ = [
    "TailEstimate",
    "CumulantEstimate",
    "DecayResult",
    "ScalingFunctions",
    "BurstParams",
    "BurstProbabilityReport",
    "BurstCumulantReport",
    "QueueTailReport",
    "empirical_tail",
    "block_sums",
    "lambda_from_sums",
    "estimate_lambda_grid",
    "decay_delta",
    "scaled_lambda_from_sums",
    "burst_probability_report",
    "burst_cumulant_report",
    "queue_tail_run",
]


class _Result:
    """The one JSON form of every result record.

    ``to_json`` writes the dataclass fields in declaration order, each under
    its name in ``_JSON_NAMES`` (its own name otherwise): a nested result
    through its own ``to_json``, a tuple as a list, a ``Fraction`` as "p/q",
    anything else as it is.
    """

    _JSON_NAMES: dict[str, str] = {}

    def to_json(self) -> dict:
        return {
            self._JSON_NAMES.get(f.name, f.name): _json_value(getattr(self, f.name))
            for f in fields(self)
        }


def _json_value(value):
    if isinstance(value, _Result):
        return value.to_json()
    if isinstance(value, tuple):
        return list(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


# ---------------------------------------------------------------------------
# empirical tails


@dataclass(frozen=True)
class TailEstimate(_Result):
    """Empirical survival function over a threshold grid."""

    thresholds: tuple[float, ...]
    survival: tuple[float, ...]
    std_errors: tuple[float, ...]
    sample_count: int


def empirical_tail(samples: Sequence[float], thresholds: Sequence[float]) -> TailEstimate:
    """Fraction of samples strictly above each threshold, with binomial errors.

    Thresholds are sorted ascending; the survival values are then
    nonincreasing by construction, exactly.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("need at least one sample")
    qs = np.sort(np.asarray(thresholds, dtype=np.float64))
    m = arr.size
    surv = []
    errs = []
    for q in qs:
        p = float(np.count_nonzero(arr > q)) / m
        surv.append(p)
        errs.append(math.sqrt(p * (1.0 - p) / m))
    return TailEstimate(tuple(qs.tolist()), tuple(surv), tuple(errs), m)


# ---------------------------------------------------------------------------
# cumulant estimation


def block_sums(process, n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m block sums Y_1 + ... + Y_n from the process's ``window_counts``."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return np.asarray(process.window_counts(m, n, rng), dtype=np.float64)


def _log_mean_exp(x: np.ndarray) -> float:
    """log of the sample mean of exp(x), shifted by the max to avoid overflow."""
    if x.size == 0:
        raise ValueError("need at least one block sum")
    xm = float(np.max(x))
    return xm + math.log(float(np.mean(np.exp(x - xm))))


def _check_block_length(n: int) -> None:
    """The one block-length check of the estimators that divide by n."""
    if n < 1:
        raise ValueError(f"block length n must be at least 1, got {n}")


def _sample_rates(sums: np.ndarray, n: int) -> tuple[float, float, float]:
    """(mean, min, max) block rates; mean clamped into [min, max]."""
    _check_block_length(n)
    mean_rate = float(np.mean(sums)) / n
    min_rate = float(np.min(sums)) / n
    max_rate = float(np.max(sums)) / n
    mean_rate = min(max(mean_rate, min_rate), max_rate)
    return mean_rate, min_rate, max_rate


def lambda_from_sums(sums: Sequence[float], theta: float, n: int) -> float:
    """(1/n) log of the sample mean of exp(theta * sum), clamped to its bounds.

    Bounds enforced on the same sample: theta * mean_rate (the log-mean-exp
    never drops below the mean) and theta * extreme rate (it never exceeds
    the largest exponent).  At theta = 0 the result is exactly 0.
    """
    arr = np.asarray(sums, dtype=np.float64)
    theta = float(theta)
    log_mean = _log_mean_exp(theta * arr)
    mean_rate, min_rate, max_rate = _sample_rates(arr, n)
    cap = theta * max_rate if theta >= 0 else theta * min_rate
    return min(max(log_mean / n, theta * mean_rate), cap)


@dataclass(frozen=True)
class DecayResult(_Result):
    """sup of the tilts where the estimated cumulant stays below the service line.

    status: 'interior' (root found inside the grid), 'at-grid-max' (the whole
    grid qualifies; the true value may be larger, never extrapolated),
    'empty' (no positive tilt qualifies; delta is None).
    """

    delta: float | None
    status: str


@dataclass(frozen=True)
class CumulantEstimate(_Result):
    """Cumulant curve on a tilt grid, from one shared sample of block sums."""

    thetas: tuple[float, ...]
    lambda_hat: tuple[float, ...]
    n: int
    m: int
    mean_rate: float
    min_rate: float
    max_rate: float
    s: float | None = None
    delta: DecayResult | None = None

    def convexity_defect(self) -> float:
        """Worst violation of discrete convexity; diagnostic only."""
        t = np.asarray(self.thetas)
        l = np.asarray(self.lambda_hat)
        if t.size < 3:
            return 0.0
        left = (l[1:-1] - l[:-2]) / (t[1:-1] - t[:-2])
        right = (l[2:] - l[1:-1]) / (t[2:] - t[1:-1])
        return float(max(0.0, np.max(left - right)))


def estimate_lambda_grid(
    process, thetas: Sequence[float], n: int, m: int, rng: np.random.Generator,
    s: float | None = None,
) -> CumulantEstimate:
    """Cumulant curve over a tilt grid, every tilt reusing one sample set."""
    sums = block_sums(process, n, m, rng)
    ts = [float(t) for t in thetas]
    lams = [lambda_from_sums(sums, t, n) for t in ts]
    mean_rate, min_rate, max_rate = _sample_rates(sums, n)
    delta = decay_delta(ts, lams, s) if s is not None else None
    return CumulantEstimate(
        thetas=tuple(ts),
        lambda_hat=tuple(lams),
        n=n,
        m=m,
        mean_rate=mean_rate,
        min_rate=min_rate,
        max_rate=max_rate,
        s=s,
        delta=delta,
    )


def decay_delta(
    thetas: Sequence[float], lambda_hat: Sequence[float], s: float
) -> DecayResult:
    """sup{theta > 0 : interpolated lambda(theta) - theta*s < 0} on the grid.

    Piecewise-linear interpolation between grid nodes, refined by bisection
    inside the last cell where the sign flips.  The grid maximum is a hard
    boundary: when the curve is still below the line there, the result is
    flagged rather than extrapolated.
    """
    t = np.asarray(thetas, dtype=np.float64)
    l = np.asarray(lambda_hat, dtype=np.float64)
    if t.size != l.size or t.size < 2:
        raise ValueError("need matching grids with at least two points")
    if not (np.diff(t) > 0).all():
        raise ValueError("theta grid must be strictly increasing")
    if t[0] != 0.0:
        raise ValueError("theta grid must start at 0")
    s = float(s)
    if not math.isfinite(s) or s <= 0:
        raise ValueError("service rate must be positive and finite")
    g = l - t * s
    below = np.flatnonzero(g[1:] < 0.0) + 1  # indices with theta > 0
    if below.size == 0:
        return DecayResult(None, "empty")
    k = int(below[-1])
    if k == t.size - 1:
        return DecayResult(float(t[-1]), "at-grid-max")
    # sign flips in [t[k], t[k+1]]: g[k] < 0 <= g[k+1]; bisect the interpolant
    lo, hi = float(t[k]), float(t[k + 1])
    glo, ghi = float(g[k]), float(g[k + 1])

    def interp(x: float) -> float:
        w = (x - lo) / (hi - lo)
        return glo + w * (ghi - glo)

    a, b = lo, hi
    for _ in range(80):
        mid = 0.5 * (a + b)
        if interp(mid) < 0.0:
            a = mid
        else:
            b = mid
    return DecayResult(0.5 * (a + b), "interior")


@dataclass(frozen=True)
class ScalingFunctions:
    """Growth scalings (space, log-denominator) with basic sanity checks."""

    a: Callable[[float], float]
    v: Callable[[float], float]

    def validate(self, grid: Sequence[float]) -> None:
        pts = sorted(float(g) for g in grid)
        prev_a = prev_v = -math.inf
        for g in pts:
            va, vv = float(self.a(g)), float(self.v(g))
            if va <= 0 or vv <= 0:
                raise ValueError(f"scalings must be positive, got a={va}, v={vv} at {g}")
            if va < prev_a or vv < prev_v:
                raise ValueError("scalings must be monotone increasing on the grid")
            prev_a, prev_v = va, vv


def scaled_lambda_from_sums(
    sums: Sequence[float], theta: float, scaling: ScalingFunctions, s: float, n: int
) -> float:
    """Generalized scaled log-moment of block sums of length n, centered at n*s.

    Computes (1/v(n)) log mean exp(theta * (v(n)/a(n)) * (sum - n*s)).
    """
    _check_block_length(n)
    scaling.validate([n])
    a_n = float(scaling.a(n))
    v_n = float(scaling.v(n))
    x = float(theta) * (v_n / a_n) * (np.asarray(sums, dtype=np.float64) - float(n) * float(s))
    return _log_mean_exp(x) / v_n


# ---------------------------------------------------------------------------
# packaged experiments


@dataclass(frozen=True)
class BurstParams:
    """Derived constants for the band-i burst construction.

    decay 1/i, threshold offset 2i^2, window 2^(i-1), service rate 3/4.
    ``chain_valid`` records whether a quarter of the window exceeds the
    offset (window > 4*offset, integer-exact), the condition making the
    all-ones seed windows overflow the threshold.
    """

    i: int

    def __post_init__(self) -> None:
        if self.i < 1:
            raise ValueError("band index must be >= 1")

    @property
    def decay(self) -> Fraction:
        return Fraction(1, self.i)

    @property
    def offset(self) -> int:
        return 2 * self.i * self.i

    @property
    def window(self) -> int:
        return 1 << (self.i - 1)

    @property
    def service(self) -> float:
        return 0.75

    @property
    def chain_valid(self) -> bool:
        return self.window > 4 * self.offset

    @property
    def seed_measure(self) -> Fraction:
        return Fraction(1, 1 << (self.i + 2))

    @property
    def target(self) -> Fraction:
        # 2 ** -(decay * offset) = 2 ** -(2i)
        return Fraction(1, 1 << (2 * self.i))


def _burst_windows(i: int, m: int, rng, precision: int) -> tuple[BurstParams, np.ndarray]:
    """The start of both burst reports: checked parameters, then m plain window counts."""
    if m < 1:
        raise ValueError("m must be positive")
    params = BurstParams(i)
    odometer.band_limit(precision, i)
    return params, OdometerProcess(precision).window_counts(m, params.window, rng)


@dataclass(frozen=True)
class BurstProbabilityReport(_Result):
    """Overflow probability of a backward window vs. exact bounds.

    The Monte Carlo probability estimates P(window sum > (3/4)window + offset)
    over uniform starting points.  The seed-set measure is a valid lower
    bound exactly when chain_valid holds; the analytic check
    seed_measure > target never involves sampling.
    """

    params: BurstParams
    m: int
    hits: int
    p_hat: float
    p_se: float
    exact_lower: Fraction
    lower_valid: bool
    target: Fraction
    analytic_pass: bool

    _JSON_NAMES = {"exact_lower": "mu_A", "analytic_pass": "pass"}

    def to_json(self) -> dict:
        p = self.params
        head = {"i": p.i, "window": p.window, "offset": p.offset, "service": p.service}
        return head | {k: v for k, v in super().to_json().items() if k != "params"}


def burst_probability_report(
    i: int, m: int, rng: np.random.Generator, precision: int = odometer.DEFAULT_PRECISION
) -> BurstProbabilityReport:
    """Monte Carlo + exact-bound report for the band-i window overflow event.

    Membership truncation makes the sampled arrival set a subset of the full
    one, so the Monte Carlo estimate is biased low, in the safe direction
    relative to the lower bound.
    """
    params, counts = _burst_windows(i, m, rng, precision)
    n = params.window
    q = params.offset
    # integer-exact threshold: sum > (3/4) n + q <=> 4 sum > 3 n + 4 q
    hits = int(np.count_nonzero(4 * counts > 3 * n + 4 * q))
    p_hat = hits / m
    p_se = math.sqrt(p_hat * (1.0 - p_hat) / m)
    return BurstProbabilityReport(
        params=params,
        m=m,
        hits=hits,
        p_hat=p_hat,
        p_se=p_se,
        exact_lower=params.seed_measure,
        lower_valid=params.chain_valid,
        target=params.target,
        analytic_pass=params.seed_measure > params.target,
    )


@dataclass(frozen=True)
class BurstCumulantReport(_Result):
    """Sandwich for the window-scaled log-moment at one tilt.

    lambda_strat stratifies on the seed set: that stratum's window sum is
    deterministically the full window, so its contribution is exact and the
    estimate provably stays inside [lower_bound, upper_bound].  lambda_plain
    is the unstratified estimate on the complement-free sample, reported for
    contrast (it collapses toward the mean for large tilts).
    """

    i: int
    theta: float
    n: int
    m: int
    upper_bound: float
    lower_bound: float
    lambda_strat: float
    lambda_plain: float
    gap: float
    seed_measure: Fraction

    _JSON_NAMES = {"seed_measure": "mu_A"}


def burst_cumulant_report(
    i: int,
    theta: float,
    m: int,
    rng: np.random.Generator,
    precision: int = odometer.DEFAULT_PRECISION,
) -> BurstCumulantReport:
    """Exact-sandwich report for the window log-moment at tilt theta >= 0."""
    if theta < 0 or not math.isfinite(theta):
        raise ValueError("theta must be nonnegative and finite")
    # plain Monte Carlo over unconditioned windows, drawn before the complement
    params, counts = _burst_windows(i, m, rng, precision)
    n = params.window
    theta = float(theta)
    # one shared expression for log(seed measure): the reported lower bound
    # and the stratified estimate must agree to the last bit, and the window
    # is a power of two, so scaling by it commutes with rounding
    ln_mu = -((i + 2) * math.log(2.0))
    upper = theta
    lower = theta + ln_mu / n
    lam_plain = lambda_from_sums(counts, theta, n)

    if theta == 0.0:
        lam_strat = 0.0
        lower = 0.0
    else:
        # stratify on the seed set: inside it the window sum is exactly n
        mu = float(params.seed_measure)  # 2**-(i+2), exact in binary
        # a counter seeds a run when its low 2i+1 bits are below 2**(i-1)
        seed_bits, seed_end = np.uint64((1 << (2 * i + 1)) - 1), np.uint64(1 << (i - 1))
        kept, accepted = [], 0
        while accepted < m:
            draw = odometer.uniform_counters(rng, m - accepted, precision, n)
            kept.append(draw[(draw & seed_bits) >= seed_end])
            accepted += kept[-1].size
        comp_counts = odometer.window_arrival_counts(np.concatenate(kept), n, precision)
        ln_mean_comp = _log_mean_exp(theta * comp_counts.astype(np.float64))
        lam_strat = float(
            np.logaddexp(ln_mu + theta * n, math.log1p(-mu) + ln_mean_comp) / n
        )
    return BurstCumulantReport(
        i=i,
        theta=theta,
        n=n,
        m=m,
        upper_bound=upper,
        lower_bound=lower,
        lambda_strat=lam_strat,
        lambda_plain=lam_plain,
        gap=upper - lam_strat,
        seed_measure=params.seed_measure,
    )


# ---------------------------------------------------------------------------
# stationary tails by simulation


@dataclass(frozen=True)
class QueueTailReport(_Result):
    """Time-average tail of a simulated queue after burn-in."""

    tail: TailEstimate
    s: float
    burn_in: int
    horizon: int
    input_mean: float
    stable_mean: bool
    fitted_decay: float | None


def queue_tail_run(
    process,
    s: float,
    thresholds: Sequence[float],
    horizon: int,
    burn_in: int | None = None,
    *,
    rng: np.random.Generator,
) -> QueueTailReport:
    """Simulate the queue and estimate its stationary tail by time averages.

    Standard errors are the iid binomial formula and understate the truth
    for autocorrelated occupation times; they are indicative only.  The
    fitted decay is the least-squares slope of log survival over the
    thresholds with nonzero survival (needs at least two).
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if burn_in is None:
        burn_in = horizon // 10
    if not 0 <= burn_in < horizon:
        raise ValueError("need 0 <= burn_in < horizon")
    y = process.forward(horizon, rng)
    trace = queue_path(y, s)
    samples = trace.states[burn_in + 1 :]
    tail = empirical_tail(samples, thresholds)
    input_mean = float(np.mean(y))
    qs = np.asarray(tail.thresholds)
    sv = np.asarray(tail.survival)
    keep = sv > 0.0
    fitted = None
    if np.count_nonzero(keep) >= 2:
        slope = np.polyfit(qs[keep], np.log(sv[keep]), 1)[0]
        fitted = float(-slope)
    return QueueTailReport(
        tail=tail,
        s=float(s),
        burn_in=burn_in,
        horizon=horizon,
        input_mean=input_mean,
        stable_mean=input_mean < float(s),
        fitted_decay=fitted,
    )
