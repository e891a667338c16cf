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
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import odometer
from ._record import record
from .lindley import ExactSum, queue_blocks, service_rate
from .processes import OdometerProcess

__all__ = [
    "TailEstimate",
    "CumulantEstimate",
    "DecayResult",
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

    ``to_json`` writes the record's ``_fields`` in declaration order, each under
    its name in ``_JSON_NAMES`` (its own name otherwise): a nested result
    through its own ``to_json``, a tuple as a list, a ``Fraction`` as "p/q",
    anything else as it is.
    """

    _JSON_NAMES: dict[str, str] = {}

    def to_json(self) -> dict:
        return {
            self._JSON_NAMES.get(name, name): _json_value(getattr(self, name))
            for name in self._fields
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


@record
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
    return _tail(qs, _exceedances(arr, qs), arr.size)


def _exceedances(samples: np.ndarray, qs: np.ndarray) -> list[int]:
    return [np.count_nonzero(samples > q) for q in qs]


def _tail(qs: np.ndarray, counts: Sequence[int], m: int) -> TailEstimate:
    """The survival function from the count of m samples strictly above each threshold."""
    surv = [float(count) / m for count in counts]
    errs = [math.sqrt(p * (1.0 - p) / m) for p in surv]
    return TailEstimate(tuple(qs.tolist()), tuple(surv), tuple(errs), m)


# ---------------------------------------------------------------------------
# cumulant estimation


def block_sums(process, n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m block sums Y_1 + ... + Y_n from the process's ``window_counts``."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return np.asarray(process.window_counts(m, n, rng), dtype=np.float64)


def _log_mean_exp(theta: float, x: np.ndarray) -> float:
    """log of the sample mean of exp(theta * x), shifted by the max to avoid overflow.

    An infinite largest tilted sum is a ValueError; an infinite smaller one weighs 0.
    """
    if x.size == 0:
        raise ValueError("need at least one block sum")
    with np.errstate(over="ignore", invalid="ignore"):
        tilted = theta * x
        xm = float(np.max(tilted))
        if not math.isfinite(xm):
            raise ValueError("the tilted sums overflow the float range")
        tilted -= xm
        np.exp(tilted, out=tilted)
        return xm + math.log(float(np.mean(tilted)))


def _check_block_length(n: int) -> None:
    """The one block-length check of the estimators that divide by n."""
    if n < 1:
        raise ValueError(f"block length n must be at least 1, got {n}")


def _sample_rates(sums: np.ndarray, n: int) -> tuple[float, float, float]:
    """(mean, min, max) block rates; the mean is exact, rounded once, so in [min, max]."""
    _check_block_length(n)
    total = ExactSum()
    total.add(sums)
    return total.mean(sums.size) / n, float(np.min(sums)) / n, float(np.max(sums)) / n


def lambda_from_sums(sums: Sequence[float], theta: float, n: int) -> float:
    """(1/n) log of the sample mean of exp(theta * sum), clamped to its bounds.

    Bounds enforced on the same sample: theta * mean_rate (the log-mean-exp
    never drops below the mean) and theta * extreme rate (it never exceeds
    the largest exponent).  At theta = 0 the result is exactly 0.
    """
    arr = np.asarray(sums, dtype=np.float64)
    theta = float(theta)
    log_mean = _log_mean_exp(theta, arr)
    return _clamped(log_mean, theta, n, _sample_rates(arr, n))


def _clamped(log_mean: float, theta: float, n: int, rates: tuple[float, float, float]) -> float:
    """log_mean / n, clamped to theta times the (mean, min, max) ``rates`` of its sample."""
    mean_rate, min_rate, max_rate = rates
    cap = theta * max_rate if theta >= 0 else theta * min_rate
    return min(max(log_mean / n, theta * mean_rate), cap)


@record
class DecayResult(_Result):
    """sup of the tilts where the estimated cumulant stays below the service line.

    status: 'interior' (root found inside the grid), 'at-grid-max' (the whole
    grid qualifies; the true value may be larger, never extrapolated),
    'empty' (no positive tilt qualifies; delta is None).
    """

    delta: float | None
    status: str


@record
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
    rates = _sample_rates(sums, n)
    lams = [_clamped(_log_mean_exp(t, sums), t, n, rates) for t in ts]
    mean_rate, min_rate, max_rate = rates
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

    Piecewise-linear interpolation between grid nodes, solved in closed
    form inside the last cell where the sign flips.  The grid maximum is a
    hard boundary: when the curve is still below the line there, the result
    is flagged rather than extrapolated.
    """
    t = np.asarray(thetas, dtype=np.float64)
    l = np.asarray(lambda_hat, dtype=np.float64)
    if t.size != l.size or t.size < 2:
        raise ValueError("need matching grids with at least two points")
    if not (np.diff(t) > 0).all():
        raise ValueError("theta grid must be strictly increasing")
    if t[0] != 0.0:
        raise ValueError("theta grid must start at 0")
    s = service_rate(s)
    with np.errstate(over="ignore"):  # an infinite t*s leaves g = -inf, below the line
        g = l - t * s
    below = np.flatnonzero(g[1:] < 0.0) + 1  # indices with theta > 0
    if below.size == 0:
        return DecayResult(None, "empty")
    k = int(below[-1])
    if k == t.size - 1:
        return DecayResult(float(t[-1]), "at-grid-max")
    # sign flips in [t[k], t[k+1]]: g[k] < 0 <= g[k+1]; the interpolant's root
    lo, hi = float(t[k]), float(t[k + 1])
    glo, ghi = float(g[k]), float(g[k + 1])
    return DecayResult(lo + (hi - lo) * (glo / (glo - ghi)), "interior")


def scaled_lambda_from_sums(
    sums: Sequence[float], theta: float, a_n: float, v_n: float, s: float, n: int
) -> float:
    """Generalized scaled log-moment of block sums of length n, centered at n*s.

    Computes (1/v(n)) log mean exp(theta * (v(n)/a(n)) * (sum - n*s)), given
    the growth scalings' values a_n = a(n) (space) and v_n = v(n)
    (log-denominator), which must be positive.
    """
    _check_block_length(n)
    a_n, v_n = float(a_n), float(v_n)
    if a_n <= 0 or v_n <= 0:
        raise ValueError(f"scalings must be positive, got a={a_n}, v={v_n} at {float(n)}")
    with np.errstate(over="ignore"):  # _log_mean_exp raises if a tilted sum overflows
        centered = np.asarray(sums, dtype=np.float64) - float(n) * float(s)
    return _log_mean_exp(float(theta) * (v_n / a_n), centered) / v_n


# ---------------------------------------------------------------------------
# packaged experiments


def _burst_windows(i: int, m: int, rng, precision: int) -> tuple[int, np.ndarray]:
    """The start of both burst reports: the checked band's window, then m plain window counts."""
    if m < 1:
        raise ValueError("m must be positive")
    if i < 1:
        raise ValueError("band index must be >= 1")
    odometer.band_limit(precision, i)
    n = odometer.band(i)[1]  # the lo counters from a seed all arrive
    return n, OdometerProcess(precision).window_counts(m, n, rng)


@record
class BurstProbabilityReport(_Result):
    """Overflow probability of a backward window vs. exact bounds.

    The band-i construction: window 2^(i-1), threshold offset 2i^2, service
    rate 3/4, decay 1/i.  The Monte Carlo probability estimates
    P(window sum > (3/4)window + offset) over uniform starting points.  The
    seed-set measure exact_lower is a valid lower bound exactly when
    lower_valid holds (window > 4*offset, integer-exact: then the all-ones
    seed windows overflow the threshold); the analytic check
    exact_lower > target = 2^-(decay*offset) never involves sampling.
    """

    i: int
    window: int
    offset: int
    service: float
    m: int
    hits: int
    p_hat: float
    p_se: float
    exact_lower: Fraction
    lower_valid: bool
    target: Fraction
    analytic_pass: bool

    _JSON_NAMES = {"exact_lower": "mu_A", "analytic_pass": "pass"}


def burst_probability_report(
    i: int, m: int, rng: np.random.Generator, precision: int = odometer.DEFAULT_PRECISION
) -> BurstProbabilityReport:
    """Monte Carlo + exact-bound report for the band-i window overflow event.

    Membership truncation makes the sampled arrival set a subset of the full
    one, so the Monte Carlo estimate is biased low, in the safe direction
    relative to the lower bound.
    """
    n, counts = _burst_windows(i, m, rng, precision)
    q = 2 * i * i
    seed_measure = odometer.band_measure(i)  # the seeds [0, lo) are as many as [lo, hi)
    target = Fraction(1, 1 << (2 * i))  # 2^-(decay * offset) with decay 1/i
    # integer-exact threshold: sum > (3/4) n + q <=> 4 sum > 3 n + 4 q
    hits = int(np.count_nonzero(4 * counts > 3 * n + 4 * q))
    p_hat = hits / m
    p_se = math.sqrt(p_hat * (1.0 - p_hat) / m)
    return BurstProbabilityReport(
        i=i,
        window=n,
        offset=q,
        service=0.75,
        m=m,
        hits=hits,
        p_hat=p_hat,
        p_se=p_se,
        exact_lower=seed_measure,
        lower_valid=n > 4 * q,
        target=target,
        analytic_pass=seed_measure > target,
    )


@record
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
    n, counts = _burst_windows(i, m, rng, precision)
    seed_measure = odometer.band_measure(i)
    theta = float(theta)
    # one shared expression for log(seed measure), a power of two: the lower
    # bound and the stratified estimate must agree to the last bit, and the
    # window is a power of two, so scaling by it commutes with rounding
    ln_mu = -((seed_measure.denominator.bit_length() - 1) * math.log(2.0))
    upper = theta
    lower = theta + ln_mu / n
    lam_plain = lambda_from_sums(counts, theta, n)

    if theta == 0.0:
        lam_strat = 0.0
        lower = 0.0
    else:
        # stratify on the seed set: inside it the window sum is exactly n
        mu = float(seed_measure)  # a power of two, exact in binary
        kept, accepted = [], 0
        while accepted < m:
            draw = odometer.uniform_counters(rng, m - accepted, precision, n)
            kept.append(draw[~odometer.run_seed_mask(draw, i)])
            accepted += kept[-1].size
        comp_counts = odometer.window_arrival_counts(np.concatenate(kept), n, precision)
        ln_mean_comp = _log_mean_exp(theta, comp_counts.astype(np.float64))
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
        seed_measure=seed_measure,
    )


# ---------------------------------------------------------------------------
# stationary tails by simulation


@record
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

    The sample streams through the queue one piece at a time: exceedances
    are counted per piece, as integers, and the input mean is the exact sum
    over the horizon, rounded once, so memory does not grow with the horizon.

    Standard errors are the iid binomial formula and understate the truth
    for autocorrelated occupation times; they are indicative only.  The
    fitted decay is the least-squares slope of log survival over the
    thresholds with nonzero survival (needs two distinct thresholds; a
    repeated one keeps its weight in the fit).
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if burn_in is None:
        burn_in = horizon // 10
    if not 0 <= burn_in < horizon:
        raise ValueError("need 0 <= burn_in < horizon")
    qs = np.sort(np.asarray(thresholds, dtype=np.float64))
    counts = [0] * qs.size
    total, seen = ExactSum(), 0
    for y, states in queue_blocks(process.blocks(horizon, rng), s):
        total.add(y)
        # states[j] is the state after step seen + j; those after burn_in count
        kept = states[1 + max(burn_in - seen, 0) :]
        counts = [c + k for c, k in zip(counts, _exceedances(kept, qs))]
        seen += y.size
    tail = _tail(qs, counts, horizon - burn_in)
    input_mean = total.mean(horizon)
    sv = np.asarray(tail.survival)
    keep = sv > 0.0
    points, fitted = qs[keep], None
    if points.size >= 2 and points[0] != points[-1]:  # two distinct thresholds: qs is sorted
        slope = np.polyfit(points, np.log(sv[keep]), 1)[0]
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
