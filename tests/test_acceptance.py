"""Acceptance gate: twelve end-to-end checks, one test per criterion.

Run with ``pytest -v`` to get one pass/fail line per criterion; each test
also prints a one-line summary of the measured quantities (shown with -s or
in failure reports).  Exactness claims lean on dyadic inputs throughout, so
float equality assertions are legitimate, not lucky.
"""

import math
import time
from fractions import Fraction

import numpy as np

from ergoqueue import estimators as es
from ergoqueue import lindley as ld
from ergoqueue import odometer as od
from ergoqueue.processes import (
    BinaryMarkov,
    IIDBernoulli,
    IIDTable,
    OdometerProcess,
    TraceProcess,
    rng_for,
)

import oracles

# frozen from an independent scipy brentq run on the closed form
DECAY_ROOT = 2.437511453744036

SERVICE = 0.75


def _process_zoo(seed, trace_length=200):
    trace_sample = (rng_for(seed).random(trace_length) < 0.5).astype(np.float64)
    return [
        IIDBernoulli(0.5),
        IIDTable((0.0, 0.25, 1.0, 1.75), (0.25, 0.25, 0.25, 0.25)),
        BinaryMarkov(0.3, 0.2),
        OdometerProcess(),
        TraceProcess(values=trace_sample),
    ]


def test_criterion_01_expansion_identity():
    t0 = time.perf_counter()
    kinds = _process_zoo(100)
    rng = rng_for(101)
    lengths = rng.integers(0, 201, size=10_000)
    for k, n in enumerate(lengths.tolist()):
        proc = kinds[k % len(kinds)]
        w = proc.backward_window(n, rng) - SERVICE
        forward_final = ld.run_recursion(0.0, w[::-1])[-1]
        assert forward_final == ld.loynes_sup(w).value
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"[criterion 01] PASS - 10^4 windows x 5 kinds, exact, {dt:.1f}s (< 10s)")


def test_criterion_02_prefix_monotonicity():
    rng = rng_for(102)
    proc = OdometerProcess()
    for k in range(1000):
        if k % 2:
            w = (rng.random(1000) < 0.5).astype(np.float64) - SERVICE
        else:
            w = proc.backward_window(1000, rng) - SERVICE
        maxima = ld.loynes_sup(w).prefix_maxima
        assert (np.diff(maxima) >= 0.0).all()
        if k < 10:
            assert maxima[-1] == ld.loynes_sup(w).value
    print("[criterion 02] PASS - 10^3 windows of length 10^3, running maxima nondecreasing")


def test_criterion_03_counter_exactness():
    t0 = time.perf_counter()
    rng = rng_for(103)
    cs = od.uniform_counters(rng, 100_000, 64, 2)
    for c in cs.tolist():
        c = int(c)
        p = od.DyadicPoint(c, 64)
        if c > 0:
            assert od.apply_map(p).counter == c - 1
        assert od.apply_map(od.apply_inverse(p)).counter == c
    # interval shift at every depth up to 12, every positive index
    for depth in range(1, 13):
        step = 1 << depth
        for j in range(1, step):
            for c in (j, j + step * int(rng.integers(1, 1 << 20))):
                p = od.DyadicPoint(c, 64)
                assert od.interval_index(p, depth) == j
                assert od.interval_index(od.apply_map(p), depth) == j - 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"[criterion 03] PASS - counter law + inverse on 10^5 points, interval shift to depth 12, {dt:.1f}s (< 30s)")


def test_criterion_04_exact_measures():
    for i in range(1, 11):
        seeds = oracles.run_seed_set(i)
        band = oracles.arrival_band(i)
        assert seeds.measure == band.measure == Fraction(1, 1 << (i + 2))
        union_below, _ = oracles.arrival_set_truncated(i - 1)
        assert union_below.contains_set(seeds)
    assert od.arrival_set_measure(20) + Fraction(1, 1 << 22) <= Fraction(1, 2)
    print("[criterion 04] PASS - seed/band measures 2^-(i+2) for i=1..10, nesting, truncated union below 1/2")


def test_criterion_05_all_ones_runs():
    for i in (5, 6, 7, 8):
        n = 1 << (i - 1)
        rng = rng_for(105, i)
        for _ in range(1000):
            p = od.sample_run_seed(i, rng)
            assert od.membership_window(p, n).all()
    print("[criterion 05] PASS - 4x10^3 conditional seed draws, every window all ones")


def test_criterion_06_mean_bound():
    m = 1_000_000
    cs = od.uniform_counters(rng_for(106), m, 64, 1)
    y = od.window_arrival_counts(cs, 1, 64)  # a width-1 count is membership
    p_hat = float(np.mean(y))
    mu = float(od.arrival_set_measure(od.band_limit(64)))
    sigma = math.sqrt(mu * (1.0 - mu) / m)
    assert abs(p_hat - mu) < 4.0 * sigma
    assert p_hat < 0.5 + 4.0 * sigma
    print(f"[criterion 06] PASS - mean over 10^6 points {p_hat:.6f} vs exact {mu:.6f} (4 sigma = {4*sigma:.6f})")


def test_criterion_07_burst_probability_chain():
    t0 = time.perf_counter()
    for i in range(17, 26):
        rep = es.burst_probability_report(i, 1, rng_for(107, i))
        assert rep.exact_lower == Fraction(1, 1 << (i + 2))
        assert rep.exact_lower > rep.target
        assert rep.lower_valid
        assert rep.analytic_pass
    rep = es.burst_probability_report(11, 1 << 21, rng_for(107))
    floor = 0.5 * float(Fraction(1, 1 << 13))
    assert rep.p_hat >= floor
    dt = time.perf_counter() - t0
    assert dt < 300.0
    print(
        f"[criterion 07] PASS - exact chain i=17..25; i=11 MC p_hat={rep.p_hat:.3e} "
        f">= {floor:.3e} ({rep.hits} hits / 2^21), {dt:.0f}s (< 300s)"
    )


def test_criterion_08_cumulant_sandwich():
    for theta in (0.5, 1.0, 2.0):
        rep = es.burst_cumulant_report(16, theta, 4096, rng_for(108))
        assert rep.upper_bound == theta
        assert rep.lower_bound == theta - 18.0 * math.log(2.0) / 32768.0
        assert rep.lower_bound <= rep.lambda_strat <= rep.upper_bound
        assert rep.gap < 1e-3 * theta
    print("[criterion 08] PASS - band-16 sandwich at theta in {0.5, 1, 2}, gap < 1e-3 * theta")


def _bern_lambda(theta, p):
    return math.log(1.0 - p + p * math.exp(theta))


def _bern_lambda_se(theta, p, n, m):
    # delta-method standard error of the scaled log-mean-exp estimator
    spread = n * (_bern_lambda(2.0 * theta, p) - 2.0 * _bern_lambda(theta, p))
    return math.sqrt((math.exp(spread) - 1.0) / m) / n


def test_criterion_09_cumulant_oracle():
    grid = [k * 0.05 for k in range(61)]
    n, m = 100, 100_000
    worst = 0.0
    for p in (0.2, 0.5, 0.8):
        est = es.estimate_lambda_grid(IIDBernoulli(p), grid, n, m, rng_for(109))
        for theta, lam in zip(est.thetas, est.lambda_hat):
            err = abs(lam - _bern_lambda(theta, p))
            bound = 3.0 * _bern_lambda_se(theta, p, n, m)
            assert err <= bound or theta == 0.0
            if bound < 1.0:
                worst = max(worst, err)
    # decay rate: the extractor on the closed-form curve vs an independent root
    dense = [k * 1e-3 for k in range(3001)]
    res = es.decay_delta(dense, [_bern_lambda(t, 0.5) for t in dense], SERVICE)
    assert res.status == "interior"
    assert abs(res.delta - DECAY_ROOT) < 1e-2
    print(
        f"[criterion 09] PASS - lambda within 3 SE on [0,3] for p in {{0.2,0.5,0.8}} "
        f"(worst sharp-region error {worst:.2e}); delta {res.delta:.6f} vs root {DECAY_ROOT:.6f}"
    )


def test_criterion_10_jensen_floor():
    grid = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
    # the trace holds m * n values: its m block sums are disjoint stretches
    for proc in _process_zoo(200, trace_length=500 * 50):
        est = es.estimate_lambda_grid(proc, grid, 50, 500, rng_for(110))
        for theta, lam in zip(est.thetas, est.lambda_hat):
            assert lam >= theta * est.mean_rate
    print("[criterion 10] PASS - lambda(theta) >= theta * sample mean, all kinds, all grid tilts, exact")


def test_criterion_11_coupling_stability():
    proc = OdometerProcess()
    coupled = 0
    slowest = 0
    for r in range(100):
        y = proc.forward(100_000, rng_for(111, r))
        res = ld.forward_couple(10.0, [y - SERVICE])
        if res.coupling_time is not None:
            coupled += 1
            slowest = max(slowest, res.coupling_time)
    assert coupled >= 99
    # at s = 0.4 the drift is up: the exact process mean already exceeds s,
    # so the coupling claim is out of scope there and the run is skipped
    exact_mean, _ = proc.exact_mean_bounds()
    assert exact_mean > Fraction(2, 5)
    rep = es.queue_tail_run(proc, 0.4, [1.0], 20_000, rng=rng_for(111, 1000))
    assert not rep.stable_mean
    print(
        f"[criterion 11] PASS - {coupled}/100 replicas coupled by step {slowest} at s=0.75; "
        f"s=0.4 flagged unstable (exact mean {float(exact_mean):.4f} > 0.4), coupling check skipped"
    )


def test_criterion_12_tandem_conservation():
    for proc, seed in ((OdometerProcess(), 1), (IIDBernoulli(0.5), 2)):
        y = proc.forward(10_000, rng_for(112, seed))
        q, outs, q2 = ld.tandem_path(y, SERVICE, 0.5)
        assert (outs == np.minimum(q[:-1] + y, SERVICE)).all()
        assert float(np.sum(y) - np.sum(outs)) == q[-1] - q[0]
        out2 = q2[:-1] + outs - q2[1:]
        assert float(np.sum(outs) - np.sum(out2)) == q2[-1] - q2[0]
    print("[criterion 12] PASS - per-step output min(Q+Y, s) and cumulative conservation, exact, 2x10^4 steps")
