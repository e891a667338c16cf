"""Estimator layer: exact clamps, frozen closed-form oracles, report fields.

Oracle constants below were frozen from an independent scipy script
(closed-form fair-coin cumulant, brentq root, delta-method standard error).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ergoqueue import estimators as es
from ergoqueue import odometer as od
from ergoqueue.processes import IIDBernoulli, IIDTable, OdometerProcess, rng_for

# root of log(1/2 + e^theta/2) = (3/4) theta, brentq at 1e-13
DECAY_ROOT = 2.437511453744036
# closed-form fair-coin cumulant and its MC standard error at n=30, m=20000
BERN_LAMBDA = {0.5: 0.2809298036201614, 1.0: 0.6201145069582775}
BERN_SE = {0.5: 0.0005132184917717678, 1.0: 0.004291280681542753}


def bern_curve(thetas):
    return [math.log(0.5 + 0.5 * math.exp(t)) for t in thetas]


# -- empirical tails ----------------------------------------------------------


def test_tail_frozen_examples():
    est = es.empirical_tail([1.0, 2.0, 3.0], [2.5])
    assert est.survival == (1.0 / 3.0,)
    assert es.empirical_tail([1.0, 2.0, 3.0], [0.0]).survival == (1.0,)
    assert es.empirical_tail([1.0, 2.0, 3.0], [3.0]).survival == (0.0,)


def test_tail_sorts_thresholds_and_is_monotone():
    rng = rng_for(1)
    est = es.empirical_tail(rng.exponential(size=500), [3.0, 0.5, 1.0, 2.0, 0.1])
    assert est.thresholds == tuple(sorted(est.thresholds))
    assert all(a >= b for a, b in zip(est.survival, est.survival[1:]))
    assert all(0.0 <= p <= 1.0 for p in est.survival)


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        es.empirical_tail([], [1.0])


# -- scaled log-moment --------------------------------------------------------


def test_lambda_zero_tilt_is_exact_zero():
    for proc in (IIDBernoulli(0.3), OdometerProcess()):
        assert es.lambda_from_sums(es.block_sums(proc, 20, 50, rng_for(2)), 0.0, 20) == 0.0


def test_lambda_degenerate_process_is_exact():
    # Y identically 2.5, block length a power of two: theta * c to the bit
    proc = IIDTable((2.5,), (1.0,))
    sums = es.block_sums(proc, 8, 40, rng_for(3))
    for theta in (0.125, 0.3, 1.0, 2.7):
        assert es.lambda_from_sums(sums, theta, 8) == theta * 2.5


def test_lambda_matches_closed_form_oracle():
    sums = es.block_sums(IIDBernoulli(0.5), 30, 20_000, rng_for(4))
    for theta in (0.5, 1.0):
        lam = es.lambda_from_sums(sums, theta, 30)
        assert abs(lam - BERN_LAMBDA[theta]) < 3 * BERN_SE[theta]


def test_lambda_grid_shares_one_sample():
    grid = [0.0, 0.5, 1.0]
    est = es.estimate_lambda_grid(IIDBernoulli(0.5), grid, 25, 400, rng_for(5))
    for theta, lam in zip(grid, est.lambda_hat):
        sums = es.block_sums(IIDBernoulli(0.5), 25, 400, rng_for(5))  # a fresh draw per tilt
        assert lam == es.lambda_from_sums(sums, theta, 25)
    assert est.lambda_hat[0] == 0.0


def test_lambda_jensen_floor_holds_bitwise():
    grid = [0.0, 0.25, 0.5, 1.0, 2.0, 4.0]
    for proc in (IIDBernoulli(0.4), OdometerProcess(), IIDTable((0.0, 2.0), (0.5, 0.5))):
        est = es.estimate_lambda_grid(proc, grid, 16, 300, rng_for(6))
        for theta, lam in zip(est.thetas, est.lambda_hat):
            assert lam >= theta * est.mean_rate


def test_lambda_hard_bounds_for_binary_arrivals():
    grid = [0.0, 0.5, 1.0, 3.0, 8.0]
    for proc in (IIDBernoulli(0.5), OdometerProcess()):
        est = es.estimate_lambda_grid(proc, grid, 32, 200, rng_for(7))
        for theta, lam in zip(est.thetas, est.lambda_hat):
            assert 0.0 <= lam <= theta


def test_lambda_nondecreasing_in_tilt():
    grid = [0.0, 0.1, 0.3, 0.7, 1.5, 3.0, 6.0]
    est = es.estimate_lambda_grid(OdometerProcess(), grid, 24, 500, rng_for(8))
    for a, b in zip(est.lambda_hat, est.lambda_hat[1:]):
        assert b >= a - 1e-12


def test_lambda_input_validation():
    with pytest.raises(ValueError):
        es.block_sums(IIDBernoulli(0.5), 0, 10, rng_for(0))
    with pytest.raises(ValueError):
        es.block_sums(IIDBernoulli(0.5), 10, 0, rng_for(0))
    for n in (10, 0, -1):
        with pytest.raises(ValueError, match="at least one block sum"):
            es.lambda_from_sums([], 1.0, n)
    for n in (0, -1, -10):
        with pytest.raises(ValueError, match="n must be at least 1"):
            es.lambda_from_sums([1.0, 2.0], 1.0, n)
    with pytest.raises(ValueError, match="at least one block sum"):
        es.scaled_lambda_from_sums([], 1.0, es.ScalingFunctions(float, float), 0.5, 3)
    # scalings positive at any n must not let a meaningless block length through
    constant = es.ScalingFunctions(lambda t: 1.0, lambda t: 1.0)
    for n in (0, -1, -3):
        with pytest.raises(ValueError, match="n must be at least 1"):
            es.scaled_lambda_from_sums([1.0, 2.0], 1.0, constant, 0.5, n)


def test_convexity_defect_zero_on_convex_curve():
    grid = [0.0, 0.5, 1.0, 1.5, 2.0]
    est = es.CumulantEstimate(
        thetas=tuple(grid),
        lambda_hat=tuple(bern_curve(grid)),
        n=100,
        m=1,
        mean_rate=0.5,
        min_rate=0.0,
        max_rate=1.0,
    )
    assert est.convexity_defect() <= 1e-9
    bent = es.CumulantEstimate(
        thetas=(0.0, 1.0, 2.0),
        lambda_hat=(0.0, 1.0, 1.2),
        n=1,
        m=1,
        mean_rate=0.5,
        min_rate=0.0,
        max_rate=1.0,
    )
    assert bent.convexity_defect() > 0.5


# -- decay rate ---------------------------------------------------------------


def test_delta_linear_curve_hits_grid_max():
    grid = [0.0, 1.0, 2.0, 3.0]
    res = es.decay_delta(grid, [0.5 * t for t in grid], 0.75)
    assert res.status == "at-grid-max"
    assert res.delta == 3.0


def test_delta_empty_when_service_at_mean():
    grid = [k * 0.25 for k in range(13)]
    res = es.decay_delta(grid, bern_curve(grid), 0.5)
    assert res.status == "empty"
    assert res.delta is None


def test_delta_matches_independent_bisection():
    grid = [k * 1e-3 for k in range(3001)]
    res = es.decay_delta(grid, bern_curve(grid), 0.75)
    assert res.status == "interior"
    assert abs(res.delta - DECAY_ROOT) < 1e-6


def test_delta_grid_validation():
    with pytest.raises(ValueError):
        es.decay_delta([0.5, 1.0], [0.0, 0.0], 0.75)  # must start at 0
    with pytest.raises(ValueError):
        es.decay_delta([0.0, 0.0], [0.0, 0.0], 0.75)  # strictly increasing
    with pytest.raises(ValueError):
        es.decay_delta([0.0, 1.0], [0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        es.decay_delta([0.0], [0.0], 0.75)


def test_delta_attached_to_grid_estimate():
    grid = [k * 0.2 for k in range(16)]
    est = es.estimate_lambda_grid(IIDBernoulli(0.5), grid, 60, 3000, rng_for(9), s=0.75)
    assert est.delta is not None
    assert est.delta.status in ("interior", "at-grid-max")
    assert est.s == 0.75


# -- generalized scalings ------------------------------------------------------


def test_scaled_identity_reduction():
    scaling = es.ScalingFunctions(a=float, v=float)
    theta, n, m, s = 0.8, 40, 800, 0.75
    sums = es.block_sums(IIDBernoulli(0.5), n, m, rng_for(10))
    scaled = es.scaled_lambda_from_sums(sums, theta, scaling, s, n)
    plain = es.lambda_from_sums(sums, theta, n)
    assert abs(scaled - (plain - theta * s)) < 1e-10


def test_scaled_zero_tilt_and_centered_input():
    scaling = es.ScalingFunctions(a=math.sqrt, v=math.sqrt)
    sums = es.block_sums(IIDBernoulli(0.5), 16, 32, rng_for(0))
    assert es.scaled_lambda_from_sums(sums, 0.0, scaling, 0.75, 16) == 0.0
    # Y identically equal to the service rate: centered sums vanish exactly
    sums = es.block_sums(IIDTable((0.75,), (1.0,)), 20, 16, rng_for(0))
    for sc in (es.ScalingFunctions(float, float), scaling):
        assert es.scaled_lambda_from_sums(sums, 1.3, sc, 0.75, 20) == 0.0


def test_scaled_from_sums_matches_a_fresh_draw_per_tilt():
    # one sample of block sums serves every tilt: the value a fresh draw from
    # the same seed gives, bit for bit
    scaling = es.ScalingFunctions(a=math.sqrt, v=math.log1p)
    proc, n, m, s = IIDBernoulli(0.5), 20, 100, 0.5
    sums = es.block_sums(proc, n, m, rng_for(12))
    for theta in (0.0, 0.5, 1.0, 2.5):
        fresh_sums = es.block_sums(proc, n, m, rng_for(12))
        fresh = es.scaled_lambda_from_sums(fresh_sums, theta, scaling, s, n)
        assert es.scaled_lambda_from_sums(sums, theta, scaling, s, n) == fresh


def test_scaling_validation():
    bad = es.ScalingFunctions(a=lambda t: -t, v=float)
    with pytest.raises(ValueError):
        bad.validate([1.0, 2.0])
    nonmono = es.ScalingFunctions(a=lambda t: 1.0 / (1.0 + t), v=float)
    with pytest.raises(ValueError):
        nonmono.validate([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        es.scaled_lambda_from_sums(np.ones(8), 1.0, bad, 0.75, 8)


# -- burst window parameters ----------------------------------------------------


def test_burst_params_frozen_values():
    p = es.BurstParams(17)
    assert (p.window, p.offset, p.service) == (65536, 578, 0.75)
    assert p.decay == Fraction(1, 17)
    assert p.seed_measure == Fraction(1, 1 << 19)
    assert p.target == Fraction(1, 1 << 34)
    assert p.chain_valid


def test_burst_chain_threshold_is_eleven():
    # window > 4*offset first holds at i=11: 1024 > 968
    assert es.BurstParams(11).chain_valid
    assert not any(es.BurstParams(i).chain_valid for i in range(1, 11))


def test_burst_params_reject_bad_index():
    with pytest.raises(ValueError):
        es.BurstParams(0)


# -- burst probability report ----------------------------------------------------


def test_burst_probability_exact_fields():
    rep = es.burst_probability_report(11, 64, rng_for(11))
    assert rep.exact_lower == Fraction(1, 8192)
    assert rep.target == Fraction(1, 4194304)
    assert rep.lower_valid
    assert rep.analytic_pass
    assert rep.p_hat == rep.hits / 64
    data = rep.to_json()
    assert data["mu_A"] == "1/8192"
    assert data["target"] == "1/4194304"
    assert data["pass"] is True


def test_burst_probability_impossible_threshold_below_chain():
    # i=5: overflow needs a window sum above 62 but the window is only 16 long
    rep = es.burst_probability_report(5, 200, rng_for(12))
    assert not rep.lower_valid
    assert rep.hits == 0
    assert rep.analytic_pass  # 1/128 > 1/1024 still holds arithmetically


def test_burst_probability_needs_precision():
    with pytest.raises(od.PrecisionError):
        es.burst_probability_report(11, 10, rng_for(0), precision=16)
    with pytest.raises(ValueError):
        es.burst_probability_report(11, 0, rng_for(0))


def test_burst_seed_windows_are_all_ones():
    # conditional sampling from the seed set forces a full window of arrivals
    for i in (5, 6, 7, 8):
        n = es.BurstParams(i).window
        rng = rng_for(13, i)
        for _ in range(100):
            p = od.sample_run_seed(i, rng)
            assert od.membership_window(p, n).all()


# -- burst cumulant report ---------------------------------------------------------


def test_burst_cumulant_zero_tilt_all_zero():
    rep = es.burst_cumulant_report(16, 0.0, 16, rng_for(0))
    assert (rep.upper_bound, rep.lower_bound, rep.lambda_strat, rep.gap) == (
        0.0,
        0.0,
        0.0,
        0.0,
    )


def test_burst_cumulant_frozen_floor():
    rep = es.burst_cumulant_report(16, 1.0, 256, rng_for(12))
    # exact formula, and the frozen oracle evaluation of it
    assert rep.lower_bound == 1.0 - 18.0 * math.log(2.0) / 32768.0
    assert rep.lower_bound == 0.9996192428817725
    # the seed stratum dominates; at this seed the estimate sits on the floor
    assert rep.lambda_strat == rep.lower_bound
    assert rep.gap == rep.upper_bound - rep.lambda_strat


def test_burst_cumulant_sandwich():
    for i, theta in ((8, 0.5), (8, 2.0), (12, 1.0)):
        rep = es.burst_cumulant_report(i, theta, 512, rng_for(14, i))
        assert rep.upper_bound == theta
        assert rep.lower_bound <= rep.lambda_strat <= rep.upper_bound
        assert 0.0 <= rep.lambda_plain <= rep.upper_bound


def test_burst_cumulant_validation():
    with pytest.raises(ValueError):
        es.burst_cumulant_report(8, -1.0, 16, rng_for(0))
    with pytest.raises(ValueError):
        es.burst_cumulant_report(8, 1.0, 0, rng_for(0))
    with pytest.raises(od.PrecisionError):
        es.burst_cumulant_report(16, 1.0, 16, rng_for(0), precision=16)


# -- stationary tail by simulation ---------------------------------------------------


def test_queue_tail_silent_input():
    rep = es.queue_tail_run(IIDTable((0.0,), (1.0,)), 0.75, [0.0, 1.0, 2.0], 5000, rng=rng_for(15))
    assert rep.tail.survival == (0.0, 0.0, 0.0)
    assert rep.fitted_decay is None
    assert rep.stable_mean


def test_queue_tail_slope_tracks_decay_rate():
    thresholds = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    rep = es.queue_tail_run(IIDBernoulli(0.5), 0.75, thresholds, 200_000, rng=rng_for(16))
    assert rep.stable_mean
    assert rep.fitted_decay is not None
    assert abs(rep.fitted_decay - DECAY_ROOT) / DECAY_ROOT < 0.15


def test_queue_tail_flags_unstable_mean():
    rep = es.queue_tail_run(IIDBernoulli(0.5), 0.4, [1.0], 4000, rng=rng_for(17))
    assert not rep.stable_mean


def test_queue_tail_burn_in_default_and_validation():
    rep = es.queue_tail_run(IIDBernoulli(0.2), 0.75, [0.0], 1000, rng=rng_for(18))
    assert rep.burn_in == 100
    with pytest.raises(ValueError):
        es.queue_tail_run(IIDBernoulli(0.2), 0.75, [0.0], 0, rng=rng_for(0))
    with pytest.raises(ValueError):
        es.queue_tail_run(IIDBernoulli(0.2), 0.75, [0.0], 100, burn_in=100, rng=rng_for(0))


def test_queue_tail_odometer_is_monotone():
    rep = es.queue_tail_run(
        OdometerProcess(), 0.75, [0.0, 0.5, 1.0, 2.0, 4.0], 20_000, rng=rng_for(19)
    )
    assert rep.stable_mean
    assert all(a >= b for a, b in zip(rep.tail.survival, rep.tail.survival[1:]))
