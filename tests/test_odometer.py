"""Exact tests for the adding-machine module.

Expected measures were frozen from a brute-force residue count done
independently of the package (all residues at the full band depth).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoqueue import odometer as od

K = od.DEFAULT_PRECISION


def pt(num, den, precision=K):
    return od.DyadicPoint.from_fraction(Fraction(num, den), precision)


# -- points and the map -----------------------------------------------------


def test_counter_value_correspondence():
    assert pt(1, 2).counter == 1
    assert pt(1, 4).counter == 2
    assert pt(3, 4).counter == 3
    assert pt(0, 1).counter == 0
    assert pt(5, 8).counter == 0b101  # bits r1 r2 r3 = 1 0 1


def test_map_frozen_examples():
    assert od.apply_map(pt(1, 2)).value == 0
    assert od.apply_map(pt(1, 4)).value == Fraction(1, 2)
    assert od.apply_map(pt(3, 4)).value == Fraction(1, 4)
    assert od.apply_inverse(pt(0, 1)).value == Fraction(1, 2)


def test_map_is_counter_decrement():
    p = od.DyadicPoint(1000, 16)
    assert od.apply_map(p).counter == 999
    assert od.apply_inverse(p).counter == 1001
    assert od.apply_power(p, 7).counter == 993
    assert od.apply_power(p, -7).counter == 1007


def test_exceptional_points():
    with pytest.raises(od.ExceptionalPointError):
        od.apply_map(pt(0, 1))
    with pytest.raises(od.ExceptionalPointError):
        od.apply_inverse(od.DyadicPoint((1 << K) - 1, K))
    with pytest.raises(od.ExceptionalPointError):
        od.first_one_index(pt(0, 1))
    with pytest.raises(od.OrbitRangeError):
        od.apply_power(od.DyadicPoint(5, 16), 6)
    with pytest.raises(od.OrbitRangeError):
        od.apply_power(od.DyadicPoint(5, 16), -(1 << 16))


def test_first_one_index():
    assert od.first_one_index(pt(1, 2)) == 1
    assert od.first_one_index(pt(3, 4)) == 1
    assert od.first_one_index(pt(1, 4)) == 2
    assert od.first_one_index(pt(1, 1024)) == 10


def test_first_one_index_and_map_flip():
    # the map flips exactly the first tau bits: ones before, zeros after
    p = od.DyadicPoint(0b1101000, 16)
    tau = od.first_one_index(p)
    q = od.apply_map(p)
    assert tau == 4
    assert all(p.bit(l) == 0 and q.bit(l) == 1 for l in range(1, tau))
    assert p.bit(tau) == 1 and q.bit(tau) == 0
    assert all(p.bit(l) == q.bit(l) for l in range(tau + 1, 17))


def test_interval_index():
    assert od.interval_index(pt(3, 4), 5) == 3
    assert od.interval_index(pt(1, 2), 1) == 1
    assert od.interval_index(pt(1, 2), 3) == 1
    with pytest.raises(od.PrecisionError):
        od.interval_index(od.DyadicPoint(0, 8), 9)


dyadic_counters = st.integers(min_value=0, max_value=(1 << 20) - 1)


@given(dyadic_counters)
def test_value_roundtrip(c):
    p = od.DyadicPoint(c, 20)
    assert od.DyadicPoint.from_fraction(p.value, 20) == p
    assert od.DyadicPoint.from_float(float(p), 20) == p  # 20 bits fit a double
    assert od.DyadicPoint.from_bits(p.bits(), 20) == p
    assert od.DyadicPoint.from_json(p.to_json()) == p


@given(dyadic_counters.filter(lambda c: 0 < c < (1 << 20) - 1))
def test_map_inverse_cancel(c):
    p = od.DyadicPoint(c, 20)
    assert od.apply_inverse(od.apply_map(p)) == p
    assert od.apply_map(od.apply_inverse(p)) == p


@given(dyadic_counters, st.integers(min_value=0, max_value=20))
def test_interval_index_tracks_leading_bits(c, depth):
    p = od.DyadicPoint(c, 20)
    j = od.interval_index(p, depth)
    assert j == c % (1 << depth)
    assert od.DyadicInterval(depth, j).contains(p)


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_bit_reverse_involution(x):
    assert od.bit_reverse(od.bit_reverse(x, 16), 16) == x


def test_ordering_flip():
    # one forward step decreases the counter, never the other way
    p = od.DyadicPoint(12345, 20)
    assert od.apply_map(p).counter < p.counter < od.apply_inverse(p).counter


# -- interval sets ----------------------------------------------------------


def test_interval_basics():
    iv = od.DyadicInterval(2, 0)
    assert iv.measure == Fraction(1, 4)
    assert iv.value_start == 0
    assert iv.contains(pt(0, 1)) and iv.contains(pt(1, 8))
    assert not iv.contains(pt(1, 2))
    assert od.DyadicInterval(2, 1).value_start == Fraction(1, 2)


def test_sibling_merge_is_canonical():
    whole = od.DyadicIntervalSet([(0, 0)])
    assert od.DyadicIntervalSet([(1, 0), (1, 1)]) == whole
    assert od.DyadicIntervalSet([(2, 0), (2, 1), (2, 2), (2, 3)]) == whole
    # same union, different overlapping descriptions, one canonical form:
    # [0, 3/4) as half + quarter vs. two quarters + two eighths + a duplicate
    a = od.DyadicIntervalSet([(1, 0), (2, 1)])
    b = od.DyadicIntervalSet([(2, 0), (2, 2), (3, 1), (3, 5), (2, 2)])
    assert a == b
    assert a.measure == Fraction(3, 4)
    assert a.contains_point(pt(5, 8)) and not a.contains_point(pt(7, 8))


def test_no_siblings_in_components():
    rng = np.random.default_rng(7)
    for _ in range(50):
        items = [(int(d), int(rng.integers(0, 1 << d))) for d in rng.integers(1, 12, size=8)]
        comps = od.DyadicIntervalSet(items).components()
        seen = {(c.depth, c.index) for c in comps}
        for c in comps:
            if c.depth > 0:
                assert (c.depth, c.index ^ (1 << (c.depth - 1))) not in seen


def test_set_measure_and_membership_brute():
    rng = np.random.default_rng(3)
    for _ in range(25):
        items = [(int(d), int(rng.integers(0, 1 << d))) for d in rng.integers(0, 10, size=6)]
        s = od.DyadicIntervalSet(items)
        depth = 10
        hits = 0
        for c in range(1 << depth):
            p = od.DyadicPoint(c, depth)
            inside = any(c % (1 << d) == j for d, j in items)
            assert s.contains_point(p) == inside
            hits += inside
        assert s.measure == Fraction(hits, 1 << depth)


def test_contains_set():
    big = od.DyadicIntervalSet([(1, 0)])
    small = od.DyadicIntervalSet([(3, 0), (3, 4)])
    assert big.contains_set(small)
    assert not small.contains_set(big)
    assert big.contains_set(od.DyadicIntervalSet())
    assert od.DyadicIntervalSet().contains_set(od.DyadicIntervalSet())


def test_contains_set_exact_beyond_double_resolution():
    # neighbouring depth-63 cells near 1 start at 2**63 - 2 and 2**63 - 1
    # units, which one double cannot tell apart
    def cell(start):
        return od.DyadicIntervalSet([(63, od.bit_reverse(start, 63))])

    left, right = cell((1 << 63) - 2), cell((1 << 63) - 1)
    coarse = od.DyadicIntervalSet([(62, od.bit_reverse((1 << 62) - 1, 62))])
    assert not left.contains_set(right)
    assert not right.contains_set(left)
    assert coarse.contains_set(left) and coarse.contains_set(right)
    assert not right.contains_set(coarse)


def test_set_json_roundtrip():
    s = od.DyadicIntervalSet([(3, 5), (2, 2), (5, 17)])
    assert od.DyadicIntervalSet.from_json(s.to_json()) == s


def test_empty_set():
    s = od.DyadicIntervalSet()
    assert s.is_empty and len(s) == 0 and s.measure == 0
    assert not s.contains_point(pt(1, 2))


# -- arrival bands ----------------------------------------------------------


def test_band_measures():
    for i in range(0, 12):
        assert od.arrival_band(i).measure == Fraction(1, 1 << (i + 2))


def test_arrival_measure_frozen():
    # from the brute-force residue count
    assert od.arrival_set_measure(0) == Fraction(1, 4)
    assert od.arrival_set_measure(1) == Fraction(3, 8)
    assert od.arrival_set_measure(2) == Fraction(7, 16)
    assert od.arrival_set_measure(3) == Fraction(59, 128)
    assert od.arrival_set_measure(4) == Fraction(241, 512)
    assert od.arrival_set_measure(5) == Fraction(487, 1024)
    assert od.arrival_set_measure(6) == Fraction(1957, 4096)


def test_arrival_measure_two_routes_agree():
    for i_max in range(0, 10):
        s, tail = od.arrival_set_truncated(i_max)
        assert s.measure == od.arrival_set_measure(i_max)
        assert tail == Fraction(1, 1 << (i_max + 2))


def test_arrival_set_components_match_oracle():
    # len(arrival_set_truncated(i)[0]) for i = 0..18, from the interval-set union
    oracle = [1, 2, 4, 7, 12, 22, 40, 76, 145, 283, 554, 1096, 2170, 4318, 8596, 17152,
              34228, 68380, 136615]
    assert [od.arrival_set_components(i) for i in range(len(oracle))] == oracle
    for i_max in range(12):
        assert od.arrival_set_components(i_max) == len(od.arrival_set_truncated(i_max)[0])
    with pytest.raises(ValueError):
        od.arrival_set_components(-1)


def test_arrival_set_measures_match_interval_union():
    # one walk of the cap-11 automaton gives every band's union measure
    measures = od.arrival_set_measures(11)
    assert measures == [od.arrival_set_truncated(i)[0].measure for i in range(12)]
    assert measures == [od.arrival_set_measure(i) for i in range(12)]
    # each band adds at most its own measure 2**-(i+2)
    deep = od.arrival_set_measures(200)
    assert deep[:12] == measures
    gains = [b - a for a, b in zip(deep, deep[1:])]
    assert all(0 < g <= Fraction(1, 1 << (i + 2)) for i, g in enumerate(gains, 1))
    with pytest.raises(ValueError):
        od.arrival_set_measures(-1)


def test_bands_overlap_so_union_is_strictly_smaller():
    # first overlap: a counter that is 0 mod 4 with bit 2 set and bits 3..6 clear
    disjoint_sum = sum(Fraction(1, 1 << (i + 2)) for i in range(4))
    assert od.arrival_set_measure(3) < disjoint_sum
    c = 0b0000100
    p = od.DyadicPoint(c, 16)
    assert od.in_arrival_band(p, 0) and od.in_arrival_band(p, 3)


def test_arrival_measure_monotone_below_union_bound():
    # each band adds fresh measure, but overlaps keep the union strictly
    # below the disjoint sum once three or more bands are in play
    prev = Fraction(0)
    union_bound = Fraction(0)
    for i_max in range(0, 25):
        m = od.arrival_set_measure(i_max)
        union_bound += Fraction(1, 1 << (i_max + 2))
        assert prev < m <= union_bound < Fraction(1, 2)
        if i_max >= 3:
            assert m < union_bound
        prev = m


def test_deep_truncations_change_little():
    # truncation error is capped by the dropped bands' total measure
    m20 = od.arrival_set_measure(20)
    assert od.arrival_set_measure(31) - m20 <= Fraction(1, 1 << 22)


def test_membership_frozen_examples():
    assert od.in_arrival_set(pt(0, 1))  # counter 0, band 0
    assert od.in_arrival_set(pt(3, 4))  # counter 3, band 2 residue
    assert od.in_arrival_set(pt(1, 2))  # counter 1, band 1 residue
    assert od.in_arrival_band(pt(3, 4), 2)
    assert not od.in_arrival_band(pt(3, 4), 1)
    # small counters are always arrivals: band bit_length(c) catches them
    assert all(od.in_arrival_set(od.DyadicPoint(c, 64)) for c in range(1 << 12))
    # an all-ones block longer than any admissible band is never caught
    assert not od.in_arrival_set(od.DyadicPoint((1 << 33) - 1, 64))
    assert not od.in_arrival_set(od.DyadicPoint((1 << 40) - 1, 64))
    # but the same pattern short enough for its band is
    assert od.in_arrival_set(od.DyadicPoint((1 << 31) - 1, 64))


@given(st.integers(min_value=0, max_value=(1 << 40) - 1), st.integers(min_value=0, max_value=12))
def test_membership_matches_raw_definition(c, i_max):
    p = od.DyadicPoint(c, 40)
    raw = c % 4 == 0 or any(
        (1 << (i - 1)) <= c % (1 << (2 * i + 1)) < (1 << i) for i in range(1, i_max + 1)
    )
    assert od.in_arrival_set(p, i_max) == raw
    s, _ = od.arrival_set_truncated(i_max, 40)
    assert s.contains_point(p) == raw


def test_batch_membership_matches_scalar():
    rng = np.random.default_rng(11)
    cs = od.uniform_counters(rng, 500, 64)
    batch = od.in_arrival_set_batch(cs, 64)
    for c, b in zip(cs.tolist(), batch.tolist()):
        assert od.in_arrival_set(od.DyadicPoint(int(c), 64)) == b


def test_run_seed_sets():
    assert od.run_seed_set(0).is_empty
    for i in range(1, 8):
        s = od.run_seed_set(i)
        assert s.measure == Fraction(1, 1 << (i + 2))
        band_union, _ = od.arrival_set_truncated(i)
        assert band_union.contains_set(s)


@given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None)
def test_run_seed_window_is_all_arrivals(i, salt):
    rng = np.random.default_rng(salt)
    p = od.sample_run_seed(i, rng)
    assert od.in_run_seed(p, i)
    w = od.membership_window(p, 1 << (i - 1))
    assert bool(w.all())


def test_run_seed_edge_of_band():
    # a seed with low bits just under 2**(i-1) still carries the full run
    i = 5
    n = 1 << (i - 1)
    c = (0b1 << (2 * i + 1)) | (n - 1)
    w = od.membership_window(od.DyadicPoint(c, 64), n)
    assert bool(w.all())


def test_band_depth_guards():
    with pytest.raises(od.PrecisionError):
        od.in_arrival_band(od.DyadicPoint(0, 8), 4)  # needs depth 9
    with pytest.raises(od.PrecisionError):
        od.run_seed_set(40, 64)
    assert od.band_limit(64) == 31
    assert od.band_limit(9) == 4


# -- window counting --------------------------------------------------------


@st.composite
def windows(draw):
    """(precision, i_max, width, counter) with the window inside 2**precision."""
    precision = draw(st.integers(min_value=3, max_value=64))
    i_max = draw(st.integers(min_value=0, max_value=od.band_limit(precision)))
    width = draw(st.integers(min_value=1, max_value=min(4096, 1 << precision)))
    last = (1 << precision) - width  # the window ending exactly at 2**precision
    c = draw(st.one_of(st.integers(min_value=0, max_value=last), st.just(last)))
    return precision, i_max, width, c


@given(windows())
@settings(max_examples=300, deadline=None)
def test_window_counts_match_brute_force(window):
    precision, i_max, width, c = window
    fast = od.window_arrival_counts([c], width, precision, i_max)[0]
    slow = int(od.membership_window(od.DyadicPoint(c, precision), width, i_max).sum())
    assert fast == slow


def test_window_counts_near_counter_top():
    top = 1 << 64
    width = 64
    cs = [top - width, top - width - 1, 0, 1]
    fast = od.window_arrival_counts(cs, width, 64)
    slow = [int(od.membership_window(od.DyadicPoint(c, 64), width).sum()) for c in cs]
    assert fast.tolist() == slow
    with pytest.raises(od.OrbitRangeError):
        od.window_arrival_counts([top - width + 1], width, 64)


def test_window_counts_span_several_blocks():
    width = 16
    cs = od.uniform_counters(np.random.default_rng(21), 3 * od.COUNT_BLOCK + 5, 64, width)
    cells = cs[:, None] + np.arange(width, dtype=np.uint64)
    slow = od.in_arrival_set_batch(cells, 64).sum(axis=1)
    assert (od.window_arrival_counts(cs, width, 64) == slow).all()


def test_window_counts_need_precision_at_most_64():
    with pytest.raises(od.PrecisionError):
        od.window_arrival_counts([0], 8, 65)


@pytest.mark.parametrize(
    "i_max, width, starts",
    [
        (4, 1 << 40, [0, 1, 12345, (1 << 64) - (1 << 40)]),
        (31, 1 << 63, [0]),
    ],
)
def test_window_counts_over_whole_periods(i_max, width, starts):
    # the set has period 2**(2*i_max+1), so a window of whole periods holds
    # exactly measure * width arrivals wherever it starts
    counts = od.window_arrival_counts(starts, width, 64, i_max)
    want = od.arrival_set_measure(i_max) * width
    assert [Fraction(int(n)) for n in counts] == [want] * len(starts)


def test_window_count_long_run_frequency():
    # over a stretch whose length all band periods divide, the arrival
    # frequency equals the exact truncated measure
    width = 1 << 10
    counts = od.window_arrival_counts(range(0, 1 << 15, width), width, 64, i_max=4)
    freq = Fraction(int(np.sum(counts)), 1 << 15)
    assert freq == od.arrival_set_measure(4)


# -- sampling ---------------------------------------------------------------


def test_uniform_counters_range_and_determinism():
    rng = np.random.default_rng(5)
    cs = od.uniform_counters(rng, 1000, 64, width=256)
    assert cs.dtype == np.uint64
    assert int(cs.max()) <= (1 << 64) - 256
    rng2 = np.random.default_rng(5)
    assert (od.uniform_counters(rng2, 1000, 64, width=256) == cs).all()


def test_uniform_point_avoids_endpoints():
    rng = np.random.default_rng(9)
    for _ in range(200):
        p = od.uniform_point(rng, 10)
        assert 0 < p.counter < (1 << 10) - 1


def test_sample_run_seed_distribution():
    rng = np.random.default_rng(13)
    i = 3
    draws = [od.sample_run_seed(i, rng, 16).counter for _ in range(4000)]
    lows = [c % (1 << (2 * i + 1)) for c in draws]
    assert all(l < (1 << (i - 1)) for l in lows)
    # all four admissible low residues show up
    assert set(lows) == {0, 1, 2, 3}
