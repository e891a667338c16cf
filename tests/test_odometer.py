"""Exact tests for the adding-machine module.

Expected measures were frozen from a brute-force residue count done
independently of the package (all residues at the full band depth).
"""

import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergoqueue import odometer as od

import oracles

K = od.DEFAULT_PRECISION


def pt(num, den, precision=K):
    return od.DyadicPoint.from_fraction(Fraction(num, den), precision)


def u64(counters):
    """Counters as the uint64 array window_arrival_counts takes."""
    return np.array(counters, dtype=np.uint64)


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
    assert od.DyadicPoint.from_fraction(Fraction(float(p)), 20) == p  # 20 bits fit a double


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
    assert oracles.DyadicInterval(depth, j).contains(p)


@given(st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_bit_reverse_involution(x):
    assert od.bit_reverse(od.bit_reverse(x, 16), 16) == x


def test_ordering_flip():
    # one forward step decreases the counter, never the other way
    p = od.DyadicPoint(12345, 20)
    assert od.apply_map(p).counter < p.counter < od.apply_inverse(p).counter


# -- interval sets ----------------------------------------------------------


def test_interval_basics():
    iv = oracles.DyadicInterval(2, 0)
    assert iv.measure == Fraction(1, 4)
    assert iv.contains(pt(0, 1)) and iv.contains(pt(1, 8))
    assert not iv.contains(pt(1, 2))


def test_interval_takes_numpy_integers():
    # a numpy depth of 63 used to wrap 1 << depth negative and reject every index
    for depth in (np.int64(63), np.uint64(63), np.int32(63)):
        iv = oracles.DyadicInterval(depth, np.uint64(5))
        assert iv == oracles.DyadicInterval(63, 5)
        assert type(iv.depth) is int and type(iv.index) is int
        assert iv.measure == Fraction(1, 2**63)
        assert iv.contains(od.DyadicPoint(5 + 2**63, 64))
    oracles.DyadicInterval(np.int64(63), np.uint64(2**63 - 1))  # the last index at depth 63
    assert oracles.DyadicIntervalSet([(np.int64(63), 5)]) == oracles.DyadicIntervalSet([(63, 5)])
    assert oracles.DyadicIntervalSet([(np.int64(63), 5)]).measure == Fraction(1, 2**63)
    for bad in ((2.0, 1), (2, 1.0)):  # a float is not an integer, even an integral one
        with pytest.raises(TypeError):
            oracles.DyadicInterval(*bad)
    with pytest.raises(ValueError, match="out of range"):
        oracles.DyadicInterval(np.int64(63), 2**63)


def test_sibling_merge_is_canonical():
    whole = oracles.DyadicIntervalSet([(0, 0)])
    assert oracles.DyadicIntervalSet([(1, 0), (1, 1)]) == whole
    assert oracles.DyadicIntervalSet([(2, 0), (2, 1), (2, 2), (2, 3)]) == whole
    # same union, different overlapping descriptions, one canonical form:
    # [0, 3/4) as half + quarter vs. two quarters + two eighths + a duplicate
    a = oracles.DyadicIntervalSet([(1, 0), (2, 1)])
    b = oracles.DyadicIntervalSet([(2, 0), (2, 2), (3, 1), (3, 5), (2, 2)])
    assert a == b
    assert a.measure == Fraction(3, 4)
    assert a.contains_point(pt(5, 8)) and not a.contains_point(pt(7, 8))


def test_no_siblings_in_components():
    rng = np.random.default_rng(7)
    for _ in range(50):
        items = [(int(d), int(rng.integers(0, 1 << d))) for d in rng.integers(1, 12, size=8)]
        comps = oracles.DyadicIntervalSet(items).components()
        seen = {(c.depth, c.index) for c in comps}
        for c in comps:
            if c.depth > 0:
                assert (c.depth, c.index ^ (1 << (c.depth - 1))) not in seen


def test_set_measure_and_membership_brute():
    rng = np.random.default_rng(3)
    for _ in range(25):
        items = [(int(d), int(rng.integers(0, 1 << d))) for d in rng.integers(0, 10, size=6)]
        s = oracles.DyadicIntervalSet(items)
        depth = 10
        hits = 0
        for c in range(1 << depth):
            p = od.DyadicPoint(c, depth)
            inside = any(c % (1 << d) == j for d, j in items)
            assert s.contains_point(p) == inside
            hits += inside
        assert s.measure == Fraction(hits, 1 << depth)
        # points carried to fewer bits than the deepest interval have trailing zeros
        deepest = max(d for d, _ in items)
        for precision in range(max(deepest - 3, 1), deepest):
            for c in range(1 << precision):
                inside = any(c % (1 << d) == j for d, j in items)
                assert s.contains_point(od.DyadicPoint(c, precision)) == inside


def test_contains_set():
    big = oracles.DyadicIntervalSet([(1, 0)])
    small = oracles.DyadicIntervalSet([(3, 0), (3, 4)])
    assert big.contains_set(small)
    assert not small.contains_set(big)
    assert big.contains_set(oracles.DyadicIntervalSet())
    assert oracles.DyadicIntervalSet().contains_set(oracles.DyadicIntervalSet())


def test_contains_set_exact_beyond_double_resolution():
    # neighbouring depth-63 cells near 1 start at 2**63 - 2 and 2**63 - 1
    # units, which one double cannot tell apart
    def cell(start):
        return oracles.DyadicIntervalSet([(63, od.bit_reverse(start, 63))])

    left, right = cell((1 << 63) - 2), cell((1 << 63) - 1)
    coarse = oracles.DyadicIntervalSet([(62, od.bit_reverse((1 << 62) - 1, 62))])
    assert not left.contains_set(right)
    assert not right.contains_set(left)
    assert coarse.contains_set(left) and coarse.contains_set(right)
    assert not right.contains_set(coarse)

    def point(start, precision):
        return od.DyadicPoint(od.bit_reverse(start, precision), precision)

    near_one = [point((1 << 63) - 2, 63), point((1 << 63) - 1, 63)]
    assert [left.contains_point(p) for p in near_one] == [True, False]
    assert [right.contains_point(p) for p in near_one] == [False, True]
    assert all(coarse.contains_point(p) for p in near_one)
    # finer points split the cells; a 62-bit point has a trailing zero, so it
    # is the left cell's start
    assert left.contains_point(point((1 << 64) - 3, 64))
    assert right.contains_point(point((1 << 64) - 1, 64))
    assert right.contains_point(point((1 << 70) - 1, 70))
    assert left.contains_point(point((1 << 62) - 1, 62))
    assert not right.contains_point(point((1 << 62) - 1, 62))


def test_empty_set():
    s = oracles.DyadicIntervalSet()
    assert len(s) == 0 and s.measure == 0
    assert not s.contains_point(pt(1, 2))


# -- arrival bands ----------------------------------------------------------


def test_band_measures():
    for i in range(0, 12):
        assert oracles.arrival_band(i).measure == Fraction(1, 1 << (i + 2))
    for i in [*range(41), 1000]:
        assert od.band_measure(i) == Fraction(1, 2 ** (i + 2))


def test_band_matches_the_oracle_statement():
    for i in range(41):
        assert od.band(i) == oracles.band_residues(i)


def test_band_limit_closed_form_matches_band():
    # the deepest band at precision K is the last whose depth fits K bits
    for precision in range(2, 301):
        cap = od.band_limit(precision)
        assert od.band(cap)[0] <= precision < od.band(cap + 1)[0]


def test_band_is_the_single_source(monkeypatch):
    # another rule of the same shape, each band one bit deeper: every route to
    # the arrival set reads band(), so they still agree with one another
    def deeper(i):
        return 2 * i + 2, (1 << i) >> 1, 1 << i

    precision, cap = 16, 4
    period = 1 << deeper(cap)[0]
    counters = range(3 * period)
    real = [od.in_arrival_set(od.DyadicPoint(c, precision), cap) for c in counters]
    monkeypatch.setattr(od, "band", deeper)
    od._chunk_tables.cache_clear()
    try:
        member = [od.in_arrival_set(od.DyadicPoint(c, precision), cap) for c in counters]
        assert member != real  # the rule did change
        window = od.membership_window(od.DyadicPoint(0, precision), len(counters), cap)
        assert window.tolist() == member
        for i, measure in enumerate(od.arrival_set_measures(cap)):
            depth = deeper(i)[0]
            union = [od.in_arrival_set(od.DyadicPoint(c, precision), i) for c in range(1 << depth)]
            assert measure == Fraction(sum(union), 1 << depth)
        starts = np.array([0, 1, 5, 63, 64, 511, period - 1, period + 7], np.uint64)
        for width in (1, 2, 3, 17, 64, 100, period - 1, period, period + 3, 2 * period - 7):
            got = od.window_arrival_counts(starts, width, precision, cap)
            want = [sum(member[c : c + width]) for c in starts.tolist()]
            assert got.tolist() == want
    finally:
        od._chunk_tables.cache_clear()


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
        s, tail = oracles.arrival_set_truncated(i_max)
        assert s.measure == od.arrival_set_measure(i_max)
        assert tail == Fraction(1, 1 << (i_max + 2))


def test_arrival_set_components_match_oracle():
    # len(arrival_set_truncated(i)[0]) for i = 0..18, from the interval-set union
    oracle = [1, 2, 4, 7, 12, 22, 40, 76, 145, 283, 554, 1096, 2170, 4318, 8596, 17152,
              34228, 68380, 136615]
    assert [od.arrival_set_components(i) for i in range(len(oracle))] == oracle
    for i_max in range(12):
        assert od.arrival_set_components(i_max) == len(oracles.arrival_set_truncated(i_max)[0])
    with pytest.raises(ValueError):
        od.arrival_set_components(-1)


def test_arrival_set_measures_match_interval_union():
    # one walk of the cap-11 automaton gives every band's union measure
    measures = od.arrival_set_measures(11)
    assert measures == [oracles.arrival_set_truncated(i)[0].measure for i in range(12)]
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
    assert oracles.in_arrival_band(p, 0) and oracles.in_arrival_band(p, 3)


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
    assert oracles.in_arrival_band(pt(3, 4), 2)
    assert not oracles.in_arrival_band(pt(3, 4), 1)
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
    bands = map(oracles.band_residues, range(i_max + 1))
    raw = any(lo <= c % (1 << depth) < hi for depth, lo, hi in bands)
    assert od.in_arrival_set(p, i_max) == raw
    s, _ = oracles.arrival_set_truncated(i_max, 40)
    assert s.contains_point(p) == raw


def assert_run_matches_scalar(precision, cap, c, width, every=False):
    """membership_window against in_arrival_set at every offset, or at the
    run's ends, both sides of each RUN_ALIGN edge inside it and a stride."""
    got = od.membership_window(od.DyadicPoint(c, precision), width, cap)
    assert got.dtype == bool and got.shape == (width,)
    if every or width <= 512:
        offsets = range(width)
    else:
        edges = range(-c % od.RUN_ALIGN, width, od.RUN_ALIGN)
        offsets = {*range(256), *range(width - 256, width), *range(0, width, 97)}
        offsets |= {e + d for e in edges for d in range(-16, 16) if 0 <= e + d < width}
    for j in offsets:
        assert got[j] == od.in_arrival_set(od.DyadicPoint(c + j, precision), cap), (c, j)


@st.composite
def runs(draw):
    """(precision, cap, start, width) with the run inside 2**precision."""
    precision = draw(st.integers(min_value=2, max_value=130))
    cap = draw(st.integers(min_value=0, max_value=od.band_limit(precision)))
    width = draw(st.integers(min_value=0, max_value=min(3 * od.RUN_ALIGN, 1 << precision)))
    last = min((1 << precision) - width, (1 << precision) - 1)  # the run ending at 2**K
    block = draw(st.integers(min_value=0, max_value=last // od.RUN_ALIGN)) * od.RUN_ALIGN
    near_edge = block + draw(st.integers(min_value=-width, max_value=8))
    c = draw(st.one_of(st.integers(0, last), st.sampled_from([0, last]), st.just(near_edge)))
    return precision, cap, min(max(c, 0), last), width


@given(runs())
@settings(max_examples=150, deadline=None)
def test_membership_window_matches_scalar(run):
    assert_run_matches_scalar(*run)


@pytest.mark.parametrize(
    "precision, cap, c, width",
    [
        (64, 5, od.RUN_ALIGN - 100, 300),  # crosses a block edge; every period fits a block
        (64, 31, 0, 3 * od.RUN_ALIGN),  # starts at 0; bands 6.. are sliced per period
        (13, 6, 0, 1 << 13),  # the whole orbit: band 6 has one period
        (20, 9, (1 << 20) - 3 * od.RUN_ALIGN - 5, 3 * od.RUN_ALIGN + 5),  # ends at 2**K
        (128, 63, (1 << 128) - 5000, 5000),
        (130, 7, (1 << 64) - 2000, 4000),  # crosses 2**64
        (2, 0, 0, 4),
        (2, 0, 3, 0),  # width 0, here and below
        (64, 31, od.RUN_ALIGN, 0),
        (130, 64, 12345, 0),
    ],
)
def test_membership_window_edges_match_scalar(precision, cap, c, width):
    assert_run_matches_scalar(precision, cap, c, width, every=True)


def test_membership_window_at_huge_precision_meets_only_the_bands_of_the_run():
    # precision 2000001 holds a million bands, each with a Python-int
    # period; from counter 3 every band past the run's last counter is left
    # out, so the call does not grow with the precision.  A run of large
    # counters at such a precision still meets every band.
    precision, width = 2_000_001, 5000
    start = time.perf_counter()
    got = od.membership_window(od.DyadicPoint.from_fraction(Fraction(3, 4), precision), width)
    assert time.perf_counter() - start < 0.5
    cap = od.band_limit(precision)
    for j in range(width):
        assert got[j] == od.in_arrival_set(od.DyadicPoint(3 + j, precision), cap), j


def test_run_seed_sets():
    assert len(oracles.run_seed_set(0)) == 0
    assert not od.run_seed_mask(np.arange(1 << 12, dtype=np.uint64), 0).any()
    for i in range(1, 8):
        s = oracles.run_seed_set(i)
        assert s.measure == Fraction(1, 1 << (i + 2))
        band_union, _ = oracles.arrival_set_truncated(i)
        assert band_union.contains_set(s)


@given(st.integers(min_value=2, max_value=64), st.data())
@settings(deadline=None)
def test_run_seed_mask_matches_oracle(precision, data):
    # band 0 has no seeds; the residues next to each band's seed edge are drawn often
    i = data.draw(st.integers(min_value=0, max_value=od.band_limit(precision)), label="i")
    depth, lo, _ = oracles.band_residues(i)
    residues = st.one_of(
        st.integers(min_value=0, max_value=(1 << depth) - 1),
        st.sampled_from([0, max(lo - 1, 0), lo, (1 << depth) - 1]),
    )
    high = st.integers(min_value=0, max_value=(1 << (precision - depth)) - 1)
    pairs = st.lists(st.tuples(high, residues), min_size=1, max_size=32)
    counters = [(h << depth) | r for h, r in data.draw(pairs, label="counters")]
    got = od.run_seed_mask(np.array(counters, dtype=np.uint64), i)
    assert got.dtype == bool and got.shape == (len(counters),)
    points = [od.DyadicPoint(c, precision) for c in counters]
    assert got.tolist() == [oracles.in_run_seed(p, i) for p in points]
    if i <= 8:  # the set has 2**(i-1) cells
        seeds = oracles.run_seed_set(i, precision)
        assert got.tolist() == [seeds.contains_point(p) for p in points]


@given(st.integers(min_value=1, max_value=14), st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None)
def test_run_seed_window_is_all_arrivals(i, salt):
    rng = np.random.default_rng(salt)
    p = od.sample_run_seed(i, rng)
    assert oracles.in_run_seed(p, i)
    w = od.membership_window(p, 1 << (i - 1))
    assert bool(w.all())


def test_run_seed_edge_of_band():
    # a seed with low bits just under 2**(i-1) still carries the full run
    i = 5
    n = 1 << (i - 1)
    c = (0b1 << (2 * i + 1)) | (n - 1)
    w = od.membership_window(od.DyadicPoint(c, 64), n)
    assert bool(w.all())


@pytest.mark.parametrize("precision", [65, 80, 128])
def test_membership_window_beyond_64_bits_matches_interval_sets(precision):
    # above 64 bits the band offsets are Python ints; the interval set is the oracle
    rng = random.Random(precision)
    width = 40
    top = (1 << precision) - width
    counters = [0, top, (1 << 64) - width, (1 << 64) - width // 2]  # the last crosses 2**64
    counters += [rng.randrange(top + 1) for _ in range(8)]
    counters += [rng.randrange((1 << 64) - width) for _ in range(4)]
    for cap in range(9):
        band_union, _ = oracles.arrival_set_truncated(cap, precision)
        for c in counters:
            got = od.membership_window(od.DyadicPoint(c, precision), width, cap).tolist()
            points = [od.DyadicPoint(c + j, precision) for j in range(width)]
            assert got == [band_union.contains_point(p) for p in points]


def test_band_depth_guards():
    with pytest.raises(od.PrecisionError):
        oracles.in_arrival_band(od.DyadicPoint(0, 8), 4)  # needs depth 9
    with pytest.raises(od.PrecisionError):
        oracles.run_seed_set(40, 64)
    assert od.band_limit(64) == 31
    assert od.band_limit(9) == 4


def _band_checks(precision, i):
    """The band rule's function and, where a point exists, its callers."""
    yield lambda: od.band_limit(precision, i)
    if i <= 6:  # band i has 2**(i-1) cells: build only small sets
        yield lambda: oracles.arrival_band(i, precision)
    if precision >= 1:
        p = od.DyadicPoint(0, precision)
        yield lambda: oracles.in_run_seed(p, i)
        yield lambda: oracles.in_arrival_band(p, i)
        yield lambda: od.in_arrival_set(p, i)
        yield lambda: od.membership_window(p, 1, i)


def test_band_limit_is_the_one_band_rule():
    # a band is testable when it is nonnegative and its depth max(2i+1, 2)
    # fits the precision, so precision 1 holds none; the band functions
    # raise exactly where it is not
    for precision in range(-2, 70):
        if precision < 2:
            with pytest.raises(od.PrecisionError):
                od.band_limit(precision)
        else:
            assert od.band_limit(precision) == (precision - 1) // 2
        for i in range(-3, 40):
            testable = i >= 0 and max(2 * i + 1, 2) <= precision
            if testable:
                assert od.band_limit(precision, i) == i
            for check in _band_checks(precision, i):
                if testable:
                    check()
                else:
                    with pytest.raises(od.PrecisionError):
                        check()


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
    fast = od.window_arrival_counts(u64([c]), width, precision, i_max)[0]
    slow = int(od.membership_window(od.DyadicPoint(c, precision), width, i_max).sum())
    assert fast == slow


def prefix_count_oracle(r: int, cap: int) -> int:
    """The prefix count of one counter, walking the per-bit digit DP one bit at a time."""
    gain, step = (t.tolist() for t in oracles.digit_steps(cap))
    total, idx = 0, 2 * len(gain)
    for b in reversed(range(len(gain))):
        idx |= (r >> b) & 1
        total += gain[b][idx]
        idx = step[b][idx]
    return total


def prefix_counts(rs: np.ndarray, cap: int) -> np.ndarray:
    """The prefix counts of uint64 counters inside one period, walked chunk by chunk."""
    total = np.zeros(rs.size, np.uint64)
    od._walk(rs, od._chunk_tables(cap)[1], 0, total)
    return total


def period_bits(cap: int) -> int:
    return max(2 * cap + 1, 2)


def chunk_edges(cap: int) -> set[int]:
    """0, the top counter of the period, and both neighbours of every chunk's low bit."""
    top = period_bits(cap)
    edges = {0, (1 << top) - 1}
    for lo in [0, *range(top % od.COUNT_BITS, top, od.COUNT_BITS)]:
        edges |= {(1 << lo) - 1, 1 << lo, (1 << lo) + 1, (1 << top) - 1 - (1 << lo)}
    return {e for e in edges if 0 <= e < 1 << top}


def test_chunk_edges_cover_a_ragged_chunk():
    # the period bits are 2 or odd, never a multiple of the chunk width, so
    # the lowest chunk is narrower than the others at every cap
    assert all(period_bits(cap) % od.COUNT_BITS for cap in range(32))
    lowest = od._chunk_tables(31)[1][-1]
    assert lowest[0] == 0
    assert int(lowest[1]).bit_length() == 63 % od.COUNT_BITS


@pytest.mark.parametrize("cap", range(32))
def test_digit_steps_match_per_bit_fill(cap):
    # the array form, one cumsum and one broadcast, against the walk read bit by bit
    gain, step, _ = od._digit_steps(cap)
    want_gain, want_step = oracles.digit_steps(cap)
    assert gain.dtype == want_gain.dtype and step.dtype == want_step.dtype
    assert gain.shape == want_gain.shape and step.shape == want_step.shape
    assert (gain == want_gain).all() and (step == want_step).all()


@pytest.mark.parametrize("cap", range(32))
def test_cached_period_count_is_the_set_measure(cap):
    # the walk's final member count is the union measure times the period
    members, _ = od._chunk_tables(cap)
    assert type(members) is np.uint64
    assert members == od.arrival_set_measure(cap) * (1 << od.band(cap)[0])


def test_window_counts_do_not_recompute_the_period_count(monkeypatch):
    # the members per period are cached with the tables: no window count
    # after the first at a cap walks the Fractions of arrival_set_measure
    calls = []
    measure = od.arrival_set_measure
    monkeypatch.setattr(od, "arrival_set_measure", lambda i: calls.append(i) or measure(i))
    starts = u64([0, 5, 1000])
    for cap in (3, 31):
        od.window_arrival_counts(starts, 17, 64, cap)
        first = len(calls)
        for width in (1, 17, 1 << 20):
            od.window_arrival_counts(starts, width, 64, cap)
        assert len(calls) == first


@pytest.mark.parametrize("cap", range(32))
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_prefix_counts_match_per_bit_walk(cap, data):
    top = period_bits(cap)
    drawn = data.draw(st.lists(st.integers(0, (1 << top) - 1), max_size=16))
    rs = sorted(chunk_edges(cap)) + drawn
    got = prefix_counts(np.array(rs, dtype=np.uint64), cap)
    assert got.tolist() == [prefix_count_oracle(r, cap) for r in rs]


@pytest.mark.parametrize("cap", range(6))
def test_prefix_counts_match_member_tally(cap):
    # every counter of a short period against a running count of members
    rs = np.arange(1 << period_bits(cap), dtype=np.uint64)
    member = [od.in_arrival_set(od.DyadicPoint(r, 64), cap) for r in range(rs.size)]
    tally = np.concatenate([[0], np.cumsum(member)[:-1]])
    assert (prefix_counts(rs, cap) == tally).all()


def test_chunk_tables_stay_small():
    # the tables of the deepest band stay cached for the life of the process
    _, tables = od._chunk_tables(31)
    assert sum(gain.nbytes + nxt.nbytes for *_, gain, nxt in tables) <= 256 * 1024


@pytest.mark.parametrize("cap", range(32))
def test_whole_periods_hold_the_set_measure(cap):
    # a window of k whole periods P = 2**L holds k * measure * P arrivals
    # from any start; the digit DP counts the same members below P (the
    # counter P - 1, all ones, is no member), so two derivations agree
    period = 1 << period_bits(cap)
    measure = od.arrival_set_measure(cap) * period
    assert measure.denominator == 1
    members = int(measure)
    top = np.array([period - 1], dtype=np.uint64)
    assert prefix_counts(top, cap)[0] == members
    assert not od.in_arrival_set(od.DyadicPoint(period - 1, 64), cap)
    for k in (1, 2):
        width = k * period
        last = (1 << 64) - width
        edges = {0, 1, period - 1, period + 5, last // 3, last - 1, last}
        starts = sorted(c for c in edges if 0 <= c <= last)
        got = od.window_arrival_counts(u64(starts), width, 64, cap)
        assert got.tolist() == [k * members] * len(starts)


def test_window_counts_near_counter_top():
    top = 1 << 64
    width = 64
    cs = [top - width, top - width - 1, 0, 1]
    fast = od.window_arrival_counts(u64(cs), width, 64)
    slow = [int(od.membership_window(od.DyadicPoint(c, 64), width).sum()) for c in cs]
    assert fast.tolist() == slow
    with pytest.raises(od.OrbitRangeError):
        od.window_arrival_counts(u64([top - width + 1]), width, 64)


def test_window_counts_take_uint64_counters_only():
    # counters come as uniform_counters draws them, a uint64 array of any
    # shape read flat; any other form, even of the same integers, is a
    # TypeError, and no float is ever truncated to a counter
    want = [int(od.membership_window(od.DyadicPoint(c, 8), 4).sum()) for c in (1, 2, 3, 4)]
    assert od.window_arrival_counts(u64([1, 2, 3, 4]), 4, 8).tolist() == want
    assert od.window_arrival_counts(u64([[1, 2], [3, 4]]), 4, 8).tolist() == want
    bad = ([1], [np.uint64(1)], range(1), np.array([1], np.int64), np.array([1], np.uint8),
           np.array([1.0]), [1.5])
    for counters in bad:
        with pytest.raises(TypeError, match="counters must be a uint64 numpy array"):
            od.window_arrival_counts(counters, 4, 8)


def test_window_counts_span_several_blocks():
    width = 16
    cs = od.uniform_counters(np.random.default_rng(21), 3 * od.COUNT_BLOCK + 5, 64, width)
    slow = [
        sum(od.in_arrival_set(od.DyadicPoint(c + j, 64)) for j in range(width)) for c in cs.tolist()
    ]
    assert od.window_arrival_counts(cs, width, 64).tolist() == slow


def carry_calls(width: int, top: int, rnd: random.Random):
    """(t, starts) for calls whose highest carry bit is t, at 64-bit precision.

    Adding the width carries out of b, the top bit of width mod 2**top.  Each
    call leads with the start 0, whose carry stops at b, then has starts with
    bits b..t-1 set and bit t clear, whose carry stops at t (t = top: it
    leaves the period).  A width of whole periods carries nowhere: t is None.
    """
    rest = width % (1 << top)
    if not rest:
        yield None, [0] + [rnd.getrandbits(64) for _ in range(8)]
        return
    b = rest.bit_length() - 1
    for t in range(b + 1, top + 1):
        ones = (1 << t) - (1 << b)
        starts = [(r & ~((2 << t) - 1)) | ones | (r & ((1 << b) - 1))
                  for r in (rnd.getrandbits(64) for _ in range(8))]
        yield t, [0] + [c for c in starts if c <= (1 << 64) - width]


@pytest.mark.parametrize("cap", [0, 1, 5, 11, 31])
def test_window_counts_mix_carry_depths_in_a_block(cap):
    # one block holds starts whose carries stop at different bits: only the
    # chunks above the deepest carry may be walked once for both ends
    top = period_bits(cap)
    period = 1 << top
    rnd = random.Random(cap)
    for width in (1, 1024, period - 1, period + 1024):
        for t, starts in carry_calls(width, top, rnd):
            if t is not None and t < top:
                carried = [(c % period) ^ ((c + width) % period) for c in starts]
                assert max(carried).bit_length() - 1 == t
            elif t == top:
                assert all(c % period + width % period >= period for c in starts[1:])
            got = od.window_arrival_counts(u64(starts), width, 64, cap).tolist()
            assert got == [od.window_arrival_counts(u64([c]), width, 64, cap)[0] for c in starts]
            if width <= 4096:
                windows = (od.membership_window(od.DyadicPoint(c, 64), width, cap) for c in starts)
                assert got == [w.sum() for w in windows]


def test_window_counts_need_precision_at_most_64():
    with pytest.raises(od.PrecisionError):
        od.window_arrival_counts(u64([0]), 8, 65)


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
    counts = od.window_arrival_counts(u64(starts), width, 64, i_max)
    want = od.arrival_set_measure(i_max) * width
    assert [Fraction(int(n)) for n in counts] == [want] * len(starts)


def test_window_count_long_run_frequency():
    # over a stretch whose length all band periods divide, the arrival
    # frequency equals the exact truncated measure
    width = 1 << 10
    starts = np.arange(0, 1 << 15, width, dtype=np.uint64)
    counts = od.window_arrival_counts(starts, width, 64, i_max=4)
    freq = Fraction(int(np.sum(counts)), 1 << 15)
    assert freq == od.arrival_set_measure(4)


# -- fail-fast checks --------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: od.bit_reverse(1, -1), ValueError,
                     "width must be nonnegative", id="bit-reverse-width"),
        pytest.param(lambda: od.bit_reverse(4, 2), ValueError,
                     "4 does not fit in 2 bits", id="bit-reverse-too-wide"),
        pytest.param(lambda: od.bit_reverse(-1, 3), ValueError,
                     "-1 does not fit in 3 bits", id="bit-reverse-negative"),
        pytest.param(lambda: od.DyadicPoint(0, 0), od.PrecisionError,
                     "precision must be a positive integer, got 0", id="point-precision"),
        pytest.param(lambda: od.DyadicPoint(0, 8.0), od.PrecisionError,
                     "precision must be a positive integer, got 8.0", id="point-float-precision"),
        pytest.param(lambda: od.DyadicPoint(1.0, 8), TypeError,
                     "counter must be an int, got float", id="point-type"),
        pytest.param(lambda: od.DyadicPoint(256, 8), ValueError,
                     "counter 256 out of range for precision 8", id="point-range"),
        pytest.param(lambda: od.DyadicPoint(-1, 8), ValueError,
                     "counter -1 out of range for precision 8", id="point-negative"),
        pytest.param(lambda: od.DyadicPoint.from_fraction(Fraction(1)), ValueError,
                     "value 1 outside [0, 1)", id="from-fraction-range"),
        pytest.param(lambda: od.DyadicPoint.from_fraction(Fraction(1, 3), 8), od.PrecisionError,
                     "1/3 is not dyadic at precision 8", id="from-fraction-not-dyadic"),
        pytest.param(lambda: od.DyadicPoint.from_fraction(Fraction(1, 512), 8), od.PrecisionError,
                     "1/512 is not dyadic at precision 8", id="from-fraction-too-deep"),
        pytest.param(lambda: od.DyadicPoint(5, 8).bit(0), od.PrecisionError,
                     "bit index 0 outside 1..8", id="bit-zero"),
        pytest.param(lambda: od.interval_index(od.DyadicPoint(5, 8), -1), ValueError,
                     "depth must be nonnegative", id="interval-index-depth"),
        pytest.param(lambda: oracles.DyadicInterval(5, 0).contains(od.DyadicPoint(0, 4)),
                     od.PrecisionError, "depth 5 exceeds point precision 4", id="contains-deeper"),
        pytest.param(lambda: od.membership_window(od.DyadicPoint(5, 8), -1), ValueError,
                     "width must be nonnegative", id="membership-width"),
        pytest.param(lambda: od.membership_window(od.DyadicPoint(250, 8), 7), od.OrbitRangeError,
                     "window of width 7 from counter 250 leaves precision 8",
                     id="membership-leaves-window"),
        pytest.param(lambda: od.window_arrival_counts(u64([0]), 0, 8), ValueError,
                     "width must be positive", id="window-counts-width"),
        pytest.param(lambda: od.uniform_counters(np.random.default_rng(0), 1, 65),
                     od.PrecisionError,
                     "window counting supports precision <= 64",
                     id="uniform-counters-precision"),
        pytest.param(lambda: od.uniform_counters(np.random.default_rng(0), 1, 8, 0), ValueError,
                     "width out of range", id="uniform-counters-width"),
        pytest.param(lambda: od.uniform_counter(np.random.default_rng(0), 8, 5, 4),
                     od.PrecisionError, "no counter in [5, 4] at precision 8",
                     id="uniform-counter-empty"),
        pytest.param(lambda: od.uniform_counter(np.random.default_rng(0), 8, 0, 256),
                     od.PrecisionError, "no counter in [0, 256] at precision 8",
                     id="uniform-counter-above-top"),
        pytest.param(lambda: od.run_seed_mask(np.zeros(1, np.uint64), 32), od.PrecisionError,
                     "band 32 outside 0..31 at precision 64 (depth max(2i+1, 2))",
                     id="run-seed-mask-band-32"),
        pytest.param(lambda: od.sample_run_seed(0, np.random.default_rng(0), 8), ValueError,
                     "run seeds exist for band indices i >= 1 only", id="run-seed-band-0"),
    ],
)
def test_fail_fast_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# -- sampling ---------------------------------------------------------------


def test_uniform_counters_range_and_determinism():
    rng = np.random.default_rng(5)
    cs = od.uniform_counters(rng, 1000, 64, width=256)
    assert cs.dtype == np.uint64
    assert int(cs.max()) <= (1 << 64) - 256
    rng2 = np.random.default_rng(5)
    assert (od.uniform_counters(rng2, 1000, 64, width=256) == cs).all()


@pytest.mark.parametrize("precision", [2, 20, 40, 64, 65, 130])
def test_counter_draws_near_a_full_orbit_end_at_once(precision):
    # a try reads only the bits of the span: one counter left costs no draw at
    # all, where a K-bit try would land on it once in 2**K tries
    top = (1 << precision) - 1
    rng = np.random.default_rng(7)
    before = rng.bit_generator.state
    assert od.uniform_counter(rng, precision, 0, 0) == 0
    assert od.uniform_counter(rng, precision, top, top) == top
    if precision <= 64:
        assert od.uniform_counters(rng, 5, precision, top + 1).tolist() == [0] * 5
    assert rng.bit_generator.state == before
    # three counters at the top: each try reads two bits and lands three times in four
    draws = [od.uniform_counter(rng, precision, top - 2, top) for _ in range(400)]
    assert set(draws) == {top - 2, top - 1, top}
    if precision <= 64:
        wide = od.uniform_counters(rng, 400, precision, top - 1)
        assert set(wide.tolist()) == {0, 1, 2}


@pytest.mark.parametrize("precision", [2, 5, 20, 32, 33, 40, 63, 64])
def test_scalar_and_vector_counter_draws_read_the_same_words(precision):
    # uniform_counter's tries read the words uniform_counters reads for one counter
    top = 1 << precision
    for width in sorted({1, 2, 3, 1000, (top >> 1) + 1, top}):
        if width > top:
            continue
        for seed in range(30):
            rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
            scalar = od.uniform_counter(rng, precision, 0, top - width)
            assert scalar == int(od.uniform_counters(rng2, 1, precision, width)[0])
            assert rng.bit_generator.state == rng2.bit_generator.state


@st.composite
def counter_draws(draw):
    """(precision, width, size, half): a uniform_counters call, maybe after an odd 32-bit draw."""
    precision = draw(st.integers(1, 64))
    top = 1 << precision
    width = draw(st.sampled_from([1, top]) | st.integers(1, top))
    size = draw(st.sampled_from([0, 1]) | st.integers(2, 40)
                | st.integers(od.COUNT_BLOCK + 1, od.COUNT_BLOCK + 40))
    return precision, width, size, draw(st.booleans())


@given(counter_draws())
@example((32, 1, od.COUNT_BLOCK + 3, True))
@example((33, 1, od.COUNT_BLOCK + 3, False))
@example((33, (1 << 32) - 1, 40, True))  # half the tries land
@example((64, 1 << 64, 5, True))
@example((64, 1, 0, True))
@settings(max_examples=200, deadline=None)
def test_counter_draws_match_one_call_per_word(call):
    # one 32-bit call per try reads the words, and leaves the generator where
    # one call per word left it: a full 32-bit range takes one next_uint32 per
    # value in either dtype, the buffered half of a 64-bit output included
    precision, width, size, half = call
    rng, rng2 = np.random.default_rng(size), np.random.default_rng(size)
    if half:
        for g in (rng, rng2):
            g.integers(0, 1 << 32, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
    got = od.uniform_counters(rng, size, precision, width)
    want = oracles.uniform_counters(rng2, size, precision, width)
    assert got.dtype == want.dtype == np.uint64
    assert got.tolist() == want.tolist()
    assert rng.bit_generator.state == rng2.bit_generator.state


def test_sample_run_seed_distribution():
    rng = np.random.default_rng(13)
    i = 3
    draws = [od.sample_run_seed(i, rng, 16).counter for _ in range(4000)]
    lows = [c % (1 << (2 * i + 1)) for c in draws]
    assert all(l < (1 << (i - 1)) for l in lows)
    # all four admissible low residues show up
    assert set(lows) == {0, 1, 2, 3}
