"""Arrival/increment stream kinds: laws, determinism, windows, parsing."""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from ergoqueue import lindley
from ergoqueue import odometer as od
from ergoqueue.processes import (
    BinaryMarkov,
    IIDBernoulli,
    IIDTable,
    SCAN_BLOCK,
    OdometerProcess,
    ProcessError,
    TraceError,
    TraceProcess,
    parse_process,
    rng_for,
)


def test_bernoulli_degenerate_streams():
    assert not IIDBernoulli(0.0).forward(100, rng_for(0)).any()
    assert IIDBernoulli(1.0).forward(100, rng_for(0)).all()


def test_bernoulli_window_mean_concentrates():
    p = 0.3
    n = 10_000
    w = IIDBernoulli(p).backward_window(n, rng_for(5))
    sigma = np.sqrt(p * (1 - p) / n)
    assert abs(w.mean() - p) < 4 * sigma


def test_markov_period_two_alternates():
    y = BinaryMarkov(1.0, 1.0).forward(64, rng_for(2))
    assert set(np.unique(y)) <= {0.0, 1.0}
    assert (np.abs(np.diff(y)) == 1.0).all()


def markov_oracle(chain, n, rng):
    """The chain stepped one uniform at a time, from the same single draw."""
    u = rng.random(n + 1)
    state = 1 if u[0] < chain.stationary_p1 else 0
    out = []
    for v in u[1:].tolist():
        if state == 1:
            state = 0 if v < chain.p10 else 1
        else:
            state = 1 if v < chain.p01 else 0
        out.append(state)
    return np.array(out, dtype=np.float64)


probabilities = st.sampled_from([0.0, 1.0, 1e-12, 2.0**-40, 0.5]) | st.floats(0, 1)


@settings(deadline=None)
@given(
    probabilities,
    probabilities,
    st.sampled_from([0, 1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 20011])
    | st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
# one value past a scan block, so the state carries across its edge: every
# step a negation, every step the identity (each from a start of 0, seed 0,
# and of 1, seed 5), constant steps only to 1, and a carried 1 that the
# second block's first step, the constant 0, replaces
@example(1.0, 1.0, SCAN_BLOCK + 1, 0)
@example(1.0, 1.0, SCAN_BLOCK + 1, 5)
@example(0.0, 0.0, SCAN_BLOCK + 1, 0)
@example(0.0, 0.0, SCAN_BLOCK + 1, 5)
@example(0.7, 0.2, SCAN_BLOCK + 1, 5)
@example(0.3, 0.5, SCAN_BLOCK + 1, 17)
def test_markov_matches_sequential_chain(p01, p10, n, seed):
    chain = BinaryMarkov(p01, p10)
    got = chain.forward(n, rng_for(seed))
    assert np.array_equal(got, markov_oracle(chain, n, rng_for(seed)))


# -- block streams -----------------------------------------------------------

STREAM_LENGTHS = [0, 1, SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1, 3 * SCAN_BLOCK + 17]
STREAMING = [IIDBernoulli(0.35), IIDTable((0.0, 0.3, 1.7), (0.5, 0.3, 0.2)), BinaryMarkov(0.3, 0.5)]
KINDS = [*STREAMING, OdometerProcess(), TraceProcess(values=np.arange(4 * SCAN_BLOCK) % 7 / 4)]


def one_draw(proc, n, rng):
    """The streaming kinds' samples as one draw of the generator each, as before streaming."""
    if isinstance(proc, IIDBernoulli):
        return (rng.random(n) < proc.p).astype(np.float64)
    if isinstance(proc, IIDTable):
        return np.asarray(proc.values)[rng.choice(len(proc.values), size=n, p=proc.probabilities)]
    return markov_oracle(proc, n, rng)


def state(rng):
    return rng.bit_generator.state


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(KINDS),
    st.sampled_from(STREAM_LENGTHS) | st.integers(0, 300),
    st.integers(0, 2**32 - 1),
)
def test_block_stream_joins_to_forward(proc, n, seed):
    rng = rng_for(seed)
    blocks = list(proc.blocks(n, rng))
    ref = rng_for(seed)
    whole = proc.forward(n, ref)
    joined = np.concatenate([np.empty(0), *blocks])
    assert all(b.dtype == np.float64 and b.ndim == 1 for b in blocks)
    assert joined.view(np.int64).tolist() == whole.view(np.int64).tolist()
    assert state(rng) == state(ref)
    if proc in STREAMING:
        sizes = [b.size for b in blocks]
        assert sizes == [min(SCAN_BLOCK, n - k) for k in range(0, n, SCAN_BLOCK)]
        ref = rng_for(seed)
        assert np.array_equal(whole, one_draw(proc, n, ref))
        assert state(rng) == state(ref)


@pytest.mark.parametrize("proc", STREAMING)
def test_block_stream_draws_only_what_is_read(proc):
    rng = rng_for(3)
    before = state(rng)
    stream = proc.blocks(3 * SCAN_BLOCK, rng)
    assert state(rng) == before
    first = next(stream)
    ref = rng_for(3)
    assert np.array_equal(first, one_draw(proc, SCAN_BLOCK, ref))
    assert state(rng) == state(ref)


@settings(deadline=None, max_examples=30)
@given(st.sampled_from(STREAMING), st.integers(0, 2**32 - 1), st.integers(1, 40_000))
def test_streamed_couple_stops_drawing_at_its_last_step(proc, seed, horizon):
    # x0 = 8000 at a drift of about -0.4 meets after two or three blocks
    shift = 0.8 if isinstance(proc, IIDTable) else 0.75
    rng = rng_for(seed)
    stream = (y - shift for y in proc.blocks(horizon, rng))
    res = lindley.forward_couple(8000.0, stream)
    whole = lindley.forward_couple(8000.0, [proc.forward(horizon, rng_for(seed)) - shift])
    assert res == whole
    # the generator drew the blocks up to the one holding the last step
    # run, and no further
    read = min(horizon, -(-res.steps_run // SCAN_BLOCK) * SCAN_BLOCK)
    ref = rng_for(seed)
    one_draw(proc, read, ref)
    assert state(rng) == state(ref)


def test_markov_stationary_start():
    # fraction of ones at time 0 across replicas matches p01/(p01+p10)
    chain = BinaryMarkov(0.1, 0.3)
    first = np.array([chain.forward(1, rng_for(11, r))[0] for r in range(4000)])
    target = 0.1 / 0.4
    assert abs(first.mean() - target) < 4 * np.sqrt(target * (1 - target) / 4000)


def test_table_deterministic_mean_is_exact():
    proc = IIDTable((2.5,), (1.0,))
    assert proc.window_counts(1, 1000, rng_for(0))[0] / 1000 == 2.5


def test_table_validates_probabilities():
    with pytest.raises(ProcessError):
        IIDTable((1.0, 2.0), (0.5, 0.6))
    with pytest.raises(ProcessError):
        IIDTable((1.0,), (-1.0,))


def test_empty_window_is_empty():
    for proc in (IIDBernoulli(0.5), OdometerProcess(), TraceProcess(values=[1.0])):
        assert proc.backward_window(0, rng_for(0)).size == 0


@pytest.mark.parametrize(
    "proc",
    [
        IIDBernoulli(0.5),
        IIDTable((0.0, 1.0), (0.5, 0.5)),
        BinaryMarkov(0.3, 0.5),
        TraceProcess(values=[1, 2, 3, 4, 5]),
        OdometerProcess(),
    ],
)
@pytest.mark.parametrize("n", [-1, -2, -5])
def test_negative_lengths_fail_fast(proc, n):
    samples = [
        proc.forward,
        proc.blocks,
        proc.backward_window,
        lambda m, rng: proc.window_counts(m, 1, rng),
        lambda width, rng: proc.window_counts(3, width, rng),
    ]
    for sample in samples:
        with pytest.raises(ProcessError, match="n must be nonnegative"):
            sample(n, rng_for(0))


@pytest.mark.parametrize(
    "proc", [IIDBernoulli(0.5), TraceProcess(values=[1, 2, 3]), OdometerProcess()],
    ids=["bernoulli", "trace", "odometer"],
)
@pytest.mark.parametrize("rng", [None, 7, np.random.SeedSequence(7)])
def test_draws_take_only_a_generator(proc, rng):
    # rng_for is the one way a seed becomes a stream; a trace, which draws
    # nothing, refuses a seed too
    samples = [
        proc.forward,
        proc.blocks,
        proc.backward_window,
        lambda width, rng: proc.window_counts(1, width, rng),
    ]
    for sample in samples:
        with pytest.raises(TypeError, match="rng_for"):
            sample(3, rng)


@pytest.mark.parametrize(
    "proc",
    [
        IIDBernoulli(0.5),
        IIDTable((0.0, 1.0), (0.5, 0.5)),
        BinaryMarkov(0.3, 0.5),
        TraceProcess(values=[1, 2, 3, 4, 5]),
        OdometerProcess(),
        OdometerProcess(precision=8, i_max=2),
    ],
)
def test_zero_width_windows_count_nothing(proc):
    assert proc.window_counts(3, 0, rng_for(0)).tolist() == [0, 0, 0]
    assert proc.window_counts(0, 0, rng_for(0)).size == 0


@pytest.mark.parametrize(
    "proc",
    [
        IIDTable((1e308,), (1.0,)),
        IIDTable((1e308, -1e308), (0.5, 0.5)),  # overflows of both signs sum to NaN
        TraceProcess(values=[1e308] * 8),
    ],
)
def test_window_sums_outside_the_float_range_are_a_value_error(proc):
    # the suite turns warnings into errors, so this also checks there is none
    with pytest.raises(ValueError, match="the window sums overflow the float range"):
        proc.window_counts(2, 4 if isinstance(proc, TraceProcess) else 400, rng_for(0))


# -- odometer kind -----------------------------------------------------------


def test_odometer_forward_matches_direct_membership():
    n, seed = 64, 17
    proc = OdometerProcess()
    y = proc.forward(n, rng_for(seed))
    # mirror the draw (margin n, width 1); deep counters never get rejected
    c = int(od.uniform_counters(rng_for(seed), 1, 64, 1)[0])
    assert c >= n
    want = [
        float(od.in_arrival_set(od.DyadicPoint(c - k, 64))) for k in range(1, n + 1)
    ]
    assert y.tolist() == want


def test_odometer_backward_matches_direct_membership():
    n, seed = 48, 23
    proc = OdometerProcess(i_max=9)
    w = proc.backward_window(n, rng_for(seed))
    c = int(od.uniform_counters(rng_for(seed), 1, 64, n)[0])
    want = [
        float(od.in_arrival_set(od.DyadicPoint(c + k, 64), i_max=9)) for k in range(n)
    ]
    assert w.tolist() == want


def _vector_draw(rng, precision, low, width):
    """The counter as the vector sampler draws it: one uint64 counter, then margin rejection.

    A span of fewer than K bits is drawn as an offset from ``low``, over the
    span's bits, as the vector sampler draws a window wider than half the orbit.
    """
    span = (1 << precision) - width - low
    if span.bit_length() < precision:
        return low + int(od.uniform_counters(rng, 1, precision, (1 << precision) - span)[0])
    while True:
        c = int(od.uniform_counters(rng, 1, precision, width)[0])
        if c >= low:
            return c


def _run(c, precision, n, step):
    """Membership, counter by counter, at c + step, c + 2*step, ... (n counters)."""
    return [float(od.in_arrival_set(od.DyadicPoint(c + k * step, precision))) for k in range(n)]


@settings(max_examples=150, deadline=None)
@given(
    precision=st.integers(2, 64),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    backward=st.booleans(),
)
# only counter 7 (forward) or 0 (backward) fits: most draws are rejected
@example(precision=3, n=7, seed=0, backward=False)
@example(precision=2, n=4, seed=1, backward=True)
def test_odometer_draw_matches_the_vector_sampler(precision, n, seed, backward):
    n = min(n, (1 << precision) if backward else (1 << precision) - 1)
    rng, oracle = rng_for(seed), rng_for(seed)
    if backward:
        got = OdometerProcess(precision).backward_window(n, rng).tolist()
        c = _vector_draw(oracle, precision, 0, n)
        assert got == _run(c, precision, n, 1)
    else:
        got = OdometerProcess(precision).forward(n, rng).tolist()
        c = _vector_draw(oracle, precision, n, 1)
        assert got == _run(c - 1, precision, n, -1)
    assert state(rng) == state(oracle)


@pytest.mark.parametrize("precision", [65, 100, 130])
def test_odometer_runs_above_64_bits_match_direct_membership(precision):
    proc, n, top = OdometerProcess(precision), 300, 1 << precision
    for seed in range(3):
        c = od.uniform_counter(rng_for(seed), precision, n, top - 1)
        want = _run(c - 1, precision, n, -1)
        assert proc.forward(n, rng_for(seed)).tolist() == want
        assert np.concatenate(list(proc.blocks(n, rng_for(seed)))).tolist() == want
        c = od.uniform_counter(rng_for(seed), precision, 0, top - n)
        assert proc.backward_window(n, rng_for(seed)).tolist() == _run(c, precision, n, 1)


def test_odometer_draw_for_a_window_filling_the_orbit_ends_at_once():
    # the only counter whose window of 2**K fits is 0: no try is drawn for it
    rng = rng_for(5)
    before = state(rng)
    assert OdometerProcess(40)._draw_counter(rng, low=0, width=1 << 40) == 0
    assert OdometerProcess(130)._draw_counter(rng, low=1 << 129, width=1 << 129) == 1 << 129
    assert state(rng) == before


def test_odometer_run_seed_window_is_all_ones():
    # seed 83 frozen: its first draw lands in the depth-7 run-seed set
    w = OdometerProcess().backward_window(4, rng_for(83))
    assert w.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_odometer_mean_between_truncated_measure_and_half():
    proc = OdometerProcess()
    n = 1 << 16
    lo, hi = proc.exact_mean_bounds()
    assert Fraction(1, 4) <= lo < hi <= Fraction(1, 2)
    est = proc.window_counts(1, n, rng_for(31))[0] / n
    slack = 4 * np.sqrt(0.25 / n)
    assert float(lo) - slack <= est <= 0.5 + slack


def test_odometer_mean_over_whole_periods_is_exact():
    # 2**40 counters span whole periods of the bands 0..4
    proc = OdometerProcess(64, 4)
    mean = proc.window_counts(1, 1 << 40, rng_for(0))[0] / (1 << 40)
    assert mean == float(od.arrival_set_measure(4))


def test_odometer_window_counts_match_scalar_windows():
    proc = OdometerProcess(i_max=6)
    counts = proc.window_counts(40, 32, rng_for(3))
    cs = od.uniform_counters(rng_for(3), 40, 64, 32)
    want = [
        int(od.membership_window(od.DyadicPoint(int(c), 64), 32, 6).sum()) for c in cs
    ]
    assert counts.tolist() == want


def test_odometer_rejects_bad_i_max():
    with pytest.raises(ProcessError):
        OdometerProcess(precision=16, i_max=8)


def test_odometer_window_beyond_orbit_rejected():
    with pytest.raises(ProcessError):
        OdometerProcess(precision=8).backward_window(400, rng_for(0))
    # the window counter checks the orbit with backward_window's test and message
    proc = OdometerProcess(precision=8)
    assert proc.window_counts(1, 1 << 8, rng_for(0)).size == 1
    with pytest.raises(ProcessError, match=r"orbit too short: 257 counters needed, 2\*\*8 exist"):
        proc.window_counts(1, (1 << 8) + 1, rng_for(0))


def test_odometer_forward_beyond_orbit_rejected():
    # a forward stream of n values needs a start counter c >= n below 2**K
    proc = OdometerProcess(precision=8)
    assert proc.forward(255, rng_for(0)).size == 255
    with pytest.raises(ProcessError):
        proc.forward(256, rng_for(0))
    with pytest.raises(ProcessError):
        proc.window_counts(1, 257, rng_for(0))


@pytest.mark.parametrize("precision", [0, 1, 65, 80])
def test_odometer_precision_checked_at_construction(precision):
    if precision >= 2:  # band_limit is the one rule, and it has no ceiling
        proc = parse_process(f"odometer:{precision}")
        assert proc == OdometerProcess(precision)
        assert set(proc.forward(50, rng_for(precision)).tolist()) <= {0.0, 1.0}
        return
    # precision 1 holds no band
    with pytest.raises(ProcessError, match="precision"):
        OdometerProcess(precision)
    with pytest.raises(ProcessError, match="precision"):
        parse_process(f"odometer:{precision}")


# -- fail-fast checks ----------------------------------------------------------


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: IIDTable((), ()), ProcessError,
                     "values and probabilities must be equal-length and nonempty",
                     id="table-empty"),
        pytest.param(lambda: IIDTable((1.0, np.inf), (0.5, 0.5)), ProcessError,
                     "table values must be finite", id="table-infinite"),
        pytest.param(lambda: TraceProcess(values=[[1.0], [2.0]]), TraceError,
                     "values: trace must be one-dimensional", id="trace-2d"),
        pytest.param(lambda: TraceProcess(values=[1.0, np.nan]), TraceError,
                     "values: values must be finite and nonnegative", id="trace-nan"),
    ],
)
def test_fail_fast_checks(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


# -- trace kind ----------------------------------------------------------------


def test_trace_reads_forward_and_backward(tmp_path):
    f = tmp_path / "trace.txt"
    f.write_text("1\n0.5\n\n2\n", encoding="utf-8")
    proc = parse_process(f"trace:{f}")
    assert proc.forward(2, rng_for(0)).tolist() == [1.0, 0.5]
    assert proc.backward_window(3, rng_for(0)).tolist() == [2.0, 0.5, 1.0]


def test_trace_parse_error_carries_line_number(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1\n0.5\npotato\n2\n", encoding="utf-8")
    with pytest.raises(TraceError, match=r"bad\.txt:3: not a number: 'potato'"):
        parse_process(f"trace:{f}")
    f.write_text("1\n-2\n", encoding="utf-8")
    with pytest.raises(TraceError, match=r"bad\.txt:2: value must be finite and nonnegative"):
        parse_process(f"trace:{f}")


def test_trace_exhaustion_reports_sizes():
    proc = TraceProcess(values=[1.0, 2.0])
    with pytest.raises(TraceError, match="exhausted"):
        proc.forward(3, rng_for(0))
    with pytest.raises(TraceError, match="exhausted"):
        proc.backward_window(3, rng_for(0))


def test_trace_window_counts_are_disjoint_stretches():
    proc = TraceProcess(values=np.arange(1.0, 51.0))
    rng = rng_for(0)
    assert proc.window_counts(4, 5, rng).tolist() == [15.0, 40.0, 65.0, 90.0]
    assert proc.window_counts(10, 5, rng).sum() == 1275.0
    with pytest.raises(TraceError, match="11 windows of 5 need 55 values, 50 recorded"):
        proc.window_counts(11, 5, rng)


def test_trace_pieces_do_not_alias_the_recording():
    given = np.array([1.0, 0.5, 2.0])
    proc = TraceProcess(values=given)
    given[:] = 7.0  # the caller's array is copied, not held
    rng = rng_for(0)
    for piece in proc.blocks(3, rng):
        try:
            piece[:] = 9.0
        except ValueError:  # a read-only view refuses the write
            pass
    whole = proc.forward(3, rng)
    assert whole.tolist() == [1.0, 0.5, 2.0]
    whole[:] = 9.0  # forward hands over a copy of its own
    back = proc.backward_window(3, rng)
    assert proc.forward(3, rng).tolist() == back[::-1].tolist() == [1.0, 0.5, 2.0]


@pytest.mark.parametrize("proc", [KINDS[-1]], ids=["trace"])
def test_unstreamed_kinds_hand_over_one_piece(proc):
    rng = rng_for(4)
    before = state(rng)
    assert sum(piece.size for piece in proc.blocks(0, rng)) == proc.forward(0, rng).size == 0
    assert state(rng) == before
    assert [piece.size for piece in proc.blocks(3 * SCAN_BLOCK, rng)] == [3 * SCAN_BLOCK]


@pytest.mark.parametrize("n", [0, 1, SCAN_BLOCK, SCAN_BLOCK + 1, 3 * SCAN_BLOCK + 17])
@pytest.mark.parametrize("precision, i_max", [(64, None), (64, 9), (130, 20)])
def test_odometer_pieces_are_scan_blocks_of_one_counter_draw(n, precision, i_max):
    # one counter per sample, as one whole run read backwards gave it: the
    # same values and generator end state, now SCAN_BLOCK counters per piece
    proc = OdometerProcess(precision, i_max)
    for seed in range(3):
        rng, oracle = rng_for(seed), rng_for(seed)
        pieces = list(proc.blocks(n, rng))
        assert [piece.size for piece in pieces] == [
            min(SCAN_BLOCK, n - k) for k in range(0, n, SCAN_BLOCK)
        ]
        want = []
        if n:  # an empty sample draws no counter
            c = od.uniform_counter(oracle, precision, n, (1 << precision) - 1)
            run = od.membership_window(od.DyadicPoint(c - n, precision), n, i_max)
            want = run[::-1].astype(np.float64).tolist()
        assert np.concatenate([np.empty(0), *pieces]).tolist() == want
        assert state(rng) == state(oracle)
        again = rng_for(seed)
        assert proc.forward(n, again).tolist() == want and state(again) == state(oracle)


def test_trace_missing_file():
    with pytest.raises(TraceError, match="cannot read"):
        parse_process("trace:/nonexistent/trace.txt")


# -- determinism ----------------------------------------------------------------


@pytest.mark.parametrize(
    "spec",
    [
        "iid-bernoulli:0.35",
        "iid-table:0,0.5,2@0.5,0.25,0.25",
        "binary-markov:0.3,0.2",
        "odometer",
        "odometer:32,9",
    ],
)
def test_seeded_streams_are_bit_exact(spec):
    a = parse_process(spec)
    b = parse_process(spec)
    assert np.array_equal(a.forward(257, rng_for(41)), b.forward(257, rng_for(41)))
    assert np.array_equal(
        a.backward_window(129, rng_for(42)), b.backward_window(129, rng_for(42))
    )


# -- numpy's draw rules, read from raw words -----------------------------------
# Every seeded stream above rests on how numpy's Generator turns its bit
# generator's 64-bit words into draws.  Each rule is checked against a copy of
# the generator read with ``random_raw``, so a numpy that changes one fails
# here, on the rule itself, and not on a moved digest.

LOW32, SHIFT32, SHIFT11 = np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(11)


@pytest.mark.parametrize("n", [0, 1, 7, SCAN_BLOCK + 1])
def test_uniforms_are_the_top_53_bits_of_one_word_each(n):
    rng = rng_for(3)
    twin = copy.deepcopy(rng)
    raw = twin.bit_generator.random_raw(n)
    assert np.array_equal(rng.random(n), (raw >> SHIFT11) * 2.0**-53)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("p", [[0.5, 0.5], [0.35, 0.65], [0.5, 0.25, 0.25], [0.1, 0.0, 0.6, 0.3]])
def test_weighted_choice_searches_the_normalized_cdf(p):
    rng = rng_for(5)
    twin = copy.deepcopy(rng)
    cdf = np.cumsum(p)
    u = twin.random(SCAN_BLOCK + 1)
    want = np.searchsorted(cdf / cdf[-1], u, side="right")
    assert np.array_equal(rng.choice(len(p), SCAN_BLOCK + 1, p=p), want)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 7, SCAN_BLOCK + 1])
def test_uint32_draws_read_each_word_low_half_first(n):
    rng = rng_for(7)
    raw = copy.deepcopy(rng).bit_generator.random_raw((n + 1) // 2)
    halves = np.stack([raw & LOW32, raw >> SHIFT32], axis=1).ravel()
    assert np.array_equal(rng.integers(0, 2**32, n, dtype=np.uint32), halves[:n])
    # an odd count leaves the last word's high half buffered for the next draw
    if n % 2:
        assert rng.integers(0, 2**32, dtype=np.uint32) == halves[n]


def test_replica_streams_differ_but_are_stable():
    proc = IIDBernoulli(0.5)
    r0 = proc.forward(64, rng_for(7, 0))
    r1 = proc.forward(64, rng_for(7, 1))
    assert not np.array_equal(r0, r1)
    assert np.array_equal(r1, IIDBernoulli(0.5).forward(64, rng_for(7, 1)))


# -- stationarity ----------------------------------------------------------------


def _tuple_counts(segment, k, base):
    # non-overlapping k-tuples, each encoded as an integer in base^k cells
    m = segment.size // k
    chunks = segment[: m * k].reshape(m, k)
    codes = (chunks * (base ** np.arange(k))).sum(axis=1).astype(int)
    return np.bincount(codes, minlength=base**k)


@pytest.mark.parametrize(
    "proc, base, relabel",
    [
        (IIDBernoulli(0.35), 2, False),
        (IIDTable((0.0, 0.5, 2.0), (0.5, 0.25, 0.25)), 3, True),
        (BinaryMarkov(0.3, 0.2), 2, False),
        (OdometerProcess(), 2, False),
    ],
)
def test_law_of_tuples_independent_of_offset(proc, base, relabel):
    k = 3
    y = proc.forward(24_000, rng_for(13))
    if relabel:
        _, y = np.unique(y, return_inverse=True)
    counts = np.vstack(
        [_tuple_counts(y[:12_000], k, base), _tuple_counts(y[12_000:], k, base)]
    )
    keep = counts.sum(axis=0) > 0
    _, pvalue, _, _ = stats.chi2_contingency(counts[:, keep])
    assert pvalue > 0.001


# -- gg1 waiting times ---------------------------------------------------------
# the waiting-time recursion reads the services, then the gaps, drawn in that
# order from one generator


def _gg1_waits(service, interarrival, n, rng):
    services = service.forward(n, rng)
    return lindley.run_recursion(0.0, services - interarrival.forward(n, rng))


def test_gg1_trace_matches_manual_recursion():
    waits = _gg1_waits(IIDTable((1.0,), (1.0,)), IIDTable((0.5,), (1.0,)), 8, rng_for(0))
    # deterministic S=1, T=0.5: W grows by exactly 0.5 per customer
    assert waits.tolist() == [0.5 * n for n in range(9)]


def test_gg1_deterministic_given_seed():
    service, gaps = IIDBernoulli(0.9), IIDTable((0.5, 1.5), (0.5, 0.5))
    a = _gg1_waits(service, gaps, 100, rng_for(3))
    assert np.array_equal(a, _gg1_waits(service, gaps, 100, rng_for(3)))


# -- parsing ----------------------------------------------------------------------


def test_parse_rejects_malformed_specs():
    bad = [
        "iid-bernoulli:1.5",
        "iid-table:1,2@0.7,0.7",
        "iid-table:0,1@nan,nan",
        "binary-markov:0.5",
        "binary-markov:2,0",
        "trace:",
        "odometer:8,9,10",
        "mystery:1",
    ]
    for text in bad:
        with pytest.raises(ProcessError):
            parse_process(text)
