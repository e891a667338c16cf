"""Arrival/increment stream kinds: laws, determinism, windows, parsing."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
    whole = lindley.forward_couple(8000.0, proc.forward(horizon, rng_for(seed)) - shift)
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


@pytest.mark.parametrize("precision", [0, 1, 65, 80])  # precision 1 holds no band
def test_odometer_precision_checked_at_construction(precision):
    with pytest.raises(ProcessError, match="precision"):
        OdometerProcess(precision)
    with pytest.raises(ProcessError, match="precision"):
        parse_process(f"odometer:{precision}")


# -- trace kind ----------------------------------------------------------------


def test_trace_reads_forward_and_backward(tmp_path):
    f = tmp_path / "trace.txt"
    f.write_text("1\n0.5\n\n2\n", encoding="utf-8")
    proc = TraceProcess(path=f)
    assert proc.forward(2, rng_for(0)).tolist() == [1.0, 0.5]
    assert proc.backward_window(3, rng_for(0)).tolist() == [2.0, 0.5, 1.0]


def test_trace_parse_error_carries_line_number(tmp_path):
    f = tmp_path / "bad.txt"
    f.write_text("1\n0.5\npotato\n2\n", encoding="utf-8")
    with pytest.raises(TraceError, match=r"bad\.txt:3"):
        TraceProcess(path=f)
    f.write_text("1\n-2\n", encoding="utf-8")
    with pytest.raises(TraceError, match=r"bad\.txt:2"):
        TraceProcess(path=f)


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


@pytest.mark.parametrize("proc", [OdometerProcess(), KINDS[-1]], ids=["odometer", "trace"])
def test_unstreamed_kinds_hand_over_one_piece(proc):
    rng = rng_for(4)
    before = state(rng)
    assert sum(piece.size for piece in proc.blocks(0, rng)) == proc.forward(0, rng).size == 0
    assert state(rng) == before  # an empty odometer sample draws no counter
    assert [piece.size for piece in proc.blocks(3 * SCAN_BLOCK, rng)] == [3 * SCAN_BLOCK]


def test_trace_missing_file():
    with pytest.raises(TraceError, match="cannot read"):
        TraceProcess(path="/nonexistent/trace.txt")


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
    return lindley.waiting_path(services, interarrival.forward(n, rng)).states


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
