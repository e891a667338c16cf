"""One-sided recursion core: frozen examples plus the exact identities.

Increment strategies draw dyadic rationals (k/2^20) so partial sums of a few
hundred terms are exact doubles and equality assertions are legitimate.  The
trajectory and coupling kernels are also compared bit for bit with the
defining step iterated in plain Python, on lengths around the kernels' block
size and on increments off the dyadic grid, where their closed form rounds
and the step takes over.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergoqueue import lindley as ld

dyadic = st.integers(-(1 << 20), 1 << 20).map(lambda k: k / 1048576.0)
windows = st.lists(dyadic, max_size=200)


def sup_oracle(values):
    v = np.concatenate(([0.0], np.cumsum(values))) if len(values) else np.zeros(1)
    return float(v.max()), int(np.argmax(v))


def step(x, z):
    """One step of the recursion, through the trajectory kernel."""
    return ld.run_recursion(x, [z]).states[-1]


def bits(values):
    """Bit patterns of doubles, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def recursion_oracle(x0, increments):
    """The defining step iterated in plain Python."""
    x = x0
    states = [x]
    for z in np.asarray(increments, dtype=np.float64).tolist():
        x = max(x + z, 0.0)
        states.append(x)
    return states


def couple_oracle(x0, increments):
    """Both chains stepped one increment at a time, as forward_couple defines."""
    z = np.asarray(increments, dtype=np.float64).tolist()
    upper, lower = x0, 0.0
    if upper == lower:
        return 0, upper, lower, 0
    tau = None
    n = 0
    while n < len(z):
        upper = max(upper + z[n], 0.0)
        lower = max(lower + z[n], 0.0)
        n += 1
        assert upper >= lower
        if upper == lower:
            tau = n
            break
    if tau is not None:
        for k in range(n, min(n + ld.ABSORPTION_CHECK, len(z))):
            upper = max(upper + z[k], 0.0)
            lower = max(lower + z[k], 0.0)
            assert upper == lower
            n = k + 1
    return tau, upper, lower, n


# lengths on both sides of the kernels' block boundaries
LENGTHS = (0, 1, ld.BLOCK - 1, ld.BLOCK, ld.BLOCK + 1, 20011)


@st.composite
def long_increments(draw):
    """Seeded arrays of a block-boundary length: quarters, off-grid, signed zeros or both."""
    n = draw(st.sampled_from(LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["quarters", "off-grid", "zeros", "off-grid-zeros"]))
    if kind == "quarters":
        return rng.integers(-3, 2, n) / 4.0  # drift -1/4: the chain keeps emptying
    if kind == "off-grid":
        return rng.uniform(-1.0, 0.9, n)
    zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    if kind == "zeros":
        return zeros
    # the stepped fallback meets -0.0 increments
    return np.where(rng.random(n) < 0.5, zeros, rng.uniform(-1.0, 0.9, n))


@st.composite
def drains(draw):
    """(x0, increments) where the upper chain empties j steps before the end."""
    # forward_couple's blocks end at FIRST_COUPLE_BLOCK, then BLOCK apart
    edges = (ld.FIRST_COUPLE_BLOCK + 1, ld.FIRST_COUPLE_BLOCK + ld.BLOCK + 1)
    n = draw(st.sampled_from(LENGTHS[1:] + edges))
    j = draw(st.integers(0, min(n - 1, 50)))
    return 0.25 * (n - j), np.full(n, -0.25)


@st.composite
def rounding_meets(draw):
    """(1.0, increments) whose chains meet by rounding at step j, far from empty."""
    n = draw(st.sampled_from(LENGTHS[1:]))
    z = np.full(n, -0.25)
    z[draw(st.integers(0, min(n - 1, 50)))] = 2.0**53  # 1 + 2^53 rounds to 2^53
    return 1.0, z


increments = windows | long_increments()
starts = st.sampled_from([0.0, -0.0, 0.25, 2047.75, 5000.0]) | st.floats(0, 16)
couple_cases = st.tuples(starts, increments) | drains() | rounding_meets()


# -- single step -------------------------------------------------------------


def test_step_frozen_examples():
    assert step(0.0, -1.0) == 0.0
    assert step(2.0, 3.0) == 5.0
    assert step(1.5, -1.5) == 0.0


def test_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        step(-0.5, 1.0)
    with pytest.raises(ValueError):
        step(0.0, math.nan)
    with pytest.raises(ValueError):
        step(0.0, math.inf)


@given(st.floats(0, 100), dyadic)
def test_step_is_clipped_addition(x, z):
    got = step(x, z)
    assert got == max(x + z, 0.0)
    assert got >= 0.0


# -- backward construction ---------------------------------------------------


def test_sup_frozen_examples():
    for window, expected in (
        ([], (0.0, 0)),
        ([-1.0, 2.0, -1.0], (1.0, 2)),
        ([-1.0, -1.0], (0.0, 0)),
    ):
        res = ld.loynes_sup(window)
        assert (res.value, res.argmax) == expected


def test_sup_tie_breaks_to_smallest_argmax():
    # V = (0, 1, 0, 1): first max wins
    res = ld.loynes_sup([1.0, -1.0, 1.0])
    assert (res.value, res.argmax) == (1.0, 1)


def test_sup_empty_window_not_converged():
    res = ld.loynes_sup([])
    assert not res.converged


def test_sup_convergence_flag():
    # argmax interior and trailing sum well below the max
    assert ld.loynes_sup([1.0, -5.0], slack=1.0).converged
    # argmax at the boundary: truncation may be binding
    assert not ld.loynes_sup([1.0, 1.0]).converged
    # trailing sum still within slack of the max
    assert not ld.loynes_sup([1.0, -0.5], slack=1.0).converged


@given(windows)
def test_sup_matches_enumeration(values):
    res = ld.loynes_sup(values)
    assert (res.value, res.argmax) == sup_oracle(values)


@given(windows)
def test_sup_prefix_monotone(values):
    sups = [ld.loynes_sup(values[:n]).value for n in range(len(values) + 1)]
    assert all(a <= b for a, b in zip(sups, sups[1:]))
    maxima = ld.loynes_prefix_maxima(values)
    assert maxima.tolist() == sups


def test_window_partial_sum_increments():
    window = [0.5, -1.25, 2.0]
    v = ld.partial_sums(window)
    assert v.tolist() == [0.0, 0.5, -0.75, 1.25]
    for n in range(3):
        assert v[n + 1] - v[n] == window[n]


def test_partial_sums_reject_non_finite():
    with pytest.raises(ValueError):
        ld.partial_sums([1.0, math.nan])
    with pytest.raises(ValueError):
        ld.loynes_sup([math.inf])


@given(st.lists(st.floats(-4, 4), max_size=200))
def test_sup_matches_sequential_scan(values):
    # off the dyadic grid the sums round; the scan must round identically
    v = best = 0.0
    arg = 0
    for n, z in enumerate(values, start=1):
        v += z
        if v > best:
            best, arg = v, n
    res = ld.loynes_sup(values)
    assert (res.value, res.argmax) == (best, arg)
    assert type(res.argmax) is int and type(res.converged) is bool


# -- forward recursion -------------------------------------------------------


def test_recursion_frozen_examples():
    assert ld.run_recursion(0.0, [1.0, -2.0, 1.0]).states.tolist() == [0.0, 1.0, 0.0, 1.0]
    assert ld.run_recursion(5.0, []).states.tolist() == [5.0]
    trace = ld.run_recursion(0.0, [-1.0, 0.0, -0.5])
    assert trace.states.tolist() == [0.0, 0.0, 0.0, 0.0]
    # max(-0.0, 0.0) is -0.0: the sign survives until a +0.0 increment
    assert bits(ld.run_recursion(-0.0, [-0.0, 0.0]).states) == bits([-0.0, -0.0, 0.0])


@settings(deadline=None)
@given(starts, increments)
def test_recursion_matches_sequential_step(x0, values):
    assert bits(ld.run_recursion(x0, values).states) == bits(recursion_oracle(x0, values))


@settings(deadline=None)
@given(starts, long_increments(), st.integers(0, 2**32 - 1),
       st.sampled_from([math.nan, -math.nan]))
def test_reflect_steps_nan_like_max(x0, values, seed, nan):
    # the public API rejects non-finite input, so the kernel is called
    # directly; on off-grid input the stepped fallback reaches the NaN, and
    # either way every state must carry it exactly as max does
    z = np.array(values, dtype=np.float64)
    if z.size:
        z[np.random.default_rng(seed).integers(z.size)] = nan
    out = ld._reflect(x0, z, np.empty(z.size))
    assert bits(out) == bits(recursion_oracle(x0, z)[1:])


def test_recursion_rejects_negative_start():
    with pytest.raises(ValueError):
        ld.run_recursion(-1.0, [1.0])


@given(st.floats(0, 16), windows)
def test_recursion_trace_invariant(x0, values):
    trace = ld.run_recursion(x0, values)
    trace.verify()
    assert (trace.states >= 0).all()


def test_verify_reports_first_bad_step():
    trace = ld.run_recursion(0.0, [1.0, -2.0, 1.0, 1.0])
    trace.states[2] = 0.5
    trace.states[4] = 9.0
    with pytest.raises(ValueError, match="step 1$"):
        trace.verify()


@given(windows)
def test_expansion_equivalence(values):
    # forward from 0 on the reversed window reaches exactly the backward sup
    final = ld.run_recursion(0.0, values[::-1]).states[-1]
    assert final == ld.loynes_sup(values).value


@given(windows, st.lists(dyadic, min_size=1, max_size=50))
def test_shift_consistency(values, fresh):
    # step the backward-constructed state forward m times; the result is the
    # backward sup of the extended window, exactly, at full depth N + m
    x = ld.run_recursion(ld.loynes_sup(values).value, fresh).states[-1]
    extended = list(reversed(fresh)) + list(values)
    res = ld.loynes_sup(extended)
    assert x == res.value
    # truncating the shifted window back to depth N changes nothing as long
    # as the full argmax never reaches past N (truncation not binding)
    if res.argmax <= len(values):
        assert ld.loynes_sup(extended[: len(values)]).value == x


# -- coupling ----------------------------------------------------------------


def test_couple_frozen_examples():
    assert ld.forward_couple(0.0, [1.0, -1.0]).coupling_time == 0
    assert ld.forward_couple(1.0, [-1.0]).coupling_time == 1
    res = ld.forward_couple(10.0, [1.0] * 100)
    assert (res.coupling_time, res.steps_run) == (None, 100)
    assert res.final_upper - res.final_lower == 10.0
    res = ld.forward_couple(2.0, [-1.0])
    assert (res.coupling_time, res.steps_run) == (None, 1)


def test_couple_reports_finals():
    res = ld.forward_couple(2.0, [-1.0, -1.0, 5.0])
    assert (res.coupling_time, res.steps_run) == (2, 3)
    assert res.final_upper == res.final_lower == 5.0


@pytest.mark.parametrize("extra", [-1, 0, 1, 100])
def test_couple_stops_at_absorption_check_or_input_end(extra):
    # the chains meet at step 2; the run then checks ABSORPTION_CHECK more
    # steps, or as many as the input holds
    z = [-1.0, -1.0] + [0.25] * (ld.ABSORPTION_CHECK + extra)
    res = ld.forward_couple(2.0, z)
    assert res.coupling_time == 2
    assert res.steps_run == min(len(z), 2 + ld.ABSORPTION_CHECK) <= len(z)


def test_couple_meets_by_rounding():
    # the upper chain never empties: 1 + 2^53 rounds to 2^53 = the lower chain
    res = ld.forward_couple(1.0, [2.0**53] + [-0.25] * 100)
    assert (res.coupling_time, res.steps_run) == (1, 65)


# a length the input is cut to, so that a run can end before its absorption
# check, or before the chains meet
cut_lengths = st.none() | st.sampled_from(LENGTHS) | st.integers(0, 25_000)


@settings(deadline=None)
@given(couple_cases, cut_lengths)
def test_couple_absorption_and_ordering(case, length):
    x0, values = case
    values = values[:length]
    upper = ld.run_recursion(x0, values).states
    lower = ld.run_recursion(0.0, values).states
    assert (upper >= lower).all()
    met = np.flatnonzero(upper == lower)
    if met.size:
        tau = int(met[0])
        assert (upper[tau:] == lower[tau:]).all()
        assert ld.forward_couple(x0, values).coupling_time == tau
    else:
        assert ld.forward_couple(x0, values).coupling_time is None
    tau, final_upper, final_lower, steps_run = couple_oracle(x0, values)
    got = ld.forward_couple(x0, values)
    assert (got.coupling_time, got.steps_run) == (tau, steps_run)
    assert got.steps_run <= len(values)
    assert bits([got.final_upper, got.final_lower]) == bits([final_upper, final_lower])


@st.composite
def splits(draw, values, cuts):
    """``values`` as a list of blocks cut at ``cuts`` and at drawn points, empty ones too."""
    n = len(values)
    points = draw(st.lists(st.integers(0, n), max_size=6)) + [c for c in cuts if 0 <= c <= n]
    points = sorted(points)
    edges = [0, *points, n]
    return [np.asarray(values[a:b], dtype=np.float64) for a, b in zip(edges, edges[1:])]


@settings(deadline=None)
@given(couple_cases, cut_lengths, st.data())
def test_couple_ignores_block_splits(case, length, data):
    x0, values = case
    values = values[:length]
    whole = ld.forward_couple(x0, values)
    met = whole.coupling_time
    # cut at the meeting step and at the end of the absorption check too
    cuts = [] if met is None else [met - 1, met, met + ld.ABSORPTION_CHECK]
    blocks = data.draw(splits(values, cuts))
    pulled = []

    def stream():
        for block in blocks:
            pulled.append(block.size)
            yield block

    got = ld.forward_couple(x0, stream())
    assert (got.coupling_time, got.steps_run) == (whole.coupling_time, whole.steps_run)
    assert bits([got.final_upper, got.final_lower]) == bits([whole.final_upper, whole.final_lower])
    # a run that stopped short of the end pulled no block past its last step
    if got.steps_run < len(values):
        ends = np.cumsum([0] + [b.size for b in blocks])
        assert len(pulled) == int(np.searchsorted(ends, got.steps_run))


def test_couple_checks_every_block():
    def stream(first, bad):
        yield first
        yield bad

    for bad in (np.array([0.5, math.nan]), np.array([[1.0]])):
        with pytest.raises(ValueError, match="increments"):
            ld.forward_couple(5.0, stream(np.array([-1.0, 0.5]), bad))
    # a block past the run's end is never read, so it is never checked: the
    # first block holds the meeting and the whole absorption check
    first = np.array([-1.0] + [0.5] * ld.ABSORPTION_CHECK)
    res = ld.forward_couple(1.0, stream(first, np.array([math.nan])))
    assert (res.coupling_time, res.steps_run) == (1, first.size)


# -- queue and waiting-time forms ---------------------------------------------


def test_queue_step_frozen_examples():
    assert ld.queue_path([0.0], 0.75).states[-1] == 0.0
    assert ld.queue_path([1.0], 0.75).states[-1] == 0.25
    assert ld.queue_path([1.0, 0.0], 0.75).states.tolist() == [0.0, 0.25, 0.0]


def test_queue_step_rejects():
    with pytest.raises(ValueError):
        ld.queue_path([-1.0], 0.75)
    with pytest.raises(ValueError):
        ld.queue_path([1.0], 0.0)


@given(st.lists(st.floats(0, 4), max_size=50), st.floats(0.25, 4))
def test_queue_step_is_lindley_step(arrivals, s):
    expected = recursion_oracle(0.0, [y - s for y in arrivals])
    assert bits(ld.queue_path(arrivals, s).states) == bits(expected)


def test_waiting_step_frozen_examples():
    assert ld.waiting_path([0.0], [1.0]).states[-1] == 0.0
    assert ld.waiting_path([2.0, 1.0], [0.0, 0.5]).states.tolist() == [0.0, 2.0, 2.5]
    assert ld.waiting_path([1.0, 0.0], [0.0, 1.0]).states.tolist() == [0.0, 1.0, 0.0]


def test_waiting_path_matches_steps():
    services = [1.0, 0.25, 2.0]
    gaps = [0.5, 1.0, 0.25]
    trace = ld.waiting_path(services, gaps)
    w = 0.0
    for n in range(3):
        w = max(w + (services[n] - gaps[n]), 0.0)
        assert trace.states[n + 1] == w


# -- tandem -------------------------------------------------------------------


def test_tandem_output_frozen_examples():
    assert ld.tandem_path([1.0], 0.75, 0.5)[1].tolist() == [0.75]
    assert ld.tandem_path([0.0], 0.75, 0.5)[1].tolist() == [0.0]
    assert ld.tandem_path([0.5], 0.75, 0.5)[1].tolist() == [0.5]


@given(st.lists(st.integers(0, 1 << 20).map(lambda k: k / 1048576.0), max_size=120))
def test_tandem_outputs_are_capped_inflow(arrivals):
    s = 0.75
    first, outputs, second = ld.tandem_path(arrivals, s, 0.5)
    q = first.states
    for n in range(len(arrivals)):
        assert outputs[n] == min(q[n] + arrivals[n], s)
    # per-station conservation, exact
    assert float(np.sum(arrivals) - np.sum(outputs)) == q[-1] - q[0]
    q2 = second.states
    out2 = (q2[:-1] + outputs) - q2[1:]
    assert float(np.sum(outputs) - np.sum(out2)) == q2[-1] - q2[0]


@given(st.lists(st.floats(0, 3), max_size=120), st.floats(0.01, 2))
def test_tandem_outputs_never_negative(arrivals, s):
    # off the dyadic grid too: rounding is monotone, so the backlog drop
    # never exceeds the inflow
    _, outputs, _ = ld.tandem_path(arrivals, s, 0.5)
    assert (outputs >= 0).all()
