"""One-sided recursion core: frozen examples plus the exact identities.

Increment strategies draw dyadic rationals (k/2^20) so partial sums of a few
hundred terms are exact doubles and equality assertions are legitimate.  The
trajectory and coupling kernels are also compared bit for bit with the
defining step iterated in plain Python, on lengths around the kernels' block
size and on increments off the dyadic grid, where their closed form rounds
and the step takes over.
"""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ergoqueue import lindley as ld

import oracles

dyadic = st.integers(-(1 << 20), 1 << 20).map(lambda k: k / 1048576.0)
windows = st.lists(dyadic, max_size=200)


def sup_oracle(values):
    v = np.concatenate(([0.0], np.cumsum(values))) if len(values) else np.zeros(1)
    return float(v.max()), int(np.argmax(v))


def step(x, z):
    """One step of the recursion, through the trajectory kernel."""
    return ld.run_recursion(x, [z])[-1]


def bits(values):
    """Bit patterns of doubles, so that -0.0 and 0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


MAX = float.fromhex("0x1.fffffffffffffp+1023")


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
    # forward_couple's first block ends at FIRST_COUPLE_BLOCK, the others at
    # multiples of BLOCK (in LENGTHS); the last edge drains mid-block
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
    maxima = ld.loynes_sup(values).prefix_maxima
    assert maxima.tolist() == sups


@given(st.lists(st.sampled_from([0.0, -0.0, 0.25, -0.25]), max_size=20))
@example([-0.0, -0.0, 0.25])
def test_prefix_maxima_keep_the_sign_of_zero_of_the_clamped_form(values):
    # V_0 = +0.0 is the floor of the running maximum, so clamping each sum at
    # 0.0 first changes no bit: a window opening with -0.0 still reads +0.0
    res = ld.loynes_sup(values)
    clamped = np.maximum.accumulate(np.maximum(res.sums, 0.0))
    assert bits(res.prefix_maxima) == bits(clamped)
    assert bits([-0.0])[0] not in bits(res.prefix_maxima)  # written "0", never "-0"


def test_window_partial_sum_increments():
    window = [0.5, -1.25, 2.0]
    v = ld.loynes_sup(window).sums
    assert v.tolist() == [0.0, 0.5, -0.75, 1.25]
    for n in range(3):
        assert v[n + 1] - v[n] == window[n]


def test_partial_sums_reject_non_finite():
    with pytest.raises(ValueError, match="window contains non-finite entries"):
        ld.loynes_sup([1.0, math.nan])
    with pytest.raises(ValueError):
        ld.loynes_sup([math.inf])


@pytest.mark.parametrize("step", [1e308, -1e308])
def test_partial_sums_outside_the_float_range_are_a_value_error(step):
    # finite increments whose sums leave the float range, either way, warning-free
    with pytest.raises(ValueError, match="the partial sums overflow the float range"):
        ld.loynes_sup([step, step, 0.0])
    with pytest.raises(ValueError, match="the partial sums overflow the float range"):
        ld.loynes_sup([step, step])


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
    assert ld.run_recursion(0.0, [1.0, -2.0, 1.0]).tolist() == [0.0, 1.0, 0.0, 1.0]
    assert ld.run_recursion(5.0, []).tolist() == [5.0]
    assert ld.run_recursion(0.0, [-1.0, 0.0, -0.5]).tolist() == [0.0, 0.0, 0.0, 0.0]
    # max(-0.0, 0.0) is -0.0: the sign survives until a +0.0 increment
    assert bits(ld.run_recursion(-0.0, [-0.0, 0.0])) == bits([-0.0, -0.0, 0.0])


@st.composite
def scaled_walks(draw):
    """(x0, increments) of values k * 2**-j, j 0..60, up to 2**60 in size.

    Each value is a double, so one of more than 53 bits keeps its top 53: the
    blocks fall on both sides of the line where the states, increments and
    sums need more than 53 significant bits together.
    """
    j = draw(st.integers(0, 60))
    size = draw(st.integers(0, 60))
    n = draw(st.sampled_from(LENGTHS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = 1 << min(size + j, 53)
    unit = 2.0 ** (size - min(size + j, 53))  # 2**-j, or coarser past 53 bits
    z = rng.integers(-top, top - top // 4, n) * unit  # drift down, so the chain empties
    return float(rng.integers(0, top)) * unit, z


@settings(deadline=None)
@given(st.tuples(starts, increments) | scaled_walks())
def test_recursion_matches_sequential_step(case):
    x0, values = case
    assert bits(ld.run_recursion(x0, values)) == bits(oracles.recursion_oracle(x0, values))


@pytest.mark.parametrize(
    "fine, stepped_blocks",
    [
        (2.0**-40, 0),
        # from 3000 the states, increments and sums stay below 2**13, so on
        # the grid of 2**-45 they need 13 + 45 bits together
        (2.0**-45, 3),
    ],
)
def test_recursion_steps_only_blocks_past_53_bits(fine, stepped_blocks):
    z = quarter_walk(3, 3 * ld.BLOCK)
    z[::7] += fine
    with mock.patch.object(ld, "_step", wraps=ld._step) as step:
        states = ld.run_recursion(3000.0, z)
    assert bits(states) == bits(oracles.recursion_oracle(3000.0, z))
    assert step.call_count == stepped_blocks


def test_exact_refuses_a_negative_zero_state_and_a_non_finite_top():
    def exact(upper, lower, values):
        z = np.array(values)
        with np.errstate(over="ignore"):
            sums = np.cumsum(z)
        return ld._exact(upper, lower, z, sums, float(sums.min()))

    assert exact(1.0, 0.0, [-0.0, 0.25]) and exact(0.0, 0.0, [-0.0, 0.25])
    # the closed form of a chain at -0.0 would give +0.0 where the step keeps -0.0
    assert not exact(1.0, -0.0, [-0.0, 0.25])
    assert not exact(-0.0, -0.0, [-0.0, 0.25])
    # a top that is not finite: sums that overflow either way, or a NaN
    assert not exact(1.0, 0.0, [MAX, MAX])
    assert not exact(1.0, 0.0, [MAX, -MAX, -MAX, -MAX])
    assert not exact(1.0, 0.0, [0.25, math.nan])
    # a top of 2**53 or more would need a grid coarser than the integers
    assert exact(2.0**53 - 2.0, 0.0, [1.0]) and not exact(2.0**53 - 1.0, 0.0, [1.0])
    assert not exact(2.0**60, 0.0, [-(2.0**59)])


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
    assert bits(out) == bits(oracles.recursion_oracle(x0, z)[1:])


def test_recursion_rejects_negative_start():
    with pytest.raises(ValueError):
        ld.run_recursion(-1.0, [1.0])


@given(st.floats(0, 16), windows)
def test_recursion_trace_invariant(x0, values):
    states = ld.run_recursion(x0, values)
    assert states.dtype == np.float64
    assert bits(states) == bits(oracles.recursion_oracle(x0, values))
    assert (states >= 0).all()


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: ld.forward_couple(-1.0, [[0.0]]),
                     "x0 must be finite and nonnegative", id="couple-negative-x0"),
        pytest.param(lambda: ld.forward_couple(math.nan, [[0.0]]),
                     "x0 must be finite and nonnegative", id="couple-nan-x0"),
        pytest.param(lambda: list(ld.waiting_blocks([[1.0, 2.0]], [[1.0]])),
                     "services and interarrivals must have equal length", id="waiting-lengths"),
        pytest.param(lambda: list(ld.waiting_blocks([[-1.0]], [[1.0]])),
                     "times must be nonnegative", id="waiting-negative-service"),
        pytest.param(lambda: list(ld.waiting_blocks([[1.0]], [[-1.0]])),
                     "times must be nonnegative", id="waiting-negative-gap"),
    ],
)
def test_fail_fast_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message


@given(windows)
def test_expansion_equivalence(values):
    # forward from 0 on the reversed window reaches exactly the backward sup
    final = ld.run_recursion(0.0, values[::-1])[-1]
    assert final == ld.loynes_sup(values).value


@given(windows, st.lists(dyadic, min_size=1, max_size=50))
def test_shift_consistency(values, fresh):
    # step the backward-constructed state forward m times; the result is the
    # backward sup of the extended window, exactly, at full depth N + m
    x = ld.run_recursion(ld.loynes_sup(values).value, fresh)[-1]
    extended = list(reversed(fresh)) + list(values)
    res = ld.loynes_sup(extended)
    assert x == res.value
    # truncating the shifted window back to depth N changes nothing as long
    # as the full argmax never reaches past N (truncation not binding)
    if res.argmax <= len(values):
        assert ld.loynes_sup(extended[: len(values)]).value == x


# -- coupling ----------------------------------------------------------------


def test_couple_frozen_examples():
    assert ld.forward_couple(0.0, [[1.0, -1.0]]).coupling_time == 0
    assert ld.forward_couple(1.0, [[-1.0]]).coupling_time == 1
    res = ld.forward_couple(10.0, [[1.0] * 100])
    assert (res.coupling_time, res.steps_run) == (None, 100)
    assert res.final_upper - res.final_lower == 10.0
    res = ld.forward_couple(2.0, [[-1.0]])
    assert (res.coupling_time, res.steps_run) == (None, 1)


def test_couple_reports_finals():
    res = ld.forward_couple(2.0, [[-1.0, -1.0, 5.0]])
    assert (res.coupling_time, res.steps_run) == (2, 3)
    assert res.final_upper == res.final_lower == 5.0


@pytest.mark.parametrize("extra", [-1, 0, 1, 100])
def test_couple_stops_at_absorption_check_or_input_end(extra):
    # the chains meet at step 2; the run then checks ABSORPTION_CHECK more
    # steps, or as many as the input holds
    z = [-1.0, -1.0] + [0.25] * (ld.ABSORPTION_CHECK + extra)
    res = ld.forward_couple(2.0, [z])
    assert res.coupling_time == 2
    assert res.steps_run == min(len(z), 2 + ld.ABSORPTION_CHECK) <= len(z)


def test_couple_meets_by_rounding():
    # the upper chain never empties: 1 + 2^53 rounds to 2^53 = the lower chain
    res = ld.forward_couple(1.0, [[2.0**53] + [-0.25] * 100])
    assert (res.coupling_time, res.steps_run) == (1, 65)


# a length the input is cut to, so that a run can end before its absorption
# check, or before the chains meet
cut_lengths = st.none() | st.sampled_from(LENGTHS) | st.integers(0, 25_000)


@settings(deadline=None)
@given(couple_cases, cut_lengths)
def test_couple_absorption_and_ordering(case, length):
    x0, values = case
    values = values[:length]
    upper = ld.run_recursion(x0, values)
    lower = ld.run_recursion(0.0, values)
    assert (upper >= lower).all()
    met = np.flatnonzero(upper == lower)
    if met.size:
        tau = int(met[0])
        assert (upper[tau:] == lower[tau:]).all()
        assert ld.forward_couple(x0, [values]).coupling_time == tau
    else:
        assert ld.forward_couple(x0, [values]).coupling_time is None
    tau, final_upper, final_lower, steps_run = couple_oracle(x0, values)
    got = ld.forward_couple(x0, [values])
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
    whole = ld.forward_couple(x0, [values])
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

    for bad, message in (
        (np.array([0.5, math.nan]), "increments contains non-finite entries"),
        (np.array([[1.0]]), "increments must be one-dimensional"),
    ):
        with pytest.raises(ValueError) as info:
            ld.forward_couple(5.0, stream(np.array([-1.0, 0.5]), bad))
        assert str(info.value) == message
    # a block past the run's end is never read, so it is never checked: the
    # first block holds the meeting and the whole absorption check
    first = np.array([-1.0] + [0.5] * ld.ABSORPTION_CHECK)
    res = ld.forward_couple(1.0, stream(first, np.array([math.nan])))
    assert (res.coupling_time, res.steps_run) == (1, first.size)


@pytest.mark.parametrize(
    "increments, message",
    [
        pytest.param([5.0], "increments must be one-dimensional", id="scalar-block"),
        pytest.param([[math.nan]], "increments contains non-finite entries", id="non-finite"),
        pytest.param([[[1.0]]], "increments must be one-dimensional", id="two-dimensional"),
    ],
)
def test_couple_from_zero_reads_no_block_of_a_list(increments, message):
    # a list of blocks is a stream like any other: the chains start equal, so
    # no step is run and no block is read, nor checked
    assert ld.forward_couple(0.0, increments) == ld.CoupleResult(0, 0.0, 0.0, 0)
    # from any other start the first block is read, and checked
    with pytest.raises(ValueError) as info:
        ld.forward_couple(1.0, increments)
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize(
    "increments", [5.0, np.float64(5.0), np.array(5.0)], ids=["float", "numpy-scalar", "0-d"]
)
@pytest.mark.parametrize("x0", [0.0, 1.0])
def test_couple_refuses_a_non_iterable_at_any_start(x0, increments):
    with pytest.raises(TypeError):
        ld.forward_couple(x0, increments)


@settings(deadline=None)
@given(couple_cases, st.integers(0, 25_000))
def test_couple_reads_a_list_of_blocks_as_their_join(case, cut):
    # on the quarter grid and off it, a list of two blocks is one stream
    x0, values = case
    a, b = np.asarray(values[:cut], dtype=np.float64), np.asarray(values[cut:], dtype=np.float64)
    assert ld.forward_couple(x0, [a, b]) == ld.forward_couple(x0, [np.concatenate([a, b])])


def test_couple_from_zero_pulls_no_block():
    pulled = []

    def stream():
        pulled.append(1)
        yield np.array([math.nan])

    assert ld.forward_couple(0.0, stream()) == ld.CoupleResult(0, 0.0, 0.0, 0)
    assert pulled == []


# -- blocks advanced without stepping ----------------------------------------

# a block is closed without stepping when its states, increments and sums
# fit 53 significant bits together: on the grid of UNIT while they stay below
# BOUND.  The grid is read from each block's size, so these are one example
# of the rule, which holds the same at every power of two (BITS).
BITS = 53
UNIT = 2.0**-20
BOUND = 2.0**BITS * UNIT


def stepped(x0, values, blocks=None):
    """forward_couple's result on ``values`` (read as ``blocks`` when given), and
    how many blocks it did not close itself but ran through ``_reflect``."""
    sizes = []
    kernel = ld._reflect

    def counting(x, z, *args):
        sizes.append(z.size)
        return kernel(x, z, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ld, "_reflect", counting)
        res = ld.forward_couple(x0, [values] if blocks is None else blocks)
    assert sizes[::2] == sizes[1::2]  # both chains, block by block
    return res, len(sizes) // 2


def assert_oracle(res, x0, values):
    tau, final_upper, final_lower, steps_run = couple_oracle(x0, values)
    assert (res.coupling_time, res.steps_run) == (tau, steps_run)
    assert bits([res.final_upper, res.final_lower]) == bits([final_upper, final_lower])


def quarter_walk(seed, n):
    """Steps of -3/4 .. 1/4 in quarters, drift -1/4: a chain from x meets near 4x."""
    return np.random.default_rng(seed).integers(-3, 2, n) / 4.0


# the block holding step FIRST_COUPLE_BLOCK + 2 * BLOCK, the third one after the first
THIRD = ld.FIRST_COUPLE_BLOCK + 2 * ld.BLOCK


@st.composite
def far_meetings(draw):
    """(x0, increments) on the skip grid whose chains meet three or more blocks in."""
    seed = draw(st.integers(0, 2**32 - 1))
    z = quarter_walk(seed, THIRD + 2 * ld.BLOCK)
    if draw(st.booleans()):  # fine steps, down to the grid's spacing
        z += np.random.default_rng(seed + 1).integers(-1000, 1001, z.size) * UNIT
    x0 = draw(st.integers(int(4400 / UNIT), int(5400 / UNIT))) * UNIT
    return x0, z


@settings(deadline=None, max_examples=25)
@given(far_meetings())
def test_couple_advances_blocks_before_a_far_meeting(case):
    x0, values = case
    res, blocks = stepped(x0, values)
    assert_oracle(res, x0, values)
    assert res.coupling_time > THIRD
    # the meeting block, and the next one when the absorption check spills,
    # are closed like the others
    assert blocks == 0


def test_couple_closes_the_meeting_block():
    z = quarter_walk(3, 3 * ld.BLOCK)
    res, blocks = stepped(3000.0, z)
    assert_oracle(res, 3000.0, z)
    assert ld.FIRST_COUPLE_BLOCK + ld.BLOCK < res.coupling_time < THIRD - ld.ABSORPTION_CHECK
    assert blocks == 0


@st.composite
def grid_meetings(draw):
    """(x0, increments, meeting) on a quarter walk that meets in the first block,
    on a block edge or within ABSORPTION_CHECK steps before one."""
    n = ld.FIRST_COUPLE_BLOCK + ld.BLOCK + 2 * ld.ABSORPTION_CHECK
    z = quarter_walk(draw(st.integers(0, 2**32 - 1)), n)
    edges = [ld.FIRST_COUPLE_BLOCK, ld.FIRST_COUPLE_BLOCK + ld.BLOCK]
    before = st.sampled_from(edges).flatmap(lambda e: st.integers(e - ld.ABSORPTION_CHECK, e - 1))
    tau = draw(
        st.integers(1, ld.FIRST_COUPLE_BLOCK)
        | st.sampled_from([e + d for e in edges for d in (0, 1)])
        | before
    )
    # step tau falls a quarter below every sum before it, so the walk first
    # reaches -x0 there
    sums = np.concatenate([[0.0], np.cumsum(z)])  # S_0 .. S_n
    floor = float(sums[:tau].min()) - 0.25
    z[tau - 1] = floor - sums[tau - 1]
    return -floor, z, tau


@settings(deadline=None, max_examples=40)
@given(grid_meetings(), st.integers(-1, ld.ABSORPTION_CHECK), st.data())
def test_couple_closes_every_block_of_a_grid_walk(case, cut, data):
    # the stream is also cut at a drawn point near the meeting, so the
    # absorption check may spill into the next piece
    x0, values, tau = case
    blocks = data.draw(splits(values, [tau + cut]))
    res, stepped_blocks = stepped(x0, values, blocks)
    assert_oracle(res, x0, values)
    assert res.coupling_time == tau
    assert stepped_blocks == 0


@pytest.mark.parametrize(
    "fine, x0, blocks",
    [
        (UNIT, 3000.0, 0),
        # from 3000 the sums of a block stay below 2**13, so values need
        # 13 + 45 bits together on the grid of 2**-45: every block is stepped
        (2.0**-45, 3000.0, 3),
        # a start that fits 53 bits, below 2**12 on the grid of 2**-41: only
        # the second block is stepped, where upper + max S - min S passes
        # 2**12 and the grid is 2**-40
        (UNIT, 3000.0 + 2.0**-41, 1),
        # quarters from 1e12, below 2**40, are closed on the grid of 2**-13
        # and stepped off it, in all four blocks, as they do not meet
        (2.0**-13, 1e12, 0),
        (2.0**-14, 1e12, 4),
    ],
)
def test_couple_skips_only_on_the_grid(fine, x0, blocks):
    z = quarter_walk(3, 3 * ld.BLOCK)
    z[::7] += fine
    res, stepped_blocks = stepped(x0, z)
    assert_oracle(res, x0, z)
    assert stepped_blocks == blocks


@pytest.mark.parametrize(
    "x0, unit, blocks",
    [
        # the sums stay just below the bound: exact
        pytest.param(BOUND - 4 * UNIT, UNIT, 0, id="inside"),
        # BOUND + UNIT rounds to even, BOUND, at every step, so the stepped
        # upper chain ends where the closed form would not: past BOUND the
        # grid is 2 * UNIT, which the start is off
        pytest.param(BOUND - UNIT, UNIT, 1, id="outside"),
        # the same line at other sizes, up to the integers below 2**53
        *(
            pytest.param(2.0**k - d * 2.0 ** (k - BITS), 2.0 ** (k - BITS), blocks,
                         id=f"{where}-2**{k}")
            for k in (1, 40, BITS)
            for where, d, blocks in (("inside", 4, 0), ("outside", 1, 1))
        ),
    ],
)
def test_couple_skips_only_below_the_bound(x0, unit, blocks):
    z = np.full(3, unit)
    res, stepped_blocks = stepped(x0, z)
    assert_oracle(res, x0, z)
    assert stepped_blocks == blocks


def test_couple_steps_a_block_whose_states_pass_the_bound():
    # the sums stay below BOUND, but the chains meet at step 1 and then
    # climb to 1.5 * BOUND, where the spacing is 2 * UNIT: each UNIT step
    # rounds to even and is lost, which a closed form of the exact sums
    # keeps.  upper + max S - min S passes BOUND, so the grid is 2 * UNIT.
    z = np.array([-0.75 * BOUND, 1.5 * BOUND, UNIT, UNIT])
    res, blocks = stepped(1.0, z)
    assert_oracle(res, 1.0, z)
    assert res.final_upper == 1.5 * BOUND and blocks == 1


def test_couple_skip_carries_a_lower_chain_that_has_not_emptied():
    # the lower chain rises through three blocks and falls through a fourth,
    # never emptying, so it enters each block after the first above 0
    z = np.concatenate([np.full(THIRD, 0.25), np.full(ld.BLOCK, -0.25)])
    res, blocks = stepped(5000.0, z)
    assert_oracle(res, 5000.0, z)
    assert res.final_lower == 0.25 * (THIRD - ld.BLOCK) and blocks == 0


@pytest.mark.parametrize(
    "x0, values",
    [
        pytest.param(1.0, np.full(THIRD, -0.0), id="negative-zeros"),
        pytest.param(1.0, np.where(quarter_walk(4, THIRD) < 0, -0.0, 0.0), id="signed-zeros"),
        pytest.param(0.25, np.concatenate([[0.0, -0.0, -0.25], np.full(THIRD, -0.0)]),
                     id="meets-then-zeros"),
        pytest.param(1.0, np.tile([MAX, -MAX], THIRD), id="float-max-increments"),
        pytest.param(2.0**1000, np.tile([-2.0**999, 2.0**999], THIRD), id="huge-start"),
        pytest.param(MAX, np.full(THIRD, -0.25), id="float-max-start"),
    ],
)
def test_couple_skip_edges_match_the_steps_without_a_warning(x0, values):
    # the suite turns warnings into errors: scaling a huge increment to the
    # grid would overflow, so none is scaled before the bound is checked
    res, _ = stepped(x0, values)
    assert_oracle(res, x0, values)


# -- queue and waiting-time forms ---------------------------------------------


def queue(arrivals, s):
    """The slotted queue from empty: the recursion on arrivals less the rate."""
    return ld.run_recursion(0.0, np.asarray(arrivals, dtype=np.float64) - s)


def waiting(services, gaps):
    """Waiting times from W_0 = 0: the recursion on services less gaps."""
    return ld.run_recursion(0.0, np.subtract(services, gaps, dtype=np.float64))


def test_queue_step_frozen_examples():
    assert queue([0.0], 0.75)[-1] == 0.0
    assert queue([1.0], 0.75)[-1] == 0.25
    assert queue([1.0, 0.0], 0.75).tolist() == [0.0, 0.25, 0.0]


def test_queue_step_rejects():
    with pytest.raises(ValueError, match="arrivals must be nonnegative"):
        list(ld.queue_blocks([[-1.0]], 0.75))
    with pytest.raises(ValueError, match="service rate must be positive and finite"):
        list(ld.queue_blocks([[1.0]], 0.0))


@given(st.lists(st.floats(0, 4), max_size=50), st.floats(0.25, 4))
def test_queue_step_is_lindley_step(arrivals, s):
    expected = oracles.recursion_oracle(0.0, [y - s for y in arrivals])
    assert bits(queue(arrivals, s)) == bits(expected)


def test_waiting_step_frozen_examples():
    assert waiting([0.0], [1.0])[-1] == 0.0
    assert waiting([2.0, 1.0], [0.0, 0.5]).tolist() == [0.0, 2.0, 2.5]
    assert waiting([1.0, 0.0], [0.0, 1.0]).tolist() == [0.0, 1.0, 0.0]


def test_waiting_path_matches_steps():
    services = [1.0, 0.25, 2.0]
    gaps = [0.5, 1.0, 0.25]
    states = waiting(services, gaps)
    w = 0.0
    for n in range(3):
        w = max(w + (services[n] - gaps[n]), 0.0)
        assert states[n + 1] == w


# -- tandem -------------------------------------------------------------------


def test_tandem_output_frozen_examples():
    assert ld.tandem_path([1.0], 0.75, 0.5)[1].tolist() == [0.75]
    assert ld.tandem_path([0.0], 0.75, 0.5)[1].tolist() == [0.0]
    assert ld.tandem_path([0.5], 0.75, 0.5)[1].tolist() == [0.5]


@given(st.lists(st.integers(0, 1 << 20).map(lambda k: k / 1048576.0), max_size=120))
def test_tandem_outputs_are_capped_inflow(arrivals):
    s = 0.75
    q, outputs, q2 = ld.tandem_path(arrivals, s, 0.5)
    for n in range(len(arrivals)):
        assert outputs[n] == min(q[n] + arrivals[n], s)
    # per-station conservation, exact
    assert float(np.sum(arrivals) - np.sum(outputs)) == q[-1] - q[0]
    out2 = (q2[:-1] + outputs) - q2[1:]
    assert float(np.sum(outputs) - np.sum(out2)) == q2[-1] - q2[0]


@given(st.lists(st.floats(0, 3), max_size=120), st.floats(0.01, 2))
def test_tandem_outputs_never_negative(arrivals, s):
    # off the dyadic grid too: rounding is monotone, so the backlog drop
    # never exceeds the inflow
    _, outputs, _ = ld.tandem_path(arrivals, s, 0.5)
    assert (outputs >= 0).all()


# -- block streams ------------------------------------------------------------


def split(values, cuts):
    """``values`` as a stream of float64 blocks cut at ``cuts`` (empty blocks included)."""
    values = np.asarray(values, dtype=np.float64)
    edges = [0, *sorted(min(c, values.size) for c in cuts), values.size]
    return [values[a:b] for a, b in zip(edges, edges[1:])]


cuts = st.lists(st.integers(0, 21000), max_size=4)


@settings(deadline=None, max_examples=40)
@given(long_increments() | windows, cuts)
def test_queue_stream_ignores_block_splits(values, where):
    # the backlog is carried from piece to piece: the joined states
    # are the defining step's, however the arrivals are cut
    arrivals = np.abs(np.asarray(values, dtype=np.float64))
    pieces = list(ld.queue_blocks(split(arrivals, where), 0.75))
    assert all(0 < y.size <= ld.BLOCK and q.size == y.size + 1 for y, q in pieces)
    assert bits(np.concatenate([np.empty(0), *(y for y, _ in pieces)])) == bits(arrivals)
    states = [0.0, *(x for _, q in pieces for x in q[1:].tolist())]
    assert bits(states) == bits(oracles.recursion_oracle(0.0, arrivals - 0.75))
    starts = np.cumsum([0, *(y.size for y, _ in pieces)])[:-1]
    assert bits([q[0] for _, q in pieces]) == bits([states[k] for k in starts])


@settings(deadline=None, max_examples=40)
@given(long_increments() | windows, cuts, cuts)
def test_waiting_stream_aligns_differently_cut_inputs(values, where, elsewhere):
    services = np.abs(np.asarray(values, dtype=np.float64))
    gaps = services[::-1] * 0.5
    blocks = ld.waiting_blocks(split(services, where), split(gaps, elsewhere))
    states = [0.0, *(x for q in blocks for x in q[1:].tolist())]
    assert bits(states) == bits(oracles.recursion_oracle(0.0, services - gaps))
    assert bits(waiting(services, gaps)) == bits(states)


def test_waiting_stream_of_unequal_lengths_fails():
    with pytest.raises(ValueError, match="services and interarrivals must have equal length"):
        list(ld.waiting_blocks([np.ones(ld.BLOCK + 3)], [np.ones(4), np.ones(ld.BLOCK)]))


def test_a_none_block_is_checked_not_taken_for_the_end_of_its_stream():
    with pytest.raises(ValueError, match="^arrivals must be one-dimensional$"):
        list(ld.queue_blocks([np.ones(2), None], 0.5))
    with pytest.raises(ValueError, match="^increments must be one-dimensional$"):
        ld.forward_couple(1.0, iter([None]))


@settings(deadline=None, max_examples=30)
@given(long_increments() | windows, cuts)
def test_tandem_stream_is_two_stepped_stations(values, where):
    arrivals = np.abs(np.asarray(values, dtype=np.float64))
    rows = list(ld.tandem_blocks(split(arrivals, where), 0.8, 0.7))
    q1 = oracles.recursion_oracle(0.0, arrivals - 0.8)
    out = [(q1[n] + y) - q1[n + 1] for n, y in enumerate(arrivals.tolist())]
    q2 = oracles.recursion_oracle(0.0, np.asarray(out) - 0.7)
    joined = [np.concatenate([np.empty(0), *(row[j][1:] if j in (1, 3) else row[j] for row in rows)])
              for j in range(4)]
    assert [bits(col) for col in joined] == [bits(arrivals), bits(q1[1:]), bits(out), bits(q2[1:])]


def test_tandem_output_past_the_float_range_fails_without_a_warning():
    # backlog plus inflow overflows at the second step, although the backlog
    # after it, 0.7e308 + 0.7e308, does not
    with pytest.raises(ValueError, match="the first station's outputs overflow the float range"):
        list(ld.tandem_blocks([[1.7e308, 1.7e308]], 1e308, 1.0))


# -- the exact sum ------------------------------------------------------------

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308,
         1e300, -1e300, MAX, -MAX, 1.0, 0.1, -0.3, 2.0**53, 1.0 - 2.0**-53]
summands = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)


def exact_total(values) -> Fraction:
    return sum(map(Fraction, values), Fraction(0))


@settings(deadline=None, max_examples=300)
@given(
    st.lists(summands, max_size=300),
    st.lists(st.integers(0, 300), max_size=4),
    st.sampled_from([None, 1, 7]),
)
def test_exact_sum_is_fsum_over_any_block_split(values, where, chunk):
    acc = ld.ExactSum()
    if chunk:  # flush the binade bins into the int every few values
        acc._CHUNK = chunk
    for block in split(values, where):
        acc.add(block)
    exact = exact_total(values)
    assert acc.units == exact * 2**1074
    try:
        want = float(exact)  # int / int: correctly rounded
    except OverflowError:
        with pytest.raises(ValueError, match="the sum overflows the float range"):
            acc.total()
        return
    got = acc.total()
    assert bits([got]) == bits([want])
    try:
        fsum = math.fsum(values)
    except OverflowError:  # fsum gives up on an intermediate overflow
        return
    # fsum is correctly rounded too; from Python 3.12 it keeps the sign of an
    # all -0.0 sum, where the exact sum (as np.sum) gives 0.0
    assert got == fsum and (fsum == 0 or bits([got]) == bits([fsum]))
    if values:
        assert acc.mean(len(values)) == float(exact / len(values))


def test_exact_sum_of_long_blocks_and_overflowing_binades():
    acc = ld.ExactSum()
    acc.add(np.full(100_000, 1.0 - 2.0**-53))  # one binade, every significand bit set
    acc.add(np.array([MAX, MAX, MAX, -MAX, -MAX, -MAX, 5e-324]))  # a binade past the range
    assert acc.units == (100_000 * Fraction(2**53 - 1, 2**53) + Fraction(5e-324)) * 2**1074
    assert acc.total() == math.fsum([1.0 - 2.0**-53] * 100_000)
    with pytest.raises(ValueError, match="finite"):
        acc.add(np.array([1.0, math.inf]))
    with pytest.raises(ValueError, match="positive count"):
        acc.mean(0)
