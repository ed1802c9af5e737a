"""Property tests: the float list kernels agree with the exact path.

The agreement tests generate exact :class:`fractions.Fraction` streams, run
the algorithm on them (which always takes the scalar exact path -- a
kernel is never built for Fraction inputs), then re-run the algorithm
on the float twins produced by :meth:`BitStream.as_floats` (which
always take the :mod:`repro.core.kernels` float path) and assert
agreement to within 1e-9.

The generated fractions have small denominators, so exact values near
decision boundaries (stability ``rate <= 1``, zero service slope) are
either *at* the boundary -- where the float conversion is exact -- or
at least ~1e-6 away from it, far beyond float round-off.  Branch
decisions therefore never flip between the two paths and ``inf``
results must match exactly.

The results a float input's filtering, clumping and adding to the
zero stream build in kernel form are compared with the generic route
on float and mixed int/float streams: the same tuples, type for type,
and the kernel of exactly those tuples.

Agreement within 1e-9 cannot see a reordered float operation, so the
end of the module pins the kernels bit for bit: a SHA-256 over the
``float.hex`` of every output of a seeded float corpus, and a literal
razor-edge pair whose interference rises above rate 1 by float noise.
"""

import hashlib
import math
import operator
import os
import random
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from repro.core.bitstream import (
    BitStream,
    ZERO_STREAM,
    _cap_with_envelope,
    _merge,
    aggregate,
)
from repro.core.delay_bound import backlog_bound_with_higher, delay_bound
from repro.core.kernels import build_kernel
from repro.core.traffic import VBRParameters

TOLERANCE = 1e-9

#: Examples per kernel-route identity property; the CI job without
#: NumPy raises it.
ROUTE_EXAMPLES = int(os.environ.get("KERNEL_ROUTE_EXAMPLES", "150"))

fractions_01 = st.fractions(min_value=F(1, 20), max_value=1,
                            max_denominator=20)
positive_gaps = st.fractions(min_value=F(1, 4), max_value=20,
                             max_denominator=8)
probe_times = st.fractions(min_value=0, max_value=60, max_denominator=8)


@st.composite
def monotone_streams(draw, max_segments=4, max_head_rate=1):
    """A canonical non-increasing stream with Fraction arithmetic."""
    count = draw(st.integers(min_value=1, max_value=max_segments))
    raw = sorted(
        draw(st.lists(fractions_01, min_size=count, max_size=count)),
        reverse=True,
    )
    rates = [rate * max_head_rate for rate in raw]
    gaps = draw(st.lists(positive_gaps, min_size=count - 1,
                         max_size=count - 1))
    times = [F(0)]
    for gap in gaps:
        times.append(times[-1] + gap)
    return BitStream(rates, times)


def close(a, b, tolerance=TOLERANCE):
    """Scalar agreement, treating the two infinities as equal."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tolerance * (1 + abs(b))


# ----------------------------------------------------------------------
# Fast-path engagement (gating policy)
# ----------------------------------------------------------------------

@given(monotone_streams())
def test_fraction_streams_never_get_a_kernel(s):
    assert s.kernel is None


@given(monotone_streams())
def test_float_streams_get_a_kernel(s):
    assert s.as_floats().kernel is not None


def test_pure_int_streams_stay_exact():
    # Integer streams (the zero stream, a saturated link) keep the
    # exact path so their results keep integer types.
    assert ZERO_STREAM.kernel is None
    assert BitStream.constant(1).kernel is None


# ----------------------------------------------------------------------
# Point lookups
# ----------------------------------------------------------------------

@given(monotone_streams(max_head_rate=2), probe_times)
def test_bits_matches_exact(s, t):
    assert close(s.as_floats().bits(float(t)), s.bits(t))


@given(monotone_streams(max_head_rate=2), probe_times)
def test_rate_at_matches_exact(s, t):
    assert close(s.as_floats().rate_at(float(t)), s.rate_at(t))


@given(monotone_streams(max_head_rate=2),
       st.fractions(min_value=0, max_value=40, max_denominator=8))
def test_time_of_bits_matches_exact(s, amount):
    assert close(s.as_floats().time_of_bits(float(amount)),
                 s.time_of_bits(amount))


# ----------------------------------------------------------------------
# Stream-valued operations (Algorithms 3.1-3.4)
# ----------------------------------------------------------------------

@given(monotone_streams(), monotone_streams())
def test_multiplex_matches_exact(a, b):
    fast = a.as_floats() + b.as_floats()
    assert fast.approx_equal(a + b, TOLERANCE)


@given(monotone_streams(), monotone_streams())
def test_demultiplex_matches_exact(a, b):
    total = a + b
    fast = total.as_floats() - b.as_floats()
    assert fast.approx_equal(total - b, TOLERANCE)


@given(st.lists(monotone_streams(), min_size=2, max_size=6))
def test_aggregate_matches_exact(streams):
    fast = aggregate([s.as_floats() for s in streams])
    assert fast.approx_equal(aggregate(streams), TOLERANCE)


@given(monotone_streams(max_head_rate=4))
def test_filtered_matches_exact(s):
    assert s.as_floats().filtered().approx_equal(s.filtered(), TOLERANCE)


@given(monotone_streams(),
       st.fractions(min_value=0, max_value=30, max_denominator=4))
def test_delayed_matches_exact(s, cdv):
    fast = s.as_floats().delayed(float(cdv))
    assert fast.approx_equal(s.delayed(cdv), TOLERANCE)


# ----------------------------------------------------------------------
# Worst-case analysis (Algorithm 4.1)
# ----------------------------------------------------------------------

@given(monotone_streams(max_head_rate=3))
def test_delay_bound_no_interference_matches_exact(s):
    assert close(delay_bound(s.as_floats()), delay_bound(s))


@given(monotone_streams(max_head_rate=2), monotone_streams(max_head_rate=2))
def test_delay_bound_matches_exact(arrivals, interference):
    higher = interference.filtered()
    exact = delay_bound(arrivals, higher)
    fast = delay_bound(arrivals.as_floats(), higher.as_floats())
    assert close(fast, exact)


@given(monotone_streams(max_head_rate=2), monotone_streams(max_head_rate=2))
def test_backlog_bound_matches_exact(arrivals, interference):
    higher = interference.filtered()
    exact = backlog_bound_with_higher(arrivals, higher)
    fast = backlog_bound_with_higher(arrivals.as_floats(),
                                     higher.as_floats())
    assert close(fast, exact)


# ----------------------------------------------------------------------
# Kernel vs scalar on identical float inputs
# ----------------------------------------------------------------------

def _scalar_only(stream):
    """The same float stream with its kernel disabled (exact path)."""
    copy = BitStream._from_canonical(stream.rates, stream.times, False)
    assert copy.kernel is None
    return copy


@given(st.lists(monotone_streams(), min_size=2, max_size=6))
def test_kernel_aggregate_matches_scalar_floats(streams):
    twins = [s.as_floats() for s in streams]
    fast = aggregate(twins)
    slow = aggregate([_scalar_only(s) for s in twins])
    assert fast.kernel is not None
    assert fast.approx_equal(slow, TOLERANCE)


@given(monotone_streams(max_head_rate=2), monotone_streams(max_head_rate=2))
def test_kernel_delay_bound_matches_scalar_floats(arrivals, interference):
    higher = interference.filtered().as_floats()
    twin = arrivals.as_floats()
    fast = delay_bound(twin, higher)
    slow = delay_bound(_scalar_only(twin), _scalar_only(higher))
    assert close(fast, slow)


# ----------------------------------------------------------------------
# Kernel routes of the write path: identical tuples, kernel attached
# ----------------------------------------------------------------------

ULP = 2.0 ** -52

#: Rates and gaps: ints, eighths (so crossings land exactly on
#: breakpoints) and arbitrary floats.
mixed_values = st.one_of(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=24).map(lambda n: n / 8),
    st.floats(min_value=0.01, max_value=3.0),
)


@st.composite
def mixed_streams(draw, top=3.0):
    """A float or mixed int/float stream with at least one float.

    Rates are non-increasing and at most ``top``, possibly with an int
    head, a rise of a few ulps or a demultiplexing residue as the tail
    rate (``-3e-17`` canonicalizes to ``-0.0``).
    """
    count = draw(st.integers(min_value=1, max_value=5))
    rates = sorted((min(value, top) for value in draw(
        st.lists(mixed_values, min_size=count, max_size=count))),
        reverse=True)
    if draw(st.booleans()):
        rates[0] = int(top)
    if count > 1 and draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=count - 1))
        rates[k] = rates[k - 1] * (1.0 + draw(st.integers(1, 4)) * ULP)
    times = [draw(st.sampled_from([0, 0.0]))]
    for gap in draw(st.lists(mixed_values, min_size=count - 1,
                             max_size=count - 1)):
        times.append(times[-1] + gap)
    if draw(st.booleans()):
        rates.append(draw(st.sampled_from([5e-16, -3e-17, -0.0, 0.0])))
        times.append(times[-1] + draw(mixed_values))
    if not any(isinstance(value, float) for value in rates + times):
        times[-1] = float(times[-1])
    return BitStream(rates, times)


def _kernel_view(kernel):
    return None if kernel is None else (repr(kernel.rates),
                                         repr(kernel.times))


def assert_route_identity(result, reference):
    """Same tuples type for type, and the kernel of exactly those."""
    assert repr(result) == repr(reference)
    assert _kernel_view(result.kernel) == _kernel_view(
        build_kernel(reference.rates, reference.times))


@settings(max_examples=ROUTE_EXAMPLES, deadline=None)
@given(mixed_streams(), st.sampled_from([1, 1, 0.75, 1.5, 2]))
@example(BitStream([2, 0.5, 0.25], [0.0, 1, 3]), 1)  # crossing on t(2)
@example(BitStream([2.0, 1.0], [0, 2.5]), 1)  # saturated
@example(BitStream([3, 1, 0.5], [0, 2, 5.5]), 1)  # int head
@example(BitStream([2.0, 0.5, -0.0], [0.0, 1.0, 9.0]), 1)  # -0.0 residue
@example(BitStream([2.0, 0.5, 5e-16], [0.0, 1.0, 9.0]), 1)  # 5e-16 residue
@example(BitStream([2.0, 1.0 - 2.0 ** -40, 1.0 + 2.0 ** -40],
                   [0.0, 1.0, 1.0 + 2.0 ** 40]), 1)  # lands above the cap
@example(BitStream([2.0, 1.0 - 2.0 ** -40, 1.0],
                   [0.0, 1.0, 1.0 + 2.0 ** 40]), 1)  # lands on the cap
# The backlog drains to exactly 0 at the int breakpoint 59 by round-off,
# so the crossing is that int object; in the second no float is left.
@example(BitStream([4.75, 0.32500000000000007, 0.16250000000000003],
                   [0, 9, 59]), 1)
@example(BitStream([4.75, 0.32500000000000007, 0], [0, 9, 59]), 1)
def test_filtered_route_is_type_exact(stream, capacity):
    result = stream.filtered(capacity)
    reference = (stream if stream.peak_rate <= capacity else
                 _cap_with_envelope(_scalar_only(stream), capacity, 0))
    assert_route_identity(result, reference)


@settings(max_examples=ROUTE_EXAMPLES, deadline=None)
@given(mixed_streams(top=1.0),
       st.one_of(st.integers(min_value=0, max_value=40),
                 st.floats(min_value=0.0, max_value=40.0),
                 st.integers(min_value=1, max_value=80).map(
                     lambda n: n / 4)))
@example(BitStream([1, 0.25], [0, 4.0]), 3.0)  # int head
@example(BitStream([1, 0.5, 0.25], [0, 1, 3]), 2)  # int times and CDV
@example(BitStream([1.0, 0.5, -0.0], [0.0, 2.0, 7.0]), 1.5)  # residue
@example(BitStream([1.0], [0.0]), 4.0)  # saturated
def test_delayed_route_is_type_exact(stream, cdv):
    result = stream.delayed(cdv)
    if cdv == 0 or stream.is_zero:
        reference = stream
    else:
        reference = _cap_with_envelope(
            _scalar_only(stream._shifted_left(cdv)), 1, stream.bits(cdv))
    assert_route_identity(result, reference)


@settings(max_examples=ROUTE_EXAMPLES, deadline=None)
@given(mixed_streams(), mixed_streams())
@example(BitStream([1, 0.4, 0.04], [0, 1, 18.5]), ZERO_STREAM)  # an envelope
@example(BitStream([1, 0.4, -0.0], [0.0, 1, 3]), ZERO_STREAM)  # 0 + -0.0
@example(BitStream([2, 1], [0.0, 3]), ZERO_STREAM)  # t(0): the only float
@example(BitStream([0.5], [-0.0]), ZERO_STREAM)  # a -0.0 t(0)
def test_zero_plus_route_is_type_exact(stream, total):
    reference = _merge(ZERO_STREAM, stream, operator.add)
    assert_route_identity(ZERO_STREAM + stream, reference)
    assert_route_identity(ZERO_STREAM.patched(ZERO_STREAM, stream),
                          reference)
    # An empty slot of a nonempty sum keeps the generic merges: the
    # kernel merge would turn the sum's ints into floats.
    assert repr(total.patched(ZERO_STREAM, stream)) == repr(_merge(
        _merge(total, ZERO_STREAM, operator.sub), stream, operator.add))


# ----------------------------------------------------------------------
# Bit-identity pins
# ----------------------------------------------------------------------

#: ``(arrivals, interference)`` from the vbr-2prio benchmark workload: the
#: filtered higher-priority aggregate rises to 1.0000000000000004 within
#: the rate tolerance, so its leftover service dips below zero by 5.6e-15.
RAZOR_PAIR = (
    BitStream([1, 0.08000000000000008, 0.08, 0.08000000000000022, 0.08],
              [0, 30.347826086956523, 38.69565217391305,
               48.19047619047619, 66.47619047619048]),
    BitStream([1, 1.0000000000000004, 1.0, 0.16],
              [0, 6.000000000000001, 18.5, 40.66666666666666]),
)


def test_interference_above_link_rate_by_float_noise():
    # The kernel clamps the dip and returns a finite bound; the generic
    # path, which float streams took when NumPy was missing, raised
    # "amount must be non-negative" here.
    assert float(delay_bound(*RAZOR_PAIR)).hex() == "0x1.7393e032e1c9fp+5"


#: SHA-256 of :func:`_corpus_digest`, recorded from the NumPy kernels the
#: list kernels replaced; any reordered float operation changes it.
GOLDEN_DIGEST = (
    "8d9cd97607c5915825a67feb9bd21d73d9f90a1a9cbf3515324fe12582041c89"
)


def _random_stream(rng, head=1.0):
    count = rng.randint(1, 6)
    rates = sorted((head * (0.02 + 0.98 * rng.random())
                    for _ in range(count)), reverse=True)
    times = [0.0]
    for _ in range(count - 1):
        times.append(times[-1] + 0.25 + 20.0 * rng.random())
    if count > 1 and rng.random() < 0.4:
        # A rise by float noise, far inside the tolerance.
        k = rng.randrange(1, count)
        rates[k] = rates[k - 1] * (1.0 + rng.randint(1, 4) * ULP)
    if rng.random() < 0.2:
        # A residue of a demultiplexed aggregate: tiny, possibly negative.
        rates.append(rng.choice((5e-16, -3e-17, 1e-12, -0.0)))
        times.append(times[-1] + 0.5 + 10.0 * rng.random())
    return BitStream(rates, times)


def _vbr_stream(rng):
    pcr = 0.1 + 0.9 * rng.random()
    scr = pcr * (0.05 + 0.9 * rng.random())
    return VBRParameters(pcr, scr, rng.randint(1, 30)).worst_case_stream()


def _near_link_rate(rng):
    """Filtered interference whose rate wobbles around 1 by a few ulps."""
    count = rng.randint(2, 5)
    rates = [1.0 + rng.randint(-4, 4) * ULP for _ in range(count)]
    rates[0] = min(rates[0], 1.0)
    rates.append(0.1 + 0.8 * rng.random())
    times = [0.0]
    for _ in range(count):
        times.append(times[-1] + 0.5 + 15.0 * rng.random())
    return BitStream(rates, times)


def _stream(rng, head=1.0):
    kind = rng.random()
    if kind < 0.6:
        return _random_stream(rng, head)
    if kind < 0.9:
        return _vbr_stream(rng).scaled(head)
    return _near_link_rate(rng)


def _token(value):
    return value.hex() if isinstance(value, float) else repr(value)


def _corpus_digest(cases=150, seed=20261017):
    """Hash every rate, time and bound the float kernels produce."""
    rng = random.Random(seed)
    digest = hashlib.sha256()

    def record(*values):
        for value in values:
            if isinstance(value, BitStream):
                digest.update(" ".join(map(_token, value.rates)).encode())
                digest.update(b"|")
                digest.update(" ".join(map(_token, value.times)).encode())
            else:
                digest.update(_token(value).encode())
            digest.update(b";")

    record(delay_bound(*RAZOR_PAIR), backlog_bound_with_higher(*RAZOR_PAIR))
    for _ in range(cases):
        a, b, c, d = (_stream(rng) for _ in range(4))
        total = aggregate([a, b, c])
        record(a + b, (a + b) - b, total, total - c, total.patched(b, d))
        record(aggregate([_stream(rng) for _ in range(rng.randint(2, 12))]))
        burst = _stream(rng, head=1.0 + 2.0 * rng.random())
        record(burst.filtered(), burst.filtered(0.5 + 0.5 * rng.random()))
        record(a.delayed(30.0 * rng.random()), d.delayed(rng.randint(1, 9)))
        higher = aggregate([b, c]).filtered()
        near = _near_link_rate(rng)
        for arrivals in (a, d, total.filtered(), burst):
            for interference in (None, higher, near):
                record(delay_bound(arrivals, interference),
                       backlog_bound_with_higher(arrivals, interference))
        for t in (0.0, 40.0 * rng.random(), float(rng.randint(0, 60))):
            record(total.bits(t), total.rate_at(t), a.bits(t))
        for amount in (0.0, 30.0 * rng.random(), float(rng.randint(1, 20))):
            record(total.time_of_bits(amount), d.time_of_bits(amount))
    return digest.hexdigest()


def test_float_kernels_are_bit_identical_to_the_golden_digest():
    assert _corpus_digest() == GOLDEN_DIGEST
