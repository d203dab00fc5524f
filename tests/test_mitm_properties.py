"""Property tests: the int64 sorted-halves MITM kernel against brute force,
at its own block and tail sizes and at tiny ones, its forced-sign exit, its
value-only half sums, the sign indices it recovers by value, its memory, and
the signs of an all-free mitm_optimize."""

import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmsum import constructor as ctor
from harmsum import numerics
from harmsum.numerics import _round_nearest, rounded_units
from harmsum.support import SupportSet

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

# (queries per sweep block, tail units of the index recovery): the kernel's
# own sizes, then tiny ones, with which the <= 14-element sets below cross
# many block boundaries and split every half for the index lookup.
KERNEL_SIZES = [(ctor.MITM_BLOCK, ctor.MITM_TAIL_UNITS), (2, 1), (3, 0)]


def _half_signs(ns: list[int], index: int) -> dict[int, int]:
    return {n: -1 if (index >> j) & 1 else 1 for j, n in enumerate(ns)}


def _signed_sums(units: list[int]) -> list[int]:
    """Reference half sums, index by index: bit j of an index means -u_j."""
    return [
        sum(-u if (index >> j) & 1 else u for j, u in enumerate(units))
        for index in range(1 << len(units))
    ]


def _brute_force(free_ns: list[int], tau: Fraction) -> tuple[int, dict[int, int]]:
    """Lexicographic minimum of (exact distance, left index, right index) over
    all 2^m sign vectors, with free_ns[0::2] as the left half; returns the
    distance scaled by the common denominator, and the signs."""
    den = math.lcm(tau.denominator, *free_ns)
    t_scaled = tau.numerator * (den // tau.denominator)
    halves = (free_ns[0::2], free_ns[1::2])
    sums = [
        [sum(s * (den // n) for n, s in _half_signs(ns, i).items()) for i in range(1 << len(ns))]
        for ns in halves
    ]
    dist, li, ri = min(
        (abs(lv + rv - t_scaled), i, j)
        for i, lv in enumerate(sums[0])
        for j, rv in enumerate(sums[1])
    )
    return dist, {**_half_signs(halves[0], li), **_half_signs(halves[1], ri)}


def _fixed_point_pair_distances(free_ns: list[int], tau: Fraction, p_bits: int) -> np.ndarray:
    """|L + R - tau| in fixed point at 2^-p_bits over all pairs of half sums."""
    units = rounded_units(free_ns, p_bits)[0].tolist()
    tau_fp = _round_nearest(tau.numerator << p_bits, tau.denominator)[0]
    left = np.asarray(_signed_sums(units[0::2]), dtype=np.int64)
    right = np.asarray(_signed_sums(units[1::2]), dtype=np.int64)
    return np.abs(left[:, None] + right[None, :] - tau_fp)


def _assert_kernel_matches(free_ns: list[int], tau: Fraction) -> int:
    """At every KERNEL_SIZES, the kernel's signs are the exact brute-force
    optimum, its fp_best_ulps is the least fixed-point pair distance, and its
    shortlist holds every pair within the 2*(m+2)-ulp margin of it."""
    dist, expected = _brute_force(free_ns, tau)
    for block, tail in KERNEL_SIZES:
        with mock.patch.multiple(ctor, MITM_BLOCK=block, MITM_TAIL_UNITS=tail):
            signs, info = ctor._mitm_fixed_point(free_ns, tau)
        assert signs == expected
        fp = _fixed_point_pair_distances(free_ns, tau, info["scale_bits"])
        assert info["fp_best_ulps"] == fp.min()
        margin = 2 * (len(free_ns) + 2)
        assert info["shortlist_pairs"] == np.count_nonzero(fp <= fp.min() + margin)
    return dist


# Egyptian-fraction identities 1/a = 1/(a+1) + 1/(a(a+1)) and
# 1/a = 1/(2a) + 1/(3a) + 1/(6a) inside 1..60: flipping the signs of such a
# group keeps the exact sum, while the rounded int64 sums differ by an ulp or
# two, so exact ties must be broken by the shortlist, not the fixed point.
IDENTITY_GROUPS = [(a, a + 1, a * (a + 1)) for a in range(2, 8)] + [
    (a, 2 * a, 3 * a, 6 * a) for a in range(1, 11)
]
tie_heavy_sets = st.builds(
    lambda groups, extra: sorted({n for g in groups for n in g} | set(extra))[:14],
    st.lists(st.sampled_from(IDENTITY_GROUPS), min_size=1, max_size=4),
    st.lists(st.integers(1, 60), max_size=6),
)
small_taus = st.one_of(
    st.just(Fraction(0)), st.builds(Fraction, st.integers(-120, 120), st.integers(1, 60))
)


@PROPERTY_SETTINGS
@given(tie_heavy_sets, small_taus)
def test_mitm_fixed_point_matches_brute_force_tie_heavy(free_ns, tau):
    _assert_kernel_matches(free_ns, tau)


# mitm_optimize runs the kernel for every free count, so an all-free search
# takes the brute-force signs, ties included. The pinned set has sign vectors
# of equal exact distance at x0 = -6/11 that a nearest-neighbour scan of each
# left sum alone can break differently from the lexicographic minimum.
@PROPERTY_SETTINGS
@given(tie_heavy_sets, small_taus)
@example([1, 2, 3, 4, 6, 8, 10, 12, 20, 24, 28, 30, 38, 51], Fraction(-6, 11))
def test_mitm_optimize_all_free_takes_brute_force_signs(ns, tau):
    rep = ctor.mitm_optimize(SupportSet(ns), tau, max_free=len(ns))
    assert dict(rep.signs.items()) == _brute_force(ns, tau)[1]


# Targets past the int64 headroom, |tau| >= 2^21, far outside [-H, H], H the
# sum of the reciprocals: the kernel sweeps against tau clamped to +-(H + 1),
# which ranks the pairs as tau does, and still returns the brute-force signs.
@PROPERTY_SETTINGS
@given(
    tie_heavy_sets,
    st.builds(Fraction, st.integers(2**27, 10**30), st.integers(1, 60)),  # >= 2^21
    st.sampled_from([1, -1]),
)
@example([1, 2, 3, 4, 5], Fraction(3 * 10**6), 1)
def test_mitm_fixed_point_matches_brute_force_far_target(free_ns, tau, sign):
    tau *= sign
    reach = sum(Fraction(1, n) for n in free_ns) + 1
    near = max(-reach, min(tau, reach))
    _assert_kernel_matches(free_ns, near)
    signs, info = ctor._mitm_fixed_point(free_ns, tau)
    assert (signs, info) == ctor._mitm_fixed_point(free_ns, near)
    assert signs == _brute_force(free_ns, tau)[1]


# Targets on or past the reach H of the free set, |tau| in [H, 2^21): the
# signs sign(tau) are forced, and the kernel returns them without a sweep
# unless some unit is within the shortlist margin (then it sweeps as before).
# Elements near 2^56..2^61 have units of a few ulps, where both happen.
@st.composite
def forced_targets(draw):
    free_ns = draw(st.one_of(
        tie_heavy_sets,
        st.lists(st.integers(1, 10**11), min_size=1, max_size=14, unique=True).map(sorted),
        st.lists(st.integers(2**56, 2**61), min_size=1, max_size=8, unique=True).map(sorted),
    ))
    reach = sum(Fraction(1, n) for n in free_ns)
    past = draw(st.one_of(
        st.just(Fraction(0)),
        st.integers(1, 80).map(lambda k: Fraction(1, 2**k)),
        st.builds(Fraction, st.integers(0, 2**21 - 8), st.integers(1, 10**6)),
    ))
    return free_ns, draw(st.sampled_from([1, -1])) * (reach + past)


@PROPERTY_SETTINGS
@given(forced_targets())
def test_mitm_fixed_point_matches_brute_force_forced_signs(case):
    free_ns, tau = case
    _assert_kernel_matches(free_ns, tau)


# Six odd elements near 2^59 have units of 5 and 6 ulps at 61 fraction bits,
# inside the 16-ulp shortlist margin: at tau = +-H the forced pair is not the
# only one within the margin, so the kernel must fall back to the sweep.
def test_forced_target_with_tiny_units_takes_the_sweep():
    free_ns = [373542993807480557, 393759420806745301, 422022472808997793,
               426229863984244511, 431704218350754281, 505579853182884529]
    reach = sum(Fraction(1, n) for n in free_ns)
    for tau in (reach, -reach):
        _assert_kernel_matches(free_ns, tau)
        assert ctor._mitm_fixed_point(free_ns, tau)[1]["shortlist_pairs"] == 7


def test_forced_target_builds_no_half():
    free_ns = list(range(2, 45))
    reach = sum(Fraction(1, n) for n in free_ns)
    boom = mock.Mock(side_effect=AssertionError("the sweep ran"))
    with mock.patch.object(ctor, "_sorted_half", boom):
        for tau in (reach, -reach - Fraction(1, 3), Fraction(2**30)):
            signs, info = ctor._mitm_fixed_point(free_ns, tau)
            assert signs == dict.fromkeys(free_ns, 1 if tau > 0 else -1)
            assert info["shortlist_pairs"] == 1
    assert not boom.called


# Reciprocals near 1e-6 differ from each other in the last ~20 bits of the
# int64 scale, so fixed-point near-ties are dense and the margin does the work.
@PROPERTY_SETTINGS
@given(
    st.lists(
        st.integers(10**6 - 2000, 10**6 + 2000), min_size=1, max_size=14, unique=True
    ).map(sorted),
    st.builds(Fraction, st.integers(-(10**4), 10**4), st.just(10**9)),
)
def test_mitm_fixed_point_matches_brute_force_near_million(free_ns, tau):
    _assert_kernel_matches(free_ns, tau)


@PROPERTY_SETTINGS
@given(st.data())
def test_mitm_fixed_point_hits_reachable_target(data):
    free_ns = sorted(
        data.draw(st.lists(st.integers(1, 400), min_size=1, max_size=14, unique=True))
    )
    signs = data.draw(
        st.lists(st.sampled_from([1, -1]), min_size=len(free_ns), max_size=len(free_ns))
    )
    tau = sum((Fraction(s, n) for s, n in zip(signs, free_ns)), Fraction(0))
    assert _assert_kernel_matches(free_ns, tau) == 0


# 1/(2a) = 1/(4a) + 1/(6a) + 1/(12a), with one filler between consecutive
# group members, so the group falls into the left half (the even positions):
# the left half then holds equal fixed-point sums at several sorted positions.
@st.composite
def left_tied_sets(draw):
    a = draw(st.integers(1, 11))
    group = [2 * a, 4 * a, 6 * a, 12 * a]
    fillers = [draw(st.integers(lo + 1, hi - 1)) for lo, hi in zip(group, group[1:])]
    extra = draw(st.lists(st.integers(12 * a + 1, 12 * a + 40), max_size=6, unique=True))
    return sorted(group + fillers + extra)


@PROPERTY_SETTINGS
@given(left_tied_sets(), st.data())
def test_mitm_fixed_point_tied_half_sums(free_ns, data):
    signs = data.draw(st.lists(st.sampled_from([1, -1]), min_size=len(free_ns),
                               max_size=len(free_ns)))
    tau = data.draw(st.one_of(
        st.just(sum((Fraction(s, n) for s, n in zip(signs, free_ns)), Fraction(0))),
        st.builds(Fraction, st.integers(-60, 60), st.integers(1, 60)),
    ))
    _, info = ctor._mitm_fixed_point(free_ns, tau)
    left = numerics._half_sums(rounded_units(free_ns, info["scale_bits"])[0][0::2])
    assert len(np.unique(left)) < len(left)
    _assert_kernel_matches(free_ns, tau)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(-(1 << 40), 1 << 40), max_size=12))
def test_half_sums_match_signed_subset_sums(units):
    sums = numerics._half_sums(np.asarray(units, dtype=np.int64))
    assert sums.dtype == np.int64
    assert sums.tolist() == _signed_sums(units)


# Units drawn from a few small values (zeros and repeats included) make most
# half sums tied, so positions sharing one value must take that value's
# indices in ascending order, as a stable argsort places them.
@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=10),
        st.lists(st.integers(1, 1 << 40), max_size=10),
    ),
    st.integers(0, 4),
    st.data(),
)
def test_sorted_indices_match_stable_argsort(units, tail, data):
    units = np.asarray(units, dtype=np.int64)
    unsorted = numerics._half_sums(units)
    expected = np.argsort(unsorted, kind="stable")
    with mock.patch.object(ctor, "MITM_TAIL_UNITS", tail):
        sums, low, tail_sums = ctor._sorted_half(units)
    assert sums.tolist() == np.sort(unsorted).tolist()
    positions = np.asarray(
        data.draw(st.lists(st.integers(0, len(sums) - 1), min_size=1, max_size=40)),
        dtype=np.int64,
    )
    got = ctor._sorted_indices(sums, low, tail_sums, positions)
    assert got.tolist() == expected[positions].tolist()


def test_kernel_memory_stays_near_two_halves():
    """36 free elements give halves of 2^18 int64 sums (2 MiB each). The
    kernel holds both halves and block-sized scratch, about 2.3 halves at
    its peak; a kernel that carries sign-index arrays through the sort and
    builds whole-half query, position and distance arrays peaks near 7.
    The target lies inside [-H, H], so the kernel sweeps."""
    rng = random.Random(5)
    free_ns = sorted(rng.sample(range(100, 3000), 36))
    tau = Fraction(1, 70)
    assert abs(tau) < sum(Fraction(1, n) for n in free_ns)
    half_bytes = (1 << 18) * 8
    tracemalloc.start()
    try:
        ctor._mitm_fixed_point(free_ns, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * half_bytes + (1 << 20)
