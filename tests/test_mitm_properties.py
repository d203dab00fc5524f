"""Property tests: the int64 sorted-halves MITM kernel against brute force,
at its own chunk and tail sizes and at tiny ones, on halves with exact zero
sums, windows across 0 and an empty right half, its forced-sign exit, the
half sums it lists (only the positive ones, in ascending chunks, and a count
of zeros), the sign indices it looks up by value and the check that they
close the shortlist, its memory, and the signs of an all-free mitm_optimize."""

import math
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmsum import constructor as ctor
from harmsum import numerics
from harmsum.numerics import _round_nearest, rounded_units
from harmsum.support import SupportSet

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)

# (half sums per chunk, which is also the queries per sweep block, tail units
# of the chunks and of the index recovery): the kernel's own sizes, with which
# the <= 14-element sets below fit each half in one chunk, then tiny ones, with
# which they cross many chunk edges and split every half into low and tail.
KERNEL_SIZES = [(ctor.MITM_BLOCK, ctor.MITM_TAIL_UNITS), (1, 2), (2, 1), (3, 0)]


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
    optimum, its fp_best_ulps is the least fixed-point pair distance, its
    shortlist holds every pair within the 2*(m+2)-ulp margin of it, and a
    sweep looks up exactly the left sums of those pairs."""
    dist, expected = _brute_force(free_ns, tau)
    for block, tail in KERNEL_SIZES:
        lookup = mock.Mock(wraps=ctor._value_indices)
        with mock.patch.multiple(
            ctor, MITM_BLOCK=block, MITM_TAIL_UNITS=tail, _value_indices=lookup
        ):
            signs, info = ctor._mitm_fixed_point(free_ns, tau)
        assert dict(zip(free_ns, signs)) == expected
        fp = _fixed_point_pair_distances(free_ns, tau, info["scale_bits"])
        assert info["fp_best_ulps"] == fp.min()
        near = fp <= fp.min() + 2 * (len(free_ns) + 2)
        assert info["shortlist_pairs"] == np.count_nonzero(near)
        if lookup.called:  # the sweep ran; its first lookup is the left half's
            units = rounded_units(free_ns, info["scale_bits"])[0].tolist()
            left = np.asarray(_signed_sums(units[0::2]))
            asked = lookup.call_args_list[0].args[2]
            assert set(asked.tolist()) == set(left[near.any(axis=1)].tolist())
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


# 1/2 = 1/3 + 1/6 and 1/8 = 1/12 + 1/24 hold exactly in fixed point at any
# scale: 2^p/3 and 2^p/6 round in opposite directions by a third of an ulp.
# Placed at even positions a triple gives the left half exact zero sums, at
# odd ones the right half. EDGE_CASES pins what each example reaches.
ZERO_LEFT = [2, 5, 3, 7, 6]
ZERO_RIGHT = [5, 2, 7, 3, 11, 6]
ZERO_BOTH = [2, 8, 3, 12, 6, 24]
# Two tie groups whose halves both hold sums within a few ulps of 0: at
# tau = 0 the right windows straddle 0 and take right sums of both signs.
STRADDLE = [5, 7, 10, 14, 15, 21, 30, 42]
EDGE_CASES = [  # (free_ns, tau, left zeros, right zeros, straddles, right sums across 0)
    (ZERO_LEFT, Fraction(0), 2, 0, False, False),
    (ZERO_RIGHT, Fraction(0), 0, 2, True, False),
    (ZERO_BOTH, Fraction(0), 2, 2, True, False),
    (STRADDLE, Fraction(0), 0, 0, True, True),
    ([7], Fraction(1, 20), 0, 1, True, False),  # empty right half: its one sum is 0
    ([3, 5], Fraction(-1, 9), 0, 0, False, False),
]


@PROPERTY_SETTINGS
@given(tie_heavy_sets, small_taus)
@example(ZERO_LEFT, Fraction(0))
@example(ZERO_LEFT, Fraction(1, 5))
@example(ZERO_RIGHT, Fraction(0))
@example(ZERO_RIGHT, Fraction(-1, 7))
@example(ZERO_BOTH, Fraction(0))
@example(STRADDLE, Fraction(0))
@example([7], Fraction(0))
@example([7], Fraction(1, 20))
@example([3, 5], Fraction(0))
@example([3, 5], Fraction(-1, 9))
def test_mitm_fixed_point_matches_brute_force_tie_heavy(free_ns, tau):
    _assert_kernel_matches(free_ns, tau)


@pytest.mark.parametrize("free_ns, tau, zeros_l, zeros_r, straddles, across", EDGE_CASES)
def test_edge_examples_reach_their_cases(free_ns, tau, zeros_l, zeros_r, straddles, across):
    """Each example above has the stated exact zero half sums at the kernel's
    scale; a straddling one shortlists a query q = tau - L with |q| within
    the margin, so its right window holds 0, and the last flag says whether
    a shortlisted right sum lies on the far side of 0 from its query."""
    _, info = ctor._mitm_fixed_point(free_ns, tau)
    units = rounded_units(free_ns, info["scale_bits"])[0].tolist()
    tau_fp = _round_nearest(tau.numerator << info["scale_bits"], tau.denominator)[0]
    left = np.asarray(_signed_sums(units[0::2]), dtype=np.int64)
    right = np.asarray(_signed_sums(units[1::2]), dtype=np.int64)
    assert (np.count_nonzero(left == 0), np.count_nonzero(right == 0)) == (zeros_l, zeros_r)
    fp = np.abs(left[:, None] + right[None, :] - tau_fp)
    thr = fp.min() + 2 * (len(free_ns) + 2)
    li, ri = np.nonzero(fp <= thr)
    q, r = tau_fp - left[li], right[ri]
    assert bool(np.any(np.abs(q) <= thr)) == straddles
    assert bool(np.any(q * r < 0)) == across


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
    assert dict(zip(free_ns, signs)) == _brute_force(free_ns, tau)[1]


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
    with mock.patch.object(ctor, "_half_chunks", boom):
        for tau in (reach, -reach - Fraction(1, 3), Fraction(2**30)):
            signs, info = ctor._mitm_fixed_point(free_ns, tau)
            assert signs == [1 if tau > 0 else -1] * len(free_ns)
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
# half sums tied, so one value can stand for many sign indices, and the lookup
# must return all of them, for values asked for in any order and repeated.
@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=10),
        st.lists(st.integers(1, 1 << 40), max_size=10),
    ),
    st.integers(0, 4),
    st.data(),
)
def test_value_indices_return_every_index_of_each_value(units, tail, data):
    units = np.asarray(units, dtype=np.int64)
    unsorted = numerics._half_sums(units)
    with mock.patch.object(ctor, "MITM_TAIL_UNITS", tail):
        zeros, low, tail_sums, chunks = ctor._half_chunks(units)
        pos = np.concatenate([np.empty(0, dtype=np.int64), *chunks])
    mirrored = np.concatenate((-pos[::-1], np.zeros(zeros, dtype=np.int64), pos))
    assert mirrored.tolist() == np.sort(unsorted).tolist()
    asked = unsorted[
        data.draw(st.lists(st.integers(0, len(unsorted) - 1), min_size=1, max_size=40))
    ]
    indices, values = ctor._value_indices(low, tail_sums, asked)
    assert values.tolist() == sorted(values.tolist())
    assert set(values.tolist()) == set(asked.tolist())
    for v in set(asked.tolist()):
        got = np.sort(indices[values == v])
        assert got.tolist() == np.flatnonzero(unsorted == v).tolist()


# The chunk generator against a plain sort of the half's sums, at chunk
# sizes of 1-3 entries, where most halves cross many chunk edges, and at
# the kernel's own, where these halves fit in one chunk. Units drawn from a
# few small values give duplicate units and sums that are exactly 0.
@PROPERTY_SETTINGS
@given(
    st.one_of(
        st.lists(st.integers(0, 3), max_size=10),
        st.lists(st.integers(1, 1 << 40), max_size=10),
    ),
    st.sampled_from([1, 2, 3, ctor.MITM_BLOCK]),
    st.integers(0, 4),
)
@example([], 1, 0)
@example([], ctor.MITM_BLOCK, 0)
@example([5], 1, 0)
@example([0], 1, 1)
@example([3, 3, 2, 1, 7, 7, 5], 2, 2)
def test_half_chunks_list_the_positive_sums_in_order(units, block, tail):
    units = np.asarray(units, dtype=np.int64)
    sums = numerics._half_sums(units)
    with mock.patch.multiple(ctor, MITM_BLOCK=block, MITM_TAIL_UNITS=tail):
        zeros, low, tail_sums, chunks = ctor._half_chunks(units)
        chunks = list(chunks)
    assert zeros == np.count_nonzero(sums == 0)
    assert (tail_sums[:, None] + low[None, :]).ravel().tolist() == sums.tolist()
    pos = np.concatenate([np.empty(0, dtype=np.int64), *chunks])
    assert pos.tolist() == np.sort(sums[sums > 0]).tolist()
    if len(np.unique(pos)) == len(pos):  # then no chunk outgrows its size
        assert all(len(chunk) <= block for chunk in chunks)


def test_a_lookup_that_drops_an_index_raises():
    """The pair count by value must equal the shortlist's window count; a
    lookup that loses one sign index breaks it on either half, and the kernel
    raises rather than pick from an incomplete shortlist (even under -O)."""
    lookup = ctor._value_indices

    def drop_last(low, tail, values):
        indices, sums = lookup(low, tail, values)
        return indices[:-1], sums[:-1]

    for free_ns, tau in ((STRADDLE, Fraction(0)), (list(range(2, 22)), Fraction(1, 9))):
        with mock.patch.object(ctor, "_value_indices", drop_last):
            with pytest.raises(RuntimeError, match="not closed under equal values"):
                ctor._mitm_fixed_point(free_ns, tau)


def test_shortlist_recheck_on_a_large_tied_shortlist():
    """[1, 40] toward 0 shortlists 3 328 pairs, most of them sharing a left
    index. The kernel's pick is the lexicographic minimum of (exact distance,
    left index, right index) over exactly the pairs within the shortlist
    margin of the least fixed-point distance, found here by sorting the
    right half's sums and searching each left sum's window in them; each pair
    is re-checked over all 40 terms on the common denominator."""
    free_ns, tau = list(range(1, 41)), Fraction(0)
    signs, info = ctor._mitm_fixed_point(free_ns, tau)
    assert info == {
        "mode": "fixed_point",
        "scale_bits": 58,
        "shortlist_pairs": 3328,
        "fp_best_ulps": 2035317356,
    }
    # tau = 0, so a pair's fixed-point distance is |L + R|.
    units = rounded_units(free_ns, info["scale_bits"])[0]
    left, right = numerics._half_sums(units[0::2]), numerics._half_sums(units[1::2])
    order = np.argsort(right)
    right_sorted = right[order]
    pos = np.searchsorted(right_sorted, -left).clip(1, len(right) - 1)
    fp_best = min(np.abs(right_sorted[p] + left).min() for p in (pos, pos - 1))
    assert fp_best == info["fp_best_ulps"]
    thr = fp_best + 2 * (len(free_ns) + 2)
    lo = np.searchsorted(right_sorted, -left - thr, side="left")
    hi = np.searchsorted(right_sorted, -left + thr, side="right")
    pairs = [
        (i, j) for i in np.flatnonzero(hi > lo).tolist() for j in order[lo[i] : hi[i]].tolist()
    ]
    den = math.lcm(*free_ns)
    halves = (free_ns[0::2], free_ns[1::2])

    def scaled(ns: list[int], index: int) -> int:
        return sum(s * (den // n) for n, s in _half_signs(ns, index).items())

    _, li, ri = min(
        (abs(scaled(halves[0], i) + scaled(halves[1], j)), i, j) for i, j in pairs
    )
    expected = {**_half_signs(halves[0], li), **_half_signs(halves[1], ri)}
    assert dict(zip(free_ns, signs)) == expected
    assert len(pairs) == 3328 and len({i for i, _ in pairs}) < len(pairs) // 4


def test_kernel_memory_stays_near_two_halves():
    """36 free elements give halves of 2^18 int64 sums (2 MiB each). The
    kernel holds one half's positive sums and chunk-sized scratch, about 1.1
    halves at its peak; a kernel that carries sign-index arrays through the
    sort and builds whole-half query, position and distance arrays peaks
    near 7.
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


def test_kernel_memory_stays_near_one_half():
    """40 free elements give halves of 2^20 int64 sums (8 MiB each). The
    kernel keeps only the right half's positive sums, half a half, and lists
    the left half's in chunks of about MITM_BLOCK that it drops as it goes:
    it peaks near 0.7 halves. One that keeps both halves' positive sums
    peaks near 1.1, and one that holds both whole halves near 2.1."""
    rng = random.Random(5)
    free_ns = sorted(rng.sample(range(100, 3000), 40))
    tau = Fraction(1, 70)
    assert abs(tau) < sum(Fraction(1, n) for n in free_ns)
    half_bytes = (1 << 20) * 8
    tracemalloc.start()
    try:
        ctor._mitm_fixed_point(free_ns, tau)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * half_bytes
