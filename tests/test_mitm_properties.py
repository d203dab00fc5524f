"""Property tests: the int64 sorted-halves MITM kernel against brute force."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from harmsum import constructor as ctor

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _half_signs(ns: list[int], index: int) -> dict[int, int]:
    return {n: -1 if (index >> j) & 1 else 1 for j, n in enumerate(ns)}


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


def _assert_kernel_matches(free_ns: list[int], tau: Fraction) -> int:
    signs, info = ctor._mitm_fixed_point(free_ns, tau)
    dist, expected = _brute_force(free_ns, tau)
    assert signs == expected
    assert info["shortlist_pairs"] >= 1
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


@PROPERTY_SETTINGS
@given(
    tie_heavy_sets,
    st.one_of(
        st.just(Fraction(0)), st.builds(Fraction, st.integers(-120, 120), st.integers(1, 60))
    ),
)
def test_mitm_fixed_point_matches_brute_force_tie_heavy(free_ns, tau):
    _assert_kernel_matches(free_ns, tau)


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


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 1 << 40), max_size=12))
def test_sorted_half_sums_enumeration(units):
    vals, idx = ctor._sorted_half_sums(np.asarray(units, dtype=np.int64))
    assert (np.diff(vals) >= 0).all()
    assert sorted(idx.tolist()) == list(range(1 << len(units)))
    for v, i in zip(vals.tolist(), idx.tolist()):
        assert v == sum(-u if (i >> j) & 1 else u for j, u in enumerate(units))
