"""Property tests: interval containment, the shared exact and fixed-point sum
helpers against Fraction references, the RLE round-trip and values_range."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmsum import multiplicative as mult
from harmsum.numerics import (
    DEFAULT_LCM_BIT_BUDGET,
    BigFixed,
    ResourceBudgetError,
    _half_sums,
    _round_nearest,
    _sci,
    _unit_sum_loop,
    exact_rational_sum,
    rational_sum,
    rounded_units,
    unit_sum,
)
from harmsum.sieve import SieveTable
from harmsum.support import SignSequence, SupportSet

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)
SIEVE = SieveTable(5000)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)
supports = st.lists(st.integers(1, 5000), min_size=0, max_size=60, unique=True).map(sorted)


@st.composite
def signed_supports(draw):
    ns = draw(supports)
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(ns), max_size=len(ns)))
    return ns, signs


@st.composite
def enclosures(draw):
    """A BigFixed and an exact value inside its interval."""
    bits = draw(st.integers(1, 80))
    mantissa = draw(st.integers(-(1 << 90), 1 << 90))
    err = draw(st.integers(0, 1 << 20))
    t = draw(st.fractions(min_value=-1, max_value=1, max_denominator=1000))
    return BigFixed(mantissa, bits, err), (mantissa + t * err) / Fraction(1 << bits)


@PROPERTY_SETTINGS
@given(enclosures(), enclosures(), fractions)
def test_bigfixed_containment(a, b, q):
    (x, xv), (y, yv) = a, b
    assert x.contains(xv) and y.contains(yv)
    assert (x + y).contains(xv + yv)
    assert (-x).contains(-xv)
    assert (x - y).contains(xv - yv)
    assert x.mul_fraction(q).contains(xv * q)


def _random_runs(n: int, rng) -> list[int]:
    """n signs in runs of random lengths, long runs included."""
    signs: list[int] = []
    while len(signs) < n:
        signs += [rng.choice((-1, 1))] * rng.choice((1, 1, 2, 3, 7, 60))
    return signs[:n]


# long random sign vectors on [1, n]
long_signed_supports = st.builds(
    lambda n, rng: (list(range(1, n + 1)), _random_runs(n, rng)),
    st.integers(0, 20000),
    st.randoms(use_true_random=False),
)


def _reference_runs(values: list[int], step: int) -> list[list[int]]:
    """[first value, length] of each maximal run whose entries rise by `step`."""
    runs: list[list[int]] = []
    for v in values:
        if runs and v == runs[-1][0] + step * runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


@PROPERTY_SETTINGS
@given(st.one_of(signed_supports(), long_signed_supports))
def test_rle_round_trip(case):
    ns, signs = case
    seq = SignSequence(SupportSet(ns), signs)
    obj = seq.to_obj()
    assert obj["signs_rle"] == _reference_runs(signs, 0)
    assert obj["support_ranges"] == [[lo, lo + k - 1] for lo, k in _reference_runs(ns, 1)]
    assert all(type(x) is int for run in obj["signs_rle"] + obj["support_ranges"] for x in run)
    back = SignSequence.from_obj(obj)
    assert back == seq
    assert back.signs.dtype == np.int8


def test_from_rle_rejects_bad_runs():
    assert len(SignSequence.from_rle([], [])) == 0
    for rle in ([[1, -1], [1, 5]], [[2, 4]], [[1, 3]], [[1, 5]], [[1, 4, 0]], [[1, 2, 1, 2]]):
        with pytest.raises(ValueError):
            SignSequence.from_rle([[1, 4]], rle)


@PROPERTY_SETTINGS
@given(
    st.sampled_from(sorted(mult.SEED_RULES)),
    st.dictionaries(st.sampled_from(SIEVE.primes[:200].tolist()), st.sampled_from([-1, 1]),
                    max_size=8),
    st.lists(st.integers(1, SIEVE.limit), min_size=1, max_size=40),
)
def test_values_range_matches_evaluate(rule, overrides, ns):
    fn = mult.MultiplicativeFn(SIEVE, rule, overrides)
    vals = fn.values_range()
    assert [int(vals[n]) for n in ns] == [fn.evaluate(n) for n in ns]


@PROPERTY_SETTINGS
@given(signed_supports())
def test_weighted_sum_is_exact(case):
    ns, signs = case
    exact = sum((Fraction(s, n) for n, s in zip(ns, signs)), Fraction(0))
    assert rational_sum(ns, signs) == exact
    assert exact_rational_sum(SignSequence(SupportSet(ns), signs)) == exact


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(1, 10**12), st.sampled_from([-1, 1])), min_size=0, max_size=90
    )
)
@example([])
@example([(7, -1)])
@example([(1, 1), (2, -1), (3, -1), (6, -1)])  # an exact zero
def test_rational_sum_matches_fraction(terms):
    # ns repeat and come in any order; every block and merge size is drawn
    ns, signs = [n for n, _ in terms], [s for _, s in terms]
    exact = sum((Fraction(s, n) for n, s in terms), Fraction(0))
    assert rational_sum(ns, signs) == exact
    assert rational_sum(range(1, len(ns) + 1), signs) == sum(
        (Fraction(s, n) for n, s in enumerate(signs, 1)), Fraction(0)
    )


def test_rational_sum_guard_precedes_arithmetic():
    # 2^62 has 63 bits: just enough terms to pass the budget by one term
    ns = [1 << 62] * (DEFAULT_LCM_BIT_BUDGET // 63 + 1)
    with pytest.raises(ResourceBudgetError):
        rational_sum(ns, [1] * len(ns))
    assert rational_sum(ns[:3], [1, 1, -1]) == Fraction(1, 1 << 62)


@PROPERTY_SETTINGS
@given(signed_supports(), st.integers(1, 120))
def test_rounded_sum_contains_exact(case, bits):
    ns, signs = case
    bf = unit_sum(ns, bits, signs)
    exact = sum((Fraction(s, n) for n, s in zip(ns, signs)), Fraction(0))
    assert bf.scale_bits == bits and bf.contains(exact)
    assert bf.err_ulps == sum(1 for n in ns if (1 << bits) % n)
    assert bf.mantissa == sum(s * _round_nearest(1 << bits, n)[0] for n, s in zip(ns, signs))


@PROPERTY_SETTINGS
@given(signed_supports(), st.integers(1, 56))
def test_unit_sum_branches_agree(case, bits):
    ns, signs = case
    if max(len(ns), 1) << bits >= 1 << 63:  # only the loop applies
        return
    assert unit_sum(ns, bits, signs) == _unit_sum_loop(ns, [s > 0 for s in signs], bits)
    units, inexact = rounded_units(ns, bits)
    assert units.tolist() == [_round_nearest(1 << bits, n)[0] for n in ns]
    assert inexact.tolist() == [bool((1 << bits) % n) for n in ns]


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 10**30), max_size=8))
def test_signed_subset_sums_bit_convention(weights):
    sums = _half_sums(np.array(weights, dtype=object))
    assert sums.dtype == object and len(sums) == 1 << len(weights)
    for index, total in enumerate(sums):
        assert total == sum(-w if (index >> j) & 1 else w for j, w in enumerate(weights))


@PROPERTY_SETTINGS
@given(st.fractions(min_value=Fraction(1, 10**40), max_value=10**40), st.integers(1, 20))
def test_sci_brackets_the_value(value, sig):
    low, high = Fraction(_sci(value, sig)), Fraction(_sci(value, sig, round_up=True))
    assert low <= value <= high
    assert len(_sci(value, sig, round_up=True).split("e")[0].replace(".", "")) == sig
    assert high - low <= 2 * value * Fraction(10) ** (1 - sig)
