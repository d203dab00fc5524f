import math
from fractions import Fraction

import numpy as np
import pytest

from harmsum.numerics import (
    MAX_PRECISION_BITS,
    BigFixed,
    Comparison,
    compare_to_threshold,
    default_precision,
    exact_rational_sum,
    rational_sum,
    signed_harmonic_sum,
    unit_fraction,
    unit_sum,
    verify_abs_below,
)
from harmsum.support import SignSequence, SupportSet


def test_unit_fraction_examples():
    assert unit_fraction(2, 64) == BigFixed(1 << 63, 64, 0)
    assert unit_fraction(1, 8) == BigFixed(256, 8, 0)
    uf = unit_fraction(3, 8)
    assert uf.mantissa == 85 and uf.err_ulps == 1
    with pytest.raises(ValueError):
        unit_fraction(0, 8)


def test_unit_sum_counts_inexact_terms():
    h100 = sum(Fraction(1, k) for k in range(1, 101))
    assert unit_sum(range(1, 101), 64).contains(h100)
    # at 40 bits or fewer too, each 1/m is rounded to nearest and only the
    # 93 inexact terms (all but the 7 powers of two) count toward the error
    low = unit_sum(range(1, 101), 32)
    assert low.contains(h100) and low.err_ulps == 93


def test_signed_harmonic_sum_examples():
    one = SignSequence(SupportSet([1]), [1])
    assert signed_harmonic_sum(one, 32).value_fraction() == 1
    half = SignSequence(SupportSet([1, 2]), [1, -1])
    assert signed_harmonic_sum(half, 32).value_fraction() == Fraction(1, 2)
    alt = SignSequence(SupportSet([1, 2, 3, 4]), [1, -1, 1, -1])
    bf = signed_harmonic_sum(alt, 64)
    assert bf.contains(Fraction(7, 12))
    empty = SignSequence(SupportSet([]), [])
    z = signed_harmonic_sum(empty, 16)
    assert z.mantissa == 0 and z.err_ulps == 0


def test_exact_rational_sum_examples():
    all_plus = SignSequence(SupportSet.interval(1, 6), [1] * 6)
    assert exact_rational_sum(all_plus) == Fraction(49, 20)
    zero = SignSequence(SupportSet([1, 2, 3, 6]), [1, -1, -1, -1])
    assert exact_rational_sum(zero) == 0
    # denominator always divides lcm of the support
    s = exact_rational_sum(SignSequence(SupportSet.interval(1, 10), [1] * 10))
    assert 2520 % s.denominator == 0


def test_exact_sum_permutation_invariant():
    rng = np.random.default_rng(11)
    vals = rng.choice(np.arange(1, 60), size=12, replace=False)
    signs = rng.choice([-1, 1], size=12)
    order = np.argsort(vals)
    a = exact_rational_sum(SignSequence(SupportSet(vals[order]), signs[order]))
    rng.shuffle(order)  # the raw terms in another order
    b = rational_sum(vals[order], signs[order])
    assert a == b


def test_compare_to_threshold_examples():
    def bf(num, den, bits, err=0):
        v = BigFixed.from_fraction(Fraction(num, den), bits)
        return BigFixed(v.mantissa, bits, err)

    assert compare_to_threshold(bf(1, 2, 20), bf(1, 1, 20)) is Comparison.BELOW
    assert compare_to_threshold(bf(1, 1, 20), bf(1, 2, 20)) is Comparison.ABOVE
    v = BigFixed(0, 20, 1 << 10)  # 0 +/- 2^-10
    eta = BigFixed(1 << 9, 20, 0)  # exactly 2^-11
    assert compare_to_threshold(v, eta) is Comparison.INDETERMINATE


def test_interval_soundness_random():
    rng = np.random.default_rng(2)
    for _ in range(300):
        size = int(rng.integers(1, 9))
        ns = rng.choice(np.arange(1, 50), size=size, replace=False)
        signs = rng.choice([-1, 1], size=size)
        seq = SignSequence(SupportSet(np.sort(ns)), signs[np.argsort(ns)])
        exact = exact_rational_sum(seq)
        widths = []
        for bits in (32, 64, 128):
            bf = signed_harmonic_sum(seq, bits)
            assert bf.contains(exact)
            assert bf.err_ulps <= size
            widths.append(bf.err_fraction())
        # raising precision never widens the interval
        assert widths[0] >= widths[1] >= widths[2]


def test_arithmetic_and_error_propagation():
    a = unit_fraction(3, 32)
    b = unit_fraction(7, 32)
    assert a.contains(Fraction(1, 3)) and b.contains(Fraction(1, 7))


def test_rescale_exact():
    a = unit_fraction(3, 16)
    up = a.rescale(48)
    assert up.value_fraction() == a.value_fraction()
    assert up.err_fraction() == a.err_fraction()
    with pytest.raises(ValueError):
        up.rescale(16)


def test_decimal_serialization():
    v = BigFixed.from_fraction(Fraction(1, 3), 64)
    text = v.to_decimal_string()
    assert text.startswith("3.3333333333333") and "e-1" in text
    assert "±" in text
    exact = BigFixed.from_fraction(Fraction(1, 2), 8)
    assert "(exact)" in exact.to_decimal_string()
    tiny = BigFixed.from_fraction(Fraction(1, 10**20), 128)
    assert "e-20" in tiny.to_decimal_string()


def test_default_precision_resolves_comparisons():
    eta = Fraction(1, 10**10)
    bits = default_precision(1000, eta)
    # err of a 1000-term sum stays below eta/2 at this precision
    assert Fraction(1000, 1 << bits) < eta / 2



def test_default_precision_reference_and_value():
    ref = Fraction(1, 10**15)
    for eta in (None, Fraction(0)):
        assert default_precision(1000, eta) == default_precision(1000, ref)
        # a nonzero value below the reference lowers it; zero does not
        assert default_precision(1000, eta, Fraction(-1, 10**20)) == default_precision(
            1000, Fraction(1, 10**20)
        )
        assert default_precision(1000, eta, Fraction(0)) == default_precision(1000, ref)
    assert default_precision(1000, Fraction(1, 10)) < default_precision(1000, ref)


def test_verify_abs_below_escalates():
    met, _, bits = verify_abs_below(Fraction(1, 10**30), Fraction(1, 10**29), start_bits=32)
    assert met and bits == 128
    met, _, bits = verify_abs_below(Fraction(1, 10**29), Fraction(1, 10**30), start_bits=32)
    assert not met and bits == 128
    met, _, bits = verify_abs_below(Fraction(1, 7), Fraction(1, 7), start_bits=32)
    assert met and bits == MAX_PRECISION_BITS  # non-strict contract at exact equality
