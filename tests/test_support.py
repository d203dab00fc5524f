import math
from fractions import Fraction

import numpy as np
import pytest

from harmsum.numerics import DEFAULT_LCM_BIT_BUDGET, ResourceBudgetError
from harmsum.support import SignSequence, SupportSet


def test_interval_and_membership():
    s = SupportSet.interval(3, 7)
    assert list(s) == [3, 4, 5, 6, 7]
    assert 5 in s and 8 not in s
    assert s.min() == 3 and s.max() == 7
    assert len(SupportSet.interval(9, 5)) == 0


def test_residue_classes():
    s = SupportSet.residues(3, [1, 2], 10)
    assert list(s) == [1, 2, 4, 5, 7, 8, 10]


def test_spec_parsing(tmp_path):
    assert SupportSet.from_spec("4..6") == SupportSet([4, 5, 6])
    assert SupportSet.from_spec("mod 4: 1,3", 12) == SupportSet([1, 3, 5, 7, 9, 11])
    path = tmp_path / "set.txt"
    path.write_text("7\n3\n11\n")
    assert SupportSet.from_spec(f"@{path}") == SupportSet([3, 7, 11])
    with pytest.raises(ValueError):
        SupportSet.from_spec("nonsense")
    with pytest.raises(ValueError):
        SupportSet.from_spec("mod 3: 1")  # residue sets need a limit


def test_unsorted_input_with_duplicates_is_sorted_and_unique():
    s = SupportSet(np.array([9, 2, 5, 2, 9, 1], dtype=np.int64))
    assert s.values.tolist() == [1, 2, 5, 9]
    assert SupportSet([3, 3]).values.tolist() == [3]
    sorted_in = np.arange(1, 6, dtype=np.int64)
    s = SupportSet(sorted_in)
    sorted_in[0] = 7  # the support holds its own copy
    assert s.values.tolist() == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        SupportSet([[1, 2]])
    with pytest.raises(ValueError):
        SupportSet([3, 0, 1])


def test_restrict_difference_ranges():
    s = SupportSet.interval(1, 10)
    assert s.restrict(4, 6) == SupportSet([4, 5, 6])
    d = SupportSet([1, 4, 5, 6, 8, 9, 10])
    assert d.to_ranges() == [[1, 1], [4, 6], [8, 10]]
    assert SupportSet.from_ranges(d.to_ranges()) == d


def test_from_ranges_sized_before_allocation():
    assert len(SupportSet.from_ranges([[5, 4], [1, 3]])) == 3
    # one range past the lcm budget, and two that pass it only together
    for ranges in ([[1, 2**40]], [[1, DEFAULT_LCM_BIT_BUDGET // 2 + 1]] * 2):
        with pytest.raises(ResourceBudgetError):
            SupportSet.from_ranges(ranges)


def test_reciprocal_sum_and_lcm():
    s = SupportSet([2, 3, 6])
    assert s.reciprocal_sum() == Fraction(1)
    den = math.lcm(*s.values.tolist())
    assert den == 6 and s.reciprocal_sum() == Fraction(sum(den // n for n in (2, 3, 6)), den)


def test_sign_sequence_basics():
    seq = SignSequence(SupportSet([1, 2, 3]), [1, -1, -1])
    assert seq.sign_of(1) == 1 and seq.sign_of(3) == -1
    assert list(seq.items()) == [(1, 1), (2, -1), (3, -1)]
    with pytest.raises(ValueError):
        SignSequence(SupportSet([1, 2]), [1, 2])
    with pytest.raises(KeyError):
        seq.sign_of(9)


def test_sign_sequence_merge_disjoint_only():
    a = SignSequence(SupportSet([1, 4]), [1, -1])
    b = SignSequence(SupportSet([2]), [-1])
    merged = a.merge(b)
    assert list(merged.items()) == [(1, 1), (2, -1), (4, -1)]
    with pytest.raises(ValueError):
        merged.merge(b)


def test_rle_round_trip():
    rng = np.random.default_rng(5)
    sup = SupportSet(np.sort(rng.choice(np.arange(1, 400), size=90, replace=False)))
    seq = SignSequence(sup, rng.choice([-1, 1], size=90).astype(np.int8))
    back = SignSequence.from_obj(seq.to_obj())
    assert back == seq
