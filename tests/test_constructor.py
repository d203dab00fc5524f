import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmsum import constructor as ctor
from harmsum.numerics import exact_rational_sum
from harmsum.sieve import SieveRangeError
from harmsum.support import SupportSet

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)
# Each set's signed reciprocals cancel exactly, e.g. 1 - 1/2 - 1/3 - 1/6 = 0,
# and so do its multiples, so partial sums of unions of them hit 0 often.
EGYPTIAN = ((1, 2, 3, 6), (2, 3, 6), (2, 4, 6, 12), (3, 4, 12), (2, 3, 7, 42), (4, 5, 20),
            (6, 9, 18))


def _reference_greedy(ns: list[int], start: Fraction) -> list[int]:
    """The greedy over exact integer weights lcm / n: -1 while the error is
    positive, +1 otherwise."""
    den = math.lcm(start.denominator, *ns)
    e = start.numerator * (den // start.denominator)
    signs = []
    for n in ns:
        s = -1 if e > 0 else 1
        e += s * (den // n)
        signs.append(s)
    return signs


def _reference_flip(ns: list[int], alpha: Fraction):
    """(signs, None) or (None, deficit): +1 until the prefix sum first exceeds
    |alpha|, then the greedy on the rest; negated when alpha < 0."""
    cum = Fraction(0)
    for j, n in enumerate(ns):
        cum += Fraction(1, n)
        if cum > abs(alpha):
            signs = [1] * (j + 1) + _reference_greedy(ns[j + 1 :], cum - abs(alpha))
            return (signs if alpha >= 0 else [-s for s in signs]), None
    return None, abs(alpha) - cum


@st.composite
def tie_heavy_sets(draw):
    ns = set(draw(st.lists(st.integers(1, 300), max_size=8)))
    for base in draw(st.lists(st.sampled_from(EGYPTIAN), min_size=1, max_size=4)):
        k = draw(st.integers(1, 6))
        ns.update(k * b for b in base)
    return sorted(ns)


@st.composite
def greedy_cases(draw):
    """A tie-heavy set and a start: 0, a small rational, or minus a signed
    partial sum of the set, which the greedy then meets exactly."""
    ns = draw(tie_heavy_sets())
    kind = draw(st.sampled_from(["zero", "fraction", "partial"]))
    if kind == "zero":
        return ns, Fraction(0)
    if kind == "fraction":
        return ns, draw(st.fractions(-2, 2, max_denominator=60))
    j = draw(st.integers(0, len(ns)))
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=j, max_size=j))
    return ns, -sum((Fraction(s, n) for n, s in zip(ns, signs)), Fraction(0))


def test_greedy_bounded_examples():
    seq, total = ctor.greedy_bounded(SupportSet([1]))
    assert list(seq.items()) == [(1, 1)] and total == 1
    seq, total = ctor.greedy_bounded(SupportSet([1, 2]))
    assert list(seq.items()) == [(1, 1), (2, -1)] and total == Fraction(1, 2)


def test_greedy_bounded_prefix_invariant():
    _, _, trace = ctor.greedy_bounded(SupportSet.interval(1, 1000), with_trace=True)
    assert all(abs(t) <= 1 for t in trace)
    rng = np.random.default_rng(21)
    for _ in range(50):
        size = int(rng.integers(1, 40))
        ns = np.sort(rng.choice(np.arange(1, 2000), size=size, replace=False))
        _, _, trace = ctor.greedy_bounded(SupportSet(ns), with_trace=True)
        assert all(abs(t) <= 1 for t in trace)


@PROPERTY_SETTINGS
@given(greedy_cases(), st.one_of(st.integers(1, 24), st.just(ctor.GREEDY_SCALE_BITS)))
@example(([1, 2, 3, 6, 7], Fraction(0)), ctor.GREEDY_SCALE_BITS)  # 1 - 1/2 - 1/3 - 1/6 = 0
def test_certified_greedy_matches_exact_weights(case, bits):
    # a few bits force the exact re-anchoring at most steps, 128 almost never
    ns, start = case
    assert ctor._certified_greedy(ns, start, bits) == _reference_greedy(ns, start)


@PROPERTY_SETTINGS
@given(greedy_cases())
def test_greedy_values_derived_from_signs(case):
    ns, start = case
    a = SupportSet(ns)
    seq, total, trace = ctor.greedy_bounded(a, with_trace=True)
    assert seq.signs.tolist() == _reference_greedy(ns, Fraction(0))
    assert total == exact_rational_sum(seq) == trace[-1]
    seq, total = ctor.greedy_toward(a, -start)
    assert seq.signs.tolist() == _reference_greedy(ns, start)
    assert total == exact_rational_sum(seq)


@PROPERTY_SETTINGS
@given(st.data())
def test_flip_matches_reference_at_exact_prefix_sums(data):
    ns = data.draw(tie_heavy_sets())
    # |alpha| equal to a prefix sum makes the crossing test an exact tie;
    # j = len(ns) puts alpha at the full sum, the infeasible boundary
    j = data.draw(st.integers(0, len(ns)))
    alpha = sum((Fraction(1, n) for n in ns[:j]), Fraction(0)) + data.draw(
        st.sampled_from([0, 0, Fraction(1, 10**30), -Fraction(1, 10**30)])
    )
    alpha *= data.draw(st.sampled_from([1, -1]))
    res = ctor.flip_to_target(SupportSet(ns), alpha)
    signs, deficit = _reference_flip(ns, alpha)
    assert res.feasible == (signs is not None)
    if res.feasible:
        assert res.signs.signs.tolist() == signs
        assert res.error == exact_rational_sum(res.signs) - alpha
        assert abs(res.error) <= Fraction(1, ns[0])
    else:
        assert res.signs is None and res.deficit == deficit >= 0


def test_flip_examples():
    res = ctor.flip_to_target(SupportSet([2]), Fraction(2, 5))
    assert res.feasible and list(res.signs.items()) == [(2, 1)]
    assert res.error == Fraction(1, 10)
    res = ctor.flip_to_target(SupportSet([2, 3]), Fraction(0))
    assert list(res.signs.items()) == [(2, 1), (3, -1)]
    assert abs(res.error) == Fraction(1, 6)
    res = ctor.flip_to_target(SupportSet([3, 4, 5]), Fraction(-1, 2))
    assert res.feasible and abs(res.error) <= Fraction(1, 3)
    # exhaustive over the 8 sign vectors confirms the contract is attainable
    best = min(
        abs(Fraction(s3, 3) + Fraction(s4, 4) + Fraction(s5, 5) + Fraction(1, 2))
        for s3 in (-1, 1)
        for s4 in (-1, 1)
        for s5 in (-1, 1)
    )
    assert abs(res.error) >= best


def test_flip_infeasible_outcome():
    res = ctor.flip_to_target(SupportSet([10, 11]), Fraction(3, 2))
    assert not res.feasible
    assert res.deficit == Fraction(3, 2) - Fraction(1, 10) - Fraction(1, 11)
    assert res.signs is None


def test_flip_contract_random():
    rng = np.random.default_rng(22)
    for _ in range(400):
        lo = int(rng.integers(2, 400))
        hi = lo + int(rng.integers(1, 60))
        s = SupportSet.interval(lo, hi)
        total = s.reciprocal_sum()
        alpha = Fraction(int(rng.integers(-999, 1000)), 1000) * total
        if abs(alpha) >= total:
            continue
        res = ctor.flip_to_target(s, alpha)
        assert res.feasible
        check = exact_rational_sum(res.signs) - alpha
        assert check == res.error
        assert abs(res.error) <= Fraction(1, s.min())


def test_flip_error_bound_chain():
    # After the crossing index the running error never exceeds the crossing
    # step 1/n_j0, and the final error is within 1/max(S) for contiguous S.
    s = SupportSet.interval(5, 64)
    res = ctor.flip_to_target(s, Fraction(1, 2))
    assert abs(res.error) <= Fraction(1, 64)


def test_alternating_prefix():
    seq, alpha = ctor.alternating_prefix(64)
    assert alpha == Fraction(7, 12)
    assert list(seq.items()) == [(1, 1), (2, -1), (3, 1), (4, -1)]
    _, alpha = ctor.alternating_prefix(89)  # J = 3
    assert alpha == Fraction(37, 60)
    _, alpha = ctor.alternating_prefix(10_000)
    assert Fraction(69, 100) < alpha < Fraction(6935, 10000)
    with pytest.raises(ValueError):
        ctor.alternating_prefix(20)


def test_small_prefix_construction():
    for n in (64, 1024):
        rep = ctor.small_prefix_construction(n)
        assert rep.achieved_exact <= Fraction(2, n)
        assert rep.signs.support == SupportSet.interval(1, n // 2)
        assert abs(exact_rational_sum(rep.signs)) == rep.achieved_exact


def test_mitm_trivial_and_exact():
    rep = ctor.mitm_optimize(SupportSet([2]), Fraction(1, 2))
    assert rep.achieved_exact == 0
    rep = ctor.mitm_optimize(SupportSet([2, 3]), Fraction(1, 6))
    assert rep.achieved_exact == 0
    assert rep.method == "MITM"


def test_mitm_matches_exhaustive_oracle():
    rng = np.random.default_rng(23)
    for _ in range(60):
        size = int(rng.integers(1, 13))
        ns = np.sort(rng.choice(np.arange(1, 21), size=size, replace=False))
        a = SupportSet(ns)
        x0 = Fraction(int(rng.integers(0, 1001)), 1000 * 20)
        rep = ctor.mitm_optimize(a, x0, max_free=52)
        den = a.lcm() * x0.denominator
        sums = [0]
        for n in a.values:
            w = den // int(n)
            sums = [s + w for s in sums] + [s - w for s in sums]
        t = x0.numerator * (den // x0.denominator)
        best = min(abs(s - t) for s in sums)
        assert rep.achieved_exact == Fraction(best, den)


@PROPERTY_SETTINGS
@given(st.integers(1, 10**6), st.integers(1, 60))
@example(20_000, 59)
def test_spread_indices_distinct_ascending(n_items, count):
    idx = ctor._spread_indices(n_items, count).tolist()
    assert len(idx) == min(count, n_items)
    assert idx[0] == 0 and all(i < j for i, j in zip(idx, idx[1:]))
    if len(idx) > 1:
        assert idx[-1] == n_items - 1


def test_mitm_respects_max_free_cap():
    with pytest.raises(Exception):
        ctor.mitm_optimize(SupportSet.interval(1, 100), Fraction(0), max_free=53)


def test_randomized_search():
    a = SupportSet([2, 3])
    rep = ctor.randomized_search(a, Fraction(1, 6), Fraction(1, 10**9), seed=3)
    assert rep.achieved_exact == 0  # exact hit 1/2 - 1/3 exists
    rep = ctor.randomized_search(a, Fraction(0), Fraction(10), seed=3, max_iters=10)
    assert rep.target_met and rep.details["best_found_at"] == 1
    r1 = ctor.randomized_search(a, Fraction(0), Fraction(1, 50), seed=11)
    r2 = ctor.randomized_search(a, Fraction(0), Fraction(1, 50), seed=11)
    assert r1.signs == r2.signs and r1.achieved_exact == r2.achieved_exact


def test_rough_basis_subset(sieve_small):
    n = 2000
    primes = sieve_small.primes_in(n // 2, n)
    basis = ctor.rough_basis_subset(primes, n, 0.2, sieve_small)
    assert basis.feasible
    assert basis.b == primes and basis.r == primes
    assert set(basis.smooth_of.values()) == {1}
    assert basis.k == 1 and basis.eps1 == 0.5


def test_rough_basis_dense_interval(sieve_small):
    n = 10_000
    a = SupportSet.interval(n // 2, n)
    basis = ctor.rough_basis_subset(a, n, 0.2, sieve_small)
    assert basis.feasible
    assert len(basis.r) >= n**0.8
    # unique-factorization invariant: b = r * smooth_of[r], with rough part r
    rng = np.random.default_rng(25)
    items = list(basis.smooth_of.items())
    y = int(n**basis.eps1)
    for idx in rng.integers(0, len(items), size=300):
        r, s = items[int(idx)]
        b = r * s
        assert b in basis.b
        sp = sieve_small.rough_smooth_split(b, y)
        assert sp.rough == r and sp.smooth == s


def _scalar_rough_basis(a, n_scale, eps0, sieve, eps1_floor=1.0 / 64):
    """rough_basis_subset by one rough_smooth_split per element, as a tuple of
    its fields (smooth_of as its items, in order)."""
    target = min(n_scale ** (1.0 - eps0), float(len(a)))
    eps1 = 0.5
    while eps1 >= eps1_floor:
        y = int(n_scale**eps1)
        pairs: dict[int, int] = {}
        for x in a.values.tolist():
            split = sieve.rough_smooth_split(x, y)
            if split.rough not in pairs or split.smooth < pairs[split.rough]:
                pairs[split.rough] = split.smooth
        if len(pairs) >= target:
            k = max((sieve.big_omega(r) for r in pairs if r > 1), default=1)
            note = "" if target == n_scale ** (1.0 - eps0) else "target capped at |A|"
            return (sorted(r * s for r, s in pairs.items()), sorted(pairs), list(pairs.items()),
                    eps1, max(k, 1), True, note)
        eps1 /= 2.0
    return [], [], [], eps1, 1, False, f"no eps1 >= {eps1_floor} reaches |R| >= N^(1-{eps0})"


def _basis_fields(basis):
    return (basis.b.values.tolist(), basis.r.values.tolist(), list(basis.smooth_of.items()),
            basis.eps1, basis.k, basis.feasible, basis.note)


@pytest.mark.parametrize("a, n", [
    (SupportSet.interval(1000, 2000), 2000),
    (SupportSet.interval(5000, 10_000), 10_000),
    (SupportSet([2, 3, 4, 8, 9, 16, 27, 19_997]), 20_000),
])
def test_rough_basis_matches_scalar_splits(sieve_small, a, n):
    for eps0 in (0.05, 0.2, 0.5):
        expected = _scalar_rough_basis(a, n, eps0, sieve_small)
        assert _basis_fields(ctor.rough_basis_subset(a, n, eps0, sieve_small)) == expected


# Random sets, with powers of 2 and 3 mixed in so that many elements share a
# rough part and some eps0 find no feasible eps1 above the floor.
@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(1, 20_000), min_size=1, max_size=300),
    st.lists(st.builds(lambda i, j: 2**i * 3**j, st.integers(0, 14), st.integers(0, 9)),
             max_size=40),
    st.integers(256, 20_000),
    st.floats(0.01, 0.99),
    st.sampled_from([1.0 / 64, 1.0 / 4]),
)
def test_rough_basis_matches_scalar_splits_random(sieve_small, values, smooth, n, eps0, floor):
    a = SupportSet([v for v in values + smooth if v <= 20_000])
    expected = _scalar_rough_basis(a, n, eps0, sieve_small, floor)
    with mock.patch.object(ctor, "EPS1_FLOOR", floor):
        assert _basis_fields(ctor.rough_basis_subset(a, n, eps0, sieve_small)) == expected


def test_rough_basis_out_of_range_raises(sieve_small):
    with pytest.raises(SieveRangeError):
        ctor.rough_basis_subset(SupportSet([5, 20_001]), 20_000, 0.2, sieve_small)


def test_dense_set_signs_small(sieve_small):
    rep = ctor.dense_set_signs(
        SupportSet.interval(1, 512),
        512,
        1.0,
        0.2,
        seed=2,
        sieve=sieve_small,
        max_free=34,
    )
    assert rep.target_met
    assert rep.achieved_exact == abs(exact_rational_sum(rep.signs))
    assert rep.details["theta_hat"] > 0
    assert rep.signs.support == SupportSet.interval(1, 512)


def test_dense_set_signs_density_error(sieve_small):
    sparse = SupportSet([2**k for k in range(1, 9)])
    with pytest.raises(ctor.DensityRequirementError):
        ctor.dense_set_signs(sparse, 256, 0.5, 0.2, seed=0, sieve=sieve_small)


def test_dense_set_signs_degenerate_prefix(sieve_small):
    # elements exist but none below delta*N/2
    a = SupportSet.interval(200, 512)
    with pytest.raises((ctor.InfeasibleError, ctor.DensityRequirementError)):
        ctor.dense_set_signs(a, 512, 0.9, 0.2, seed=0, sieve=sieve_small)


def test_upper_density_scales(sieve_small):
    evens = SupportSet.interval(1, 16_000).values
    a0 = SupportSet(evens[evens % 2 == 0])
    chain = ctor.upper_density_scales(a0, 0.4, 2, seed=4, sieve=sieve_small, max_free=30)
    assert len(chain.scales) == 2
    assert chain.scales[1] >= math.ceil(2 * chain.scales[0] / 0.4)
    # sign stability: earlier scales keep their signs in the final assignment
    first = chain.reports[0]
    for n, s in first.signs.items():
        assert chain.signs.sign_of(n) == s
    for rep, p in zip(chain.reports, chain.scales):
        assert rep.details["coarse_bound_met"]


def test_upper_density_scales_full_density(sieve_small):
    a0 = SupportSet.interval(1, 8192)
    chain = ctor.upper_density_scales(a0, 0.5, 2, seed=4, sieve=sieve_small, max_free=28)
    assert chain.scales[0] == 256 and chain.scales[1] == 1024  # ~4x growth
    assert not chain.exhausted


def test_achieved_exponent():
    assert ctor.achieved_exponent(Fraction(0), 100) == math.inf
    assert ctor.achieved_exponent(Fraction(2), 100) is None
    th = ctor.achieved_exponent(Fraction(1, 10**10), 4096)
    assert 0.3 < th < 0.5
