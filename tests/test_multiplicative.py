import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmsum import multiplicative as mult
from harmsum.constructor import InfeasibleError
from harmsum.numerics import BigFixed, Comparison, compare_to_threshold, rational_sum, unit_sum
from harmsum.sieve import SieveTable
from harmsum.support import SupportSet


def test_evaluate_matches_liouville(sieve_small):
    fn = mult.MultiplicativeFn(sieve_small, "liouville")
    lam = sieve_small.liouville_table()
    rng = np.random.default_rng(30)
    for n in rng.integers(1, 10_000, size=400):
        assert fn.evaluate(int(n)) == lam[int(n)]
    vals = fn.values_range()
    assert np.array_equal(vals[1:10_001], lam[1:10_001])


def test_evaluate_override_and_f1():
    table = SieveTable(100)
    fn = mult.MultiplicativeFn(table, "liouville", {2: 1})
    assert fn.evaluate(1) == 1
    assert fn.evaluate(12) == -1  # f(2)^2 f(3) = -1
    assert fn.evaluate(6) == -1  # (+1)(-1)
    assert fn.evaluate(8) == 1


def test_override_rejected_at_composite():
    table = SieveTable(100)
    with pytest.raises(ValueError):
        mult.MultiplicativeFn(table, "liouville", {6: 1})
    with pytest.raises(ValueError):
        mult.MultiplicativeFn(table, "liouville", {5: 2})
    for bad in ({1: -1}, {0: 1}, {101: 1}, {-7: 1}, {2**70: 1}):
        with pytest.raises(ValueError, match="override at non-prime"):
            mult.MultiplicativeFn(table, "one", bad)


@pytest.mark.parametrize(
    "rule, signs",
    [
        ("liouville", [-1, -1, -1, -1, -1, -1]),
        ("one", [1, 1, 1, 1, 1, 1]),
        ("chi3_star", [-1, -1, -1, 1, -1, 1]),
    ],
)
def test_seed_rule_signs_at_small_primes(rule, signs):
    # evaluate and values_range both read the rule, so pin it independently
    fn = mult.MultiplicativeFn(SieveTable(100), rule)
    assert [fn.sign_at_prime(p) for p in (2, 3, 5, 7, 11, 13)] == signs


def test_values_range_matches_evaluate_with_overrides(sieve_small):
    for rule in sorted(mult.SEED_RULES):
        fn = mult.MultiplicativeFn(sieve_small, rule, {2: 1, 3: 1, 7: -1, 19_997: -1})
        vals = fn.values_range()
        assert vals[0] == 0
        for n in list(range(1, 2000)) + list(range(19_000, 20_001)):
            assert vals[n] == fn.evaluate(n)


def test_complete_multiplicativity_random(sieve_small):
    fn = mult.MultiplicativeFn(sieve_small, "chi3_star", {7: 1, 11: -1})
    assert mult.multiplicativity_check(fn, 20_000, seed=5)


def test_partial_sum_and_log_mean(sieve_small):
    ones = mult.MultiplicativeFn(sieve_small, "one")
    assert ones.partial_sum(100) == 100
    h100 = sum(Fraction(1, k) for k in range(1, 101))
    assert ones.log_mean_exact(100) == h100
    lam = mult.MultiplicativeFn(sieve_small, "liouville")
    assert lam.partial_sum(2) == 0


def test_log_mean_incremental_consistency(sieve_small):
    fn = mult.MultiplicativeFn(sieve_small, "liouville", {3: 1})
    for n in (50, 51, 52):
        diff = fn.log_mean_exact(n) - fn.log_mean_exact(n - 1)
        assert diff == Fraction(fn.evaluate(n), n)


def test_liouville_log_mean_small_at_million(sieve_million):
    lam = mult.MultiplicativeFn(sieve_million, "liouville")
    bf = unit_sum(range(1, 1_000_001), 40, lam.values_range()[1:])
    lo, hi = bf.interval()
    assert max(abs(lo), abs(hi)) <= Fraction(1, 100)


def test_chi3_star_identity(sieve_small):
    report = mult.chi3_star_check(8, sieve_small)
    assert report.ok
    for k, m, expected in report.values:
        assert m == expected == (-1) ** k + 1


def test_crossing_on_synthetic_negative_prefix(sieve_small):
    # Liouville's lambda pushes the partial logarithmic sums down as far as
    # a completely multiplicative +/-1 function can this early, and they
    # still stay positive up to 20 000.
    fn = mult.MultiplicativeFn(sieve_small, "liouville")
    vals = fn.values_range()
    inv = np.zeros(len(vals))
    inv[1:] = 1.0 / np.arange(1, len(vals))
    partial = np.cumsum(vals * inv)
    assert partial[1:20_001].min() > 0


def test_pipeline_preconditions(sieve_small):
    # shapes that do not fit the pipeline are usage errors
    with pytest.raises(ValueError, match="each scale must be >= 8x"):
        mult.log_mean_pipeline(sieve_small, scales=[2000, 4000])  # ratio < 8
    with pytest.raises(ValueError, match="first scale must exceed"):
        mult.log_mean_pipeline(sieve_small, scales=[40], c_cross=6)  # below (C+1)^2
    # Delta = -L(lambda, 6) < 0: strict mode refuses to run, an outcome
    with pytest.raises(InfeasibleError, match="is not positive"):
        mult.log_mean_pipeline(sieve_small, scales=[2000, 16000])


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 12).flatmap(
    lambda c: st.tuples(st.integers(max(10, (c + 1) ** 2 + 1), 10**5), st.just(c))
))
def test_block_intervals_need_no_filter(sieve_million, n_c):
    # every mid-block prime p has n // p == C, and the top block holds a prime
    # (Bertrand), so the pipeline takes both blocks' primes as they come
    n, c = n_c
    (mid_lo, mid_hi), (top_lo, top_hi) = mult._block_intervals(n, c)
    assert all(n // p == c for p in sieve_million.primes_in(mid_lo, mid_hi))
    assert len(sieve_million.primes_in(top_lo, top_hi))


def test_pipeline_best_effort_floor(sieve_small):
    fn, state = mult.log_mean_pipeline(
        sieve_small, scales=[2000, 16000], allow_nonpositive_delta=True
    )
    assert state.delta == -Fraction(1) - sum(
        Fraction((-1) ** sum(e for _, e in sieve_small.factorize(n)), n) for n in range(2, 7)
    )
    lam = mult.MultiplicativeFn(sieve_small, "liouville")
    for rep in state.scale_reports:
        assert rep.identity_ok
        # the flip budget is short by exactly L(lambda, N): the construction
        # lands on the unconstrained multiplicative floor
        floor = abs(lam.log_mean_exact(rep.n_scale))
        assert rep.achieved_exact == floor
        assert not rep.met
    assert mult.locality_check(fn, lam, state.modified_intervals, 16000)
    assert mult.multiplicativity_check(fn, 20_000, seed=6)


def test_locality_check_sees_an_override_off_the_blocks():
    table = SieveTable(100)
    lam = mult.MultiplicativeFn(table, "liouville")
    fn = lam.with_overrides({7: 1})
    assert not mult.locality_check(fn, lam, [[[10, 50]]], 100)
    assert mult.locality_check(fn, lam, [[[5, 7]]], 100)


def test_pipeline_locality_and_blocks(sieve_small):
    _, state = mult.log_mean_pipeline(
        sieve_small, scales=[2000, 16000], allow_nonpositive_delta=True
    )
    (mid0, top0), (mid1, top1) = state.modified_intervals
    assert top0 == [1000, 2000] and mid0 == [285, 333]
    assert top1 == [8000, 16000] and mid1 == [2285, 2666]
    # block intervals are pairwise disjoint across scales
    assert mid1[0] >= top0[1]


def test_pipeline_achieved_interval_decides_met(sieve_small):
    _, state = mult.log_mean_pipeline(
        sieve_small, scales=[2000, 16000], allow_nonpositive_delta=True
    )
    for r in state.scale_reports:
        assert r.achieved.contains(r.achieved_exact)
        eta = BigFixed.from_fraction(r.eta_target, r.achieved.scale_bits)
        side = Comparison.BELOW if r.met else Comparison.ABOVE
        assert compare_to_threshold(r.achieved, eta) is side


def _full_sum(fn: mult.MultiplicativeFn, ms) -> Fraction:
    """Exact sum of f(m)/m over ms, in one rational_sum call."""
    ms = np.asarray(ms)
    return rational_sum(ms, fn.values_range()[ms])


@pytest.mark.parametrize("overrides", [None, {2: 1, 7: -1}])
@pytest.mark.parametrize("rule", sorted(mult.SEED_RULES))
def test_pipeline_split_sums_match_full_sums(sieve_small, rule, overrides):
    """E, the identity check and |L(f, N)| agree with full sums over [1, N]
    and over the untouched m, taken with the function at the start and at
    the end of each scale."""
    scales, c = [2000, 16000], 6
    fn, state = mult.log_mean_pipeline(
        sieve_small,
        rule,
        overrides,
        c_cross=c,
        scales=scales,
        max_free=30,
        allow_nonpositive_delta=True,
    )
    l_c = mult.MultiplicativeFn(sieve_small, rule, overrides).log_mean_exact(c)
    for rep, prev in zip(state.scale_reports, [0] + scales):
        n = rep.n_scale
        # A scale starts from the seed and every override up to the last scale.
        below = {p: s for p, s in fn.overrides.items() if p <= prev}
        start = mult.MultiplicativeFn(sieve_small, rule, {**(overrides or {}), **below})
        (mid_lo, mid_hi), (top_lo, top_hi) = mult._block_intervals(n, c)
        mid = [int(p) for p in sieve_small.primes_in(mid_lo, mid_hi) if n // int(p) == c]
        top = [int(p) for p in sieve_small.primes_in(top_lo, top_hi)]
        ms = np.arange(1, n + 1)
        untouched = ms[(ms[:, None] % np.array(mid + top)[None, :] != 0).all(axis=1)]
        e_split = (
            _full_sum(start, range(1, n + 1))
            - _full_sum(start, top)
            - l_c * _full_sum(start, mid)
        )
        e_masked = _full_sum(start, untouched)
        assert rep.e_value == e_split
        assert rep.identity_ok == (e_split == e_masked) and rep.identity_ok
        assert rep.achieved_exact == abs(_full_sum(fn, range(1, n + 1)))


def test_pipeline_guard_resums_e_when_values_move_off_the_blocks(sieve_small, monkeypatch):
    """A with_overrides that also sets f(3) = +1, a prime outside every block,
    changes f at untouched m: the scale notes it, the final identity fails,
    and |L(f, N)| is still the full sum."""
    with_overrides = mult.MultiplicativeFn.with_overrides
    monkeypatch.setattr(
        mult.MultiplicativeFn,
        "with_overrides",
        lambda self, extra: with_overrides(self, {**extra, 3: 1}),
    )
    fn, state = mult.log_mean_pipeline(
        sieve_small, scales=[2000], max_free=30, allow_nonpositive_delta=True
    )
    (rep,) = state.scale_reports
    assert fn.sign_at_prime(3) == 1
    assert "values changed off the block multiples; E re-summed" in rep.notes
    assert "post-construction decomposition identity failed" in rep.notes
    assert rep.identity_ok and not rep.feasible
    assert rep.achieved_exact == abs(_full_sum(fn, range(1, 2001)))


def test_pipeline_takes_the_top_sum_from_a_feasible_flip(sieve_small, monkeypatch):
    """No desk-scale seed makes the flip feasible, so a stand-in flip returns
    alternating signs with their true error: the top block's sum then comes
    from that error. The mid block's target (E + sum_top)/Delta, the final
    identity and |L(f, N)| must match sums taken directly."""
    from harmsum.constructor import FlipResult
    from harmsum.support import SignSequence

    def feasible_flip(top, alpha):
        signs = np.where(np.arange(len(top)) % 2 == 0, 1, -1)
        top_sum = rational_sum(top.values, signs)
        flipped.append(top_sum)
        return FlipResult(True, SignSequence(top, signs), top_sum - alpha)

    def recording_mitm(sup, x0, **kwargs):
        x0s.append(x0)
        return mitm_optimize(sup, x0, **kwargs)

    mitm_optimize = mult.mitm_optimize
    monkeypatch.setattr(mult, "flip_to_target", feasible_flip)
    monkeypatch.setattr(mult, "mitm_optimize", recording_mitm)
    for scales in ([2000], [2000, 16000]):
        flipped, x0s = [], []
        fn, state = mult.log_mean_pipeline(
            sieve_small, scales=scales, max_free=20, allow_nonpositive_delta=True
        )
        for i, rep in enumerate(state.scale_reports):
            assert rep.flip.feasible and rep.identity_ok
            assert x0s[2 * i] == (rep.e_value + flipped[i]) / state.delta
            assert "post-construction decomposition identity failed" not in rep.notes
            assert rep.achieved_exact == abs(_full_sum(fn, range(1, rep.n_scale + 1)))


def test_pipeline_sums_each_scale_about_once(sieve_small, monkeypatch):
    """Each scale's exact sums cover fewer than 1.5 N terms: [1, N] once,
    split into untouched m and block multiples, the block multiples again at
    the end, and the block primes a few times. A second full sum of [1, N]
    per scale would pass 2 N. Calls are assigned to the smallest scale that
    holds their largest n. The top block's primes are summed whole at most
    once per scale: the flip's error and the refined free primes give the
    later values."""
    scales = [2000, 16000]
    terms = dict.fromkeys(scales, 0)
    top_sums = dict.fromkeys(scales, 0)
    tops = {n: sieve_small.primes_in(n // 2, n).values for n in scales}
    counted = mult.rational_sum

    def counting(ns, signs):
        ns = np.asarray(ns)
        if len(ns) and ns.max() > 6:  # skip L(seed, C)
            scale = next(n for n in scales if ns.max() <= n)
            terms[scale] += len(ns)
            top_sums[scale] += np.array_equal(ns, tops[scale])
        return counted(ns, signs)

    monkeypatch.setattr(mult, "rational_sum", counting)
    mult.log_mean_pipeline(
        sieve_small, scales=scales, max_free=30, allow_nonpositive_delta=True
    )
    for n in scales:
        assert n < terms[n] < 1.5 * n
        assert top_sums[n] <= 1

