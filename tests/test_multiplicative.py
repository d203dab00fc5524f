import math
from fractions import Fraction

import numpy as np
import pytest

from harmsum import multiplicative as mult
from harmsum.numerics import Comparison
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


def test_complete_multiplicativity_random(sieve_small):
    fn = mult.MultiplicativeFn(sieve_small, "chi3_star", {7: 1, 11: -1})
    assert mult.multiplicativity_check(fn, 20_000, seed=5)


def test_partial_sum_and_log_mean(sieve_small):
    ones = mult.MultiplicativeFn(sieve_small, "one")
    assert ones.partial_sum(100) == 100
    h100 = sum(Fraction(1, k) for k in range(1, 101))
    assert ones.log_mean_exact(100) == h100
    assert ones.log_mean(100, 64).contains(h100)
    # at 40 bits or fewer too, each 1/m is rounded to nearest and only the
    # 93 inexact terms (all but the 7 powers of two) count toward the error
    low = ones.log_mean(100, 32)
    assert low.contains(h100) and low.err_ulps == 93
    lam = mult.MultiplicativeFn(sieve_small, "liouville")
    assert lam.partial_sum(2) == 0


def test_log_mean_incremental_consistency(sieve_small):
    fn = mult.MultiplicativeFn(sieve_small, "liouville", {3: 1})
    for n in (50, 51, 52):
        diff = fn.log_mean_exact(n) - fn.log_mean_exact(n - 1)
        assert diff == Fraction(fn.evaluate(n), n)
        lo = fn.log_mean(n, 64) - fn.log_mean(n - 1, 64)
        assert lo.contains(diff)


def test_liouville_log_mean_small_at_million(sieve_million):
    lam = mult.MultiplicativeFn(sieve_million, "liouville")
    bf = lam.log_mean(1_000_000, 40)
    lo, hi = bf.interval()
    assert max(abs(lo), abs(hi)) <= Fraction(1, 100)


def test_chi3_star_identity(sieve_small):
    report = mult.chi3_star_check(8, sieve_small)
    assert report.ok
    for k, m, expected in report.values:
        assert m == expected == (-1) ** k + 1


def test_first_negative_crossing(sieve_million):
    lam = mult.MultiplicativeFn(sieve_million, "liouville")
    assert mult.first_negative_crossing(lam, 1_000_000) is None
    ones = mult.MultiplicativeFn(sieve_million, "one")
    assert mult.first_negative_crossing(ones, 1_000_000) is None
    # Flipping one prime of the all-minus pattern only adds positive mass to
    # every partial logarithmic sum, so no crossing appears at desk scale
    # (the build ledger records this against the original sketch).
    f2 = mult.MultiplicativeFn(sieve_million, "liouville", {2: 1})
    assert mult.first_negative_crossing(f2, 1_000_000) is None


def test_crossing_on_synthetic_negative_prefix(sieve_small):
    # No completely multiplicative +/-1 function crosses this early; verify
    # the scanner itself on a function whose partial sums are pushed down as
    # far as multiplicativity allows and confirm positivity persists.
    fn = mult.MultiplicativeFn(sieve_small, "liouville")
    vals = fn.values_range()
    inv = np.zeros(len(vals))
    inv[1:] = 1.0 / np.arange(1, len(vals))
    partial = np.cumsum(vals * inv)
    assert partial[1:20_001].min() > 0


def test_pipeline_preconditions(sieve_small):
    with pytest.raises(mult.PipelineError):
        mult.log_mean_pipeline(sieve_small, scales=[2000, 4000])  # ratio < 8
    with pytest.raises(mult.PipelineError):
        mult.log_mean_pipeline(sieve_small, scales=[40], c_cross=6)  # below (C+1)^2
    # Delta = -L(lambda, 6) < 0: strict mode refuses to run
    with pytest.raises(mult.PipelineError):
        mult.log_mean_pipeline(sieve_small, scales=[2000, 16000])


def test_pipeline_best_effort_floor(sieve_small):
    fn, state = mult.log_mean_pipeline(
        sieve_small, scales=[2000, 16000], allow_nonpositive_delta=True
    )
    assert state.delta == -Fraction(1) - sum(
        Fraction(sieve_small.liouville(n), n) for n in range(2, 7)
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


def test_pipeline_locality_and_blocks(sieve_small):
    _, state = mult.log_mean_pipeline(
        sieve_small, scales=[2000, 16000], allow_nonpositive_delta=True
    )
    (mid0, top0), (mid1, top1) = state.modified_intervals
    assert top0 == [1000, 2000] and mid0 == [285, 333]
    assert top1 == [8000, 16000] and mid1 == [2285, 2666]
    # block intervals are pairwise disjoint across scales
    assert mid1[0] >= top0[1]


def test_pipeline_verification_never_indeterminate(sieve_small):
    from harmsum.numerics import VerificationLog

    log = VerificationLog()
    mult.log_mean_pipeline(
        sieve_small,
        scales=[2000, 16000],
        allow_nonpositive_delta=True,
        verification=log,
    )
    assert log.entries and not log.indeterminate_accepts()


def test_make_scales():
    assert mult.make_scales(2000, 8, 2) == [2000, 16000]
