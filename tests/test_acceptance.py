"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Every bound is checked at
its stated tolerance through exact rational arithmetic or error-tracked
fixed-point intervals, and each criterion passes or fails on its own, in any
order.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from harmsum import constructor as ctor
from harmsum import density as dens
from harmsum import multiplicative as mult
from harmsum.numerics import (
    MAX_PRECISION_BITS,
    exact_rational_sum,
    signed_harmonic_sum,
    verify_abs_below,
)
from harmsum.sieve import SieveTable, dickman_rho
from harmsum.support import SignSequence, SupportSet


def _report(num: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sieve16k():
    return SieveTable(16_000)


def test_criterion_01_oracle_equivalence():
    """mitm_optimize returns exactly the exhaustive minimum on 200 random
    supports within [1, 20], zero tolerance."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    mismatches = 0
    for _ in range(200):
        size = int(rng.integers(1, 21))
        ns = np.sort(rng.choice(np.arange(1, 21), size=size, replace=False))
        a = SupportSet(ns)
        x0 = Fraction(int(rng.integers(0, 10**6)), 10**6 * 20)
        rep = ctor.mitm_optimize(a, x0, max_free=52)
        den = math.lcm(*a.values.tolist()) * x0.denominator
        target = x0.numerator * (den // x0.denominator)
        sums = np.zeros(1, dtype=np.int64)
        for n in a.values:
            w = den // int(n)
            sums = np.concatenate((sums + w, sums - w))
        best = Fraction(int(np.min(np.abs(sums - target))), den)
        if best != rep.achieved_exact:
            mismatches += 1
    elapsed = time.time() - t0
    _report(
        1,
        mismatches == 0 and elapsed < 60,
        f"200/200 exact matches required, {200 - mismatches} matched, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_small_sum_full_interval():
    """Signs on [1, 256] with exact-verified |sum| <= exp(-(log 256)^2)."""
    t0 = time.time()
    bound = Fraction(math.exp(-math.log(256) ** 2))
    table = SieveTable(256)
    rep = ctor.dense_set_signs(
        SupportSet.interval(1, 256), 256, 1.0, 0.2, seed=2, sieve=table, target_eta=bound
    )
    achieved = abs(exact_rational_sum(rep.signs))
    met, _, _ = verify_abs_below(achieved, bound)
    elapsed = time.time() - t0
    _report(
        2,
        met and elapsed < 600,
        f"|sum| = {float(achieved):.3e} vs exp(-log^2 256) = {float(bound):.3e}, "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_03_chi3_star_identity():
    """M(chi3*, 3^K + 1) = (-1)^K + 1 exactly for K = 1..12."""
    t0 = time.time()
    table = SieveTable(3**12 + 1)
    report = mult.chi3_star_check(12, table)
    elapsed = time.time() - t0
    _report(
        3,
        report.ok and elapsed < 60,
        f"identity exact for K=1..12 (witness={report.witness}), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_dickman_consistency():
    """Psi(1e6, 1e3)/1e6 within 5% of rho(2); rho(2) within 1e-6 of 1 - ln 2."""
    t0 = time.time()
    rho2 = dickman_rho(2.0)
    rho_ok = abs(rho2 - (1 - math.log(2))) <= 1e-6
    table = SieveTable(1_000_000)
    psi = table.psi_count(1_000_000, 1_000)
    ratio = psi / 1e6
    psi_ok = abs(ratio - rho2) <= 0.05 * rho2
    elapsed = time.time() - t0
    _report(
        4,
        rho_ok and psi_ok and elapsed < 60,
        f"rho(2)={rho2:.9f} (|err|={abs(rho2 - (1 - math.log(2))):.2e} <= 1e-6: {rho_ok}); "
        f"Psi(1e6,1e3)={psi} gives ratio {ratio:.6f}, off rho(2) by "
        f"{abs(ratio - rho2) / rho2:.1%} (gate 5%: {psi_ok}); {elapsed:.1f}s",
    )


def test_criterion_05_decay_certificate(sieve_small):
    """Zero violations of the resonance-count and decay checks on 1000 seeded
    frequencies for A = [N/2, N], B = primes in A, N = 1e4."""
    t0 = time.time()
    n = 10_000
    a = SupportSet.interval(n // 2, n)
    b = sieve_small.primes_in(n // 2, n)
    t_lo, t_hi, _ = dens.certificate_window(n, len(b), 1, c=0.5)
    ts = dens.sample_t_values(t_lo, t_hi, 1000, seed=505)
    cert = dens.decay_certificate(a, b, n, 1, ts)
    elapsed = time.time() - t0
    _report(
        5,
        cert.ok and len(cert.t_values) == 1000 and elapsed < 120,
        f"{len(cert.violations)} violations over {len(cert.t_values)} samples in "
        f"({t_lo:.0f}, {t_hi:.3g}], {elapsed:.1f}s (< 120s)",
    )


def test_criterion_06_probability_cross_check():
    """Monte Carlo (1e5 samples) within 3 exact standard errors of the
    exhaustive probability in >= 48/50 instances; exhaustive probability
    strictly positive whenever the structural preconditions hold with eta at
    the budget threshold."""
    t0 = time.time()
    rng = np.random.default_rng(606)
    agree = 0
    positives_checked = 0
    positives_ok = True
    for i in range(50):
        n = int(rng.integers(24, 44))
        pool = np.arange(n // 2, n + 1)
        size = int(rng.integers(8, min(21, len(pool) + 1)))
        a = SupportSet(np.sort(rng.choice(pool, size=size, replace=False)))
        eta = Fraction(int(rng.integers(5, 60)), 100)
        x0 = Fraction(int(rng.integers(0, 25)), 100)
        exact = dens.exhaustive_probability(a, x0, eta)
        est, _ = dens.mc_probability(a, float(x0), float(eta), 100_000, seed=700 + i)
        se = math.sqrt(float(exact) * (1 - float(exact)) / 100_000)
        if abs(est - float(exact)) <= 3 * max(se, 1e-9):
            agree += 1
        budget = dens.eta_budget(n, len(a), 1, c=0.5)
        if budget.c_local > 0:
            eta_thr = Fraction(math.exp(budget.log_eta_min))
            p_thr = dens.exhaustive_probability(a, Fraction(1, 2 * n), eta_thr)
            positives_checked += 1
            if p_thr <= 0:
                positives_ok = False
    elapsed = time.time() - t0
    _report(
        6,
        agree >= 48 and positives_ok and positives_checked >= 10 and elapsed < 300,
        f"{agree}/50 within 3 exact standard errors (need >= 48); "
        f"{positives_checked} precondition instances all positive: {positives_ok}; "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_07_flip_contract():
    """1e4 random feasible flip instances satisfy |sum - alpha| <= 1/min(S)
    exactly."""
    t0 = time.time()
    rng = np.random.default_rng(707)
    checked = 0
    violations = 0
    while checked < 10_000:
        lo = int(rng.integers(2, 600))
        hi = lo + int(rng.integers(1, 70))
        s = SupportSet.interval(lo, hi)
        total = s.reciprocal_sum()
        alpha = Fraction(int(rng.integers(-999, 1000)), 1000) * total
        if abs(alpha) >= total:
            continue
        res = ctor.flip_to_target(s, alpha)
        assert res.feasible
        if abs(exact_rational_sum(res.signs) - alpha) > Fraction(1, s.min()):
            violations += 1
        checked += 1
    elapsed = time.time() - t0
    _report(
        7,
        violations == 0 and elapsed < 60,
        f"{violations} violations in 10000 exact checks, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_08_dense_set_at_scale():
    """Residues {1,2} mod 3 up to 4096: exact-verified |sum| <= 1e-10 and
    achieved exponent >= 0.3."""
    t0 = time.time()
    table = SieveTable(4096)
    a0 = SupportSet.residues(3, [1, 2], 4096)
    target = Fraction(1, 10**10)
    rep = ctor.dense_set_signs(a0, 4096, 0.6, 0.2, seed=8, sieve=table, target_eta=target)
    achieved = abs(exact_rational_sum(rep.signs))
    met, _, _ = verify_abs_below(achieved, target)
    theta = rep.details["theta_hat"]
    elapsed = time.time() - t0
    _report(
        8,
        met and theta >= 0.3 and elapsed < 600,
        f"|sum| = {float(achieved):.3e} (<= 1e-10), theta_hat = {theta:.3f} (>= 0.3), "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_09_multiplicative_pipeline(sieve16k):
    """Default seed, scales {2000, 16000}: |L(f, N_i)| <= 1e-10 at both
    scales, 1e5 multiplicativity spot checks, seed agreement off the modified
    blocks.

    The bound clause is out of reach at these scales. An enumeration in
    float over all 2^14 patterns of f at the primes below sqrt(2000), each
    with the large primes' best signs, finds the least |L(f, 2000)| at
    f = lambda: 0.018697, which is not certified (ROADMAP item 3). No flip
    of a prime <= 126 beats L(lambda, 16000) = 0.0026, though that floor is
    not proven; lambda's own logarithmic means stay positive far past both
    scales (Borwein, Ferguson and Mossinghoff, 2008, find the first negative
    sum of lambda(n)/n over n <= x near x = 7.2e10). The pipeline lands on
    these values; the test asserts the stated tolerance regardless and fails
    honestly.
    """
    t0 = time.time()
    target = Fraction(1, 10**10)
    fn, state = mult.log_mean_pipeline(
        sieve16k,
        scales=[2000, 16000],
        target_eta=target,
        allow_nonpositive_delta=True,
    )
    seed_fn = mult.MultiplicativeFn(sieve16k, "liouville")
    bounds_ok = all(r.met for r in state.scale_reports)
    mult_ok = mult.multiplicativity_check(fn, 100_000, seed=909)
    local_ok = mult.locality_check(fn, seed_fn, state.modified_intervals, 16_000)
    achieved = {r.n_scale: float(r.achieved_exact) for r in state.scale_reports}
    elapsed = time.time() - t0
    _report(
        9,
        bounds_ok and mult_ok and local_ok and elapsed < 900,
        f"bounds <= 1e-10: {bounds_ok} (achieved {achieved}); "
        f"multiplicativity 1e5 checks: {mult_ok}; locality off blocks: {local_ok}; "
        f"{elapsed:.1f}s (< 900s)",
    )


def test_criterion_10_numerics_soundness():
    """Exact rational values always lie inside BigFixed intervals on 1e4
    random instances, and verify_abs_below decides |sum| <= eta exactly at
    eta = |sum| (a tie) and one part in 10^6 below and above it, with an
    interval that contains the sum and, below the precision cap, lies on the
    verdict's side of eta."""
    t0 = time.time()
    rng = np.random.default_rng(1010)
    failures = 0
    wrong = 0
    for _ in range(10_000):
        size = int(rng.integers(1, 11))
        ns = np.sort(rng.choice(np.arange(1, 61), size=size, replace=False))
        signs = rng.choice(np.array([-1, 1], dtype=np.int8), size=size)
        seq = SignSequence(SupportSet(ns), signs)
        exact = exact_rational_sum(seq)
        for bits in (32, 64, 128):
            if not signed_harmonic_sum(seq, bits).contains(exact):
                failures += 1
        mag = abs(exact)
        for eta in (mag, mag * Fraction(999_999, 10**6), mag * Fraction(1_000_001, 10**6)):
            met, v, bits = verify_abs_below(exact, eta, start_bits=32)
            lo, hi = v.interval()
            decided = max(-lo, hi) < eta if met else eta < max(lo, -hi)
            if (
                met != (mag <= eta)
                or not v.contains(exact)
                or (bits < MAX_PRECISION_BITS and not decided)
            ):
                wrong += 1
    elapsed = time.time() - t0
    _report(
        10,
        failures == 0 and wrong == 0 and elapsed < 60,
        f"{failures} interval violations in 30000 containment checks; "
        f"{wrong} wrong or undecided verdicts in 30000 threshold checks; "
        f"{elapsed:.1f}s (< 60s)",
    )
