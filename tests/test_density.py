import decimal
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmsum import density as dens
from harmsum.numerics import BigFixed
from harmsum.support import SupportSet


def test_char_fn_examples():
    assert dens.char_fn_log_abs(SupportSet([1]), 7) == pytest.approx(0.0, abs=1e-12)
    assert dens.char_fn_log_abs(SupportSet([4]), 1) == -math.inf
    got = dens.char_fn_log_abs(SupportSet([2, 3]), 1)
    assert got == pytest.approx(math.log(0.5), abs=1e-12)


def test_char_fn_even_and_at_zero():
    a = SupportSet([3, 7, 11, 19])
    assert dens.char_fn_log_abs(a, 0) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(7)
    for t in rng.uniform(0.1, 50.0, size=25):
        assert dens.char_fn_log_abs(a, float(t)) == pytest.approx(
            dens.char_fn_log_abs(a, float(-t)), abs=1e-9
        )


def test_monotone_domination():
    rng = np.random.default_rng(8)
    a = SupportSet(np.sort(rng.choice(np.arange(10, 300), size=40, replace=False)))
    b = SupportSet(np.sort(rng.choice(a.values, size=15, replace=False)))
    for t in rng.uniform(1.0, 500.0, size=30):
        la = dens.char_fn_log_abs(a, float(t))
        lb = dens.char_fn_log_abs(b, float(t))
        assert la <= lb + 1e-9


def test_gaussian_cos_bound_examples():
    lhs, rhs = dens.gaussian_cos_bound(0.0)
    assert (lhs, rhs) == (1.0, 1.0)
    lhs, rhs = dens.gaussian_cos_bound(0.25)
    assert lhs == pytest.approx(0.0, abs=1e-12)
    assert rhs == pytest.approx(math.exp(-math.pi**2 / 8), rel=1e-12)
    # at distance 1/2 the bound genuinely fails (|cos pi| = 1)
    lhs, rhs = dens.gaussian_cos_bound(0.5)
    assert lhs == pytest.approx(1.0) and rhs < 1.0


def test_gaussian_cos_bound_valid_range():
    # dense scan: the inequality holds up to the documented limit and first
    # fails shortly after (near 0.283)
    for i in range(1, 2801):
        th = i / 10000.0
        lhs, rhs = dens.gaussian_cos_bound(th)
        assert lhs <= rhs + 1e-12, th
    violations = [
        th
        for th in np.linspace(dens.GAUSSIAN_BOUND_VALID_LIMIT, 0.5, 500)
        if dens.gaussian_cos_bound(float(th))[0] > dens.gaussian_cos_bound(float(th))[1]
    ]
    assert violations and min(violations) < 0.29


def test_s_count_examples():
    b = SupportSet([10, 11])
    assert dens.s_count(b, 10.5, 0.06) == 2
    assert dens.s_count(b, 10.5, 0.5) == 2
    assert dens.s_count(b, 0.0, 0.01) == 2
    assert dens.s_count(SupportSet([7, 9, 13]), 1.2, 0.0) == 0
    with pytest.raises(ValueError):
        dens.s_count(b, 1.0, 0.6)


def test_s_count_monotone_in_delta():
    rng = np.random.default_rng(9)
    b = SupportSet(np.sort(rng.choice(np.arange(5, 500), size=60, replace=False)))
    t = 123.456
    counts = [dens.s_count(b, t, d) for d in np.linspace(0.0, 0.5, 26)]
    assert counts == sorted(counts)
    assert counts[-1] == len(b)


def test_delta_choice():
    assert dens.delta_choice(100, 100, 1, math.exp(math.e)) == pytest.approx(
        1 / (4 * math.e), rel=1e-12
    )
    base = dens.delta_choice(50, 10_000, 1, 300.0)
    assert dens.delta_choice(100, 10_000, 1, 300.0) == pytest.approx(2 * base, rel=1e-12)
    expect = (math.log(math.log(1e6)) / math.log(1e6)) ** 2 * 1e3 / (8 * 1e4)
    assert dens.delta_choice(1000, 10_000, 2, 1e6) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        dens.delta_choice(10, 100, 1, 2.0)


def test_eta_budget():
    b = dens.eta_budget(256, 256, 1)
    assert b.c_local == pytest.approx(1.0, rel=1e-12)
    b = dens.eta_budget(256, int(round(256 ** (2 / 3))), 1)
    assert not b.feasible
    b = dens.eta_budget(256, 128, 1)
    expected_c = (3 * math.log(128) - 2 * math.log(256)) / math.log(256)
    assert b.c_local == pytest.approx(expected_c, rel=1e-12)
    core = (expected_c**2 / 100 * 128**3 / 256**2) ** (1 / 3)
    assert b.log_eta_min == pytest.approx(-core * math.log(256) ** (2 / 3), rel=1e-10)
    assert b.eta_min.contains(Fraction(math.exp(b.log_eta_min)).limit_denominator(10**30)) or abs(
        float(b.eta_min.value_fraction()) - math.exp(b.log_eta_min)
    ) < 1e-12


@pytest.mark.parametrize(
    ("n", "b_size", "k"),
    [
        (256, 256, 1),
        (256, 85, 3),  # the budget of the [1, 256] pipeline record
        (256, 10, 1),  # |B| <= N^(2/3): exponent 0, mantissa 2^96
        (4096, 2000, 2),
        (3000, 1500, 3),
        (10**6, 10**6, 1),  # exp(-124) is below half an ulp: mantissa 0
    ],
)
def test_eta_min_is_exp_rounded_to_nearest(n, b_size, k):
    budget = dens.eta_budget(n, b_size, k)
    exp = decimal.Context(prec=200).exp(decimal.Decimal(budget.log_eta_min))
    mant = math.floor(Fraction(exp) * 2**96 + Fraction(1, 2))
    assert budget.eta_min == BigFixed(mant, 96, 2)
    if b_size == 10:
        assert budget.log_eta_min == 0 and mant == 2**96
    if n == 10**6:
        assert mant == 0


def test_certificate_window_needs_t0_above_e():
    with pytest.raises(ValueError, match=r"min\(A\) > 4e"):
        dens.certificate_window(2000, 300, 1, c=10 / 2000)
    t0, _, _ = dens.certificate_window(2000, 300, 1, c=11 / 2000)
    assert t0 == 11 / 4


def test_density_profile_bound_holds():
    rng = np.random.default_rng(10)
    a = SupportSet(np.sort(rng.choice(np.arange(50, 2000), size=120, replace=False)))
    ts = rng.uniform(10.0, 5000.0, size=50)
    prof = dens.density_profile(a, ts)
    assert np.all(prof.log_abs_rho <= prof.bound_log + 1e-9)


def test_certificate_small_scale(sieve_small):
    n = 2000
    a = SupportSet.interval(n // 2, n)
    b = sieve_small.primes_in(n // 2, n)
    t0, t_up, fallback = dens.certificate_window(n, len(b), 1, c=0.5)
    assert fallback  # the asymptotic cutoff is far below T0 at desk scale
    ts = dens.sample_t_values(t0, t_up, 200, seed=5)
    assert np.all(ts > t0) and np.all(ts <= t_up)
    cert = dens.decay_certificate(a, b, n, 1, ts)
    assert cert.ok and not cert.violations
    obj = cert.to_obj()
    assert obj["samples"] == 200 and obj["ok"]


def test_certificate_degenerate_b(sieve_small):
    a = SupportSet.interval(100, 200)
    cert = dens.decay_certificate(a, SupportSet([150]), 200, 1, [])
    assert not cert.feasible
    cert = dens.decay_certificate(a, SupportSet([151, 157]), 200, 1, [])
    assert not cert.feasible and not cert.ok and cert.note
    with pytest.raises(ValueError):
        dens.decay_certificate(a, SupportSet([7]), 200, 1, [])  # B not inside A


def test_mc_probability_examples():
    p, se = dens.mc_probability(SupportSet([1]), 0.0, 0.5, 20_000, seed=1)
    assert p == 0.0 and se == 0.0
    p, _ = dens.mc_probability(SupportSet([1]), 1.0, 0.1, 20_000, seed=1)
    assert p == pytest.approx(0.5, abs=0.02)
    p, _ = dens.mc_probability(SupportSet([2, 3]), 0.0, 0.2, 20_000, seed=2)
    assert p == pytest.approx(0.5, abs=0.02)


def test_mc_reproducible():
    a = SupportSet([2, 3, 5, 7, 11])
    r1 = dens.mc_probability(a, 0.1, 0.3, 30_000, seed=9)
    r2 = dens.mc_probability(a, 0.1, 0.3, 30_000, seed=9)
    assert r1 == r2


def test_exhaustive_probability_examples():
    a = SupportSet([2, 3])
    assert dens.exhaustive_probability(a, Fraction(0), Fraction(1, 5)) == Fraction(1, 2)
    total = Fraction(1, 2) + Fraction(1, 3)
    assert dens.exhaustive_probability(a, Fraction(0), total) == 1
    assert dens.exhaustive_probability(a, Fraction(1, 7), Fraction(0)) == 0
    assert dens.exhaustive_probability(a, Fraction(1, 6), Fraction(0)) == Fraction(1, 4)
    with pytest.raises(ValueError):
        dens.exhaustive_probability(SupportSet.interval(1, 30), Fraction(0), Fraction(1))


# Egyptian-fraction identities 1/a = 1/(a+1) + 1/(a(a+1)) and
# 1/a = 1/(2a) + 1/(3a) + 1/(6a): many sign vectors share one sum, so a
# window edge on a reachable sum holds several of them at once.
EGYPTIAN_GROUPS = [(a, a + 1, a * (a + 1)) for a in range(2, 8)] + [
    (a, 2 * a, 3 * a, 6 * a) for a in range(1, 11)
]
probability_supports = st.one_of(
    st.builds(
        lambda groups, extra: sorted({n for g in groups for n in g} | set(extra))[:12],
        st.lists(st.sampled_from(EGYPTIAN_GROUPS), min_size=1, max_size=3),
        st.lists(st.integers(1, 60), max_size=4),
    ),
    # elements up to 2^62: the common denominator and the sums are big integers
    st.lists(st.integers(1, 2**62), max_size=12, unique=True).map(sorted),
)


def _window(lo: Fraction, hi: Fraction, nudge: Fraction) -> tuple[Fraction, Fraction]:
    """(x0, eta) of the window [lo, hi - nudge], the edges taken in order."""
    lo, hi = sorted((lo, hi))
    hi = max(lo, hi - nudge)
    return (lo + hi) / 2, (hi - lo) / 2


@settings(max_examples=100, deadline=None)
@given(probability_supports, st.data())
def test_exhaustive_probability_matches_brute_force(ns, data):
    sums = [
        sum((Fraction(s, n) for s, n in zip(signs, ns)), Fraction(0))
        for signs in product((1, -1), repeat=len(ns))
    ]
    reach = sum((Fraction(1, n) for n in ns), Fraction(0))
    edge = st.sampled_from(sums)
    windows = st.fractions(0, 2, max_denominator=10**6)
    x0, eta = data.draw(st.one_of(
        st.tuples(edge, st.just(Fraction(0))),
        # both window edges on reachable sums, or the upper one just below
        # one, by less than 1 over the common denominator
        st.tuples(edge, edge, st.sampled_from([Fraction(0), Fraction(1, 2**800)])).map(
            lambda t: _window(*t)
        ),
        st.tuples(st.fractions(-2, 2, max_denominator=10**6), st.one_of(st.just(0), windows)),
        # x0 far outside [-H, H], H the reciprocal sum; the window may reach back in
        st.tuples(
            st.sampled_from([1, -1]), st.fractions(0, 10**30, max_denominator=10**6), windows
        ).map(lambda t: (t[0] * (reach + t[1]), t[1] + t[2] * reach)),
    ))
    hits = sum(abs(v - x0) <= eta for v in sums)
    assert dens.exhaustive_probability(SupportSet(ns), x0, eta) == Fraction(hits, 1 << len(ns))


def _fraction_count(ns, lo: Fraction, hi: Fraction) -> int:
    """Sign vectors with lo <= sum s/n <= hi: sorted Fraction half sums, bisect."""

    def half_sums(part):
        sums = [Fraction(0)]
        for u in (Fraction(1, n) for n in part):
            sums = [v + u for v in sums] + [v - u for v in sums]
        return sums

    left = sorted(half_sums(ns[0::2]))
    return sum(bisect_right(left, hi - r) - bisect_left(left, lo - r) for r in half_sums(ns[1::2]))


def test_exhaustive_probability_at_the_limit_from_far_out():
    # 25 elements with n = 1 and 2, the largest units; x0 lies far past the
    # reciprocal sum H and the window reaches back in, to an interior point
    # or onto H itself, which only the all-plus vector reaches
    rng = np.random.default_rng(25)
    ns = [1, 2, *(int(n) for n in rng.choice(np.arange(3, 200), 23, replace=False))]
    assert len(ns) == dens.EXHAUSTIVE_LIMIT
    reach = sum(Fraction(1, n) for n in ns)
    far = Fraction(10**20) + Fraction(1, 3)
    for edge in (reach / 3, reach):
        for sign in (1, -1):
            x0, eta = sign * far, far - edge
            lo, hi = x0 - eta, x0 + eta
            expected = Fraction(_fraction_count(ns, lo, hi), 1 << len(ns))
            assert dens.exhaustive_probability(SupportSet(ns), x0, eta) == expected
            if edge == reach:
                assert expected == Fraction(1, 1 << len(ns))


def test_exhaustive_probability_decides_clear_windows_in_int64(monkeypatch):
    # every sum over [1, 25] is k/D, D = lcm(1..25), and each window edge is
    # (k + 1/2)/D, a half-ulp of D from every sum: the int64 screen decides
    ns = list(range(1, 26))
    den = math.lcm(*ns)
    x0, eta = Fraction(1, 3), Fraction(1, 10) + Fraction(1, 2 * den)
    dtypes = []
    half_sums = dens._half_sums

    def spy(units):
        dtypes.append(units.dtype)
        return half_sums(units)

    monkeypatch.setattr(dens, "_half_sums", spy)
    got = dens.exhaustive_probability(SupportSet(ns), x0, eta)
    assert dtypes == [np.dtype(np.int64)] * 2
    assert got == Fraction(_fraction_count(ns, x0 - eta, x0 + eta), 1 << len(ns))
    assert 0 < got < 1


def test_mc_matches_exhaustive():
    rng = np.random.default_rng(12)
    agree = 0
    runs = 100
    for _ in range(runs):
        size = int(rng.integers(3, 13))
        ns = np.sort(rng.choice(np.arange(2, 80), size=size, replace=False))
        a = SupportSet(ns)
        eta = Fraction(int(rng.integers(1, 40)), 100)
        x0 = Fraction(int(rng.integers(0, 20)), 100)
        exact = dens.exhaustive_probability(a, x0, eta)
        est, _ = dens.mc_probability(a, float(x0), float(eta), 20_000, seed=int(rng.integers(1 << 30)))
        se_exact = math.sqrt(float(exact) * (1 - float(exact)) / 20_000)
        if abs(est - float(exact)) <= 3 * max(se_exact, 1e-9):
            agree += 1
    assert agree >= 0.99 * runs


def test_small_ball_lower_bound_sanity(sieve_small):
    # Exhaustive probability is positive on random instances meeting the
    # budget's structural preconditions, with eta at the budget threshold;
    # the hidden constant kappa is recorded and must be positive.
    rng = np.random.default_rng(13)
    kappas = []
    built = 0
    while built < 50:
        n = int(rng.integers(24, 44))
        half = n // 2
        pool = np.arange(half, n + 1)
        size = int(rng.integers(12, min(21, len(pool) + 1)))
        a = SupportSet(np.sort(rng.choice(pool, size=size, replace=False)))
        if len(a) <= n ** (2 / 3):  # |B| must exceed N^(2/3)
            continue
        budget = dens.eta_budget(n, len(a), 1, c=0.5)
        if budget.c_local <= 0:
            continue
        # admissible window [eta_min, 1/N] is empty at desk scale, so use the
        # budget threshold itself as eta (see the decisions ledger)
        eta = Fraction(math.exp(budget.log_eta_min)).limit_denominator(10**12)
        x0 = Fraction(1, int(rng.integers(n, 4 * n)))
        p = dens.exhaustive_probability(a, x0, eta)
        assert p > 0
        kappas.append(float(p) / (n / math.sqrt(len(a)) * float(eta)))
        built += 1
    assert min(kappas) > 0
