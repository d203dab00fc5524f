import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from harmsum.sieve import SieveTable, dickman_rho
from harmsum.support import SupportSet


def test_spf_examples(sieve_small):
    assert sieve_small.spf_of(12) == 2
    assert sieve_small.spf_of(97) == 97
    assert sieve_small.spf_of(91) == 7
    assert SieveTable(100).spf_of(91) == 7


def test_spf_structure(sieve_small):
    spf = sieve_small.spf
    rng = np.random.default_rng(0)
    for n in rng.integers(2, sieve_small.limit, size=500):
        n = int(n)
        p = int(spf[n])
        assert n % p == 0
        assert p * p <= n or p == n


def test_omega_liouville_examples(sieve_small):
    assert sieve_small.big_omega(12) == 3
    assert sieve_small.small_omega(12) == 2
    assert sieve_small.liouville(12) == -1
    assert sieve_small.big_omega(1) == 0 and sieve_small.liouville(1) == 1
    assert sieve_small.big_omega(1024) == 10 and sieve_small.liouville(1024) == 1
    with pytest.raises(Exception):
        sieve_small.big_omega(sieve_small.limit + 1)


def test_liouville_multiplicative_through_table(sieve_small):
    lam = sieve_small.liouville_table()
    rng = np.random.default_rng(1)
    for n in rng.integers(2, sieve_small.limit, size=2000):
        n = int(n)
        p = int(sieve_small.spf[n])
        assert lam[n] == lam[p] * lam[n // p]


@pytest.mark.parametrize("limit", [2, 3, 4, 1023, 1024, 1025, 20_000])
def test_tables_match_factorization(limit):
    # first block, exact powers of two and a partial last block
    table = SieveTable(limit)
    big, small = table.omega_table(True), table.omega_table(False)
    lpf, lam = table.lpf_table(), table.liouville_table()
    for n in range(1, limit + 1):
        assert big[n] == table.big_omega(n)
        assert small[n] == table.small_omega(n)
        assert lpf[n] == max((p for p, _ in table.factorize(n)), default=1)
        assert lam[n] == table.liouville(n)


def test_tables_match_factorization_past_block_cap():
    # blocks hold at most 2^20 entries, so [2^21, 2^21 + 5] lies in a capped block
    limit = 2**21 + 5
    table = SieveTable(limit)
    big, small = table.omega_table(True), table.omega_table(False)
    lpf, lam = table.lpf_table(), table.liouville_table()
    rng = np.random.default_rng(7)
    edges = [2**20 - 1, 2**20, 2**20 + 1, 3 * 2**19, 2**21 - 1, 2**21, limit]
    for n in edges + [int(n) for n in rng.integers(2**20, limit + 1, size=2000)]:
        assert big[n] == table.big_omega(n)
        assert small[n] == table.small_omega(n)
        assert lpf[n] == max(p for p, _ in table.factorize(n))
        assert lam[n] == table.liouville(n)


def test_table_memory_stays_near_int32_spf():
    # the int32 spf takes 4 bytes an entry and the prime search a 1-byte mask;
    # an int64 spf alone would take 8, and an int64 arange beside it 16
    limit = 10**6
    tracemalloc.start()
    try:
        table = SieveTable(limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.spf.dtype == np.int32 and table.primes.dtype == np.int64
    assert len(table.primes) == 78_498
    assert peak < 6.5 * limit


def test_primes_in(sieve_small):
    assert list(sieve_small.primes_in(10, 20)) == [11, 13, 17, 19]
    assert len(sieve_small.primes_in(13, 13)) == 0
    assert list(sieve_small.primes_in(1, 10)) == [2, 3, 5, 7]
    assert list(sieve_small.primes_in(0, 10)) == [2, 3, 5, 7]  # 1 is not prime


def test_prime_reciprocal_sum(sieve_small, sieve_million):
    bf = sieve_small.prime_reciprocal_sum(2, 3, 64)
    assert bf.contains(Fraction(1, 3))
    assert sieve_small.prime_reciprocal_sum(13, 13, 32).mantissa == 0
    # PNT proximity at 1e6: within 10/log^2 N of log 2 / log N
    n = 1_000_000
    val = float(sieve_million.prime_reciprocal_sum(n // 2, n, 64).value_fraction())
    assert abs(val - math.log(2) / math.log(n)) <= 10.0 / math.log(n) ** 2


def test_rough_smooth_split(sieve_small):
    s = sieve_small.rough_smooth_split(12, 2)
    assert (s.rough, s.smooth) == (3, 4)
    s = sieve_small.rough_smooth_split(30, 3)
    assert (s.rough, s.smooth) == (5, 6)
    s = sieve_small.rough_smooth_split(97, 10)
    assert (s.rough, s.smooth) == (97, 1)
    rng = np.random.default_rng(3)
    for _ in range(2000):
        n = int(rng.integers(2, sieve_small.limit))
        y = int(rng.integers(1, 200))
        sp = sieve_small.rough_smooth_split(n, y)
        assert sp.rough * sp.smooth == n
        if sp.rough > 1:
            assert min(p for p, _ in sieve_small.factorize(sp.rough)) > y
        if sp.smooth > 1:
            assert max(p for p, _ in sieve_small.factorize(sp.smooth)) <= y


def test_rough_part_set(sieve_small):
    a = SupportSet([2, 3, 4])
    assert list(sieve_small.rough_part_set(a, 0.5, 100)) == [1]
    a = SupportSet([22, 33])
    assert list(sieve_small.rough_part_set(a, 0.5, 100)) == [11]


def test_rough_part_set_density(sieve_million):
    n = 100_000
    a = SupportSet.interval(1, n)
    r = sieve_million.rough_part_set(a, 0.1, n)
    assert len(r) >= n**0.9
    # every rough part obeys the Omega(r) <= floor(1/eps1) cap
    k_cap = 10
    rng = np.random.default_rng(4)
    for x in rng.choice(r.values, size=200):
        if int(x) > 1:
            assert sieve_million.big_omega(int(x)) <= k_cap


def test_psi_count(sieve_million):
    assert sieve_million.psi_count(100, 100) == 100
    assert sieve_million.psi_count(100, 3) == 20
    assert sieve_million.psi_count(100, 1) == 1
    # monotone in both arguments
    assert sieve_million.psi_count(1000, 7) <= sieve_million.psi_count(2000, 7)
    assert sieve_million.psi_count(1000, 7) <= sieve_million.psi_count(1000, 11)


def test_dickman_rho_values():
    assert dickman_rho(0.5) == 1.0
    assert dickman_rho(1.0) == 1.0
    assert abs(dickman_rho(2.0) - (1 - math.log(2))) < 1e-6
    assert dickman_rho(10.0) < 1e-10
    with pytest.raises(ValueError):
        dickman_rho(-0.1)


def test_dickman_rho_monotone_and_stable():
    us = np.linspace(0.0, 8.0, 81)
    vals = [dickman_rho(float(u)) for u in us]
    assert all(0 < v <= 1 for v in vals)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    # halving the step moves values by well under 10x the declared tolerance
    for u in (2.0, 5.0, 7.5):
        coarse = dickman_rho(u, step=1e-3)
        fine = dickman_rho(u, step=5e-4)
        assert abs(coarse - fine) <= 10 * 1e-6 * max(fine, 1e-12)


def test_select_low_omega_subset(sieve_million):
    n = 100_000
    primes = sieve_million.primes_in(n, 2 * n)
    assert sieve_million.select_low_omega_subset(primes, n) == primes
    powers = SupportSet([2**k for k in range(6, 18)])
    # 2 log log N ~ 4.9 at this scale, so high powers of two all drop
    filtered = sieve_million.select_low_omega_subset(powers, n)
    assert all(sieve_million.big_omega(x) <= 2 * math.log(math.log(n)) for x in filtered)
    assert 2**12 not in filtered
    full = SupportSet.interval(n + 1, 2 * n)
    kept = sieve_million.select_low_omega_subset(full, n)
    assert len(kept) >= len(full) / 2
    with pytest.raises(ValueError):
        sieve_million.select_low_omega_subset(full, 15)
