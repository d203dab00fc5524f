"""Arithmetic-function infrastructure: smallest-prime-factor tables, prime
counting helpers, smooth/rough decompositions, smooth-number counts and the
Dickman density function."""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .numerics import BigFixed, ResourceBudgetError, unit_sum
from .support import SupportSet

# Hard cap on sieve size, so that every n fits int32: at the cap the int32
# spf table alone takes 0.8 GB.
MAX_SIEVE_LIMIT = 200_000_000


class SieveRangeError(Exception):
    """Raised when a query lies outside the sieve's tabulated range."""


@dataclass(frozen=True)
class RoughSmoothSplit:
    """Unique factorization n = rough * smooth with P-(rough) > y >= P+(smooth)."""

    n: int
    y: int
    rough: int
    smooth: int


class SieveTable:
    """Smallest-prime-factor table for 2..limit with derived query helpers.

    Immutable after construction; all queries are read-only.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError("sieve limit must be >= 2")
        if limit > MAX_SIEVE_LIMIT:
            raise ResourceBudgetError(f"sieve limit {limit} exceeds budget")
        self.limit = int(limit)
        self.spf, self.primes = self._build(self.limit)
        self._omega_mult: np.ndarray | None = None
        self._omega_distinct: np.ndarray | None = None
        self._lpf: np.ndarray | None = None

    @staticmethod
    def _build(limit: int) -> tuple[np.ndarray, np.ndarray]:
        """(int32 spf over 0..limit, int64 primes up to limit)."""
        spf = np.zeros(limit + 1, dtype=np.int32)
        spf[1] = 1
        small = []
        for p in range(2, math.isqrt(limit) + 1):
            if spf[p] == 0:
                small.append(p)
                spf[p] = p
                seg = spf[p * p :: p]
                seg[seg == 0] = p
        rest = np.flatnonzero(spf[2:] == 0) + 2  # the primes past sqrt(limit)
        spf[rest] = rest
        return spf, np.concatenate((np.asarray(small, dtype=np.int64), rest))

    def _check(self, n: int):
        if n < 1 or n > self.limit:
            raise SieveRangeError(f"{n} outside sieve range [1, {self.limit}]")

    def spf_of(self, n: int) -> int:
        self._check(n)
        return int(self.spf[n])

    def factorize(self, n: int) -> list[tuple[int, int]]:
        """Prime factorization as (p, exponent) pairs, ascending."""
        self._check(n)
        out: list[tuple[int, int]] = []
        while n > 1:
            p = int(self.spf[n])
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        return out

    def big_omega(self, n: int) -> int:
        return sum(e for _, e in self.factorize(n))

    def small_omega(self, n: int) -> int:
        return len(self.factorize(n))

    def liouville(self, n: int) -> int:
        return -1 if self.big_omega(n) & 1 else 1

    def _by_smallest_prime(self, first, step, dtype, top: int | None = None) -> np.ndarray:
        """Table t over 0..top (default limit) with t[0] = 0, t[1] = first
        and, for n >= 2, t[n] = step(t, p, m) with p = spf(n) and m = n // p
        (the linear-sieve recurrence of Gries and Misra, 1978).

        Filled in blocks [lo, hi) with hi <= 2 lo: every m <= n/2 lies below
        lo, so a block reads only finished entries. Blocks hold at most 2^20
        entries, which bounds the int64 temporaries at large limits.
        """
        top = self.limit if top is None else top
        t = np.zeros(top + 1, dtype=dtype)
        t[1] = first
        lo = 2
        while lo <= top:
            hi = min(2 * lo, lo + (1 << 20), top + 1)
            p = self.spf[lo:hi]
            t[lo:hi] = step(t, p, np.arange(lo, hi) // p)
            lo = hi
        return t

    def omega_table(self, with_multiplicity: bool = True) -> np.ndarray:
        """Table of Omega(n) (or omega(n)) for 0..limit; Omega(0)=Omega(1)=0."""
        if with_multiplicity:
            if self._omega_mult is None:
                self._omega_mult = self._by_smallest_prime(0, lambda t, p, m: t[m] + 1, np.int8)
            return self._omega_mult
        if self._omega_distinct is None:
            self._omega_distinct = self._by_smallest_prime(
                0, lambda t, p, m: t[m] + (self.spf[m] != p), np.int8
            )
        return self._omega_distinct

    def liouville_table(self) -> np.ndarray:
        om = self.omega_table(with_multiplicity=True)
        return np.where(om & 1, -1, 1).astype(np.int8)

    def lpf_table(self) -> np.ndarray:
        """Largest prime factor for 0..limit (lpf(1) = 1)."""
        if self._lpf is None:
            self._lpf = self._by_smallest_prime(
                1, lambda t, p, m: np.where(m > 1, t[m], p), np.int64
            )
        return self._lpf

    def primes_in(self, a: int, b: int) -> SupportSet:
        """Primes p with a < p <= b; a may be 0, as 1 is not prime."""
        if not (0 <= a <= b <= self.limit):
            if a > b:
                return SupportSet(np.empty(0, dtype=np.int64))
            raise SieveRangeError(f"interval ({a}, {b}] outside sieve range")
        i = np.searchsorted(self.primes, a, side="right")
        j = np.searchsorted(self.primes, b, side="right")
        return SupportSet(self.primes[i:j])

    def prime_reciprocal_sum(self, a: int, b: int, scale_bits: int) -> BigFixed:
        """Error-bounded sum of 1/p over primes in (a, b]."""
        return unit_sum(self.primes_in(a, b).values, scale_bits)

    def rough_smooth_split(self, n: int, y: int) -> RoughSmoothSplit:
        """Split n into its y-rough and y-smooth parts."""
        if y < 1:
            raise ValueError("threshold y must be >= 1")
        rough = math.prod(p**e for p, e in self.factorize(n) if p > y)
        smooth = n // rough
        return RoughSmoothSplit(n=n, y=y, rough=rough, smooth=smooth)

    def rough_parts(self, values: np.ndarray, y: int) -> np.ndarray:
        """y-rough part of every n in `values`, from one table over 0..max:
        r(n) = (p if p > y else 1) * r(n / p) with p = spf(n)."""
        if not len(values):
            return np.empty(0, dtype=np.int64)
        if y < 1:
            raise ValueError("threshold y must be >= 1")
        self._check(int(values.min()))
        self._check(int(values.max()))
        r = self._by_smallest_prime(
            1, lambda t, p, m: np.where(p > y, p, 1) * t[m], np.int64, int(values.max())
        )
        return r[values]

    def rough_part_set(self, a: SupportSet, eps1: float, n_scale: int) -> SupportSet:
        """Deduplicated set of rough parts of A at threshold y = n_scale^eps1."""
        if not 0 < eps1 < 1:
            raise ValueError("eps1 must be in (0, 1)")
        return SupportSet(np.unique(self.rough_parts(a.values, int(n_scale**eps1))))

    def psi_count(self, x: int, y: int) -> int:
        """Number of y-smooth integers in [1, x] (n = 1 counts)."""
        if x < 1 or y < 1:
            raise ValueError("x and y must be >= 1")
        self._check(x)
        lpf = self.lpf_table()
        return int(np.count_nonzero(lpf[1 : x + 1] <= y))

    def select_low_omega_subset(self, a: SupportSet, n_scale: int) -> SupportSet:
        """Elements of A with Omega(n) <= 2 log log n_scale (natural logs)."""
        if n_scale < 16:
            raise ValueError("scale must be >= 16 for a meaningful log log")
        bound = 2.0 * math.log(math.log(n_scale))
        om = self.omega_table(with_multiplicity=True)
        vals = a.values
        if len(vals) and int(vals[-1]) > self.limit:
            raise SieveRangeError("support exceeds sieve range")
        mask = om[vals] <= bound
        return SupportSet(vals[mask])


_RHO_CACHE: dict[float, tuple[np.ndarray, float]] = {}


def _rho_grid(u_max: float, step: float) -> np.ndarray:
    """Grid of Dickman rho on [0, u_max] by the mean-value recursion.

    rho(u) = (1/u) * integral of rho over [u-1, u], advanced one step at a
    time with composite Simpson weights; the unknown right endpoint appears
    linearly and is solved for explicitly.
    """
    per_unit = round(1.0 / step)
    if per_unit < 2 or per_unit % 2:
        raise ValueError("step must divide 1 into an even number of pieces")
    h = 1.0 / per_unit
    n_pts = int(math.ceil(u_max / h)) + per_unit + 1
    rho = np.empty(n_pts, dtype=np.float64)
    rho[: per_unit + 1] = 1.0
    weights = np.full(per_unit + 1, 2.0, dtype=np.float64)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    weights *= h / 3.0
    w_last = weights[-1]
    for j in range(per_unit + 1, n_pts):
        u = j * h
        window = rho[j - per_unit : j]
        known = float(np.dot(weights[:-1], window))
        rho[j] = known / (u - w_last)
    return rho


def dickman_rho(u: float, step: float = 1e-3) -> float:
    """Dickman's rho function (1 on [0,1], delay-integrated beyond)."""
    if u < 0:
        raise ValueError("u must be >= 0")
    if u <= 1:
        return 1.0
    key = step
    grid, cached_max = _RHO_CACHE.get(key, (None, -1.0))
    if grid is None or u > cached_max:
        new_max = max(u * 1.25, 12.0)
        grid = _rho_grid(new_max, step)
        _RHO_CACHE[key] = (grid, new_max)
    per_unit = round(1.0 / step)
    pos = u * per_unit
    i = int(pos)
    frac = pos - i
    if i + 1 >= len(grid):
        return float(grid[-1])
    return float(grid[i] * (1 - frac) + grid[i + 1] * frac)


def dickman_rho_grid(u_max: float, coarse: float = 0.1, step: float = 1e-3):
    """(u, rho(u)) pairs on a coarse grid, for CSV dumps."""
    us = np.arange(0.0, u_max + coarse / 2, coarse)
    return [(float(u), dickman_rho(float(u), step)) for u in us]

