"""Completely multiplicative +/-1 functions: evaluation, partial and
logarithmic means, the modified quadratic character mod 3, and the two-block
inductive pipeline that drives logarithmic means small at a chain of scales."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .constructor import (
    ConstructionReport,
    FlipResult,
    InfeasibleError,
    _spread_indices,
    flip_to_target,
    mitm_optimize,
)
from .numerics import (
    BigFixed,
    default_precision,
    rational_sum,
    verify_abs_below,
)
from .sieve import SieveTable
from .support import SupportSet


# Each seed rule maps an array of primes to their signs.
SEED_RULES = {
    "liouville": lambda p: np.full_like(p, -1),
    "one": np.ones_like,
    # Quadratic character mod 3 at primes, with the gap at p = 3 filled by -1.
    "chi3_star": lambda p: np.where(p % 3 == 1, 1, -1),
}


class MultiplicativeFn:
    """A completely multiplicative function n -> {-1, +1}.

    Values at primes come from a named default rule plus a finite override
    map (overrides allowed at primes only); composites follow by complete
    multiplicativity. Instances are immutable: use with_overrides to derive
    modified functions.
    """

    def __init__(self, sieve: SieveTable, default_rule: str = "liouville", overrides=None):
        if default_rule not in SEED_RULES:
            raise ValueError(f"unknown default rule {default_rule!r}")
        self.sieve = sieve
        self.default_rule = default_rule
        self.limit = sieve.limit
        overrides = overrides or {}
        if not set(overrides.values()) <= {-1, 1}:
            raise ValueError("override values must be +1 or -1")
        self.overrides: dict[int, int] = {int(p): int(s) for p, s in overrides.items()}
        ps = sorted(self.overrides)
        # The ends are range-checked as Python ints before any key indexes spf.
        if ps and not (2 <= ps[0] and ps[-1] <= self.limit and (sieve.spf[ps] == ps).all()):
            bad = next(p for p in ps if not (2 <= p <= self.limit and sieve.spf[p] == p))
            raise ValueError(f"override at non-prime {bad}")
        # f at every prime (1 at every other index): the rule, then the overrides.
        self._sign = np.ones(self.limit + 1, dtype=np.int8)
        self._sign[sieve.primes] = SEED_RULES[default_rule](sieve.primes)
        self._sign[ps] = [self.overrides[p] for p in ps]
        self._values: np.ndarray | None = None
        self._cumsum: np.ndarray | None = None

    def with_overrides(self, extra: dict[int, int]) -> "MultiplicativeFn":
        merged = dict(self.overrides)
        merged.update(extra)
        return MultiplicativeFn(self.sieve, self.default_rule, merged)

    def sign_at_prime(self, p: int) -> int:
        return int(self._sign[p])

    def evaluate(self, n: int) -> int:
        """f(n) via the prime factorization (f(1) = 1)."""
        if n < 1 or n > self.limit:
            raise ValueError(f"{n} outside supported range [1, {self.limit}]")
        out = 1
        for p, e in self.sieve.factorize(n):
            if e & 1 and self.sign_at_prime(p) < 0:
                out = -out
        return out

    def values_range(self) -> np.ndarray:
        """f(n) for 0..limit as an int8 array (index 0 unused, set to 0), by
        f(n) = f(p) f(n/p) with p the smallest prime factor of n."""
        if self._values is None:
            self._values = self.sieve._by_smallest_prime(
                1, lambda t, p, m: self._sign[p] * t[m], np.int8
            )
        return self._values

    def _partial_sums(self) -> np.ndarray:
        if self._cumsum is None:
            self._cumsum = np.cumsum(self.values_range(), dtype=np.int64)
        return self._cumsum

    def partial_sum(self, n: int) -> int:
        """M(f, n) = sum of f(m) for m <= n, exact."""
        if n < 0 or n > self.limit:
            raise ValueError("n outside supported range")
        if n == 0:
            return 0
        return int(self._partial_sums()[n])

    def log_mean_exact(self, n: int) -> Fraction:
        """Exact L(f, n); denominator is lcm(1..n), so keep n moderate."""
        if n < 1 or n > self.limit:
            raise ValueError("n outside supported range")
        return rational_sum(range(1, n + 1), self.values_range()[1 : n + 1])

    def __repr__(self) -> str:
        return (
            f"MultiplicativeFn(rule={self.default_rule!r}, "
            f"overrides={len(self.overrides)}, limit={self.limit})"
        )


@dataclass
class Chi3Report:
    """Partial-sum identity checks for the modified character mod 3."""

    k_max: int
    values: list[tuple[int, int, int]]  # (K, M(f, 3^K + 1), expected)
    ok: bool
    witness: int | None


def chi3_star_check(k_max: int, sieve: SieveTable) -> Chi3Report:
    """Check M(chi3*, 3^K + 1) = (-1)^K + 1 for K = 1..k_max."""
    top = 3**k_max + 1
    if top > sieve.limit:
        raise ValueError(f"sieve limit {sieve.limit} below 3^{k_max}+1 = {top}")
    fn = MultiplicativeFn(sieve, "chi3_star")
    rows: list[tuple[int, int, int]] = []
    witness = None
    for k in range(1, k_max + 1):
        m = fn.partial_sum(3**k + 1)
        expected = (-1) ** k + 1
        rows.append((k, m, expected))
        if m != expected and witness is None:
            witness = k
    return Chi3Report(k_max=k_max, values=rows, ok=witness is None, witness=witness)


@dataclass
class ScaleReport:
    """One inductive step of the pipeline at scale N."""

    n: int
    mid_interval: tuple[int, int]
    top_interval: tuple[int, int]
    mid_primes: int
    top_primes: int
    e_value: Fraction
    identity_ok: bool
    flip: FlipResult
    mid_report: ConstructionReport | None
    top_report: ConstructionReport | None
    achieved_exact: Fraction
    achieved: BigFixed
    eta_target: Fraction
    met: bool
    feasible: bool
    c0_hat: float | None
    cube_root_bound_ok: bool
    notes: list[str] = field(default_factory=list)


@dataclass
class PipelineState:
    """Cross-scale state of the two-block construction."""

    scales: list[int]
    c_cross: int
    delta: Fraction
    modified_intervals: list[list[list[int]]]
    scale_reports: list[ScaleReport]
    seed_rule: str
    seed_overrides: dict[int, int]
    rng_seed: int
    feasible: bool
    wall_time: float = 0.0

    def to_obj(self) -> dict:
        obj = dict(vars(self))
        # str keys, as JSON holds them: they sort as strings, not as numbers
        obj["seed_overrides"] = {str(k): v for k, v in self.seed_overrides.items()}
        return obj


def _block_intervals(n: int, c: int) -> tuple[tuple[int, int], tuple[int, int]]:
    return (n // (c + 1), n // c), (n // 2, n)


def log_mean_pipeline(
    sieve: SieveTable,
    seed_rule: str = "liouville",
    seed_overrides: dict[int, int] | None = None,
    c_cross: int = 6,
    scales: list[int] | None = None,
    c0: float = 1.0 / 1000,
    rng_seed: int = 0,
    target_eta: Fraction = Fraction(1, 10**10),
    max_free: int = 48,
    allow_nonpositive_delta: bool = False,
) -> tuple[MultiplicativeFn, PipelineState]:
    """Drive |L(f, N_i)| small by reassigning f at primes in two blocks per
    scale: J_i = [N_i/2, N_i] united with [N_i/(C+1), N_i/C].

    Per scale: (a) split L(f, N) = sum_top f(p)/p + L(f, C) * sum_mid f(p)/p
    + E and assert the split against a direct evaluation: [1, N] is cut once
    into the m no block prime divides, whose exact sum is E, and the
    multiples of block primes, and L(f, N) is E plus their exact sum; (b)
    flip signs on the top block toward -E, (c) meet-in-the-middle on the mid
    block with target (E + sum_top)/Delta, then refine a free subset of the
    top block, and (d) re-verify |L(f, N)| exactly against the target, as E
    plus the multiples' sum at the final signs. E is reused only after a check
    that f is unchanged at every m outside the multiples; otherwise it is
    summed again and the scale notes it. The function agrees with the seed at
    every prime outside the union of the blocks.

    Delta = -L(seed, C) must be positive for the asymptotic argument; pass
    allow_nonpositive_delta=True to run best-effort when it is not.
    """
    t_start = time.perf_counter()
    scales = list(scales) if scales is not None else [2000, 16000]
    if sorted(scales) != scales:
        raise ValueError("scales must be increasing")
    if c_cross < 2:
        raise ValueError("block constant must be >= 2")
    if scales[0] <= (c_cross + 1) ** 2:
        raise ValueError(
            f"first scale must exceed (C+1)^2 = {(c_cross + 1) ** 2} for a valid block split"
        )
    for a, b in zip(scales, scales[1:]):
        if b < 8 * a or b <= (c_cross + 1) * a:
            raise ValueError("each scale must be >= 8x and > (C+1)x the previous one")
    if scales[-1] > sieve.limit:
        raise ValueError("sieve limit below the top scale")
    if not 0 < c0 < math.inf:
        raise ValueError(f"c0 must be positive and finite, got {c0}")
    fn = MultiplicativeFn(sieve, seed_rule, seed_overrides)
    seed_fn = fn
    l_c = seed_fn.log_mean_exact(c_cross)
    delta = -l_c
    if delta <= 0 and not allow_nonpositive_delta:
        raise InfeasibleError(
            f"Delta = -L(seed, {c_cross}) = {delta} is not positive; "
            "no admissible crossing at this constant"
        )
    reports: list[ScaleReport] = []
    intervals: list[list[list[int]]] = []
    feasible_all = True

    def exact_sum(values: np.ndarray, ms: np.ndarray) -> Fraction:
        """Exact sum of f(m)/m over m in ms."""
        return rational_sum(ms, values[ms])

    for n in scales:
        notes: list[str] = []
        (mid_lo, mid_hi), (top_lo, top_hi) = _block_intervals(n, c_cross)
        # Every prime p in the mid block has n // p == C, and the top block
        # (n/2, n] holds a prime by Bertrand's postulate.
        mid_primes = sieve.primes_in(mid_lo, mid_hi)
        top_primes = sieve.primes_in(top_lo, top_hi)
        intervals.append([[mid_lo, mid_hi], [top_lo, top_hi]])
        # Split [1, N] into the m no block prime divides, whose f(m) no step
        # below may change, and the multiples of block primes.
        mask = np.ones(n + 1, dtype=bool)
        mask[0] = False
        for p in list(mid_primes) + list(top_primes):
            mask[p::p] = False
        untouched = np.flatnonzero(mask)
        touched = np.flatnonzero(~mask[1:]) + 1
        vals = vals_at_start = fn.values_range()
        e_direct = exact_sum(vals, untouched)
        l_total = e_direct + exact_sum(vals, touched)
        s_top = exact_sum(vals, top_primes.values)
        s_mid = exact_sum(vals, mid_primes.values)
        e_value = l_total - s_top - l_c * s_mid
        # Holds iff the multiples of block primes sum to s_top + L(f, C) s_mid.
        identity_ok = e_value == e_direct
        if not identity_ok:
            notes.append("block decomposition identity failed")
        # (b) flip the top block toward -(E + L_C * current mid sum).
        flip_target = -(e_value + l_c * s_mid)
        flip = flip_to_target(top_primes, flip_target)
        if flip.feasible:
            fn = fn.with_overrides(dict(flip.signs.items()))
            s_top = flip.error + flip_target  # the error is the signed sum minus the target
        else:
            notes.append(
                f"top-block flip infeasible (deficit {float(flip.deficit):.3e}); "
                "keeping seed signs"
            )
        vals = fn.values_range()
        # (c) mid block toward x0 = (E + sum_top)/Delta, when it has leverage.
        mid_report = None
        if len(mid_primes) and delta != 0:
            x0_mid = (e_value + s_top) / delta
            mid_report = mitm_optimize(
                mid_primes, x0_mid, max_free=min(max_free, len(mid_primes)), seed=rng_seed
            )
            fn = fn.with_overrides(dict(mid_report.signs.items()))
            vals = fn.values_range()
        elif not len(mid_primes):
            notes.append("mid block contains no primes at this scale")
        s_mid = exact_sum(vals, mid_primes.values)
        # (c') refine a free subset of the top block for the final target.
        top_report = None
        if len(top_primes) > 1:
            free_idx = _spread_indices(len(top_primes), max_free)
            free_sup = SupportSet(top_primes.values[free_idx])
            fixed_mask = np.ones(len(top_primes), dtype=bool)
            fixed_mask[free_idx] = False
            fixed_sup = SupportSet(top_primes.values[fixed_mask])
            s_top_fixed = exact_sum(vals, fixed_sup.values)
            x0_top = -(e_value + l_c * s_mid + s_top_fixed)
            top_report = mitm_optimize(
                free_sup, x0_top, max_free=max_free, seed=rng_seed, target_eta=target_eta
            )
            fn = fn.with_overrides(dict(top_report.signs.items()))
            vals = fn.values_range()
            s_top = s_top_fixed + exact_sum(vals, free_sup.values)
        # (d) exact re-verification at this scale: only the touched part can
        # have moved, so E is reused once the untouched values are confirmed.
        if not np.array_equal(vals[untouched], vals_at_start[untouched]):
            notes.append("values changed off the block multiples; E re-summed")
            e_direct = exact_sum(vals, untouched)
        l_final = e_direct + exact_sum(vals, touched)
        achieved_exact = abs(l_final)
        identity_final = l_final == e_value + s_top + l_c * s_mid
        if not identity_final:
            notes.append("post-construction decomposition identity failed")
        met, achieved_bf, _ = verify_abs_below(
            achieved_exact, target_eta, start_bits=default_precision(n, target_eta)
        )
        af = float(achieved_exact) if achieved_exact else 0.0
        c0_hat = (
            -math.log(af) / (n / math.log(n)) ** (1.0 / 3) if 0.0 < af < 1.0 else None
        )
        cube_root_bound_ok = bool(
            achieved_exact
            <= Fraction(math.exp(-c0 * (n / math.log(n)) ** (1.0 / 3)))
        )
        scale_feasible = flip.feasible and identity_ok and identity_final
        feasible_all = feasible_all and scale_feasible and met
        reports.append(
            ScaleReport(
                n=n,
                mid_interval=(mid_lo, mid_hi),
                top_interval=(top_lo, top_hi),
                mid_primes=len(mid_primes),
                top_primes=len(top_primes),
                e_value=e_value,
                identity_ok=identity_ok,
                flip=flip,
                mid_report=mid_report,
                top_report=top_report,
                achieved_exact=achieved_exact,
                achieved=achieved_bf,
                eta_target=target_eta,
                met=met,
                feasible=scale_feasible,
                c0_hat=c0_hat,
                cube_root_bound_ok=cube_root_bound_ok,
                notes=notes,
            )
        )
    state = PipelineState(
        scales=scales,
        c_cross=c_cross,
        delta=delta,
        modified_intervals=intervals,
        scale_reports=reports,
        seed_rule=seed_rule,
        seed_overrides=dict(seed_overrides or {}),
        rng_seed=rng_seed,
        feasible=feasible_all,
        wall_time=time.perf_counter() - t_start,
    )
    return fn, state


def locality_check(
    fn: MultiplicativeFn, seed_fn: MultiplicativeFn, intervals, limit: int
) -> bool:
    """True iff fn agrees with the seed at every prime <= limit outside the
    given intervals."""
    ps = fn.sieve.primes[fn.sieve.primes <= limit]
    outside = np.ones(len(ps), dtype=bool)
    for blocks in intervals:
        for lo, hi in blocks:
            outside &= ~((ps > lo) & (ps <= hi))
    ps = ps[outside]
    return np.array_equal(fn._sign[ps], seed_fn._sign[ps])


def multiplicativity_check(fn: MultiplicativeFn, pairs: int, seed: int) -> bool:
    """f(mn) == f(m) f(n) on `pairs` random pairs with mn within range."""
    rng = np.random.default_rng(seed)
    vals = fn.values_range()
    limit = fn.limit
    top = int(math.isqrt(limit))
    m = rng.integers(1, top + 1, size=pairs)
    n = rng.integers(1, limit // np.maximum(m, 1) + 1, size=pairs)
    prod = m * n
    return bool(np.all(vals[prod] == vals[m] * vals[n]))
