"""Exact arithmetic the benchmark checks outputs with.

Written apart from `harmsum.numerics` on purpose, so that a bug there cannot
certify its own output. Sums are kept as unreduced pairs (P, Q) with Q > 0:
binary splitting needs only multiplications, and every comparison is done by
cross-multiplying, so no gcd or decimal conversion of an lcm-sized integer is
ever needed.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np


def signed_sum(ns, signs) -> tuple[int, int]:
    """Sum of s/n over the pairs, as (P, Q) with Q > 0, by binary splitting."""
    ps = [int(s) for s in signs]
    qs = [int(n) for n in ns]
    if len(ps) != len(qs):
        raise ValueError("signs and support differ in length")
    if not qs:
        return 0, 1
    while len(qs) > 1:
        np_, nq = [], []
        for i in range(0, len(qs) - 1, 2):
            np_.append(ps[i] * qs[i + 1] + ps[i + 1] * qs[i])
            nq.append(qs[i] * qs[i + 1])
        if len(qs) % 2:
            np_.append(ps[-1])
            nq.append(qs[-1])
        ps, qs = np_, nq
    return ps[0], qs[0]


def shift(value: tuple[int, int], x0: Fraction) -> tuple[int, int]:
    """value - x0 as an unreduced pair."""
    p, q = value
    return p * x0.denominator - x0.numerator * q, q * x0.denominator


def absolute(value: tuple[int, int]) -> tuple[int, int]:
    return abs(value[0]), value[1]


def compare(value: tuple[int, int], other: Fraction) -> int:
    """Sign of value - other: -1, 0 or 1."""
    p, q = value
    lhs = p * other.denominator
    rhs = other.numerator * q
    return (lhs > rhs) - (lhs < rhs)


def equals_fraction(value: tuple[int, int], other: Fraction) -> bool:
    return compare(value, other) == 0


def matches_rendering(value: tuple[int, int], text: str) -> bool:
    """True iff `text` is a faithful rendering of the exact value.

    Accepts "p/q" or an integer (must be exactly equal) and scientific
    notation "d.ddde+k", which must hold the value's leading digits: the
    value lies in [D, D + 1) units of the last printed digit.
    """
    if not isinstance(text, str):
        return False
    p, q = value
    text = text.strip()
    if "e" not in text:
        return equals_fraction(value, Fraction(text))
    negative = text.startswith("-")
    if negative != (p < 0) or p == 0:
        return False
    mant, _, exp = text.lstrip("-").partition("e")
    whole, _, frac = mant.partition(".")
    digits = int(whole + frac)
    k = int(exp) - len(frac)
    mag = abs(p)
    if k >= 0:
        lo, hi, val = digits * 10**k * q, (digits + 1) * 10**k * q, mag
    else:
        lo, hi, val = digits * q, (digits + 1) * q, mag * 10**-k
    return lo <= val < hi


def log10_abs(value: tuple[int, int]) -> float:
    """log10 |P/Q| to double precision without converting either to float."""
    p, q = value
    if p == 0:
        return -math.inf

    def lg(n: int) -> float:
        n = abs(n)
        drop = max(0, n.bit_length() - 60)
        return math.log10(n >> drop) + drop * math.log10(2)

    return lg(p) - lg(q)


def decimal_bound(value: tuple[int, int], rel_bits: int, above: bool) -> str:
    """A decimal string t with value < t (above) or t < value (below), at a
    relative distance of about 2^-rel_bits from |value|."""
    p, q = absolute(value)
    step = 1 << rel_bits
    num = p * (step + 1 if above else step - 1)
    den = q * step
    sig = math.ceil(rel_bits * math.log10(2)) + 12
    e10 = math.floor(log10_abs((num, den)))
    k = sig - 1 - e10
    if k >= 0:
        scaled, rem = divmod(num * 10**k, den)
    else:
        scaled, rem = divmod(num, den * 10**-k)
    if above and rem:
        scaled += 1
    return f"{scaled}e{-k}"


def decode_signs(obj: dict) -> tuple[np.ndarray, np.ndarray]:
    """Support and signs of a run-length encoded sign sequence."""
    ranges = obj["support_ranges"]
    runs = obj["signs_rle"]
    support = (
        np.concatenate([np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges])
        if ranges
        else np.empty(0, dtype=np.int64)
    )
    signs = np.repeat(
        np.asarray([s for s, _ in runs], dtype=np.int64),
        np.asarray([c for _, c in runs], dtype=np.int64),
    )
    if support.size != signs.size:
        raise ValueError("support and signs differ in length")
    if signs.size and not np.all(np.abs(signs) == 1):
        raise ValueError("signs must be +1 or -1")
    return support, signs


def smallest_prime_factors(limit: int) -> np.ndarray:
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            seg = spf[p * p :: p]
            seg[seg == np.arange(p * p, limit + 1, p)] = p
    return spf


def multiplicative_values(prime_sign: dict[int, int], default, limit: int) -> np.ndarray:
    """f(0..limit) of the completely multiplicative f with the given prime signs."""
    spf = smallest_prime_factors(limit)
    vals = np.zeros(limit + 1, dtype=np.int64)
    vals[1] = 1
    for m in range(2, limit + 1):
        p = int(spf[m])
        sign = prime_sign.get(p)
        if sign is None:
            sign = default(p)
        vals[m] = sign * vals[m // p]
    return vals


def small_ball_count(ns: list[int], x0: Fraction, eta: Fraction) -> int:
    """Number of sign vectors s with |sum s/n - x0| <= eta, by splitting the
    support into a first and a second half."""
    scale = math.lcm(*ns) * x0.denominator * eta.denominator
    weights = [scale // n for n in ns]
    lo = int((x0 - eta) * scale)  # scale clears both denominators
    hi = int((x0 + eta) * scale)

    def sums(ws):
        out = [0]
        for w in ws:
            out = [s + w for s in out] + [s - w for s in out]
        return out

    half = len(weights) // 2
    first = sums(weights[:half])
    second = sorted(sums(weights[half:]))
    count = 0
    for s in first:
        count += bisect.bisect_right(second, hi - s) - bisect.bisect_left(second, lo - s)
    return count


def lcm_bits(values: np.ndarray) -> int:
    """Bit length of lcm(values), from prime powers rather than repeated lcm."""
    values = np.unique(np.asarray(values, dtype=np.int64))
    if not values.size:
        return 1
    top = int(values[-1])
    present = np.zeros(top + 1, dtype=bool)
    present[values] = True
    spf = smallest_prime_factors(top)
    log2 = 0.0
    for p in np.nonzero(spf[2:] == np.arange(2, top + 1))[0] + 2:
        q = int(p)
        while q <= top and present[q::q].any():
            log2 += math.log2(int(p))
            q *= int(p)
    return math.floor(log2) + 1
