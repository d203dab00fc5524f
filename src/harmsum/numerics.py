"""Rigorous fixed-point and exact rational arithmetic for harmonic sums.

Every approximate quantity is a BigFixed: an integer mantissa at a fixed
binary scale together with an integer ulp error bound. The true value is
guaranteed to lie in [mantissa - err, mantissa + err] * 2^-scale_bits.
Exact values are plain fractions.Fraction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, is_dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .support import SignSequence

# Size guard for exact sums, in bits. rational_sum checks the sum of the bit
# lengths of the n's (a bound on their product), which passes [1, N] up to
# N = 448 645; SupportSet.from_ranges checks a support's size before it allocates.
DEFAULT_LCM_BIT_BUDGET = 8_000_000
# rational_sum adds its first terms in blocks of this many with small integers.
_LEAF_TERMS = 8
# rational_sum splits its terms by their prime factor above sqrt(max) once the
# bit lengths of the n's sum to this many bits. Below it the product tree alone
# is as fast or faster: the two break even near 10 000 to 16 000 bits on [1, N]
# and on supports with up to 16 values per term.
_SPLIT_MIN_BITS = 16_000
# The split looks prime factors up in an int32 table over [0, max(ns)]. It is
# built only for max(ns) up to _FACTOR_TABLE_MAX and at most _TABLE_PER_TERM
# entries per term, so its size follows the support and not one large value.
_FACTOR_TABLE_MAX = 1 << 21
_TABLE_PER_TERM = 16
# verify_abs_below doubles its precision up to this bound: a 2^13-bit mantissa
# stays within Python's 4300-digit limit on int-to-str conversion.
MAX_PRECISION_BITS = 1 << 13
# default_precision's reference when there is no positive target.
_REFERENCE_ETA = Fraction(1, 10**15)
_LOG2_10 = math.log2(10)
_POWERS_OF_TWO = np.uint64(1) << np.arange(64, dtype=np.uint64)


if hasattr(Fraction, "_from_coprime_ints"):  # Python >= 3.12
    _coprime_fraction = Fraction._from_coprime_ints
else:

    def _coprime_fraction(num: int, den: int) -> Fraction:
        """num/den for coprime num and den > 0, without Fraction's gcd."""
        return Fraction(num, den, _normalize=False)


class ResourceBudgetError(Exception):
    """Raised when an exact computation would exceed its memory budget."""


class Comparison(enum.Enum):
    BELOW = "below"
    ABOVE = "above"
    INDETERMINATE = "indeterminate"


def _round_nearest(num: int, den: int) -> tuple[int, int]:
    """Round num/den to the nearest integer (half away from zero).

    Returns (value, inexact) where inexact is 1 iff rounding occurred.
    """
    if den <= 0:
        raise ValueError("denominator must be positive")
    if num >= 0:
        q, r = divmod(num, den)
        if 2 * r >= den:
            q += 1
        return q, (0 if r == 0 else 1)
    q, r = _round_nearest(-num, den)
    return -q, r


@dataclass(frozen=True)
class BigFixed:
    """Fixed-point value mantissa * 2^-scale_bits with error <= err_ulps ulps."""

    mantissa: int
    scale_bits: int
    err_ulps: int = 0

    def __post_init__(self):
        if self.scale_bits < 1:
            raise ValueError("scale_bits must be >= 1")
        if self.err_ulps < 0:
            raise ValueError("err_ulps must be >= 0")

    @classmethod
    def from_fraction(cls, value: Fraction, scale_bits: int) -> "BigFixed":
        value = Fraction(value)
        m, inexact = _round_nearest(value.numerator << scale_bits, value.denominator)
        return cls(m, scale_bits, inexact)

    def rescale(self, scale_bits: int) -> "BigFixed":
        """Move to a higher precision exactly (lowering is not supported)."""
        if scale_bits < self.scale_bits:
            raise ValueError("rescale only raises precision")
        shift = scale_bits - self.scale_bits
        return BigFixed(self.mantissa << shift, scale_bits, self.err_ulps << shift)

    def value_fraction(self) -> Fraction:
        return Fraction(self.mantissa, 1 << self.scale_bits)

    def err_fraction(self) -> Fraction:
        return Fraction(self.err_ulps, 1 << self.scale_bits)

    def interval(self) -> tuple[Fraction, Fraction]:
        one = Fraction(1, 1 << self.scale_bits)
        return (self.mantissa - self.err_ulps) * one, (self.mantissa + self.err_ulps) * one

    def contains(self, value: Fraction) -> bool:
        lo, hi = self.interval()
        return lo <= value <= hi

    def _aligned(self, other: "BigFixed") -> tuple["BigFixed", "BigFixed"]:
        p = max(self.scale_bits, other.scale_bits)
        return self.rescale(p), other.rescale(p)

    def to_decimal_string(self, sig: int = 15) -> str:
        val = _sci(self.value_fraction(), sig)
        if self.err_ulps == 0:
            return f"{val} (exact)"
        return f"{val} ± {_sci(self.err_fraction(), 2, round_up=True)}"

    def to_obj(self) -> dict:
        return {
            "decimal": self.to_decimal_string(),
            "mantissa": str(self.mantissa),
            "scale_bits": self.scale_bits,
            "err_ulps": str(self.err_ulps),
        }


def _sci(value: Fraction, sig: int, round_up: bool = False) -> str:
    """Exact scientific-notation rendering of a rational, `sig` digits.

    The magnitude is truncated and trailing zeros are dropped; with round_up
    it is rounded up and all `sig` digits are kept (for error bounds).
    """
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    num, den = abs(value).numerator, abs(value).denominator
    # floor(log10(num/den)): log2(num/den) lies within one of the bit-length
    # difference, so the estimate below is off by at most one each way, and
    # comparisons with 10^e10 and 10^(e10 + 1) correct it.
    e10 = math.floor((num.bit_length() - den.bit_length()) / _LOG2_10)
    while num * 10 ** max(0, -e10) < den * 10 ** max(0, e10):
        e10 -= 1
    while num * 10 ** max(0, -e10 - 1) >= den * 10 ** max(0, e10 + 1):
        e10 += 1
    shift = sig - 1 - e10
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    s = str(-(-num // den) if round_up else num // den)
    if len(s) > sig:  # carry from the rounding above
        e10 += len(s) - sig
        s = s[:sig]
    tail = s[1:] if round_up else s[1:].rstrip("0")
    return f"{sign}{s[0]}{'.' + tail if tail else ''}e{e10:+d}"


def fraction_str(value: Fraction | None, max_digits: int = 60, sig: int = 24) -> str | None:
    """Render a rational as "p/q" when small, scientific notation when huge.

    Keeps report JSON readable and deterministic even when denominators are
    lcm-sized (thousands of digits).
    """
    if value is None:
        return None
    value = Fraction(value)
    if value == 0:
        return "0"
    # Python compares ints of different sizes by length first, so this costs
    # no more for lcm-sized values than for small ones.
    limit = 10**max_digits
    if abs(value.numerator) < limit and value.denominator < limit:
        return str(value)
    return _sci(value, sig)


_JSON_SCALARS = (str, int, float, bool, type(None))


def _plain(obj):
    """One conversion of a report value that JSON does not hold as it is:
    rationals through fraction_str, NumPy scalars as Python numbers, objects
    through their to_obj(), other dataclass instances as their fields. Any
    other value comes back unchanged."""
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if hasattr(obj, "to_obj"):
        return obj.to_obj()
    if is_dataclass(obj) and not isinstance(obj, type):
        return vars(obj)
    return obj


def _is_int_pairs(obj) -> bool:
    """Whether obj is a list of [int, int] pairs. JSON true and false do not
    count as ints, though Python's bool subclasses int."""
    return isinstance(obj, list) and all(
        type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
        for p in obj
    )


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _key_text(key) -> str:
    """A dict key as json.dumps writes it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(obj) -> str:
    """json.dumps(obj, default=_plain, indent=2, sort_keys=True), byte for
    byte, written in one walk that converts each value as it goes. A value
    that _plain leaves as it is raises TypeError.

    json.dumps with an indent runs CPython's pure-Python encoder; lists of
    [int, int] pairs, the run-length and range lists of a sign sequence, are
    written here with one string template each.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    return "".join(out)


def _write_json(obj, nl: str, out: list[str]) -> None:
    """Append the JSON text of obj; nl is the newline and indent of its line."""
    if type(obj) not in _JSON_SCALARS and not isinstance(obj, (dict, list, tuple)):
        plain = _plain(obj)
        if plain is not obj:
            _write_json(plain, nl, out)
            return
    # json.dumps's own rules from here on, subclasses of str, int and float included
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep)
            out.append(encode_basestring_ascii(_key_text(key)))
            out.append(": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        if _is_int_pairs(obj):
            pair = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            out.append("[" + inner + ("," + inner).join([pair % (a, b) for a, b in obj]))
        else:
            sep = "[" + inner
            for value in obj:
                out.append(sep)
                _write_json(value, inner, out)
                sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def unit_fraction(n: int, scale_bits: int) -> BigFixed:
    """1/n as a BigFixed with at most one ulp of error."""
    return unit_sum([n], scale_bits)


def rounded_units(ns, scale_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """2^scale_bits / n rounded half up for every n, with a mask of the terms
    that rounding changed. This is the one rounding of 1/n: the units are
    int64 for scale_bits <= 62 and exact Python ints (an object array) above.
    Raises ValueError for any n < 1, before dividing."""
    if scale_bits < 1:
        raise ValueError("precision must be >= 1 bit")
    ns = np.asarray(ns, dtype=np.int64)
    if ns.size and ns.min() < 1:
        raise ValueError("n must be >= 1")
    if scale_bits <= 62:
        q, r = np.divmod(np.int64(1) << scale_bits, ns)
    else:  # remainders are below n, so only the quotients need Python ints
        q, r = np.frompyfunc(divmod, 2, 2)(1 << scale_bits, ns)
        r = r.astype(np.int64)
    q += r >= ns - r
    return q, r != 0


def unit_sum(ns, scale_bits: int, signs=None) -> BigFixed:
    """Sum of s/n with each 1/n rounded half up to a multiple of 2^-scale_bits.

    `signs` holds the +1/-1 of each term (all +1 when None). err_ulps is the
    number of inexact terms; each is off by at most half an ulp.
    """
    units, inexact = rounded_units(ns, scale_bits)
    if max(len(units), 1) << scale_bits >= 1 << 63:  # an int64 sum could overflow
        units = units.astype(object, copy=False)
    plus = np.ones(len(units), dtype=bool) if signs is None else np.asarray(signs) > 0
    total = int(units[plus].sum()) - int(units[~plus].sum())
    return BigFixed(total, scale_bits, int(inexact.sum()))


def signed_harmonic_sum(signs: SignSequence, scale_bits: int) -> BigFixed:
    """Sum of sign(n)/n over the support, with err <= |support| ulps."""
    return unit_sum(signs.support.values, scale_bits, signs.signs)


def _half_sums(units: np.ndarray) -> np.ndarray:
    """All 2^m signed sums of `units`: bit j of an entry's index means -u_j.

    The sums take the dtype of `units`: int64 in the MITM kernel and in
    exhaustive_probability's screen; object half sums of lcm/n (exact Python
    ints) now serve only exhaustive_probability's exact fallback. Built in
    place: unit j turns the first 2^j entries v into v + u_j followed by
    v - u_j.
    """
    out = np.empty(1 << len(units), dtype=units.dtype)
    out[0] = 0
    n = 1
    for u in units.tolist():
        np.subtract(out[:n], u, out=out[n : 2 * n])
        out[:n] += u
        n *= 2
    return out


def rational_sum(ns, signs) -> Fraction:
    """Exact sum of s/n over paired ns and +1/-1 signs, as a reduced rational.

    Sums under _SPLIT_MIN_BITS, and sums the factor table does not reach,
    go through one product tree (_tree_sum). Larger ones are split by the
    anatomy of integers (_split_sum): each n <= max has at most one prime
    factor above sqrt(max), and only to the first power. Integer ndarrays
    stay arrays on the split path, and the guard counts their bits from the
    array (_bit_total); everything else is turned into lists once.
    """
    array = isinstance(ns, np.ndarray) and ns.dtype.kind == "i"
    if not array:
        ns = ns.tolist() if isinstance(ns, np.ndarray) else list(map(int, ns))
    if not isinstance(signs, np.ndarray):
        signs = list(signs)
    if len(ns) != len(signs):
        raise ValueError("ns and signs differ in length")
    bits = _bit_total(ns) if array else sum(map(int.bit_length, ns))
    if bits > DEFAULT_LCM_BIT_BUDGET:
        raise ResourceBudgetError(
            f"product of the denominators exceeds {DEFAULT_LCM_BIT_BUDGET} bits"
        )
    if bits >= _SPLIT_MIN_BITS:
        low, top = (int(ns.min()), int(ns.max())) if array else (min(ns), max(ns))
        if low >= 1 and top <= min(_FACTOR_TABLE_MAX, _TABLE_PER_TERM * len(ns)):
            return _split_sum(ns, signs, top)
    if array:
        ns = ns.tolist()
    if isinstance(signs, np.ndarray):
        signs = signs.tolist()
    return _tree_sum(ns, signs)


def _bit_total(ns: np.ndarray) -> int:
    """Sum of int.bit_length over an integer array, exact for every int64:
    |n| as uint64 (|-2^63| included) is ranked among the powers of two."""
    mags = np.abs(ns.astype(np.int64, copy=False)).view(np.uint64)
    return int(np.searchsorted(_POWERS_OF_TWO, mags, side="right").sum())


def _tree_sum(ns: list[int], signs: list) -> Fraction:
    """Binary splitting (Haible and Papanikolaou, 1998): blocks of _LEAF_TERMS
    terms are added with small integers into (p, q) with q the product of
    their n's, then neighbours merge pairwise over q1 * q2 / gcd(q1, q2), so
    a node's denominator stays near the lcm of its n's. One final Fraction
    reduces the result."""
    nodes = []
    for i in range(0, len(ns), _LEAF_TERMS):
        p, q = 0, 1
        for n, s in zip(ns[i : i + _LEAF_TERMS], signs[i : i + _LEAF_TERMS]):
            p = p * n + q if s > 0 else p * n - q
            q *= n
        nodes.append((p, q))
    while len(nodes) > 1:
        merged = []
        for (p1, q1), (p2, q2) in zip(nodes[0::2], nodes[1::2]):
            g = math.gcd(q1, q2)
            a, b = q1 // g, q2 // g
            merged.append((p1 * b + p2 * a, q1 * b))
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    return Fraction(*nodes[0]) if nodes else Fraction(0)


def _large_prime_table(top: int) -> tuple[np.ndarray, list[int]]:
    """An int32 table over [0, top] holding the prime factor of n above
    r = isqrt(top), or 0 when n has none, and the primes up to r."""
    r = math.isqrt(top)
    is_prime = np.ones(top + 1, dtype=bool)
    is_prime[:2] = False
    for q in range(2, r + 1):
        if is_prime[q]:
            is_prime[q * q :: q] = False
    small = np.flatnonzero(is_prime[: r + 1]).tolist()
    large = np.flatnonzero(is_prime[r + 1 :]).astype(np.int32) + (r + 1)
    del is_prime
    # n = p * m with m <= r for every such p: pair each m with the large
    # primes up to top // m, in one scatter
    counts = np.searchsorted(large, top // np.arange(1, r + 1), side="right")
    ms = np.repeat(np.arange(1, r + 1, dtype=np.int32), counts)
    ps = large[np.arange(len(ms)) - np.repeat(np.cumsum(counts) - counts, counts)]
    table = np.zeros(top + 1, dtype=np.int32)
    table[ps * ms] = ps
    return table, small


def _split_sum(ns: list[int] | np.ndarray, signs: list | np.ndarray, top: int) -> Fraction:
    """Exact sum of s/n for 1 <= n <= top, split by each n's prime factor
    above r = isqrt(top).

    Such a p divides n once, as n = p * m with m <= r. Every r-smooth n and
    every m divides L, the lcm of the r-smooth numbers up to top, so the sum
    is (S + sum over p of A_p / p) / L: S sums s * L/n over the r-smooth n
    and A_p sums s * L/m over p's terms, each a division by a small integer.
    A p that divides A_p moves A_p / p into S. The other A_p / p merge in a
    product tree over distinct primes, which needs no gcd. Their product Q
    is prime to the numerator, since p divides neither L nor A_p, so one gcd
    with L reduces the result.
    """
    table, small = _large_prime_table(top)
    sn = np.asarray(ns, dtype=np.int32)
    keys = table[sn]
    del table
    sn = np.where(np.asarray(signs) > 0, sn, -sn)  # s * n
    smooth = keys == 0
    lcm = 1
    for q in small:
        qe = q
        while qe * q <= top:
            qe *= q
        lcm *= qe
    total = sum(map(lcm.__floordiv__, sn[smooth].tolist()))

    keys, sn = keys[~smooth], sn[~smooth]
    order = np.argsort(keys)
    keys = keys[order]
    sm = sn[order] // keys  # s * m, exact since p divides n
    del sn, order
    # weights[-m] = -L/m, so weights[sm] is s * L/m
    w = [lcm // m for m in range(1, math.isqrt(top) + 1)]
    weights = np.array([0, *w, *(-x for x in reversed(w))], dtype=object)
    starts = np.flatnonzero(np.diff(keys, prepend=0))
    sums = np.add.reduceat(weights[sm], starts).tolist() if len(starts) else []
    nodes = []
    for a, p in zip(sums, keys[starts].tolist()):
        if a % p:
            nodes.append((a, p))
        else:
            total += a // p
    while len(nodes) > 1:
        pairs = zip(nodes[0::2], nodes[1::2])
        merged = [(a1 * q2 + a2 * q1, q1 * q2) for (a1, q1), (a2, q2) in pairs]
        if len(nodes) % 2:
            merged.append(nodes[-1])
        nodes = merged
    a, q = nodes[0] if nodes else (0, 1)
    num = total * q + a
    g = math.gcd(num, lcm)
    return _coprime_fraction(num // g, lcm // g * q)


def exact_rational_sum(signs: SignSequence) -> Fraction:
    """Exact value of the signed harmonic sum as a reduced rational."""
    return rational_sum(signs.support.values, signs.signs)


def compare_to_threshold(value: BigFixed, eta: BigFixed) -> Comparison:
    """Compare |value| against eta, honoring both error intervals.

    BELOW iff |value| + err < eta - err_eta; ABOVE iff |value| - err >
    eta + err_eta; otherwise INDETERMINATE (raise precision and retry).
    """
    v, e = value._aligned(eta)
    mag = abs(v.mantissa)
    if mag + v.err_ulps < e.mantissa - e.err_ulps:
        return Comparison.BELOW
    if mag - v.err_ulps > e.mantissa + e.err_ulps:
        return Comparison.ABOVE
    return Comparison.INDETERMINATE


def default_precision(
    support_size: int, eta_target: Fraction | None, value: Fraction | None = None
) -> int:
    """Working precision: enough bits that |support| ulps stay below ref/2.

    ref is eta_target, or 10^-15 when there is no positive target, lowered to
    |value| when a nonzero value lies below it.
    """
    ref = eta_target if eta_target is not None and eta_target > 0 else _REFERENCE_ETA
    if value is not None and 0 < abs(value) < ref:
        ref = abs(value)
    ratio = Fraction(max(support_size, 1)) / Fraction(ref)
    return max(1, math.ceil(math.log2(float(ratio)))) + 16


def verify_abs_below(
    value: Fraction, eta: Fraction, start_bits: int = 64
) -> tuple[bool, BigFixed, int]:
    """Decide |value| <= eta and render value at the precision that shows it.

    The verdict is the exact non-strict comparison. The BigFixed is value at
    the first precision start_bits * 2^j whose interval compare_to_threshold
    decides, else at MAX_PRECISION_BITS; the third item is that precision.
    """
    value = Fraction(value)
    eta = Fraction(eta)
    bits = min(start_bits, MAX_PRECISION_BITS)
    v = BigFixed.from_fraction(value, bits)
    while bits < MAX_PRECISION_BITS and compare_to_threshold(
        v, BigFixed.from_fraction(eta, bits)
    ) is Comparison.INDETERMINATE:
        bits = min(2 * bits, MAX_PRECISION_BITS)
        v = BigFixed.from_fraction(value, bits)
    return abs(value) <= eta, v, bits
