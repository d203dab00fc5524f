"""Rigorous fixed-point and exact rational arithmetic for harmonic sums.

Every approximate quantity is a BigFixed: an integer mantissa at a fixed
binary scale together with an integer ulp error bound. The true value is
guaranteed to lie in [mantissa - err, mantissa + err] * 2^-scale_bits.
Exact values are plain fractions.Fraction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
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
    def zero(cls, scale_bits: int) -> "BigFixed":
        return cls(0, scale_bits, 0)

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

    def __add__(self, other: "BigFixed") -> "BigFixed":
        a, b = self._aligned(other)
        return BigFixed(a.mantissa + b.mantissa, a.scale_bits, a.err_ulps + b.err_ulps)

    def __sub__(self, other: "BigFixed") -> "BigFixed":
        return self + (-other)

    def __neg__(self) -> "BigFixed":
        return BigFixed(-self.mantissa, self.scale_bits, self.err_ulps)

    def __abs__(self) -> "BigFixed":
        return BigFixed(abs(self.mantissa), self.scale_bits, self.err_ulps)

    def mul_int(self, k: int) -> "BigFixed":
        return BigFixed(self.mantissa * k, self.scale_bits, self.err_ulps * abs(k))

    def mul_fraction(self, q: Fraction) -> "BigFixed":
        """Multiply by an exact rational, rounding to nearest (err +1 ulp)."""
        q = Fraction(q)
        m, inexact = _round_nearest(self.mantissa * q.numerator, q.denominator)
        err = -((-self.err_ulps * abs(q.numerator)) // q.denominator)  # ceil
        return BigFixed(m, self.scale_bits, err + inexact)

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


def _digits10(n: int) -> int:
    """Number of decimal digits of a positive integer, without str()."""
    if n <= 0:
        raise ValueError("needs a positive integer")
    approx = max(1, int(n.bit_length() * 0.30102999566398114))
    while 10**approx <= n:
        approx += 1
    while 10 ** (approx - 1) > n:
        approx -= 1
    return approx


def _sci(value: Fraction, sig: int, round_up: bool = False) -> str:
    """Exact scientific-notation rendering of a rational, `sig` digits.

    The magnitude is truncated and trailing zeros are dropped; with round_up
    it is rounded up and all `sig` digits are kept (for error bounds).
    """
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    num, den = abs(value).numerator, abs(value).denominator
    # Decimal exponent via digit counts, then correct by comparison.
    e10 = _digits10(num) - _digits10(den)
    if num * 10 ** max(0, -e10) < den * 10 ** max(0, e10):
        e10 -= 1
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
    num_d = _digits10(abs(value.numerator)) if value.numerator else 1
    den_d = _digits10(value.denominator)
    if num_d <= max_digits and den_d <= max_digits:
        return str(value)
    return _sci(value, sig)


_JSON_SCALARS = (str, int, float, bool, type(None))


def _jsonable(obj):
    """JSON-ready copy of a report value: rationals through fraction_str,
    objects through their to_obj(), NumPy scalars as Python numbers."""
    if type(obj) in _JSON_SCALARS:  # the common case, tested without ABC checks
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return fraction_str(obj)
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if hasattr(obj, "to_obj"):
        return _jsonable(obj.to_obj())
    return obj


def unit_fraction(n: int, scale_bits: int) -> BigFixed:
    """1/n as a BigFixed with at most one ulp of error."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if scale_bits < 1:
        raise ValueError("precision must be >= 1 bit")
    m, inexact = _round_nearest(1 << scale_bits, n)
    return BigFixed(m, scale_bits, inexact)


def rounded_units(ns, scale_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """2^scale_bits / n rounded half up for every n, as int64, with a mask of
    the terms that rounding changed; scale_bits may be at most 62."""
    if not 1 <= scale_bits <= 62:
        raise ValueError("int64 units need 1 <= scale_bits <= 62")
    ns = np.asarray(ns, dtype=np.int64)
    q, r = np.divmod(np.int64(1) << scale_bits, ns)
    return q + (2 * r >= ns), r != 0


def unit_sum(ns, scale_bits: int, signs=None) -> BigFixed:
    """Sum of s/n with each 1/n rounded half up to a multiple of 2^-scale_bits.

    `signs` holds the +1/-1 of each term (all +1 when None). err_ulps is the
    number of inexact terms; each is off by at most half an ulp.
    """
    ns = np.asarray(ns, dtype=np.int64)
    plus = np.ones(len(ns), dtype=bool) if signs is None else np.asarray(signs) > 0
    if max(len(ns), 1) << scale_bits < 1 << 63:  # the int64 sum cannot overflow
        units, inexact = rounded_units(ns, scale_bits)
        total = int(units[plus].sum()) - int(units[~plus].sum())
        return BigFixed(total, scale_bits, int(inexact.sum()))
    return _unit_sum_loop(ns.tolist(), plus.tolist(), scale_bits)


def _unit_sum_loop(ns: list[int], plus: list[bool], scale_bits: int) -> BigFixed:
    one = 1 << scale_bits
    total = err = 0
    for n, p in zip(ns, plus):
        q, inexact = _round_nearest(one, n)
        total += q if p else -q
        err += inexact
    return BigFixed(total, scale_bits, err)


def signed_harmonic_sum(signs: SignSequence, scale_bits: int) -> BigFixed:
    """Sum of sign(n)/n over the support, with err <= |support| ulps."""
    return unit_sum(signs.support.values, scale_bits, signs.signs)


def _half_sums(units: np.ndarray) -> np.ndarray:
    """All 2^m signed sums of `units`: bit j of an entry's index means -u_j.

    The sums take the dtype of `units`: int64 in the MITM kernel, object
    (exact Python ints) in exhaustive_probability. Built in place: unit j
    turns the first 2^j entries v into v + u_j followed by v - u_j.
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

    Binary splitting (Haible and Papanikolaou, 1998): blocks of _LEAF_TERMS
    terms are added with small integers into (p, q) with q the product of
    their n's, then neighbours merge pairwise over q1 * q2 / gcd(q1, q2), so
    a node's denominator stays near the lcm of its n's. One final Fraction
    reduces the result.
    """
    ns = ns.tolist() if isinstance(ns, np.ndarray) else [int(n) for n in ns]
    signs = signs.tolist() if isinstance(signs, np.ndarray) else list(signs)
    if len(ns) != len(signs):
        raise ValueError("ns and signs differ in length")
    if sum(map(int.bit_length, ns)) > DEFAULT_LCM_BIT_BUDGET:
        raise ResourceBudgetError(
            f"product of the denominators exceeds {DEFAULT_LCM_BIT_BUDGET} bits"
        )
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


def default_precision(support_size: int, eta_target: Fraction) -> int:
    """Working precision: enough bits that |support| ulps stay below eta/2."""
    if eta_target <= 0:
        raise ValueError("eta_target must be positive")
    ratio = Fraction(max(support_size, 1)) / Fraction(eta_target)
    return max(1, math.ceil(math.log2(float(ratio)))) + 16


class VerificationLog:
    """Records every threshold comparison so suites can audit outcomes."""

    def __init__(self):
        self.entries: list[tuple[str, Comparison, int]] = []

    def record(self, label: str, outcome: Comparison, bits: int):
        self.entries.append((label, outcome, bits))

    def indeterminate_accepts(self) -> list[str]:
        return [lbl for lbl, out, _ in self.entries if out is Comparison.INDETERMINATE]


def verify_abs_below(
    value: Fraction,
    eta: Fraction,
    start_bits: int = 64,
    max_bits: int = 4096,
    label: str = "",
    log: VerificationLog | None = None,
) -> tuple[Comparison, BigFixed, int]:
    """Decide |value| vs eta through BigFixed intervals, escalating precision.

    Both inputs are exact, so the loop terminates with a determinate answer
    unless |value| equals eta, in which case BELOW is returned (the contract
    everywhere in this package is a non-strict bound).
    """
    value = Fraction(value)
    eta = Fraction(eta)
    bits = start_bits
    while bits <= max_bits:
        v = BigFixed.from_fraction(value, bits)
        outcome = compare_to_threshold(v, BigFixed.from_fraction(eta, bits))
        if outcome is not Comparison.INDETERMINATE:
            break
        bits *= 2
    else:
        outcome = Comparison.BELOW if abs(value) <= eta else Comparison.ABOVE
        v, bits = BigFixed.from_fraction(value, max_bits), max_bits
    if log is not None:
        log.record(label, outcome, bits)
    return outcome, v, bits
