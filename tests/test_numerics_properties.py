"""Property tests: interval containment, the shared exact and fixed-point sum
helpers against Fraction references, verify_abs_below against the exact
comparison, the RLE round-trip, values_range and the record writer against
json.dumps."""

import json
import math
import random
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmsum import multiplicative as mult
from harmsum import numerics
from harmsum.numerics import (
    DEFAULT_LCM_BIT_BUDGET,
    MAX_PRECISION_BITS,
    BigFixed,
    Comparison,
    ResourceBudgetError,
    _half_sums,
    _json_text,
    _plain,
    _round_nearest,
    _sci,
    compare_to_threshold,
    exact_rational_sum,
    fraction_str,
    rational_sum,
    rounded_units,
    unit_sum,
    verify_abs_below,
)
from harmsum.sieve import SieveTable
from harmsum.support import SignSequence, SupportSet

PROPERTY_SETTINGS = settings(max_examples=200, deadline=None)
SIEVE = SieveTable(5000)

fractions = st.fractions(min_value=-10, max_value=10, max_denominator=10**6)
supports = st.lists(st.integers(1, 5000), min_size=0, max_size=60, unique=True).map(sorted)


@st.composite
def signed_supports(draw):
    ns = draw(supports)
    signs = draw(st.lists(st.sampled_from([-1, 1]), min_size=len(ns), max_size=len(ns)))
    return ns, signs


@st.composite
def enclosures(draw):
    """A BigFixed and an exact value inside its interval."""
    bits = draw(st.integers(1, 80))
    mantissa = draw(st.integers(-(1 << 90), 1 << 90))
    err = draw(st.integers(0, 1 << 20))
    t = draw(st.fractions(min_value=-1, max_value=1, max_denominator=1000))
    return BigFixed(mantissa, bits, err), (mantissa + t * err) / Fraction(1 << bits)


@PROPERTY_SETTINGS
@given(enclosures(), enclosures())
def test_bigfixed_containment(a, b):
    (x, xv), (y, yv) = a, b
    assert x.contains(xv) and y.contains(yv)
    assert (x + y).contains(xv + yv)
    assert (-x).contains(-xv)
    assert (x - y).contains(xv - yv)


def _random_runs(n: int, rng) -> list[int]:
    """n signs in runs of random lengths, long runs included."""
    signs: list[int] = []
    while len(signs) < n:
        signs += [rng.choice((-1, 1))] * rng.choice((1, 1, 2, 3, 7, 60))
    return signs[:n]


# long random sign vectors on [1, n]
long_signed_supports = st.builds(
    lambda n, rng: (list(range(1, n + 1)), _random_runs(n, rng)),
    st.integers(0, 20000),
    st.randoms(use_true_random=False),
)


def _reference_runs(values: list[int], step: int) -> list[list[int]]:
    """[first value, length] of each maximal run whose entries rise by `step`."""
    runs: list[list[int]] = []
    for v in values:
        if runs and v == runs[-1][0] + step * runs[-1][1]:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


@PROPERTY_SETTINGS
@given(st.one_of(signed_supports(), long_signed_supports))
def test_rle_round_trip(case):
    ns, signs = case
    seq = SignSequence(SupportSet(ns), signs)
    obj = seq.to_obj()
    assert obj["signs_rle"] == _reference_runs(signs, 0)
    assert obj["support_ranges"] == [[lo, lo + k - 1] for lo, k in _reference_runs(ns, 1)]
    assert all(type(x) is int for run in obj["signs_rle"] + obj["support_ranges"] for x in run)
    back = SignSequence.from_obj(obj)
    assert back == seq
    assert back.signs.dtype == np.int8


def test_from_rle_rejects_bad_runs():
    assert len(SignSequence.from_rle([], [])) == 0
    for rle in ([[1, -1], [1, 5]], [[2, 4]], [[1, 3]], [[1, 5]], [[1, 4, 0]], [[1, 2, 1, 2]]):
        with pytest.raises(ValueError):
            SignSequence.from_rle([[1, 4]], rle)


@PROPERTY_SETTINGS
@given(
    st.sampled_from(sorted(mult.SEED_RULES)),
    st.dictionaries(st.sampled_from(SIEVE.primes[:200].tolist()), st.sampled_from([-1, 1]),
                    max_size=8),
    st.lists(st.integers(1, SIEVE.limit), min_size=1, max_size=40),
)
def test_values_range_matches_evaluate(rule, overrides, ns):
    fn = mult.MultiplicativeFn(SIEVE, rule, overrides)
    vals = fn.values_range()
    assert [int(vals[n]) for n in ns] == [fn.evaluate(n) for n in ns]


@PROPERTY_SETTINGS
@given(signed_supports())
def test_weighted_sum_is_exact(case):
    ns, signs = case
    exact = sum((Fraction(s, n) for n, s in zip(ns, signs)), Fraction(0))
    assert rational_sum(ns, signs) == exact
    assert exact_rational_sum(SignSequence(SupportSet(ns), signs)) == exact


@PROPERTY_SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(1, 10**12), st.sampled_from([-1, 1])), min_size=0, max_size=90
    )
)
@example([])
@example([(7, -1)])
@example([(1, 1), (2, -1), (3, -1), (6, -1)])  # an exact zero
def test_rational_sum_matches_fraction(terms):
    # ns repeat and come in any order; every block and merge size is drawn
    ns, signs = [n for n, _ in terms], [s for _, s in terms]
    exact = sum((Fraction(s, n) for n, s in terms), Fraction(0))
    assert rational_sum(ns, signs) == exact
    assert rational_sum(range(1, len(ns) + 1), signs) == sum(
        (Fraction(s, n) for n, s in enumerate(signs, 1)), Fraction(0)
    )


def test_rational_sum_guard_precedes_arithmetic():
    # 2^62 has 63 bits: just enough terms to pass the budget by one term
    ns = [1 << 62] * (DEFAULT_LCM_BIT_BUDGET // 63 + 1)
    with pytest.raises(ResourceBudgetError):
        rational_sum(ns, [1] * len(ns))
    assert rational_sum(ns[:3], [1, 1, -1]) == Fraction(1, 1 << 62)


def _tree_reference(ns, signs) -> Fraction:
    """Sum of s/n for s = +1/-1 by the product tree alone: one (s, n) leaf per
    term, neighbours merged over q1 * q2 / gcd(q1, q2)."""
    nodes = [(s, n) for n, s in zip(ns, signs)]
    while len(nodes) > 1:
        merged = []
        for (p1, q1), (p2, q2) in zip(nodes[0::2], nodes[1::2]):
            g = math.gcd(q1, q2)
            merged.append((p1 * (q2 // g) + p2 * (q1 // g), q1 // g * q2))
        nodes = merged + nodes[len(merged) * 2 :]
    return Fraction(*nodes[0]) if nodes else Fraction(0)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@st.composite
def split_cases(draw):
    """Terms up to `top` with repeats, optionally n = 1, the multiples of the
    primes just above sqrt(top), and all-+1 or exactly cancelling signs. The
    counts reach past numerics._SPLIT_MIN_BITS, so both paths are drawn."""
    top = draw(st.integers(1, 6000))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    count = draw(st.one_of(st.integers(0, 60), st.integers(1500, 3000)))
    ns = [rng.randint(1, top) for _ in range(count)]
    if draw(st.booleans()):
        ns += [1] * draw(st.integers(1, 3))
    if draw(st.booleans()):
        r = math.isqrt(top)
        ns += [p * m for p in range(r + 1, r + 30) if _is_prime(p) for m in range(1, top // p + 1)]
    mode = draw(st.sampled_from(["random", "plus", "cancel"]))
    if mode == "cancel":  # each term twice, with opposite signs: exactly 0
        return ns + ns, [1] * len(ns) + [-1] * len(ns)
    return ns, [1 if mode == "plus" else rng.choice((-1, 1)) for _ in ns]


@PROPERTY_SETTINGS
@given(split_cases())
@example(([1], [1]))
@example(([2, 3, 4], [1, -1, 1]))
@example(([1, 2, 3, 6], [1, -1, -1, -1]))  # an exact zero
@example((list(range(1, 2001)), [1] * 2000))
def test_rational_sum_split_matches_tree(case):
    ns, signs = case
    exact = _tree_reference(ns, signs)
    assert rational_sum(ns, signs) == exact
    if ns:  # the split itself, below the cutoff as well
        assert numerics._split_sum(ns, signs, max(ns)) == exact
    if len(ns) <= 60:
        assert exact == sum((Fraction(s, n) for n, s in zip(ns, signs)), Fraction(0))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, numerics._FACTOR_TABLE_MAX, 10**8]),
    st.integers(1200, 1600),
)
def test_rational_sum_past_the_factor_table(seed, low, count):
    # above the bit cutoff, but past the table's value bound, or under it
    # with more than _TABLE_PER_TERM values per term (low = 1)
    rng = random.Random(seed)
    ns = [rng.randint(low, low + 10**6) for _ in range(count)]
    ns += [rng.randint(1, 2 * 10**6) for _ in range(count)]
    signs = [rng.choice((-1, 1)) for _ in ns]
    assert sum(map(int.bit_length, ns)) >= numerics._SPLIT_MIN_BITS
    assert rational_sum(ns, signs) == _tree_reference(ns, signs)


def test_rational_sum_takes_the_split_above_the_cutoff(monkeypatch):
    rng = random.Random(20_000)
    ns = list(range(1, 20_001))
    signs = [rng.choice((-1, 1)) for _ in ns]
    exact = _tree_reference(ns, signs)
    assert exact == numerics._tree_sum(ns, signs)

    def no_tree(*args):
        raise AssertionError("the product tree ran above the cutoff")

    monkeypatch.setattr(numerics, "_tree_sum", no_tree)
    assert rational_sum(ns, signs) == exact
    assert rational_sum(np.array(ns), np.array(signs, dtype=np.int8)) == exact


# int.bit_length changes at these values, and a float log2 of an n past 2^53
# can land on the wrong side (2^62 - 1 rounds to 2^62)
BIT_EDGES = [
    s * (2**k + d) for k in (53, 62) for d in (-1, 0, 1) for s in (1, -1)
] + [2**63 - 1, -(2**63), 1, -1]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([40, 1400, 3000]),
    st.lists(st.sampled_from(BIT_EDGES), min_size=1, max_size=8),
)
def test_rational_sum_takes_lists_and_arrays_alike(seed, count, edges):
    # values in [1, 4000]: 40 terms stay under _SPLIT_MIN_BITS, 3000 pass it
    rng = random.Random(seed)
    ns = [rng.randint(1, 4000) for _ in range(count)]
    signs = [rng.choice((-1, 1)) for _ in ns]
    exact = rational_sum(ns, signs)
    assert rational_sum(np.array(ns), np.array(signs, dtype=np.int8)) == exact
    assert rational_sum(np.array(ns), signs) == exact
    assert rational_sum(ns, np.array(signs)) == exact
    # the guard counts bits as int.bit_length does, for either input kind:
    # a budget of exactly the total passes, one bit less raises
    bits = sum(map(int.bit_length, edges))
    for budget, raises in ((bits, False), (bits - 1, True)):
        for kind in (list, np.array):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(numerics, "DEFAULT_LCM_BIT_BUDGET", budget)
                patch.setattr(numerics, "_tree_sum", lambda ns, signs: "summed")
                if raises:
                    with pytest.raises(ResourceBudgetError):
                        rational_sum(kind(edges), [1] * len(edges))
                else:
                    assert rational_sum(kind(edges), [1] * len(edges)) == "summed"


def test_rational_sum_guard_counts_array_bits_at_the_budget(monkeypatch):
    # n = 2^62 - 1 has 62 bits, though its float log2 rounds up to 62, and
    # 2^53 + 1 has 54: the total sits at the budget exactly
    ns = [2**62 - 1] * 129_007 + [2**53 + 1] * 29
    assert sum(map(int.bit_length, ns)) == DEFAULT_LCM_BIT_BUDGET
    monkeypatch.setattr(numerics, "_tree_sum", lambda ns, signs: "summed")
    for kind in (list, np.array):
        assert rational_sum(kind(ns), [1] * len(ns)) == "summed"
        with pytest.raises(ResourceBudgetError):
            rational_sum(kind(ns + [1]), [1] * (len(ns) + 1))


def test_rational_sum_allocates_nothing_sized_by_its_values():
    rng = random.Random(7)
    cases = [
        [10**8 + i for i in range(100)],
        [numerics._FACTOR_TABLE_MAX + i for i in range(1, 1001)],  # past the bound
        rng.sample(range(1, 2 * 10**6), 1500),  # under it, with a few terms
    ]
    for ns in cases:
        tracemalloc.start()
        try:
            rational_sum(ns, [1, -1] * (len(ns) // 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (len(ns), peak)


@PROPERTY_SETTINGS
@given(signed_supports(), st.integers(1, 120))
def test_rounded_sum_contains_exact(case, bits):
    ns, signs = case
    bf = unit_sum(ns, bits, signs)
    exact = sum((Fraction(s, n) for n, s in zip(ns, signs)), Fraction(0))
    assert bf.scale_bits == bits and bf.contains(exact)
    assert bf.err_ulps == sum(1 for n in ns if (1 << bits) % n)
    assert bf.mantissa == sum(s * _round_nearest(1 << bits, n)[0] for n, s in zip(ns, signs))


@st.composite
def thresholds(draw):
    """An exact value and a threshold eta >= 0: |value| itself (a tie), 0, a
    dyadic step from |value|, or any rational."""
    value = draw(fractions)
    step = Fraction(draw(st.integers(-3, 3)), 1 << draw(st.integers(1, 300)))
    other = abs(draw(fractions))
    eta = draw(st.sampled_from([abs(value), Fraction(0), abs(value) + step, other]))
    return value, max(eta, Fraction(0))


@PROPERTY_SETTINGS
@given(thresholds(), st.integers(1, 300))
@example((Fraction(1, 7), Fraction(1, 7)), 32)  # a tie
@example((Fraction(0), Fraction(0)), 1)  # a tie at 0
@example((Fraction(-3, 4), Fraction(0)), 5)
@example((Fraction(1, 3), Fraction(1, 3)), 70)  # a tie whose doublings skip the cap
def test_verify_abs_below_decides_exactly(case, start):
    value, eta = case
    met, v, bits = verify_abs_below(value, eta, start)
    assert met == (abs(value) <= eta)
    assert v.scale_bits == bits and v.contains(value)
    ratio, rem = divmod(bits, start)
    assert bits == MAX_PRECISION_BITS or (rem == 0 and ratio & (ratio - 1) == 0)
    if bits < MAX_PRECISION_BITS:  # decided: the interval lies on the verdict's side
        lo, hi = v.interval()
        assert max(-lo, hi) < eta if met else eta < max(lo, -hi)
    if start < bits:  # and the precision before it was not
        half = BigFixed.from_fraction(value, bits // 2)
        undecided = compare_to_threshold(half, BigFixed.from_fraction(eta, bits // 2))
        assert bits == MAX_PRECISION_BITS or undecided is Comparison.INDETERMINATE


@PROPERTY_SETTINGS
@given(supports, st.integers(1, 200))
@example([2**62 + 1, 2**63 - 1], 62)  # 2r overflows int64, r >= n - r does not
@example([2**62 + 1, 2**63 - 1], 63)
def test_rounded_units_match_round_nearest(ns, bits):
    """Entry by entry at every precision: int64 units up to 62 bits, exact
    Python ints above."""
    units, inexact = rounded_units(ns, bits)
    assert units.dtype == (np.int64 if bits <= 62 else object)
    assert units.tolist() == [_round_nearest(1 << bits, n)[0] for n in ns]
    assert inexact.tolist() == [bool((1 << bits) % n) for n in ns]


@pytest.mark.parametrize("bits", [10, 70])
@pytest.mark.parametrize("bad", [0, -3])
def test_unit_rounding_rejects_n_below_one(bad, bits):
    with pytest.raises(ValueError, match="n must be >= 1"):
        rounded_units([bad, 2], bits)
    with pytest.raises(ValueError, match="n must be >= 1"):
        unit_sum([bad, 2], bits)
    with pytest.raises(ValueError, match="n must be >= 1"):
        numerics.unit_fraction(bad, bits)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(1, 10**30), max_size=8))
def test_signed_subset_sums_bit_convention(weights):
    sums = _half_sums(np.array(weights, dtype=object))
    assert sums.dtype == object and len(sums) == 1 << len(weights)
    for index, total in enumerate(sums):
        assert total == sum(-w if (index >> j) & 1 else w for j, w in enumerate(weights))


@PROPERTY_SETTINGS
@given(st.fractions(min_value=Fraction(1, 10**40), max_value=10**40), st.integers(1, 20))
def test_sci_brackets_the_value(value, sig):
    low, high = Fraction(_sci(value, sig)), Fraction(_sci(value, sig, round_up=True))
    assert low <= value <= high
    assert len(_sci(value, sig, round_up=True).split("e")[0].replace(".", "")) == sig
    assert high - low <= 2 * value * Fraction(10) ** (1 - sig)


def _digits10_reference(n: int) -> int:
    approx = max(1, int(n.bit_length() * 0.30102999566398114))
    while 10**approx <= n:
        approx += 1
    while 10 ** (approx - 1) > n:
        approx -= 1
    return approx


def _sci_reference(value: Fraction, sig: int, round_up: bool = False) -> str:
    """The renderer as written with decimal digit counts of num and den."""
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    num, den = abs(value).numerator, abs(value).denominator
    e10 = _digits10_reference(num) - _digits10_reference(den)
    if num * 10 ** max(0, -e10) < den * 10 ** max(0, e10):
        e10 -= 1
    shift = sig - 1 - e10
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    s = str(-(-num // den) if round_up else num // den)
    if len(s) > sig:
        e10 += len(s) - sig
        s = s[:sig]
    tail = s[1:] if round_up else s[1:].rstrip("0")
    return f"{sign}{s[0]}{'.' + tail if tail else ''}e{e10:+d}"


def _fraction_str_reference(value: Fraction, max_digits: int, sig: int) -> str:
    if value == 0:
        return "0"
    num_d = _digits10_reference(abs(value.numerator))
    den_d = _digits10_reference(value.denominator)
    if num_d <= max_digits and den_d <= max_digits:
        return str(value)
    return _sci_reference(value, sig)


def _signed_harmonic(n: int) -> Fraction:
    rng = random.Random(n)
    return rational_sum(range(1, n + 1), [rng.choice((-1, 1)) for _ in range(n)])


# Integers of every size a report holds, with exact and near powers of ten
# and of two, where a digit count from the bit length is least certain.
_render_ints = st.one_of(
    st.integers(1, 10**80),
    st.integers(1, 1 << 12_000),
    st.builds(lambda k, d: max(1, 10**k + d), st.integers(0, 3000), st.integers(-2, 2)),
    st.builds(lambda b, d: max(1, (1 << b) + d), st.integers(0, 12_000), st.integers(-2, 2)),
)
rendered_values = st.one_of(
    st.builds(
        lambda num, den, neg: Fraction(-num if neg else num, den),
        _render_ints,
        _render_ints,
        st.booleans(),
    ),
    # Lcm-sized numerators and denominators, as the pipeline reports them.
    st.integers(1, 2500).map(_signed_harmonic),
    st.just(Fraction(0)),
)


@PROPERTY_SETTINGS
@given(rendered_values, st.integers(1, 30), st.integers(0, 120), st.booleans())
@example(_signed_harmonic(2000), 24, 60, False)
@example(Fraction(10**60), 24, 60, False)
@example(Fraction(10**60 - 1, 10**60), 24, 60, True)
def test_renderers_match_the_digit_count_reference(value, sig, max_digits, round_up):
    assert _sci(value, sig, round_up) == _sci_reference(value, sig, round_up)
    assert fraction_str(value, max_digits, sig) == _fraction_str_reference(
        value, max_digits, sig
    )


class _Reported:
    """A report object: the writer converts it through to_obj()."""

    def __init__(self, payload):
        self.payload = payload

    def to_obj(self):
        return {"payload": self.payload, "kind": "reported"}


@dataclass
class _Fields:
    """A report dataclass with no to_obj: the writer writes its fields."""

    payload: object
    kind: str = "fields"


def _default(obj):
    """json.dumps's hook for what JSON does not hold: the writer's one
    conversion, and TypeError where that leaves obj as it is."""
    plain = _plain(obj)
    if plain is obj:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return plain


def _dumps(tree):
    return json.dumps(tree, default=_default, indent=2, sort_keys=True)


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),  # non-ASCII and control characters included
    st.fractions(),
    st.integers(10**59, 10**80).map(lambda d: Fraction(1, d)),  # fraction_str's sci form
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.just([[True, 1]]),  # a bool pair: not an int pair
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
        st.dictionaries(st.integers(), kids, max_size=4),
        kids.map(_Reported),
        kids.map(_Fields),
        st.lists(st.lists(st.integers(), min_size=2, max_size=2), max_size=5),
    ),
    max_leaves=24,
)


@PROPERTY_SETTINGS
@given(json_trees)
@example({"signs_rle": [[1, 3], [-1, 2]], "support_ranges": [[1, 5]], "empty": [{}, []]})
@example({10: 1, 9: [(1, 2)], -1: Fraction(1, 3)})
def test_record_writer_matches_json_dumps(tree):
    assert _json_text(tree) == _dumps(tree)


def test_record_writer_rejects_what_json_dumps_rejects():
    # _Fields is a dataclass type, not an instance: it has no fields to write
    for value in (object(), {Fraction(1, 2): 1}, {1: 0, "1": 0}, np.bool_(True), _Fields):
        with pytest.raises(TypeError):
            _dumps(value)
        with pytest.raises(TypeError):
            _json_text(value)
