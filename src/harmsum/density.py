"""Characteristic-function decay machinery for random signed harmonic sums.

For uniform random signs on a support set A the characteristic function of
X = sum sign(n)/n factors as a product of cosines. This module evaluates the
product in log space, certifies its decay on sampled frequencies, derives the
(N, |B|, k) parameter budget that controls how small a target window eta can
be, and estimates the small-ball probability P(|X - x0| <= eta) two
independent ways (seeded Monte Carlo and exact enumeration).
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .numerics import BigFixed, _half_sums, rounded_units
from .support import SupportSet

# The pointwise bound |cos(2*pi*theta)| <= exp(-2*pi^2*||theta||^2) is only
# valid for ||theta|| below this limit; a dense grid scan puts the first
# violation near 0.2823 (and the bound fails badly as ||theta|| -> 1/2).
GAUSSIAN_BOUND_VALID_LIMIT = 0.28

EXHAUSTIVE_LIMIT = 25

# eta_min is exp(log_eta_min) rounded to the nearest multiple of
# 2^-ETA_SCALE_BITS. decimal's exp is correctly rounded, and ETA_DIGITS = 60
# digits (over 199 bits) leave that one rounding to 96 bits far from any tie.
ETA_SCALE_BITS = 96
ETA_DIGITS = 60


def gaussian_cos_bound(theta: float) -> tuple[float, float]:
    """Return (|cos(2*pi*theta)|, exp(-2*pi^2*||theta||^2)).

    The left side is bounded by the right only for ||theta|| up to
    GAUSSIAN_BOUND_VALID_LIMIT; callers must not rely on it beyond that.
    """
    lhs = abs(math.cos(2.0 * math.pi * theta))
    r = theta - math.floor(theta)
    d = min(r, 1.0 - r)
    rhs = math.exp(-2.0 * math.pi**2 * d * d)
    return lhs, rhs


def _phases(ns: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """(||t/n||, log|cos(2*pi*t/n)|) for each n in the float array ns.

    |cos| is floored at the least normal float, so a cosine that evaluates to
    exactly 0 contributes log(tiny) ~ -708 rather than -inf.
    """
    r = np.mod(t / ns, 1.0)
    absc = np.maximum(np.abs(np.cos(2.0 * np.pi * r)), np.finfo(np.float64).tiny)
    return np.minimum(r, 1.0 - r), np.log(absc)


def delta_choice(b_size: int, n_scale: int, k: int, t: float) -> float:
    """The resonance width (1/4k)(log log t / log t)^k * |B|/N, clamped to [0, 1/2]."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if t <= math.e:
        raise ValueError("t must exceed e so log log t is positive")
    raw = (math.log(math.log(t)) / math.log(t)) ** k * b_size / (4.0 * k * n_scale)
    return min(max(raw, 0.0), 0.5)


@dataclass(frozen=True)
class EtaBudget:
    """Parameter bundle controlling the admissible target window.

    c_local = (3 log|B| - 2 log N)/log N must be positive (|B| > N^(2/3));
    eta may range in [eta_min, 1/N]; the decay window for the certificate is
    (t0, t_upper].
    """

    n: int
    b_size: int
    k: int
    c_local: float
    log_eta_min: float
    eta_min: BigFixed
    t0: float
    t_upper: float
    feasible: bool
    reasons: tuple[str, ...]


def eta_budget(
    n_scale: int,
    b_size: int,
    k: int,
    x0: float = 0.0,
    c: float = 0.5,
) -> EtaBudget:
    """Compute the (N, |B|, k) budget; infeasibility is reported, not raised."""
    if n_scale < 3 or b_size < 1 or k < 1:
        raise ValueError("need n_scale >= 3, b_size >= 1, k >= 1")
    log_n = math.log(n_scale)
    c_local = (3.0 * math.log(b_size) - 2.0 * log_n) / log_n
    reasons: list[str] = []
    if c_local <= 0.0:
        reasons.append("|B| <= N^(2/3): local constant vanishes")
        core = 0.0
    else:
        core = (c_local ** (2 * k) / 100.0 * b_size**3 / n_scale**2) ** (1.0 / (2 * k + 1))
    exponent = core * log_n ** (2 * k / (2 * k + 1.0))
    log_eta_min = -exponent
    eta_val = decimal.Context(prec=ETA_DIGITS).exp(decimal.Decimal(log_eta_min))
    mant = math.floor(Fraction(eta_val) * 2**ETA_SCALE_BITS + Fraction(1, 2))
    eta_min = BigFixed(mant, ETA_SCALE_BITS, 2)
    if math.exp(log_eta_min) > 1.0 / n_scale:
        reasons.append("eta_min exceeds 1/N: admissible window is empty")
    t_exponent = 0.0
    if c_local > 0.0:
        t_exponent = (c_local ** (2 * k) / 32.0 * b_size**3 / n_scale**2) ** (
            1.0 / (2 * k + 1)
        ) * log_n ** (2 * k / (2 * k + 1.0))
    t_upper = math.exp(t_exponent) if t_exponent < 700 else float("inf")
    t0 = c * n_scale / 4.0
    if x0 > 0.0:
        t0 = min(t0, 1.0 / (4.0 * x0))
    if t_upper <= t0:
        reasons.append("decay cutoff T does not exceed T0 at this scale")
    return EtaBudget(
        n=n_scale,
        b_size=b_size,
        k=k,
        c_local=c_local,
        log_eta_min=log_eta_min,
        eta_min=eta_min,
        t0=t0,
        t_upper=t_upper,
        feasible=not reasons,
        reasons=tuple(reasons),
    )


@dataclass
class DecayCertificate:
    """Checked decay of |rho_A| on sampled frequencies in (t0, t_upper].

    bound_log holds, per sample, an upper bound on log_rho: the Gaussian
    factor -2*pi^2*||t/n||^2 where ||t/n|| <= GAUSSIAN_BOUND_VALID_LIMIT and
    the exact log|cos(2*pi*t/n)| elsewhere.
    """

    n_scale: int
    a_size: int
    b_size: int
    k: int
    t0: float
    t_upper: float
    t_window_fallback: bool
    t_values: list[float] = field(default_factory=list)
    log_rho: list[float] = field(default_factory=list)
    bound_log: list[float] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)
    feasible: bool = True
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.feasible and not self.violations

    def to_obj(self) -> dict:
        return {
            "n": self.n_scale,
            "a_size": self.a_size,
            "b_size": self.b_size,
            "k": self.k,
            "t0": self.t0,
            "t_upper": self.t_upper,
            "t_window_fallback": self.t_window_fallback,
            "samples": len(self.t_values),
            "violations": self.violations,
            "feasible": self.feasible,
            "ok": self.ok,
            "note": self.note,
        }


def certificate_window(n_scale: int, b_size: int, k: int, c: float) -> tuple[float, float, bool]:
    """Sampling window (t0, t_upper] for decay checks.

    The asymptotic cutoff T = exp((c_local^2k/32 |B|^3/N^2)^(1/(2k+1)) ...)
    sits far below t0 at desk scales, which would empty the window; in that
    case fall back to t_upper = N^2 so the checked inequalities are exercised
    on a real range. The checks' delta(t) needs t > e, so t0 = c*N/4 must
    exceed e: with c = min(A)/N, as decay_certificate takes it, min(A) > 4e.
    """
    budget = eta_budget(n_scale, b_size, k, x0=0.0, c=c)
    t0 = budget.t0
    if t0 <= math.e:
        raise ValueError(
            f"decay window starts at t0 = {t0:.6g} <= e; it needs min(A) > 4e ≈ 10.87"
        )
    t_upper = budget.t_upper
    fallback = False
    if t_upper <= t0 * 1.0001:
        t_upper = float(n_scale) ** 2
        fallback = True
    return t0, t_upper, fallback


def sample_t_values(t0: float, t_upper: float, count: int, seed: int) -> np.ndarray:
    """Log-spaced samples of (t0, t_upper] with uniform jitter, seeded."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log(t0), math.log(t_upper)
    base = np.linspace(lo, hi, count, endpoint=True)
    step = (hi - lo) / max(count - 1, 1)
    jitter = rng.uniform(0.0, step, size=count)
    ts = np.exp(np.minimum(base + jitter, hi))
    return np.maximum(ts, np.nextafter(t0, np.inf))


def decay_certificate(
    a: SupportSet,
    b: SupportSet,
    n_scale: int,
    k: int,
    t_samples,
) -> DecayCertificate:
    """Check #{n in B : ||t/n|| <= delta(t)} <= |B|/2 and log|rho_A(t)| <= -2 log t.

    The caller supplies the sample frequencies (see certificate_window and
    sample_t_values); every violation is reported with its witness t.
    """
    if len(b) == 0 or not np.isin(b.values, a.values).all():
        raise ValueError("B must be a nonempty subset of A")
    t0, t_upper, fallback = certificate_window(n_scale, len(b), k, c=a.min() / n_scale)
    cert = DecayCertificate(
        n_scale=n_scale,
        a_size=len(a),
        b_size=len(b),
        k=k,
        t0=t0,
        t_upper=t_upper,
        t_window_fallback=fallback,
    )
    if len(b) < 2:
        cert.feasible = False
        cert.note = "certificate needs |B| >= 2 so that |B|/2 can bound a count"
        return cert
    t_samples = np.asarray(t_samples, dtype=np.float64)
    if not t_samples.size:
        cert.feasible = False
        cert.note = "certificate needs at least one sampled t"
        return cert
    half = len(b) / 2.0
    ns = a.values.astype(np.float64)
    in_b = np.searchsorted(a.values, b.values)
    gauss = -2.0 * math.pi**2
    for t in t_samples.tolist():
        dist, logs = _phases(ns, t)
        sc = int(np.count_nonzero(dist[in_b] <= delta_choice(len(b), n_scale, k, t)))
        lr = float(np.sum(logs))
        near = dist <= GAUSSIAN_BOUND_VALID_LIMIT
        cert.t_values.append(t)
        cert.log_rho.append(lr)
        cert.bound_log.append(float(np.sum(np.where(near, gauss * dist * dist, logs))))
        if sc > half:
            cert.violations.append({"t": t, "kind": "s_count", "count": sc, "bound": half})
        if not lr <= -2.0 * math.log(t):
            cert.violations.append(
                {"t": t, "kind": "decay", "log_rho": lr, "bound": -2.0 * math.log(t)}
            )
    return cert


def mc_probability(
    a: SupportSet,
    x0: float,
    eta: float,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of P(|X_A - x0| <= eta) with its standard error.

    Reproducible under the seed: every sample comes from default_rng(seed).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    inv = 1.0 / a.values.astype(np.float64)
    rng = np.random.default_rng(seed)
    hits = 0
    for done in range(0, samples, 1 << 16):
        chunk = min(samples - done, 1 << 16)
        signs = rng.integers(0, 2, size=(chunk, len(inv))).astype(np.float64) * 2.0 - 1.0
        x = signs @ inv
        hits += int(np.count_nonzero(np.abs(x - x0) <= eta))
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return p, stderr


def _pairs_in_window(left: np.ndarray, right: np.ndarray, lo: int, hi: int) -> int:
    """Count of pairs (l, r) with lo <= l + r <= hi, for `left` sorted."""
    if lo > hi:
        return 0
    count = np.searchsorted(left, hi - right, side="right") - np.searchsorted(
        left, lo - right, side="left"
    )
    return int(count.sum())


def exhaustive_probability(a: SupportSet, x0: Fraction, eta: Fraction) -> Fraction:
    """Exact P(|X_A - x0| <= eta) by meet-in-the-middle counting.

    An int64 screen decides almost every call. Each 1/n is rounded once to
    units of 2^-P (rounded_units), with P = 61 - ceil(log2(2(m + 1) + 2)) for
    m = |A|, and the window is clamped to the units' reach [-R, R], which
    holds every signed sum of them; a window that misses it holds no sum.
    Each half's sums come from _half_sums and are sorted. A pair of half
    sums is at most m/2 units off its exact sum, so one count over the window
    widened by m/2 units (`maybe`) and one over it narrowed by m/2 (`sure`)
    bracket the exact count, and when they agree it is `sure`. Otherwise some
    pair lies within rounding error of an edge (an exact tie, or an n past
    2^P), and the pairs are counted again in integers over the common
    denominator D of A and x0 - eta: each half's signed sums of D/n come from
    _half_sums as exact Python ints. Supports up to EXHAUSTIVE_LIMIT elements
    are allowed.
    """
    if len(a) > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive enumeration capped at {EXHAUSTIVE_LIMIT} elements")
    x0 = Fraction(x0)
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("eta must be >= 0")
    if not len(a):
        return Fraction(1) if abs(x0) <= eta else Fraction(0)
    m = len(a)
    # the sums and the clamped edges lie in [-m * 2^P, m * 2^P], so an edge
    # minus a half sum stays below (2(m + 1) + 2) * 2^P <= 2^61
    bits = 61 - (2 * (m + 1) + 1).bit_length()
    units = rounded_units(a.values, bits)[0]
    reach = int(units.sum())
    lo_u, hi_u = (x0 - eta) * (1 << bits), (x0 + eta) * (1 << bits)

    def window(slack: Fraction) -> tuple[int, int]:
        return max(math.ceil(lo_u - slack), -reach), min(math.floor(hi_u + slack), reach)

    maybe_lo, maybe_hi = window(Fraction(m, 2))
    if maybe_lo > maybe_hi:
        return Fraction(0)
    left = np.sort(_half_sums(units[0::2]))
    right = np.sort(_half_sums(units[1::2]))  # ascending queries search faster
    maybe = _pairs_in_window(left, right, maybe_lo, maybe_hi)
    sure = _pairs_in_window(left, right, *window(Fraction(-m, 2)))
    if sure != maybe:
        sure = _exact_pairs_in_window(a.values.tolist(), x0 - eta, x0 + eta)
    return Fraction(sure, 1 << m)


def _exact_pairs_in_window(ns: list[int], lo: Fraction, hi: Fraction) -> int:
    """Count of sign vectors with lo <= sum s/n <= hi, in exact integers."""
    den = math.lcm(lo.denominator, *ns)
    # The sums are integers, so the window [lo, hi] may be cut to floor(hi).
    lo_i = lo.numerator * (den // lo.denominator)
    hi_i = math.floor(hi * den)
    weights = np.array([den // n for n in ns], dtype=object)
    # weights[0::2], the larger half for odd m, is sorted by sorted(), which
    # compares Python ints about twice as fast as np.sort on objects; the
    # other half's sums are searched in it.
    left = np.array(sorted(_half_sums(weights[0::2])), dtype=object)
    return _pairs_in_window(left, _half_sums(weights[1::2]), lo_i, hi_i)
