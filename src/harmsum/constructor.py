"""Sign-sequence construction: bounded greedy, target flipping, alternating
prefixes, meet-in-the-middle refinement, rough-basis subset extraction and the
dense-set pipelines that chain them together."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import density as density_mod
from .numerics import (
    BigFixed,
    ResourceBudgetError,
    _half_sums,
    _jsonable,
    _round_nearest,
    default_precision,
    exact_rational_sum,
    rational_sum,
    rounded_units,
)
from .sieve import SieveTable
from .support import SignSequence, SupportSet

MAX_FREE_LIMIT = 52
SHORTLIST_CAP = 65536
MITM_BLOCK = 1 << 14  # queries per block of the fixed-point MITM sweep
MITM_TAIL_UNITS = 6  # units per half looked up by value in _sorted_indices
GREEDY_SCALE_BITS = 128  # starting fixed-point precision of the certified greedy
DENSE_N_MIN = 256  # least scale of dense_set_signs and upper_density_scales
EPS1_FLOOR = 1.0 / 64  # least rough-part exponent rough_basis_subset tries


class InfeasibleError(Exception):
    """Raised when a construction's stated precondition cannot be met."""


class DensityRequirementError(ValueError):
    """The input set is not dense enough for the requested construction."""


@dataclass(frozen=True)
class FlipResult:
    """Outcome of flip_to_target; infeasible outcomes carry the deficit."""

    feasible: bool
    signs: SignSequence | None
    error: Fraction | None
    deficit: Fraction | None = None

    def to_obj(self) -> dict:
        return _jsonable(vars(self))


@dataclass
class ConstructionReport:
    """A constructed sign assignment with its re-verified achievement.

    `achieved_exact` is always recomputed from the signs by exact rational
    arithmetic, never trusted from the search path.
    """

    signs: SignSequence
    achieved: BigFixed
    achieved_exact: Fraction
    target_eta: Fraction | None
    target_met: bool | None
    method: str
    rng_seed: int | None
    wall_time: float
    details: dict = field(default_factory=dict)

    @classmethod
    def _from_signs(
        cls,
        signs: SignSequence,
        x0: Fraction,
        target_eta: Fraction | None,
        method: str,
        rng_seed: int | None,
        t_start: float,
        details: dict,
    ) -> "ConstructionReport":
        """The report of `signs`: |sum - x0|, its BigFixed rendering and
        whether it meets target_eta are all derived here from the signs."""
        achieved = abs(exact_rational_sum(signs) - x0)
        ref = target_eta if target_eta is not None and target_eta > 0 else Fraction(1, 10**15)
        if 0 < achieved < ref:
            ref = achieved
        return cls(
            signs=signs,
            achieved=BigFixed.from_fraction(achieved, default_precision(len(signs), ref)),
            achieved_exact=achieved,
            target_eta=target_eta,
            target_met=None if target_eta is None else achieved <= target_eta,
            method=method,
            rng_seed=rng_seed,
            wall_time=time.perf_counter() - t_start,
            details=details,
        )

    def to_obj(self) -> dict:
        return _jsonable(vars(self))


def _certified_greedy(ns: list[int], start, scale_bits: int = GREEDY_SCALE_BITS) -> list[int]:
    """Greedy signs over ns for the running error e = start + sum of s/n:
    each sign is -1 when e > 0 and +1 otherwise, so ties resolve to +1.

    e is tracked as a fixed-point integer at 2^-scale_bits with an ulp count
    err, as in unit_sum: each 1/n is rounded to nearest and err counts the
    inexact terms, so e lies within err ulps. A sign is read off the fixed
    point only when that interval excludes 0; otherwise e is re-anchored
    exactly, from rational_sum of the terms since the last anchor, so ties
    and exact zeros resolve exactly. A nonzero e that the interval could not
    resolve doubles scale_bits: greedy sums over long supports shrink far
    below 2^-128, and each re-anchor costs an lcm-sized addition.
    """
    one = 1 << scale_bits
    anchor, anchor_at = Fraction(start), 0
    e, err = _round_nearest(anchor.numerator << scale_bits, anchor.denominator)
    signs: list[int] = []
    for i, n in enumerate(ns):
        if e - err > 0:
            s = -1
        elif e + err < 0:
            s = 1
        else:  # the interval holds 0
            anchor += rational_sum(ns[anchor_at:i], signs[anchor_at:i])
            anchor_at = i
            s = -1 if anchor > 0 else 1
            if anchor:  # nonzero yet unresolved
                scale_bits *= 2
                one = 1 << scale_bits
            e, err = _round_nearest(anchor.numerator << scale_bits, anchor.denominator)
        q, r = divmod(one, n)
        if 2 * r >= n:
            q += 1
        e += q if s > 0 else -q
        err += r != 0
        signs.append(s)
    return signs


def greedy_bounded(a: SupportSet, with_trace: bool = False):
    """Greedy signs over A in increasing order; every prefix sum stays in [-1, 1].

    Returns (SignSequence, exact sum); with_trace appends the list of exact
    partial sums, derived from the signs.
    """
    if not len(a):
        raise ValueError("support must be nonempty")
    ns = a.values.tolist()
    signs = _certified_greedy(ns, 0)
    seq, total = SignSequence(a, signs), rational_sum(ns, signs)
    if with_trace:
        return seq, total, list(accumulate(Fraction(s, n) for n, s in zip(ns, signs)))
    return seq, total


def greedy_toward(a: SupportSet, target) -> tuple[SignSequence, Fraction]:
    """Greedy signs over A driving the sum toward an exact rational target.

    Returns (SignSequence, exact achieved sum).
    """
    if not len(a):
        return SignSequence(a, np.empty(0, dtype=np.int8)), Fraction(0)
    ns = a.values.tolist()
    signs = _certified_greedy(ns, -Fraction(target))
    return SignSequence(a, signs), rational_sum(ns, signs)


def flip_to_target(s: SupportSet, alpha) -> FlipResult:
    """Signs b on S with |sum b_n/n - alpha| <= 1/min(S).

    Requires the reciprocal sum over S to exceed |alpha|; otherwise returns
    an infeasible outcome carrying the deficit. Algorithm: +1 prefix until
    the partial sum first exceeds |alpha| (all signs negated afterwards when
    alpha < 0), then greedy on the remainder. Both are the greedy started at
    -|alpha|: its error stays <= 0, so its signs stay +1, until the prefix
    crosses |alpha|.
    """
    alpha = Fraction(alpha)
    if not len(s):
        return FlipResult(feasible=False, signs=None, error=None, deficit=abs(alpha))
    ns = s.values.tolist()
    plus = _certified_greedy(ns, -abs(alpha))
    signs = plus if alpha >= 0 else [-x for x in plus]
    total = rational_sum(ns, signs)
    if min(plus) > 0 and abs(total) <= abs(alpha):  # no prefix sum exceeds |alpha|
        return FlipResult(feasible=False, signs=None, error=None, deficit=abs(alpha) - abs(total))
    return FlipResult(feasible=True, signs=SignSequence(s, signs), error=total - alpha)


def alternating_prefix(n_scale: int) -> tuple[SignSequence, Fraction]:
    """Alternating +,- signs on [1, 2J] with J = floor(N / 4e^2).

    Returns (SignSequence, exact alternating sum); the sum lies in (1/2, 1].
    """
    j = int(n_scale / (4.0 * math.e**2))
    if j < 1:
        raise ValueError("scale too small: alternating prefix needs J >= 1")
    sup = SupportSet.interval(1, 2 * j)
    signs = np.where(sup.values % 2 == 1, 1, -1).astype(np.int8)
    seq = SignSequence(sup, signs)
    return seq, exact_rational_sum(seq)


def small_prefix_construction(n_scale: int) -> ConstructionReport:
    """Signs on [1, N/2] with exact-verified |sum| <= 2/N.

    Alternating prefix on [1, 2J], then a target flip on (2J, N/2] aimed at
    cancelling the prefix value.
    """
    if n_scale < 64:
        raise ValueError("scale must be >= 64")
    t0 = time.perf_counter()
    prefix, alpha = alternating_prefix(n_scale)
    rest = SupportSet.interval(prefix.support.max() + 1, n_scale // 2)
    flip = flip_to_target(rest, -alpha)
    if not flip.feasible:
        raise InfeasibleError(f"flip deficit {flip.deficit} at scale {n_scale}")
    rep = ConstructionReport._from_signs(
        prefix.merge(flip.signs),
        Fraction(0),
        Fraction(2, n_scale),
        "Flip",
        None,
        t0,
        {"alternating_sum": alpha, "flip_error": flip.error},
    )
    assert rep.target_met, f"prefix construction violated 2/N at N={n_scale}"
    return rep


def _spread_indices(n_items: int, count: int) -> np.ndarray:
    """`count` distinct ascending indices spread evenly across range(n_items),
    from 0 to n_items - 1: for count < n_items the linspace step exceeds 1, so
    the rounded points stay distinct."""
    if count >= n_items:
        return np.arange(n_items, dtype=np.int64)
    return np.round(np.linspace(0, n_items - 1, count)).astype(np.int64)


def _range_positions(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions lo[k], ..., lo[k] + counts[k] - 1 of every k, concatenated."""
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return np.arange(int(counts.sum())) + shift


def _sorted_half(units: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sorted _half_sums of `units`, low sums, tail sums).

    The half is built from its parts: every half index is a low index over all
    but the last MITM_TAIL_UNITS units plus a tail index over those, so
    (tail[:, None] + low[None, :]).ravel() is _half_sums(units) entry for
    entry. _sorted_indices looks sign indices up in the same parts.
    """
    k = max(len(units) - MITM_TAIL_UNITS, 0)
    low, tail = _half_sums(units[:k]), _half_sums(units[k:])
    sums = (tail[:, None] + low[None, :]).ravel()
    sums.sort()
    return sums, low, tail


def _sorted_indices(
    sums: np.ndarray, low: np.ndarray, tail: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Sign index of each sorted position of `sums`, a half from _sorted_half
    with its low and tail sums, as a stable argsort of the unsorted half
    would give it.

    A small meet-in-the-middle by value: each wanted value minus each tail sum
    is looked up among the sorted low sums. The hits, ordered by (value,
    index), give position p of value v the hit of rank first_hit(v) + p -
    first_pos(v).
    """
    low_order = np.argsort(low)
    low = low[low_order]
    vals = sums[positions]
    wanted = np.sort(vals)  # deduplicated by hand: np.unique's first call takes ~20 ms
    wanted = wanted[np.concatenate(([True], wanted[1:] != wanted[:-1]))]
    need = (wanted[:, None] - tail[None, :]).ravel()
    lo = np.searchsorted(low, need, side="left")
    counts = np.searchsorted(low, need, side="right") - lo
    hit_idx = low_order[_range_positions(lo, counts)] + np.repeat(
        np.tile(np.arange(len(tail)) * len(low), len(wanted)), counts
    )
    hit_val = np.repeat(np.repeat(wanted, len(tail)), counts)
    order = np.lexsort((hit_idx, hit_val))
    hit_idx, hit_val = hit_idx[order], hit_val[order]
    rank = np.searchsorted(hit_val, vals) + positions - np.searchsorted(sums, vals)
    return hit_idx[rank]


def _pair_signs(free_ns: list[int], li: int, ri: int) -> dict[int, int]:
    """Signs of the pair (li, ri): left index li over free_ns[0::2], right
    index ri over free_ns[1::2]; bit j of an index means -1 at element j."""
    out: dict[int, int] = {}
    for ns, index in ((free_ns[0::2], li), (free_ns[1::2], ri)):
        out.update((n, -1 if (index >> j) & 1 else 1) for j, n in enumerate(ns))
    return out


def _headroom_bits(heavy: Fraction, target: Fraction) -> int:
    """Fraction bits of the int64 sweep for free reciprocals summing to heavy
    and a target: 2^(61 - bits) covers heavy + |target| + 1. A target of
    2^21 or more gives fewer than 40 bits, and is capped there before the
    float conversion."""
    bound = float(heavy) + float(min(abs(target), 2**21)) + 1.0
    return 61 - max(0, math.ceil(math.log2(bound)))


def _mitm_fixed_point(free_ns: list[int], tau: Fraction):
    """Int64 fixed-point meet-in-the-middle with an exact shortlist re-check.

    Sorted-halves sweep (Horowitz and Sahni, 1974): each half's 2^m signed
    sums are built as values only, by _sorted_half, and sorted in place. The
    reversed left half gives ascending queries tau - L, swept in blocks of
    MITM_BLOCK: a block is searched in its own slice of the right half,
    between the cuts of its first query and of the next block's, and keeps
    only its minimum distance. Rounding costs at most half an ulp per
    reciprocal, so any pair whose true distance beats the fixed-point winner
    sits within 2*(m+2) ulps of it; the blocks that hold such a query are swept
    again to collect them, and each collected query's window of the right half
    is shortlisted. Only the shortlisted sorted positions get their sign
    indices, from _sorted_indices. Each shortlisted pair's distance to tau is
    re-checked exactly, by rational_sum over its signs, and the lexicographic
    minimum of (exact distance, left index, right index) wins.

    A target on or past +-heavy, heavy = sum of 1/n over free_ns, forces every
    sign to sign(tau). Such a call returns the sweep's result without building
    the halves, unless some unit is small enough that the sweep would
    shortlist other pairs too.
    """
    heavy = rational_sum(free_ns, [1] * len(free_ns))
    near_tau = tau
    if _headroom_bits(heavy, tau) < 40:
        # Every signed sum lies in [-heavy, heavy], so tau clamped to
        # +-(heavy + 1) ranks the pairs as tau does; heavy < 5 for up to 52
        # distinct free elements, so it fits. The exact re-check uses tau.
        near_tau = max(-heavy - 1, min(tau, heavy + 1))
    p_bits = _headroom_bits(heavy, near_tau)
    units = rounded_units(free_ns, p_bits)[0]
    tau_fp = _round_nearest(near_tau.numerator << p_bits, near_tau.denominator)[0]
    if abs(tau) >= heavy:
        # Forced signs: every signed sum lies in [-heavy, heavy], and only all
        # signs s = sign(tau) reach s*heavy, so they are the unique exact
        # optimum. In fixed point every other pair lies at least
        # 2*units.min() - over ulps from tau_fp, `over` being the all-s
        # pair's overshoot past tau_fp; when that clears the shortlist margin,
        # the sweep would shortlist this one pair, so it is not run.
        s = 1 if tau > 0 else -1
        total = s * int(units.sum())
        over = max(0, s * (total - tau_fp))
        if int(units.min()) > over + len(free_ns) + 2:
            info = {
                "mode": "fixed_point",
                "scale_bits": p_bits,
                "shortlist_pairs": 1,
                "fp_best_ulps": abs(tau_fp - total),
            }
            return dict.fromkeys(free_ns[0::2] + free_ns[1::2], s), info
    left, *parts_l = _sorted_half(units[0::2])
    right, *parts_r = _sorted_half(units[1::2])
    queries = left[::-1]  # query i is tau - queries[i], ascending in i
    starts = range(0, len(queries), MITM_BLOCK)
    cuts = np.searchsorted(right, tau_fp - queries[::MITM_BLOCK]).tolist() + [len(right)]

    def block(k: int) -> tuple[np.ndarray, np.ndarray]:
        # The slice keeps right[cut - 1], the pos - 1 neighbour of the
        # block's first query, and right[next cut], the pos neighbour of
        # its last one.
        need = tau_fp - queries[starts[k] : starts[k] + MITM_BLOCK]
        near = right[max(cuts[k] - 1, 0) : cuts[k + 1] + 1]
        pos = np.searchsorted(near, need)
        dist = np.abs(near.take(pos, mode="clip") - need)
        pos -= 1
        np.minimum(dist, np.abs(need - near.take(pos, mode="clip")), out=dist)
        return need, dist

    block_min = [int(block(k)[1].min()) for k in range(len(starts))]
    fp_best = min(block_min)
    thr = fp_best + 2 * (len(free_ns) + 2)
    rows, needs = [], []
    for k, least in enumerate(block_min):
        if least <= thr:
            need, dist = block(k)
            hit = np.flatnonzero(dist <= thr)
            rows.append(hit + starts[k])
            needs.append(need[hit])
    need = np.concatenate(needs)
    lo = np.searchsorted(right, need - thr, side="left")
    counts = np.searchsorted(right, need + thr, side="right") - lo
    n_pairs = int(counts.sum())
    if n_pairs > SHORTLIST_CAP:
        raise ResourceBudgetError("meet-in-the-middle shortlist exploded")
    pos_l = np.repeat(len(left) - 1 - np.concatenate(rows), counts)
    pair_l = _sorted_indices(left, *parts_l, pos_l).tolist()
    pair_r = _sorted_indices(right, *parts_r, _range_positions(lo, counts)).tolist()

    def exact_distance(li: int, ri: int) -> Fraction:
        signs = _pair_signs(free_ns, li, ri)
        return abs(rational_sum(signs.keys(), signs.values()) - tau)

    _, li, ri = min((exact_distance(i, j), i, j) for i, j in zip(pair_l, pair_r))
    signs = _pair_signs(free_ns, li, ri)
    info = {
        "mode": "fixed_point",
        "scale_bits": p_bits,
        "shortlist_pairs": n_pairs,
        "fp_best_ulps": fp_best,
    }
    return signs, info


def mitm_optimize(
    a: SupportSet,
    x0,
    max_free: int = 48,
    seed: int | None = None,
    target_eta: Fraction | None = None,
) -> ConstructionReport:
    """Minimize |sum a_n/n - x0| by meet-in-the-middle over free elements.

    Signs outside a spread subset of `max_free` elements are fixed greedily
    toward the target; the free elements get the globally optimal signs of
    _mitm_fixed_point, an int64 fixed-point sweep with an exact shortlist
    re-check. The achieved value is re-verified from the signs.
    """
    if not len(a):
        raise ValueError("support must be nonempty")
    if max_free > MAX_FREE_LIMIT:
        raise ResourceBudgetError(f"max_free capped at {MAX_FREE_LIMIT}")
    if max_free < 1:
        raise ValueError("max_free must be >= 1")
    t_start = time.perf_counter()
    x0 = Fraction(x0)
    ns_all = [int(n) for n in a.values]
    free_idx = _spread_indices(len(ns_all), min(max_free, len(ns_all)))
    free_mask = np.zeros(len(ns_all), dtype=bool)
    free_mask[free_idx] = True
    free_ns = [ns_all[i] for i in free_idx]
    fixed_sup = SupportSet(a.values[~free_mask])
    if len(fixed_sup):
        fixed_seq, fixed_sum = greedy_toward(fixed_sup, x0)
    else:
        fixed_seq, fixed_sum = None, Fraction(0)
    tau = x0 - fixed_sum
    free_signs, info = _mitm_fixed_point(free_ns, tau)
    free_seq = SignSequence.from_pairs(free_signs.items())
    seq = fixed_seq.merge(free_seq) if fixed_seq is not None else free_seq
    details = {
        "free_count": len(free_ns),
        "fixed_count": len(fixed_sup),
        "fixed_residual": x0 - fixed_sum,
        **info,
    }
    return ConstructionReport._from_signs(seq, x0, target_eta, "MITM", seed, t_start, details)


def randomized_search(
    a: SupportSet,
    x0,
    eta,
    seed: int = 0,
    max_iters: int = 100_000,
) -> ConstructionReport:
    """Seeded rejection sampling over uniform signs, keeping the best found.

    Stops early once the float distance falls within eta; the final value is
    re-verified exactly. May return a best-found value above eta.
    """
    eta = Fraction(eta)
    if eta <= 0:
        raise ValueError("eta must be positive")
    x0 = Fraction(x0)
    t_start = time.perf_counter()
    rng = np.random.default_rng(seed)
    inv = 1.0 / a.values.astype(np.float64)
    x0f, etaf = float(x0), float(eta)
    best_d = math.inf
    best_signs: np.ndarray | None = None
    found_at = 0
    done = 0
    while done < max_iters:
        chunk = min(max_iters - done, 4096)
        bits = rng.integers(0, 2, size=(chunk, len(inv)))
        x = (bits.astype(np.float64) * 2.0 - 1.0) @ inv
        d = np.abs(x - x0f)
        i = int(np.argmin(d))
        if d[i] < best_d:
            best_d = float(d[i])
            best_signs = (bits[i].astype(np.int8) * 2 - 1).copy()
            found_at = done + i + 1
        done += chunk
        if best_d <= etaf:
            break
    details = {"samples_drawn": done, "best_found_at": found_at}
    return ConstructionReport._from_signs(
        SignSequence(a, best_signs), x0, eta, "Randomized", seed, t_start, details
    )


@dataclass
class RoughBasis:
    """Subset B of A built from distinct rough parts.

    Every b in B factors uniquely as b = r * smooth_of[r] with r in R; k is
    the maximum number of prime factors (with multiplicity) over R.
    """

    b: SupportSet
    r: SupportSet
    smooth_of: dict[int, int]
    eps1: float
    k: int
    feasible: bool
    note: str = ""

    def to_obj(self) -> dict:
        return {
            "b_size": len(self.b),
            "r_size": len(self.r),
            "eps1": self.eps1,
            "k": self.k,
            "feasible": self.feasible,
            "note": self.note,
        }


def rough_basis_subset(
    a: SupportSet,
    n_scale: int,
    eps0: float,
    sieve: SieveTable,
) -> RoughBasis:
    """Search eps1 over {1/2, 1/4, ...} until |R_eps1(A)| >= N^(1-eps0).

    Pairs every rough part with its minimal smooth companion present in A;
    returns an infeasible outcome when the grid is exhausted.
    """
    if not 0 < eps0 < 1:
        raise ValueError("eps0 must be in (0, 1)")
    # |R| can never exceed |A|, so for sparse inputs the density-backed
    # threshold N^(1-eps0) is capped by the set size itself.
    target = min(n_scale ** (1.0 - eps0), float(len(a)))
    eps1 = 0.5
    while eps1 >= EPS1_FLOOR:
        rough = sieve.rough_parts(a.values, int(n_scale**eps1))
        roots, first = np.unique(rough, return_index=True)
        if len(roots) >= target:
            # A is ascending, so the first element with a given rough part
            # has the least smooth part.
            first.sort()
            b = a.values[first]
            pairs = dict(zip(rough[first].tolist(), (b // rough[first]).tolist()))
            k = max((sieve.big_omega(r) for r in roots.tolist() if r > 1), default=1)
            note = "" if target == n_scale ** (1.0 - eps0) else "target capped at |A|"
            return RoughBasis(
                b=SupportSet(b),
                r=SupportSet(roots),
                smooth_of=pairs,
                eps1=eps1,
                k=max(k, 1),
                feasible=True,
                note=note,
            )
        eps1 /= 2.0
    return RoughBasis(
        b=SupportSet([]),
        r=SupportSet([]),
        smooth_of={},
        eps1=eps1,
        k=1,
        feasible=False,
        note=f"no eps1 >= {EPS1_FLOOR} reaches |R| >= N^(1-{eps0})",
    )


def _default_dense_target(n_scale: int) -> Fraction:
    log_sq = math.log(n_scale) ** 2
    strong = Fraction(math.exp(-log_sq)) if log_sq < 700 else Fraction(0)
    return max(strong, Fraction(1, 10**11))


def achieved_exponent(achieved: Fraction, n_scale: int) -> float | None:
    """theta-hat = log(-log achieved)/log N for a sub-1 achievement."""
    if achieved <= 0:
        return math.inf
    af = float(achieved)
    if af >= 1.0:
        return None
    return math.log(-math.log(af)) / math.log(n_scale)


def dense_set_signs(
    a0: SupportSet,
    n_scale: int,
    delta: float,
    eps0: float,
    seed: int,
    sieve: SieveTable,
    target_eta: Fraction | None = None,
    max_free: int = 48,
) -> ConstructionReport:
    """Full small-sum pipeline on a dense set restricted to [1, N].

    Greedy prefix on A0 up to delta*N/2, then meet-in-the-middle on the rest
    targeting the negated prefix value; the rough basis and eta budget that
    frame the admissible window are computed and recorded.
    """
    if n_scale < DENSE_N_MIN:
        raise ValueError(f"scale must be >= {DENSE_N_MIN}")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    if n_scale <= 2.0 / -math.log1p(-delta / 2.0):
        raise ValueError("scale too small for this density parameter")
    t_start = time.perf_counter()
    a0n = a0.restrict(1, n_scale)
    if len(a0n) < delta * n_scale:
        raise DensityRequirementError(
            f"|A0 cap [N]| = {len(a0n)} < delta*N = {delta * n_scale}"
        )
    m = int(delta * n_scale / 2)
    prefix_sup = a0n.restrict(1, m - 1)
    if not len(prefix_sup):
        raise InfeasibleError("prefix range is empty at this scale")
    prefix_seq, prefix_sum = greedy_bounded(prefix_sup)
    main_sup = a0n.restrict(m, n_scale)
    if not len(main_sup):
        raise InfeasibleError("main range is empty at this scale")
    basis = rough_basis_subset(main_sup, n_scale, eps0, sieve)
    budget = density_mod.eta_budget(
        n_scale,
        max(len(basis.b), 1),
        basis.k,
        x0=abs(float(prefix_sum)),
        c=delta / 2.0,
    )
    if target_eta is None:
        target_eta = _default_dense_target(n_scale)
    x0 = -prefix_sum
    attempts: list[int] = []
    free = min(max_free, MAX_FREE_LIMIT)
    while True:
        attempts.append(free)
        rep = mitm_optimize(main_sup, x0, max_free=free, seed=seed, target_eta=target_eta)
        if rep.target_met or free >= MAX_FREE_LIMIT:
            break
        free = min(free + 2, MAX_FREE_LIMIT)
    details = {
        "prefix_sum": prefix_sum,
        "prefix_bound": 2.0 / (delta * n_scale),
        "prefix_size": len(prefix_sup),
        "rough_basis": basis.to_obj(),
        "eta_budget": budget.to_obj(),
        "mitm": rep.to_obj(),
        "max_free_attempts": attempts,
        "theta_hat": achieved_exponent(rep.achieved_exact, n_scale),
    }
    report = ConstructionReport._from_signs(
        prefix_seq.merge(rep.signs), Fraction(0), target_eta, "Pipeline", seed, t_start, details
    )
    assert report.achieved_exact == rep.achieved_exact, "pipeline bookkeeping mismatch"
    return report


@dataclass
class ScaleChainResult:
    """Per-scale reports for an upper-density set; signs are never reassigned."""

    scales: list[int]
    reports: list[ConstructionReport]
    signs: SignSequence
    exhausted: bool
    note: str = ""

    def to_obj(self) -> dict:
        return _jsonable(vars(self))


def upper_density_scales(
    a0: SupportSet,
    delta0: float,
    max_scales: int,
    seed: int,
    sieve: SieveTable,
    max_free: int = 48,
) -> ScaleChainResult:
    """Qualifying-scale chain for sets of positive upper density.

    Scans forward for scales P_i >= ceil((2/delta0) P_{i-1}) at which the
    density holds, then extends the sign assignment (never reassigning an
    emitted sign) so the partial sum over A0 cap [P_i] is small. A0 must be
    materialized up to the largest scale scanned.
    """
    if not 0 < delta0 < 1:
        raise ValueError("delta0 must be in (0, 1)")
    if not len(a0):
        raise ValueError("support must be nonempty")
    limit = a0.max()
    scales: list[int] = []
    reports: list[ConstructionReport] = []
    assigned: SignSequence | None = None
    running = Fraction(0)
    prev = 0
    exhausted = False
    note = ""
    for _ in range(max_scales):
        scan = DENSE_N_MIN if prev == 0 else math.ceil(2 * prev / delta0)
        p_i = None
        while scan <= limit:
            if a0.count_upto(scan) >= delta0 * scan:
                p_i = scan
                break
            scan += 1
        if p_i is None:
            exhausted = True
            note = f"no qualifying scale beyond {prev} within the materialized range"
            break
        m = int(delta0 * p_i / 2)
        ext_sup = a0.restrict(prev + 1, max(m - 1, prev))
        if len(ext_sup):
            ext_seq, ext_sum = greedy_toward(ext_sup, -running)
            assigned = ext_seq if assigned is None else assigned.merge(ext_seq)
            running += ext_sum
        block = a0.restrict(max(m, prev + 1), p_i)
        if not len(block):
            exhausted = True
            note = f"scale {p_i} has an empty refinement block"
            break
        rep = mitm_optimize(
            block,
            -running,
            max_free=max_free,
            seed=seed,
            target_eta=_default_dense_target(p_i),
        )
        assigned = rep.signs if assigned is None else assigned.merge(rep.signs)
        running += exact_rational_sum(rep.signs)
        assert abs(running) == rep.achieved_exact
        coarse = Fraction(2) / Fraction(delta0 * p_i)
        rep.details["scale"] = p_i
        rep.details["coarse_bound_met"] = bool(abs(running) <= coarse)
        reports.append(rep)
        scales.append(p_i)
        prev = p_i
    return ScaleChainResult(
        scales=scales,
        reports=reports,
        signs=assigned if assigned is not None else SignSequence(SupportSet([]), []),
        exhausted=exhausted,
        note=note,
    )
