"""Sign-sequence construction: bounded greedy, target flipping,
meet-in-the-middle refinement, rough-basis subset extraction and the dense-set
pipelines that chain them together."""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import density as density_mod
from .numerics import (
    BigFixed,
    ResourceBudgetError,
    _half_sums,
    _round_nearest,
    default_precision,
    exact_rational_sum,
    rational_sum,
    rounded_units,
    verify_abs_below,
)
from .sieve import SieveTable
from .support import SignSequence, SupportSet

MAX_FREE_LIMIT = 52
SHORTLIST_CAP = 65536
MITM_BLOCK = 1 << 14  # half sums per chunk of _half_chunks: queries per block of the MITM sweep
MITM_TAIL_UNITS = 6  # units per half in the tail sums of _half_chunks
GREEDY_SCALE_BITS = 128  # starting fixed-point precision of the certified greedy
DENSE_N_MIN = 256  # least scale of dense_set_signs and upper_density_scales
EPS1_FLOOR = 1.0 / 64  # least rough-part exponent rough_basis_subset tries


class InfeasibleError(Exception):
    """Valid inputs miss a construction's stated precondition: an outcome, not a usage error."""


@dataclass(frozen=True)
class FlipResult:
    """Outcome of flip_to_target; infeasible outcomes carry the deficit."""

    feasible: bool
    signs: SignSequence | None
    error: Fraction | None
    deficit: Fraction | None = None


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
        bits = default_precision(len(signs), target_eta, achieved)
        if target_eta is None:
            met, rendered = None, BigFixed.from_fraction(achieved, bits)
        else:
            met, rendered, _ = verify_abs_below(achieved, target_eta, bits)
        return cls(
            signs=signs,
            achieved=rendered,
            achieved_exact=achieved,
            target_eta=target_eta,
            target_met=met,
            method=method,
            rng_seed=rng_seed,
            wall_time=time.perf_counter() - t_start,
            details=details,
        )


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

    Each 1/n is rounded inline, half up as in rounded_units: units taken up
    front would hold a scale_bits-sized int per term at once, which raised
    the peak RSS of long greedy runs with no gain in time.
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


def greedy_bounded(a: SupportSet) -> tuple[SignSequence, Fraction]:
    """Greedy signs over A in increasing order; every prefix sum stays in [-1, 1].

    Returns (SignSequence, exact sum).
    """
    if not len(a):
        raise ValueError("support must be nonempty")
    ns = a.values.tolist()
    signs = _certified_greedy(ns, 0)
    return SignSequence(a, signs), rational_sum(ns, signs)


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


def _half_chunks(units: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, Iterator[np.ndarray]]:
    """(count of zero sums, low sums, tail sums, chunks) of the half with
    these units: the chunks are its positive _half_sums, sorted, in
    ascending chunks of about MITM_BLOCK entries, made one at a time.

    Flipping every bit of a sign index negates its sum, so the half's sums
    sorted are -pos[::-1], then `zeros` zeros, then pos: only pos is needed,
    2^(m-1) entries at most. Every half index is a low index over all but the
    last MITM_TAIL_UNITS units plus a tail index over those, so
    (tail[:, None] + low[None, :]).ravel() is _half_sums(units) entry for
    entry, and _windows finds sign indices by value in the same parts. The
    sums in [v, w) are, for each tail sum t, the slice of the sorted low sums
    in [v - t, w - t) plus t: gathered and sorted, they make one chunk, so
    the half is listed in value order without being stored (Schroeppel and
    Shamir, 1981). The chunk edges are quantiles of every (MITM_BLOCK >> 6)th
    sorted low sum plus each tail sum.
    """
    k = max(len(units) - MITM_TAIL_UNITS, 0)
    low, tail = _half_sums(units[:k]), _half_sums(units[k:])
    if len(low) * len(tail) <= 2 * MITM_BLOCK:  # one chunk: no edges to find
        sums = (tail[:, None] + low).ravel()
        pos = np.sort(sums[sums > 0])
        return len(sums) - 2 * len(pos), low, tail, iter((pos,))
    ordered = np.sort(low)
    stride = max(MITM_BLOCK >> 6, 1)
    sample = (ordered[::stride] + tail[:, None]).ravel()
    sample = np.sort(sample[sample > 0])
    step = max(MITM_BLOCK // stride, 1)
    edges = np.concatenate(([1], sample[step::step], [ordered[-1] + tail.max() + 1]))
    cuts = np.searchsorted(ordered, edges - tail[:, None])
    zeros = int((cuts[:, 0] - np.searchsorted(ordered, -tail)).sum())

    def chunks():
        for lo, hi in zip(cuts.T, cuts.T[1:]):
            counts = hi - lo
            if counts.any():
                chunk = ordered[_range_positions(lo, counts)] + np.repeat(tail, counts)
                chunk.sort()
                yield chunk

    return zeros, low, tail, chunks()


def _windows(
    low: np.ndarray, tail: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, counts) of the windows [lo[k], hi[k]] over the half
    with these low and tail sums from _half_chunks. Its sign indices whose
    sums lie in window k are, for each tail index t, order[starts[k, t] + c]
    + t * len(low) for c < counts[k, t]; counts.sum(axis=1) counts them.

    A sum tail[t] + low[i] lies in [lo, hi] just when low[i] lies in
    [lo - tail[t], hi - tail[t]], one range of the sorted low sums.
    """
    order = np.argsort(low)
    ordered = low[order]
    starts = np.searchsorted(ordered, lo[:, None] - tail, side="left")
    counts = np.searchsorted(ordered, hi[:, None] - tail, side="right") - starts
    return order, starts, counts


def _window_indices(order: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The sign indices of _windows' windows, window by window, concatenated."""
    tails = np.broadcast_to(np.arange(starts.shape[1]) * len(order), starts.shape)
    counts = counts.ravel()
    return order[_range_positions(starts.ravel(), counts)] + np.repeat(tails.ravel(), counts)


def _distance_to_half(x: np.ndarray, near: np.ndarray, zeros: int) -> np.ndarray:
    """Distance from each x >= 0 to the nearest sum of a half with `zeros`
    zero sums, `near` being the slice of its sorted positive sums that holds
    each x's neighbours. The half's sums are symmetric about 0, and for
    x >= 0 the mirror -p of a positive sum p is never nearer than p."""
    if not len(near):  # no positive sums: every sum of the half is 0
        return x.copy()
    at = np.searchsorted(near, x)
    dist = np.abs(near.take(at, mode="clip") - x)
    at -= 1
    np.minimum(dist, np.abs(x - near.take(at, mode="clip")), out=dist)
    if zeros:
        np.minimum(dist, x, out=dist)
    return dist


def _index_signs(count: int, index: int) -> list[int]:
    """The +1/-1 signs of a half's sign index: bit j means -1 at element j."""
    return [-1 if (index >> j) & 1 else 1 for j in range(count)]


def _headroom_bits(heavy: Fraction, target: Fraction) -> int:
    """Fraction bits of the int64 sweep for free reciprocals summing to heavy
    and a target: 2^(61 - bits) covers heavy + |target| + 1. A target of
    2^21 or more gives fewer than 40 bits, and is capped there before the
    float conversion."""
    bound = float(heavy) + float(min(abs(target), 2**21)) + 1.0
    return 61 - max(0, math.ceil(math.log2(bound)))


def _mitm_fixed_point(free_ns: list[int], tau: Fraction):
    """Int64 fixed-point meet-in-the-middle with an exact shortlist re-check.

    Sorted-halves sweep (Horowitz and Sahni, 1974) over half sums that are
    symmetric about 0: flipping every sign negates a sum, so _half_chunks
    lists only each half's positive sums, in ascending chunks, with a count
    of its zero sums. Only the right half is held, as one sorted array; the
    left half is never stored. A query tau - L lies as far from the right
    half as |tau - L| does, and over the left sums -p, 0 and p that distance
    is a + p, |a - p| and a, a = |tau|: the one query a goes first, then
    each chunk of the left positive sums as three ascending runs, a + p,
    a - p and p - a. Each run is searched in its own slice of the right
    positive sums, between the cuts of its first and last query; a right sum
    on the far side of 0 is never nearer. Rounding costs at most half an ulp
    per reciprocal, so any pair whose true distance beats the fixed-point
    winner sits within 2*(m+2) ulps of it: the queries within that margin of
    the least distance so far are kept as the chunks pass, and pruned each
    time it falls. A query's distance depends only on its value, so the
    kept left values are distinct windows [L, L] of the left half, and each
    gets the window [tau - L - thr, tau - L + thr] of the right half, thr
    the margin past the least distance. _windows finds every sign index in
    each window by one range of the sorted low sums per tail sum, and the
    shortlist pairs the left indices of each window with its right indices;
    SHORTLIST_CAP bounds its size before any index is gathered. Each
    shortlisted pair's distance to tau is re-checked exactly, from
    rational_sum over each distinct half index's signs, and the
    lexicographic minimum of (exact distance, left index, right index) wins.
    Returns the +-1 signs aligned with free_ns, and the search info.

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
            return [s] * len(free_ns), info
    zeros_l, *parts_l, chunks_l = _half_chunks(units[0::2])
    zeros_r, *parts_r, chunks_r = _half_chunks(units[1::2])
    pos_r = np.empty((len(parts_r[0]) * len(parts_r[1]) - zeros_r) // 2, dtype=np.int64)
    n = 0
    for chunk in chunks_r:
        pos_r[n : n + len(chunk)] = chunk
        n += len(chunk)
    # The left sums are -p, 0 (zeros_l times) and p over its positive sums p,
    # so the queries' |tau - L| are a + p, a and |a - p|, a = |tau_fp|. A
    # block is (p, sign of p in L, x ascending): the zero block, one query
    # for every zero sum, then the runs a + p, a - p and p - a of each chunk
    # of the left half.
    a, sign = abs(tau_fp), 1 if tau_fp >= 0 else -1

    def blocks():
        if zeros_l:
            yield np.zeros(1, dtype=np.int64), 1, np.array([a], dtype=np.int64)
        for p in chunks_l:
            split = int(np.searchsorted(p, a))
            below, above = p[:split][::-1], p[split:]
            yield p, -sign, p + a
            yield below, sign, a - below
            yield above, sign, above - a

    # Each block keeps the queries within the margin of the least distance
    # so far, and the kept ones are pruned whenever it falls, so at the end
    # they are exactly the queries within the margin of the least of all.
    margin = 2 * (len(free_ns) + 2)
    fp_best, kept = math.inf, []
    for p, sl, x in blocks():
        if not len(x):
            continue
        # The slice keeps pos_r[cut - 1], the pos - 1 neighbour of x[0], and
        # pos_r[next cut], the pos neighbour of x[-1].
        cut, next_cut = np.searchsorted(pos_r, (x[0], x[-1])).tolist()
        dist = _distance_to_half(x, pos_r[max(cut - 1, 0) : next_cut + 1], zeros_r)
        least = int(dist.min())
        if least > fp_best + margin:
            continue
        if least < fp_best:
            fp_best = least
            kept = [(d[d <= fp_best + margin], v[d <= fp_best + margin]) for d, v in kept]
        near = dist <= fp_best + margin
        kept.append((dist[near], sl * p[near]))
    thr = fp_best + margin
    del pos_r  # only the sweep reads it; the lookups' scratch would stack on it
    left = np.sort(np.concatenate([v for _, v in kept]))
    left = left[np.concatenate(([True], left[1:] != left[:-1]))]
    # Window k pairs the left indices of value left[k] with the right
    # indices whose sums lie within thr of tau_fp - left[k]. Each left index
    # has one value, so no pair is listed twice.
    wins_l = _windows(*parts_l, left, left)
    wins_r = _windows(*parts_r, tau_fp - left - thr, tau_fp - left + thr)
    n_l, n_r = wins_l[2].sum(axis=1), wins_r[2].sum(axis=1)
    n_pairs = int((n_l * n_r).sum())
    if n_pairs > SHORTLIST_CAP:
        raise ResourceBudgetError("meet-in-the-middle shortlist exploded")
    idx_l, idx_r = _window_indices(*wins_l).tolist(), _window_indices(*wins_r).tolist()

    # Each distinct half index is summed once; a pair's distance is then
    # |L + (R - tau)|.
    ns_l, ns_r = free_ns[0::2], free_ns[1::2]
    exact_l = {i: rational_sum(ns_l, _index_signs(len(ns_l), i)) for i in idx_l}
    gap_r = {j: rational_sum(ns_r, _index_signs(len(ns_r), j)) - tau for j in idx_r}
    ends_l, ends_r = np.cumsum(n_l).tolist(), np.cumsum(n_r).tolist()
    _, li, ri = min(
        (abs(exact_l[i] + gap_r[j]), i, j)
        for l0, l1, r0, r1 in zip([0, *ends_l], ends_l, [0, *ends_r], ends_r)
        for i in idx_l[l0:l1]
        for j in idx_r[r0:r1]
    )
    signs = [0] * len(free_ns)
    signs[0::2], signs[1::2] = _index_signs(len(ns_l), li), _index_signs(len(ns_r), ri)
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
    free_mask = np.zeros(len(a), dtype=bool)
    free_mask[_spread_indices(len(a), min(max_free, len(a)))] = True
    free_ns = a.values[free_mask].tolist()
    fixed_seq, fixed_sum = greedy_toward(SupportSet(a.values[~free_mask]), x0)
    free_signs, info = _mitm_fixed_point(free_ns, x0 - fixed_sum)
    signs = np.empty(len(a), dtype=np.int8)
    signs[~free_mask] = fixed_seq.signs
    signs[free_mask] = free_signs
    details = {
        "free_count": len(free_ns),
        "fixed_count": len(fixed_seq),
        "fixed_residual": x0 - fixed_sum,
        **info,
    }
    return ConstructionReport._from_signs(
        SignSequence(a, signs), x0, target_eta, "MITM", seed, t_start, details
    )


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
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, got {max_iters}")
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
            note = "" if target == n_scale ** (1.0 - eps0) else "target capped at |A|"
            return RoughBasis(
                b=SupportSet(b),
                r=SupportSet(roots),
                smooth_of=pairs,
                eps1=eps1,
                k=int(sieve.omega_table()[roots].max(initial=1)),
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


def _lone_prime(a: SupportSet, sieve: SieveTable) -> int | None:
    """Largest prime that divides exactly one element of A, or None.

    Such a prime p shows that no signed sum of 1/n over A is 0: p divides the
    denominator of the one term 1/n with p | n, and not that of the sum of the
    other terms.
    """
    in_a = np.zeros(a.max() + 1, dtype=bool)
    in_a[a.values] = True
    for p in sieve.primes_in(0, a.max()).values[::-1].tolist():
        if np.count_nonzero(in_a[p::p]) == 1:
            return p
    return None


def _dense_scale(
    a0: SupportSet,
    prev: int,
    running: Fraction,
    n_scale: int,
    delta: float,
    seed: int,
    sieve: SieveTable,
    target_eta: Fraction,
    max_free: int,
) -> ConstructionReport:
    """One scale N of the dense-set construction, after signs on A0 cap
    [1, prev] that sum to `running`: greedy signs on A0 cap (prev, m), m =
    floor(delta*N/2), then meet-in-the-middle on A0 cap [max(m, prev + 1), N],
    each toward -running less the sum before it. The report covers both
    parts and measures |running + their sum|. Callers ensure prev <= m and
    |A0 cap [1, N]| >= delta*N, so at least delta*N/2 elements form the block.
    """
    t_start = time.perf_counter()
    m = int(delta * n_scale / 2)
    prefix_seq, prefix_sum = greedy_toward(a0.restrict(prev + 1, m - 1), -running)
    block = a0.restrict(max(m, prev + 1), n_scale)
    x0 = -(running + prefix_sum)
    # A sum of exactly 0 is out of reach when a prime divides a single n,
    # so more free elements cannot meet a zero target.
    lone = _lone_prime(a0.restrict(1, n_scale), sieve) if target_eta == 0 else None
    attempts: list[int] = []
    free = min(max_free, MAX_FREE_LIMIT)
    while True:
        attempts.append(free)
        rep = mitm_optimize(block, x0, max_free=free, seed=seed, target_eta=target_eta)
        if rep.target_met or free >= MAX_FREE_LIMIT or lone is not None:
            break
        free = min(free + 2, MAX_FREE_LIMIT)
    details = {
        "prefix_sum": prefix_sum,
        "prefix_bound": 2.0 / (delta * n_scale),
        "prefix_size": len(prefix_seq),
        "mitm": rep,
        "max_free_attempts": attempts,
        "theta_hat": achieved_exponent(rep.achieved_exact, n_scale),
    }
    if lone is not None:
        details["zero_excluded_by_prime"] = lone
    report = ConstructionReport._from_signs(
        prefix_seq.merge(rep.signs), -running, target_eta, "Pipeline", seed, t_start, details
    )
    if report.achieved_exact != rep.achieved_exact:
        raise RuntimeError("pipeline bookkeeping mismatch")
    return report


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
    """Full small-sum pipeline on a dense set restricted to [1, N]: one
    _dense_scale from no signs, a greedy prefix on A0 up to delta*N/2 and then
    meet-in-the-middle on the rest toward the negated prefix value. The rough
    basis and eta budget that frame the admissible window are recorded too.
    """
    if n_scale < DENSE_N_MIN:
        raise ValueError(f"scale must be >= {DENSE_N_MIN}")
    if not 0 < delta <= 1:
        raise ValueError("delta must be in (0, 1]")
    # multiplied, not divided: a tiny delta/2 underflows to 0
    if n_scale * -math.log1p(-delta / 2.0) <= 2.0:
        raise ValueError("scale too small for this density parameter")
    t_start = time.perf_counter()
    a0n = a0.restrict(1, n_scale)
    if len(a0n) < delta * n_scale:
        raise InfeasibleError(f"|A0 cap [N]| = {len(a0n)} < delta*N = {delta * n_scale}")
    m = int(delta * n_scale / 2)
    if a0n.min() >= m:
        raise InfeasibleError("prefix range is empty at this scale")
    basis = rough_basis_subset(a0n.restrict(m, n_scale), n_scale, eps0, sieve)
    if target_eta is None:
        target_eta = _default_dense_target(n_scale)
    report = _dense_scale(a0n, 0, Fraction(0), n_scale, delta, seed, sieve, target_eta, max_free)
    report.details["rough_basis"] = basis
    report.details["eta_budget"] = density_mod.eta_budget(
        n_scale,
        max(len(basis.b), 1),
        basis.k,
        x0=abs(float(report.details["prefix_sum"])),
        c=delta / 2.0,
    )
    report.wall_time = time.perf_counter() - t_start
    return report


@dataclass
class ScaleChainResult:
    """Per-scale reports for an upper-density set; signs are never reassigned."""

    scales: list[int]
    reports: list[ConstructionReport]
    signs: SignSequence
    exhausted: bool
    note: str = ""


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
    density holds, then extends the sign assignment by one _dense_scale (never
    reassigning an emitted sign) so the partial sum over A0 cap [P_i] is
    small. A0 must be materialized up to the largest scale scanned.
    """
    if not 0 < delta0 < 1:
        raise ValueError("delta0 must be in (0, 1)")
    if not len(a0):
        raise ValueError("support must be nonempty")
    limit = a0.max()
    scales: list[int] = []
    reports: list[ConstructionReport] = []
    assigned = SignSequence(SupportSet([]), [])
    running = Fraction(0)
    prev = 0
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
            note = f"no qualifying scale beyond {prev} within the materialized range"
            break
        rep = _dense_scale(
            a0, prev, running, p_i, delta0, seed, sieve, _default_dense_target(p_i), max_free
        )
        assigned = assigned.merge(rep.signs)
        running += exact_rational_sum(rep.signs)
        coarse = Fraction(2) / Fraction(delta0 * p_i)
        rep.details["scale"] = p_i
        rep.details["coarse_bound_met"] = bool(abs(running) <= coarse)
        reports.append(rep)
        scales.append(p_i)
        prev = p_i
    return ScaleChainResult(
        scales=scales,
        reports=reports,
        signs=assigned,
        exhausted=len(scales) < max_scales,
        note=note,
    )
