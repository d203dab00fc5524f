"""Finite integer support sets and sign assignments over them."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .numerics import DEFAULT_LCM_BIT_BUDGET, ResourceBudgetError, rational_sum


def _runs(values: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last positions of the maximal runs of `values` in which each
    entry is the one before it plus `step`."""
    if not len(values):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    breaks = np.flatnonzero(np.diff(values) != step)
    return np.concatenate(([0], breaks + 1)), np.concatenate((breaks, [len(values) - 1]))


class SupportSet:
    """A finite, sorted set of positive integers.

    Backed by a strictly increasing int64 array; all element access returns
    plain Python ints.
    """

    __slots__ = ("values",)

    def __init__(self, values):
        arr = np.array(values, dtype=np.int64)  # a copy, as np.unique makes
        if arr.ndim != 1:
            raise ValueError("support must be one-dimensional")
        if not (arr[1:] > arr[:-1]).all():  # np.unique sorts even sorted input
            arr = np.unique(arr)
        if arr.size and arr[0] < 1:
            raise ValueError("support elements must be >= 1")
        self.values = arr

    @classmethod
    def interval(cls, a: int, b: int) -> "SupportSet":
        """Integers in [a, b] (empty if b < a)."""
        if b < a:
            return cls(np.empty(0, dtype=np.int64))
        return cls(np.arange(max(a, 1), b + 1, dtype=np.int64))

    @classmethod
    def residues(cls, modulus: int, residues, limit: int) -> "SupportSet":
        """Integers n in [1, limit] with n mod modulus in `residues`."""
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        rs = sorted({r % modulus for r in residues})
        n = np.arange(1, limit + 1, dtype=np.int64)
        mask = np.isin(n % modulus, np.asarray(rs, dtype=np.int64))
        return cls(n[mask])

    @classmethod
    def from_spec(cls, spec: str, limit: int | None = None) -> "SupportSet":
        """Parse a set specification.

        Grammar: "a..b" for an interval, "mod m: r1,r2" for residue classes
        (requires `limit`), "@path" for an explicit file with one integer per
        line.
        """
        spec = spec.strip()
        if spec.startswith("@"):
            lines = Path(spec[1:]).read_text().split()
            return cls([int(tok) for tok in lines])
        if spec.startswith("mod"):
            head, _, tail = spec.partition(":")
            m = int(head[3:].strip())
            rs = [int(tok) for tok in tail.split(",") if tok.strip()]
            if limit is None:
                raise ValueError("residue-class sets need an upper limit")
            return cls.residues(m, rs, limit)
        if ".." in spec:
            a, _, b = spec.partition("..")
            return cls.interval(int(a), int(b))
        raise ValueError(f"unrecognized set spec: {spec!r}")

    def restrict(self, lo: int, hi: int) -> "SupportSet":
        """Elements in [lo, hi]."""
        i = np.searchsorted(self.values, lo, side="left")
        j = np.searchsorted(self.values, hi, side="right")
        return SupportSet(self.values[i:j])

    def difference(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(np.setdiff1d(self.values, other.values, assume_unique=True))

    def intersection(self, other: "SupportSet") -> "SupportSet":
        return SupportSet(np.intersect1d(self.values, other.values, assume_unique=True))

    def count_upto(self, n: int) -> int:
        return int(np.searchsorted(self.values, n, side="right"))

    def reciprocal_sum(self) -> Fraction:
        """Exact sum of 1/n over the set."""
        return rational_sum(self.values, [1] * len(self))

    def lcm(self) -> int:
        return math.lcm(*self.values.tolist())

    def to_ranges(self) -> list[list[int]]:
        """Maximal runs of consecutive integers as [lo, hi] pairs."""
        first, last = _runs(self.values, 1)
        return [list(run) for run in zip(self.values[first].tolist(), self.values[last].tolist())]

    @classmethod
    def from_ranges(cls, ranges) -> "SupportSet":
        # Sized as Python ints before anything is allocated. rational_sum
        # rejects a support this large anyway: each n costs at least one bit.
        size = sum(max(hi - lo + 1, 0) for lo, hi in ranges)
        if size > DEFAULT_LCM_BIT_BUDGET:
            raise ResourceBudgetError(
                f"support of {size} integers exceeds the {DEFAULT_LCM_BIT_BUDGET}-bit lcm budget"
            )
        parts = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in ranges]
        if not parts:
            return cls(np.empty(0, dtype=np.int64))
        return cls(np.concatenate(parts))

    def min(self) -> int:
        return int(self.values[0])

    def max(self) -> int:
        return int(self.values[-1])

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return (int(x) for x in self.values)

    def __contains__(self, n) -> bool:
        i = np.searchsorted(self.values, n)
        return i < len(self.values) and self.values[i] == n

    def __eq__(self, other) -> bool:
        return isinstance(other, SupportSet) and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:
        if len(self) <= 8:
            return f"SupportSet({list(self)})"
        return f"SupportSet(<{len(self)} elements in [{self.min()}, {self.max()}]>)"


class SignSequence:
    """A total assignment n -> {-1, +1} over a finite support set."""

    __slots__ = ("support", "signs")

    def __init__(self, support: SupportSet, signs):
        arr = np.asarray(signs, dtype=np.int8)
        if arr.shape != support.values.shape:
            raise ValueError("signs must cover the support exactly")
        if arr.size and not np.all(np.abs(arr) == 1):
            raise ValueError("signs must be +1 or -1")
        self.support = support
        self.signs = arr

    @classmethod
    def constant(cls, support: SupportSet, sign: int = 1) -> "SignSequence":
        return cls(support, np.full(len(support), sign, dtype=np.int8))

    def sign_of(self, n: int) -> int:
        i = np.searchsorted(self.support.values, n)
        if i >= len(self.support.values) or self.support.values[i] != n:
            raise KeyError(n)
        return int(self.signs[i])

    def items(self):
        for n, s in zip(self.support.values, self.signs):
            yield int(n), int(s)

    def merge(self, other: "SignSequence") -> "SignSequence":
        """Union of two sign sequences with disjoint supports."""
        if np.intersect1d(self.support.values, other.support.values).size:
            raise ValueError("supports overlap")
        sup = np.concatenate((self.support.values, other.support.values))
        sig = np.concatenate((self.signs, other.signs))
        order = np.argsort(sup)
        return SignSequence(SupportSet(sup[order]), sig[order])

    def signs_rle(self) -> list[list[int]]:
        """Run-length encode the sign vector over the sorted support."""
        first, last = _runs(self.signs, 0)
        return [list(run) for run in zip(self.signs[first].tolist(), (last - first + 1).tolist())]

    @classmethod
    def from_rle(cls, ranges, rle) -> "SignSequence":
        sup = SupportSet.from_ranges(ranges)
        runs = np.asarray(rle, dtype=np.int64).reshape(len(rle), 2)
        signs, counts = runs[:, 0], runs[:, 1]
        if (counts < 0).any():
            raise ValueError("signs_rle holds a negative run length")
        if (np.abs(signs) != 1).any():  # before the int8 cast wraps 257 to 1
            raise ValueError("signs must be +1 or -1")
        # Summed as Python ints, which do not wrap as int64 would; checked
        # before np.repeat allocates.
        if sum(counts.tolist()) != len(sup):
            raise ValueError("signs must cover the support exactly")
        return cls(sup, np.repeat(signs.astype(np.int8), counts))

    def to_obj(self) -> dict:
        return {"support_ranges": self.support.to_ranges(), "signs_rle": self.signs_rle()}

    @classmethod
    def from_obj(cls, obj: dict) -> "SignSequence":
        return cls.from_rle(obj["support_ranges"], obj["signs_rle"])

    def __len__(self) -> int:
        return len(self.support)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignSequence)
            and self.support == other.support
            and np.array_equal(self.signs, other.signs)
        )

    def __repr__(self) -> str:
        return f"SignSequence(<{len(self)} signs on {self.support!r}>)"
