"""Measurable subsets of X = [0,1] as finite unions of half-open intervals.

An :class:`IntervalSet` is a sorted tuple of disjoint intervals ``[a, b)``
inside ``[0, 1]``.  Random sets are drawn on a dyadic grid of resolution
``2**-GRID_BITS`` so that all set algebra (union, intersection, complement,
difference) and Lebesgue measure stay exact in double precision; prefix cuts
produced by distortion inverses may land off the grid, which is fine for the
1e-9 tolerances downstream.

Sets are immutable.  The constructor sorts, checks and merges its pairs in
one pass and stores the Lebesgue length, summed left to right over the merged
intervals, so ``lebesgue`` is an attribute read.  ``empty()`` and ``full()``
return one shared instance each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import StructuralError, _count

GRID_BITS = 20  # default dyadic resolution for generated sets


@dataclass(frozen=True)
class IntervalSet:
    """Finite union of disjoint half-open subintervals of [0,1]."""

    intervals: tuple[tuple[float, float], ...]

    def __init__(self, intervals=()):
        try:
            pairs = [(float(a), float(b)) for a, b in intervals]
        except (TypeError, ValueError):  # not pairs, or not numbers
            raise StructuralError("intervals must be (a, b) pairs of numbers") from None
        merged: list[tuple[float, float]] = []
        end = 0.0  # right end of the last merged interval
        for a, b in sorted(pairs):
            if not (end <= a < b <= 1.0):  # a bad pair or an overlap
                _reject(pairs, a, b)
            if a == end and merged:
                merged[-1] = (merged[-1][0], b)  # touching intervals merge canonically
            else:
                merged.append((a, b))
            end = b
        object.__setattr__(self, "intervals", tuple(merged))
        length = 0.0  # left to right, as the array formulas of product sum it
        for a, b in merged:
            length += b - a
        object.__setattr__(self, "_length", length)

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty() -> "IntervalSet":
        return _EMPTY

    @staticmethod
    def full() -> "IntervalSet":
        return _FULL

    @staticmethod
    def interval(a: float, b: float) -> "IntervalSet":
        return IntervalSet(((a, b),))

    # -- basic queries -------------------------------------------------

    @property
    def lebesgue(self) -> float:
        return self._length

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains_point(self, x: float) -> bool:
        return any(a <= x < b for a, b in self.intervals)

    def is_subset_of(self, other: "IntervalSet") -> bool:
        return self.difference(other).is_empty

    def to_pairs(self) -> list[list[float]]:
        return [[a, b] for a, b in self.intervals]

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __repr__(self) -> str:
        body = " ∪ ".join(f"[{a:g},{b:g})" for a, b in self.intervals)
        return f"IntervalSet({body or '∅'})"

    # -- set algebra ----------------------------------------------------

    def complement(self) -> "IntervalSet":
        out = []
        cursor = 0.0
        for a, b in self.intervals:
            if cursor < a:
                out.append((cursor, a))
            cursor = b
        if cursor < 1.0:
            out.append((cursor, 1.0))
        return IntervalSet(out)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        out = []
        i = j = 0
        mine, theirs = self.intervals, other.intervals
        while i < len(mine) and j < len(theirs):
            a = max(mine[i][0], theirs[j][0])
            b = min(mine[i][1], theirs[j][1])
            if a < b:
                out.append((a, b))
            if mine[i][1] <= theirs[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(out)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        merged: list[list[float]] = []
        for a, b in sorted(self.intervals + other.intervals):
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return IntervalSet((a, b) for a, b in merged)

    def difference(self, other: "IntervalSet") -> "IntervalSet":
        return self.intersection(other.complement())

    def prefix(self, length: float) -> "IntervalSet":
        """Left prefix of this set with total Lebesgue measure ``length``."""
        return _from_ends(*_prefix_ends(self, length))


def _reject(pairs, a: float, b: float):
    """Raise the constructor's error: the first bad pair in input order, else
    the overlap at [a, b) that the merge pass met."""
    for x, y in pairs:
        if not (0.0 <= x < y <= 1.0):
            raise StructuralError(f"bad interval [{x}, {y}): need 0 <= a < b <= 1")
    raise StructuralError(f"overlapping intervals at [{a}, {b})")


_EMPTY = IntervalSet(())
_FULL = IntervalSet(((0.0, 1.0),))


@lru_cache(maxsize=64)
def uniform_partition(ncells: int) -> tuple[IntervalSet, ...]:
    """[0,1) split into ``ncells`` equal single-interval cells."""
    edges = np.linspace(0.0, 1.0, ncells + 1)
    return tuple(IntervalSet(((edges[i], edges[i + 1]),)) for i in range(ncells))


def random_interval_set(
    rng: np.random.Generator,
    max_intervals: int = 4,
    bits: int = GRID_BITS,
    allow_empty: bool = False,
) -> IntervalSet:
    """Random union of up to ``max_intervals`` disjoint dyadic intervals:
    ``rng.integers`` for the number of intervals, then ``rng.choice`` for
    their distinct end points in units of 2**-bits."""
    _count(max_intervals, "max_intervals", 0 if allow_empty else 1)
    npieces = int(rng.integers(0 if allow_empty else 1, max_intervals + 1))
    if npieces == 0:
        return _EMPTY
    ends = np.sort(rng.choice((1 << bits) + 1, size=2 * npieces, replace=False)) / float(1 << bits)
    return _from_ends(ends[0::2], ends[1::2])


def _draw_ends(rng: np.random.Generator, count: int, bits: int = GRID_BITS):
    """(lo, hi), each (count, 4): ``count`` random unions of 0 to 4 disjoint
    dyadic intervals [lo, hi), left to right, padded with [0, 0).

    Fixed-shape draws, in this order: ``rng.integers(5, size=count)`` piece
    counts, then ``rng.integers(2**bits + 1, size=(count, 8))`` end points
    in units of 2**-bits, of which a row with c pieces uses its first 2 c.
    Rows whose used end points repeat draw their eight again, as one
    ``(rows, 8)`` draw per round, until every row's are distinct, as
    :func:`random_interval_set`'s are; bits >= 3 leaves room for eight."""
    npieces = rng.integers(5, size=count)
    used = np.arange(8) < 2 * npieces[:, None]
    ends = np.empty((count, 8))
    redo = np.arange(count)
    while redo.size:
        drawn = rng.integers((1 << bits) + 1, size=(redo.size, 8))
        ends[redo] = np.sort(np.where(used[redo], drawn, np.inf), axis=1)  # the padding sorts last
        rows = ends[redo]
        redo = redo[np.any(rows[:, 1:] == rows[:, :-1], axis=1, where=rows[:, 1:] < np.inf)]
    ends = np.where(ends < np.inf, ends / float(1 << bits), 0.0)
    return ends[:, 0::2], ends[:, 1::2]


def _from_ends(lo: np.ndarray, hi: np.ndarray) -> IntervalSet:
    """The set of the pieces [lo, hi) with lo < hi, padding dropped."""
    keep = lo < hi
    return IntervalSet(zip(lo[keep].tolist(), hi[keep].tolist())) if keep.any() else _EMPTY


def _ends(sets) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (len(sets), pieces): the intervals [lo, hi) of every
    set, left to right, padded with [0, 0)."""
    counts = [len(s.intervals) for s in sets]
    width = max(counts, default=0) or 1
    pad = ((0.0, 0.0),) * width
    pairs = [pair for s, n in zip(sets, counts) for pair in s.intervals + pad[n:]]
    ends = np.array(pairs, dtype=float).reshape(len(counts), width, 2)
    return ends[..., 0], ends[..., 1]


def _lengths(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Total length of the pieces [lo, hi) in the last axis, added left to
    right as IntervalSet adds them; a piece with hi <= lo adds nothing."""
    return np.add.accumulate(np.where(lo < hi, hi - lo, 0.0), axis=-1)[..., -1]


def _prefix_ends(base: IntervalSet, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each length.shape + (intervals of base,): the left prefix
    of ``base`` of Lebesgue measure ``length``, at every entry, padded with
    [0, 0); all of base from lebesgue(base) - 1e-15 on.  An empty base has
    one [0, 0) piece."""
    remaining = np.asarray(length, dtype=float)
    whole = (remaining > 0.0) & (remaining >= base.lebesgue - 1e-15)
    live = (remaining > 0.0) & ~whole
    lo, hi = [], []
    for a, b in base.intervals or ((0.0, 0.0),):
        fits = b - a <= remaining
        cut = live & ~fits & (a + remaining > a)  # no sliver that rounds away
        lo.append(np.where(whole | (live & fits) | cut, a, 0.0))
        hi.append(np.where(whole | (live & fits), b, np.where(cut, a + remaining, 0.0)))
        remaining = np.where(live & fits, remaining - (b - a), remaining)
        live = live & fits
    return np.stack(lo, axis=-1), np.stack(hi, axis=-1)
