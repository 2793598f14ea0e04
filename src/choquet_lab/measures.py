"""Fuzzy measures on [0,1]: distorted Lebesgue and sectioned-additive modes.

Two constructive modes cover everything the rest of the library needs:

* ``distorted``:   mu(A) = g(lebesgue(A)) for a strictly increasing
  distortion g with g(0) = 0;
* ``sectioned``:   mu(A) = sum_i w_i * lebesgue(A ∩ E_i) / lebesgue(E_i)
  for a block partition E_1..E_r of [0,1) and weights w_i >= 0 (not all
  zero).  This mode is additive, hence submodular with equality.

Both modes are filtering: every set A of positive measure carries a nested
chain A_t with mu(A_t) = t * mu(A), realized by left prefixes.  Whether a
measure is subadditive or submodular depends on g alone and is decided
exactly by :func:`measure_properties`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSetError, StructuralError, _array, _scalar
from .intervals import IntervalSet, _from_ends, _lengths, _prefix_ends

ALGEBRA_TOL = 1e-12


@dataclass(frozen=True)
class Distortion:
    """Strictly increasing g: [0,1] -> [0,inf) with g(0) = 0.

    ``scale`` multiplies the base shape; it leaves concavity and the
    inverse-composition identity untouched.
    """

    kind: str  # "power" | "identity" | "pwl"
    alpha: float | None = None
    knots: tuple[tuple[float, float], ...] | None = None
    scale: float = 1.0
    _xs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _ys: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        _scalar(self.scale, "distortion scale", "positive")
        if self.kind == "power":
            _scalar(self.alpha, "alpha", "positive")
        elif self.kind == "identity":
            pass
        elif self.kind == "pwl":
            pts = _array(() if self.knots is None else self.knots, "pwl knots", (None, 2), (0,),
                         sign=None)
            if len(pts) < 2:
                raise StructuralError("pwl distortion needs at least two knots")
            xs, ys = pts.T.tolist()
            if xs[0] != 0.0 or ys[0] != 0.0 or xs[-1] != 1.0:
                raise StructuralError("pwl knots must run from (0,0) to (1, g(1))")
            if any(b <= a for a, b in zip(xs, xs[1:])) or any(
                b <= a for a, b in zip(ys, ys[1:])
            ):
                raise StructuralError("pwl knots must be strictly increasing")
            if not math.isfinite(float(self.scale) * ys[-1]):
                raise StructuralError("g(1), the scale times the last knot's value, overflows")
            object.__setattr__(self, "knots", tuple(zip(xs, ys)))
            object.__setattr__(self, "_xs", np.array(xs))
            object.__setattr__(self, "_ys", np.array(ys))
        else:
            raise StructuralError(f"unknown distortion kind {self.kind!r}")

    @staticmethod
    def power(alpha: float, scale: float = 1.0) -> "Distortion":
        return Distortion("power", alpha=_scalar(alpha, "alpha", "positive"), scale=scale)

    @staticmethod
    def identity(scale: float = 1.0) -> "Distortion":
        return Distortion("identity", scale=scale)

    @staticmethod
    def piecewise_linear(knots, scale: float = 1.0) -> "Distortion":
        try:
            knots = tuple(knots)
        except TypeError:  # not iterable: the knots check names the argument
            pass
        return Distortion("pwl", knots=knots, scale=scale)

    def __call__(self, s):
        """g(s) for a float s or elementwise over an ndarray s."""
        return self.scale * self._base(s)

    def _base(self, s):
        """g(s) / scale, as g computes it before its scale."""
        if self.kind == "power":
            return s**self.alpha
        return s if self.kind == "identity" else np.interp(s, self._xs, self._ys)

    def inverse(self, u):
        """g^{-1}(u) for u >= 0, a float or entry by entry over an ndarray;
        exact for all three kinds (pwl by segment interpolation)."""
        v = np.asarray(u, dtype=float) / self.scale
        if self.kind == "power":
            v = _pow(v, 1.0 / self.alpha)
        elif self.kind == "pwl":
            v = np.interp(v, self._ys, self._xs)
        return v if isinstance(u, np.ndarray) else float(v)

    @property
    def is_concave(self) -> bool:
        if self.kind == "power":
            return self.alpha <= 1.0
        return self.kind == "identity" or not _kinks(self).any()


def _pow(x, e) -> np.ndarray:
    """x ** e for x > 0 or e > 0, entry by entry by libm's scalar pow, which
    numpy's array power can differ from in the last bit; an overflow gives
    inf, as numpy's scalar power does."""
    x, e = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(e, dtype=float))
    bases, powers = x.ravel().tolist(), e.ravel().tolist()
    try:
        out = [b**p for b, p in zip(bases, powers)]
    except OverflowError:  # Python's float pow raises where numpy's gives inf
        with np.errstate(over="ignore"):
            out = [np.float64(b) ** p for b, p in zip(bases, powers)]
    return np.array(out, dtype=float).reshape(x.shape)


@dataclass(frozen=True)
class FuzzyMeasure:
    """Monotone set function on IntervalSets, vanishing on the empty set."""

    mode: str  # "distorted" | "sectioned"
    distortion: Distortion | None = None
    blocks: tuple[IntervalSet, ...] | None = None
    weights: tuple[float, ...] | None = None
    total: float = field(init=False)

    def __post_init__(self):
        if self.mode == "distorted":
            if self.distortion is None:
                raise StructuralError("distorted measure needs a distortion")
            object.__setattr__(self, "total", self.distortion(1.0))
        elif self.mode == "sectioned":
            if not self.blocks:
                raise StructuralError("sectioned measure needs blocks")
            w = _array(self.weights, "weights", (len(self.blocks),))
            if not w.any():
                raise StructuralError("weights need at least one positive entry")
            object.__setattr__(self, "weights", tuple(w.tolist()))
            cover = IntervalSet.empty()
            covered = 0.0
            for blk in self.blocks:
                if blk.is_empty:
                    raise StructuralError("empty block")
                if not cover.intersection(blk).is_empty:
                    raise StructuralError("blocks must be pairwise disjoint")
                cover = cover.union(blk)
                covered += blk.lebesgue
            if abs(covered - 1.0) > ALGEBRA_TOL:
                raise StructuralError("blocks must cover [0,1)")
            total = float(sum(self.weights))
            if not math.isfinite(total):
                raise StructuralError("the weights' sum, the measure of [0,1), overflows")
            object.__setattr__(self, "total", total)
        else:
            raise StructuralError(f"unknown measure mode {self.mode!r}")

    @staticmethod
    def distorted(g: Distortion) -> "FuzzyMeasure":
        return FuzzyMeasure("distorted", distortion=g)

    @staticmethod
    def sectioned(blocks, weights) -> "FuzzyMeasure":
        return FuzzyMeasure("sectioned", blocks=tuple(blocks), weights=weights)

    @staticmethod
    def lebesgue() -> "FuzzyMeasure":
        return FuzzyMeasure.distorted(Distortion.identity())

    def measure(self, A: IntervalSet) -> float:
        if self.mode == "distorted":
            return self.distortion(A.lebesgue)
        out = 0.0
        for blk, w in zip(self.blocks, self.weights):
            if w > 0:
                out += w * A.intersection(blk).lebesgue / blk.lebesgue
        return out

    __call__ = measure

    @property
    def is_subadditive(self) -> bool:
        return self.mode == "sectioned" or _subadditivity_peak(self.distortion) is None

    @property
    def is_submodular(self) -> bool:
        # additive across blocks, hence modular; concave distortions are submodular
        return self.mode == "sectioned" or self.distortion.is_concave


@dataclass(frozen=True)
class FilteringFamily:
    """Nested chain A_t ⊆ A with mu(A_t) = t * mu(A), A_0 = ∅, A_1 = A."""

    mu: FuzzyMeasure
    base: IntervalSet

    def at(self, t: float) -> IntervalSet:
        lo, hi = _chain_ends(self.mu, self.base, [t])
        return _from_ends(lo[0], hi[0])


def filtering_family(mu: FuzzyMeasure, A: IntervalSet) -> FilteringFamily:
    """Left-prefix chain realizing the filtering property on A."""
    if A.lebesgue <= 0.0:
        raise DegenerateSetError("filtering chain needs lebesgue(A) > 0")
    return FilteringFamily(mu, A)


def _chain_ends(mu: FuzzyMeasure, base: IntervalSet, levels) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each levels.shape + (pieces,): the pieces [lo, hi) of the
    chain A_t of ``mu`` on ``base`` at every level t, padded with [0, 0).
    A_t is empty for t <= 0 and all of base for t >= 1; in between, a
    distorted mu takes the left prefix of base of length g^{-1}(t g(|base|))
    and a sectioned one the left prefix of length t |base ∩ E_i| of every
    base ∩ E_i, block by block (base itself follows as the last pieces, so
    A_1 is base even where the blocks leave a gap)."""
    t = np.asarray(levels, dtype=float)
    inner = (t > 0.0) & (t < 1.0)
    whole = np.where(t >= 1.0, base.lebesgue, 0.0)
    if mu.mode == "distorted":
        g = mu.distortion
        length = g.inverse(np.clip(t, 0.0, 1.0) * g(base.lebesgue))
        parts = [(base, np.where(inner, length, whole))]
    else:
        cuts = [base.intersection(blk) for blk in mu.blocks]
        parts = [(p, np.where(inner, t * p.lebesgue, 0.0)) for p in cuts] + [(base, whole)]
    ends = [_prefix_ends(p, length) for p, length in parts]
    return tuple(np.concatenate(e, axis=-1) for e in zip(*ends))


def _block_lengths(lo: np.ndarray, hi: np.ndarray, blocks) -> np.ndarray:
    """(..., blocks): |A ∩ E_i| for every block E_i of ``blocks``, for the
    sets A given as pieces [lo, hi) in the last axis, padded with [0, 0).
    When the pieces are A's intervals left to right, the pieces of A ∩ E_i
    are added left to right, as IntervalSet measures A.intersection(E_i)."""
    return np.stack([
        _lengths(np.concatenate([np.maximum(lo, c) for c, _ in blk.intervals], axis=-1),
                 np.concatenate([np.minimum(hi, d) for _, d in blk.intervals], axis=-1))
        for blk in blocks
    ], axis=-1)


def _masses(parts: np.ndarray, weights: np.ndarray, blocks) -> np.ndarray:
    """sum_i w_i |A ∩ E_i| / |E_i|, the masses of sectioned measures on the
    blocks ``blocks``, from the overlaps ``parts`` (..., blocks) of
    :func:`_block_lengths` and the weights (..., blocks) broadcast against
    them, one row of weights per measure.  The terms are added block by
    block and w_i = 0 is skipped, as :meth:`FuzzyMeasure.measure` adds them,
    so a mass has the bits of the scalar mu of its set, whatever else the
    arrays hold."""
    total = np.zeros(np.broadcast_shapes(parts.shape, weights.shape)[:-1])
    for i, blk in enumerate(blocks):
        w = weights[..., i]
        np.add(total, w * parts[..., i] / blk.lebesgue, out=total, where=w > 0)
    return total


def _subadditivity_peak(g: Distortion) -> tuple[float, float] | None:
    """The (a, c) maximizing g(c) - g(a) - g(c - a) over 0 <= a <= c <= 1,
    that is g(a + b) - g(a) - g(b) over a, b >= 0, a + b <= 1, evaluated as
    mu evaluates A = [0, a), B = [a, c) and A ∪ B = [0, c); None when the
    maximum is 0 (for pwl g, within ALGEBRA_TOL * max(1, g(1)), the rounding
    of g's values).

    For concave g the maximum is 0, at a = 0.  A power g with alpha > 1 is
    convex: g(a) + g(1 - a) is convex and symmetric, so the maximum is at
    a = b = 1/2, g(1) (1 - 2^(1 - alpha)) > 0 however small it rounds.  For
    pwl g the function is linear on each cell of the arrangement of the
    lines a = x_i, b = x_j and a + b = x_l, so it peaks at a vertex: a = x_i
    with c = x_i + x_j or c = x_l, or the mirror image b = x_j, c = x_l of
    one of them.
    """
    if g.is_concave:
        return None
    if g.kind == "power":
        return 0.5, 1.0
    xi, xj = np.meshgrid(g._xs, g._xs, indexing="ij")
    a, c = np.concatenate([xi, xi]).ravel(), np.concatenate([xi + xj, xj]).ravel()
    keep = (a <= c) & (c <= 1.0)
    a, c = a[keep], c[keep]
    gap = g(c) - (g(a) + g(c - a))
    i = int(np.argmax(gap))
    return (float(a[i]), float(c[i])) if gap[i] > ALGEBRA_TOL * max(1.0, g(1.0)) else None


def _kinks(g: Distortion) -> np.ndarray:
    """Per inner knot of a pwl g, does the slope rise there by more than its
    rounding: s_i > s_{i-1} + 1e-12 max(1, s_i)."""
    slopes = np.diff(g._ys) / np.diff(g._xs)
    return slopes[1:] > slopes[:-1] + 1e-12 * np.maximum(1.0, slopes[1:])


def _concavity_kink(g: Distortion) -> tuple[float, float]:
    """(x, h) such that A = [0, x) and B = [h, x + h) violate submodularity
    of a non-concave pwl g: mu(A ∪ B) + mu(A ∩ B) - mu(A) - mu(B) is
    g(x + h) - g(x) - (g(x) - g(x - h)).  (A non-concave power g is not
    subadditive, so :func:`measure_properties` never asks for its kink.)

    That is h (s_i - s_{i-1}) at the knot x = x_i where the slope rises
    from s_{i-1} to s_i, with h = min(x_i - x_{i-1}, x_{i+1} - x_i); the
    knot with the largest such gap is taken.
    """
    dx = np.diff(g._xs)
    slopes = np.diff(g._ys) / dx
    h = np.minimum(dx[:-1], dx[1:])
    i = int(np.argmax(np.where(_kinks(g), h * (slopes[1:] - slopes[:-1]), -np.inf)))
    return float(g._xs[i + 1]), float(h[i])


@dataclass(frozen=True)
class MeasurePropertyReport:
    """Exact verdicts on monotonicity, subadditivity and submodularity."""

    monotone: bool
    subadditive: bool
    submodular: bool
    witness: dict | None  # a violating pair (A, B), keyed by property

    @property
    def all_pass(self) -> bool:
        return self.monotone and self.subadditive and self.submodular

    def to_dict(self) -> dict:
        return {
            "monotone": self.monotone,
            "subadditive": self.subadditive,
            "submodular": self.submodular,
            "witness": self.witness,
        }


def _witness(mu: FuzzyMeasure, prop: str, A: IntervalSet, B: IntervalSet) -> dict:
    """A and B with both sides of the inequality they violate, evaluated by mu."""
    lhs = mu(A.union(B))
    if prop == "submodular":
        lhs += mu(A.intersection(B))
    rhs = mu(A) + mu(B)
    return {"property": prop, "A": A.to_pairs(), "B": B.to_pairs(), "lhs": lhs, "rhs": rhs}


def measure_properties(mu: FuzzyMeasure) -> MeasurePropertyReport:
    """Decide whether mu is monotone, subadditive and submodular.

    Every measure here is monotone: a distortion is strictly increasing with
    g(0) = 0 and sectioned weights are >= 0.  A sectioned measure is
    additive.  On the non-atomic [0,1], mu = g∘λ is submodular iff g is
    concave, and subadditive iff g(a + b) <= g(a) + g(b) whenever
    a + b <= 1 (Denneberg 1994, ch. 2); submodularity implies subadditivity.
    A violated property carries an interval pair (A, B) that mu re-checks:
    the peak of :func:`_subadditivity_peak` when subadditivity fails, else
    the kink of :func:`_concavity_kink`.
    """
    if mu.is_submodular:
        return MeasurePropertyReport(True, True, True, None)
    g = mu.distortion
    peak = _subadditivity_peak(g)
    if peak is not None:
        A, B = IntervalSet.interval(0.0, peak[0]), IntervalSet.interval(*peak)
        return MeasurePropertyReport(True, False, False, _witness(mu, "subadditive", A, B))
    x, h = _concavity_kink(g)
    A, B = IntervalSet.interval(0.0, x), IntervalSet.interval(h, min(x + h, 1.0))
    return MeasurePropertyReport(True, True, False, _witness(mu, "submodular", A, B))
