"""Fuzzy measures on [0,1]: distorted Lebesgue and sectioned-additive modes.

Two constructive modes cover everything the rest of the library needs:

* ``distorted``:   mu(A) = g(lebesgue(A)) for a strictly increasing
  distortion g with g(0) = 0;
* ``sectioned``:   mu(A) = sum_i w_i * lebesgue(A ∩ E_i) / lebesgue(E_i)
  for a block partition E_1..E_r of [0,1) and weights w_i >= 0 (not all
  zero).  This mode is additive, hence submodular with equality.

Both modes are filtering: every set A of positive measure carries a nested
chain A_t with mu(A_t) = t * mu(A), realized by left prefixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateSetError, StructuralError
from .intervals import IntervalSet, random_interval_set

CHAIN_TOL = 1e-9  # |mu(A_t) - t mu(A)| bound for prefix chains
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
        if not math.isfinite(self.scale) or self.scale <= 0:
            raise StructuralError("distortion scale must be positive and finite")
        if self.kind == "power":
            if self.alpha is None or not math.isfinite(self.alpha) or self.alpha <= 0:
                raise StructuralError("power distortion needs a finite alpha > 0")
        elif self.kind == "identity":
            pass
        elif self.kind == "pwl":
            if not self.knots or len(self.knots) < 2:
                raise StructuralError("pwl distortion needs at least two knots")
            xs = [k[0] for k in self.knots]
            ys = [k[1] for k in self.knots]
            if not all(math.isfinite(c) for c in xs + ys):
                raise StructuralError("pwl knots must be finite")
            if xs[0] != 0.0 or ys[0] != 0.0 or xs[-1] != 1.0:
                raise StructuralError("pwl knots must run from (0,0) to (1, g(1))")
            if any(b <= a for a, b in zip(xs, xs[1:])) or any(
                b <= a for a, b in zip(ys, ys[1:])
            ):
                raise StructuralError("pwl knots must be strictly increasing")
            object.__setattr__(self, "_xs", np.array(xs))
            object.__setattr__(self, "_ys", np.array(ys))
        else:
            raise StructuralError(f"unknown distortion kind {self.kind!r}")

    @staticmethod
    def power(alpha: float, scale: float = 1.0) -> "Distortion":
        return Distortion("power", alpha=float(alpha), scale=scale)

    @staticmethod
    def identity(scale: float = 1.0) -> "Distortion":
        return Distortion("identity", scale=scale)

    @staticmethod
    def piecewise_linear(knots, scale: float = 1.0) -> "Distortion":
        return Distortion("pwl", knots=tuple((float(a), float(b)) for a, b in knots), scale=scale)

    def __call__(self, s):
        """g(s) for a float s or elementwise over an ndarray s."""
        if self.kind == "power":
            base = s**self.alpha
        elif self.kind == "identity":
            base = s
        else:
            base = np.interp(s, self._xs, self._ys)
        return self.scale * base

    def inverse(self, u: float) -> float:
        """g^{-1}(u); exact for all three kinds (pwl by segment interpolation)."""
        v = float(u) / self.scale
        if self.kind == "power":
            return v ** (1.0 / self.alpha)
        if self.kind == "identity":
            return v
        return float(np.interp(v, self._ys, self._xs))

    @property
    def is_concave(self) -> bool:
        if self.kind == "power":
            return self.alpha <= 1.0
        if self.kind == "identity":
            return True
        slopes = [
            (y1 - y0) / (x1 - x0)
            for (x0, y0), (x1, y1) in zip(self.knots, self.knots[1:])
        ]
        return all(s1 <= s0 + 1e-12 for s0, s1 in zip(slopes, slopes[1:]))


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
            if not self.blocks or not self.weights or len(self.blocks) != len(self.weights):
                raise StructuralError("sectioned measure needs matching blocks and weights")
            if not all(math.isfinite(w) for w in self.weights):
                raise StructuralError("weights must be finite")
            if any(w < 0 for w in self.weights) or not any(w > 0 for w in self.weights):
                raise StructuralError("weights must be >= 0 with at least one positive")
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
            object.__setattr__(self, "total", float(sum(self.weights)))
        else:
            raise StructuralError(f"unknown measure mode {self.mode!r}")

    @staticmethod
    def distorted(g: Distortion) -> "FuzzyMeasure":
        return FuzzyMeasure("distorted", distortion=g)

    @staticmethod
    def sectioned(blocks, weights) -> "FuzzyMeasure":
        return FuzzyMeasure(
            "sectioned", blocks=tuple(blocks), weights=tuple(float(w) for w in weights)
        )

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
        if self.mode == "sectioned":
            return True
        return self.distortion.is_concave

    # additive across blocks, hence modular; concave distortions are submodular
    is_submodular = is_subadditive


@dataclass(frozen=True)
class FilteringFamily:
    """Nested chain A_t ⊆ A with mu(A_t) = t * mu(A), A_0 = ∅, A_1 = A."""

    mu: FuzzyMeasure
    base: IntervalSet

    def at(self, t: float) -> IntervalSet:
        if t <= 0.0:
            return IntervalSet.empty()
        if t >= 1.0:
            return self.base
        if self.mu.mode == "distorted":
            g = self.mu.distortion
            length = g.inverse(t * g(self.base.lebesgue))
            return self.base.prefix(length)
        parts = IntervalSet.empty()
        for blk in self.mu.blocks:
            piece = self.base.intersection(blk)
            if not piece.is_empty:
                parts = parts.union(piece.prefix(t * piece.lebesgue))
        return parts


def filtering_family(mu: FuzzyMeasure, A: IntervalSet) -> FilteringFamily:
    """Left-prefix chain realizing the filtering property on A."""
    if A.lebesgue <= 0.0:
        raise DegenerateSetError("filtering chain needs lebesgue(A) > 0")
    return FilteringFamily(mu, A)


@dataclass(frozen=True)
class MeasurePropertyReport:
    """Outcome of randomized monotonicity / subadditivity / submodularity checks."""

    trials: int
    seed: int
    monotone: bool
    subadditive: bool
    submodular: bool
    witness: dict | None  # first counterexample, keyed by property

    @property
    def all_pass(self) -> bool:
        return self.monotone and self.subadditive and self.submodular

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "monotone": self.monotone,
            "subadditive": self.subadditive,
            "submodular": self.submodular,
            "witness": self.witness,
        }


# canonical pairs probed before the random stream so witnesses are stable
_PROBE_PAIRS = (
    (((0.0, 0.5),), ((0.5, 1.0),)),
    (((0.0, 0.25),), ((0.25, 0.75),)),
    (((0.0, 0.75),), ((0.5, 1.0),)),
)


def check_measure_properties(
    mu: FuzzyMeasure, trials: int = 1000, seed: int = 42
) -> MeasurePropertyReport:
    """Sample random interval-set pairs and test the capacity inequalities."""
    if trials < 1:
        raise StructuralError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    monotone = subadditive = submodular = True
    witness = None

    def pairs():
        for pa, pb in _PROBE_PAIRS:
            yield IntervalSet(pa), IntervalSet(pb)
        for _ in range(trials):
            yield (
                random_interval_set(rng, allow_empty=True),
                random_interval_set(rng, allow_empty=True),
            )

    for A, B in pairs():
        if not (monotone or subadditive or submodular):
            break
        sub = A.intersection(B)
        sup = A.union(B)
        mA, mB = mu(A), mu(B)
        m_sub, m_sup = mu(sub), mu(sup)
        if monotone and (m_sub > mA + ALGEBRA_TOL or mA > m_sup + ALGEBRA_TOL):
            monotone = False
            witness = witness or {
                "property": "monotone",
                "A": A.to_pairs(),
                "B": B.to_pairs(),
            }
        if subadditive and m_sup > mA + mB + ALGEBRA_TOL:
            subadditive = False
            witness = witness or {
                "property": "subadditive",
                "A": A.to_pairs(),
                "B": B.to_pairs(),
                "lhs": m_sup,
                "rhs": mA + mB,
            }
        if submodular and m_sup + m_sub > mA + mB + ALGEBRA_TOL:
            submodular = False
            witness = witness or {
                "property": "submodular",
                "A": A.to_pairs(),
                "B": B.to_pairs(),
                "lhs": m_sup + m_sub,
                "rhs": mA + mB,
            }
    return MeasurePropertyReport(trials, seed, monotone, subadditive, submodular, witness)


@dataclass(frozen=True)
class ChainIncrementReport:
    """Diagnostic: how far mu(A_t' \\ A_t) drifts from (t' - t) mu(A).

    Purely informational.  Additive measures on [0,1] satisfy the identity
    exactly; genuinely distorted ones generally do not, and nothing
    downstream requires it.  Atomic measures (say, geometric weights on the
    integers) have full range yet admit no chain splitting increments evenly
    at all scales; such measures are outside this library's interval model.
    """

    samples: int
    max_deviation: float
    worst_pair: tuple[float, float] | None

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_deviation": self.max_deviation,
            "worst_pair": list(self.worst_pair) if self.worst_pair else None,
        }


def check_chain_increments(
    fam: FilteringFamily, samples: int = 100, seed: int = 42
) -> ChainIncrementReport:
    rng = np.random.default_rng(seed)
    total = fam.mu(fam.base)
    worst = 0.0
    worst_pair = None
    ts = np.sort(rng.uniform(0.0, 1.0, size=(samples, 2)), axis=1)
    for t, tp in ts:
        if tp - t < 1e-12:
            continue
        inc = fam.at(tp).difference(fam.at(t))
        dev = abs(fam.mu(inc) - (tp - t) * total)
        if dev > worst:
            worst, worst_pair = dev, (float(t), float(tp))
    return ChainIncrementReport(samples, worst, worst_pair)
