"""Pure exchange economy on the sectioned product space.

Agents live on X x [0,1] with a convex-type, normalized, subadditive family
of section measures.  Endowment and candidate equilibrium allocations are
sectional (one bundle per y-node); preferences depend on y only and come in
three concrete families:

* ``cobb_douglas``: utility prod_i x_i^{a_i(y)} with exponents interior to
  the simplex — closed-form demand, hence analytic oracles;
* ``linear``: utility w(y) . x — corner demand;
* ``coordinate_dominance``: x preferred to z iff x_j > z_j for every j in a
  per-node index set J_y (no utility representation).

Core-style searches are necessarily incomplete (coalitions form a
continuum); every negative answer reports the searched family sizes, and
every positive witness is re-verified against the definitions before being
returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .choquet import StepFunction, choquet, choquet_restricted
from .errors import InvalidPriceError, StructuralError
from .intervals import IntervalSet, random_interval_set
from .lp import linprog
from .measures import filtering_family
from .product import (
    ProductSet,
    ProductStepFunction,
    SectionFamily,
    as_sectional,
    integrate_sectional_over,
    product_set_from_levels,
    section_measures,
)

FEASIBILITY_TOL = 1e-8
PRICE_TOL = 1e-9
DEMAND_TOL = 1e-6
BUDGET_TOL = 1e-12


def normalize_price(p) -> np.ndarray:
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if not np.isfinite(p).all() or p.min() < 0 or p.sum() <= 0:
        raise InvalidPriceError("price must be finite, non-negative and non-zero")
    return p / p.sum()


@dataclass(frozen=True)
class Preferences:
    """Per-node preference relations on the commodity space."""

    kind: str  # "cobb_douglas" | "linear" | "coordinate_dominance"
    n: int
    exponents: np.ndarray | None = None  # (K, n), rows interior to the simplex
    weights: np.ndarray | None = None  # (K, n), strictly positive
    jsets: tuple[tuple[int, ...], ...] | None = None  # 0-based good indices
    # (K, n): True where good i is in J_k (coordinate dominance only)
    _jmask: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "cobb_douglas":
            a = np.asarray(self.exponents, dtype=float)
            if a.ndim != 2 or a.shape[1] != self.n:
                raise StructuralError("exponents must be (K, n)")
            if not np.isfinite(a).all():
                raise StructuralError("exponents must be finite")
            if a.min() <= 0 or np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-9:
                raise StructuralError("exponent rows must lie in the open simplex")
            object.__setattr__(self, "exponents", a)
        elif self.kind == "linear":
            w = np.asarray(self.weights, dtype=float)
            if w.ndim != 2 or w.shape[1] != self.n:
                raise StructuralError("weights must be (K, n)")
            if not np.isfinite(w).all() or w.min() <= 0:
                raise StructuralError("weights must be finite and strictly positive")
            object.__setattr__(self, "weights", w)
        elif self.kind == "coordinate_dominance":
            if not self.jsets:
                raise StructuralError("need one index set per node")
            sets = tuple(tuple(sorted(set(js))) for js in self.jsets)
            for js in sets:
                if not js or min(js) < 0 or max(js) >= self.n:
                    raise StructuralError("index sets must be non-empty subsets of goods")
            object.__setattr__(self, "jsets", sets)
            mask = np.zeros((len(sets), self.n), dtype=bool)
            for k, js in enumerate(sets):
                mask[k, list(js)] = True
            object.__setattr__(self, "_jmask", mask)
        else:
            raise StructuralError(f"unknown preference kind {self.kind!r}")

    @property
    def K(self) -> int:
        if self.kind == "cobb_douglas":
            return self.exponents.shape[0]
        if self.kind == "linear":
            return self.weights.shape[0]
        return len(self.jsets)

    # -- pointwise comparisons ------------------------------------------

    def utility(self, k: int, u) -> float:
        u = np.asarray(u, dtype=float)
        if self.kind == "cobb_douglas":
            return float(np.prod(np.maximum(u, 0.0) ** self.exponents[k]))
        if self.kind == "linear":
            return float(self.weights[k] @ u)
        raise StructuralError("coordinate dominance has no utility representation")

    def strictly_prefers(self, k: int, u, v) -> bool:
        if self.kind == "coordinate_dominance":
            js = list(self.jsets[k])
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            return bool(np.all(u[js] > v[js]))
        return self.utility(k, u) > self.utility(k, v)

    def weakly_prefers(self, k: int, u, v, tol: float = 0.0) -> bool:
        if self.kind == "coordinate_dominance":
            js = list(self.jsets[k])
            u = np.asarray(u, dtype=float)
            v = np.asarray(v, dtype=float)
            return bool(np.all(u[js] >= v[js] - tol))
        return self.utility(k, u) >= self.utility(k, v) - tol

    # -- vectorized helpers across all nodes ------------------------------
    #
    # U and V are (K, n) allocations, or stacks (..., K, n) of them.

    def utilities(self, U: np.ndarray) -> np.ndarray:
        if self.kind == "cobb_douglas":
            return np.prod(np.maximum(U, 0.0) ** self.exponents, axis=-1)
        if self.kind == "linear":
            return np.sum(self.weights * U, axis=-1)
        raise StructuralError("coordinate dominance has no utility representation")

    def strict_rows(self, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """strictly_prefers per node, vectorized."""
        if self.kind == "coordinate_dominance":
            return np.all((U > V) | ~self._jmask, axis=-1)
        return self.utilities(U) > self.utilities(V)

    # -- demand -------------------------------------------------------------

    def demand(self, k: int, p: np.ndarray, wealth: float, ref=None) -> np.ndarray | None:
        """Budget-exhausting preferred bundle at strictly positive prices."""
        if np.min(p) <= 0:
            return None
        if self.kind == "cobb_douglas":
            return self.exponents[k] * wealth / p
        if self.kind == "linear":
            i = int(np.argmax(self.weights[k] / p))
            out = np.zeros(self.n)
            out[i] = wealth / p[i]
            return out
        js = list(self.jsets[k])
        ref = np.asarray(ref, dtype=float)
        denom = float(p[js] @ ref[js])
        if denom <= 0:
            return None
        out = np.zeros(self.n)
        out[js] = ref[js] * wealth / denom
        return out

    # -- upper-contour sampling (for the excess cloud) -----------------------

    def contour_boundary(self, k: int, ref: np.ndarray, axis: int, delta: float):
        """A point on the indifference/dominance boundary through ``ref``,
        nudged by ``delta`` along ``axis`` and rebalanced on the rest."""
        ref = np.asarray(ref, dtype=float)
        if self.kind == "cobb_douglas":
            if ref.min() <= 0 or delta <= -1:
                return None
            a = self.exponents[k]
            if self.n == 1:
                return ref.copy()
            out = ref.copy()
            out[axis] = ref[axis] * (1.0 + delta)
            r = (1.0 + delta) ** (-a[axis] / (1.0 - a[axis]))
            if not np.isfinite(r) or r > 1e6:
                return None  # rebalance explodes when the axis exponent nears 1
            rest = np.arange(self.n) != axis
            out[rest] = ref[rest] * r
            return out
        if self.kind == "linear":
            if self.n == 1:
                return ref.copy()
            w = self.weights[k]
            other = (axis + 1) % self.n
            out = ref.copy()
            out[axis] += delta / w[axis]
            out[other] -= delta / w[other]
            return out if out.min() >= 0 else None
        # dominance: J-coordinates pinned at ref, the others are free
        out = ref.copy()
        free = [i for i in range(self.n) if i not in self.jsets[k]]
        for i in free:
            out[i] = max(0.0, ref[i] + delta)
        return out

    def contour_rows(self, F: np.ndarray, axes: np.ndarray, deltas: np.ndarray) -> np.ndarray:
        """``contour_boundary(k, F[k], axes[k], deltas[k])`` for every node k
        as one (K, n) array; a node where that is None keeps its row F[k]."""
        out = F.copy()
        K, n = F.shape
        if n == 1:
            return out
        if self.kind == "cobb_douglas":
            ok = np.flatnonzero((F.min(axis=1) > 0) & (deltas > -1))
            a = self.exponents[ok, axes[ok]]
            grow = 1.0 + deltas[ok]
            # Scalar pow per node, as contour_boundary computes it: numpy's
            # array power differs from scalar pow in the last bit on some hosts.
            r = np.array([g**x for g, x in zip(grow.tolist(), -a / (1.0 - a))])
            keep = np.isfinite(r) & (r <= 1e6)  # the rebalance explodes as a -> 1
            ok, grow, r = ok[keep], grow[keep], r[keep]
            out[ok] = F[ok] * r[:, None]
            out[ok, axes[ok]] = F[ok, axes[ok]] * grow
            return out
        if self.kind == "linear":
            w, rows = self.weights, np.arange(K)
            other = (axes + 1) % n
            out[rows, axes] += deltas / w[rows, axes]
            out[rows, other] -= deltas / w[rows, other]
            off = ~(out.min(axis=1) >= 0)
            out[off] = F[off]
            return out
        return np.where(self._jmask, F, np.maximum(0.0, F + deltas[:, None]))


@dataclass(frozen=True)
class Economy:
    """E = {(X*, m); R^n_+; e; preferences}, discretized on the y-grid."""

    fam: SectionFamily
    endowment: np.ndarray  # (K, n), strictly positive rows
    prefs: Preferences

    def __post_init__(self):
        if not self.fam.convex_type:
            raise StructuralError("economy needs a convex-type family")
        if not self.fam.normalized:
            raise StructuralError("economy needs normalized section measures")
        for mu in self.fam.measures:
            if not mu.is_subadditive:
                raise StructuralError("economy needs subadditive section measures")
        e = np.asarray(self.endowment, dtype=float)
        if e.ndim != 2 or e.shape[0] != self.fam.K:
            raise StructuralError("endowment must be (K, n)")
        if not np.isfinite(e).all() or e.min() <= 0:
            raise StructuralError("endowment must be finite and strictly positive componentwise")
        if self.prefs.K != self.fam.K or self.prefs.n != e.shape[1]:
            raise StructuralError("preference grid does not match the economy")
        object.__setattr__(self, "endowment", e)

    @property
    def K(self) -> int:
        return self.fam.K

    @property
    def n(self) -> int:
        return self.endowment.shape[1]

    @property
    def aggregate_endowment(self) -> np.ndarray:
        return np.atleast_1d(
            integrate_sectional_over(self.fam, self.endowment, ProductSet.full(self.K))
        )

    def wealth(self, p: np.ndarray, k: int) -> float:
        return float(p @ self.endowment[k])


def _allocation(eco: Economy, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (eco.K, eco.n):
        raise StructuralError(f"allocation must be ({eco.K}, {eco.n})")
    if f.min() < 0:
        raise StructuralError("allocation must be non-negative")
    return f


def is_feasible(eco: Economy, f) -> tuple[bool, float]:
    """Integral balance with the endowment, componentwise within 1e-8."""
    f = _allocation(eco, f)
    full = ProductSet.full(eco.K)
    dev = np.max(
        np.abs(
            np.atleast_1d(integrate_sectional_over(eco.fam, f, full))
            - eco.aggregate_endowment
        )
    )
    return bool(dev <= FEASIBILITY_TOL), float(dev)


def budget_check(eco: Economy, p, bundle, k: int) -> bool:
    p = normalize_price(p)
    bundle = np.asarray(bundle, dtype=float)
    if bundle.min() < 0:
        raise StructuralError("bundles must be non-negative")
    return bool(p @ bundle <= eco.wealth(p, k) + BUDGET_TOL)


def is_maximal_in_budget(eco: Economy, p, f, k: int) -> tuple[bool, np.ndarray | None]:
    """Is f(y_k) preference-maximal in the budget set at node k?

    Each family has a closed form.  Cobb-Douglas compares against its demand.
    Linear utility w . x peaks over the budget set at the corner
    e_i * wealth / p_i with i = argmax w / p; the violator is the point of
    that axis halfway in utility between the bundle and the corner.  When
    some p_i = 0 the utility is unbounded, and bundle + e_i costs no more.
    Coordinate dominance on J has an affordable strictly preferred bundle iff
    sum_{j in J} p_j b_j < wealth: raise the J-coordinates by half the slack
    per unit of their price and drop the others.  A violator is returned only
    after ``strictly_prefers`` and :func:`budget_check` confirm it.
    """
    p = normalize_price(p)
    f = _allocation(eco, f)
    bundle = f[k]
    wealth = eco.wealth(p, k)
    if p @ bundle > wealth + DEMAND_TOL:  # f(a) must lie in its budget set
        return False, None
    if eco.prefs.kind == "cobb_douglas":
        if p.min() > 0:
            d = eco.prefs.demand(k, p, wealth)
            if np.max(np.abs(bundle - d)) <= DEMAND_TOL:
                return True, None
            return False, d
        # a free good makes Cobb-Douglas demand unbounded
        free = int(np.argmin(p))
        worse = bundle.copy()
        worse[free] += 1.0 + np.max(eco.endowment)
        if bundle.min() > 0:
            return False, worse
        interior = np.full(eco.n, wealth / (2.0 * eco.n * max(p.max(), 1e-12)))
        return False, interior
    prefs = eco.prefs
    if prefs.kind == "linear":
        free = np.flatnonzero(p == 0)
        if free.size:
            cand = bundle.copy()
            cand[free[0]] += 1.0
        else:
            i = int(np.argmax(prefs.weights[k] / p))
            cand = np.zeros(eco.n)
            # halfway in utility between the bundle and the best corner, so
            # rounding cannot push the violator over the budget
            cand[i] = 0.5 * (wealth / p[i] + prefs.utility(k, bundle) / prefs.weights[k, i])
    else:
        js = list(prefs.jsets[k])
        spent = float(p[js] @ bundle[js])
        if not spent < wealth:
            return True, None
        unit = float(np.sum(p[js]))
        cand = np.zeros(eco.n)
        cand[js] = bundle[js] + ((wealth - spent) / (2.0 * unit) if unit > 0 else 1.0)
    if prefs.strictly_prefers(k, cand, bundle) and budget_check(eco, p, cand, k):
        return False, cand
    return True, None


@dataclass(frozen=True)
class WalrasReport:
    feasible: bool
    feasibility_deviation: float
    maximal_nodes: np.ndarray  # bool per node
    first_violation: dict | None

    @property
    def verdict(self) -> bool:
        return self.feasible and bool(np.all(self.maximal_nodes))

    def to_dict(self) -> dict:
        return {
            "w1": self.feasible,
            "w1_deviation": self.feasibility_deviation,
            "w2": bool(np.all(self.maximal_nodes)),
            "w2_failures": int(np.sum(~self.maximal_nodes)),
            "first_violation": self.first_violation,
            "verdict": self.verdict,
        }


def check_walras(eco: Economy, f, p) -> WalrasReport:
    """(w1) feasibility and (w2) per-node budget maximality."""
    f = _allocation(eco, f)
    feasible, dev = is_feasible(eco, f)
    ok = np.empty(eco.K, dtype=bool)
    first = None
    for k in range(eco.K):
        good, violator = is_maximal_in_budget(eco, p, f, k)
        ok[k] = good
        if not good and first is None:
            first = {
                "node": k,
                "violator": None if violator is None else violator.tolist(),
            }
    return WalrasReport(feasible, dev, ok, first)


# -- the excess-point cloud ---------------------------------------------------


@dataclass(frozen=True)
class ExcessSample:
    """One point z = integral_H s dm - integral_H e dm with its generators."""

    z: np.ndarray
    selection: np.ndarray  # (K, n), s(y_k) weakly preferred to f(y_k)
    coalition: ProductSet
    node_measures: np.ndarray  # mu_k(H_k) per node
    label: str


def _excess(eco: Economy, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    return np.atleast_1d(np.mean((s - eco.endowment) * w[:, None], axis=0))


def _sample_from(
    eco: Economy, s: np.ndarray, H: ProductSet, w: np.ndarray, label: str
) -> ExcessSample:
    """The sample of selection s over H, whose node measures are w."""
    return ExcessSample(_excess(eco, s, w), s, H, w.copy(), label)


def sample_excess_points(
    eco: Economy, f, samples: int = 200, seed: int = 42
) -> list[ExcessSample]:
    """Sample z = integral_H (s - e) dm over selections s(y) weakly preferred
    to f(y) and coalitions H (level sets, random section unions, single nodes).

    Deterministic probes come first: unit-vector translations of f over the
    full space, then two-sided boundary nudges of f at every node; the
    remainder is seeded-random.  The node measures of a coalition are
    evaluated once and shared by all its samples.  A random selection takes
    its per-node draws in a fixed order and is then built as one
    :meth:`Preferences.contour_rows` call.
    """
    f = _allocation(eco, f)
    rng = np.random.default_rng(seed)
    K, n = eco.K, eco.n
    full, empty = ProductSet.full(K), ProductSet.empty(K)
    w_full = section_measures(eco.fam, full)
    out: list[ExcessSample] = []

    for i in range(n):
        s = f.copy()
        s[:, i] += 1.0
        out.append(_sample_from(eco, s, full, w_full, f"probe-positive-{i}"))
    out.append(_sample_from(eco, f + 1.0, full, w_full, "probe-ones"))
    out.append(_sample_from(eco, f.copy(), empty, section_measures(eco.fam, empty), "probe-empty"))
    out.append(_sample_from(eco, f.copy(), full, w_full, "probe-reflexive"))

    singles = []  # (coalition, node measures) of each single-node coalition
    for k in range(K):
        H = ProductSet.single(K, k)
        singles.append((H, section_measures(eco.fam, H)))
    deltas = (2e-4, 2e-3, 2e-2, 0.2)
    for k, (H, w) in enumerate(singles):
        for axis in range(n):
            for d in deltas:
                for signed in (d, -d):
                    pt = eco.prefs.contour_boundary(k, f[k], axis, signed)
                    if pt is None or pt.min() < 0:
                        continue
                    s = f.copy()
                    s[k] = pt
                    out.append(_sample_from(eco, s, H, w, f"boundary-{k}-{axis}"))

    axes = np.empty(K, dtype=int)
    nudges = np.empty(K)
    shifts = np.empty((K, n))
    for _ in range(samples):
        kind = int(rng.integers(4))
        shifted = np.zeros(K, dtype=bool)
        for k in range(K):
            axes[k] = rng.integers(n)
            nudges[k] = rng.uniform(-0.5, 1.0)
            if rng.random() < 0.5:
                shifted[k] = True
                shifts[k] = rng.uniform(0, 0.5, size=n)  # interior of the contour set
        s = eco.prefs.contour_rows(f, axes, nudges)
        s[shifted] += shifts[shifted]
        if kind == 0:
            H, w = full, w_full
        elif kind == 1:
            H = product_set_from_levels(eco.fam, rng.uniform(0, 1, size=K))
            w = section_measures(eco.fam, H)
        elif kind == 2:
            H = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(K)))
            w = section_measures(eco.fam, H)
        else:
            H, w = singles[int(rng.integers(K))]
        out.append(_sample_from(eco, s, H, w, "random"))
    return out


@dataclass(frozen=True)
class PriceSearchResult:
    price: np.ndarray | None
    margin: float  # optimal min_j p . z_j over the sample cloud
    samples_used: int
    violations: list[ExcessSample] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.price is not None

    def to_dict(self) -> dict:
        return {
            "found": self.found,
            "price": None if self.price is None else self.price.tolist(),
            "margin": self.margin,
            "samples": self.samples_used,
            "violations": len(self.violations),
        }


def find_price(
    eco: Economy, f, samples: int = 200, seed: int = 42
) -> PriceSearchResult:
    """Supporting price for the excess cloud: p >= 0 on the simplex with
    p . z >= -1e-9 for every sampled z; failure carries the violating samples."""
    cloud = sample_excess_points(eco, f, samples, seed)
    Zall = np.array([smp.z for smp in cloud])
    if not Zall.size or np.max(np.abs(Zall)) <= 1e-12:
        raise StructuralError("degenerate sample cloud: all excess points vanish")
    keep = np.max(np.abs(Zall), axis=1) > 1e-12  # z = 0 constrains nothing
    Z = Zall[keep]
    cloud = [smp for smp, k in zip(cloud, keep) if k]
    m, n = Z.shape
    # max t  s.t.  Z p >= t, sum p = 1, p >= 0
    c = np.zeros(n + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-Z, np.ones((m, 1))])
    b_ub = np.zeros(m)
    A_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * n + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise StructuralError(f"price LP failed: {res.message}")
    p = np.clip(res.x[:n], 0.0, None)
    p = p / p.sum()
    margin = float(res.x[-1])
    if margin >= -PRICE_TOL:
        return PriceSearchResult(p, margin, m)
    gaps = Z @ p
    order = np.argsort(gaps)
    violations = [cloud[j] for j in order if gaps[j] < -PRICE_TOL]
    return PriceSearchResult(None, margin, m, violations)


@dataclass(frozen=True)
class WealthDominanceReport:
    """Per-node check p . e(y) <= p . f(y)."""

    passed: bool
    violations: list  # (node, shortfall)
    max_gap: float  # max over nodes of |p.(f - e)| (equality diagnostic)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "violations": self.violations,
            "max_gap": self.max_gap,
        }


def check_wealth_dominance(eco: Economy, f, p) -> WealthDominanceReport:
    f = _allocation(eco, f)
    p = normalize_price(p)
    diff = (f - eco.endowment) @ p
    bad = [(int(k), float(-d)) for k, d in enumerate(diff) if d < -PRICE_TOL]
    return WealthDominanceReport(not bad, bad, float(np.max(np.abs(diff))))


# -- improvement machinery ------------------------------------------------------


@dataclass(frozen=True)
class ImprovementWitness:
    mode: str  # "improve" | "strongly_improve"
    coalition: ProductSet
    allocation: ProductStepFunction
    source: str

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "source": self.source,
            "coalition_sections": [s.to_pairs() for s in self.coalition.sections],
        }


def verify_improvement(
    eco: Economy, f, witness: ImprovementWitness, balance_tol: float = FEASIBILITY_TOL
) -> tuple[bool, dict]:
    """Re-check an improvement witness against the definitions.

    (i1) the allocation is strictly preferred to f on every non-null part of
    the coalition; (i2) integral balance with the endowment over the
    coalition (global for ``improve``, per active section for
    ``strongly_improve``).
    """
    f = _allocation(eco, f)
    S = witness.coalition
    g = witness.allocation
    if S.K != eco.K or g.K != eco.K:
        return False, {"reason": "section-count mismatch"}
    w = section_measures(eco.fam, S)
    if np.mean(w) <= 0:
        return False, {"reason": "null coalition"}

    section_int = np.zeros((eco.K, eco.n))
    for k, (mu, sec, gs) in enumerate(zip(eco.fam.measures, S.sections, g.sections)):
        if w[k] <= 0:
            continue
        for cell, value in zip(gs.cells, gs.values):
            if mu(cell.intersection(sec)) > 0 and not eco.prefs.strictly_prefers(
                k, np.atleast_1d(value), f[k]
            ):
                return False, {"reason": "not strictly preferred", "node": k}
        vals = choquet_restricted(gs, mu, sec)
        section_int[k] = np.atleast_1d(vals)

    target = eco.endowment * w[:, None]
    if witness.mode == "strongly_improve":
        gap = np.max(np.abs(section_int - target))
        if gap > balance_tol:
            return False, {"reason": "per-section balance violated", "gap": float(gap)}
    else:
        gap = np.max(np.abs(np.mean(section_int - target, axis=0)))
        if gap > balance_tol:
            return False, {"reason": "balance violated", "gap": float(gap)}
    return True, {"balance_gap": float(gap)}


@dataclass(frozen=True)
class ExhaustedReport:
    """No verified witness in the enumerated family."""

    mode: str
    coalitions: int
    allocations: int
    two_level: int
    candidates_checked: int

    def to_dict(self) -> dict:
        return {
            "witness": None,
            "mode": self.mode,
            "searched": {
                "coalitions": self.coalitions,
                "allocations": self.allocations,
                "two_level": self.two_level,
                "pairs": self.candidates_checked,
            },
        }


def _block_level_coalitions(eco: Economy, levels: int, yblocks: int, rng, budget: int):
    """Level-set coalitions with tau quantized to {0, 1/L, .., 1} on y-blocks."""
    K = eco.K
    edges = np.linspace(0, K, yblocks + 1).astype(int)

    def from_blocks(block_levels):
        tau = np.zeros(K)
        for b, lv in enumerate(block_levels):
            tau[edges[b]: edges[b + 1]] = lv
        return product_set_from_levels(eco.fam, tau)

    yield ProductSet.full(K)
    for l in range(1, levels):
        yield from_blocks([l / levels] * yblocks)
    for b in range(yblocks):
        for l in range(1, levels + 1):
            bl = [0.0] * yblocks
            bl[b] = l / levels
            yield from_blocks(bl)
    for b in range(yblocks):
        bl = [1.0] * yblocks
        bl[b] = 0.0
        yield from_blocks(bl)
    count = 0
    while count < budget:
        bl = rng.integers(0, levels + 1, size=yblocks) / levels
        if bl.max() == 0:
            continue
        yield from_blocks(bl)
        count += 1


def _price_grid(n: int, resolution: int):
    """Strictly positive prices on a simplex grid of the given resolution."""
    if n == 1:
        yield np.array([1.0])
        return
    steps = resolution if n == 2 else max(5, int(round(resolution ** (1.0 / (n - 1)))))
    for cuts in combinations(range(1, steps), n - 1):
        parts = np.diff((0,) + cuts + (steps,))
        yield parts.astype(float) / float(steps)


def _sectional_candidates(eco: Economy, demand_grid: int):
    yield eco.endowment.copy(), "endowment"
    for p in _price_grid(eco.n, demand_grid):
        rows = []
        for k in range(eco.K):
            d = eco.prefs.demand(k, p, eco.wealth(p, k), ref=eco.endowment[k])
            if d is None:
                rows = None
                break
            rows.append(d)
        if rows is not None:
            yield np.array(rows), f"demand@{np.round(p, 4).tolist()}"


def _screen_sectionals(
    eco: Economy, G: np.ndarray, prefers: np.ndarray, w: np.ndarray, mode: str
) -> np.ndarray:
    """Which of the stacked sectional candidates G (P, K, n) balance with the
    endowment over a coalition with node measures w (per node for
    ``strongly_improve``, in the mean for ``improve``) and are strictly
    preferred on every node of positive measure.  ``prefers`` is
    ``strict_rows(G, f)``."""
    E, wk = eco.endowment, w[:, None]
    if mode == "strongly_improve":
        gaps = np.max(np.abs((G - E) * wk), axis=(1, 2))
    else:
        target = np.mean(E * wk, axis=0)
        gaps = np.max(np.abs(np.mean(G * wk, axis=1) - target), axis=1)
    return ~(gaps > FEASIBILITY_TOL) & np.all(prefers[:, w > 0], axis=1)


TWO_LEVEL_C1 = (1.1, 1.25, 1.5, 2.0)
TWO_LEVEL_BETA = (0.25, 0.5)


def _chain_split(eco: Economy, S: ProductSet, nodes: np.ndarray, beta: float):
    """Per node of ``nodes``: the chain prefix D = filtering_family(mu, sec).at(beta),
    the rest R = sec minus D, mu(D), and the measures mu(D ∩ sec), mu(R ∩ sec)
    that the (i1) test of :func:`verify_improvement` evaluates.  Each distinct
    (measure, section) pair is split once."""
    seen: dict[tuple[int, int], tuple] = {}
    parts = []
    for k in nodes:
        mu, sec = eco.fam.measures[k], S.sections[k]
        key = (id(mu), id(sec))
        if key not in seen:
            D = filtering_family(mu, sec).at(beta)
            R = sec.difference(D)
            seen[key] = (D, R, mu(D), mu(D.intersection(sec)), mu(R.intersection(sec)))
        parts.append(seen[key])
    D, R, mD, mDs, mRs = zip(*parts)
    return D, R, np.array(mD), np.array(mDs), np.array(mRs)


def _two_level_candidates(eco: Economy, S: ProductSet, w: np.ndarray, f):
    """Two-level sections proportional to the endowment: u = c1 e on a chain
    prefix of the section, v = c2 e on the rest, balancing the section
    integral exactly for any fuzzy section measure.

    Yields ``(allocation, source)`` for every (c1, beta) whose levels are
    valid.  The allocation is None when the candidate fails the (i1) test of
    :func:`verify_improvement`: a level on a cell of positive measure that
    is not strictly preferred to f.  Such a candidate is counted but never
    built.
    """
    E = eco.endowment
    nodes = np.flatnonzero(w > 0)
    wn = w[nodes]
    splits = {beta: _chain_split(eco, S, nodes, beta) for beta in TWO_LEVEL_BETA}
    for c1 in TWO_LEVEL_C1:
        c1_prefers = eco.prefs.strict_rows(c1 * E, f)
        for beta in TWO_LEVEL_BETA:
            D, R, mD, mDs, mRs = splits[beta]
            if np.any(wn - mD <= 1e-12):
                continue
            c2 = (wn - c1 * mD) / (wn - mD)
            if np.any(c2 < 0):
                continue
            src = f"two-level(c1={c1},beta={beta})"
            U = E.copy()
            U[nodes] = c2[:, None] * E[nodes]
            c2_prefers = eco.prefs.strict_rows(U, f)[nodes]
            if not np.all((c1_prefers[nodes] | ~(mDs > 0)) & (c2_prefers | ~(mRs > 0))):
                yield None, src
                continue
            sections = [StepFunction.constant(row) for row in E]  # null nodes keep e
            for j, k in enumerate(nodes):
                cells = [D[j], R[j]]
                vals = [c1 * E[k], c2[j] * E[k]]
                rest = S.sections[k].complement()
                if not rest.is_empty:
                    cells.append(rest)
                    vals.append(E[k])
                sections[k] = StepFunction(tuple(cells), np.array(vals), validate=False)
            yield ProductStepFunction(tuple(sections)), src


def search_improvement(
    eco: Economy,
    f,
    mode: str = "improve",
    budget: int = 500,
    levels: int = 4,
    yblocks: int = 8,
    demand_grid: int = 50,
    seed: int = 42,
):
    """Search for a coalition and allocation improving f.

    Returns a verified :class:`ImprovementWitness` or an
    :class:`ExhaustedReport` listing the searched family sizes.  The search
    is deliberately budgeted; exhaustion is evidence, not proof.
    """
    if mode not in ("improve", "strongly_improve"):
        raise StructuralError(f"unknown improvement mode {mode!r}")
    if budget <= 0:
        raise StructuralError("search budget must be positive")
    f = _allocation(eco, f)
    rng = np.random.default_rng(seed)
    sectionals = list(_sectional_candidates(eco, demand_grid))
    coalitions = list(_block_level_coalitions(eco, levels, yblocks, rng, budget // 5))
    for _ in range(min(20, budget // 10)):
        coalitions.append(
            ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(eco.K)))
        )

    checked = 0
    two_level_count = 0
    G = np.array([g for g, _ in sectionals])  # (P, K, n)
    prefers = eco.prefs.strict_rows(G, f)  # (P, K)
    for S in coalitions:
        w = section_measures(eco.fam, S)
        if not np.any(w > 0):
            continue
        checked += len(sectionals)
        for j in np.flatnonzero(_screen_sectionals(eco, G, prefers, w, mode)):
            g, src = sectionals[j]
            witness = ImprovementWitness(mode, S, ProductStepFunction.sectional(g), src)
            ok, _ = verify_improvement(eco, f, witness)
            if ok:
                return witness
        if mode == "strongly_improve":
            for g, src in _two_level_candidates(eco, S, w, f):
                two_level_count += 1
                if g is None:
                    continue
                witness = ImprovementWitness(mode, S, g, src)
                ok, _ = verify_improvement(eco, f, witness)
                if ok:
                    return witness
    return ExhaustedReport(mode, len(coalitions), len(sectionals), two_level_count, checked)


def improvement_from_excess(
    eco: Economy, f, sample: ExcessSample
) -> ImprovementWitness | None:
    """Rebuild a strong-improvement witness from a violating excess sample.

    Restricting the coalition to nodes whose pointwise excess is in the
    negative orthant, those agents can revert to the endowment: strictly
    better than the selection (hence than f) and exactly section-balanced.
    """
    f = _allocation(eco, f)
    zy = (sample.selection - eco.endowment) * sample.node_measures[:, None]
    neg = np.all(zy <= 1e-12, axis=1) & np.any(zy < -1e-12, axis=1)
    if not neg.any():
        return None
    sections = tuple(
        sec if use else IntervalSet.empty()
        for sec, use in zip(sample.coalition.sections, neg)
    )
    witness = ImprovementWitness(
        "strongly_improve",
        ProductSet(sections),
        ProductStepFunction.sectional(eco.endowment),
        "excess-reconstruction",
    )
    ok, _ = verify_improvement(eco, f, witness)
    return witness if ok else None


def sectionalize(eco: Economy, s: ProductStepFunction, A: ProductSet) -> np.ndarray:
    """Collapse an allocation to a sectional one with the same integrals on A.

    On sections of positive measure the node value is the Choquet average
    (1/mu_k(A_k)) * integral over A_k; elsewhere the value of s on its
    leftmost cell stands in.  When every value of s(., y) sits in a closed
    convex contour set, the average does too (subadditive section measures).
    """
    if s.K != eco.K or A.K != eco.K:
        raise StructuralError("section-count mismatch")
    rows = []
    w = section_measures(eco.fam, A)
    for mu, sec, fs, m in zip(eco.fam.measures, A.sections, s.sections, w):
        if m > 0:
            rows.append(np.atleast_1d(choquet_restricted(fs, mu, sec)) / m)
        else:
            leftmost = min(
                range(len(fs.cells)), key=lambda i: fs.cells[i].intervals[0][0]
            )
            rows.append(np.atleast_1d(np.array(fs.values[leftmost], dtype=float)))
    return np.array(rows)


# -- convexity of the excess set -------------------------------------------------


@dataclass(frozen=True)
class ConvexityReport:
    trials: int
    max_mixing_deviation: float  # |z_mix - (c z1 + (1-c) z2)| from the generators
    max_realization_deviation: float  # same, after realizing the mixed coalition
    membership_failures: int

    @property
    def passed(self) -> bool:
        return (
            self.max_mixing_deviation <= 1e-8
            and self.max_realization_deviation <= 1e-8
            and self.membership_failures == 0
        )

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "max_mixing_deviation": self.max_mixing_deviation,
            "max_realization_deviation": self.max_realization_deviation,
            "membership_failures": self.membership_failures,
            "passed": self.passed,
        }


def check_excess_convexity(
    eco: Economy, f, trials: int = 200, seed: int = 42
) -> ConvexityReport:
    """Constructive convexity of the excess set: mix two samples' generators
    (selections and level profiles), realize the mixed coalition, and compare
    against the straight-line combination."""
    f = _allocation(eco, f)
    rng = np.random.default_rng(seed)
    cloud = sample_excess_points(eco, f, samples=max(trials, 50), seed=seed)
    dev_mix = 0.0
    dev_real = 0.0
    member_fail = 0
    for i in range(trials):
        s1, s2 = (cloud[j] for j in rng.integers(0, len(cloud), size=2))
        c = float(rng.uniform()) if i >= 2 else (1.0 if i == 1 else 0.5)
        if i == 0:
            s2 = s1  # z1 == z2 must reproduce z1 exactly
        t1, t2 = s1.node_measures, s2.node_measures
        tau = c * t1 + (1 - c) * t2
        sel = np.where(
            tau[:, None] > 0,
            (c * t1[:, None] * s1.selection + (1 - c) * t2[:, None] * s2.selection)
            / np.where(tau[:, None] > 0, tau[:, None], 1.0),
            s1.selection,
        )
        expected = c * s1.z + (1 - c) * s2.z
        dev_mix = max(dev_mix, float(np.max(np.abs(_excess(eco, sel, tau) - expected))))
        for k in range(eco.K):
            if tau[k] > 0 and not eco.prefs.weakly_prefers(k, sel[k], f[k], tol=1e-9):
                member_fail += 1
                break
        H = product_set_from_levels(eco.fam, np.clip(tau, 0.0, 1.0))
        wH = section_measures(eco.fam, H)
        dev_real = max(dev_real, float(np.max(np.abs(_excess(eco, sel, wH) - expected))))
    return ConvexityReport(trials, dev_mix, dev_real, member_fail)


# -- endowment equilibrium (dominance preferences) -------------------------------


@dataclass(frozen=True)
class EndowmentReport:
    verdict: bool
    price: np.ndarray | None
    walras: WalrasReport | None
    price_failure: PriceSearchResult | None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "price": None if self.price is None else self.price.tolist(),
            "walras": None if self.walras is None else self.walras.to_dict(),
            "price_failure": None if self.price_failure is None else self.price_failure.to_dict(),
        }


def endowment_is_walrasian(eco: Economy, seed: int = 42) -> EndowmentReport:
    """Is (e, p) a Walras equilibrium for some supporting p?

    Runs :func:`find_price` on the endowment and, if a price comes back,
    :func:`check_walras` with its closed-form per-node maximality.
    """
    if eco.prefs.kind != "coordinate_dominance":
        raise StructuralError("endowment equilibrium check expects dominance preferences")
    price = find_price(eco, eco.endowment, seed=seed)
    if not price.found:
        return EndowmentReport(False, None, None, price)
    report = check_walras(eco, eco.endowment, price.price)
    return EndowmentReport(report.verdict, price.price, report, None)


# -- integral conditions on the economy's measure --------------------------------


def check_condition_c1(fam: SectionFamily, trials: int = 500, seed: int = 42) -> float:
    """Max violation of integral subadditivity over random scalar product
    step functions (0.0 when sections are subadditive)."""
    from .choquet import random_step_function

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        fs = tuple(random_step_function(rng, max_cells=6) for _ in range(fam.K))
        gs = tuple(random_step_function(rng, max_cells=6) for _ in range(fam.K))
        lhs = np.mean(
            [choquet(a + b, mu) for a, b, mu in zip(fs, gs, fam.measures)]
        )
        rhs = np.mean([choquet(a, mu) for a, mu in zip(fs, fam.measures)]) + np.mean(
            [choquet(b, mu) for b, mu in zip(gs, fam.measures)]
        )
        worst = max(worst, float(lhs - rhs))
    return worst


@dataclass(frozen=True)
class OrderViolationWitness:
    """Coalition on which integral of f exceeds integral of g."""

    node: int
    coalition: ProductSet
    lhs: float
    rhs: float


def condition_c2_witness(fam: SectionFamily, f, g) -> OrderViolationWitness | None:
    """If f > g somewhere on the grid, exhibit a single-node coalition whose
    integrals violate integral-of-f <= integral-of-g; None when f <= g."""
    f = as_sectional(f, fam)
    g = as_sectional(g, fam)
    K = fam.K
    for k in range(K):
        if f[k] > g[k] + 1e-12:
            H = ProductSet.single(K, k)
            lhs = integrate_sectional_over(fam, f, H)
            rhs = integrate_sectional_over(fam, g, H)
            return OrderViolationWitness(k, H, float(lhs), float(rhs))
    return None
