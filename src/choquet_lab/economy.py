"""Pure exchange economy on the sectioned product space.

Agents live on X x [0,1] with a convex-type, normalized, submodular family
of section measures.  Endowment and candidate equilibrium allocations are
sectional (one bundle per y-node); preferences depend on y only and come in
three concrete families:

* ``cobb_douglas``: utility prod_i x_i^{a_i(y)} with exponents interior to
  the simplex — closed-form demand, hence analytic oracles;
* ``linear``: utility w(y) . x — corner demand;
* ``coordinate_dominance``: x preferred to z iff x_j > z_j for every j in a
  per-node index set J_y (no utility representation).

Each preference question is one :class:`Preferences` row method over all
nodes, asked once per price, trial or probe direction: the Walras check
decides every node in one closed-form row function.

Strong improvement and, for coordinate dominance, whether the endowment is
a Walras allocation are decided in closed form; the improvement and price
searches are budgeted, hence incomplete (coalitions form a continuum).
Every negative answer reports the searched family sizes, and every positive
witness is re-verified against the definitions before being returned.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .choquet import StepFunction, choquet_restricted
from .errors import InvalidPriceError, StructuralError
from .intervals import IntervalSet, random_interval_set
from .lp import linprog
from .measures import measure_properties
from .product import (
    ProductSet,
    ProductStepFunction,
    SectionFamily,
    as_sectional,
    integrate_product,
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


def _row_dot(A, B) -> np.ndarray:
    """Dot products of matching rows of A and B, each rounded as the 1-D
    ``a @ b`` (``np.sum(A * B, -1)``, ``einsum`` and ``E @ p`` are not)."""
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    return (A[..., None, :] @ B[..., :, None])[..., 0, 0]


@dataclass(frozen=True)
class Preferences:
    """Per-node preference relations on the commodity space.

    One row method per question, each family's formula written once.  ``k``
    picks the nodes: one index, an index array, or every node (the default);
    U and V hold one bundle per picked node in their last two axes, so a
    stack (..., K, n) of allocations is asked at once.
    """

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
            try:  # Python ints, so that the sets serialize
                sets = tuple(tuple(sorted({operator.index(j) for j in js})) for js in self.jsets)
            except TypeError:
                raise StructuralError("index sets must hold integers") from None
            if any(isinstance(j, bool) for js in self.jsets for j in js):
                raise StructuralError("index sets must hold integers, not booleans")
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

    # -- comparisons --------------------------------------------------------

    def utilities(self, U, k=slice(None)) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        if self.kind == "cobb_douglas":
            return np.prod(np.maximum(U, 0.0) ** self.exponents[k], axis=-1)
        if self.kind == "linear":
            return _row_dot(self.weights[k], U)
        raise StructuralError("coordinate dominance has no utility representation")

    def strict_rows(self, U, V, k=slice(None)) -> np.ndarray:
        """Is U strictly preferred to V, per row."""
        if self.kind == "coordinate_dominance":
            U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
            return np.all((U > V) | ~self._jmask[k], axis=-1)
        return self.utilities(U, k) > self.utilities(V, k)

    def weak_rows(self, U, V, k=slice(None), tol: float = 0.0) -> np.ndarray:
        """Is U weakly preferred to V, up to ``tol``, per row."""
        if self.kind == "coordinate_dominance":
            U, V = np.asarray(U, dtype=float), np.asarray(V, dtype=float)
            return np.all((U >= V - tol) | ~self._jmask[k], axis=-1)
        return self.utilities(U, k) >= self.utilities(V, k) - tol

    # -- demand -------------------------------------------------------------

    def demand_rows(self, p: np.ndarray, wealth: np.ndarray, ref=None) -> np.ndarray | None:
        """Budget-exhausting preferred bundles (K, n) at strictly positive
        prices for the wealths (K,); dominance scales ref on J.  None when
        some price is zero or some ref costs nothing on J."""
        if np.min(p) <= 0:
            return None
        wealth = np.asarray(wealth, dtype=float)[:, None]
        if self.kind == "cobb_douglas":
            return self.exponents * wealth / p
        if self.kind == "linear":
            rows = np.arange(self.K)
            i = np.argmax(self.weights / p, axis=1)
            out = np.zeros((self.K, self.n))
            out[rows, i] = wealth[:, 0] / p[i]
            return out
        ref = np.asarray(ref, dtype=float)
        denom = _row_dot(np.where(self._jmask, p, 0.0), ref)  # p_J . ref_J
        if not np.all(denom > 0):
            return None
        return np.where(self._jmask, ref * wealth / denom[:, None], 0.0)

    # -- upper-contour sampling (for the excess cloud) -----------------------

    def contour_boundary(self, k: int, ref: np.ndarray, axis: int, delta: float):
        """A point on the indifference/dominance boundary through ``ref``,
        nudged by ``delta`` along ``axis`` and rebalanced on the rest: the
        scalar reference that the tests hold :meth:`contour_rows` to."""
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

    def contour_rows(self, F: np.ndarray, axes: np.ndarray, deltas: np.ndarray):
        """``contour_boundary(k, F[k], axes[k], deltas[k])`` for every node k
        as one (K, n) array, with the (K,) mask of the nodes where that is not
        None; a node outside the mask keeps its row F[k]."""
        out = F.copy()
        K, n = F.shape
        if self.kind == "cobb_douglas":
            ok = (F.min(axis=1) > 0) & (deltas > -1)
            if n == 1:
                return out, ok
            idx = np.flatnonzero(ok)
            a = self.exponents[idx, axes[idx]]
            grow = 1.0 + deltas[idx]
            # Scalar pow per node, as contour_boundary computes it: numpy's
            # array power differs from scalar pow in the last bit on some hosts.
            r = np.array([g**x for g, x in zip(grow.tolist(), -a / (1.0 - a))])
            keep = np.isfinite(r) & (r <= 1e6)  # the rebalance explodes as a -> 1
            ok[idx] = keep
            idx, grow, r = idx[keep], grow[keep], r[keep]
            out[idx] = F[idx] * r[:, None]
            out[idx, axes[idx]] = F[idx, axes[idx]] * grow
            return out, ok
        if self.kind == "linear":
            if n == 1:
                return out, np.ones(K, dtype=bool)
            w, rows = self.weights, np.arange(K)
            other = (axes + 1) % n
            out[rows, axes] += deltas / w[rows, axes]
            out[rows, other] -= deltas / w[rows, other]
            ok = out.min(axis=1) >= 0
            out[~ok] = F[~ok]
            return out, ok
        out = np.where(self._jmask, F, np.maximum(0.0, F + deltas[:, None]))
        return out, np.ones(K, dtype=bool)


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
            if not mu.is_submodular:
                raise StructuralError("economy needs submodular section measures")
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

    def wealth(self, p: np.ndarray, k=slice(None)) -> np.ndarray:
        """p . e_k of the nodes ``k`` picks (every node by default)."""
        return _row_dot(p, self.endowment[k])


def _allocation(eco: Economy, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (eco.K, eco.n):
        raise StructuralError(f"allocation must be ({eco.K}, {eco.n})")
    if not np.isfinite(f).all():
        raise StructuralError("allocation must be finite")
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


def _budget_rows(eco: Economy, p: np.ndarray, F: np.ndarray):
    """Is F[k] preference-maximal in its budget set at the normalized price
    p, for every node k: (ok, violators), with a NaN row where a node has no
    violator (it is maximal or over budget).

    Cobb-Douglas compares against its demand.  Linear utility w . x peaks
    over the budget set at the corner e_i * wealth / p_i, i = argmax w / p;
    the violator is the point of that axis halfway in utility between the
    bundle and the corner.  When some p_i = 0, bundle + e_i costs no more.
    Coordinate dominance on J has an affordable strictly preferred bundle iff
    sum_{j in J} p_j b_j < wealth: raise the J-coordinates by half the slack
    per unit of their price and drop the others.  Such a violator is kept
    only where ``strict_rows`` and :func:`budget_check`'s test (with its
    second normalization of p) confirm it.
    """
    prefs, K, n = eco.prefs, eco.K, eco.n
    wealth = eco.wealth(p)
    inside = ~(_row_dot(p, F) > wealth + DEMAND_TOL)  # f(a) must lie in its budget set
    if prefs.kind == "cobb_douglas":
        if p.min() > 0:
            cand = prefs.demand_rows(p, wealth)
            ok = inside & (np.max(np.abs(F - cand), axis=1) <= DEMAND_TOL)
        else:  # a free good makes Cobb-Douglas demand unbounded
            worse = F.copy()
            worse[:, np.argmin(p)] += 1.0 + np.max(eco.endowment)
            interior = wealth[:, None] / (2.0 * n * max(p.max(), 1e-12))
            cand = np.where(F.min(axis=1, keepdims=True) > 0, worse, interior)
            ok = np.zeros(K, dtype=bool)
        return ok, np.where((inside & ~ok)[:, None], cand, np.nan)
    if prefs.kind == "linear":
        free = np.flatnonzero(p == 0)
        if free.size:
            cand = F.copy()
            cand[:, free[0]] += 1.0
        else:
            rows = np.arange(K)
            i = np.argmax(prefs.weights / p, axis=1)
            cand = np.zeros((K, n))
            # halfway in utility between the bundle and the best corner, so
            # rounding cannot push the violator over the budget
            cand[rows, i] = 0.5 * (wealth / p[i] + prefs.utilities(F) / prefs.weights[rows, i])
        slack = inside
    else:
        pJ = np.where(prefs._jmask, p, 0.0)
        spent = _row_dot(pJ, F)
        unit = pJ.sum(axis=1)
        step = np.divide(wealth - spent, 2.0 * unit, out=np.ones(K), where=unit > 0)
        cand = np.where(prefs._jmask, F + step[:, None], 0.0)
        slack = inside & (spent < wealth)
    q = normalize_price(p)
    bad = slack & prefs.strict_rows(cand, F) & (_row_dot(q, cand) <= eco.wealth(q) + BUDGET_TOL)
    return inside & ~bad, np.where(bad[:, None], cand, np.nan)


def is_maximal_in_budget(eco: Economy, p, f, k: int) -> tuple[bool, np.ndarray | None]:
    """Is f(y_k) preference-maximal in the budget set at node k?  Row k of
    :func:`check_walras`'s decision: (True, None), or False and a violator
    (None when f(y_k) is over budget)."""
    ok, violators = _budget_rows(eco, normalize_price(p), _allocation(eco, f))
    violator = violators[k]
    return bool(ok[k]), None if np.isnan(violator).any() else violator


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
    ok, violators = _budget_rows(eco, normalize_price(p), f)
    first = None
    if not ok.all():
        k = int(np.argmin(ok))
        v = violators[k]
        first = {"node": k, "violator": None if np.isnan(v).any() else v.tolist()}
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
    full space, then two-sided boundary nudges of f at every node, built as
    one :meth:`Preferences.contour_rows` call per (axis, delta, sign); the
    remainder is seeded-random.  The node measures of a coalition are
    evaluated once and shared by all its samples.

    The stream is made by these calls, in this order, per random sample: one
    ``rng.integers(4)`` for the coalition kind; per node, ``rng.integers(n)``
    for the axis, ``rng.random()`` for the nudge in [-0.5, 1), ``rng.random()``
    for the coin and, on heads, ``rng.random(n)`` for a shift in [0, 0.5)^n;
    then the coalition's draws (``rng.random(K)`` levels, K
    :func:`random_interval_set` calls, or ``rng.integers(K)`` for a node).
    numpy defines ``rng.uniform(lo, hi)`` as lo + (hi - lo) * u for the next
    double u, so the raw doubles are collected in lists and mapped once per
    sample as arrays; the values and the generator state are those of the
    ``uniform`` calls.  The integer draws stay scalar and in place: they take
    32-bit halves of the generator's 64-bit words, so batching or moving them
    would change every later draw.  The selection is then built as one
    :meth:`Preferences.contour_rows` call.
    """
    f = _allocation(eco, f)
    rng = np.random.default_rng(seed)
    integers, random = rng.integers, rng.random
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
    # Boundary nudges of f: one contour_rows call per (axis, delta, sign),
    # emitted in (node, axis, delta, sign) order.  z is the mean over nodes
    # of (s - e) * w; every other node has w = 0 and adds a signed zero, which
    # leaves this node's term (nonzero or +0.0, as e > 0 and w_k > 0) as is.
    signed = np.ravel([(d, -d) for d in (2e-4, 2e-3, 2e-2, 0.2)])
    probes = [
        eco.prefs.contour_rows(f, np.full(K, axis), np.full(K, d))
        for axis in range(n)
        for d in signed
    ]
    P = np.array([pts for pts, _ in probes])  # (8 n, K, n)
    emit = np.array([ok for _, ok in probes]) & ~(P.min(axis=2) < 0)
    Z = (P - eco.endowment) * w_full[:, None] / K
    for k, j in zip(*np.nonzero(emit.T)):
        s = f.copy()
        s[k] = P[j, k]
        H, w = singles[k]
        out.append(ExcessSample(Z[j, k], s, H, w.copy(), f"boundary-{k}-{j // 8}"))

    for _ in range(samples):
        kind = int(integers(4))
        axes, nudges, shifted, shifts = [], [], [], []
        for k in range(K):
            axes.append(integers(n))
            nudges.append(random())
            if random() < 0.5:
                shifted.append(k)
                shifts.append(random(n))
        # rng.uniform(-0.5, 1.0) per node; rng.uniform(0, 0.5, n) per shift,
        # which keeps a shifted row inside the contour set
        s, _ = eco.prefs.contour_rows(f, np.array(axes), -0.5 + 1.5 * np.array(nudges))
        if shifted:
            s[shifted] += 0.5 * np.array(shifts)
        if kind == 0:
            H, w = full, w_full
        elif kind == 1:
            H = product_set_from_levels(eco.fam, random(K))  # rng.uniform(0, 1, K)
            w = section_measures(eco.fam, H)
        elif kind == 2:
            H = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(K)))
            w = section_measures(eco.fam, H)
        else:
            H, w = singles[int(integers(K))]
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
    found = True  # a class attribute, not a dataclass field

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
    nodes, values = [], []  # the value of every cell that meets an active section
    for k in np.flatnonzero(w > 0):
        mu, sec, gs = eco.fam.measures[k], S.sections[k], g.sections[k]
        for cell, value in zip(gs.cells, gs.values):
            if mu(cell.intersection(sec)) > 0:
                nodes.append(int(k))
                values.append(np.atleast_1d(value))
        section_int[k] = np.atleast_1d(choquet_restricted(gs, mu, sec))
    U = np.array(values, dtype=float).reshape(len(nodes), eco.n)
    worse = ~eco.prefs.strict_rows(U, f[nodes], nodes)
    if worse.any():
        return False, {"reason": "not strictly preferred", "node": nodes[np.argmax(worse)]}

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
    """No verified witness: none exists (``strongly_improve``) or none is in
    the searched family (``improve``).  ``two_level`` is always 0."""

    mode: str
    coalitions: int
    allocations: int
    two_level: int
    candidates_checked: int
    found = False

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
    """The endowment, then the demand rows at each grid price."""
    E = eco.endowment
    yield E.copy(), "endowment"
    for p in _price_grid(eco.n, demand_grid):
        rows = eco.prefs.demand_rows(p, eco.wealth(p), ref=E)
        if rows is not None:
            yield rows, f"demand@{np.round(p, 4).tolist()}"


def _screen_sectionals(
    eco: Economy, G: np.ndarray, prefers: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Which of the stacked sectional candidates G (P, K, n) balance with the
    endowment in the mean over a coalition with node measures w and are
    strictly preferred on every node of positive measure.  ``prefers`` is
    ``strict_rows(G, f)``."""
    target = np.mean(eco.endowment * w[:, None], axis=0)
    gaps = np.max(np.abs(np.mean(G * w[:, None], axis=1) - target), axis=1)
    return ~(gaps > FEASIBILITY_TOL) & np.all(prefers[:, w > 0], axis=1)


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
    """Look for a coalition and allocation improving f: a verified
    :class:`ImprovementWitness` or an :class:`ExhaustedReport`.

    ``strongly_improve`` is a decision.  A witness exists iff some node k has
    e_k strictly preferred to f_k, and then the single-node coalition at k
    with allocation e is one.  If not, at each node a price p >= 0
    separates e_k from the open convex set {x strictly preferred to f_k};
    the Choquet integral of the submodular section measure is subadditive,
    so any g preferred to f on an active section k has
    p . integral g dmu_k > p . e_k mu_k(S_k), and that section cannot
    balance.  The search arguments are unused.

    ``improve`` is a budgeted search over level-set and random coalitions
    and the endowment and demand candidates; exhaustion is evidence, not
    proof.
    """
    if mode not in ("improve", "strongly_improve"):
        raise StructuralError(f"unknown improvement mode {mode!r}")
    if budget <= 0:
        raise StructuralError("search budget must be positive")
    f = _allocation(eco, f)
    if mode == "strongly_improve":
        endowment = ProductStepFunction.sectional(eco.endowment)
        for k in np.flatnonzero(eco.prefs.strict_rows(eco.endowment, f)):
            S = ProductSet.single(eco.K, int(k))
            witness = ImprovementWitness(mode, S, endowment, "endowment")
            if verify_improvement(eco, f, witness)[0]:
                return witness
        return ExhaustedReport(mode, eco.K, 1, 0, eco.K)

    rng = np.random.default_rng(seed)
    sectionals = list(_sectional_candidates(eco, demand_grid))
    coalitions = list(_block_level_coalitions(eco, levels, yblocks, rng, budget // 5))
    for _ in range(min(20, budget // 10)):
        coalitions.append(
            ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(eco.K)))
        )

    checked = 0
    G = np.array([g for g, _ in sectionals])  # (P, K, n)
    prefers = eco.prefs.strict_rows(G, f)  # (P, K)
    for S in coalitions:
        w = section_measures(eco.fam, S)
        if not np.any(w > 0):
            continue
        checked += len(sectionals)
        for j in np.flatnonzero(_screen_sectionals(eco, G, prefers, w)):
            g, src = sectionals[j]
            witness = ImprovementWitness(mode, S, ProductStepFunction.sectional(g), src)
            ok, _ = verify_improvement(eco, f, witness)
            if ok:
                return witness
    return ExhaustedReport(mode, len(coalitions), len(sectionals), 0, checked)


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
        member_fail += bool(np.any((tau > 0) & ~eco.prefs.weak_rows(sel, f, tol=1e-9)))
        H = product_set_from_levels(eco.fam, np.clip(tau, 0.0, 1.0))
        wH = section_measures(eco.fam, H)
        dev_real = max(dev_real, float(np.max(np.abs(_excess(eco, sel, wH) - expected))))
    return ConvexityReport(trials, dev_mix, dev_real, member_fail)


# -- endowment equilibrium (dominance preferences) -------------------------------


@dataclass(frozen=True)
class EndowmentReport:
    """Is the endowment a Walras allocation?  A positive verdict carries the
    price and its :func:`check_walras` report; a negative one carries the
    price certificate, a :class:`PriceSearchResult` whose single violation
    is the excess point that every price fails to support."""

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
    """Is (e, p) a Walras equilibrium for some supporting p?  Decided in
    closed form for coordinate dominance, in O(K n).

    At f = e the expenditure function is E_k(p) = p_J . e_{k,J} with
    J = J_k, so phi_k(p) = E_k(p) - p . e_k = -p_{J^c} . e_{k,J^c} <= 0, and
    the infimum of p . z over the excess set is (1/K) sum_k phi_k(p) (node
    measures mu_k(X) = 1 on normalized sections).  That infimum is p . z*
    for the single excess point z* of the full coalition with selection
    s_k = e_k on J_k and 0 elsewhere, so p supports the excess set iff it is
    zero outside T, the goods every node tracks.

    If T is non-empty the price uniform on T is returned with its
    :func:`check_walras` report, which re-verifies the verdict.  Otherwise
    every component of z* is negative, the verdict is False, and
    ``price_failure`` holds z* as its one violation, with margin max_i z*_i,
    the exact optimum of the price LP over the whole excess set.  ``seed``
    is unused; it is kept so callers can pass one to every economy check.
    """
    if eco.prefs.kind != "coordinate_dominance":
        raise StructuralError("endowment equilibrium check expects dominance preferences")
    tracked = eco.prefs._jmask.all(axis=0)
    if tracked.any():
        price = tracked / tracked.sum()
        report = check_walras(eco, eco.endowment, price)
        return EndowmentReport(report.verdict, price, report, None)
    full = ProductSet.full(eco.K)
    s = np.where(eco.prefs._jmask, eco.endowment, 0.0)
    sample = _sample_from(eco, s, full, section_measures(eco.fam, full), "dominance-infimum")
    failure = PriceSearchResult(None, float(sample.z.max()), 1, [sample])
    return EndowmentReport(False, None, None, failure)


# -- integral conditions on the economy's measure --------------------------------


@dataclass(frozen=True)
class SubadditivityViolationWitness:
    """Product step functions f, g with integral(f + g) > integral(f) + integral(g)."""

    node: int
    f: ProductStepFunction
    g: ProductStepFunction
    lhs: float  # integral of f + g
    rhs: float  # integral of f plus integral of g


def condition_c1_witness(fam: SectionFamily) -> SubadditivityViolationWitness | None:
    """Decide (c1), subadditivity of the product integral; None when it holds.

    The Choquet integral against mu is subadditive iff mu is submodular
    (Denneberg 1994, ch. 6), so (c1) holds iff every section measure is.
    Otherwise the first node k whose measure is not submodular carries
    f = 1_A and g = 1_B on its section and 0 elsewhere, for the pair (A, B)
    of its :func:`measures.measure_properties` witness:
    K * integral(f + g) = mu_k(A ∪ B) + mu_k(A ∩ B) > mu_k(A) + mu_k(B).
    Both sides are re-computed with :func:`integrate_product`.
    """
    k = next((k for k, mu in enumerate(fam.measures) if not mu.is_submodular), None)
    if k is None:
        return None
    pair = measure_properties(fam.measures[k]).witness
    zero = StepFunction.constant(0.0)

    def on_node(section: StepFunction) -> ProductStepFunction:
        return ProductStepFunction(tuple(section if j == k else zero for j in range(fam.K)))

    fA, fB = (StepFunction.indicator(IntervalSet(pair[s])) for s in "AB")
    f, g = on_node(fA), on_node(fB)
    lhs = integrate_product(fam, on_node(fA + fB))
    return SubadditivityViolationWitness(
        k, f, g, lhs, integrate_product(fam, f) + integrate_product(fam, g)
    )


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
