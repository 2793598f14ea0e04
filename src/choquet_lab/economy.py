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
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations

import numpy as np

from .choquet import StepFunction, choquet_restricted, indicator_pair
from .errors import InvalidPriceError, StructuralError, _array, _count, _floats
from .intervals import _draw_ends, _from_ends
from .lp import linprog
from .measures import _pow, measure_properties
from .product import (
    ProductSet,
    ProductStepFunction,
    SectionFamily,
    _chain_ends,
    _node_measures,
    integrate_product,
    integrate_sectional_over,
    product_set_from_levels,
    section_measures,
)

FEASIBILITY_TOL = 1e-8
PRICE_TOL = 1e-9
# HiGHS' default feasibility tolerance, 1e-7, exceeds PRICE_TOL and the size
# of p . z on a price cloud; the price LP is solved at this one instead
LP_TOL = 1e-10
DEMAND_TOL = 1e-6
BUDGET_TOL = 1e-12


def normalize_price(p) -> np.ndarray:
    p = np.atleast_1d(_floats(p, "price", InvalidPriceError))
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
            a = _array(self.exponents, "exponents", (None, self.n), sign="positive")
            if np.max(np.abs(a.sum(axis=1) - 1.0)) > 1e-9:
                raise StructuralError("exponent rows must lie in the open simplex")
            object.__setattr__(self, "exponents", a)
        elif self.kind == "linear":
            w = _array(self.weights, "weights", (None, self.n), sign="positive")
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

    def contour_rows(self, F: np.ndarray, axes: np.ndarray, deltas: np.ndarray):
        """Points on the indifference (dominance) boundary through the rows
        F[r] of an allocation (K, n) or a stack of them (R K, n), node r % K,
        nudged by deltas[r] along axes[r] and rebalanced on the other goods,
        with the mask of the rows where one exists (a Cobb-Douglas rebalance
        can explode, a linear one leave the orthant); others keep F[r]."""
        out = F.copy()
        R, n = F.shape
        node = np.arange(R) % self.K
        if self.kind == "cobb_douglas":
            ok = (F.min(axis=1) > 0) & (deltas > -1)
            if n == 1:
                return out, ok
            idx = np.flatnonzero(ok)
            a = self.exponents[node[idx], axes[idx]]
            grow = 1.0 + deltas[idx]
            r = _pow(grow, -a / (1.0 - a))
            keep = np.isfinite(r) & (r <= 1e6)  # the rebalance explodes as a -> 1
            ok[idx] = keep
            idx, grow, r = idx[keep], grow[keep], r[keep]
            out[idx] = F[idx] * r[:, None]
            out[idx, axes[idx]] = F[idx, axes[idx]] * grow
            return out, ok
        if self.kind == "linear":
            if n == 1:
                return out, np.ones(R, dtype=bool)
            rows, other = np.arange(R), (axes + 1) % n
            out[rows, axes] += deltas / self.weights[node, axes]
            out[rows, other] -= deltas / self.weights[node, other]
            ok = out.min(axis=1) >= 0
            out[~ok] = F[~ok]
            return out, ok
        out = np.where(self._jmask[node], F, np.maximum(0.0, F + deltas[:, None]))
        return out, np.ones(R, dtype=bool)


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
        for _, mu in self.fam._groups:  # submodularity depends on the shape alone
            if not mu.is_submodular:
                raise StructuralError("economy needs submodular section measures")
        e = _array(self.endowment, "endowment", (self.fam.K, None), sign="positive")
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
    return _array(f, "allocation", (eco.K, eco.n))


def _price(eco: Economy, p) -> np.ndarray:
    p = _floats(p, "price", InvalidPriceError)
    if p.shape != (eco.n,):
        raise InvalidPriceError(f"price must have {eco.n} entries (got shape {p.shape})")
    return normalize_price(p)


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
    p = _price(eco, p)
    bundle = _array(bundle, "bundle", (eco.n,))
    k = _count(k, "node", 0, eco.K - 1)
    return bool(p @ bundle <= eco.wealth(p, k) + BUDGET_TOL)


def _budget_rows(eco: Economy, p: np.ndarray, F: np.ndarray):
    """Is F[k] preference-maximal in its budget set at the normalized price
    p, for every node k: (ok, violators), with a NaN row where a node has no
    violator (it is maximal or over budget).

    Cobb-Douglas compares against its demand d.  Linear utility w . x peaks
    over the budget set at the corner e_i * wealth / p_i, i = argmax w / p.
    The violator lies halfway in utility between the bundle and d (d times
    (1 + u(F[k]) / u(d)) / 2, as u is homogeneous of degree 1) or the corner,
    so rounding cannot push it over the budget.  When some p_i = 0,
    bundle + e_i costs no more.
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
            d = prefs.demand_rows(p, wealth)
            ok = inside & (np.max(np.abs(F - d), axis=1) <= DEMAND_TOL)
            cand = d * (0.5 * (1.0 + prefs.utilities(F) / prefs.utilities(d)))[:, None]
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
    ok, violators = _budget_rows(eco, _price(eco, p), _allocation(eco, f))
    k = _count(k, "node", 0, eco.K - 1)
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
    ok, violators = _budget_rows(eco, _price(eco, p), f)
    first = None
    if not ok.all():
        k = int(np.argmin(ok))
        v = violators[k]
        first = {"node": k, "violator": None if np.isnan(v).any() else v.tolist()}
    return WalrasReport(feasible, dev, ok, first)


# -- the excess-point cloud ---------------------------------------------------


@dataclass(frozen=True)
class ExcessSample:
    """One point z = integral_H s dm - integral_H e dm with its generators;
    the coalition H is built from its draws when first read."""

    z: np.ndarray
    selection: np.ndarray  # (K, n), s(y_k) weakly preferred to f(y_k)
    node_measures: np.ndarray  # mu_k(H_k) per node
    label: str
    _make: Callable[[], ProductSet] = field(repr=False, compare=False)

    @cached_property
    def coalition(self) -> ProductSet:
        return self._make()


def _excess(eco: Economy, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """z of selections s (..., K, n) over node measures w (..., K)."""
    return np.mean((s - eco.endowment) * w[..., None], axis=-2)


def _coalition(lo: np.ndarray, hi: np.ndarray) -> ProductSet:
    """The coalition whose section k is the pieces [lo[k], hi[k])."""
    return ProductSet(tuple(_from_ends(a, b) for a, b in zip(lo, hi)))


def _level_ends(fam: SectionFamily, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) rows (C, K, pieces) of the level sets of the profiles tau
    (C, K), as :func:`product_set_from_levels` builds them."""
    ts, back = np.unique(tau, return_inverse=True)
    return tuple(a[back.reshape(tau.shape)] for a in _chain_ends(fam, ts))


def _measured(fam: SectionFamily, parts) -> tuple[np.ndarray, list]:
    """Node measures (C, K) and (lo, hi) rows (K, pieces) of the coalitions
    in ``parts``, pairs of (lo, hi) rows, K per coalition, each at its width."""
    parts = [[a.reshape(-1, fam.K, a.shape[-1]) for a in part] for part in parts]
    W = np.concatenate([_node_measures(fam, lo, hi) for lo, hi in parts])
    return W, [rows for lo, hi in parts for rows in zip(lo, hi)]


def _draw_cloud(rng, fam: SectionFamily, n: int, samples: int):
    """The draws of :func:`sample_excess_points`: the coalitions' (lo, hi)
    rows in two parts, the level sets (kinds 0, 1, 3) and the section unions,
    with each sample's ``place`` in them; per row (node k of sample i at row
    i K + k) the axis and the nudge; the shifted rows and their shifts."""
    K = fam.K
    kinds = rng.integers(4, size=samples)
    axes = rng.integers(n, size=(samples, K))
    nudges = rng.random((samples, K))
    shifted = np.flatnonzero(rng.random((samples, K)) < 0.5)
    shifts = rng.random((shifted.size, n))
    count = np.bincount(kinds, minlength=4)
    tau = np.ones((samples, K))
    tau[kinds == 1] = rng.random((count[1], K))
    sections = _draw_ends(rng, count[2] * K)
    tau[kinds == 3] = np.eye(K)[rng.integers(K, size=count[3])]
    parts = (_level_ends(fam, tau[kinds != 2]), sections)
    place = np.argsort(np.argsort(kinds == 2, kind="stable"))  # the inverse permutation
    return parts, place, axes.ravel(), nudges.ravel(), shifted, shifts


def sample_excess_points(
    eco: Economy, f, samples: int = 200, seed: int = 42
) -> list[ExcessSample]:
    """Sample z = integral_H (s - e) dm over selections s(y) weakly preferred
    to f(y) and coalitions H (level sets, random section unions, single nodes).

    Deterministic probes come first: unit-vector translations of f over the
    full space, then two-sided boundary nudges of f at every node; the
    remainder is seeded-random.

    The stream is made by these fixed-shape draws, in this order, for S
    random samples of K nodes: ``rng.integers(4, size=S)`` coalition kinds;
    ``rng.integers(n, size=(S, K))`` axes; ``rng.random((S, K))`` nudges,
    mapped to -0.5 + 1.5 u in [-0.5, 1); ``rng.random((S, K))`` coins, heads
    below 0.5; ``rng.random((heads, n))`` shifts, mapped to 0.5 u in
    [0, 0.5)^n, for the heads in row order; then the coalitions of each kind
    in sample order: ``rng.random((S_1, K))`` levels, the S_2 K section
    unions of :func:`intervals._draw_ends`, and ``rng.integers(K, size=S_3)``
    single nodes (kind 0 is X and draws nothing).  numpy defines
    ``rng.uniform(lo, hi)`` as lo + (hi - lo) * u for the next double u, so
    the mapped values are those ``rng.uniform`` would draw.  How many values
    are drawn depends on (S, K, n) and the values themselves, never on the
    economy's preferences or measures.

    Every coalition is held as the (lo, hi) rows (K, pieces) of its
    sections' intervals: a level set's chains (:func:`product._chain_ends`)
    or a section union's drawn ends; ``coalition`` is built from them when
    read.  The rest is built after the draws, as arrays: every selection in
    one :meth:`Preferences.contour_rows` call, every node measure from the
    rows (:func:`product._node_measures`) and every z as one mean.
    """
    f, samples, seed = _allocation(eco, f), _count(samples, "samples", 0), _count(seed, "seed", 0)
    K, n, fam = eco.K, eco.n, eco.fam
    rng = np.random.default_rng(seed)
    parts, place, axes, nudges, shifted, shifts = _draw_cloud(rng, fam, n, samples)
    w_full, w_empty = _node_measures(fam, *_level_ends(fam, np.array([np.ones(K), np.zeros(K)])))

    signed = np.ravel([(d, -d) for d in (2e-4, 2e-3, 2e-2, 0.2)])
    nprobe = 8 * n  # boundary nudges, one block of K rows per (axis, delta, sign)
    rows, ok = eco.prefs.contour_rows(
        np.tile(f, (nprobe + samples, 1)),
        np.concatenate([np.repeat(np.arange(nprobe) // 8, K), axes]),
        np.concatenate([np.repeat(np.tile(signed, n), K), -0.5 + 1.5 * nudges]),
    )
    # a shift in [0, 0.5)^n keeps a shifted row inside the contour set
    rows[nprobe * K + shifted] += 0.5 * shifts

    # Boundary nudges of f, in (node, axis, delta, sign) order, each over its
    # single node: every other node has w = 0 and adds a signed zero to the
    # mean, which leaves this node's term (nonzero or +0.0, as e > 0 and
    # w_k > 0) as is.
    P = rows[: nprobe * K].reshape(nprobe, K, n)
    nodes, blocks = np.nonzero((ok[: nprobe * K].reshape(nprobe, K) & ~(P.min(axis=2) < 0)).T)
    W, ends = _measured(fam, parts)
    W = np.concatenate([[w_full] * (n + 1), [w_empty, w_full],
                        np.where(np.arange(K) == nodes[:, None], w_full, w_empty), W[place]])
    S = np.concatenate([f + np.eye(n)[:, None, :], [f + 1.0, f, f],
                        np.broadcast_to(f, (len(nodes), K, n)),
                        rows[nprobe * K :].reshape(-1, K, n)])
    S[n + 3 + np.arange(len(nodes)), nodes] = P[blocks, nodes]
    chunks = range(0, len(S), 256)  # which bounds the temporaries
    Z = np.concatenate([_excess(eco, S[i : i + 256], W[i : i + 256]) for i in chunks])
    labels = [f"probe-positive-{i}" for i in range(n)]
    labels += ["probe-ones", "probe-empty", "probe-reflexive"]
    labels += [f"boundary-{k}-{j // 8}" for k, j in zip(nodes.tolist(), blocks.tolist())]
    full = partial(ProductSet.full, K)
    makers = [full] * (n + 1) + [partial(ProductSet.empty, K), full]
    makers += [partial(ProductSet.single, K, k) for k in nodes.tolist()]
    makers += [partial(_coalition, *ends[j]) for j in place.tolist()]
    return [ExcessSample(*sample) for sample in zip(Z, S, W, labels + ["random"] * samples, makers)]


@dataclass(frozen=True)
class PriceSearchResult:
    price: np.ndarray | None
    margin: float  # min_j p . z_j over the sample cloud at the price find_price chose
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


def _envelope_price(Z: np.ndarray) -> np.ndarray:
    """p = (q, 1 - q) with q maximizing the lower envelope F(q) = min_j
    z_j . (q, 1 - q) of the lines g_j(q) = z_j2 + (z_j1 - z_j2) q over
    [0, 1]; see :func:`find_price`."""
    Z = np.ldexp(Z, -np.frexp(np.max(np.abs(Z)))[1])  # exact; |z| < 1, so no slope overflows
    s = Z[:, 0] - Z[:, 1]
    slope, cut = s.tolist(), Z[:, 1].tolist()
    hull, starts = [], []  # the envelope's lines on [0, 1] and where each becomes lowest
    for j in np.argsort(-s).tolist():
        x = 0.0
        while hull:
            # where line j falls below the last line, clipped to [0, 1]; a
            # parallel line (rise = 0) is either below it everywhere or nowhere
            drop, rise = cut[j] - cut[hull[-1]], slope[hull[-1]] - slope[j]
            x = 0.0 if drop <= 0 else 1.0 if drop >= rise else drop / rise
            if x > starts[-1]:
                break
            hull.pop()
            starts.pop()
        hull.append(j)
        starts.append(x)
    for i, j in enumerate(hull):
        if slope[j] <= 0:  # F stops rising here
            end = starts[i + 1] if i + 1 < len(hull) else 1.0
            q = starts[i] if slope[j] < 0 else 0.5 * (starts[i] + end)
            break
    else:
        q = 1.0
    return np.array([q, 1.0 - q])


def _lp_price(Z: np.ndarray) -> np.ndarray:
    """The price of the LP max t s.t. Z p >= t, sum p = 1, p >= 0."""
    m, n = Z.shape
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
        options={"primal_feasibility_tolerance": LP_TOL, "dual_feasibility_tolerance": LP_TOL},
    )
    if res.status != 0:
        raise StructuralError(f"price LP failed: {res.message}")
    p = np.clip(res.x[:n], 0.0, None)
    # the LP's own t carries its feasibility tolerance; the caller decides at p itself
    return p / p.sum()


def find_price(
    eco: Economy, f, samples: int = 200, seed: int = 42
) -> PriceSearchResult:
    """Supporting price for the excess cloud: p >= 0 on the simplex with
    p . z >= -1e-9 for every sampled z; failure carries the violating samples.

    p maximizes the margin min_j p . z_j over the simplex.  One good has the
    one price p = (1,).  Two goods have one free variable, p = (q, 1 - q),
    and the margin is the lower envelope F of the lines g_j(q) = z_j2 +
    (z_j1 - z_j2) q, concave and piecewise linear; its maximum is a break
    point, found in closed form without scipy: the lines sorted by
    decreasing slope, one monotone pass that builds F on [0, 1] (a line
    above F drops out, so of parallel lines only the lowest stays), and q
    the first point where F's slope turns non-positive (q = 1 if it never
    does).  Tie rule: where F's maximum is a flat piece [a, b], q is
    its midpoint (a + b) / 2, so a cloud of lines that are all flat is
    priced (1/2, 1/2).  Three or more goods solve the LP max t s.t. Z p >=
    t, sum p = 1, p >= 0 with HiGHS.

    Rounding, with u = 2^-53 and M = max |z|: the cloud is first scaled by
    a power of two to M < 1, which is exact.  Rounding a slope moves its
    line by at most 2uM on [0, 1], so the envelope of the rounded lines is
    within 2uM of F; a break point x = d / r of two rounded lines is rounded
    by at most 3u relative, which leaves the two lines within 6uM of each
    other at x; and p . z is evaluated within 3uM.  So the returned margin
    is at least the best margin on the cloud, less 16uM.  For every number
    of goods the decision is taken at p itself.
    """
    cloud = sample_excess_points(eco, f, samples, seed)
    Zall = np.array([smp.z for smp in cloud])
    if not Zall.size or np.max(np.abs(Zall)) <= 1e-12:
        raise StructuralError("degenerate sample cloud: all excess points vanish")
    keep = np.max(np.abs(Zall), axis=1) > 1e-12  # z = 0 constrains nothing
    Z = Zall[keep]
    cloud = [smp for smp, k in zip(cloud, keep) if k]
    m, n = Z.shape
    if n <= 2:
        p = np.ones(1) if n == 1 else _envelope_price(Z)
    else:
        p = _lp_price(Z)
    gaps = Z @ p
    margin = float(gaps.min())
    if margin >= -PRICE_TOL:
        return PriceSearchResult(p, margin, m)
    order = np.argsort(gaps)
    violations = [cloud[j] for j in order if gaps[j] < -PRICE_TOL]
    return PriceSearchResult(None, margin, m, violations)


@dataclass(frozen=True)
class WealthDominanceReport:
    """Per-node check p . e(y) <= p . f(y)."""

    passed: bool
    violations: list  # (node, shortfall)
    max_gap: float  # max over nodes of |p.(f - e)| (equality diagnostic)


def check_wealth_dominance(eco: Economy, f, p) -> WealthDominanceReport:
    f = _allocation(eco, f)
    p = _price(eco, p)
    diff = (f - eco.endowment) @ p
    bad = [(int(k), float(-d)) for k, d in enumerate(diff) if d < -PRICE_TOL]
    return WealthDominanceReport(not bad, bad, float(np.max(np.abs(diff))))


# -- improvement machinery ------------------------------------------------------

# the improvement search: tau levels {0, 1/LEVELS, .., 1} on YBLOCKS y-blocks
# of nodes, and the demand rows at DEMAND_GRID steps of the price simplex
LEVELS = 4
YBLOCKS = 8
DEMAND_GRID = 50


@dataclass(frozen=True)
class ImprovementWitness:
    mode: str  # "improve" | "strongly_improve"
    coalition: ProductSet
    allocation: ProductStepFunction
    source: str
    found = True  # a class attribute, not a dataclass field

    def to_dict(self) -> dict:
        """The search report: ``witness`` and ``searched``, as in
        :meth:`ExhaustedReport.to_dict`."""
        return {
            "witness": {
                "mode": self.mode,
                "source": self.source,
                "coalition_sections": [s.to_pairs() for s in self.coalition.sections],
            },
            "searched": None,
        }


def verify_improvement(eco: Economy, f, witness: ImprovementWitness) -> tuple[bool, dict]:
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
        if gap > FEASIBILITY_TOL:
            return False, {"reason": "per-section balance violated", "gap": float(gap)}
    else:
        gap = np.max(np.abs(np.mean(section_int - target, axis=0)))
        if gap > FEASIBILITY_TOL:
            return False, {"reason": "balance violated", "gap": float(gap)}
    return True, {"balance_gap": float(gap)}


@dataclass(frozen=True)
class ExhaustedReport:
    """No verified witness: none exists (``strongly_improve``) or none is in
    the searched family (``improve``)."""

    mode: str
    coalitions: int
    allocations: int
    candidates_checked: int
    found = False  # class attributes, not dataclass fields
    two_level = 0

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


def _block_levels(eco: Economy, rng, budget: int) -> np.ndarray:
    """Level profiles (C, K) of the level-set coalitions: tau quantized to
    {0, 1/LEVELS, .., 1} on YBLOCKS y-blocks of nodes, X itself first, then
    ``budget`` random ones that are not all 0: one ``rng.integers(0, LEVELS +
    1, size=(budget, YBLOCKS))``, its all-zero rows drawn again per round."""
    levels, yblocks = LEVELS, YBLOCKS
    rows = [np.full(yblocks, l / levels) for l in (levels, *range(1, levels))]
    rows += [b * (l / levels) for b in np.eye(yblocks) for l in range(1, levels + 1)]
    rows += list(1.0 - np.eye(yblocks))
    drawn = rng.integers(0, levels + 1, size=(budget, yblocks))
    redo = np.flatnonzero(drawn.max(axis=1) == 0)
    while redo.size:
        drawn[redo] = rng.integers(0, levels + 1, size=(redo.size, yblocks))
        redo = redo[drawn[redo].max(axis=1) == 0]
    edges = np.linspace(0, eco.K, yblocks + 1).astype(int)
    return np.vstack([*rows, drawn / levels])[:, np.repeat(np.arange(yblocks), np.diff(edges))]


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
    eco: Economy, G: np.ndarray, prefers: np.ndarray, W: np.ndarray
) -> np.ndarray:
    """Which sectional candidates G (P, K, n) may improve over the coalitions
    of node measures W (C, K): (C, P); ``prefers`` is ``strict_rows(G, f)``.
    A pair passes when g is strictly preferred wherever w > 0 and, per good,
    the means A of g w and B of e w differ by at most FEASIBILITY_TOL plus
    4 (K + 2) u (A + B), u = eps / 2.  That margin bounds the rounding of
    both balances: a sum of K terms in any order is within (K - 1) u of the
    sum of their magnitudes (Higham 2002, section 4.2), so the screen's gap
    (K products, a sum, a division, a difference) is within (K + 2) u (A + B)
    of the exact one, and the verifier's (K products whose section measure
    can be off in the last bit, K differences, a sum, a division) within
    (K + 4) u (A + B).  So the screen keeps every pair that
    :func:`verify_improvement` accepts."""
    means = (W @ G).transpose(1, 0, 2) / eco.K  # (C, P, n)
    target = (W @ eco.endowment / eco.K)[:, None]
    margin = 2 * (eco.K + 2) * np.finfo(float).eps * (means + target)  # 4 (K + 2) u (A + B)
    balanced = ~(np.max(np.abs(means - target) - margin, axis=2) > FEASIBILITY_TOL)
    return balanced & ~((W > 0) @ ~prefers.T)


def search_improvement(
    eco: Economy,
    f,
    mode: str = "improve",
    budget: int = 500,
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
    balance.  ``budget`` and ``seed`` are unused.

    ``improve`` is a budgeted search of level-set and random coalitions and
    the endowment and demand candidates: the first pair in search order that
    :func:`verify_improvement` accepts, or exhaustion, evidence not proof.
    Its stream: the budget // 5 level profiles of :func:`_block_levels`,
    then the min(20, budget // 10) K section unions of
    :func:`intervals._draw_ends`; every coalition is held as (lo, hi) rows,
    as in :func:`sample_excess_points`.
    """
    if mode not in ("improve", "strongly_improve"):
        raise StructuralError(f"unknown improvement mode {mode!r}")
    budget, seed = _count(budget, "budget"), _count(seed, "seed", 0)
    f = _allocation(eco, f)
    if mode == "strongly_improve":
        endowment = ProductStepFunction.sectional(eco.endowment)
        for k in np.flatnonzero(eco.prefs.strict_rows(eco.endowment, f)):
            S = ProductSet.single(eco.K, int(k))
            witness = ImprovementWitness(mode, S, endowment, "endowment")
            if verify_improvement(eco, f, witness)[0]:
                return witness
        return ExhaustedReport(mode, eco.K, 1, eco.K)

    rng = np.random.default_rng(seed)
    sectionals = list(_sectional_candidates(eco, DEMAND_GRID))
    levels = _level_ends(eco.fam, _block_levels(eco, rng, budget // 5))  # drawn first
    W, ends = _measured(eco.fam, (levels, _draw_ends(rng, min(20, budget // 10) * eco.K)))

    G = np.array([g for g, _ in sectionals])  # (P, K, n)
    passed = _screen_sectionals(eco, G, eco.prefs.strict_rows(G, f), W)
    active = np.flatnonzero(np.any(W > 0, axis=1))
    for c in active:  # a coalition is built only for a candidate it screens in
        for j in np.flatnonzero(passed[c]):
            g, src = sectionals[j]
            S = _coalition(*ends[c])
            witness = ImprovementWitness(mode, S, ProductStepFunction.sectional(g), src)
            ok, _ = verify_improvement(eco, f, witness)
            if ok:
                return witness
    return ExhaustedReport(mode, len(ends), len(sectionals), len(active) * len(sectionals))


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


def check_excess_convexity(
    eco: Economy, f, trials: int = 200, seed: int = 42
) -> ConvexityReport:
    """Constructive convexity of the excess set: mix two samples' generators
    (selections and level profiles), realize the mixed coalition, and compare
    against the straight-line combination."""
    f, trials, seed = _allocation(eco, f), _count(trials, "trials"), _count(seed, "seed", 0)
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
    w = section_measures(eco.fam, full)
    sample = ExcessSample(_excess(eco, s, w), s, w, "dominance-infimum", lambda: full)
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
    fA, fB = indicator_pair(measure_properties(fam.measures[k]).witness)
    zero = StepFunction.constant(0.0)

    def on_node(section: StepFunction) -> ProductStepFunction:
        return ProductStepFunction(tuple(section if j == k else zero for j in range(fam.K)))

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
    """The first single-node coalition whose integrals, as computed, violate
    integral-of-f <= integral-of-g; None when none does (so when f <= g)."""
    K = fam.K
    f, g = _array(f, "f", (K,)), _array(g, "g", (K,))
    for k in np.flatnonzero(f > g).tolist():
        H = ProductSet.single(K, k)
        lhs, rhs = integrate_sectional_over(fam, f, H), integrate_sectional_over(fam, g, H)
        if lhs > rhs:
            return OrderViolationWitness(k, H, lhs, rhs)
    return None
