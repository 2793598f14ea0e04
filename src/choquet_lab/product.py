"""Decomposable measures on [0,1] x [0,1] and their Fubini decomposition.

The y-axis carries K uniform midpoint nodes y_k = (k - 1/2) / K; a
decomposable measure is the y-average of per-node fuzzy measures:

    m(H) = (1/K) * sum_k mu_k(H_k)

Three family modes are supported.  ``homothetic`` (one distortion shared by
every node, possibly rescaled per node) and ``sectioned`` (shared block
partition of X, per-node block weights) admit a single chain X_t with
mu_k(X_t) = t * mu_k(X) for every node simultaneously, which is what makes
level-set construction and range convexity work; ``heterogeneous`` families
integrate fine but refuse those constructions.  A family groups its nodes by
measure shape once, and the node measures and the kernel batch each group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .choquet import StepFunction, _choquet_block, _keys, _overlaps
from .errors import StructuralError, UnsupportedFamilyError, _array, _count
from .intervals import IntervalSet, _ends, _from_ends, _lengths
from .lp import linprog
from .measures import Distortion, FuzzyMeasure, _block_lengths, _masses, _pow
from .measures import _chain_ends as _measure_chain_ends

DEFAULT_K = 100
REALIZE_TOL = 1e-6  # end-to-end tolerance for range realization
MAX_TNODES = 2**52  # fubini_check: c + 0.5 is exact for every node index c
_CHUNK = 2**14  # float64 entries per kernel chunk: whole nodes, sized to stay in cache


@dataclass(frozen=True)
class SectionFamily:
    """A y-grid of fuzzy measures mu_{y_k} defining the product measure."""

    mode: str  # "homothetic" | "sectioned" | "heterogeneous"
    measures: tuple[FuzzyMeasure, ...]
    normalized: bool = False
    # (node indices, first node's measure) per measure shape: a distortion's
    # (kind, alpha, knots), its scale aside, or a block partition by value
    _groups: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("homothetic", "sectioned", "heterogeneous"):
            raise StructuralError(f"unknown family mode {self.mode!r}")
        if not self.measures:
            raise StructuralError("need at least one y-node")
        if self.normalized:
            for mu in self.measures:
                if abs(mu.total - 1.0) > 1e-12:
                    raise StructuralError("normalized family needs mu_y(X) = 1 at every node")
        groups: dict[object, list[int]] = {}
        for k, mu in enumerate(self.measures):
            g = mu.distortion
            key = (g.kind, g.alpha, g.knots) if mu.mode == "distorted" else mu.blocks
            groups.setdefault(key, []).append(k)
        shape = {"homothetic": "distorted", "sectioned": "sectioned"}.get(self.mode)
        if shape and (len(groups) > 1 or self.measures[0].mode != shape):
            raise StructuralError(f"a {self.mode} family needs one {shape} measure shape")
        object.__setattr__(self, "_groups", tuple(
            (np.array(nodes), self.measures[nodes[0]]) for nodes in groups.values()))

    # -- constructors ---------------------------------------------------

    @staticmethod
    def homothetic(
        distortion: Distortion,
        K: int = DEFAULT_K,
        scales=None,
        normalized: bool = True,
    ) -> "SectionFamily":
        K = _count(K, "K")
        if normalized and scales is not None:
            raise StructuralError("normalized homothetic families cannot carry free scales")
        if normalized:
            # A distortion already normalized to the tolerance __post_init__
            # checks is kept, so normalizing twice (as an io round trip
            # does) changes no scale.
            if abs(distortion(1.0) - 1.0) > 1e-12:
                distortion = replace(distortion, scale=distortion.scale / distortion(1.0))
            measures = (FuzzyMeasure.distorted(distortion),) * K
        elif scales is None:
            measures = (FuzzyMeasure.distorted(distortion),) * K
        else:
            measures = tuple(
                FuzzyMeasure.distorted(replace(distortion, scale=distortion.scale * s))
                for s in _array(scales, "scales", (K,), sign="positive")
            )
        return SectionFamily("homothetic", measures, normalized)

    @staticmethod
    def sectioned(blocks, node_weights, normalized: bool = True) -> "SectionFamily":
        blocks = tuple(blocks)
        W = _array(node_weights, "node_weights", (None, len(blocks)))
        with np.errstate(over="ignore"):
            sums = W.sum(axis=1, keepdims=True)
        if not np.all(sums > 0):
            raise StructuralError("node_weights must have positive row sums")
        if not np.isfinite(sums).all():
            raise StructuralError("a row sum of node_weights, the measure of [0,1), overflows")
        if normalized:
            # as in homothetic: a row already normalized to the tolerance
            # __post_init__ checks is kept, so an io round trip moves no weight
            W = np.where(np.abs(sums - 1.0) <= 1e-12, W, W / sums)
        # one measure per distinct row (by its bits), shared by that row's nodes
        shared: dict[bytes, FuzzyMeasure] = {}
        for row in W:
            if row.tobytes() not in shared:
                shared[row.tobytes()] = FuzzyMeasure.sectioned(blocks, row)
        measures = tuple(shared[row.tobytes()] for row in W)
        return SectionFamily("sectioned", measures, normalized)

    @staticmethod
    def from_y_intervals(
        blocks, yintervals, K: int = DEFAULT_K, normalized: bool = True
    ) -> "SectionFamily":
        """Finite-sections construction: node y_k in J_i carries the measure
        supported on block E_i alone."""
        K = _count(K, "K")
        ys = (np.arange(K) + 0.5) / K
        W = np.zeros((K, len(blocks)))
        for i, (a, b) in enumerate(yintervals):
            W[(ys >= a) & (ys < b), i] = 1.0
        if not np.all(W.sum(axis=1) > 0):
            raise StructuralError("yintervals must cover every y-node exactly once")
        return SectionFamily.sectioned(blocks, W, normalized)

    @staticmethod
    def heterogeneous(measures) -> "SectionFamily":
        measures = tuple(measures)
        normalized = all(abs(mu.total - 1.0) <= 1e-12 for mu in measures)
        return SectionFamily("heterogeneous", measures, normalized)

    # -- queries ----------------------------------------------------------

    @property
    def K(self) -> int:
        return len(self.measures)

    @property
    def ygrid(self) -> np.ndarray:
        return (np.arange(self.K) + 0.5) / self.K

    @property
    def convex_type(self) -> bool:
        return self.mode in ("homothetic", "sectioned")

    @property
    def totals(self) -> np.ndarray:
        return np.array([mu.total for mu in self.measures])

    @property
    def blocks(self) -> tuple[IntervalSet, ...] | None:  # a sectioned family's partition
        return self._groups[0][1].blocks if self.mode == "sectioned" else None


@dataclass(frozen=True)
class ProductSet:
    """Measurable subset of X x [0,1]: one x-section per y-node."""

    sections: tuple[IntervalSet, ...]

    @staticmethod
    def empty(K: int) -> "ProductSet":
        return ProductSet((IntervalSet.empty(),) * _count(K, "K"))

    @staticmethod
    def full(K: int) -> "ProductSet":
        return ProductSet((IntervalSet.full(),) * _count(K, "K"))

    @staticmethod
    def single(K: int, k: int) -> "ProductSet":
        """X on node k and the empty set on every other node."""
        K = _count(K, "K")
        if isinstance(k, (int, np.integer)) and not isinstance(k, bool) and not 0 <= k < K:
            raise StructuralError(f"node {k} is outside 0..{K - 1}")
        k = _count(k, "node", 0, K - 1)  # an index that is no integer
        empty = IntervalSet.empty()
        return ProductSet(tuple(IntervalSet.full() if j == k else empty for j in range(K)))

    @property
    def K(self) -> int:
        return len(self.sections)


@dataclass(frozen=True)
class ProductStepFunction:
    """f(., y_k) as a step function per node; scalar or vector-valued."""

    sections: tuple[StepFunction, ...]

    def __post_init__(self):
        shapes = {s.values.shape[1:] for s in self.sections}  # a value's shape, per section
        if len(shapes) > 1:
            mixed = ", ".join(map(str, sorted(shapes)))
            raise StructuralError(f"sections of mixed value shapes: {mixed}")

    @staticmethod
    def sectional(values) -> "ProductStepFunction":
        """f(x,y) = phi(y): one constant section per node."""
        phi = _array(values, "phi", (None,), (None, None))
        return ProductStepFunction(tuple(StepFunction.constant(v) for v in phi))

    @staticmethod
    def uniform(f: StepFunction, K: int) -> "ProductStepFunction":
        """Same x-profile at every node."""
        return ProductStepFunction((f,) * _count(K, "K"))

    @staticmethod
    def sectional_on(values, H: ProductSet) -> "ProductStepFunction":
        """phi(y) * 1_H as a product step function."""
        phi = _array(values, "phi", (H.K,), (H.K, None))
        return ProductStepFunction(
            tuple(StepFunction.constant(v).restrict(sec) for v, sec in zip(phi, H.sections))
        )

    @staticmethod
    def separable(gx: StepFunction, hy) -> "ProductStepFunction":
        """f(x,y) = g(x) * h(y) with h per node (scalar or vector)."""
        h = _array(hy, "hy", (None,), (None, None))
        if h.ndim == 1:
            return ProductStepFunction(tuple(gx.scaled(float(c)) for c in h))
        sections = []
        for row in h:
            vals = gx.values[:, None] * row[None, :]
            sections.append(StepFunction(gx.cells, vals, validate=False))
        return ProductStepFunction(tuple(sections))

    @property
    def K(self) -> int:
        return len(self.sections)

    @property
    def is_vector(self) -> bool:
        return self.sections[0].is_vector

    @property
    def max_value(self) -> float:
        return max(s.max_value for s in self.sections)


def _check_sections(fam: SectionFamily, K: int):
    if K != fam.K:
        raise StructuralError(f"section-count mismatch: family has {fam.K}, got {K}")


def as_sectional(values, fam: SectionFamily) -> np.ndarray:
    """Validate a sectional function given as per-node values."""
    return _array(values, "phi", (fam.K,), (fam.K, None))


def section_measures(fam: SectionFamily, H: ProductSet) -> np.ndarray:
    """The node-measure vector mu_k(H_k), k = 0..K-1, from the end points
    of the sections by :func:`_node_measures`: every entry is the scalar
    ``mu(section)``, so the vector equals the per-node loop."""
    _check_sections(fam, H.K)
    return _node_measures(fam, *_ends(H.sections))


def _node_measures(fam: SectionFamily, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """mu_k(H_k) for sections given as pieces [lo, hi) (..., K, pieces),
    padded with [0, 0): bit for bit the scalar mu of the sets they make,
    when the pieces are the sets' intervals left to right (within each
    block, for a sectioned measure).  As mu does, g takes the length, and
    a sectioned measure's mass is :func:`measures._masses` of the overlaps
    from :func:`measures._block_lengths`.  Each of the family's measure
    shapes is one pass, with every node's own scale or weights."""
    out = np.empty(lo.shape[:-1])
    for nodes, mu in fam._groups:
        idx = nodes if len(nodes) < fam.K else slice(None)
        a, b = lo[..., idx, :], hi[..., idx, :]
        if mu.mode == "distorted":  # scale * base, a power base by scalar pow, as mu takes it
            g, length = mu.distortion, _lengths(a, b)
            base = _pow(length, g.alpha) if g.kind == "power" else g._base(length)
            out[..., idx] = np.array([fam.measures[k].distortion.scale for k in nodes]) * base
            continue
        weights = np.array([fam.measures[k].weights for k in nodes])
        out[..., idx] = _masses(_block_lengths(a, b, mu.blocks), weights, mu.blocks)
    return out


def product_measure(fam: SectionFamily, H: ProductSet) -> float:
    """m(H): midpoint-rule average of the per-node section measures."""
    return float(np.mean(section_measures(fam, H)))


def _chunks(fam: SectionFamily, f: ProductStepFunction, dims: int, nodes: list[int]):
    """The kernel over the block ``nodes``, in chunks of whole nodes of
    about _CHUNK float64 entries, sized from cells x components and not
    from the number of nodes.  A vector f has one row per node and
    component, node-major, and a chunk stacks its own section values.  The
    cell overlaps are read once for the block (:func:`choquet._overlaps`)
    and each chunk takes its own keys from them (:func:`choquet._keys`), so
    the keys are never an array of the block's size, and a node's integral
    is ``choquet`` of its section, whatever its chunk and block.

    Yields per chunk (part, integrals (nodes, components), v, L): ``part``
    is the chunk's slice of ``nodes``, (v, L) its rows of the threshold
    table.
    """
    cells = f.sections[nodes[0]].cells
    overlaps = _overlaps(fam.measures[nodes[0]], cells)
    per = max(1, _CHUNK // max(1, len(cells) * dims))  # nodes per chunk
    for start in range(0, len(nodes), per):
        part = nodes[start:start + per]
        values = np.array([f.sections[k].values for k in part])
        values = values.reshape(len(part), len(cells), dims).transpose(0, 2, 1)
        measures = [fam.measures[k] for k in part for _ in range(dims)]
        out, v, L = _choquet_block(values.reshape(len(measures), len(cells)),
                                   *_keys(measures, overlaps))
        yield slice(start, start + per), out.reshape(-1, dims), v, L


def _node_tables(fam: SectionFamily, f: ProductStepFunction, dt=(), tnodes: int = 0, scale=1.0):
    """Per-node integrals (K, components) of f, chunk by chunk, and, given
    one t-node spacing dt[i] per component i, the quadrature sums of
    :func:`fubini_check` before their factor dt / K, times ``scale``.

    Nodes of one measure shape (:class:`SectionFamily` groups them) whose
    sections share one partition object (as ``uniform``, ``separable``,
    ``sectional`` and ``on_grid`` sections do) form one block, walked by
    :func:`_chunks`; a section with a partition of its own is a block of
    one.  Each chunk counts the t-nodes below each v_j of its rows of the
    threshold table (:func:`_tnode_counts`); those in [v_{j+1}, v_j) see the
    level L_j.  It writes count_j * scale * L_j, the count scaled first,
    into its rows of one (nodes x cells) array per block and
    component, and its table is then dropped.  A finished block's arrays are
    summed with one np.sum each and the blocks added in order: the sums of
    the whole tables, so the quadrature keeps the bits of a whole-table
    pass, and its memory is one such array, not the tables.

    Returns (integrals, sums).
    """
    dims = f.sections[0].values.shape[1] if f.is_vector else 1
    integrals = np.empty((f.K, dims))
    totals = np.zeros(len(dt))
    blocks: dict[tuple, list[int]] = {}
    for g, (nodes, _) in enumerate(fam._groups):
        for k in nodes.tolist():
            blocks.setdefault((g, id(f.sections[k].cells)), []).append(k)
    for nodes in blocks.values():
        products = np.empty((len(dt), len(nodes), len(f.sections[nodes[0]].cells)))
        for part, out, v, L in _chunks(fam, f, dims, nodes):
            integrals[nodes[part]] = out
            for i, step in enumerate(dt):
                below = _tnode_counts(v[i::dims], step, tnodes)  # t-nodes t < v_j
                counts = products[i, part]  # t-nodes in [v_{j+1}, v_j), then times L_j
                np.subtract(below[:, :-1], below[:, 1:], out=counts[:, :-1])
                counts[:, -1:] = below[:, -1:]
                counts *= scale
                counts *= L[i::dims]
        totals += [np.sum(p) for p in products]
    return integrals, totals


def _mean(x: np.ndarray, axis=None):
    """np.mean(x, axis) for axis None or 0.  np.mean sums before it divides,
    so the mean of finite values can overflow; it is then taken again on
    x / max|x|, which cannot.  Every finite mean, of each column too, keeps
    its bits."""
    with np.errstate(over="ignore"):
        mean = np.mean(x, axis=axis)
    if np.isfinite(mean).all() or not np.isfinite(x).all():
        return mean
    top = np.abs(x).max(axis=axis)
    top = np.where(top > 0, top, 1.0)
    return np.where(np.isfinite(mean), mean, np.mean(x / top, axis=axis) * top)


def integrate_product(fam: SectionFamily, f: ProductStepFunction):
    """Iterated integral (1/K) sum_k choquet(f(., y_k), mu_k)."""
    _check_sections(fam, f.K)
    integrals = _node_tables(fam, f)[0]
    return _mean(integrals, axis=0) if f.is_vector else float(_mean(integrals))


def integrate_sectional_over(fam: SectionFamily, phi, H: ProductSet):
    """Integral of the sectional function phi over H:
    (1/K) sum_k phi(y_k) * mu_k(H_k), componentwise."""
    phi = as_sectional(phi, fam)
    w = section_measures(fam, H)
    if phi.ndim == 1:
        return float(_mean(phi * w))
    return _mean(phi * w[:, None], axis=0)


@dataclass(frozen=True)
class FubiniReport:
    lhs: float  # direct t-quadrature of t -> avg_k mu_k([f_k > t])
    rhs: float  # iterated per-section integral
    tnodes: int

    @property
    def deviation(self) -> float:
        return abs(self.lhs - self.rhs)

    def to_dict(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "tnodes": self.tnodes,
            "deviation": self.deviation,
        }


def _tnode_counts(v: np.ndarray, dt: float, tnodes: int) -> np.ndarray:
    """#{i < tnodes : (i + 0.5) * dt < v} for every entry of v >= 0, which is
    np.searchsorted((np.arange(tnodes) + 0.5) * dt, v), without the array.

    Let dt > 0 and y = v/dt exactly.  Node i, the rounded (i + 0.5) * dt, is
    within dt/2 of the exact product: a normal result is off by at most
    2**-53 of it and i + 0.5 < 2**52, a subnormal one by at most
    2**-1075 <= dt/2.  So node i is below v when i + 1 < y and not when
    i >= y, and the count is ceil(y) - 1 or ceil(y), clipped to
    [0, tnodes].  The guess is ceil(fl(v/dt) - 0.5); the quotient is
    finite, as dt >= M/tnodes * 2/3 gives y <= 1.5 * tnodes.  For
    y < 2**52 the rounded quotient q is within 1/4 of y and q - 0.5 is exact
    when q >= 1/4 (below, the guess is 0), so the guess is also ceil(y) - 1
    or ceil(y); for y >= 2**52 it is at least tnodes and the count at least
    tnodes - 1.  Clipped to [0, tnodes - 1], the guess is within one of the
    count, and one step each way lands on it: the steps compare v with
    nodes c and c - 1, built by the same float operations (c + 0.5) * dt and
    (c - 0.5) * dt.  The down step needs c > 0, as -0.5 * dt rounds to -0.0
    at dt = 2**-1074.  When M/tnodes underflows to dt = 0, every node is 0.0.

    The counts are float64: integers below 2**53, so exact, and the steps
    and the caller's products run in place on them, with no integer array
    and no conversion.  A zero count may be -0.0, the ceiling of -0.5; it
    compares, subtracts and adds as 0.
    """
    if dt == 0.0:
        return np.where(v > 0.0, float(tnodes), 0.0)
    c = v / dt
    c -= 0.5
    np.ceil(c, out=c)
    np.minimum(c, tnodes - 1, out=c)  # c >= ceil(-0.5) = -0.0 already
    node = c + 0.5
    node *= dt
    c += node < v
    np.subtract(c, 0.5, out=node)
    node *= dt
    c -= (node >= v) & (c > 0)
    return c


def fubini_check(fam: SectionFamily, f: ProductStepFunction, tnodes: int = 10_000) -> FubiniReport:
    """Compare both integration orders for f on the product space.

    The left side integrates t -> (1/K) sum_k mu_k([f_k > t]) by midpoint
    quadrature on [0, M], M = max f, with ``tnodes`` nodes (an integer from
    100 to 2**52); the right side is :func:`integrate_product`.  Both come
    from one chunked kernel pass (:func:`_node_tables`): a t-node in
    [v_{j+1}, v_j) of a node's threshold table sees that node's level L_j,
    so the quadrature sum counts the t-nodes below each v_j instead of
    visiting every node, and :func:`_tnode_counts` computes each count from
    v_j / dt, equal to a search of the t-node array, so no array of t-nodes
    is built.  M, the largest v_0, is the largest value of f, taken as the
    largest of each distinct section's maxima, so dt is known before the
    first chunk runs.  Every node's keys come from its own measure
    (:func:`choquet._keys`), so its integral is ``choquet`` of its section.
    The sum cannot overflow: each count is scaled by 2**-e, fixed before the
    pass with e = max(0, e_top + K.bit_length() + tnodes.bit_length() - 1020)
    for the largest total < 2**e_top, as a node's counts add up to at most
    tnodes and its levels to at most its total.  So lhs = sum / K * dt * 2**e
    scales with the family by powers of two exactly, and e = 0 while
    K * tnodes * max total < 2**1017.  A vector f reports its component with
    the largest deviation.
    """
    _check_sections(fam, f.K)
    tnodes = _count(tnodes, "tnodes", 100, MAX_TNODES)
    sections = {id(s): s for s in f.sections}.values()  # each distinct section once
    M = np.max([s.values.max(axis=0, initial=0.0) for s in sections], axis=0).reshape(-1)
    dt = M / tnodes
    top = math.frexp(fam.totals.max())[1]
    e = max(0, top + fam.K.bit_length() + tnodes.bit_length() - 1020)
    integrals, sums = _node_tables(fam, f, dt, tnodes, 2.0**-e)
    with np.errstate(over="ignore"):
        lhs = sums / fam.K * dt * 2.0**e
    reports = [FubiniReport(float(lhs[i]) if largest > 0 else 0.0,
                            float(_mean(integrals[:, i])), tnodes)
               for i, largest in enumerate(M.tolist())]
    return max(reports, key=lambda r: r.deviation)


@dataclass(frozen=True)
class CommutationReport:
    """Deviations of p . integral(f) from integral(p . f)."""

    deviations: dict
    max_deviation: float


def check_price_commutation(
    fam: SectionFamily, p, phi, gx: StepFunction | None = None
) -> CommutationReport:
    """Exact commutation of a price vector with the product integral.

    Checks the sectional case phi and, when ``gx`` is given, the separable
    case f(x,y) = g(x) * phi(y).
    """
    p = _array(p, "p", (None,))
    phi = _array(phi, "phi", (fam.K, len(p)))
    devs = {}

    vec = integrate_sectional_over(fam, phi, ProductSet.full(fam.K))
    scalar = integrate_sectional_over(fam, phi @ p, ProductSet.full(fam.K))
    devs["sectional"] = abs(float(p @ vec) - scalar)

    if gx is not None:
        fvec = ProductStepFunction.separable(gx, phi)
        fscal = ProductStepFunction.separable(gx, phi @ p)
        devs["separable"] = abs(float(p @ integrate_product(fam, fvec)) - integrate_product(fam, fscal))

    return CommutationReport(devs, max(devs.values()))


def product_set_from_levels(fam: SectionFamily, levels) -> ProductSet:
    """H with mu_k(H_k) = levels[k] * mu_k(X), built on the uniform chain.

    Nodes with equal levels share one chain set, built once.
    """
    levels = _array(levels, "levels (one number per node)", (fam.K,), sign=None)
    if not (levels.min() >= -1e-12 and levels.max() <= 1 + 1e-12):
        raise StructuralError("levels must lie in [0,1]")
    ts, back = np.unique(levels, return_inverse=True)
    chains = [_from_ends(a, b) for a, b in zip(*_chain_ends(fam, ts))]
    return ProductSet(tuple(chains[i] for i in back.tolist()))


def _chain_ends(fam: SectionFamily, levels) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), each (levels, pieces): the uniform chain X_t at every level
    t, that is the chain of node 0's measure on X (:func:`measures._chain_ends`):
    a homothetic family's prefix of length g^{-1}(t g(1)) is every node's
    chain, and so is a sectioned family's prefix of length t |E_i| of every
    block E_i."""
    if not fam.convex_type:
        raise UnsupportedFamilyError("heterogeneous families are not uniformly filtering")
    return _measure_chain_ends(fam.measures[0], IntervalSet.full(), levels)


@dataclass(frozen=True)
class RangeResult:
    """Outcome of realizing a target vector as an integral over some set."""

    feasible: bool
    levels: np.ndarray | None
    product_set: ProductSet | None
    achieved: np.ndarray | None
    deviation: float | None
    separating_direction: np.ndarray | None

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "levels": None if self.levels is None else self.levels.tolist(),
            "achieved": None if self.achieved is None else np.atleast_1d(self.achieved).tolist(),
            "deviation": self.deviation,
            "separating_direction": None
            if self.separating_direction is None
            else self.separating_direction.tolist(),
        }


def _realize_levels(fam: SectionFamily, phi, levels, target) -> RangeResult:
    """The set ``levels`` builds and its integral, feasible within
    REALIZE_TOL * max(1, max |target|) of ``target``: past |target| ~ 1e10
    REALIZE_TOL alone is below the float spacing of the target."""
    H = product_set_from_levels(fam, levels)
    achieved = np.atleast_1d(integrate_sectional_over(fam, phi, H))
    deviation = float(np.max(np.abs(achieved - target)))
    feasible = deviation <= REALIZE_TOL * max(1.0, float(np.max(np.abs(target))))
    return RangeResult(feasible, levels, H, achieved, deviation, None)


def range_realize(fam: SectionFamily, phi, target) -> RangeResult:
    """Realize ``target`` as integral of the sectional phi over some H, or
    produce a separating direction showing it is out of range.

    The candidate integrals are (1/K) sum_k tau_k * u_k with tau_k in [0,1]
    and u_k = phi(y_k) * mu_k(X), and any feasible tau is turned into an
    actual set via the uniform chain.  A vector target decides feasibility
    with a small box-constrained LP in the levels tau_k.  A scalar target T
    (phi >= 0) needs none: the candidates fill [0, a] with a = mean(u), so
    the LP's optimum is max(0, -T, T - a), one level T/a on every node
    realizes any T in [0, a], and d = +1 (T > a) or d = -1 (T < 0)
    separates the rest, d * T > mean(max(0, d * u)).
    """
    if not fam.convex_type:
        raise UnsupportedFamilyError("range realization needs a convex-type family")
    if not fam.normalized:
        raise UnsupportedFamilyError("range realization needs a normalized family")
    phi = as_sectional(phi, fam)
    U = (phi if phi.ndim == 2 else phi[:, None]) * fam.totals[:, None]  # (K, n)
    K, n = U.shape
    shapes = ((1,), ()) if n == 1 else ((n,),)  # a scalar target for a scalar phi
    target = _array(target, "target", *shapes, sign=None).reshape(n)

    if n == 1:
        T, a = float(target[0]), float(_mean(U))
        if max(0.0, -T, T - a) > 1e-8:
            return RangeResult(False, None, None, None, None, np.array([1.0 if T > a else -1.0]))
        level = min(max(T, 0.0), a) / a if a > 0 else 0.0
        return _realize_levels(fam, phi, np.full(K, level), target)

    # min s  s.t.  |U^T tau / K - target| <= s componentwise, tau in [0,1]
    c = np.zeros(K + 1)
    c[-1] = 1.0
    A = U.T / K  # (n, K)
    A_ub = np.block([[A, -np.ones((n, 1))], [-A, -np.ones((n, 1))]])
    b_ub = np.concatenate([target, -target])
    bounds = [(0.0, 1.0)] * K + [(0.0, None)]
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 0 and res.fun <= 1e-8:
        result = _realize_levels(fam, phi, np.clip(res.x[:K], 0.0, 1.0), target)
        if result.feasible:
            return result

    # infeasible: find d with d.target > sup_{H} d.integral = (1/K) sum max(0, d.u_k)
    #   max d.target - (1/K) sum_k m_k   s.t. m_k >= 0, m_k >= d.u_k, |d| <= 1
    c2 = np.concatenate([-target, np.full(K, 1.0 / K)])
    A2 = np.hstack([U, -np.eye(K)])  # d.u_k - m_k <= 0
    b2 = np.zeros(K)
    bounds2 = [(-1.0, 1.0)] * n + [(0.0, None)] * K
    res2 = linprog(c2, A_ub=A2, b_ub=b2, bounds=bounds2, method="highs")
    direction = res2.x[:n] if res2.status == 0 else None
    return RangeResult(False, None, None, None, None, direction)
