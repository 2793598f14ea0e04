"""Exact Choquet integration of non-negative step functions.

For a step function the Riemann integrand t -> mu([f > t]) is itself a step
function.  With the cells sorted by value, v_1 >= v_2 >= ... >= v_n and
v_{n+1} = 0, the sorted-threshold sum

    sum_j (v_j - v_{j+1}) * mu(first j cells)

is exact; a run of equal values only adds zero drops.  Every measure here is
mu(A) = G(sum of per-cell keys over the cells of A).  A distorted measure
has the cell lengths as keys and its distortion as G.  A sectioned one has
the cell masses sum_i w_i |cell ∩ E_i| / |E_i| as keys and G = identity.
So one private kernel, :func:`_choquet_block`, integrates a
(rows x cells) array of functions that share one partition: one integer
sort per row of keys that pack each value's bits with its cell index (redone
by a stable argsort when a row has equal or nearly equal values, so the
order is always the stable one), one cumulative sum of the keys and one
vectorised G.  It returns the integrals together with the threshold table.
Its keys come from :func:`_keys`, which takes them from the cell overlaps
that :func:`_overlaps` reads off the partition's padded end points
(``intervals._ends``, kept per partition object by :func:`_cell_ends`): the
lengths of ``intervals._lengths``, or the block overlaps |cell ∩ E_i| of
``measures._block_lengths``, which ``measures._masses`` turns into masses
block by block, as the scalar mu adds them, once per distinct weight row.
So no superlevel set is ever built, and every step sees one row
at a time: a row's keys, integral and table do not depend on the rows
beside it.  :func:`choquet` runs the kernel with one row per component;
``product.integrate_product`` and ``product.fubini_check`` run it on chunks
of whole y-nodes of about 2**14 float64 entries (``product._CHUNK``), each
chunk with its own keys, so a node's integral is ``choquet`` of its section.
:func:`riemann_choquet` is the deliberately independent brute-force
companion built on explicit interval-set unions.  :func:`integral_properties`
decides the classical properties of the integral from the measure alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError, _array, _count
from .intervals import IntervalSet, _ends, _lengths, uniform_partition
from .measures import FuzzyMeasure, _block_lengths, _masses, measure_properties

_WHOLE = (IntervalSet.full(),)  # the one-cell partition of every constant


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant f >= 0 on cells partitioning [0,1).

    ``values`` has shape (ncells,) for scalar functions or (ncells, n) for
    vector ones; integration is componentwise in the vector case.
    """

    cells: tuple[IntervalSet, ...]
    values: np.ndarray

    def __init__(self, cells, values, validate: bool = True):
        cells = tuple(cells)
        values = _array(values, "step function values", (len(cells),), (len(cells), None))
        if validate:
            pieces = sorted(iv for c in cells for iv in c.intervals)
            cursor = 0.0
            for a, b in pieces:
                if abs(a - cursor) > 1e-12:
                    raise StructuralError("cells must partition [0,1) without gaps/overlaps")
                cursor = b
            if abs(cursor - 1.0) > 1e-12:
                raise StructuralError("cells must cover [0,1)")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "values", values)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(value) -> "StepFunction":
        """f = value on [0,1): a number, or a vector for a vector f.  Every
        constant shares one partition object, so a product function of
        constant sections is one kernel block."""
        return StepFunction(_WHOLE, [value], validate=False)

    @staticmethod
    def indicator(A: IntervalSet, height: float = 1.0) -> "StepFunction":
        if A.is_empty:
            return StepFunction.constant(0.0)
        comp = A.complement()
        if comp.is_empty:
            return StepFunction.constant(height)
        return StepFunction((A, comp), np.array([height, 0.0]), validate=False)

    @staticmethod
    def on_grid(values) -> "StepFunction":
        """``values`` (n,) or (n, *) on the n >= 1 equal cells of [0,1)."""
        try:
            n = max(len(values), 1)
        except TypeError:  # no length: the values check names the argument
            n = 1
        return StepFunction(uniform_partition(n), values, validate=False)

    @staticmethod
    def from_samples(fn, ncells: int) -> "StepFunction":
        ncells = _count(ncells, "ncells")
        mids = (np.arange(ncells) + 0.5) / ncells
        return StepFunction.on_grid([fn(x) for x in mids])

    # -- queries ----------------------------------------------------------

    @property
    def is_vector(self) -> bool:
        return self.values.ndim == 2

    @property
    def max_value(self) -> float:
        return float(self.values.max()) if self.values.size else 0.0

    def component(self, i: int) -> "StepFunction":
        return StepFunction(self.cells, self.values[:, i], validate=False)

    def value_at(self, x: float):
        for cell, v in zip(self.cells, self.values):
            if cell.contains_point(x):
                return v
        raise StructuralError(f"point {x} not covered")

    # -- pointwise algebra (non-negative results only) ---------------------

    def scaled(self, c: float) -> "StepFunction":
        if c < 0:
            raise StructuralError("scalar must be non-negative")
        return StepFunction(self.cells, c * self.values, validate=False)

    def shifted(self, c: float) -> "StepFunction":
        return StepFunction(self.cells, self.values + c, validate=False)

    def clipped(self, c: float) -> "StepFunction":
        """Pointwise min(f, c)."""
        return StepFunction(self.cells, np.minimum(self.values, c), validate=False)

    def excess_over(self, c: float) -> "StepFunction":
        """Pointwise f - min(f, c) = max(f - c, 0)."""
        return StepFunction(self.cells, np.maximum(self.values - c, 0.0), validate=False)

    def restrict(self, A: IntervalSet) -> "StepFunction":
        """f * 1_A as a step function."""
        comp = A.complement()
        cells: list[IntervalSet] = []
        rows = []
        for cell, v in zip(self.cells, self.values):
            part = cell.intersection(A)
            if not part.is_empty:
                cells.append(part)
                rows.append(v)
        if not comp.is_empty:
            cells.append(comp)
            rows.append(np.zeros_like(self.values[0]))
        return StepFunction(tuple(cells), np.array(rows), validate=False)

    def __add__(self, other: "StepFunction") -> "StepFunction":
        if self.cells is other.cells or self.cells == other.cells:
            return StepFunction(self.cells, self.values + other.values, validate=False)
        cells: list[IntervalSet] = []
        rows = []
        for c, v in zip(self.cells, self.values):
            for d, w in zip(other.cells, other.values):
                part = c.intersection(d)
                if not part.is_empty:
                    cells.append(part)
                    rows.append(v + w)
        return StepFunction(tuple(cells), np.array(rows), validate=False)


def superlevel_set(f: StepFunction, t: float) -> IntervalSet:
    """[f > t] as an explicit IntervalSet (scalar f)."""
    out = IntervalSet.empty()
    for cell, v in zip(f.cells, f.values):
        if v > t:
            out = out.union(cell)
    return out


# -- the sorted-threshold kernel ---------------------------------------------


_ENDS_CACHED = 8  # partitions whose end points _overlaps keeps
_ends_cache: dict[int, tuple] = {}  # id(cells) -> (cells, lo, hi), oldest first


def _cell_ends(cells) -> tuple[np.ndarray, np.ndarray]:
    """:func:`intervals._ends` of the partition ``cells``, read once per
    partition object: the last _ENDS_CACHED partitions keep theirs.  An
    entry holds its partition, so no other partition can take its ``id``
    while it is cached.  The end points are read-only."""
    hit = _ends_cache.get(id(cells))
    if hit is None:
        lo, hi = _ends(cells)
        lo.flags.writeable = hi.flags.writeable = False
        if len(_ends_cache) >= _ENDS_CACHED:
            del _ends_cache[next(iter(_ends_cache))]
        hit = _ends_cache[id(cells)] = (cells, lo, hi)
    return hit[1], hit[2]


def _overlaps(mu: FuzzyMeasure, cells) -> np.ndarray:
    """What the keys of rows of ``mu``'s shape are made of, from the end
    points of the partition ``cells`` (:func:`_cell_ends`): the cell lengths
    (cells,) of :func:`intervals._lengths` for a distorted shape, the block
    overlaps |cell ∩ E_i| (cells, blocks) of :func:`measures._block_lengths`
    for a sectioned one."""
    lo, hi = _cell_ends(cells)
    return _lengths(lo, hi) if mu.mode == "distorted" else _block_lengths(lo, hi, mu.blocks)


def _keys(measures, overlaps: np.ndarray):
    """The kernel's (keys, levels) for rows measured by ``measures``, one
    per row, all of one shape, on cells with the :func:`_overlaps`
    ``overlaps``: the entry to :func:`_choquet_block`.

    Distorted rows share the cell lengths as keys, and row r's levels are
    its scale times the shape's base.  Sectioned rows have keys (rows,
    cells), the masses of :func:`measures._masses`, each the scalar mu of
    its cell, and no level map; they are taken once per distinct weight row
    and indexed back to the rows.  A key depends on its own row's measure
    alone, so a caller takes the keys of each chunk of rows from the
    overlaps of their block, and every row keeps its bits whatever the chunk
    or block around it.
    """
    first = measures[0]
    if first.mode == "distorted":
        scales = np.array([[mu.distortion.scale] for mu in measures])
        return overlaps, lambda cum: scales * first.distortion._base(cum)
    distinct: dict[tuple, int] = {}
    rows = [distinct.setdefault(mu.weights, len(distinct)) for mu in measures]
    weights = np.array(list(distinct))
    return _masses(overlaps, weights[:, None, :], first.blocks)[rows], None


def _choquet_block(values: np.ndarray, keys: np.ndarray, levels):
    """Sorted-threshold pass over the rows of ``values`` (rows, cells); all
    rows live on the cells of one partition.

    Row r measures a union A of cells as levels(sum of keys[r] over A), with
    ``levels`` None for additive measures.  A sort per row puts the cells in
    descending value order v[r, 0] >= v[r, 1] >= ...; L[r, j] is the measure
    of the first j+1 of them.  (v, L) is the threshold table:
    mu_r([f_r > t]) = L[r, j] for v[r, j+1] <= t < v[r, j], with v[r, n] = 0,
    and the Choquet integral of row r is sum_j (v[r, j] - v[r, j+1]) L[r, j].

    Every step works row by row: the sort, the gathers, the cumulative sum
    and the sum of each row see that row alone, and ``levels`` is entry by
    entry.  So a row's integral and table do not depend on the other rows of
    the call, and a caller may pass any chunk of a block.

    The order is the stable one, found by one integer sort.  The bits of a
    non-negative double, read as an int64, are ordered as its value (-0.0
    reads as the smallest int64).  Each cell's key is those bits with the
    lowest ``bits`` of them replaced by the cell's index, so the keys of a
    row are distinct, every sort of them gives one ascending order, and the
    order, reversed, is read off the low bits.  Values that differ only in
    the replaced bits may come out of order, so the order is kept only when
    every row's v is strictly decreasing.  A row of distinct values has one
    strictly decreasing arrangement, and that is its stable order.  A call
    with a row that is not (a tie, 0.0 beside -0.0, or values too close for
    the truncated keys) is sorted again, descending, with ``kind="stable"``.

    Returns (integrals per row, v, L).
    """
    n, width = values.shape
    offsets = np.arange(n)[:, None] * width  # of each row in the flattened arrays
    mask = (1 << max(1, (width - 1).bit_length())) - 1  # low bits that hold a cell index
    order = values.view(np.int64) & ~mask
    order |= np.arange(width)
    order.sort(axis=1)
    order &= mask
    order = order[:, ::-1]  # descending, if every row comes out strictly decreasing
    v = values.take(order + offsets)
    if np.any(v[:, 1:] >= v[:, :-1]):
        order = np.argsort(-values, axis=1, kind="stable")
        v = values.take(order + offsets)
    cum = np.cumsum(keys.take(order if keys.ndim == 1 else order + offsets), axis=1)
    L = cum if levels is None else levels(cum)
    drops = np.empty_like(v)
    np.subtract(v[:, :-1], v[:, 1:], out=drops[:, :-1])
    drops[:, -1:] = v[:, -1:]
    drops *= L
    return np.sum(drops, axis=1), v, L


def choquet(f: StepFunction, mu: FuzzyMeasure):
    """Choquet integral of f against mu; exact for step functions.

    Returns a float for scalar f, an ndarray (componentwise) for vector f.
    """
    rows = f.values.T if f.is_vector else f.values[None, :]
    integrals, _, _ = _choquet_block(rows, *_keys((mu,) * len(rows), _overlaps(mu, f.cells)))
    return integrals if f.is_vector else float(integrals[0])


def choquet_restricted(f: StepFunction, mu: FuzzyMeasure, A: IntervalSet):
    """Integral of f over A, i.e. the integral of f * 1_A (f >= 0 only)."""
    return choquet(f.restrict(A), mu)


def riemann_choquet(f: StepFunction, mu: FuzzyMeasure, tnodes: int = 100_000) -> float:
    """Brute-force midpoint Riemann sum of t -> mu([f > t]) on [0, max f].

    Independent oracle for :func:`choquet`: superlevel sets are built as
    explicit interval-set unions and measured one by one.  The integrand is
    constant between consecutive distinct values of f, so each node's set is
    computed once per run of equal nodes.
    """
    if f.is_vector:
        raise StructuralError("riemann oracle is scalar-only")
    tnodes = _count(tnodes, "tnodes")
    M = f.max_value
    if M <= 0:
        return 0.0
    dt = M / tnodes
    ts = (np.arange(tnodes) + 0.5) * dt
    u = np.unique(f.values)
    # nodes in [u_j, u_{j+1}) share the same superlevel set
    bucket = np.searchsorted(u, ts, side="right")
    total = 0.0
    for j in range(int(bucket.min()), int(bucket.max()) + 1):
        count = int(np.sum(bucket == j))
        if count == 0:
            continue
        rep = ts[np.argmax(bucket == j)]
        total += count * mu(superlevel_set(f, rep))
    return total * dt


# -- the integral properties, decided from the measure --------------------------

INTEGRAL_PROPERTIES = ("homogeneity", "monotonicity", "translation", "subadditivity",
                       "comonotone_additivity", "horizontal_additivity")


def indicator_pair(witness: dict) -> tuple[StepFunction, StepFunction]:
    """1_A and 1_B for the interval pair (A, B) of a measure-property witness."""
    return tuple(StepFunction.indicator(IntervalSet(witness[s])) for s in "AB")


def integral_properties(mu: FuzzyMeasure) -> dict:
    """Decide the classical properties of the integral f -> choquet(f, mu).

    For every monotone mu the integral is positively homogeneous, monotone,
    translation-equivariant (f + c integrates to choquet(f) + c * mu(X)),
    comonotone additive, and so horizontally additive, since min(f, c) and
    f - min(f, c) are comonotone.  It is subadditive iff mu is submodular
    (Denneberg 1994, ch. 5-6; Schmeidler 1986).  Otherwise f = 1_A and
    g = 1_B violate it, for the pair (A, B) of the
    :func:`measures.measure_properties` witness: 1_A + 1_B is the comonotone
    sum 1_{A ∪ B} + 1_{A ∩ B}, which integrates to mu(A ∪ B) + mu(A ∩ B)
    > mu(A) + mu(B).  The counterexample holds A, B and both sides as
    :func:`choquet` computes them.

    Returns name -> {"checked", "passed", "counterexample"}.
    """
    results = {n: {"checked": True, "passed": True, "counterexample": None}
               for n in INTEGRAL_PROPERTIES}
    if not mu.is_submodular:
        witness = measure_properties(mu).witness
        f, g = indicator_pair(witness)
        results["subadditivity"]["passed"] = False
        results["subadditivity"]["counterexample"] = {
            "A": witness["A"],
            "B": witness["B"],
            "lhs": choquet(f + g, mu),
            "rhs": choquet(f, mu) + choquet(g, mu),
        }
    return results


# -- random step functions (generators for the sampled checks of the tests) ----


def random_step_function(
    rng: np.random.Generator,
    max_cells: int = 10,
    max_value: float = 2.0,
    union_cells: bool = True,
) -> StepFunction:
    """Random partition (occasionally with a union cell) and random values."""
    ncells = int(rng.integers(1, max_cells + 1))
    if ncells == 1:
        return StepFunction.constant(float(rng.uniform(0, max_value)))
    cuts = np.sort(rng.choice(np.arange(1, 1 << 10), size=ncells - 1, replace=False))
    edges = np.concatenate(([0.0], cuts / float(1 << 10), [1.0]))
    cells = [IntervalSet.interval(a, b) for a, b in zip(edges, edges[1:])]
    if union_cells and ncells >= 4 and rng.random() < 0.3:
        i, j = sorted(rng.choice(ncells, size=2, replace=False))
        if j > i + 1:  # merge two non-adjacent cells into one union cell
            cells[i] = cells[i].union(cells[j])
            del cells[j]
    values = rng.uniform(0.0, max_value, size=len(cells))
    return StepFunction(tuple(cells), values, validate=False)


def comonotone_pair(
    rng: np.random.Generator, max_cells: int = 10, max_value: float = 2.0
) -> tuple[StepFunction, StepFunction]:
    """Two step functions sharing a monotone ordering of their cells.

    Both value sequences increase along one shared cell permutation, so no
    pair of points has one function increasing while the other decreases.
    """
    ncells = int(rng.integers(2, max_cells + 1))
    cuts = np.sort(rng.choice(np.arange(1, 1 << 10), size=ncells - 1, replace=False))
    edges = np.concatenate(([0.0], cuts / float(1 << 10), [1.0]))
    cells = tuple(IntervalSet.interval(a, b) for a, b in zip(edges, edges[1:]))
    perm = rng.permutation(ncells)
    fv = np.empty(ncells)
    hv = np.empty(ncells)
    fv[perm] = np.sort(rng.uniform(0, max_value, size=ncells))
    hv[perm] = np.sort(rng.uniform(0, max_value, size=ncells))
    return (
        StepFunction(cells, fv, validate=False),
        StepFunction(cells, hv, validate=False),
    )


