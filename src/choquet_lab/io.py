"""Strict JSON (de)serialization for every wire type the CLI accepts.

Unknown keys are rejected, shapes are validated, and every parse failure
raises :class:`ConfigError` so the CLI can map it to exit code 1.
"""

from __future__ import annotations

import json

import numpy as np

from .choquet import StepFunction
from .economy import Economy, Preferences
from .errors import ConfigError, StructuralError
from .intervals import IntervalSet
from .measures import Distortion, FuzzyMeasure
from .product import ProductStepFunction, SectionFamily


def _check_keys(obj: dict, what: str, required: set, optional: set = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(f"{what}: expected an object")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"{what}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{what}: unknown keys {sorted(unknown)}")


def _pairs(data, what: str) -> list[tuple[float, float]]:
    if not isinstance(data, list):
        raise ConfigError(f"{what}: expected a list of [a, b] pairs")
    out = []
    for item in data:
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{what}: expected [a, b] pairs")
        out.append((float(item[0]), float(item[1])))
    return out


# -- distortions & measures ----------------------------------------------------


def distortion_to_json(g: Distortion) -> dict:
    out: dict = {"kind": "pwl" if g.kind == "pwl" else g.kind}
    if g.kind == "power":
        out["alpha"] = g.alpha
    if g.kind == "pwl":
        out["knots"] = [[a, b] for a, b in g.knots]
    if g.scale != 1.0:
        out["scale"] = g.scale
    return out


def distortion_from_json(data) -> Distortion:
    _check_keys(data, "distortion", {"kind"}, {"alpha", "knots", "scale"})
    kind = data["kind"]
    scale = float(data.get("scale", 1.0))
    try:
        if kind == "power":
            if "alpha" not in data:
                raise ConfigError("distortion: power kind needs alpha")
            return Distortion.power(float(data["alpha"]), scale=scale)
        if kind == "identity":
            return Distortion.identity(scale=scale)
        if kind == "pwl":
            if "knots" not in data:
                raise ConfigError("distortion: pwl kind needs knots")
            return Distortion.piecewise_linear(_pairs(data["knots"], "knots"), scale=scale)
    except StructuralError as exc:
        raise ConfigError(f"distortion: {exc}") from exc
    raise ConfigError(f"distortion: unknown kind {kind!r}")


def _block_pair(blk: IntervalSet) -> list[float]:
    if len(blk.intervals) != 1:
        raise ConfigError("only single-interval blocks serialize to JSON")
    return [blk.intervals[0][0], blk.intervals[0][1]]


def measure_to_json(mu: FuzzyMeasure) -> dict:
    if mu.mode == "distorted":
        return {"mode": "distorted", "distortion": distortion_to_json(mu.distortion)}
    return {
        "mode": "sectioned",
        "blocks": [_block_pair(blk) for blk in mu.blocks],
        "weights": list(mu.weights),
    }


def measure_from_json(data) -> FuzzyMeasure:
    _check_keys(data, "measure", {"mode"}, {"distortion", "blocks", "weights"})
    mode = data["mode"]
    try:
        if mode == "distorted":
            if "distortion" not in data:
                raise ConfigError("measure: distorted mode needs a distortion")
            return FuzzyMeasure.distorted(distortion_from_json(data["distortion"]))
        if mode == "sectioned":
            if "blocks" not in data or "weights" not in data:
                raise ConfigError("measure: sectioned mode needs blocks and weights")
            blocks = [IntervalSet([p]) for p in _pairs(data["blocks"], "blocks")]
            return FuzzyMeasure.sectioned(blocks, [float(w) for w in data["weights"]])
    except StructuralError as exc:
        raise ConfigError(f"measure: {exc}") from exc
    raise ConfigError(f"measure: unknown mode {mode!r}")


# -- step functions --------------------------------------------------------------


def step_function_to_json(f: StepFunction) -> dict:
    cells = []
    for c in f.cells:
        if len(c.intervals) != 1:
            raise ConfigError("only single-interval cells serialize to JSON")
        cells.append([c.intervals[0][0], c.intervals[0][1]])
    return {"cells": cells, "values": f.values.tolist()}


def step_function_from_json(data) -> StepFunction:
    _check_keys(data, "step function", {"cells", "values"})
    cells = tuple(IntervalSet([p]) for p in _pairs(data["cells"], "cells"))
    values = np.asarray(data["values"], dtype=float)
    try:
        return StepFunction(cells, values)
    except StructuralError as exc:
        raise ConfigError(f"step function: {exc}") from exc


def product_function_from_json(data, K: int) -> ProductStepFunction:
    """{"kind":"uniform","function":{...}} | {"kind":"sectional","values":[...]}
    | {"kind":"sections","sections":[{...}, ...]}"""
    _check_keys(data, "product function", {"kind"}, {"function", "values", "sections"})
    kind = data["kind"]
    try:
        if kind == "uniform":
            return ProductStepFunction.uniform(step_function_from_json(data["function"]), K)
        if kind == "sectional":
            values = np.asarray(data["values"], dtype=float)
            if values.shape[0] == 1:
                values = np.repeat(values, K, axis=0)
            if values.shape[0] != K:
                raise ConfigError(f"product function: need {K} sectional values")
            return ProductStepFunction.sectional(values)
        if kind == "sections":
            sections = tuple(step_function_from_json(s) for s in data["sections"])
            if len(sections) != K:
                raise ConfigError(f"product function: need {K} sections")
            return ProductStepFunction(sections)
    except (StructuralError, KeyError) as exc:
        raise ConfigError(f"product function: {exc}") from exc
    raise ConfigError(f"product function: unknown kind {kind!r}")


# -- section families --------------------------------------------------------------


def family_to_json(fam: SectionFamily) -> dict:
    if fam.mode == "homothetic":
        return {
            "K": fam.K,
            "mode": "homothetic",
            "distortion": distortion_to_json(fam.measures[0].distortion),
            "normalized": fam.normalized,
        }
    if fam.mode == "sectioned":
        return {
            "K": fam.K,
            "mode": "sectioned",
            "blocks": [_block_pair(b) for b in fam.blocks],
            "weights": [list(mu.weights) for mu in fam.measures],
            "normalized": fam.normalized,
        }
    return {
        "K": fam.K,
        "mode": "heterogeneous",
        "measures": [measure_to_json(mu) for mu in fam.measures],
    }


def family_from_json(data) -> SectionFamily:
    _check_keys(
        data,
        "family",
        {"mode"},
        {"K", "distortion", "normalized", "blocks", "yintervals", "weights", "measures"},
    )
    mode = data["mode"]
    K = int(data.get("K", 100))
    if K <= 0:
        raise ConfigError("family: K must be positive")
    normalized = bool(data.get("normalized", True))
    try:
        if mode == "homothetic":
            if "distortion" not in data:
                raise ConfigError("family: homothetic mode needs a distortion")
            return SectionFamily.homothetic(
                distortion_from_json(data["distortion"]), K=K, normalized=normalized
            )
        if mode == "sectioned":
            if "blocks" not in data:
                raise ConfigError("family: sectioned mode needs blocks")
            blocks = [IntervalSet([p]) for p in _pairs(data["blocks"], "blocks")]
            if "yintervals" in data:
                return SectionFamily.from_y_intervals(
                    blocks, _pairs(data["yintervals"], "yintervals"), K=K, normalized=normalized
                )
            if "weights" not in data:
                raise ConfigError("family: sectioned mode needs yintervals or weights")
            return SectionFamily.sectioned(blocks, data["weights"], normalized=normalized)
        if mode == "heterogeneous":
            if "measures" not in data:
                raise ConfigError("family: heterogeneous mode needs measures")
            return SectionFamily.heterogeneous(
                [measure_from_json(m) for m in data["measures"]]
            )
    except StructuralError as exc:
        raise ConfigError(f"family: {exc}") from exc
    raise ConfigError(f"family: unknown mode {mode!r}")


# -- economies -----------------------------------------------------------------------


def _node_matrix(data, K: int, n: int | None, what: str) -> np.ndarray:
    M = np.asarray(data, dtype=float)
    if M.ndim != 2:
        raise ConfigError(f"{what}: expected a list of per-node rows")
    if M.shape[0] == 1:
        M = np.repeat(M, K, axis=0)
    if M.shape[0] != K:
        raise ConfigError(f"{what}: need {K} rows (or a single broadcast row)")
    if n is not None and M.shape[1] != n:
        raise ConfigError(f"{what}: rows must have {n} entries")
    return M


def preferences_from_json(data, K: int, n: int) -> Preferences:
    _check_keys(data, "preferences", {"kind"}, {"exponents", "weights", "coords"})
    kind = data["kind"]
    try:
        if kind == "cobb_douglas":
            if "exponents" not in data:
                raise ConfigError("preferences: cobb_douglas needs exponents")
            return Preferences(
                "cobb_douglas", n, exponents=_node_matrix(data["exponents"], K, n, "exponents")
            )
        if kind == "linear":
            if "weights" not in data:
                raise ConfigError("preferences: linear needs weights")
            return Preferences(
                "linear", n, weights=_node_matrix(data["weights"], K, n, "weights")
            )
        if kind == "coordinate_dominance":
            if "coords" not in data:
                raise ConfigError("preferences: coordinate_dominance needs coords (1-based)")
            rows = data["coords"]
            if not isinstance(rows, list) or not rows:
                raise ConfigError("preferences: coords must be a non-empty list")
            if len(rows) == 1:
                rows = rows * K
            if len(rows) != K:
                raise ConfigError(f"preferences: need {K} coordinate sets")
            jsets = tuple(tuple(int(j) - 1 for j in row) for row in rows)
            return Preferences("coordinate_dominance", n, jsets=jsets)
    except StructuralError as exc:
        raise ConfigError(f"preferences: {exc}") from exc
    raise ConfigError(f"preferences: unknown kind {kind!r}")


def preferences_to_json(prefs: Preferences) -> dict:
    if prefs.kind == "cobb_douglas":
        return {"kind": "cobb_douglas", "exponents": prefs.exponents.tolist()}
    if prefs.kind == "linear":
        return {"kind": "linear", "weights": prefs.weights.tolist()}
    return {
        "kind": "coordinate_dominance",
        "coords": [[j + 1 for j in js] for js in prefs.jsets],
    }


def economy_to_json(eco: Economy) -> dict:
    return {
        "family": family_to_json(eco.fam),
        "n": eco.n,
        "endowment": eco.endowment.tolist(),
        "preferences": preferences_to_json(eco.prefs),
    }


def economy_from_json(data) -> Economy:
    _check_keys(data, "economy", {"family", "n", "endowment", "preferences"})
    fam = family_from_json(data["family"])
    n = int(data["n"])
    endowment = _node_matrix(data["endowment"], fam.K, n, "endowment")
    prefs = preferences_from_json(data["preferences"], fam.K, n)
    try:
        return Economy(fam, endowment, prefs)
    except StructuralError as exc:
        raise ConfigError(f"economy: {exc}") from exc


# -- sectional allocations and prices ---------------------------------------------------


def allocation_from_json(data, K: int, n: int) -> np.ndarray:
    _check_keys(data, "allocation", {"values"})
    M = _node_matrix(data["values"], K, n, "allocation values")
    if not np.isfinite(M).all() or M.min() < 0:
        raise ConfigError("allocation: values must be finite and non-negative")
    return M


def price_from_json(data, n: int) -> np.ndarray:
    _check_keys(data, "price", {"price"})
    p = np.asarray(data["price"], dtype=float)
    if p.shape != (n,):
        raise ConfigError(f"price: expected {n} components")
    if not np.isfinite(p).all():
        raise ConfigError("price: components must be finite")
    return p


# -- file helpers --------------------------------------------------------------------------


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc


def dump_json(obj, path: str | None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
