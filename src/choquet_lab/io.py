"""Strict JSON (de)serialization for every wire type the CLI accepts.

Unknown keys are rejected, shapes are validated, and every parse failure
raises :class:`ConfigError` so the CLI can map it to exit code 1.  A number
must be a finite JSON number: booleans, strings and null are rejected, never
coerced.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .choquet import StepFunction
from .economy import Economy, Preferences
from .errors import ConfigError, StructuralError
from .intervals import IntervalSet
from .measures import Distortion, FuzzyMeasure
from .product import ProductStepFunction, SectionFamily

MAX_NODES = 1_000_000  # y-nodes a family file may ask for


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


def _tag(data, what: str, tag: str, needs: dict, optional: dict | None = None) -> str:
    """Check the keys of an object whose ``tag`` key names its kind, and
    return the tag.  ``needs`` maps each tag value to the keys that value
    needs (a tuple among them needs exactly one of its keys); ``optional``
    maps a tag value to the keys it may also carry.  A key no value takes is
    reported first, then an unknown tag, then a missing key, then a key of
    another value.  The tag is matched with ``==``, as a list or an object
    is an unhashable tag."""
    groups = {name: [k if isinstance(k, tuple) else (k,) for k in keys]
              for name, keys in needs.items()}
    optional = optional or {}
    takes = {name: {key for group in groups[name] for key in group} | set(optional.get(name, ()))
             for name in needs}
    _check_keys(data, what, {tag}, set().union(*takes.values()))
    for name in needs:
        if data[tag] == name:
            for group in groups[name]:
                given = [key for key in group if key in data]
                if not given:
                    raise ConfigError(f"{what}: {name} {tag} needs {' or '.join(group)}")
                if len(given) > 1:
                    raise ConfigError(f"{what}: {name} {tag} takes one of {', '.join(given)}")
            other = sorted(set(data) - {tag} - takes[name])
            if other:
                raise ConfigError(f"{what}: {name} {tag} takes no {', '.join(other)}")
            return name
    raise ConfigError(f"{what}: unknown {tag} {data[tag]!r}")


@contextmanager
def _as_config(what: str):
    """Raise a StructuralError of the block as ConfigError("{what}: ...");
    a ConfigError passes unchanged."""
    try:
        yield
    except StructuralError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _integer(value, what: str) -> int:
    """An integral JSON number; booleans, strings and fractions are rejected,
    not coerced."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what}: expected an integer (got {value!r})")


def _number(value, what: str) -> float:
    """A finite JSON real; booleans, strings, null and non-finite values are
    rejected, not coerced."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if math.isfinite(x):
            return x
    raise ConfigError(f"{what}: expected a finite number (got {value!r})")


def _numbers(data, what: str) -> np.ndarray:
    """A list of finite JSON reals, or a list of equal-length rows of them,
    as a float array."""
    if not isinstance(data, list):
        raise ConfigError(f"{what}: expected a list of numbers (got {data!r})")
    cells = np.array(data, dtype=object)  # ragged rows stay lists, rejected below
    if cells.ndim > 2:
        raise ConfigError(f"{what}: expected numbers or rows of numbers")
    return np.array([_number(x, what) for x in cells.flat], dtype=float).reshape(cells.shape)


def _value_rows(data, what: str) -> np.ndarray:
    """Scalar values, or vector values as non-empty rows."""
    values = _numbers(data, what)
    if values.ndim == 2 and values.shape[1] == 0:
        raise ConfigError(f"{what}: expected numbers or non-empty rows of numbers")
    return values


def _list(data, what: str) -> list:
    if not isinstance(data, list):
        raise ConfigError(f"{what}: expected a list (got {data!r})")
    return data


def _pairs(data, what: str) -> list[tuple[float, float]]:
    out = []
    for item in _list(data, what):
        if not isinstance(item, list) or len(item) != 2:
            raise ConfigError(f"{what}: expected [a, b] pairs")
        out.append((_number(item[0], what), _number(item[1], what)))
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
    needs = {"power": ("alpha",), "identity": (), "pwl": ("knots",)}
    kind = _tag(data, "distortion", "kind", needs, dict.fromkeys(needs, ("scale",)))
    scale = _number(data.get("scale", 1.0), "distortion: scale")
    with _as_config("distortion"):
        if kind == "power":
            return Distortion.power(_number(data["alpha"], "distortion: alpha"), scale=scale)
        if kind == "identity":
            return Distortion.identity(scale=scale)
        return Distortion.piecewise_linear(_pairs(data["knots"], "knots"), scale=scale)


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
    needs = {"distorted": ("distortion",), "sectioned": ("blocks", "weights")}
    mode = _tag(data, "measure", "mode", needs)
    with _as_config("measure"):
        if mode == "distorted":
            return FuzzyMeasure.distorted(distortion_from_json(data["distortion"]))
        blocks = [IntervalSet([p]) for p in _pairs(data["blocks"], "blocks")]
        weights = _numbers(data["weights"], "measure: weights")
        if weights.ndim != 1:
            raise ConfigError("measure: weights must be a list of numbers")
        return FuzzyMeasure.sectioned(blocks, weights)


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
    values = _value_rows(data["values"], "step function: values")
    with _as_config("step function"):
        return StepFunction(cells, values)


def product_function_from_json(data, K: int) -> ProductStepFunction:
    """{"kind":"uniform","function":{...}} | {"kind":"sectional","values":[...]}
    | {"kind":"sections","sections":[{...}, ...]}"""
    needs = {"uniform": ("function",), "sectional": ("values",), "sections": ("sections",)}
    kind = _tag(data, "product function", "kind", needs)
    with _as_config("product function"):
        if kind == "uniform":
            return ProductStepFunction.uniform(step_function_from_json(data["function"]), K)
        if kind == "sectional":
            values = _value_rows(data["values"], "product function: values")
            if values.shape[0] == 1:
                values = np.repeat(values, K, axis=0)
            if values.shape[0] != K:
                raise ConfigError(f"product function: need {K} sectional values")
            return ProductStepFunction.sectional(values)
        listed = _list(data["sections"], "product function: sections")
        sections = tuple(step_function_from_json(s) for s in listed)
        if len(sections) != K:
            raise ConfigError(f"product function: need {K} sections")
        return ProductStepFunction(sections)


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
    """K (100 by default) must agree with the rows of sectioned weights and
    the measures of a heterogeneous family, which give the node count."""
    needs = {
        "homothetic": ("distortion",),
        "sectioned": ("blocks", ("yintervals", "weights")),
        "heterogeneous": ("measures",),
    }
    optional = {"homothetic": ("K", "normalized"), "sectioned": ("K", "normalized"),
                "heterogeneous": ("K",)}
    mode = _tag(data, "family", "mode", needs, optional)
    K = _integer(data.get("K", 100), "family: K")
    if not 0 < K <= MAX_NODES:
        raise ConfigError(f"family: K must be between 1 and {MAX_NODES}")
    normalized = data.get("normalized", True)
    if not isinstance(normalized, bool):
        raise ConfigError(f"family: normalized must be true or false (got {normalized!r})")
    with _as_config("family"):
        if mode == "homothetic":
            return SectionFamily.homothetic(
                distortion_from_json(data["distortion"]), K=K, normalized=normalized
            )
        if mode == "sectioned":
            blocks = [IntervalSet([p]) for p in _pairs(data["blocks"], "blocks")]
            if "yintervals" in data:
                return SectionFamily.from_y_intervals(
                    blocks, _pairs(data["yintervals"], "yintervals"), K=K, normalized=normalized
                )
            weights = _numbers(data["weights"], "family: weights")
            fam = SectionFamily.sectioned(blocks, weights, normalized=normalized)
        else:
            fam = SectionFamily.heterogeneous(
                [measure_from_json(m) for m in _list(data["measures"], "family: measures")]
            )
    if "K" in data and fam.K != K:
        raise ConfigError(f"family: K is {K} but the {mode} data give K = {fam.K}")
    return fam


# -- economies -----------------------------------------------------------------------


def _node_matrix(data, K: int, n: int | None, what: str) -> np.ndarray:
    M = _numbers(data, what)
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
    needs = {"cobb_douglas": ("exponents",), "linear": ("weights",),
             "coordinate_dominance": ("coords",)}
    kind = _tag(data, "preferences", "kind", needs)
    with _as_config("preferences"):
        if kind == "cobb_douglas":
            return Preferences(
                "cobb_douglas", n, exponents=_node_matrix(data["exponents"], K, n, "exponents")
            )
        if kind == "linear":
            return Preferences(
                "linear", n, weights=_node_matrix(data["weights"], K, n, "weights")
            )
        rows = data["coords"]
        if not isinstance(rows, list) or not rows:
            raise ConfigError("preferences: coords must be a non-empty list")
        if len(rows) == 1:
            rows = rows * K
        if len(rows) != K:
            raise ConfigError(f"preferences: need {K} coordinate sets")
        if not all(isinstance(row, list) for row in rows):
            raise ConfigError("preferences: each coordinate set must be a list")
        jsets = tuple(
            tuple(_integer(j, "preferences: coords") - 1 for j in row) for row in rows
        )
        return Preferences("coordinate_dominance", n, jsets=jsets)


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
    n = _integer(data["n"], "economy: n")
    if n <= 0:
        raise ConfigError("economy: n must be positive")
    endowment = _node_matrix(data["endowment"], fam.K, n, "endowment")
    prefs = preferences_from_json(data["preferences"], fam.K, n)
    with _as_config("economy"):
        return Economy(fam, endowment, prefs)


# -- sectional allocations and prices ---------------------------------------------------


def allocation_from_json(data, K: int, n: int) -> np.ndarray:
    _check_keys(data, "allocation", {"values"})
    M = _node_matrix(data["values"], K, n, "allocation values")
    if M.min() < 0:
        raise ConfigError("allocation: values must be non-negative")
    return M


def price_from_json(data, n: int) -> np.ndarray:
    _check_keys(data, "price", {"price"})
    p = _numbers(data["price"], "price")
    if p.shape != (n,):
        raise ConfigError(f"price: expected {n} components")
    return p


# -- file helpers --------------------------------------------------------------------------


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"JSON in {path} is nested too deeply") from exc


def dump_json(obj, path: str | None) -> str:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
