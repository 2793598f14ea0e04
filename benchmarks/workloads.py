"""Seeded inputs and correctness oracles for the choquet-lab benchmark.

This module is plain numpy and json and never imports ``choquet_lab``: the
inputs of every job are generated from the workload seed and the job's
index, and each oracle checks one job's output record against a value
computed here, apart from the library's fast path.  An oracle returns
``None`` when the record is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math

import numpy as np

K = 100  # y-nodes of every product-space job
CELLS = 1000  # uniform x-cells of every 1000-cell profile
TNODES = 10_000  # t-nodes of every fubini_check
FUBINI_TOL = 2e-3  # criterion 04: |lhs - rhs| of the two integration orders
EXACT_TOL = 1e-9  # closed forms that only differ by float rounding
ANALYTIC_TOL = 1e-4  # a*B(a, alpha+1) against its 1000-cell midpoint sampling (gap <= 6e-6)
PRICE_TOL = 1e-3  # Cobb-Douglas equilibrium price against (1/2, 1/2)
REALIZE_TOL = 1e-6  # range-demo: achieved integral against the target
CLI_ECONOMY_K = 20
CHECK_TRIALS = 200

# Jobs rotate round-robin over these kinds; job i has kind KINDS[w][i % len].
KINDS = {
    "fubini-grid": ("identity", "power", "pwl", "sectioned"),
    "equilibrium": (
        "find-price",
        "improve",
        "strongly-improve",
        "split-endowment",
        "full-dominance",
    ),
    "cli-short": (
        "integrate-power",
        "integrate-sectioned",
        "range-demo",
        "check-measure",
        "economy-walras",
    ),
}


def _close(a: float, b: float, tol: float) -> bool:
    """|a - b| <= tol, and False when either side is NaN."""
    return abs(a - b) <= tol


def kind_of(workload: str, index: int) -> str:
    kinds = KINDS[workload]
    return kinds[index % len(kinds)]


def job_rng(seed: int, index: int, warm: bool = False) -> np.random.Generator:
    """Input stream of one job; warm-up jobs draw from their own stream."""
    return np.random.default_rng([seed, 1 if warm else 0, index])


def _grid_edges(ncells: int = CELLS) -> np.ndarray:
    return np.linspace(0.0, 1.0, ncells + 1)


def _sorted_threshold(values: np.ndarray, g) -> np.ndarray:
    """Row-wise sum_j (v_(j) - v_(j+1)) g(j/n) over uniform cells, values
    sorted descending: the Choquet integral of each row under g(lebesgue)."""
    v = -np.sort(-values, axis=-1)
    n = v.shape[-1]
    drops = v - np.concatenate([v[..., 1:], np.zeros(v.shape[:-1] + (1,))], axis=-1)
    return drops @ g(np.arange(1, n + 1) / n)


def _overlaps(edges: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """(cells, blocks) Lebesgue measure of cell i intersected with block b."""
    lo = np.maximum(edges[:-1, None], blocks[None, :-1])
    hi = np.minimum(edges[1:, None], blocks[None, 1:])
    return np.clip(hi - lo, 0.0, None)


# -- fubini-grid -------------------------------------------------------------


def pwl_knots(seed: int) -> list[list[float]]:
    """Concave piecewise-linear distortion with four knots, drawn per seed."""
    rng = np.random.default_rng([seed, 2])
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, size=2)), [1.0]])
    slopes = np.sort(rng.uniform(0.2, 3.0, size=3))[::-1]
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return [[float(x), float(y)] for x, y in zip(xs, ys)]


def fubini_values(seed: int, index: int, warm: bool = False) -> np.ndarray:
    """(K, CELLS) values in [0, 2) of one fresh product step function."""
    return job_rng(seed, index, warm).uniform(0.0, 2.0, size=(K, CELLS))


def fubini_exact_rhs(kind: str, values: np.ndarray, knots) -> float:
    """Iterated integral (1/K) sum_k C(f_k, mu_k) in closed form."""
    if kind == "sectioned":
        # intro_sectioned_family: nodes below y = 1/2 carry Lebesgue on
        # [0, 1/2) rescaled to mass 1, the rest on [1/2, 1); additive.
        ys = (np.arange(K) + 0.5) / K
        share = _overlaps(_grid_edges(values.shape[1]), np.array([0.0, 0.5, 1.0])) / 0.5
        mu = np.where(ys[:, None] < 0.5, share[:, 0], share[:, 1])  # (K, cells)
        return float(np.mean(np.sum(values * mu, axis=1)))
    if kind == "identity":
        g = lambda s: s  # noqa: E731
    elif kind == "power":
        g = lambda s: s**2  # noqa: E731
    elif kind == "pwl":
        xs, ys = np.array(knots).T
        g = lambda s: np.interp(s, xs, ys) / ys[-1]  # noqa: E731
    else:
        raise ValueError(f"unknown fubini family {kind!r}")
    return float(np.mean(_sorted_threshold(values, g)))


def check_fubini(kind: str, values: np.ndarray, knots, out: dict) -> str | None:
    lhs, rhs = out["lhs"], out["rhs"]
    if out["tnodes"] != TNODES:
        return f"tnodes {out['tnodes']} != {TNODES}"
    if not _close(lhs, rhs, FUBINI_TOL):
        return f"fubini deviation {abs(lhs - rhs):.3g} > {FUBINI_TOL}"
    exact = fubini_exact_rhs(kind, values, knots)
    if not _close(rhs, exact, EXACT_TOL):
        return f"rhs {rhs!r} != closed form {exact!r}"
    return None


# -- equilibrium -------------------------------------------------------------


def equilibrium_seed(seed: int, index: int, warm: bool = False) -> int:
    """Sampling seed handed to find_price / search_improvement / endowment check."""
    return int(job_rng(seed, index, warm).integers(1, 2**31 - 1))


def check_equilibrium(kind: str, out: dict) -> str | None:
    if kind == "find-price":
        if not out["found"]:
            return "no supporting price found"
        if not all(_close(p, 0.5, PRICE_TOL) for p in out["price"]):
            return f"price {out['price']} not within {PRICE_TOL} of (1/2, 1/2)"
        if out["verdict"] is not True:
            return "Walras verdict is not True at the found price"
        return None
    if kind in ("improve", "strongly-improve"):
        mode = "improve" if kind == "improve" else "strongly_improve"
        if out["report"] != "ExhaustedReport":
            return f"expected ExhaustedReport, got {out['report']}"
        if out["mode"] != mode:
            return f"search mode {out['mode']!r} != {mode!r}"
        return None
    if kind == "split-endowment":
        if out["verdict"] is not False:
            return "split dominance endowment reported Walrasian"
        if not out["price_failure"]:
            return "split dominance verdict carries no price_failure"
        return None
    if kind == "full-dominance":
        return None if out["verdict"] is True else "full dominance endowment not Walrasian"
    raise ValueError(f"unknown equilibrium kind {kind!r}")


# -- cli-short ---------------------------------------------------------------

SQRT_MEASURE = {"mode": "distorted", "distortion": {"kind": "power", "alpha": 0.5}}


def _profile(values: np.ndarray) -> dict:
    edges = _grid_edges(values.shape[0])
    cells = [[float(a), float(b)] for a, b in zip(edges, edges[1:])]
    return {"cells": cells, "values": [float(v) for v in values]}


def cli_job(seed: int, index: int, warm: bool = False) -> dict:
    """One CLI invocation: input files (name -> JSON object), the argument
    list (file names stand for their paths) and what the oracle needs."""
    kind = kind_of("cli-short", index)
    rng = job_rng(seed, index, warm)
    if kind == "integrate-power":
        a = float(rng.uniform(0.5, 2.0))
        alpha = float(rng.uniform(1.5, 3.0))
        mids = (np.arange(CELLS) + 0.5) / CELLS
        files = {
            "measure.json": {
                "mode": "distorted",
                "distortion": {"kind": "power", "alpha": alpha},
            },
            "function.json": _profile(mids**a),
        }
        args = ["integrate", "--measure", "measure.json", "--function", "function.json"]
        expect = {"a": a, "alpha": alpha}
    elif kind == "integrate-sectioned":
        cuts = np.sort(rng.choice(np.arange(1, 64), size=7, replace=False)) / 64.0
        edges = np.concatenate([[0.0], cuts, [1.0]])
        weights = rng.uniform(0.1, 1.0, size=8)
        values = rng.uniform(0.0, 2.0, size=CELLS)
        files = {
            "measure.json": {
                "mode": "sectioned",
                "blocks": [[float(a), float(b)] for a, b in zip(edges, edges[1:])],
                "weights": [float(w) for w in weights],
            },
            "function.json": _profile(values),
        }
        args = ["integrate", "--measure", "measure.json", "--function", "function.json"]
        expect = {}
    elif kind == "range-demo":
        target = float(rng.uniform(0.05, 0.95))
        files = {}
        args = ["range-demo", "--target", repr(target)]
        expect = {"target": target}
    elif kind == "check-measure":
        check_seed = int(rng.integers(1, 10**6))
        files = {"measure.json": SQRT_MEASURE}
        args = ["check-measure", "--measure", "measure.json",
                "--trials", str(CHECK_TRIALS), "--seed", str(check_seed)]
        expect = {"seed": check_seed}
    else:  # economy-walras: Cobb-Douglas with its closed-form equilibrium
        n_k = CLI_ECONOMY_K
        a1 = rng.uniform(0.1, 0.9, size=n_k)
        e = rng.uniform(0.5, 2.0, size=(n_k, 2))
        spend_2 = np.mean((1.0 - a1) * e[:, 0])  # market 1 clears iff q*spend_2 = (1-q)*spend_1
        spend_1 = np.mean(a1 * e[:, 1])
        q = spend_1 / (spend_1 + spend_2)
        price = np.array([q, 1.0 - q])
        wealth = e @ price
        alloc = np.column_stack([a1 * wealth / q, (1.0 - a1) * wealth / (1.0 - q)])
        files = {
            "economy.json": {
                "family": {"K": n_k, "mode": "homothetic", "distortion": {"kind": "identity"}},
                "n": 2,
                "endowment": e.tolist(),
                "preferences": {
                    "kind": "cobb_douglas",
                    "exponents": np.column_stack([a1, 1.0 - a1]).tolist(),
                },
            },
            "allocation.json": {"values": alloc.tolist()},
            "price.json": {"price": price.tolist()},
        }
        args = ["economy-check", "--config", "economy.json", "--mode", "walras",
                "--allocation", "allocation.json", "--price", "price.json"]
        expect = {"price": price.tolist()}
    return {"kind": kind, "files": files, "args": args, "expect": expect}


def file_text(obj) -> str:
    """Bytes a generated input file holds."""
    return json.dumps(obj, sort_keys=True) + "\n"


def cli_expected_value(job: dict) -> float:
    """Exact integral of an ``integrate`` job's step function."""
    measure = job["files"]["measure.json"]
    values = np.array(job["files"]["function.json"]["values"])
    if measure["mode"] == "distorted":
        alpha = measure["distortion"]["alpha"]
        return float(_sorted_threshold(values, lambda s: s**alpha))
    blocks = np.array([b[0] for b in measure["blocks"]] + [measure["blocks"][-1][1]])
    share = _overlaps(_grid_edges(values.shape[0]), blocks) / np.diff(blocks)
    return float(values @ (share @ np.array(measure["weights"])))


def check_cli(job: dict, out: dict) -> str | None:
    kind, expect = job["kind"], job["expect"]
    if out["code"] != 0:
        return f"exit code {out['code']} != 0"
    try:
        if kind.startswith("integrate"):
            value = float(out["stdout"].strip())
            exact = cli_expected_value(job)
            if not _close(value, exact, EXACT_TOL):
                return f"integral {value!r} != closed form {exact!r}"
            if kind == "integrate-power":
                a, alpha = expect["a"], expect["alpha"]
                beta = math.exp(math.lgamma(a) + math.lgamma(alpha + 1) - math.lgamma(a + alpha + 1))
                if not _close(value, a * beta, ANALYTIC_TOL):
                    return f"integral {value!r} far from a*B(a, alpha+1) = {a * beta!r}"
            return None
        rep = json.loads(out["stdout"])
        if kind == "range-demo":
            target = expect["target"]
            if rep["target"] != [target] or rep["feasible"] is not True:
                return "target not realized"
            if not (_close(rep["achieved"][0], target, REALIZE_TOL)
                    and _close(rep["deviation"], 0.0, REALIZE_TOL)):
                return f"achieved {rep['achieved']} off target {target}"
            levels = np.array(rep["levels"])
            # phi = 1 and mu_k(H_k) = levels_k, so the integral is their mean
            if levels.shape != (K,) or not _close(float(levels.mean()), target, REALIZE_TOL):
                return "levels do not integrate to the target"
            return None
        if kind == "check-measure":
            mp, ip = rep["measure_properties"], rep["integral_properties"]
            if rep["seed"] != expect["seed"] or mp["trials"] != CHECK_TRIALS:
                return "report does not echo seed and trials"
            if not (mp["monotone"] and mp["subadditive"] and mp["submodular"]):
                return f"sqrt measure failed a capacity property: {mp['witness']}"
            bad = [n for n, r in ip["results"].items() if not (r["checked"] and r["passed"])]
            return f"integral properties not passed: {bad}" if bad else None
        walras = rep["walras"]
        if not (walras["verdict"] is True and walras["w1"] is True and walras["w2_failures"] == 0):
            return f"closed-form equilibrium rejected: {walras}"
        if not all(_close(p, q, 1e-12) for p, q in zip(rep["price"], expect["price"], strict=True)):
            return "report price differs from the given price"
        return None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {exc!r}"


def check_job(workload: str, seed: int, index: int, out: dict) -> str | None:
    """Oracle for timed job ``index`` of ``workload`` run with ``seed``."""
    kind = kind_of(workload, index)
    if workload == "fubini-grid":
        return check_fubini(kind, fubini_values(seed, index), pwl_knots(seed), out)
    if workload == "equilibrium":
        return check_equilibrium(kind, out)
    return check_cli(cli_job(seed, index), out)
