"""Command-line front end.

Subcommands: integrate, check-measure, fubini-check, range-demo,
economy-check, demo.  Each handler returns its report and exit code;
:func:`main` adds the ``schema`` and ``command`` keys and writes the report
once, to ``--out`` or to stdout.  ``integrate`` writes its report only to
``--out``, and then prints its value line on stdout.  Exit codes: 0 success, 2
property violation (witness in the report), 1 structural or configuration
error, an unwritable ``--out`` and running out of memory included.
Identical arguments and input files produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fixtures, io
from .choquet import choquet, integral_properties
from .economy import (
    check_walras,
    endowment_is_walrasian,
    find_price,
    search_improvement,
)
from .errors import (
    ConfigError,
    DegenerateSetError,
    InvalidPriceError,
    StructuralError,
    UnsupportedFamilyError,
)
from .measures import measure_properties
from .product import ProductStepFunction, fubini_check, range_realize

SCHEMA = "choquet-lab/1"


def _cmd_integrate(args) -> tuple[dict, int]:
    mu = io.measure_from_json(io.load_json(args.measure))
    f = io.step_function_from_json(io.load_json(args.function))
    value = choquet(f, mu)
    return {"value": value.tolist() if f.is_vector else value}, 0


def _cmd_check_measure(args) -> tuple[dict, int]:
    mu = io.measure_from_json(io.load_json(args.measure))
    measure_rep = measure_properties(mu)
    report = {
        "seed": args.seed,
        # the exact decisions take no trials or seed; both are echoed
        "measure_properties": {"trials": args.trials, "seed": args.seed, **measure_rep.to_dict()},
        "integral_properties": {"results": integral_properties(mu)},
    }
    # the integral is subadditive iff mu is submodular, so measure_rep decides
    return report, 0 if measure_rep.all_pass else 2


def _cmd_fubini_check(args) -> tuple[dict, int]:
    fam = io.family_from_json(io.load_json(args.config))
    f = io.product_function_from_json(io.load_json(args.function), fam.K)
    rep = fubini_check(fam, f, tnodes=args.tnodes)
    report = {"tolerance": args.tolerance, **rep.to_dict()}
    return report, 0 if rep.deviation <= args.tolerance else 2


def _cmd_range_demo(args) -> tuple[dict, int]:
    try:
        target = np.array([float(tok) for tok in args.target.split(",") if tok.strip()])
    except ValueError as exc:
        raise ConfigError(f"bad --target: {exc}") from exc
    if target.size == 0:
        raise ConfigError("--target must list at least one number")
    if not np.isfinite(target).all():
        raise ConfigError("--target components must be finite")
    if args.config:
        fam = io.family_from_json(io.load_json(args.config))
    else:
        fam = fixtures.square_family(K=args.K)
    if args.phi:
        phi = io.allocation_from_json(io.load_json(args.phi), fam.K, target.size)
    else:
        phi = np.ones((fam.K, target.size))
    res = range_realize(fam, phi, target)
    return {"target": target.tolist(), **res.to_dict()}, 0 if res.feasible else 2


def _cmd_economy_check(args) -> tuple[dict, int]:
    eco = io.economy_from_json(io.load_json(args.config))
    f = (
        io.allocation_from_json(io.load_json(args.allocation), eco.K, eco.n)
        if args.allocation
        else eco.endowment.copy()
    )
    report: dict = {"mode": args.mode}
    if args.mode == "walras":
        if args.price:
            price = io.price_from_json(io.load_json(args.price), eco.n)
        else:
            search = find_price(eco, f, samples=args.samples, seed=args.seed)
            report["price_search"] = search.to_dict()
            if not search.found:
                return {**report, "walras": None, "price": None}, 2
            price = search.price
        rep = check_walras(eco, f, price)
        report["price"] = list(map(float, np.asarray(price, dtype=float)))
        report["walras"] = rep.to_dict()
        return report, 0 if rep.verdict else 2
    if args.mode == "endowment":
        rep = endowment_is_walrasian(eco, seed=args.seed)
        return {**report, "endowment": rep.to_dict()}, 0 if rep.verdict else 2
    mode = "improve" if args.mode == "core" else "strongly_improve"
    res = search_improvement(eco, f, mode, budget=args.budget, seed=args.seed)
    return {**report, "core_search": res.to_dict()}, 2 if res.found else 0


def _cmd_demo(args) -> tuple[dict, int]:
    report: dict = {"scenario": args.scenario}
    if args.scenario == "cobb-douglas":
        eco, allocation, price = fixtures.cobb_douglas_economy(K=args.K)
        search = find_price(eco, allocation, seed=args.seed)
        walras = check_walras(eco, allocation, search.price if search.found else price)
        core = search_improvement(eco, allocation, "improve", budget=args.budget, seed=args.seed)
        report["price"] = None if not search.found else search.price.tolist()
        report["walras"] = walras.to_dict()
        report["core_search"] = core.to_dict()
        ok = search.found and walras.verdict and not core.found
        return report, 0 if ok else 2
    if args.scenario == "sectioned-fubini":
        fam = fixtures.intro_sectioned_family(K=args.K)
        f = ProductStepFunction.uniform(fixtures.linear_profile(args.cells), fam.K)
        rep = fubini_check(fam, f, tnodes=args.tnodes)
        report["fubini"] = rep.to_dict()
        return report, 0 if rep.deviation <= 2e-3 else 2
    # dominance-split, the last of the parser's choices
    eco = fixtures.split_dominance_economy(K=args.K)
    rep = endowment_is_walrasian(eco, seed=args.seed)
    improvement = search_improvement(
        eco, eco.endowment, "improve", budget=args.budget, seed=args.seed
    )
    report["endowment"] = rep.to_dict()
    report["improvement_of_endowment"] = improvement.to_dict()
    return report, 0 if rep.verdict else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="choquet-lab",
        description="Choquet integration, Fubini checks, range realization and "
        "equilibrium analysis for sectioned fuzzy measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--out", help="write the JSON report here instead of stdout")
        if seed:
            p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("integrate", help="Choquet integral of a step function")
    p.add_argument("--measure", required=True)
    p.add_argument("--function", required=True)
    common(p, seed=False)

    p = sub.add_parser("check-measure", help="measure and integral property decisions")
    p.add_argument("--measure", required=True)
    p.add_argument("--trials", type=int, default=500)
    common(p)

    p = sub.add_parser("fubini-check", help="compare both integration orders")
    p.add_argument("--config", required=True, help="section-family JSON")
    p.add_argument("--function", required=True, help="product-function JSON")
    p.add_argument("--tnodes", type=int, default=10_000)
    p.add_argument("--tolerance", type=float, default=2e-3)
    common(p, seed=False)

    p = sub.add_parser("range-demo", help="realize a target integral over some set")
    p.add_argument("--target", required=True, help="comma-separated components")
    p.add_argument("--config", help="section-family JSON (default: squared distortion)")
    p.add_argument("--phi", help="sectional function JSON ({'values': ...})")
    p.add_argument("--K", type=int, default=100)
    common(p, seed=False)

    p = sub.add_parser("economy-check", help="equilibrium / core analysis")
    p.add_argument("--config", required=True, help="economy JSON")
    p.add_argument("--mode", required=True, choices=["walras", "core", "large-core", "endowment"])
    p.add_argument("--allocation", help="sectional allocation JSON (default: endowment)")
    p.add_argument("--price", help="price JSON (walras mode; default: find one)")
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--samples", type=int, default=200)
    common(p)

    p = sub.add_parser("demo", help="bundled end-to-end scenarios")
    p.add_argument(
        "--scenario",
        default="cobb-douglas",
        choices=["cobb-douglas", "sectioned-fubini", "dominance-split"],
    )
    p.add_argument("--K", type=int, default=100)
    p.add_argument("--cells", type=int, default=1000)
    p.add_argument("--tnodes", type=int, default=10_000)
    p.add_argument("--budget", type=int, default=500)
    common(p)

    return parser


_HANDLERS = {
    "integrate": _cmd_integrate,
    "check-measure": _cmd_check_measure,
    "fubini-check": _cmd_fubini_check,
    "range-demo": _cmd_range_demo,
    "economy-check": _cmd_economy_check,
    "demo": _cmd_demo,
}


def _validate_positive(args) -> None:
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative (got {args.seed})")
    for name in ("K", "cells", "tnodes", "trials", "samples", "budget"):
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise ConfigError(f"--{name} must be positive (got {value})")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_positive(args)
        report, code = _HANDLERS[args.command](args)
        text = io.dump_json({"schema": SCHEMA, "command": args.command, **report}, args.out)
        if args.command == "integrate":  # stdout: one number per component of f
            print(" ".join(f"{v:.12g}" for v in np.atleast_1d(report["value"])))
        elif not args.out:
            sys.stdout.write(text)
        return code
    except (
        ConfigError, StructuralError, DegenerateSetError, InvalidPriceError, UnsupportedFamilyError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # the last resort for inputs too large for the memory at hand
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
