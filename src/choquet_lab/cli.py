"""Command-line front end.

Subcommands: integrate, check-measure, fubini-check, range-demo,
economy-check, demo.  Exit codes: 0 success, 2 property violation (witness
in the report), 1 structural or configuration error.  Identical arguments
and input files produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fixtures, io
from .choquet import check_choquet_properties, choquet
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


def _emit(report: dict, out: str | None) -> None:
    text = io.dump_json(report, out)
    if not out:
        sys.stdout.write(text)


def _cmd_integrate(args) -> int:
    mu = io.measure_from_json(io.load_json(args.measure))
    f = io.step_function_from_json(io.load_json(args.function))
    value = choquet(f, mu)
    components = np.atleast_1d(value)  # one per component of a vector f
    print(" ".join(f"{v:.12g}" for v in components))
    if args.out:
        io.dump_json(
            {"schema": SCHEMA, "command": "integrate",
             "value": components.tolist() if f.is_vector else value},
            args.out,
        )
    return 0


def _cmd_check_measure(args) -> int:
    mu = io.measure_from_json(io.load_json(args.measure))
    measure_rep = measure_properties(mu)
    integral_rep = check_choquet_properties(mu, trials=args.trials, seed=args.seed)
    report = {
        "schema": SCHEMA,
        "command": "check-measure",
        "seed": args.seed,
        # the exact decisions take no trials or seed; both are echoed
        "measure_properties": {"trials": args.trials, "seed": args.seed, **measure_rep.to_dict()},
        "integral_properties": integral_rep.to_dict(),
    }
    _emit(report, args.out)
    return 0 if measure_rep.all_pass and integral_rep.all_pass else 2


def _cmd_fubini_check(args) -> int:
    fam = io.family_from_json(io.load_json(args.config))
    f = io.product_function_from_json(io.load_json(args.function), fam.K)
    rep = fubini_check(fam, f, tnodes=args.tnodes)
    report = {
        "schema": SCHEMA,
        "command": "fubini-check",
        "tolerance": args.tolerance,
        **rep.to_dict(),
    }
    _emit(report, args.out)
    return 0 if rep.deviation <= args.tolerance else 2


def _cmd_range_demo(args) -> int:
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
    report = {
        "schema": SCHEMA,
        "command": "range-demo",
        "target": target.tolist(),
        **res.to_dict(),
    }
    _emit(report, args.out)
    return 0 if res.feasible else 2


def _cmd_economy_check(args) -> int:
    eco = io.economy_from_json(io.load_json(args.config))
    f = (
        io.allocation_from_json(io.load_json(args.allocation), eco.K, eco.n)
        if args.allocation
        else eco.endowment.copy()
    )
    report: dict = {"schema": SCHEMA, "command": "economy-check", "mode": args.mode}
    code = 0

    if args.mode == "walras":
        if args.price:
            price = io.price_from_json(io.load_json(args.price), eco.n)
        else:
            search = find_price(eco, f, samples=args.samples, seed=args.seed)
            report["price_search"] = search.to_dict()
            if not search.found:
                report["walras"] = None
                report["price"] = None
                _emit(report, args.out)
                return 2
            price = search.price
        rep = check_walras(eco, f, price)
        report["price"] = list(map(float, np.asarray(price, dtype=float)))
        report["walras"] = rep.to_dict()
        code = 0 if rep.verdict else 2
    elif args.mode in ("core", "large-core"):
        mode = "improve" if args.mode == "core" else "strongly_improve"
        res = search_improvement(eco, f, mode, budget=args.budget, seed=args.seed)
        if res.found:
            report["core_search"] = {"witness": res.to_dict(), "searched": None}
            code = 2
        else:
            report["core_search"] = res.to_dict()
            code = 0
    elif args.mode == "endowment":
        rep = endowment_is_walrasian(eco, seed=args.seed)
        report["endowment"] = rep.to_dict()
        code = 0 if rep.verdict else 2
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown mode {args.mode!r}")

    _emit(report, args.out)
    return code


def _cmd_demo(args) -> int:
    report: dict = {"schema": SCHEMA, "command": "demo", "scenario": args.scenario}
    if args.scenario == "cobb-douglas":
        eco, allocation, price = fixtures.cobb_douglas_economy(K=args.K)
        search = find_price(eco, allocation, seed=args.seed)
        walras = check_walras(eco, allocation, search.price if search.found else price)
        core = search_improvement(eco, allocation, "improve", budget=args.budget, seed=args.seed)
        report["price"] = None if not search.found else search.price.tolist()
        report["walras"] = walras.to_dict()
        report["core_search"] = (
            {"witness": core.to_dict(), "searched": None}
            if core.found
            else core.to_dict()
        )
        ok = search.found and walras.verdict and not core.found
        _emit(report, args.out)
        return 0 if ok else 2
    if args.scenario == "sectioned-fubini":
        fam = fixtures.intro_sectioned_family(K=args.K)
        f = ProductStepFunction.uniform(fixtures.linear_profile(args.cells), fam.K)
        rep = fubini_check(fam, f, tnodes=args.tnodes)
        report["fubini"] = rep.to_dict()
        _emit(report, args.out)
        return 0 if rep.deviation <= 2e-3 else 2
    if args.scenario == "dominance-split":
        eco = fixtures.split_dominance_economy(K=args.K)
        rep = endowment_is_walrasian(eco, seed=args.seed)
        improvement = search_improvement(eco, eco.endowment, "improve", budget=args.budget, seed=args.seed)
        report["endowment"] = rep.to_dict()
        report["improvement_of_endowment"] = (
            {"witness": improvement.to_dict()}
            if improvement.found
            else improvement.to_dict()
        )
        _emit(report, args.out)
        return 0 if rep.verdict else 2
    raise ConfigError(f"unknown scenario {args.scenario!r}")


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

    p = sub.add_parser("check-measure", help="measure property decisions and integral checks")
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
        return _HANDLERS[args.command](args)
    except (
        ConfigError, StructuralError, DegenerateSetError, InvalidPriceError, UnsupportedFamilyError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
