"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 9 checks a proven negative result and carries its certificate:
on the coordinate-dominance split fixture the endowment is not Walrasian at
any normalized price (spending all wealth on the single tracked good is
affordable and strictly preferred), so the search must answer False.  The
test re-checks every violating excess sample the search reports and builds,
in plain numpy, an affordable strictly preferred bundle at every price of a
grid.  The README carries the write-up; the ``dominance-split`` demo scenario
emits the same evidence as JSON (checked in ``tests/test_cli.py``).
"""

import time

import numpy as np
import pytest

from choquet_lab.choquet import (
    StepFunction,
    check_choquet_properties,
    choquet,
    comonotone_pair,
    random_step_function,
    riemann_choquet,
)
from choquet_lab.economy import (
    PRICE_TOL,
    check_excess_convexity,
    check_walras,
    check_wealth_dominance,
    condition_c1_witness,
    condition_c2_witness,
    endowment_is_walrasian,
    find_price,
    search_improvement,
)
from choquet_lab.fixtures import (
    cobb_douglas_economy,
    identity_family,
    intro_sectioned_family,
    linear_profile,
    split_dominance_economy,
    square_family,
    square_measure,
    square_profile,
    sqrt_measure,
)
from choquet_lab.intervals import IntervalSet, random_interval_set, uniform_partition
from choquet_lab.measures import FuzzyMeasure, measure_properties
from choquet_lab.product import (
    ProductSet,
    ProductStepFunction,
    fubini_check,
    integrate_sectional_over,
    product_set_from_levels,
    range_realize,
)
from test_economy import sampled_c1_violation
from test_measures import sampled_violations


def _report(number: int, name: str, ok: bool, elapsed: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status} in {elapsed:.2f}s{suffix}")


def test_criterion_01_choquet_exactness():
    """Sorted-threshold integral vs brute-force Riemann sum on 1e5 t-nodes."""
    start = time.time()
    rng = np.random.default_rng(1001)
    mus = [
        square_measure(),
        sqrt_measure(),
        FuzzyMeasure.lebesgue(),
        FuzzyMeasure.sectioned(
            [IntervalSet([(0.0, 0.25)]), IntervalSet([(0.25, 1.0)])], [2.0, 1.0]
        ),
    ]
    tnodes = 100_000
    worst = 0.0
    ok = True
    for i in range(100):
        f = random_step_function(rng)
        mu = mus[i % len(mus)]
        tol = mu.total * max(f.max_value, 1e-12) / tnodes
        gap = abs(choquet(f, mu) - riemann_choquet(f, mu, tnodes))
        worst = max(worst, gap - tol)
        ok = ok and gap <= tol
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _report(1, "choquet-exactness", ok, elapsed, f"worst slack {worst:.2e}")
    assert ok


def test_criterion_02_analytic_fixtures():
    """Integrals of x and x^2 against the squared distortion, comonotone sum.

    Oracles: int_0^1 (1-t)^2 dt = 1/3; int_0^1 (1-sqrt t)^2 dt = 1/6; the sum
    x + x^2 integrates to 1/2 by substituting t = s + s^2."""
    start = time.time()
    mu = square_measure()
    f = linear_profile(1000)
    h = square_profile(1000)
    vf = choquet(f, mu)
    vh = choquet(h, mu)
    vsum = choquet(f + h, mu)
    ok = (
        abs(vf - 1.0 / 3.0) <= 2e-3
        and abs(vh - 1.0 / 6.0) <= 5e-3
        and abs(vsum - 0.5) <= 5e-3
        and abs(vsum - vf - vh) <= 5e-3
    )
    elapsed = time.time() - start
    _report(2, "analytic-fixtures", ok, elapsed, f"1/3->{vf:.5f} 1/6->{vh:.5f} 1/2->{vsum:.5f}")
    assert ok


def test_criterion_03_integral_properties():
    """Homogeneity through horizontal additivity on 500 trials each; the
    convex distortion must be decided not subadditive, with a witness.  The
    exact measure decisions never miss what 500 sampled set pairs find."""
    start = time.time()
    ok = True
    for mu in (sqrt_measure(), FuzzyMeasure.lebesgue(),
               FuzzyMeasure.sectioned(
                   [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])], [1.0, 1.0]
               )):
        rep = check_choquet_properties(mu, trials=500, seed=2024)
        ok = ok and rep.all_pass and rep.results["subadditivity"]["checked"]
        ok = ok and measure_properties(mu).all_pass
        ok = ok and not sampled_violations(mu, trials=500, seed=2024)
    convex_rep = check_choquet_properties(square_measure(), trials=500, seed=2024)
    ok = ok and not convex_rep.results["subadditivity"]["checked"]
    for name in ("homogeneity", "monotonicity", "translation",
                 "comonotone_additivity", "horizontal_additivity"):
        ok = ok and convex_rep.results[name]["passed"]
    counterexample = measure_properties(square_measure())
    ok = ok and not counterexample.subadditive and counterexample.witness is not None
    ok = ok and counterexample.witness["lhs"] > counterexample.witness["rhs"]
    sampled = sampled_violations(square_measure(), trials=500, seed=2024)
    ok = ok and sampled == {"subadditive", "submodular"}
    elapsed = time.time() - start
    _report(3, "integral-properties", ok, elapsed)
    assert ok


def test_criterion_04_fubini():
    """Both integration orders agree within 2e-3 on 50 random product step
    functions at K=100, 1000 x-cells, 1e4 t-nodes."""
    start = time.time()
    rng = np.random.default_rng(4004)
    families = [identity_family(100), square_family(100), intro_sectioned_family(100)]
    cells = uniform_partition(1000)
    worst = 0.0
    for i in range(50):
        fam = families[i % len(families)]
        sections = tuple(
            StepFunction(cells, rng.uniform(0.0, 2.0, size=1000), validate=False)
            for _ in range(fam.K)
        )
        rep = fubini_check(fam, ProductStepFunction(sections), tnodes=10_000)
        worst = max(worst, rep.deviation)
    elapsed = time.time() - start
    ok = worst <= 2e-3 and elapsed < 60.0
    _report(4, "fubini-decomposition", ok, elapsed, f"worst deviation {worst:.2e}")
    assert ok


def test_criterion_05_level_sets():
    """Constructed sets hit prescribed section levels within 1e-9."""
    start = time.time()
    rng = np.random.default_rng(5005)
    worst = 0.0
    for fam in (square_family(100), intro_sectioned_family(100)):
        for _ in range(50):
            tau = rng.uniform(0.0, 1.0, size=fam.K)
            H = product_set_from_levels(fam, tau)
            got = np.array([mu(sec) for mu, sec in zip(fam.measures, H.sections)])
            worst = max(worst, float(np.max(np.abs(got - tau))))
    elapsed = time.time() - start
    ok = worst <= 1e-9
    _report(5, "level-set-construction", ok, elapsed, f"worst {worst:.2e}")
    assert ok


def test_criterion_06_range_convexity():
    """Convex combinations of achievable integrals are reconstructed within 1e-6."""
    start = time.time()
    rng = np.random.default_rng(6006)
    fam = square_family(100)
    worst = 0.0
    ok = True
    for _ in range(100):
        phi = rng.uniform(0.1, 2.0, size=(fam.K, 2))
        H1 = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(fam.K)))
        H2 = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(fam.K)))
        z1 = integrate_sectional_over(fam, phi, H1)
        z2 = integrate_sectional_over(fam, phi, H2)
        for c in rng.uniform(0.0, 1.0, size=10):
            res = range_realize(fam, phi, c * z1 + (1 - c) * z2)
            if not res.feasible or res.deviation > 1e-6:
                ok = False
            else:
                worst = max(worst, res.deviation)
    elapsed = time.time() - start
    _report(6, "range-convexity", ok, elapsed, f"worst {worst:.2e}")
    assert ok


def test_criterion_07_cobb_douglas_equilibrium():
    """(f, p) = ((2y, 2(1-y)), (1/2, 1/2)) is accepted and cannot be improved."""
    start = time.time()
    eco, allocation, exact_price = cobb_douglas_economy(K=100)
    walras = check_walras(eco, allocation, exact_price)
    search = find_price(eco, allocation, seed=77)
    price_ok = search.found and np.max(np.abs(search.price - 0.5)) <= 1e-3
    walras_found = check_walras(eco, allocation, search.price) if search.found else None
    core = search_improvement(eco, allocation, "improve", budget=500,
                              levels=4, yblocks=8, demand_grid=50, seed=77)
    no_witness = not hasattr(core, "coalition")
    ok = walras.verdict and price_ok and walras_found.verdict and no_witness
    elapsed = time.time() - start
    _report(7, "cobb-douglas-equilibrium", ok, elapsed,
            f"price {np.round(search.price, 6).tolist() if search.found else None}")
    assert ok


def test_criterion_08_excess_geometry():
    """Supporting price ~ (1/2, 1/2), mixing convexity <= 1e-8, per-node
    wealth equality at the equilibrium pair."""
    start = time.time()
    eco, allocation, exact_price = cobb_douglas_economy(K=100)
    search = find_price(eco, allocation, seed=88)
    price_ok = search.found and np.max(np.abs(search.price - 0.5)) <= 1e-3
    convexity = check_excess_convexity(eco, allocation, trials=200, seed=88)
    wealth = check_wealth_dominance(eco, allocation, exact_price)
    equality = wealth.passed and wealth.max_gap <= 1e-9
    ok = price_ok and convexity.passed and equality
    elapsed = time.time() - start
    _report(8, "excess-set-geometry", ok, elapsed,
            f"mixing {convexity.max_mixing_deviation:.2e}, wealth gap {wealth.max_gap:.2e}")
    assert ok


def _dominance_certificate(eco, prices: np.ndarray) -> np.ndarray:
    """Per price, does some node have an affordable bundle strictly preferred
    to its endowment?  Closed form, numpy only: when the tracked goods J_k
    cost something, scale e_k on J_k until all wealth is spent (more than e_k
    on J_k whenever the untracked goods are worth anything); when they are
    all free, add one unit of each to e_k.  Each bundle is then checked
    against the budget and the dominance relation directly."""
    E = eco.endowment  # (K, n)
    M = np.zeros(E.shape, dtype=bool)  # M[k, j]: node k tracks good j
    for k, js in enumerate(eco.prefs.jsets):
        M[k, list(js)] = True
    wealth = prices @ E.T  # (T, K)
    tracked_cost = prices @ (E * M).T  # (T, K), p_J . e_J
    scale = wealth / np.where(tracked_cost > 0, tracked_cost, 1.0)
    spend_all = (E * M)[None, :, :] * scale[:, :, None]
    free_extra = np.broadcast_to(E + M, spend_all.shape)
    bundles = np.where((tracked_cost > 0)[:, :, None], spend_all, free_extra)
    affordable = np.einsum("tn,tkn->tk", prices, bundles) <= wealth * (1.0 + 1e-12)
    preferred = np.all(np.where(M[None], bundles > E[None], True), axis=2)
    return np.any(affordable & preferred, axis=1)


def test_criterion_09_endowment_equilibrium_split_fixture():
    """The endowment is provably not Walrasian on the split-dominance fixture:
    at any normalized price an agent tracking good j alone can afford
    wealth/p_j > e_j of it (or, if p_j = 0, e + unit_j), which is strictly
    preferred, so (w2) fails somewhere.  Checks (a) the verdict and its
    reason, a failed price LP; (b) that every reported violating sample is a
    genuine excess point; (c) a closed-form certificate at 1001 prices
    (t, 1-t), t = 0 and t = 1 included."""
    start = time.time()
    eco = split_dominance_economy(K=100)
    report = endowment_is_walrasian(eco, seed=99)
    elapsed = time.time() - start

    failure = report.price_failure
    verdict_ok = (
        report.verdict is False
        and report.price is None
        and report.walras is None
        and failure is not None
        and failure.margin < -PRICE_TOL
        and len(failure.violations) > 0
    )

    samples = failure.violations if verdict_ok else []
    genuine_count = 0
    for smp in samples:
        active = smp.node_measures > 0
        # identity-family sections are Lebesgue: mu_k(H_k) is H_k's length
        lengths = np.array([sum(b - a for a, b in sec.to_pairs())
                            for sec in smp.coalition.sections])
        weakly_preferred = all(
            np.all(smp.selection[k, list(js)] >= eco.endowment[k, list(js)])
            for k, js in enumerate(eco.prefs.jsets) if active[k]
        )
        z = np.mean((smp.selection - eco.endowment) * smp.node_measures[:, None], axis=0)
        genuine = (
            weakly_preferred
            and np.allclose(lengths, smp.node_measures, rtol=0.0, atol=1e-12)
            and np.allclose(smp.z, z, rtol=0.0, atol=1e-12)
        )
        genuine_count += bool(genuine)
    samples_ok = verdict_ok and genuine_count == len(samples)

    t = np.linspace(0.0, 1.0, 1001)
    certified = _dominance_certificate(eco, np.column_stack([t, 1.0 - t]))
    certificate_ok = bool(np.all(certified))

    ok = verdict_ok and samples_ok and certificate_ok and elapsed < 30.0
    margin = failure.margin if failure is not None else float("nan")
    _report(9, "endowment-equilibrium-split", ok, elapsed,
            f"verdict {report.verdict}, LP margin {margin:.2e}, "
            f"{genuine_count}/{len(samples)} violations genuine, "
            f"certificate at {int(certified.sum())}/{t.size} prices")
    assert elapsed < 30.0
    assert verdict_ok, f"expected a failed price search, got {report.to_dict()}"
    assert samples_ok, (
        f"{len(samples) - genuine_count} reported violations are not genuine excess points"
    )
    assert certificate_ok, (
        "no affordable strictly preferred bundle at prices t = "
        f"{t[~certified][:5].tolist()}"
    )


def test_criterion_10_integral_conditions():
    """(c1) integral subadditivity decided exactly: it holds on Lebesgue
    sections, which 500 random pairs confirm, and fails with a witness on
    squared sections; (c2) order diagnostic exhibits a violating coalition
    on 100 constructed pairs."""
    start = time.time()
    fam = identity_family(10)
    violation = sampled_c1_violation(fam, trials=500, seed=1010)
    c1_witness = condition_c1_witness(square_family(10))
    c1_ok = condition_c1_witness(fam) is None and c1_witness.lhs > c1_witness.rhs
    rng = np.random.default_rng(1010)
    fam20 = intro_sectioned_family(20)
    c2_ok = True
    for _ in range(100):
        g = rng.uniform(0.5, 2.0, size=20)
        f = np.clip(g - rng.uniform(0.0, 0.3, size=20), 0.0, None)
        k = int(rng.integers(20))
        f[k] = g[k] + rng.uniform(0.1, 1.0)
        witness = condition_c2_witness(fam20, f, g)
        if witness is None or witness.lhs <= witness.rhs:
            c2_ok = False
    ok = c1_ok and violation <= 1e-12 and c2_ok
    elapsed = time.time() - start
    _report(10, "integral-conditions", ok, elapsed, f"c1 violation {violation:.2e}")
    assert ok
