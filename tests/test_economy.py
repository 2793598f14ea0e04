import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_lab.choquet import StepFunction, choquet_restricted
from choquet_lab.errors import InvalidPriceError, StructuralError
from choquet_lab.fixtures import full_dominance_economy
from choquet_lab.intervals import IntervalSet, random_interval_set
from choquet_lab.measures import Distortion, filtering_family
from choquet_lab.product import (
    ProductSet,
    ProductStepFunction,
    SectionFamily,
    integrate_sectional_over,
    product_set_from_levels,
    section_measures,
)
from choquet_lab.economy import (
    TWO_LEVEL_BETA,
    TWO_LEVEL_C1,
    Economy,
    ExhaustedReport,
    ImprovementWitness,
    Preferences,
    budget_check,
    check_condition_c1,
    check_excess_convexity,
    check_walras,
    check_wealth_dominance,
    condition_c2_witness,
    endowment_is_walrasian,
    find_price,
    improvement_from_excess,
    is_feasible,
    is_maximal_in_budget,
    normalize_price,
    sample_excess_points,
    search_improvement,
    sectionalize,
    verify_improvement,
    _screen_sectionals,
    _sectional_candidates,
    _two_level_candidates,
)
from test_choquet import random_blocks

K = 100


@pytest.fixture(scope="module")
def cd_economy():
    """Cobb-Douglas fixture: a(y) = (y, 1-y), e = (1,1), Lebesgue sections."""
    fam = SectionFamily.homothetic(Distortion.identity(), K=K)
    y = fam.ygrid
    prefs = Preferences("cobb_douglas", 2, exponents=np.column_stack([y, 1 - y]))
    return Economy(fam, np.ones((K, 2)), prefs)


@pytest.fixture(scope="module")
def equilibrium(cd_economy):
    y = cd_economy.fam.ygrid
    return np.column_stack([2 * y, 2 * (1 - y)])


def dominance_economy(jsets):
    fam = SectionFamily.homothetic(Distortion.identity(), K=K)
    prefs = Preferences("coordinate_dominance", 2, jsets=jsets)
    return Economy(fam, np.ones((K, 2)), prefs)


def split_j_economy():
    fam = SectionFamily.homothetic(Distortion.identity(), K=K)
    y = fam.ygrid
    return dominance_economy(tuple((0,) if yy < 0.5 else (1,) for yy in y))


class TestValidation:
    def test_rejects_heterogeneous_family(self):
        fam = SectionFamily.heterogeneous(
            [SectionFamily.homothetic(Distortion.identity(), K=1).measures[0]] * 4
        )
        prefs = Preferences("linear", 1, weights=np.ones((4, 1)))
        with pytest.raises(StructuralError):
            Economy(fam, np.ones((4, 1)), prefs)

    def test_rejects_non_subadditive_sections(self):
        fam = SectionFamily.homothetic(Distortion.power(2.0), K=4)
        prefs = Preferences("linear", 1, weights=np.ones((4, 1)))
        with pytest.raises(StructuralError):
            Economy(fam, np.ones((4, 1)), prefs)

    def test_rejects_boundary_endowment(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=4)
        prefs = Preferences("linear", 2, weights=np.ones((4, 2)))
        e = np.ones((4, 2))
        e[2, 1] = 0.0
        with pytest.raises(StructuralError):
            Economy(fam, e, prefs)

    def test_preference_validation(self):
        with pytest.raises(StructuralError):
            Preferences("cobb_douglas", 2, exponents=np.array([[0.5, 0.6]]))
        with pytest.raises(StructuralError):
            Preferences("cobb_douglas", 2, exponents=np.array([[1.0, 0.0]]))
        with pytest.raises(StructuralError):
            Preferences("linear", 2, weights=np.array([[1.0, 0.0]]))
        with pytest.raises(StructuralError):
            Preferences("coordinate_dominance", 2, jsets=((),))
        with pytest.raises(StructuralError):
            Preferences("coordinate_dominance", 2, jsets=((2,),))

    def test_price_normalization(self):
        assert normalize_price([2.0, 2.0]) == pytest.approx([0.5, 0.5])
        with pytest.raises(InvalidPriceError):
            normalize_price([0.0, 0.0])
        with pytest.raises(InvalidPriceError):
            normalize_price([1.0, -0.1])
        for bad in ([np.nan, 0.5], [np.inf, 0.5]):
            with pytest.raises(InvalidPriceError):
                normalize_price(bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_endowment_and_preferences(self, bad):
        fam = SectionFamily.homothetic(Distortion.identity(), K=4)
        prefs = Preferences("linear", 2, weights=np.ones((4, 2)))
        endowment = np.ones((4, 2))
        endowment[2, 1] = bad
        with pytest.raises(StructuralError):
            Economy(fam, endowment, prefs)
        with pytest.raises(StructuralError):
            Preferences("linear", 2, weights=[[1.0, bad]] * 4)
        with pytest.raises(StructuralError):
            Preferences("cobb_douglas", 2, exponents=[[0.5, bad]] * 4)


class TestFeasibility:
    def test_endowment_is_feasible(self, cd_economy):
        ok, dev = is_feasible(cd_economy, cd_economy.endowment)
        assert ok and dev == 0.0

    def test_equilibrium_is_feasible(self, cd_economy, equilibrium):
        ok, dev = is_feasible(cd_economy, equilibrium)
        assert ok and dev <= 1e-4

    def test_scaled_endowment_is_not(self, cd_economy):
        ok, dev = is_feasible(cd_economy, 2 * cd_economy.endowment)
        assert not ok
        assert dev == pytest.approx(1.0)


class TestBudget:
    def test_endowment_always_affordable(self, cd_economy):
        for k in (0, 37, 99):
            assert budget_check(cd_economy, [0.3, 0.7], cd_economy.endowment[k], k)

    def test_boundary_bundle(self, cd_economy):
        assert budget_check(cd_economy, [0.5, 0.5], [2.0, 0.0], 5)
        assert not budget_check(cd_economy, [0.5, 0.5], [3.0, 0.0], 5)


class TestMaximality:
    def test_equilibrium_maximal_everywhere(self, cd_economy, equilibrium):
        for k in (0, 13, 50, 99):
            ok, _ = is_maximal_in_budget(cd_economy, [0.5, 0.5], equilibrium, k)
            assert ok

    def test_zero_bundle_not_maximal(self, cd_economy):
        zero = np.zeros((K, 2))
        ok, violator = is_maximal_in_budget(cd_economy, [0.5, 0.5], zero, 42)
        assert not ok
        assert violator is not None
        assert cd_economy.prefs.strictly_prefers(42, violator, zero[42])
        assert budget_check(cd_economy, [0.5, 0.5], violator, 42)

    def test_linear_corner_demand(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=K)
        prefs = Preferences("linear", 2, weights=np.tile([2.0, 1.0], (K, 1)))
        eco = Economy(fam, np.ones((K, 2)), prefs)
        corner = np.tile([2.0, 0.0], (K, 1))
        ok, _ = is_maximal_in_budget(eco, [0.5, 0.5], corner, 3)
        assert ok
        ok_e, viol = is_maximal_in_budget(eco, [0.5, 0.5], np.ones((K, 2)), 3)
        assert not ok_e and viol is not None

    def test_linear_violator_survives_rounding_at_large_wealth(self):
        # The corner e_1 * wealth / p_1 itself rounds over the budget here.
        fam = SectionFamily.homothetic(Distortion.identity(), K=1)
        eco = Economy(fam, [[1e5, 1e5]], Preferences("linear", 2, weights=[[2.0, 1.0]]))
        ok, violator = is_maximal_in_budget(eco, [0.3, 0.7], eco.endowment, 0)
        assert not ok
        assert eco.prefs.strictly_prefers(0, violator, eco.endowment[0])
        assert budget_check(eco, [0.3, 0.7], violator, 0)

    def test_dominance_miss_of_the_budget_grid(self):
        # A 200-point grid over the budget face found no violator here:
        # bundle + 2e-5 is affordable and strictly dominates on J = {1, 2}.
        eco = full_dominance_economy(K)
        f = eco.endowment.copy()
        f[7] = [0.9999, 1.0]
        ok, violator = is_maximal_in_budget(eco, [0.5, 0.5], f, 7)
        assert not ok
        assert eco.prefs.strictly_prefers(7, violator, f[7])
        assert budget_check(eco, [0.5, 0.5], violator, 7)

    def test_full_dominance_endowment_spends_exactly_its_wealth(self):
        # sum_J p_j e_j equals the wealth p . e, so no bundle is better
        eco = full_dominance_economy(K)
        for p in ([0.5, 0.5], [0.9, 0.1]):
            rep = check_walras(eco, eco.endowment, p)
            assert rep.verdict and rep.maximal_nodes.all()
            assert rep.first_violation is None

    def test_free_good(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=K)
        ones = np.ones((K, 2))
        linear = Economy(fam, ones, Preferences("linear", 2, weights=np.tile([2.0, 1.0], (K, 1))))
        spent = np.tile([1.0, 0.0], (K, 1))  # all wealth on good 1
        ok, violator = is_maximal_in_budget(linear, [1.0, 0.0], spent, 3)
        assert not ok
        assert violator.tolist() == [1.0, 1.0]  # bundle + e_2 at no extra cost
        # dominance: a free good in J is always worth more; outside J it is not
        tracks_2 = Economy(fam, ones, Preferences("coordinate_dominance", 2, jsets=((1,),) * K))
        ok, violator = is_maximal_in_budget(tracks_2, [1.0, 0.0], ones, 3)
        assert not ok and violator[1] > 1.0
        assert budget_check(tracks_2, [1.0, 0.0], violator, 3)
        tracks_1 = Economy(fam, ones, Preferences("coordinate_dominance", 2, jsets=((0,),) * K))
        assert is_maximal_in_budget(tracks_1, [1.0, 0.0], ones, 3) == (True, None)


class TestWalras:
    def test_equilibrium_pair_accepted(self, cd_economy, equilibrium):
        rep = check_walras(cd_economy, equilibrium, [0.5, 0.5])
        assert rep.verdict
        assert rep.feasibility_deviation <= 1e-8

    def test_endowment_price_pair_rejected(self, cd_economy):
        # heterogeneous exponents: demand differs from e off the diagonal node
        rep = check_walras(cd_economy, cd_economy.endowment, [0.5, 0.5])
        assert not rep.verdict
        assert rep.feasible  # w1 holds, w2 fails

    def test_infeasible_allocation_rejected(self, cd_economy, equilibrium):
        rep = check_walras(cd_economy, 1.5 * equilibrium, [0.5, 0.5])
        assert not rep.feasible
        assert not rep.verdict


class TestExcessCloud:
    def test_deterministic_probes(self, cd_economy, equilibrium):
        cloud = sample_excess_points(cd_economy, equilibrium, samples=10, seed=0)
        by_label = {s.label: s for s in cloud}
        assert by_label["probe-empty"].z == pytest.approx([0.0, 0.0], abs=1e-12)
        assert by_label["probe-reflexive"].z == pytest.approx([0.0, 0.0], abs=1e-8)
        assert by_label["probe-positive-0"].z == pytest.approx([1.0, 0.0], abs=1e-8)
        assert by_label["probe-positive-1"].z == pytest.approx([0.0, 1.0], abs=1e-8)

    def test_selections_stay_in_contour_sets(self, cd_economy, equilibrium):
        cloud = sample_excess_points(cd_economy, equilibrium, samples=40, seed=1)
        for smp in cloud[: 300]:
            for k in range(0, K, 7):
                assert cd_economy.prefs.weakly_prefers(
                    k, smp.selection[k], equilibrium[k], tol=1e-9
                )


class TestFindPrice:
    def test_equilibrium_price_recovered(self, cd_economy, equilibrium):
        res = find_price(cd_economy, equilibrium, samples=200, seed=42)
        assert res.found
        assert np.max(np.abs(res.price - 0.5)) <= 1e-3

    def test_single_good_economy(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=10)
        prefs = Preferences("coordinate_dominance", 1, jsets=((0,),) * 10)
        eco = Economy(fam, np.ones((10, 1)), prefs)
        res = find_price(eco, eco.endowment, samples=50, seed=0)
        assert res.found
        assert res.price == pytest.approx([1.0])

    def test_anti_equilibrium_fails_with_violations(self, cd_economy):
        y = cd_economy.fam.ygrid
        f_anti = np.column_stack([2 * (1 - y), 2 * y])
        res = find_price(cd_economy, f_anti, samples=300, seed=7)
        assert not res.found
        assert res.violations


class TestWealthDominance:
    def test_endowment_equality(self, cd_economy):
        rep = check_wealth_dominance(cd_economy, cd_economy.endowment, [0.4, 0.6])
        assert rep.passed and rep.max_gap <= 1e-12

    def test_equilibrium_equality_at_its_price(self, cd_economy, equilibrium):
        rep = check_wealth_dominance(cd_economy, equilibrium, [0.5, 0.5])
        assert rep.passed
        assert rep.max_gap <= 1e-9  # budget binds node by node

    def test_detects_shortfall(self, cd_economy):
        f = cd_economy.endowment.copy()
        f[10:20, 0] -= 0.25
        rep = check_wealth_dominance(cd_economy, f, [0.5, 0.5])
        assert not rep.passed
        assert {node for node, _ in rep.violations} == set(range(10, 20))


class TestImprovement:
    def test_no_witness_against_equilibrium(self, cd_economy, equilibrium):
        res = search_improvement(cd_economy, equilibrium, "improve", budget=500, seed=11)
        assert isinstance(res, ExhaustedReport)
        assert res.coalitions > 100 and res.allocations >= 50

    def test_zero_allocation_improved_by_endowment(self, cd_economy):
        res = search_improvement(cd_economy, np.zeros((K, 2)), "improve", budget=50)
        assert isinstance(res, ImprovementWitness)
        assert res.source == "endowment"

    def test_gains_from_trade_at_endowment(self, cd_economy):
        res = search_improvement(cd_economy, cd_economy.endowment, "improve", budget=300)
        assert isinstance(res, ImprovementWitness)
        assert res.source.startswith("demand")
        ok, detail = verify_improvement(cd_economy, cd_economy.endowment, res)
        assert ok, detail

    def test_strong_improvement_of_anti_equilibrium(self, cd_economy):
        y = cd_economy.fam.ygrid
        f_anti = np.column_stack([2 * (1 - y), 2 * y])
        res = search_improvement(cd_economy, f_anti, "strongly_improve", budget=100)
        assert isinstance(res, ImprovementWitness)
        ok, _ = verify_improvement(cd_economy, f_anti, res)
        assert ok

    def test_verifier_rejects_unbalanced_witness(self, cd_economy):
        bogus = ImprovementWitness(
            "improve",
            ProductSet.full(K),
            ProductStepFunction.sectional(cd_economy.endowment + 0.5),
            "bogus",
        )
        ok, detail = verify_improvement(cd_economy, cd_economy.endowment, bogus)
        assert not ok
        assert detail["reason"] == "balance violated"

    def test_verifier_rejects_non_preferred_witness(self, cd_economy, equilibrium):
        bogus = ImprovementWitness(
            "improve",
            ProductSet.full(K),
            ProductStepFunction.sectional(cd_economy.endowment),
            "bogus",
        )
        ok, detail = verify_improvement(cd_economy, equilibrium, bogus)
        assert not ok

    def test_reconstruction_from_price_failure(self, cd_economy):
        y = cd_economy.fam.ygrid
        f_anti = np.column_stack([2 * (1 - y), 2 * y])
        res = find_price(cd_economy, f_anti, samples=300, seed=7)
        assert not res.found
        witness = None
        for smp in res.violations:
            witness = improvement_from_excess(cd_economy, f_anti, smp)
            if witness is not None:
                break
        assert witness is not None
        ok, _ = verify_improvement(cd_economy, f_anti, witness)
        assert ok


class TestSectionalize:
    def test_sectional_input_is_fixed_point(self, cd_economy):
        s = ProductStepFunction.sectional(cd_economy.endowment * 1.7)
        out = sectionalize(cd_economy, s, ProductSet.full(K))
        assert out == pytest.approx(cd_economy.endowment * 1.7)

    def test_x_profile_averages_to_half(self, cd_economy):
        s = ProductStepFunction.uniform(
            StepFunction.from_samples(lambda x: np.array([x, x]), 64), K
        )
        out = sectionalize(cd_economy, s, ProductSet.full(K))
        assert out == pytest.approx(np.full((K, 2), 0.5), abs=1e-8)

    def test_preserves_integrals_on_random_sets(self, cd_economy):
        rng = np.random.default_rng(3)
        for _ in range(200):
            sections = tuple(
                StepFunction.on_grid(rng.uniform(0.1, 2.0, size=(4, 2))) for _ in range(K)
            )
            s = ProductStepFunction(sections)
            A = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(K)))
            g = sectionalize(cd_economy, s, A)
            ga = integrate_sectional_over(cd_economy.fam, g, A)
            sa = np.mean(
                [
                    np.atleast_1d(choquet_restricted(sec, mu, a))
                    for sec, mu, a in zip(s.sections, cd_economy.fam.measures, A.sections)
                ],
                axis=0,
            )
            assert np.max(np.abs(ga - sa)) <= 1e-9

    def test_two_level_average_stays_in_contour(self, cd_economy, equilibrium):
        # values in C_y (weakly preferred to f) average back into C_y
        rng = np.random.default_rng(4)
        sections = []
        for k in range(K):
            u = equilibrium[k] + rng.uniform(0.0, 0.5, size=2)
            v = equilibrium[k] + rng.uniform(0.0, 0.5, size=2)
            sections.append(
                StepFunction(
                    (IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])),
                    np.array([u, v]),
                    validate=False,
                )
            )
        A = product_set_from_levels(cd_economy.fam, rng.uniform(0.2, 1.0, size=K))
        out = sectionalize(cd_economy, ProductStepFunction(tuple(sections)), A)
        for k in range(K):
            assert cd_economy.prefs.weakly_prefers(k, out[k], equilibrium[k], tol=1e-9)


class TestConvexity:
    def test_mixing_formula(self, cd_economy, equilibrium):
        rep = check_excess_convexity(cd_economy, equilibrium, trials=200, seed=3)
        assert rep.passed
        assert rep.max_mixing_deviation <= 1e-8
        assert rep.max_realization_deviation <= 1e-8
        assert rep.membership_failures == 0


class TestEndowmentEquilibrium:
    def test_uniform_full_dominance_is_walrasian(self):
        eco = dominance_economy(((0, 1),) * K)
        rep = endowment_is_walrasian(eco)
        assert rep.verdict
        assert rep.price is not None and rep.price.min() > 0

    def test_single_good(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=10)
        eco = Economy(
            fam, np.ones((10, 1)), Preferences("coordinate_dominance", 1, jsets=((0,),) * 10)
        )
        rep = endowment_is_walrasian(eco)
        assert rep.verdict
        assert rep.price == pytest.approx([1.0])

    def test_split_fixture_is_honestly_rejected(self):
        # With J_y = {1} on one half and {2} on the other, spending all
        # wealth on the single tracked good is affordable and strictly
        # preferred at any price, so (e, p) can never satisfy (w2) at every
        # node.  See the README and acceptance criterion 09, which checks
        # the proof.
        eco = split_j_economy()
        rep = endowment_is_walrasian(eco)
        assert not rep.verdict
        # the swap allocation even improves e outright
        res = search_improvement(eco, eco.endowment, "improve", budget=300)
        assert isinstance(res, ImprovementWitness)

    def test_requires_dominance_preferences(self, cd_economy):
        with pytest.raises(StructuralError):
            endowment_is_walrasian(cd_economy)


class TestIntegralConditions:
    def test_c1_under_subadditive_sections(self):
        fam = SectionFamily.homothetic(Distortion.power(0.5), K=20)
        assert check_condition_c1(fam, trials=200, seed=5) <= 1e-12

    def test_c2_witness_on_constructed_pairs(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=20)
        rng = np.random.default_rng(6)
        for _ in range(100):
            g = rng.uniform(0.5, 2.0, size=20)
            f = g - rng.uniform(0.0, 0.3, size=20)
            f = np.clip(f, 0.0, None)
            k = int(rng.integers(20))
            f[k] = g[k] + rng.uniform(0.1, 1.0)
            w = condition_c2_witness(fam, f, g)
            assert w is not None
            assert w.lhs > w.rhs

    def test_c2_no_witness_when_dominated(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=20)
        f = np.full(20, 0.5)
        g = np.full(20, 0.7)
        assert condition_c2_witness(fam, f, g) is None


# -- array paths against the scalar object path ------------------------------


def random_economy(rng, pref_kind: str, fam_kind: str, K: int, n: int) -> Economy:
    """A small economy with a convex-type, normalized, subadditive family."""
    if fam_kind == "sectioned":
        nblocks = int(rng.integers(1, 4))
        W = rng.uniform(0.0, 2.0, size=(K, nblocks))
        W[np.arange(K), rng.integers(0, nblocks, K)] += 0.5
        fam = SectionFamily.sectioned(random_blocks(rng, nblocks), W)
    elif fam_kind == "power":
        fam = SectionFamily.homothetic(Distortion.power(float(rng.uniform(0.3, 1.0))), K=K)
    elif fam_kind == "pwl":
        xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=2)), [1.0]])
        slopes = np.sort(rng.uniform(0.1, 2.0, size=3))[::-1]  # concave
        ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
        fam = SectionFamily.homothetic(Distortion.piecewise_linear(zip(xs, ys)), K=K)
    else:
        fam = SectionFamily.homothetic(Distortion.identity(), K=K)
    if pref_kind == "cobb_douglas":
        a = rng.uniform(0.05, 1.0, size=(K, n))
        if n > 1 and rng.random() < 0.3:  # the rebalance of contour_boundary explodes
            a[:, 0] = rng.choice([10.0, 500.0], size=K) * a[:, 1:].sum(axis=1)
        prefs = Preferences("cobb_douglas", n, exponents=a / a.sum(axis=1, keepdims=True))
    elif pref_kind == "linear":
        prefs = Preferences("linear", n, weights=rng.uniform(0.2, 2.0, size=(K, n)))
    else:
        jsets = tuple(
            tuple(np.flatnonzero(rng.random(n) < 0.5)) or (int(rng.integers(n)),)
            for _ in range(K)
        )
        prefs = Preferences("coordinate_dominance", n, jsets=jsets)
    return Economy(fam, rng.uniform(0.5, 2.0, size=(K, n)), prefs)


def random_coalitions(rng, fam: SectionFamily):
    K = fam.K
    yield ProductSet.full(K)
    yield ProductSet.empty(K)
    yield ProductSet.single(K, int(rng.integers(K)))
    yield product_set_from_levels(fam, rng.choice([0.0, 0.3, 0.75, 1.0], size=K))
    yield product_set_from_levels(fam, rng.uniform(0, 1, size=K))
    for _ in range(3):
        yield ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(K)))


def built_two_level_candidates(eco: Economy, S: ProductSet, w: np.ndarray):
    """Every two-level candidate built in full, as before screening."""
    for c1 in TWO_LEVEL_C1:
        for beta in TWO_LEVEL_BETA:
            sections = []
            for k, (mu, sec) in enumerate(zip(eco.fam.measures, S.sections)):
                if w[k] <= 0:
                    sections.append(StepFunction.constant(eco.endowment[k]))
                    continue
                D = filtering_family(mu, sec).at(beta)
                mD = mu(D)
                if w[k] - mD <= 1e-12:
                    break
                c2 = (w[k] - c1 * mD) / (w[k] - mD)
                if c2 < 0:
                    break
                cells = [D, sec.difference(D)]
                vals = [c1 * eco.endowment[k], c2 * eco.endowment[k]]
                rest = sec.complement()
                if not rest.is_empty:
                    cells.append(rest)
                    vals.append(eco.endowment[k])
                sections.append(StepFunction(tuple(cells), np.array(vals), validate=False))
            else:
                yield ProductStepFunction(tuple(sections)), f"two-level(c1={c1},beta={beta})"


ECONOMY_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    pref_kind=st.sampled_from(["cobb_douglas", "linear", "coordinate_dominance"]),
    fam_kind=st.sampled_from(["identity", "power", "pwl", "sectioned"]),
    K=st.integers(1, 7),
    n=st.integers(1, 3),
)


class TestArrayPathsAgainstScalar:
    @settings(max_examples=80, deadline=None)
    @given(**ECONOMY_DRAWS)
    def test_section_measures_equal_the_node_loop(self, seed, pref_kind, fam_kind, K, n):
        rng = np.random.default_rng(seed)
        fam = random_economy(rng, pref_kind, fam_kind, K, n).fam
        for H in random_coalitions(rng, fam):
            expected = np.array([mu(sec) for mu, sec in zip(fam.measures, H.sections)])
            np.testing.assert_array_equal(section_measures(fam, H), expected)

    @pytest.mark.filterwarnings("ignore:overflow encountered in scalar power")
    @settings(max_examples=80, deadline=None)
    @given(**ECONOMY_DRAWS)
    def test_contour_rows_equal_contour_boundary(self, seed, pref_kind, fam_kind, K, n):
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        for _ in range(5):
            F = rng.uniform(0.0, 3.0, size=(K, n))
            F[rng.random((K, n)) < 0.15] = 0.0  # Cobb-Douglas has no contour there
            axes = rng.integers(0, n, size=K)
            deltas = rng.uniform(-1.5, 1.5, size=K)
            expected = F.copy()
            for k in range(K):
                pt = eco.prefs.contour_boundary(k, F[k], int(axes[k]), float(deltas[k]))
                if pt is not None:
                    expected[k] = pt
            np.testing.assert_array_equal(eco.prefs.contour_rows(F, axes, deltas), expected)

    @settings(max_examples=60, deadline=None)
    @given(**ECONOMY_DRAWS)
    def test_screens_accept_what_build_then_verify_accepts(
        self, seed, pref_kind, fam_kind, K, n
    ):
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        f = eco.endowment * rng.uniform(0.3, 1.3, size=(K, 1))
        sectionals = list(_sectional_candidates(eco, 6))
        G = np.array([g for g, _ in sectionals])
        prefers = eco.prefs.strict_rows(G, f)
        np.testing.assert_array_equal(
            prefers, [[eco.prefs.strictly_prefers(k, g[k], f[k]) for k in range(K)] for g in G]
        )
        for S in random_coalitions(rng, eco.fam):
            w = section_measures(eco.fam, S)
            if not np.any(w > 0):
                continue
            for mode in ("improve", "strongly_improve"):
                screened = _screen_sectionals(eco, G, prefers, w, mode)
                for j, (g, src) in enumerate(sectionals):
                    witness = ImprovementWitness(mode, S, ProductStepFunction.sectional(g), src)
                    accepted = verify_improvement(eco, f, witness)[0]
                    assert (screened[j] and accepted) == accepted, (mode, src)
            built = list(built_two_level_candidates(eco, S, w))
            screened = list(_two_level_candidates(eco, S, w, f))
            assert [src for _, src in screened] == [src for _, src in built]
            for (g, src), (g_ref, _) in zip(screened, built):
                accepted = verify_improvement(
                    eco, f, ImprovementWitness("strongly_improve", S, g_ref, src)
                )[0]
                kept = g is not None and verify_improvement(
                    eco, f, ImprovementWitness("strongly_improve", S, g, src)
                )[0]
                assert kept == accepted, src


# Outputs of the per-node object path these searches replaced, on the K = 100
# Cobb-Douglas fixture at its equilibrium, with the equilibrium benchmark's
# settings (200 random samples; search budgets 500 and 100).
PINNED_CLOUD_SIZE = 1801
PINNED_LABELS_SHA256 = "abb31d6eb7876f21822a1829700accb51919ae791a588e1df07c3195e51bb005"
PINNED_SAMPLES_USED = 1799
PINNED_PRICE = [0.5000000097517194, 0.49999999024828057]
PINNED_MARGIN = 1.94089596086374e-10
PINNED_CLOUD = {  # sum of node measures, sum of z, intervals over all coalitions
    7: (11008.26341621938, [1147.5950417053173, 2331.5634779806783], 21158),
    42: (11631.611571688643, [1626.0268836065356, 1060.0647069891581], 22476),
}
PINNED_REPORTS = {
    "improve": {"witness": None, "mode": "improve", "searched": {
        "coalitions": 164, "allocations": 50, "two_level": 0, "pairs": 8200}},
    "strongly_improve": {"witness": None, "mode": "strongly_improve", "searched": {
        "coalitions": 74, "allocations": 50, "two_level": 592, "pairs": 3700}},
}


@pytest.mark.parametrize("seed", [7, 42])
class TestPinnedOutputs:
    def test_excess_cloud(self, cd_economy, equilibrium, seed):
        cloud = sample_excess_points(cd_economy, equilibrium, samples=200, seed=seed)
        assert isinstance(cloud, list) and len(cloud) == PINNED_CLOUD_SIZE
        labels = "\n".join(smp.label for smp in cloud).encode()
        assert hashlib.sha256(labels).hexdigest() == PINNED_LABELS_SHA256
        measure_sum, z_sum, intervals = PINNED_CLOUD[seed]
        assert sum(float(smp.node_measures.sum()) for smp in cloud) == pytest.approx(
            measure_sum, rel=1e-12
        )
        assert np.sum([smp.z for smp in cloud], axis=0) == pytest.approx(z_sum, rel=1e-12)
        assert sum(len(sec.intervals) for smp in cloud for sec in smp.coalition.sections) == (
            intervals
        )

    def test_price(self, cd_economy, equilibrium, seed):
        res = find_price(cd_economy, equilibrium, samples=200, seed=seed)
        assert res.samples_used == PINNED_SAMPLES_USED
        assert res.price == pytest.approx(PINNED_PRICE, abs=1e-12)
        assert res.margin == pytest.approx(PINNED_MARGIN, abs=1e-12)

    @pytest.mark.parametrize("mode,budget", [("improve", 500), ("strongly_improve", 100)])
    def test_exhausted_reports(self, cd_economy, equilibrium, seed, mode, budget):
        res = search_improvement(cd_economy, equilibrium, mode, budget=budget, seed=seed)
        assert res.to_dict() == PINNED_REPORTS[mode]
