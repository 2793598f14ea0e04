import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_lab.choquet import StepFunction, choquet, choquet_restricted, random_step_function
from choquet_lab.errors import InvalidPriceError, StructuralError
from choquet_lab import economy
from choquet_lab.fixtures import (
    cobb_douglas_economy,
    full_dominance_economy,
    identity_family,
    split_dominance_economy,
)
from choquet_lab.intervals import IntervalSet, random_interval_set
from choquet_lab.measures import Distortion, FuzzyMeasure
from choquet_lab.product import (
    ProductSet,
    ProductStepFunction,
    SectionFamily,
    integrate_product,
    integrate_sectional_over,
    product_set_from_levels,
    section_measures,
)
from choquet_lab.economy import (
    Economy,
    ExhaustedReport,
    ImprovementWitness,
    Preferences,
    budget_check,
    check_excess_convexity,
    check_walras,
    check_wealth_dominance,
    condition_c1_witness,
    condition_c2_witness,
    endowment_is_walrasian,
    find_price,
    is_feasible,
    is_maximal_in_budget,
    normalize_price,
    sample_excess_points,
    search_improvement,
    sectionalize,
    verify_improvement,
    _envelope_price,
    _price_grid,
    _screen_sectionals,
    _sectional_candidates,
)
from test_choquet import random_blocks

K = 100


def sampled_c1_violation(fam, trials, seed):
    """Max violation of integral subadditivity over random scalar product
    step functions: the sampled check ``condition_c1_witness`` replaced,
    kept as its oracle (0.0 when none is found)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        fs = tuple(random_step_function(rng, max_cells=6) for _ in range(fam.K))
        gs = tuple(random_step_function(rng, max_cells=6) for _ in range(fam.K))
        lhs = np.mean([choquet(a + b, mu) for a, b, mu in zip(fs, gs, fam.measures)])
        rhs = np.mean([choquet(a, mu) for a, mu in zip(fs, fam.measures)]) + np.mean(
            [choquet(b, mu) for b, mu in zip(gs, fam.measures)]
        )
        worst = max(worst, float(lhs - rhs))
    return worst


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


def prefers(prefs, k, u, v, strict=True, tol=0.0) -> bool:
    """Is u preferred to v at node k: the definitions, one node at a time."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    if prefs.kind == "coordinate_dominance":
        js = list(prefs.jsets[k])
        return bool(np.all(u[js] > v[js]) if strict else np.all(u[js] >= v[js] - tol))
    if prefs.kind == "cobb_douglas":
        a = prefs.exponents[k]
        uu, uv = np.prod(np.maximum(u, 0.0) ** a), np.prod(np.maximum(v, 0.0) ** a)
    else:
        w = prefs.weights[k]
        uu, uv = float(w @ u), float(w @ v)
    return bool(uu > uv if strict else uu >= uv - tol)


def contour_boundary(prefs, k, ref, axis, delta):
    """A point on the indifference/dominance boundary through ``ref``, nudged
    by ``delta`` along ``axis`` and rebalanced on the rest, or None: the
    scalar reference of ``Preferences.contour_rows``, one node at a time."""
    ref = np.asarray(ref, dtype=float)
    if prefs.kind == "cobb_douglas":
        if ref.min() <= 0 or delta <= -1:
            return None
        a = prefs.exponents[k]
        if prefs.n == 1:
            return ref.copy()
        out = ref.copy()
        out[axis] = ref[axis] * (1.0 + delta)
        r = (1.0 + delta) ** (-a[axis] / (1.0 - a[axis]))
        if not np.isfinite(r) or r > 1e6:
            return None  # rebalance explodes when the axis exponent nears 1
        rest = np.arange(prefs.n) != axis
        out[rest] = ref[rest] * r
        return out
    if prefs.kind == "linear":
        if prefs.n == 1:
            return ref.copy()
        w = prefs.weights[k]
        other = (axis + 1) % prefs.n
        out = ref.copy()
        out[axis] += delta / w[axis]
        out[other] -= delta / w[other]
        return out if out.min() >= 0 else None
    # dominance: J-coordinates pinned at ref, the others are free
    out = ref.copy()
    for i in range(prefs.n):
        if i not in prefs.jsets[k]:
            out[i] = max(0.0, ref[i] + delta)
    return out


# Every public entry that takes an allocation f, called at price (1/2, 1/2).
ALLOCATION_ENTRIES = {
    "check_excess_convexity": lambda eco, f: check_excess_convexity(eco, f, trials=5),
    "check_walras": lambda eco, f: check_walras(eco, f, [0.5, 0.5]),
    "check_wealth_dominance": lambda eco, f: check_wealth_dominance(eco, f, [0.5, 0.5]),
    "find_price": lambda eco, f: find_price(eco, f, samples=5),
    "is_feasible": is_feasible,
    "is_maximal_in_budget": lambda eco, f: is_maximal_in_budget(eco, [0.5, 0.5], f, 0),
    "sample_excess_points": lambda eco, f: sample_excess_points(eco, f, samples=5),
    "search_improvement improve": lambda eco, f: search_improvement(eco, f, budget=10),
    "search_improvement strongly_improve":
        lambda eco, f: search_improvement(eco, f, "strongly_improve"),
    "verify_improvement": lambda eco, f: verify_improvement(eco, f, ImprovementWitness(
        "improve", ProductSet.full(eco.K), ProductStepFunction.sectional(eco.endowment), "e")),
}


def maximal_reference(eco, p, f, k):
    """Budget maximality of f[k] by the closed forms, one node at a time: the
    per-node reference for the row decision of check_walras."""
    p, bundle, prefs = normalize_price(p), f[k], eco.prefs
    wealth = float(p @ eco.endowment[k])
    if p @ bundle > wealth + economy.DEMAND_TOL:
        return False, None
    if prefs.kind == "cobb_douglas":
        if p.min() > 0:
            d = prefs.exponents[k] * wealth / p
            return (True, None) if np.max(np.abs(bundle - d)) <= economy.DEMAND_TOL else (False, d)
        if bundle.min() > 0:
            worse = bundle.copy()
            worse[np.argmin(p)] += 1.0 + np.max(eco.endowment)
            return False, worse
        return False, np.full(eco.n, wealth / (2.0 * eco.n * max(p.max(), 1e-12)))
    if prefs.kind == "linear":
        free = np.flatnonzero(p == 0)
        w = prefs.weights[k]
        if free.size:
            cand = bundle.copy()
            cand[free[0]] += 1.0
        else:
            i = int(np.argmax(w / p))
            cand = np.zeros(eco.n)
            cand[i] = 0.5 * (wealth / p[i] + float(w @ bundle) / w[i])
    else:
        js = list(prefs.jsets[k])
        spent = float(p[js] @ bundle[js])
        if not spent < wealth:
            return True, None
        unit = float(np.sum(p[js]))
        cand = np.zeros(eco.n)
        cand[js] = bundle[js] + ((wealth - spent) / (2.0 * unit) if unit > 0 else 1.0)
    q = normalize_price(p)
    if prefers(prefs, k, cand, bundle) and q @ cand <= q @ eco.endowment[k] + economy.BUDGET_TOL:
        return False, cand
    return True, None


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
        with pytest.raises(StructuralError, match="economy needs submodular section measures"):
            Economy(fam, np.ones((4, 1)), prefs)

    def test_rejects_boundary_endowment(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=4)
        prefs = Preferences("linear", 2, weights=np.ones((4, 2)))
        e = np.ones((4, 2))
        e[2, 1] = 0.0
        with pytest.raises(StructuralError):
            Economy(fam, e, prefs)

    @pytest.mark.parametrize("fam, prefs, message", [
        (SectionFamily.homothetic(Distortion.identity(scale=2.0), K=4, normalized=False),
         Preferences("linear", 2, weights=np.ones((4, 2))), "normalized section measures"),
        (SectionFamily.homothetic(Distortion.identity(), K=4),
         Preferences("linear", 2, weights=np.ones((3, 2))), "preference grid"),
        (SectionFamily.homothetic(Distortion.identity(), K=4),
         Preferences("linear", 3, weights=np.ones((4, 3))), "preference grid"),
    ], ids=["unnormalized", "fewer preference rows", "more goods"])
    def test_rejects_a_family_or_grid_it_cannot_use(self, fam, prefs, message):
        with pytest.raises(StructuralError, match=message):
            Economy(fam, np.ones((4, 2)), prefs)

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

    def test_index_sets_take_integers_only(self):
        for jsets in (((1.5,),), ((True,),), ((np.True_,),), (("1",),), ((np.float64(1),),), (1,)):
            with pytest.raises(StructuralError):
                Preferences("coordinate_dominance", 2, jsets=jsets)
        prefs = Preferences("coordinate_dominance", 3, jsets=((np.int64(2), 0), (np.intp(1),)))
        assert prefs.jsets == ((0, 2), (1,))
        assert {type(j) for js in prefs.jsets for j in js} == {int}

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", sorted(ALLOCATION_ENTRIES))
    def test_rejects_non_finite_allocations(self, entry, bad):
        eco, f, _ = cobb_douglas_economy(K=8)
        f[3, 1] = bad
        with pytest.raises(StructuralError, match="allocation must be finite"):
            ALLOCATION_ENTRIES[entry](eco, f)

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


class TestPriceShape:
    # a price with a wrong number of goods (n = 2 here) is an InvalidPriceError
    # in every check, not numpy's matmul error
    BAD = ([0.3, 0.3, 0.4], [1.0], [[0.5, 0.5]])

    @pytest.mark.parametrize("p", BAD)
    def test_check_walras(self, cd_economy, equilibrium, p):
        with pytest.raises(InvalidPriceError, match="price must have 2 entries"):
            check_walras(cd_economy, equilibrium, p)

    @pytest.mark.parametrize("p", BAD)
    def test_check_wealth_dominance(self, cd_economy, equilibrium, p):
        with pytest.raises(InvalidPriceError, match="price must have 2 entries"):
            check_wealth_dominance(cd_economy, equilibrium, p)

    @pytest.mark.parametrize("p", BAD)
    def test_is_maximal_in_budget(self, cd_economy, equilibrium, p):
        with pytest.raises(InvalidPriceError, match="price must have 2 entries"):
            is_maximal_in_budget(cd_economy, p, equilibrium, 3)

    @pytest.mark.parametrize("p", BAD)
    def test_budget_check(self, cd_economy, p):
        with pytest.raises(InvalidPriceError, match="price must have 2 entries"):
            budget_check(cd_economy, p, cd_economy.endowment[3], 3)


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

    def test_tolerance_covers_rounding_not_an_overspend(self, cd_economy):
        # wealth p . e_k = 1: an overspend of 1e-10 is rejected, one of 1e-13
        # is inside BUDGET_TOL
        assert not budget_check(cd_economy, [0.5, 0.5], [1.0 + 2e-10, 1.0], 5)
        assert budget_check(cd_economy, [0.5, 0.5], [1.0 + 2e-13, 1.0], 5)

    @pytest.mark.parametrize("bundle, message", [
        ([1.0, 1.0, 1.0], r"bundle must be \(2,\)"),
        ([[1.0, 1.0]], r"bundle must be \(2,\)"),
        ([np.nan, 1.0], "bundle must be finite"),
    ])
    def test_malformed_bundle_is_structural(self, bundle, message):
        # the same shape, finiteness and sign checks as an allocation row
        eco, _, _ = cobb_douglas_economy(K=4)
        with pytest.raises(StructuralError, match=message):
            budget_check(eco, [0.5, 0.5], bundle, 0)


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
        assert prefers(cd_economy.prefs, 42, violator, zero[42])
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
        assert prefers(eco.prefs, 0, violator, eco.endowment[0])
        assert budget_check(eco, [0.3, 0.7], violator, 0)

    def test_dominance_miss_of_the_budget_grid(self):
        # A 200-point grid over the budget face found no violator here:
        # bundle + 2e-5 is affordable and strictly dominates on J = {1, 2}.
        eco = full_dominance_economy(K)
        f = eco.endowment.copy()
        f[7] = [0.9999, 1.0]
        ok, violator = is_maximal_in_budget(eco, [0.5, 0.5], f, 7)
        assert not ok
        assert prefers(eco.prefs, 7, violator, f[7])
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
                assert prefers(
                    cd_economy.prefs, k, smp.selection[k], equilibrium[k], strict=False, tol=1e-9
                )


class TestFindPrice:
    def test_equilibrium_price_recovered(self, cd_economy, equilibrium):
        res = find_price(cd_economy, equilibrium, samples=200, seed=42)
        assert res.found
        assert np.max(np.abs(res.price - 0.5)) <= 1e-3

    @pytest.mark.parametrize("seed", [1689472368, 1218864899, 1531525505])
    def test_a_found_price_supports_its_cloud(self, cd_economy, equilibrium, seed):
        # Solved as an LP at HiGHS' default feasibility tolerance, 1e-7,
        # clouds of these seeds were called supported at prices with min
        # p . z < -PRICE_TOL, which check_walras then rejected at most nodes;
        # two goods take the envelope's maximizer, whose margin is within
        # the rounding bound of the LP optimum's, next to the equilibrium
        # price (1/2, 1/2)
        res = find_price(cd_economy, equilibrium, samples=200, seed=seed)
        Z = np.array([smp.z for smp in sample_excess_points(cd_economy, equilibrium, 200, seed)])
        Z = Z[np.max(np.abs(Z), axis=1) > 1e-12]
        assert res.found and res.margin >= -economy.PRICE_TOL
        assert np.min(Z @ res.price) >= -economy.PRICE_TOL
        assert res.margin >= lp_margin(Z) - envelope_bound(Z)
        assert np.max(np.abs(res.price - 0.5)) <= 1e-9
        assert check_walras(cd_economy, equilibrium, res.price).verdict

    def test_single_good_economy(self):
        fam = SectionFamily.homothetic(Distortion.identity(), K=10)
        prefs = Preferences("coordinate_dominance", 1, jsets=((0,),) * 10)
        eco = Economy(fam, np.ones((10, 1)), prefs)
        res = find_price(eco, eco.endowment, samples=50, seed=0)
        assert res.found
        assert res.price == pytest.approx([1.0])

    def test_coalitions_are_built_only_where_they_are_read(
        self, cd_economy, equilibrium, monkeypatch
    ):
        # find_price builds no coalition, and each violation builds its own
        # once, when read; the improve search builds one per candidate that
        # it hands to the verifier
        built, verified = [], []
        init, verify = ProductSet.__init__, economy.verify_improvement
        monkeypatch.setattr(ProductSet, "__init__", lambda *a: built.append(1) or init(*a))
        monkeypatch.setattr(economy, "verify_improvement", lambda *a: verified.append(1) or verify(*a))
        assert find_price(cd_economy, equilibrium, samples=200, seed=42).found and not built
        y = cd_economy.fam.ygrid
        res = find_price(cd_economy, np.column_stack([2 * (1 - y), 2 * y]), samples=200, seed=7)
        assert res.violations and not built
        for smp in res.violations + res.violations:
            assert smp.coalition.K == K
        assert len(built) == len(res.violations)
        built.clear()
        for f in (equilibrium, 0.5 * cd_economy.endowment):
            search_improvement(cd_economy, f, "improve", seed=3)
        assert verified and len(built) == len(verified)

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
        assert res.source == "endowment"
        assert sum(not sec.is_empty for sec in res.coalition.sections) == 1
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
        # e is not preferred to f at any node; the first one is reported
        assert detail == {"reason": "not strictly preferred", "node": 0}

    def test_unknown_mode_is_structural(self, cd_economy):
        with pytest.raises(StructuralError, match="unknown improvement mode 'weak'"):
            search_improvement(cd_economy, cd_economy.endowment, "weak")

    def test_verifier_rejects_a_witness_on_another_grid(self, cd_economy):
        witness = ImprovementWitness("improve", ProductSet.full(3),
                                     ProductStepFunction.sectional(np.ones((3, 2))), "e")
        ok, detail = verify_improvement(cd_economy, cd_economy.endowment, witness)
        assert not ok and detail == {"reason": "section-count mismatch"}

    def test_both_search_results_report_witness_and_searched(self, cd_economy):
        found = ImprovementWitness(
            "improve", ProductSet.full(K), ProductStepFunction.sectional(cd_economy.endowment),
            "endowment")
        exhausted = ExhaustedReport("improve", 1, 1, 1)
        assert found.to_dict().keys() >= {"witness", "searched"}
        assert exhausted.to_dict().keys() >= {"witness", "searched"}
        assert found.to_dict()["searched"] is None and exhausted.to_dict()["witness"] is None

    def test_price_failure_is_backed_by_the_strong_decision(self, cd_economy):
        # the sampled price search fails on f_anti, and the closed-form
        # strong decision gives the improvement behind that failure
        y = cd_economy.fam.ygrid
        f_anti = np.column_stack([2 * (1 - y), 2 * y])
        assert not find_price(cd_economy, f_anti, samples=300, seed=7).found
        witness = search_improvement(cd_economy, f_anti, "strongly_improve")
        assert isinstance(witness, ImprovementWitness)
        ok, detail = verify_improvement(cd_economy, f_anti, witness)
        assert ok, detail


class TestSectionalize:
    def test_sectional_input_is_fixed_point(self, cd_economy):
        s = ProductStepFunction.sectional(cd_economy.endowment * 1.7)
        out = sectionalize(cd_economy, s, ProductSet.full(K))
        assert out == pytest.approx(cd_economy.endowment * 1.7)

    def test_section_count_mismatch_is_structural(self, cd_economy):
        s = ProductStepFunction.sectional(np.ones((3, 2)))
        with pytest.raises(StructuralError, match="section-count mismatch"):
            sectionalize(cd_economy, s, ProductSet.full(K))

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
            assert prefers(cd_economy.prefs, k, out[k], equilibrium[k], strict=False, tol=1e-9)


class TestConvexity:
    def test_mixing_formula(self, cd_economy, equilibrium):
        rep = check_excess_convexity(cd_economy, equilibrium, trials=200, seed=3)
        assert rep.passed
        assert rep.max_mixing_deviation <= 1e-8
        assert rep.max_realization_deviation <= 1e-8
        assert rep.membership_failures == 0


    def test_dominance_mixtures_stay_weakly_preferred(self):
        # weak_rows of coordinate dominance compares the tracked goods only
        eco = split_dominance_economy(K=20)
        rep = check_excess_convexity(eco, eco.endowment, trials=50, seed=3)
        assert rep.passed
        weak = eco.prefs.weak_rows([[1.0, 0.0]] * 10 + [[0.0, 1.0]] * 10, eco.endowment)
        assert weak.all()
        assert not eco.prefs.weak_rows([[0.5, 9.0]] * 20, eco.endowment)[:10].any()


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

    def test_full_dominance_fixture_price_is_uniform(self):
        rep = endowment_is_walrasian(full_dominance_economy(K))
        assert rep.verdict and rep.walras.verdict and rep.price_failure is None
        np.testing.assert_array_equal(rep.price, [0.5, 0.5])

    def test_split_fixture_certificate(self):
        # every agent gives up its untracked good: z = (-1/2, -1/2)
        failure = endowment_is_walrasian(split_dominance_economy(K)).price_failure
        assert failure.to_dict() == {
            "found": False, "price": None, "margin": -0.5, "samples": 1, "violations": 1}
        np.testing.assert_array_equal(failure.violations[0].z, [-0.5, -0.5])

    def test_decides_without_the_sampled_price_search(self, monkeypatch):
        def sampled(*args, **kwargs):
            raise AssertionError("the closed form must not sample or solve an LP")

        for name in ("find_price", "sample_excess_points", "linprog"):
            monkeypatch.setattr(economy, name, sampled)
        assert endowment_is_walrasian(full_dominance_economy(K)).verdict
        assert not endowment_is_walrasian(split_dominance_economy(K)).verdict


class TestIntegralConditions:
    def test_c1_under_subadditive_sections(self):
        fam = SectionFamily.homothetic(Distortion.power(0.5), K=20)
        assert condition_c1_witness(fam) is None
        assert sampled_c1_violation(fam, trials=200, seed=5) <= 1e-12

    @pytest.mark.parametrize("node_g", [
        Distortion.power(2.0),
        Distortion.piecewise_linear([(0, 0), (0.9, 0.9), (0.95, 0.951), (1, 1)]),
        Distortion.piecewise_linear([(0, 0), (0.5, 0.7), (0.6, 0.72), (0.7, 0.8), (1, 1)]),
    ])
    def test_c1_witness_on_a_non_submodular_node(self, node_g):
        # node 2 of 5 is not submodular, the others are Lebesgue
        measures = [FuzzyMeasure.lebesgue()] * 5
        measures[2] = FuzzyMeasure.distorted(node_g)
        fam = SectionFamily.heterogeneous(measures)
        w = condition_c1_witness(fam)
        assert w.node == 2
        assert [s.max_value for s in w.f.sections] == [0.0, 0.0, 1.0, 0.0, 0.0]
        assert [s.max_value for s in w.g.sections] == [0.0, 0.0, 1.0, 0.0, 0.0]
        fg = ProductStepFunction(tuple(a + b for a, b in zip(w.f.sections, w.g.sections)))
        assert w.lhs == integrate_product(fam, fg)
        assert w.rhs == integrate_product(fam, w.f) + integrate_product(fam, w.g)
        assert w.lhs > w.rhs

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

    def test_c2_takes_scalar_sectional_functions(self):
        # the witness compares one number per node
        with pytest.raises(StructuralError, match=r"f must be \(4,\)"):
            condition_c2_witness(identity_family(4), np.ones((4, 2)), np.zeros((4, 2)))


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
        if n > 1 and rng.random() < 0.3:  # the Cobb-Douglas contour rebalance explodes
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


ECONOMY_DRAWS = dict(
    seed=st.integers(0, 2**32 - 1),
    pref_kind=st.sampled_from(["cobb_douglas", "linear", "coordinate_dominance"]),
    fam_kind=st.sampled_from(["identity", "power", "pwl", "sectioned"]),
    K=st.integers(1, 7),
    n=st.integers(1, 3),
)


def lp_margin(Z) -> float:
    """min_j p . z_j at the price of the LP max t s.t. Z p >= t, sum p = 1,
    p >= 0, solved by scipy's HiGHS: the oracle of the two-good closed form."""
    from scipy.optimize import linprog

    m, n = Z.shape
    res = linprog(np.r_[np.zeros(n), -1.0], A_ub=np.hstack([-Z, np.ones((m, 1))]),
                  b_ub=np.zeros(m), A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0],
                  bounds=[(0.0, 1.0)] * n + [(None, None)], method="highs")
    assert res.status == 0, res.message
    p = np.clip(res.x[:n], 0.0, None)
    return float(np.min(Z @ (p / p.sum())))


def envelope_bound(Z) -> float:
    """find_price's rounding bound on the closed form's margin: 16 u max |z|."""
    return 16 * 2.0**-53 * float(np.max(np.abs(Z)))


@st.composite
def raw_clouds(draw):
    """Two-good clouds of small integers times a power of two, shaped to the
    envelope's edge cases: parallel lines, all slopes rising or falling, one
    row, and a flat optimum (the line z = (c, c) lowest on an interval)."""
    kind = draw(st.sampled_from(["any", "parallel", "rising", "falling", "single", "flat"]))
    m = 1 if kind == "single" else draw(st.integers(2, 12))
    Z = np.array(draw(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                               min_size=m, max_size=m)), dtype=float)
    if kind == "parallel":
        Z[:, 0] = Z[:, 1] + (Z[0, 0] - Z[0, 1])
    elif kind == "rising":
        Z[:, 0] = Z[:, 1] + np.abs(Z[:, 0]) + 1
    elif kind == "falling":
        Z[:, 1] = Z[:, 0] + np.abs(Z[:, 1]) + 1
    elif kind == "flat":
        c = Z[0, 0]
        Z[0] = c
        Z[1:] = c + np.abs(Z[1:])
        Z[1, 0] = c - 1 - draw(st.integers(0, 3))  # dips below c towards q = 1
        Z[-1, 1] = min(Z[-1, 1], c - 1)  # and, if it is another row, towards q = 0
    return np.ldexp(Z, draw(st.integers(-30, 30)))


class TestEnvelopePrice:
    """The two-good closed form against an LP oracle: its margin is at most
    the rounding bound below the oracle's, and it prices every cloud the
    oracle prices."""

    @settings(max_examples=200, deadline=None)
    @given(Z=raw_clouds() | st.lists(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=1, max_size=12
    ).map(lambda rows: np.array(rows, dtype=float)))
    def test_raw_clouds(self, Z):
        if not np.abs(Z).max() > 0:
            return
        p = _envelope_price(Z)
        assert p[0] >= 0 and p[1] >= 0 and p.sum() == 1
        margin, oracle = float(np.min(Z @ p)), lp_margin(Z)
        assert margin >= oracle - envelope_bound(Z)
        assert margin >= -economy.PRICE_TOL or oracle < -economy.PRICE_TOL
        # scaled by 2^k to max |z| in [2^1023, 2^1024), where z_1 - z_2 can
        # overflow, the cloud keeps its price bit for bit
        huge = np.ldexp(Z, 1024 - np.frexp(np.max(np.abs(Z)))[1])
        np.testing.assert_array_equal(_envelope_price(huge), p)

    @settings(max_examples=60, deadline=None)
    @given(**{**ECONOMY_DRAWS, "n": st.just(2)}, at_endowment=st.booleans())
    def test_random_economies(self, seed, pref_kind, fam_kind, K, n, at_endowment):
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        f = eco.endowment if at_endowment else rng.uniform(0.3, 2.0, size=(K, n))
        Z = np.array([smp.z for smp in sample_excess_points(eco, f, samples=30, seed=seed)])
        Z = Z[np.max(np.abs(Z), axis=1) > 1e-12]
        if not len(Z):
            with pytest.raises(StructuralError, match="degenerate"):
                find_price(eco, f, samples=30, seed=seed)
            return
        res = find_price(eco, f, samples=30, seed=seed)
        oracle = lp_margin(Z)
        assert res.margin >= oracle - envelope_bound(Z)
        assert res.found or oracle < -economy.PRICE_TOL

    def test_one_and_two_goods_solve_no_lp(self, cd_economy, equilibrium, monkeypatch):
        def no_lp(*args, **kwargs):
            raise AssertionError("one or two goods are priced in closed form")

        monkeypatch.setattr(economy, "linprog", no_lp)
        fam = SectionFamily.homothetic(Distortion.identity(), K=5)
        eco = Economy(fam, np.ones((5, 1)), Preferences("linear", 1, weights=np.ones((5, 1))))
        assert find_price(eco, eco.endowment, samples=20, seed=1).price.tolist() == [1.0]
        assert find_price(cd_economy, equilibrium, samples=20, seed=1).found


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
    @given(**ECONOMY_DRAWS, stack=st.integers(1, 3))
    def test_contour_rows_equal_contour_boundary(self, seed, pref_kind, fam_kind, K, n, stack):
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        for _ in range(5):  # rows r of `stack` allocations, at node r % K
            F = rng.uniform(0.0, 3.0, size=(stack * K, n))
            F[rng.random((stack * K, n)) < 0.15] = 0.0  # Cobb-Douglas has no contour there
            axes = rng.integers(0, n, size=stack * K)
            deltas = rng.uniform(-1.5, 1.5, size=stack * K)
            expected, defined = F.copy(), np.zeros(stack * K, dtype=bool)
            for r in range(stack * K):
                pt = contour_boundary(eco.prefs, r % K, F[r], int(axes[r]), float(deltas[r]))
                if pt is not None:
                    expected[r], defined[r] = pt, True
            rows, mask = eco.prefs.contour_rows(F, axes, deltas)
            np.testing.assert_array_equal(rows, expected)
            np.testing.assert_array_equal(mask, defined)

    @pytest.mark.parametrize("fam_kind", ["identity", "power", "pwl", "sectioned"])
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        pref_kind=st.sampled_from(["cobb_douglas", "linear", "coordinate_dominance"]),
        K=st.integers(1, 7),
        n=st.integers(1, 3),
    )
    def test_every_excess_sample_re_derives_from_its_generators(
        self, fam_kind, seed, pref_kind, K, n
    ):
        # bit for bit, at every sample of the cloud: the node measures are
        # section_measures of the coalition, and z is the mean over nodes of
        # (s - e) * w
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        f = eco.endowment * rng.uniform(0.8, 1.2, size=(K, 1))
        for smp in sample_excess_points(eco, f, samples=40, seed=seed):
            np.testing.assert_array_equal(
                smp.node_measures, section_measures(eco.fam, smp.coalition))
            z = np.mean((smp.selection - eco.endowment) * smp.node_measures[:, None], axis=0)
            assert smp.z.tobytes() == z.tobytes(), smp.label

    def test_cobb_douglas_candidates_equal_the_node_demands(self, cd_economy):
        # bit for bit: the demand a_k * (p . e_k) / p of every node
        rng = np.random.default_rng(5)
        economies = [cd_economy] + [
            random_economy(rng, "cobb_douglas", "identity", 9, n) for n in (1, 2, 3, 5, 8)
        ]
        for eco in economies:
            candidates = list(_sectional_candidates(eco, 50))[1:]
            prices = list(_price_grid(eco.n, 50))
            assert len(candidates) == len(prices)
            for (rows, _), p in zip(candidates, prices):
                expected = [
                    eco.prefs.exponents[k] * float(p @ eco.endowment[k]) / p for k in range(eco.K)
                ]
                np.testing.assert_array_equal(rows, expected)

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
        strict = eco.prefs.strict_rows(G, f)
        np.testing.assert_array_equal(
            strict, [[prefers(eco.prefs, k, g[k], f[k]) for k in range(K)] for g in G]
        )
        for S in random_coalitions(rng, eco.fam):
            w = section_measures(eco.fam, S)
            if not np.any(w > 0):
                continue
            screened = _screen_sectionals(eco, G, strict, w[None])[0]
            for j, (g, src) in enumerate(sectionals):
                witness = ImprovementWitness("improve", S, ProductStepFunction.sectional(g), src)
                accepted = verify_improvement(eco, f, witness)[0]
                assert (screened[j] and accepted) == accepted, src

    @settings(max_examples=80, deadline=None)
    @given(**ECONOMY_DRAWS, zero_price=st.booleans())
    def test_walras_rows_are_the_node_view(self, seed, pref_kind, fam_kind, K, n, zero_price):
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        p = rng.dirichlet(np.ones(n))
        if zero_price and n > 1:
            p[rng.integers(n)] = 0.0
        f = eco.endowment * rng.uniform(0.3, 1.3, size=(K, 1))  # some nodes over budget
        demand = eco.prefs.demand_rows(p, eco.wealth(p), ref=eco.endowment)
        if demand is not None:  # spend exactly the wealth at some nodes
            take = rng.random(K) < 0.5
            f[take] = demand[take]
        rep = check_walras(eco, f, p)
        views = [is_maximal_in_budget(eco, p, f, k) for k in range(K)]
        np.testing.assert_array_equal(rep.maximal_nodes, [ok for ok, _ in views])
        failing = [k for k, (ok, _) in enumerate(views) if not ok]
        if failing:
            violator = views[failing[0]][1]
            assert rep.first_violation == {
                "node": failing[0], "violator": None if violator is None else violator.tolist()}
        else:
            assert rep.first_violation is None
        for k, (ok, violator) in enumerate(views):
            ref_ok, ref_violator = maximal_reference(eco, p, f, k)
            assert ok == ref_ok
            if ok or ref_violator is None:
                assert violator is None  # in particular, (True, None) at a maximal node
            else:
                assert violator.tobytes() == ref_violator.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**ECONOMY_DRAWS)
    def test_strong_improvement_is_decided_at_the_endowment(
        self, seed, pref_kind, fam_kind, K, n
    ):
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        f = rng.uniform(0.0, 3.0, size=(K, n))
        # at most nodes, make f weakly preferred to e, so that both answers occur
        fix = rng.random(K) < 0.8
        f[fix] = eco.endowment[fix] * rng.uniform(1.0, 1.3, size=(int(fix.sum()), 1))
        res = search_improvement(eco, f, "strongly_improve")
        assert res.found == bool(eco.prefs.strict_rows(eco.endowment, f).any())
        if res.found:
            assert verify_improvement(eco, f, res)[0]
            return
        assert res.to_dict()["searched"] == {
            "coalitions": K, "allocations": 1, "two_level": 0, "pairs": K}
        # cross-check: no sectional candidate of the budgeted search verifies either
        sectionals = list(_sectional_candidates(eco, 6))
        for S in random_coalitions(rng, eco.fam):
            for g, src in sectionals:
                witness = ImprovementWitness(
                    "strongly_improve", S, ProductStepFunction.sectional(g), src)
                assert not verify_improvement(eco, f, witness)[0], src

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fam_kind=st.sampled_from(["identity", "power", "pwl", "sectioned"]),
        K=st.integers(1, 8),
        n=st.integers(1, 3),
        shared=st.booleans(),
    )
    def test_endowment_decision_equals_the_sampled_oracle(self, seed, fam_kind, K, n, shared):
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, "coordinate_dominance", fam_kind, K, n)
        if shared:  # some good tracked by every node, so both answers occur
            good = int(rng.integers(n))
            jsets = tuple(js + (good,) for js in eco.prefs.jsets)
            prefs = Preferences("coordinate_dominance", n, jsets=jsets)
            eco = Economy(eco.fam, eco.endowment, prefs)
        tracked = eco.prefs._jmask.all(axis=0)
        rep = endowment_is_walrasian(eco, seed=seed)

        sampled = find_price(eco, eco.endowment, seed=seed)
        oracle = sampled.found and check_walras(eco, eco.endowment, sampled.price).verdict
        assert rep.verdict == oracle == bool(tracked.any())
        exact_margin = 0.0 if rep.verdict else rep.price_failure.margin
        assert sampled.margin >= exact_margin - 1e-12

        if rep.verdict:
            assert rep.price.sum() == pytest.approx(1.0, abs=1e-15)
            assert np.all(rep.price[~tracked] == 0.0) and np.all(rep.price[tracked] > 0.0)
            return
        failure = rep.price_failure
        assert failure.samples_used == 1 and len(failure.violations) == 1
        smp = failure.violations[0]
        for k in range(K):
            assert prefers(eco.prefs, k, smp.selection[k], eco.endowment[k], strict=False)
        np.testing.assert_array_equal(smp.node_measures, section_measures(eco.fam, smp.coalition))
        z = np.mean((smp.selection - eco.endowment) * smp.node_measures[:, None], axis=0)
        np.testing.assert_allclose(smp.z, z, rtol=0.0, atol=1e-12)
        assert failure.margin == pytest.approx(np.max(z), abs=1e-12) and failure.margin < 0
        prices = np.vstack([np.eye(n), rng.dirichlet(np.ones(n), size=101 - n)])
        assert np.all(prices @ smp.z <= failure.margin + 1e-12)


def unscreened_improve(eco, f, budget: int, seed: int) -> dict:
    """The report of ``search_improvement(eco, f, "improve", budget, seed)``
    without its screen: the same draws and candidates, and every pair of an
    active coalition handed to ``verify_improvement`` in search order."""
    rng = np.random.default_rng(seed)
    sectionals = list(_sectional_candidates(eco, economy.DEMAND_GRID))
    draws = list(economy._block_levels(eco, rng, budget // 5))
    draws += economy._section_draws(rng, eco.K, min(20, budget // 10))
    active = 0
    for draw in draws:
        S = economy._coalition(eco.fam, draw)
        if not np.any(section_measures(eco.fam, S) > 0):
            continue
        active += 1
        for g, src in sectionals:
            witness = ImprovementWitness("improve", S, ProductStepFunction.sectional(g), src)
            if verify_improvement(eco, f, witness)[0]:
                return witness.to_dict()
    return ExhaustedReport("improve", len(draws), len(sectionals),
                           active * len(sectionals)).to_dict()


def balanced_candidates(rng, eco, w, spread: int = 8) -> np.ndarray:
    """Candidates g >= e over node measures w (w > 0 somewhere) whose
    balance mean((g - e) w) is FEASIBILITY_TOL + i eps mean(e w) per good,
    for i = -spread..spread, up to the rounding of g: about as far from the
    tolerance as the verifier's own rounding, so it accepts some and
    rejects others."""
    e, tol = eco.endowment, economy.FEASIBILITY_TOL
    d = rng.uniform(0.1, 1.0, size=(eco.K, eco.n))
    d *= tol / np.mean(d * w[:, None], axis=0)
    step = np.finfo(float).eps * np.mean(e * w[:, None], axis=0) / tol
    return np.array([e + d * (1 + i * step) for i in range(-spread, spread + 1)])


class TestImprovementScreen:
    # The screen is a filter: with its rounding margin it keeps every pair
    # that verify_improvement accepts, so the search returns the first
    # verified pair in search order.

    @settings(max_examples=40, deadline=None)
    @given(**ECONOMY_DRAWS, budget=st.integers(1, 40))
    def test_search_returns_the_first_verified_pair(self, seed, pref_kind, fam_kind, K, n, budget):
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        f = eco.endowment * rng.uniform(0.5, 2.0, size=(K, 1))  # both outcomes occur
        with mock.patch.object(economy, "DEMAND_GRID", 6):  # a few candidates per coalition
            got = search_improvement(eco, f, "improve", budget=budget, seed=seed)
            assert got.to_dict() == unscreened_improve(eco, f, budget, seed)
        if got.found:
            assert verify_improvement(eco, f, got)[0]

    @settings(max_examples=30, deadline=None)
    @given(**ECONOMY_DRAWS)
    def test_a_stack_of_coalitions_keeps_every_verified_pair(self, seed, pref_kind, fam_kind, K, n):
        # every coalition screened in one call, against candidates that
        # balance to within a few eps of FEASIBILITY_TOL
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        f = 0.5 * eco.endowment  # every candidate g >= e is strictly preferred
        coalitions = [S for S in random_coalitions(rng, eco.fam)
                      if np.any(section_measures(eco.fam, S) > 0)]
        W = np.array([section_measures(eco.fam, S) for S in coalitions])
        accepted = 0
        for c, (S, w) in enumerate(zip(coalitions, W)):
            G = balanced_candidates(rng, eco, w)
            screened = _screen_sectionals(eco, G, eco.prefs.strict_rows(G, f), W)[c]
            for j, g in enumerate(G):
                witness = ImprovementWitness("improve", S, ProductStepFunction.sectional(g), "g")
                if verify_improvement(eco, f, witness)[0]:
                    accepted += 1
                    assert screened[j], (c, j)
        assert 0 < accepted < len(coalitions) * 17

    @settings(max_examples=60, deadline=None)
    @given(**ECONOMY_DRAWS, spread=st.floats(0.0, 6.0))
    def test_margin_covers_the_gap_between_screen_and_verifier(
        self, seed, pref_kind, fam_kind, K, n, spread
    ):
        # per good, the screen's balance in any summation order is within
        # (2 K + 6) u (A + B) of the verifier's, the bound that the screen's
        # margin 4 (K + 2) u (A + B) covers; the verifier reports its largest
        # |balance| over the goods
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K, n)
        f, e = 0.5 * eco.endowment, eco.endowment
        coalitions = [S for S in random_coalitions(rng, eco.fam)
                      if np.any(section_measures(eco.fam, S) > 0)]
        W = np.array([section_measures(eco.fam, S) for S in coalitions])
        G = e * (1 + 10 ** rng.uniform(-spread, spread, size=(5, K, n)))
        stacked = (W @ G.transpose(1, 0, 2).reshape(K, -1)).reshape(len(W), 5, n) / K
        u = np.finfo(float).eps / 2
        for c, (S, w) in enumerate(zip(coalitions, W)):
            A, B = stacked[c], w @ e / K
            bound = (2 * K + 6) * u * np.max(A + B, axis=1)
            for j, g in enumerate(G):
                ok, info = verify_improvement(
                    eco, f, ImprovementWitness("improve", S, ProductStepFunction.sectional(g), "g"))
                verified = info["balance_gap" if ok else "gap"]
                for means in (A[j], w @ g / K, np.mean(g * w[:, None], axis=0),
                              np.sum(g[::-1] * w[::-1, None], axis=0) / K):
                    assert abs(np.max(np.abs(means - B)) - verified) <= bound[j], (c, j)


# Outputs on the K = 100 Cobb-Douglas fixture at its equilibrium, with the
# equilibrium benchmark's settings (200 random samples; search budgets 500
# and 100).  The search reports are those of the per-node object path these
# searches replaced; the strong-mode report is the closed-form decision's:
# the K single-node coalitions, each with the endowment.  The cloud and the
# price are those of the batched stream.
PINNED_CLOUD_SIZE = 1801
PINNED_LABELS_SHA256 = "abb31d6eb7876f21822a1829700accb51919ae791a588e1df07c3195e51bb005"
PINNED_SAMPLES_USED = 1799
PINNED_PRICE = {7: [0.5000000000256349, 0.49999999997436506],
                42: [0.49999999997410083, 0.5000000000258992]}
PINNED_MARGIN = {7: 4.973176370715038e-13, 42: 4.920840332434117e-13}
PINNED_CLOUD = {  # sum of node measures, sum of z, intervals over all coalitions
    7: (10888.53232517667, [1718.9753250004655, 1682.8511696054286], 22057),
    42: (10942.970682291249, [1848.2322022801836, 1637.4607084729184], 21919),
}
PINNED_REPORTS = {
    "improve": {"witness": None, "mode": "improve", "searched": {
        "coalitions": 164, "allocations": 50, "two_level": 0, "pairs": 8200}},
    "strongly_improve": {"witness": None, "mode": "strongly_improve", "searched": {
        "coalitions": 100, "allocations": 1, "two_level": 0, "pairs": 100}},
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
        assert res.price.tolist() == PINNED_PRICE[seed]
        assert res.margin == PINNED_MARGIN[seed]

    @pytest.mark.parametrize("mode,budget", [("improve", 500), ("strongly_improve", 100)])
    def test_exhausted_reports(self, cd_economy, equilibrium, seed, mode, budget):
        res = search_improvement(cd_economy, equilibrium, mode, budget=budget, seed=seed)
        assert res.to_dict() == PINNED_REPORTS[mode]


# Bit-exact pins of the excess cloud's random stream: SHA-256 of the raw bytes
# of every sample's z, selection, node measures and coalition end points (with
# the per-section interval counts), and the generator's final state.  Any change
# to the order, the arguments or the arithmetic of a draw moves them.
def stream_economy(name, cd_economy, equilibrium):
    if name.startswith("cobb_douglas"):
        return cd_economy, equilibrium
    pref_kind, fam_kind, eco_seed, n = {
        "linear": ("linear", "sectioned", 11, 3),
        "coordinate_dominance": ("coordinate_dominance", "pwl", 12, 3),
        # scalar pow for the chains, the node measures and the contour rebalance
        "power": ("cobb_douglas", "power", 13, 3),
        # the n == 1 contour path and one-column excess means
        "one_good": ("cobb_douglas", "sectioned", 14, 1),
    }[name]
    eco = random_economy(np.random.default_rng(eco_seed), pref_kind, fam_kind, K=30, n=n)
    return eco, eco.endowment


def stream_digests(cloud) -> dict:
    def sha(chunks):
        h = hashlib.sha256()
        for chunk in chunks:
            h.update(chunk)
        return h.hexdigest()

    def ends(H):
        counts = np.array([len(sec.intervals) for sec in H.sections], dtype=np.int64)
        points = np.array([x for sec in H.sections for iv in sec.intervals for x in iv], float)
        return counts.tobytes() + points.tobytes()

    return {
        "z": sha(np.asarray(smp.z, dtype=float).tobytes() for smp in cloud),
        "selection": sha(np.asarray(smp.selection, dtype=float).tobytes() for smp in cloud),
        "node_measures": sha(
            np.asarray(smp.node_measures, dtype=float).tobytes() for smp in cloud
        ),
        "coalitions": sha(ends(smp.coalition) for smp in cloud),
    }


PINNED_STREAMS = {  # (economy, sampling seed) -> (digests, final generator state)
    ("cobb_douglas", 7): (
        {
            "z": "75b6a37dc33f6066d4d7ce42263ec87df1327e555e5dd99c4c9d2ec26b238fbd",
            "selection": "bbeb9c4b2369006b2abf919c94d46580c27489c950d2bb5517947505e2676780",
            "node_measures": "d0ad6698c1805fcf76f4fbad7c68755643354913e522cbd55624f1f319414df7",
            "coalitions": "c5999489792f625819da2fb84cbba89bc82bb70a35b5e890929b910104dceabc",
        },
        {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 2100921969,
         "state": {"state": 233303197756956257121113802595035035507,
                   "inc": 261136684632268670825940853076396136793}},
    ),
    ("cobb_douglas", 42): (
        {
            "z": "9ed5f37ec07abb00ffe674b89c7de7abcab8e593ecee19cabaa3fc38d5f4a348",
            "selection": "63dc6ef77bd50fe2d04d65168c7784bec1859b7cdcdc5540131630c714046e95",
            "node_measures": "01e5d410803275a5d3c22460e979ed4216ed1b4e5e2c69732065a66862ae1472",
            "coalitions": "f80fbdfa4cfbd5e392006fd568a79f1dea94f1d40fe86a0c4844c9cfdac7e2df",
        },
        {"bit_generator": "PCG64", "has_uint32": 1, "uinteger": 1532922804,
         "state": {"state": 239445822461016240512590396087693501299,
                   "inc": 332724090758049132448979897138935081983}},
    ),
    ("linear", 3): (
        {
            "z": "a28ebe8c151845bf81810166edefc6752ca02feefc68b4169c395248dbfe5a3e",
            "selection": "bf006031370dbd26d728cf92699d47e739f1b8ffd0147e5eaadc1e786df28f90",
            "node_measures": "c4f92e296e1a7639a4194072e62b5c7aebb5a7234bf2e9c10f5bd928de15c033",
            "coalitions": "89f4bde49d40863d05248cf31e39baa1e98e4fe9e5d457d4e4b0b3405e33eb1a",
        },
        {"bit_generator": "PCG64", "has_uint32": 1, "uinteger": 2989862465,
         "state": {"state": 144475925117931838339825469328897710694,
                   "inc": 222003063171874261427395693950637096479}},
    ),
    ("coordinate_dominance", 4): (
        {
            "z": "6f61ca8e6ef199e8b6dd1add801bb557206dcae2df040135f5404b9551ccb529",
            "selection": "26a57f7b7ce58a69890406da6226284430d486293fb0ce6fb4da27ccd06b7a34",
            "node_measures": "48bf01323121ad6313ad6b137d9daff302edd50346ea314914a72ee3a9c2ba93",
            "coalitions": "ef656476fbaa81fdff3f560c72da9b11931111727d6964f8e7fcf6de624f4cdd",
        },
        {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 2364144279,
         "state": {"state": 147481658089560996248875759181360795355,
                   "inc": 278272906083703887290699702293328866393}},
    ),
    ("power", 5): (
        {
            "z": "a040146a1e73a0a41c8e0b53500b2c0fd30f3a7c996a7c6fc778ccd1fc08bda3",
            "selection": "c45386d9af37b9a7ab2a2e4010ebea93528057a3abf1c131d7e7f8dbae5519df",
            "node_measures": "baa44b0e9fb8996bb98da7fa0ea58004b06796c81b7bfcea6b59f8a04146f08e",
            "coalitions": "ec64ccfdb90de78238e2b9b658f60d6d8225a8d8d3a22aaf6fdf7880867dad02",
        },
        {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 2227906203,
         "state": {"state": 108995633188045681340096005404039115253,
                   "inc": 233193750087604940414945475171846202189}},
    ),
    ("one_good", 6): (
        {
            "z": "f526704e28e636d17a989a1186368f6c65bb3cc3c29d5becb66a9b80203ae068",
            "selection": "10d123e9f80d2168f9994c91da4dbdb78bf800da14b8ad3b8b139730973abe14",
            "node_measures": "d6d6f2418982948c4794e32b3ac311627164ecb269be49a0ae51a35694b7f875",
            "coalitions": "2fac7ebd6dac40f263da77da9a3998e3fa2b9a8a1a67e9c5808bbf02f7c80949",
        },
        {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 2177279859,
         "state": {"state": 225177363826797832949545254076188677247,
                   "inc": 48033170148846378449264849981880743275}},
    ),
}


@pytest.mark.parametrize("name,seed", sorted(PINNED_STREAMS))
def test_excess_cloud_stream_is_pinned(name, seed, cd_economy, equilibrium, monkeypatch):
    eco, f = stream_economy(name, cd_economy, equilibrium)
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[-1])
    cloud = sample_excess_points(eco, f, samples=200, seed=seed)
    digests, state = PINNED_STREAMS[name, seed]
    assert len(made) == 1
    assert stream_digests(cloud) == digests
    assert made[0].bit_generator.state == state


def test_uniform_draws_are_affine_maps_of_random():
    # sample_excess_points draws its nudges, shifts and levels as
    # rng.random(size) arrays and maps them, lo + (hi - lo) * u, which is
    # how numpy defines uniform: the bytes and the generator state must be
    # those of the same uniform calls with size=.
    for seed in (1, 42):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        nudges = a.uniform(-0.5, 1.0, size=(200, 100))
        shifts = a.uniform(0.0, 0.5, size=(37, 3))
        levels = a.uniform(0.0, 1.0, size=(5, 100))
        assert nudges.tobytes() == (-0.5 + 1.5 * b.random((200, 100))).tobytes()
        assert shifts.tobytes() == (0.5 * b.random((37, 3))).tobytes()
        assert levels.tobytes() == b.random((5, 100)).tobytes()
        assert a.bit_generator.state == b.bit_generator.state


def test_the_stream_does_not_depend_on_the_preferences(monkeypatch):
    # economies of one (samples, K, n) leave the generator in one state,
    # whatever their preferences and measures
    made = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda s: made.append(default_rng(s)) or made[-1])
    for pref_kind, fam_kind in [("cobb_douglas", "power"), ("linear", "sectioned"),
                                ("coordinate_dominance", "pwl")]:
        eco = random_economy(default_rng(21), pref_kind, fam_kind, K=30, n=3)
        sample_excess_points(eco, eco.endowment, samples=200, seed=8)
    assert len(made) == 3
    assert made[0].bit_generator.state == made[1].bit_generator.state == made[2].bit_generator.state


def test_row_dots_are_the_node_dots():
    # Preferences and Economy.wealth take one dot product per node as
    # economy._row_dot, which must round as the 1-D a @ b of each row: for
    # rows against rows, one vector against rows, stacks of allocations, and
    # a price zero-padded outside J against rows (dominance spending p_J . b_J).
    rng = np.random.default_rng(9)
    for n in range(1, 13):
        A, B = rng.uniform(0.0, 3.0, size=(2, 2000, n))
        p = rng.dirichlet(np.ones(n))
        S = rng.uniform(0.0, 3.0, size=(5, 2000, n))
        mask = rng.random((2000, n)) < 0.5
        mask[np.arange(2000), rng.integers(n, size=2000)] = True
        pairs = [
            (economy._row_dot(A, B), [a @ b for a, b in zip(A, B)]),
            (economy._row_dot(p, B), [p @ b for b in B]),
            (economy._row_dot(S, B), [[s @ b for s, b in zip(Sj, B)] for Sj in S]),
            (economy._row_dot(np.where(mask, p, 0.0), B), [p[m] @ b[m] for m, b in zip(mask, B)]),
        ]
        if n < 8:  # and the price of J, summed as np.sum(p_J) sums it
            pairs.append((np.where(mask, p, 0.0).sum(axis=1), [np.sum(p[m]) for m in mask]))
        linear = Preferences("linear", n, weights=A + 0.1)  # linear utility is a row dot
        pairs.append((linear.utilities(B), [(a + 0.1) @ b for a, b in zip(A, B)]))
        for rows, expected in pairs:
            assert rows.tobytes() == np.array(expected).tobytes(), n
