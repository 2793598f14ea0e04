"""Malformed array, count, seed and node arguments at every public boundary
are a StructuralError naming the argument (a malformed price an
InvalidPriceError), never an error of numpy's or Python's."""

import numpy as np
import pytest

from choquet_lab.choquet import StepFunction, riemann_choquet
from choquet_lab.economy import (
    Economy,
    Preferences,
    budget_check,
    check_excess_convexity,
    check_walras,
    check_wealth_dominance,
    condition_c2_witness,
    find_price,
    is_feasible,
    is_maximal_in_budget,
    normalize_price,
    sample_excess_points,
    search_improvement,
)
from choquet_lab.errors import InvalidPriceError, StructuralError
from choquet_lab.fixtures import cobb_douglas_economy, identity_family
from choquet_lab.intervals import IntervalSet, random_interval_set, uniform_partition
from choquet_lab.measures import Distortion, FuzzyMeasure
from choquet_lab.product import (
    ProductSet,
    ProductStepFunction,
    SectionFamily,
    as_sectional,
    check_price_commutation,
    fubini_check,
    integrate_sectional_over,
    product_set_from_levels,
    range_realize,
)

K = 4
FAM = identity_family(K)
BLOCKS = (IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)]))
LINEAR = Preferences("linear", 2, weights=np.ones((K, 2)))
ECO = Economy(FAM, np.ones((K, 2)), LINEAR)

# name: (call on the argument, a valid argument, the sign rule applies)
SITES = {
    "StepFunction values": (lambda v: StepFunction(uniform_partition(3), v), np.ones(3), True),
    "StepFunction.on_grid values": (StepFunction.on_grid, np.ones(3), True),
    "homothetic scales": (
        lambda v: SectionFamily.homothetic(Distortion.identity(), K, scales=v, normalized=False),
        np.ones(K), True),
    "sectioned node_weights": (lambda v: SectionFamily.sectioned(BLOCKS, v), np.ones((K, 2)), True),
    "FuzzyMeasure weights": (lambda v: FuzzyMeasure.sectioned(BLOCKS, v), np.ones(2), True),
    "sectional phi": (ProductStepFunction.sectional, np.ones(K), True),
    "sectional_on phi": (
        lambda v: ProductStepFunction.sectional_on(v, ProductSet.full(K)), np.ones(K), True),
    "separable hy": (
        lambda v: ProductStepFunction.separable(StepFunction.constant(1.0), v), np.ones(K), True),
    "as_sectional phi": (lambda v: as_sectional(v, FAM), np.ones(K), True),
    "integrate_sectional_over phi": (
        lambda v: integrate_sectional_over(FAM, v, ProductSet.full(K)), np.ones((K, 2)), True),
    "check_price_commutation p": (
        lambda v: check_price_commutation(FAM, v, np.ones((K, 2))), np.ones(2), True),
    "check_price_commutation phi": (
        lambda v: check_price_commutation(FAM, [1.0, 1.0], v), np.ones((K, 2)), True),
    "product_set_from_levels levels": (
        lambda v: product_set_from_levels(FAM, v), np.full(K, 0.5), False),
    "range_realize phi": (lambda v: range_realize(FAM, v, [0.5, 0.5]), np.ones((K, 2)), True),
    "range_realize target": (lambda v: range_realize(FAM, np.ones((K, 2)), v), np.full(2, 0.5),
                             False),
    "Preferences exponents": (
        lambda v: Preferences("cobb_douglas", 2, exponents=v), np.full((K, 2), 0.5), True),
    "Preferences weights": (lambda v: Preferences("linear", 2, weights=v), np.ones((K, 2)), True),
    "Economy endowment": (lambda v: Economy(FAM, v, LINEAR), np.ones((K, 2)), True),
    "allocation": (lambda v: is_feasible(ECO, v), np.ones((K, 2)), True),
    "budget_check bundle": (lambda v: budget_check(ECO, [0.5, 0.5], v, 0), np.ones(2), True),
    "condition_c2_witness f": (lambda v: condition_c2_witness(FAM, v, np.ones(K)), np.ones(K), True),
    "condition_c2_witness g": (lambda v: condition_c2_witness(FAM, np.ones(K), v), np.ones(K), True),
}
# a wrong length adds a row, empties a free first axis of one axis, or drops a
# column when the row count is free
FREE_LENGTH = {"StepFunction.on_grid values", "sectional phi", "separable hy",
               "check_price_commutation p"}
FREE_ROWS = {"sectioned node_weights", "Preferences exponents", "Preferences weights"}


def wrong_length(site: str, good: np.ndarray) -> np.ndarray:
    if site in FREE_LENGTH:
        return good[:0]
    return good[:, :1] if site in FREE_ROWS else np.concatenate([good, good[:1]])


def malformed(site: str) -> dict:
    _, good, signed = SITES[site]
    nan, negative, huge = good.copy(), good.copy(), good.astype(object)
    nan.flat[0], negative.flat[0], huge.flat[0] = np.nan, -1.0, 10**400
    cases = {
        "0-d": 1.0,
        "3-D": np.ones(good.shape + (1,) * (3 - good.ndim)),
        "ragged": [[1.0], [1.0, 2.0]],
        "string": "x",
        "wrong length": wrong_length(site, good),
        "NaN": nan,
        "Infinity": np.where(np.isnan(nan), np.inf, nan),
        "beyond the float range": huge.tolist(),  # numpy's conversion overflows
    }
    if signed:
        cases["negative"] = negative
    return cases


@pytest.mark.parametrize("site", sorted(SITES))
def test_valid_argument_passes(site):
    call, good, _ = SITES[site]
    call(good)


@pytest.mark.parametrize("site, case", [(s, c) for s in sorted(SITES) for c in malformed(s)])
def test_malformed_argument_is_structural(site, case):
    call = SITES[site][0]
    finite = case in ("NaN", "Infinity", "beyond the float range")
    with pytest.raises(StructuralError, match="must be finite" if finite else None):
        call(malformed(site)[case])


@pytest.mark.parametrize("site", ["homothetic scales", "Preferences exponents",
                                  "Preferences weights", "Economy endowment"])
def test_positive_arguments_reject_zero(site):
    call, good, _ = SITES[site]
    zero = good.copy()
    zero.flat[0] = 0.0
    with pytest.raises(StructuralError, match="finite and positive"):
        call(zero)


def test_error_names_the_argument_and_both_shapes():
    with pytest.raises(StructuralError, match=r"phi must be \(4,\) or \(4, \*\), not \(4, 1, 1\)"):
        range_realize(FAM, np.ones((K, 1, 1)), 0.5)
    with pytest.raises(StructuralError, match="step function values must be an array of numbers"):
        StepFunction(uniform_partition(2), [[1.0], [1.0, 2.0]])


def test_scalar_target_of_a_scalar_phi_stays_valid():
    assert range_realize(FAM, np.ones(K), 0.5).feasible
    with pytest.raises(StructuralError, match="target"):
        range_realize(FAM, np.ones((K, 2)), 0.5)


# -- scalars -----------------------------------------------------------------------

# scalar arguments that are no numbers: (call, the argument the error names)
SCALARS = {
    "StepFunction.constant string": (lambda: StepFunction.constant("x"), "step function values"),
    "StepFunction.constant None": (lambda: StepFunction.constant(None), "step function values"),
    "IntervalSet string end": (lambda: IntervalSet([(0, "a")]), "intervals"),
    "IntervalSet one end": (lambda: IntervalSet([(0.5,)]), "intervals"),
    "IntervalSet not pairs": (lambda: IntervalSet(5), "intervals"),
    "Distortion.power string": (lambda: Distortion.power("x"), "alpha"),
    "Distortion.power None": (lambda: Distortion.power(None), "alpha"),
    "Distortion scale string": (lambda: Distortion.identity(scale="x"), "distortion scale"),
    "Distortion scale None": (lambda: Distortion.power(2.0, scale=None), "distortion scale"),
    "pwl knot string": (lambda: Distortion.piecewise_linear([(0, "a"), (1, 1)]), "pwl knots"),
}


@pytest.mark.parametrize("site", sorted(SCALARS))
def test_a_scalar_that_is_no_number_is_structural(site):
    call, name = SCALARS[site]
    with pytest.raises(StructuralError, match=name):
        call()


# -- counts ------------------------------------------------------------------------


def test_sample_count_must_be_a_non_negative_integer():
    eco, f, _ = cobb_douglas_economy(K=K)
    probes = sample_excess_points(eco, f, samples=0)
    assert probes and all(s.label != "random" for s in probes)
    for bad in (-1, 1.5, True, "5"):
        with pytest.raises(StructuralError, match="samples"):
            sample_excess_points(eco, f, samples=bad)
        with pytest.raises(StructuralError, match="samples"):
            find_price(eco, f, samples=bad)


def test_search_budget_must_be_a_positive_integer():
    eco, f, _ = cobb_douglas_economy(K=K)
    for bad in (0, -3, 2.5):
        with pytest.raises(StructuralError, match="budget"):
            search_improvement(eco, f, budget=bad)


def test_riemann_tnodes_must_be_a_positive_integer():
    f, mu = StepFunction.constant(1.0), FuzzyMeasure.distorted(Distortion.identity())
    assert riemann_choquet(f, mu, tnodes=1) == 1.0
    for bad in (0, -1, 10.0, None):
        with pytest.raises(StructuralError, match="tnodes"):
            riemann_choquet(f, mu, tnodes=bad)


def test_fubini_tnodes_message_names_the_range():
    f = ProductStepFunction.uniform(StepFunction.constant(1.0), K)
    with pytest.raises(StructuralError, match=r"tnodes must be an integer from 100 to \d+ \(got 99\)"):
        fubini_check(FAM, f, tnodes=99)


# node counts: the call on K
NODE_COUNTS = {
    "SectionFamily.homothetic K": lambda n: SectionFamily.homothetic(Distortion.identity(), K=n),
    "SectionFamily.from_y_intervals K": lambda n: SectionFamily.from_y_intervals(
        BLOCKS, [(0.0, 0.5), (0.5, 1.0)], K=n),
    "ProductSet.full K": ProductSet.full,
    "ProductSet.empty K": ProductSet.empty,
    "ProductSet.single K": lambda n: ProductSet.single(n, 0),
    "ProductStepFunction.uniform K": lambda n: ProductStepFunction.uniform(
        StepFunction.constant(1.0), n),
}


@pytest.mark.parametrize("site", sorted(NODE_COUNTS))
def test_node_counts_must_be_positive_integers(site):
    assert NODE_COUNTS[site](np.int64(2)).K == 2
    for bad in (0, -1, 2.5, "3", True, None):
        with pytest.raises(StructuralError, match=r"K must be an integer of at least 1 \(got "):
            NODE_COUNTS[site](bad)


# measures whose total, g(1) or the weights' sum, exceeds the float range
OVERFLOWING = {
    "pwl distortion": lambda: FuzzyMeasure.distorted(
        Distortion.piecewise_linear([[0, 0], [0.5, 0.9], [1, 1.2]], scale=1.7e308)),
    "sectioned weights": lambda: FuzzyMeasure.sectioned(BLOCKS, [1.7e308, 1.7e308]),
    "sectioned node_weights": lambda: SectionFamily.sectioned(BLOCKS, [[1.0, 1.0], [1.7e308] * 2]),
    "homothetic scales": lambda: SectionFamily.homothetic(
        Distortion.piecewise_linear([[0, 0], [0.5, 0.9], [1, 1.2]]), 3, scales=[1.7e308] * 3,
        normalized=False),
}


@pytest.mark.parametrize("site", sorted(OVERFLOWING))
def test_a_measure_whose_total_overflows_is_structural(site):
    with pytest.raises(StructuralError, match=r"the measure of \[0,1\)|g\(1\)"):
        OVERFLOWING[site]()


# a measure's parts and a family's nodes of the wrong type
WRONG_TYPES = {
    "a block pair": (lambda: FuzzyMeasure.sectioned([(0.0, 1.0)], [1.0]), "blocks must be"),
    "a distortion name": (lambda: FuzzyMeasure.distorted("power"), "g must be a Distortion"),
    "blocks not a sequence": (lambda: FuzzyMeasure.sectioned(IntervalSet.full(), [1.0]),
                              "blocks must be"),
    "a number as a node": (lambda: SectionFamily.heterogeneous([1.0]), "must be a FuzzyMeasure"),
}


@pytest.mark.parametrize("site", sorted(WRONG_TYPES))
def test_a_part_of_the_wrong_type_is_structural(site):
    build, message = WRONG_TYPES[site]
    with pytest.raises(StructuralError, match=message):
        build()


def test_vector_sections_share_one_number_of_components():
    # scalar beside vector sections is a row of test_product's REFUSALS
    sections = (StepFunction.constant([1.0, 2.0]), StepFunction.constant([1.0, 2.0, 3.0]))
    with pytest.raises(StructuralError, match=r"sections of mixed value shapes: \(2,\), \(3,\)"):
        ProductStepFunction(sections)


def test_max_intervals_must_allow_one_draw():
    rng = np.random.default_rng(0)
    assert random_interval_set(rng, max_intervals=0, allow_empty=True).is_empty
    for bad in (0, -1, 2.0):
        with pytest.raises(StructuralError, match="max_intervals"):
            random_interval_set(rng, max_intervals=bad)


def test_node_indices_must_be_nodes():
    for bad in (99, -1, 1.0, True, "a"):
        with pytest.raises(StructuralError, match=r"node must be an integer from 0 to 3"):
            budget_check(ECO, [0.5, 0.5], [1.0, 1.0], bad)
        with pytest.raises(StructuralError, match=r"node must be an integer from 0 to 3"):
            is_maximal_in_budget(ECO, [0.5, 0.5], np.ones((K, 2)), bad)
    with pytest.raises(StructuralError, match=r"node must be an integer from 0 to 3 \(got 'a'\)"):
        ProductSet.single(K, "a")
    with pytest.raises(StructuralError, match=r"node 4 is outside 0\.\.3"):
        ProductSet.single(K, 4)


SEEDED = {
    "find_price": lambda eco, f, seed: find_price(eco, f, samples=5, seed=seed),
    "sample_excess_points": lambda eco, f, seed: sample_excess_points(eco, f, 5, seed=seed),
    "search_improvement": lambda eco, f, seed: search_improvement(eco, f, budget=5, seed=seed),
    "check_excess_convexity": lambda eco, f, seed: check_excess_convexity(eco, f, 5, seed=seed),
}


@pytest.mark.parametrize("site", sorted(SEEDED))
def test_seed_must_be_a_non_negative_integer(site):
    eco, f, _ = cobb_douglas_economy(K=K)
    SEEDED[site](eco, f, np.int64(0))
    for bad in (-1, "a", 1.5, True, None):
        with pytest.raises(StructuralError, match="seed must be an integer of at least 0"):
            SEEDED[site](eco, f, bad)


def test_convexity_trials_must_be_a_positive_integer():
    eco, f, _ = cobb_douglas_economy(K=K)
    assert check_excess_convexity(eco, f, trials=1).trials == 1
    for bad in (0, -1, "a", 2.0):
        with pytest.raises(StructuralError, match="trials must be an integer of at least 1"):
            check_excess_convexity(eco, f, trials=bad)


# -- prices ------------------------------------------------------------------------

# every check that takes a price, on the n = 2 economy ECO
PRICED = {
    "normalize_price": normalize_price,
    "check_walras": lambda p: check_walras(ECO, np.ones((K, 2)), p),
    "check_wealth_dominance": lambda p: check_wealth_dominance(ECO, np.ones((K, 2)), p),
    "is_maximal_in_budget": lambda p: is_maximal_in_budget(ECO, p, np.ones((K, 2)), 0),
    "budget_check": lambda p: budget_check(ECO, p, [1.0, 1.0], 0),
}


@pytest.mark.parametrize("site", sorted(PRICED))
@pytest.mark.parametrize("price, message", [
    ("ab", "price must be an array of numbers"),
    (["a", "b"], "price must be an array of numbers"),
    ([[0.5], [0.5, 0.5]], "price must be an array of numbers"),
    ([1, 10**400], "price must be finite"),
    ([np.nan, 1.0], "price must be finite, non-negative and non-zero"),
    ([1.0, -0.5], "price must be finite, non-negative and non-zero"),
    ([0, 0], "price must be finite, non-negative and non-zero"),
])
def test_a_malformed_price_is_an_invalid_price(site, price, message):
    with pytest.raises(InvalidPriceError, match=message):
        PRICED[site](price)
