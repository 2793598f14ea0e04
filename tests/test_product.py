import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_choquet import (
    block_measures,
    close,
    random_blocks,
    random_cells,
    random_distortion,
    random_measure,
    reference_choquet,
    reference_table,
    stable_block,
    whole_block_keys,
)

from choquet_lab import io, product
from choquet_lab.choquet import StepFunction, choquet, comonotone_pair, random_step_function
from choquet_lab.errors import StructuralError, UnsupportedFamilyError
from choquet_lab.intervals import IntervalSet, random_interval_set
from choquet_lab.measures import Distortion, FuzzyMeasure, filtering_family
from choquet_lab.product import (
    REALIZE_TOL,
    ProductSet,
    ProductStepFunction,
    SectionFamily,
    _node_tables,
    _tnode_counts,
    check_price_commutation,
    fubini_check,
    integrate_product,
    integrate_sectional_over,
    product_measure,
    product_set_from_levels,
    range_realize,
    section_measures,
)


def identity_family(K=100):
    return SectionFamily.homothetic(Distortion.identity(), K=K)


def square_family(K=100):
    return SectionFamily.homothetic(Distortion.power(2.0), K=K)


def intro_family(K=100):
    # two x-blocks, y-halves: node measures concentrate on one block each
    blocks = [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])]
    return SectionFamily.from_y_intervals(blocks, [(0.0, 0.5), (0.5, 1.0)], K=K)


def sectioned_family(rng, K):
    """K nodes with random normalized weights on 1 to 4 random blocks."""
    blocks = random_blocks(rng, int(rng.integers(1, 5)))
    return SectionFamily.sectioned(blocks, rng.uniform(0.1, 1.0, size=(K, len(blocks))))


def wedge(fam):
    """H with H_y = [0, y)."""
    ys = fam.ygrid
    return ProductSet(
        tuple(IntervalSet([(0.0, y)]) if y > 0 else IntervalSet.empty() for y in ys)
    )


class TestSectionFamily:
    def test_normalized_square_family(self):
        fam = square_family()
        assert fam.convex_type
        assert np.allclose(fam.totals, 1.0)
        # normalization rescales, it does not reshape: mu([0,1/2)) stays 0.25
        assert fam.measures[0](IntervalSet([(0.0, 0.5)])) == pytest.approx(0.25)

    def test_sectioned_family_normalization(self):
        fam = intro_family()
        assert fam.convex_type
        assert np.allclose(fam.totals, 1.0)
        # first node is supported on the first block only
        assert fam.measures[0](IntervalSet([(0.5, 1.0)])) == 0.0

    def test_a_sectioned_familys_totals_are_its_node_measures_of_x(self):
        # the totals are range_realize's generators u_k: each is mu_k(X)
        rng = np.random.default_rng(35)
        for K in range(1, 40):
            fam = sectioned_family(rng, K)
            assert section_measures(fam, ProductSet.full(K)).tobytes() == fam.totals.tobytes()

    def test_heterogeneous_family(self):
        measures = [
            FuzzyMeasure.distorted(Distortion.power(1.0 + k / 10)) for k in range(10)
        ]
        fam = SectionFamily.heterogeneous(measures)
        assert not fam.convex_type
        with pytest.raises(UnsupportedFamilyError):
            product_set_from_levels(fam, np.full(10, 0.5))
        with pytest.raises(UnsupportedFamilyError):
            range_realize(fam, np.ones(10), np.array([0.5]))

    @pytest.mark.parametrize("mode, measures", [
        ("homothetic", (FuzzyMeasure.distorted(Distortion.power(2.0)),
                        FuzzyMeasure.distorted(Distortion.power(0.5)))),
        ("sectioned", (FuzzyMeasure.distorted(Distortion.power(2.0)),)),
        ("homothetic", (FuzzyMeasure.sectioned([IntervalSet([(0.0, 0.5)]),
                                                IntervalSet([(0.5, 1.0)])], [0.5, 0.5]),)),
    ], ids=["two distortion shapes", "a distorted node", "a sectioned node"])
    def test_measures_must_have_the_one_shape_of_the_mode(self, mode, measures):
        # The shared chain X_t needs one measure shape at every node.  Accepted
        # as homothetic, the power pair made range_realize call the feasible
        # target 0.5 infeasible (levels 1/2 give node measures 0.5 and 0.841).
        with pytest.raises(StructuralError, match=f"a {mode} family needs one"):
            SectionFamily(mode, measures, True)
        assert not SectionFamily.heterogeneous(measures).convex_type

    def test_lebesgue_nodes_make_either_convex_family(self):
        # λ is g∘λ under the unit identity and additive on the one block [0,1)
        for mode in ("homothetic", "sectioned"):
            assert SectionFamily(mode, (FuzzyMeasure.lebesgue(),) * 2, True).convex_type

    def test_nodes_are_grouped_by_shape_once(self):
        blocks = [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])]
        scaled = SectionFamily.homothetic(Distortion.power(0.5), K=3, scales=[1.0, 2.0, 3.0],
                                          normalized=False)
        assert len(scaled._groups) == 1 and scaled.blocks is None
        # equal block partitions group by value, whatever tuple holds them
        mixed = SectionFamily.heterogeneous([
            FuzzyMeasure.sectioned(list(blocks), [1.0, 0.0]),
            FuzzyMeasure.distorted(Distortion.power(0.5, scale=2.0)),
            FuzzyMeasure.sectioned(list(blocks), [0.0, 1.0]),
            FuzzyMeasure.distorted(Distortion.power(0.5)),
            FuzzyMeasure.distorted(Distortion.power(2.0)),
        ])
        assert [nodes.tolist() for nodes, _ in mixed._groups] == [[0, 2], [1, 3], [4]]
        assert intro_family(K=4).blocks == tuple(blocks)

    def test_sectioned_nodes_share_one_measure_per_distinct_row(self):
        assert len({id(mu) for mu in intro_family(100_000).measures}) == 2
        blocks = [IntervalSet([(0.0, 0.25)]), IntervalSet([(0.25, 0.5)]), IntervalSet([(0.5, 1.0)])]
        thirds = SectionFamily.from_y_intervals(blocks, [(0.0, 0.3), (0.3, 0.6), (0.6, 1.0)], K=30)
        assert [len({id(thirds.measures[k]) for k in range(a, b)}) for a, b in
                [(0, 9), (9, 18), (18, 30)]] == [1, 1, 1]
        assert len({id(mu) for mu in thirds.measures}) == 3

    @pytest.mark.parametrize("normalized", [True, False])
    def test_shared_measures_keep_every_bit_of_one_measure_per_node(self, normalized):
        rng = np.random.default_rng(29)
        blocks = [IntervalSet([(0.0, 0.3)]), IntervalSet([(0.3, 0.55)]), IntervalSet([(0.55, 1.0)])]
        W = rng.uniform(0.1, 2.0, size=(6, 3))[rng.integers(0, 6, 60)]
        W[::7, 1] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0]  # zero weights of either sign
        fam = SectionFamily.sectioned(blocks, W, normalized=normalized)

        def one_per_node(W):
            rows = W / W.sum(axis=1, keepdims=True) if normalized else W
            return SectionFamily("sectioned",
                                 tuple(FuzzyMeasure.sectioned(blocks, row) for row in rows),
                                 normalized)

        per_node = one_per_node(W)
        assert len({id(mu) for mu in fam.measures}) < fam.K
        assert [mu.weights for mu in fam.measures] == [mu.weights for mu in per_node.measures]
        assert all(np.signbit(a.weights).tolist() == np.signbit(b.weights).tolist()
                   for a, b in zip(fam.measures, per_node.measures))
        H = ProductSet(tuple(random_interval_set(rng) for _ in range(60)))
        assert section_measures(fam, H).tobytes() == section_measures(per_node, H).tobytes()
        cells = random_cells(rng, 300)
        f = ProductStepFunction(tuple(StepFunction(cells, rng.uniform(0.0, 2.0, size=300),
                                                   validate=False) for _ in range(60)))
        assert _node_tables(fam, f)[0].tobytes() == _node_tables(per_node, f)[0].tobytes()
        text = json.dumps(io.family_to_json(fam))
        assert text == json.dumps(io.family_to_json(per_node))
        # loading keeps the stored rows, normalized already, bit for bit
        again = io.family_to_json(io.family_from_json(json.loads(text)))
        assert json.dumps(again) == text

    def test_uniform_chain_homothetic(self):
        fam = square_family()
        X_t = product_set_from_levels(fam, np.full(fam.K, 0.25)).sections[0]
        assert X_t == IntervalSet([(0.0, 0.5)])  # g^{-1}(0.25) = 0.5

    def test_uniform_chain_sectioned_hits_every_node(self):
        fam = intro_family(K=10)
        for t in (0.2, 0.5, 0.9):
            X_t = product_set_from_levels(fam, np.full(fam.K, t)).sections[0]
            for mu in fam.measures:
                assert mu(X_t) == pytest.approx(t * mu.total, abs=1e-9)


BLOCKS = [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])]
# refusals of the family, set and function constructors, one row each:
# (call, error type, message)
REFUSALS = {
    "normalized family of total 2": (
        lambda: SectionFamily("homothetic", (FuzzyMeasure.lebesgue(), FuzzyMeasure.distorted(
            Distortion.identity(scale=2.0))), True),
        StructuralError, r"mu_y\(X\) = 1 at every node"),
    "normalized family with scales": (
        lambda: SectionFamily.homothetic(Distortion.identity(), K=2, scales=[1.0, 2.0]),
        StructuralError, "cannot carry free scales"),
    "zero weight row": (
        lambda: SectionFamily.sectioned(BLOCKS, [[1.0, 0.0], [0.0, 0.0]]),
        StructuralError, "positive row sums"),
    "uncovered y-node": (
        lambda: SectionFamily.from_y_intervals(BLOCKS, [(0.0, 0.25), (0.5, 1.0)], K=4),
        StructuralError, "cover every y-node"),
    "node outside the grid": (
        lambda: ProductSet.single(3, 3), StructuralError, r"node 3 is outside 0\.\.2"),
    "scalar and vector sections": (
        lambda: ProductStepFunction(
            (StepFunction.constant(1.0), StepFunction.constant([1.0, 2.0]))),
        StructuralError, r"sections of mixed value shapes: \(\), \(2,\)"),
    "level above 1": (
        lambda: product_set_from_levels(identity_family(K=2), [0.5, 1.5]),
        StructuralError, r"levels must lie in \[0,1\]"),
    "range of an unnormalized family": (
        lambda: range_realize(SectionFamily.homothetic(
            Distortion.identity(scale=2.0), K=2, normalized=False), np.ones(2), 0.5),
        UnsupportedFamilyError, "needs a normalized family"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


class TestProductMeasure:
    def test_wedge_measure_is_half(self):
        fam = identity_family()
        assert product_measure(fam, wedge(fam)) == pytest.approx(0.5, abs=1e-4)

    def test_empty_and_full(self):
        fam = square_family()
        assert product_measure(fam, ProductSet.empty(fam.K)) == 0.0
        assert product_measure(fam, ProductSet.full(fam.K)) == pytest.approx(1.0)

    def test_section_count_mismatch(self):
        fam = identity_family(K=10)
        with pytest.raises(StructuralError):
            product_measure(fam, ProductSet.full(9))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 7))
    def test_section_measures_of_any_family_equal_the_node_loop(self, seed, K):
        # families with one measure (and one distortion) object per node
        rng = np.random.default_rng(seed)
        families = [
            SectionFamily.heterogeneous([random_measure(rng) for _ in range(K)]),
            SectionFamily.homothetic(random_distortion(rng), K=K, normalized=False,
                                     scales=rng.uniform(0.5, 2.0, size=K)),
        ]
        for fam in families:
            for _ in range(4):
                H = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(K)))
                expected = np.array([mu(sec) for mu, sec in zip(fam.measures, H.sections)])
                np.testing.assert_array_equal(section_measures(fam, H), expected)

    def test_monotone_on_nested_pairs(self):
        fam = square_family(K=20)
        rng = np.random.default_rng(0)
        for _ in range(500):
            big = ProductSet(tuple(random_interval_set(rng) for _ in range(20)))
            small = ProductSet(
                tuple(s.intersection(random_interval_set(rng)) for s in big.sections)
            )
            assert product_measure(fam, small) <= product_measure(fam, big) + 1e-12


class TestIntegrateProduct:
    def test_constant_on_normalized_family(self):
        for fam in (identity_family(K=30), square_family(K=30), intro_family(K=30)):
            f = ProductStepFunction.uniform(StepFunction.constant(2.5), fam.K)
            assert integrate_product(fam, f) == pytest.approx(2.5)

    def test_linear_profile_square_distortion(self):
        fam = square_family()
        f = ProductStepFunction.uniform(StepFunction.from_samples(lambda x: x, 1000), fam.K)
        assert integrate_product(fam, f) == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_sectional_phi(self):
        fam = identity_family()
        phi = fam.ygrid
        val = integrate_product(fam, ProductStepFunction.sectional(phi))
        assert val == pytest.approx(0.5, abs=1e-4)

    def test_matches_sectional_over_full(self):
        fam = square_family(K=17)
        phi = np.linspace(0.2, 1.4, 17)
        a = integrate_product(fam, ProductStepFunction.sectional(phi))
        b = integrate_sectional_over(fam, phi, ProductSet.full(fam.K))
        assert a == pytest.approx(b, abs=1e-12)


class TestSectionalOver:
    def test_constant_one_recovers_measure(self):
        fam = intro_family(K=40)
        rng = np.random.default_rng(1)
        H = ProductSet(tuple(random_interval_set(rng) for _ in range(40)))
        assert integrate_sectional_over(fam, np.ones(40), H) == pytest.approx(
            product_measure(fam, H), abs=1e-12
        )

    def test_wedge_weighted_by_phi(self):
        fam = identity_family()
        val = integrate_sectional_over(fam, fam.ygrid, wedge(fam))
        assert val == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_vector_constant_full_space(self):
        fam = square_family(K=25)
        phi = np.tile([1.0, 2.0], (25, 1))
        out = integrate_sectional_over(fam, phi, ProductSet.full(25))
        assert out == pytest.approx([1.0, 2.0])

    def test_agrees_with_product_integral_of_cut(self):
        fam = square_family(K=15)
        rng = np.random.default_rng(2)
        phi = rng.uniform(0.1, 2.0, size=(15, 2))
        H = ProductSet(tuple(random_interval_set(rng) for _ in range(15)))
        a = integrate_sectional_over(fam, phi, H)
        b = integrate_product(fam, ProductStepFunction.sectional_on(phi, H))
        assert np.max(np.abs(a - b)) <= 1e-9

    @pytest.mark.parametrize("phi", [[-1.0, 1.0], [[-1.0, 0.0], [1.0, 1.0]]])
    def test_cut_rejects_negative_values_on_empty_sections(self, phi):
        H = ProductSet((IntervalSet.empty(), IntervalSet.full()))
        with pytest.raises(StructuralError):
            ProductStepFunction.sectional_on(phi, H)

    def test_sectional_additivity(self):
        fam = intro_family(K=20)
        rng = np.random.default_rng(3)
        for _ in range(50):
            f1 = rng.uniform(0.5, 2.0, size=20)
            f2 = rng.uniform(0.0, 0.5, size=20)
            H = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(20)))
            for sign in (+1, -1):
                combo = f1 + sign * f2
                lhs = integrate_sectional_over(fam, combo, H)
                rhs = integrate_sectional_over(fam, f1, H) + sign * integrate_sectional_over(
                    fam, f2, H
                )
                assert lhs == pytest.approx(rhs, abs=1e-9)


class TestFubini:
    def test_single_value_function(self):
        fam = square_family(K=10)
        f = ProductStepFunction.uniform(StepFunction.constant(1.3), 10)
        rep = fubini_check(fam, f, tnodes=500)
        assert rep.deviation <= 1e-9

    def test_linear_identity_family(self):
        fam = identity_family()
        f = ProductStepFunction.uniform(StepFunction.from_samples(lambda x: x, 1000), 100)
        rep = fubini_check(fam, f, tnodes=10_000)
        assert rep.deviation <= 1e-3
        assert rep.lhs == pytest.approx(0.5, abs=2e-3)

    def test_linear_square_family(self):
        fam = square_family()
        f = ProductStepFunction.uniform(StepFunction.from_samples(lambda x: x, 1000), 100)
        rep = fubini_check(fam, f, tnodes=10_000)
        assert rep.deviation <= 2e-3
        assert rep.rhs == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_tnodes_floor(self):
        fam = identity_family(K=5)
        f = ProductStepFunction.uniform(StepFunction.constant(1.0), 5)
        with pytest.raises(StructuralError):
            fubini_check(fam, f, tnodes=50)

    @pytest.mark.parametrize(
        "bad", [99, 2**52 + 1, 10**20, True, np.bool_(True), 1e4, np.float64(1e4), "10000", None]
    )
    def test_tnodes_must_be_an_integer_from_100_to_2_52(self, bad):
        fam = identity_family(K=5)
        f = ProductStepFunction.uniform(StepFunction.constant(1.0), 5)
        with pytest.raises(StructuralError):
            fubini_check(fam, f, tnodes=bad)

    def test_tnodes_numpy_integers_and_the_top_of_the_range(self):
        fam = square_family(K=4)
        f = ProductStepFunction.uniform(StepFunction.on_grid([0.5, 2.0, 1.0, 0.0]), 4)
        assert fubini_check(fam, f, tnodes=np.int64(1000)) == fubini_check(fam, f, tnodes=1000)
        assert fubini_check(fam, f, tnodes=np.uint16(1000)).tnodes == 1000
        top = fubini_check(fam, f, tnodes=2**52)
        assert top.tnodes == 2**52
        assert top.deviation <= 2.0 / 2**52 + 1e-15

    def test_a_billion_tnodes_agree_with_ten_thousand(self):
        # The midpoint rule on the non-increasing t -> m([f > t]) errs by at
        # most dt * m(X) = M / tnodes here (m(X) = 1), so both runs bracket rhs.
        fam = intro_family(K=6)
        rng = np.random.default_rng(3)
        f = ProductStepFunction(tuple(StepFunction.on_grid(rng.uniform(0, 2, 12)) for _ in range(6)))
        M = f.max_value
        fine, coarse = fubini_check(fam, f, tnodes=10**9), fubini_check(fam, f, tnodes=10**4)
        assert fine.tnodes == 10**9 and fine.rhs == coarse.rhs
        assert fine.deviation <= M / 10**9 + 1e-12
        assert coarse.deviation <= M / 10**4 + 1e-12
        assert abs(fine.lhs - coarse.lhs) <= M / 10**4 + M / 10**9 + 1e-12

    def test_subnormal_maxima_give_the_t_node_search(self):
        # dt = 0 at 10_000 t-nodes, subnormal at 100 and 1000: these are the values
        # that searching the t-node array gives, and no warning is raised.
        fam = identity_family(K=3)
        f = ProductStepFunction(tuple(StepFunction.constant(v) for v in (1e-320, 5e-321, 0.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [fubini_check(fam, f, tnodes=n) for n in (100, 1000, 10_000)]
        assert [r.lhs for r in reports] == [4.975e-321, 4.96e-321, 0.0]
        assert [r.rhs for r in reports] == [5e-321] * 3

    def test_sums_past_the_float_maximum_stay_finite(self):
        # The node means and the quadrature sum overflow before they divide
        # by K; the means of these finite values are finite.
        f = ProductStepFunction.uniform(StepFunction.on_grid([1.7e308, 1e308]), 3)
        fv = ProductStepFunction.separable(StepFunction.on_grid([1.7e308, 1e308]), np.ones((3, 2)))
        big = SectionFamily.homothetic(Distortion.identity(), K=3, scales=[1e308] * 3,
                                       normalized=False)
        g = ProductStepFunction.uniform(StepFunction.on_grid([1.7, 1.0]), 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert integrate_product(identity_family(K=3), f) == pytest.approx(1.35e308, rel=1e-15)
            assert integrate_product(identity_family(K=3), fv) == pytest.approx([1.35e308] * 2,
                                                                                  rel=1e-15)
            full = ProductSet.full(3)
            assert integrate_sectional_over(identity_family(K=3), [1.7e308] * 3, full) == 1.7e308
            assert integrate_sectional_over(identity_family(K=3), np.full((3, 2), 1.7e308),
                                            full).tolist() == [1.7e308] * 2
            reports = [fubini_check(identity_family(K=3), f, tnodes=1000),
                       fubini_check(identity_family(K=3), fv, tnodes=1000),
                       fubini_check(big, g, tnodes=1000)]
        for rep in reports:
            assert rep.rhs == pytest.approx(1.35e308, rel=1e-15)
            assert rep.deviation <= 1.7e308 / 1000  # the midpoint rule's bound M * m(X) / tnodes
        # A scalar target inside [0, 1.7e308] is realized, not lost to an
        # overflowed a = mean(phi * mu_k(X)).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = range_realize(identity_family(K=3), [1.7e308] * 3, [1e308])
        assert res.feasible and res.deviation <= REALIZE_TOL
        assert res.levels.tolist() == [1e308 / 1.7e308] * 3

    def test_an_overflowing_sum_takes_one_kernel_pass(self, monkeypatch):
        # The counts are scaled by a power of two fixed before the pass, so
        # the fixture above whose plain sum overflows makes one kernel call
        # per chunk, as integrate_product does: 3 chunks of one node each.
        calls = []
        kernel = product._choquet_block

        def counted(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(product, "_choquet_block", counted)
        monkeypatch.setattr(product, "_CHUNK", 2)
        big = SectionFamily.homothetic(Distortion.identity(), K=3, scales=[1e308] * 3,
                                       normalized=False)
        g = ProductStepFunction.uniform(StepFunction.on_grid([1.7, 1.0]), 3)
        rep = fubini_check(big, g, tnodes=1000)
        assert rep.lhs == pytest.approx(1.35e308, rel=1e-3)
        assert calls == [1, 1, 1]
        integrate_product(big, g)
        assert calls == [1] * 6

    @pytest.mark.parametrize("kind", ["identity", "power", "pwl"])
    def test_rescaling_by_a_power_of_two_is_exact(self, kind):
        # Scaling every node measure by 2**k scales both sides by exactly
        # 2**k wherever the result is finite: past the float maximum of the
        # plain quadrature sum too, with up to 2**40 t-nodes.
        rng = np.random.default_rng(31)
        finite = 0
        for _ in range(40):
            K = int(rng.integers(1, 6))
            g = {"identity": Distortion.identity(),
                 "power": Distortion.power(float(rng.uniform(0.3, 3.0))),
                 "pwl": Distortion.piecewise_linear(fubini_grid_knots(int(rng.integers(99))))}[kind]
            scales = rng.uniform(0.5, 2.0, K)
            tnodes = int(rng.integers(100, 2**40, endpoint=True))
            f = ProductStepFunction(tuple(
                StepFunction.on_grid(rng.uniform(0.0, 2.0, int(rng.integers(1, 20))))
                for _ in range(K)))
            base = fubini_check(SectionFamily.homothetic(g, K, scales=scales, normalized=False),
                                f, tnodes)
            for k in (900, 1000, 1015):
                fam = SectionFamily.homothetic(g, K, scales=scales * 2.0**k, normalized=False)
                rep = fubini_check(fam, f, tnodes)
                for got, want in ((rep.lhs, base.lhs), (rep.rhs, base.rhs)):
                    if np.isfinite(got):
                        finite += k == 1015
                        assert got == want * 2.0**k
        assert finite >= 20

    def test_an_overflowed_column_leaves_the_finite_columns_bits(self):
        # The rescaled mean of [0.3, 0.1, 0.2] is 0.19999999999999998; the
        # plain one, 0.20000000000000004, is kept.
        phi = np.array([[1.7e308, 0.3], [1.7e308, 0.1], [1.7e308, 0.2]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = integrate_sectional_over(identity_family(K=3), phi, ProductSet.full(3))
            fv = ProductStepFunction.separable(StepFunction.on_grid([1.0]), phi)
            product = integrate_product(identity_family(K=3), fv)
        assert got.tolist() == [1.7e308, np.mean([0.3, 0.1, 0.2])]
        assert product.tolist() == [1.7e308, np.mean([0.3, 0.1, 0.2])]

    def test_comonotone_in_x_additivity(self):
        fam = square_family(K=10)
        rng = np.random.default_rng(4)
        for _ in range(200):
            pairs = [comonotone_pair(rng, max_cells=6) for _ in range(10)]
            f1 = ProductStepFunction(tuple(p[0] for p in pairs))
            f2 = ProductStepFunction(tuple(p[1] for p in pairs))
            both = ProductStepFunction(tuple(a + b for a, b in zip(f1.sections, f2.sections)))
            lhs = integrate_product(fam, both)
            rhs = integrate_product(fam, f1) + integrate_product(fam, f2)
            assert lhs == pytest.approx(rhs, abs=1e-9)


def searched_counts(v, dt, n):
    return np.searchsorted((np.arange(n) + 0.5) * dt, v)


def count_probes(M, n):
    """Every t-node, its float neighbours, 0, -0.0, M and the float below M."""
    ts = (np.arange(n) + 0.5) * (M / n)
    v = np.concatenate([ts, np.nextafter(ts, 0.0), np.nextafter(ts, np.inf),
                        [0.0, -0.0, M, np.nextafter(M, 0.0)]])
    return v[v <= M]


class TestTnodeCounts:
    @pytest.mark.parametrize("n", [100, 101, 997, 10_000, 20_000])
    @pytest.mark.parametrize("M", [1e-300, 2.5e-200, 1e-10, 1.0, np.pi, 2.0, 7.3e150, 1e300])
    def test_counts_equal_the_search_of_the_t_nodes(self, n, M):
        v = count_probes(M, n)
        np.testing.assert_array_equal(_tnode_counts(v, M / n, n), searched_counts(v, M / n, n))

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(100, 20_000),
        exponent=st.floats(-300, 300),
        mantissa=st.floats(1.0, 10.0, exclude_max=True),
    )
    def test_counts_equal_the_search_on_random_grids(self, n, exponent, mantissa):
        M = mantissa * 10.0**exponent
        v = count_probes(M, n)
        np.testing.assert_array_equal(_tnode_counts(v, M / n, n), searched_counts(v, M / n, n))

    @pytest.mark.parametrize("n", [100, 1000, 20_000])
    @pytest.mark.parametrize("k", [0.4, 1, 2, 3, 7, 2**20, 2**51 + 1, 2**52, 2**52 * 3])
    def test_counts_at_subnormal_and_smallest_normal_dt(self, n, k):
        # dt = M / n near k * 2**-1074: zero (k = 0.4), subnormal, or normal at 2**52
        M = float(np.float64(k) * n * 5e-324)
        v = count_probes(M, n)
        np.testing.assert_array_equal(_tnode_counts(v, M / n, n), searched_counts(v, M / n, n))

    def test_counts_of_a_table(self):
        v = np.array([[2.0, 1.5, 1.5, 0.0], [1.0, 0.25, -0.0, 0.0]])
        n, dt = 100, 2.0 / 100
        got = _tnode_counts(v, dt, n)
        assert got.shape == v.shape and got.dtype == np.float64
        np.testing.assert_array_equal(got, searched_counts(v, dt, n))


class TestPriceCommutation:
    def test_projection(self):
        fam = identity_family(K=20)
        phi = np.column_stack([fam.ygrid, 1.0 - fam.ygrid])
        rep = check_price_commutation(fam, [1.0, 0.0], phi)
        assert rep.max_deviation <= 1e-9

    def test_balanced_pair_sums_to_one(self):
        fam = identity_family()
        phi = np.column_stack([fam.ygrid, 1.0 - fam.ygrid])
        rep = check_price_commutation(fam, [1.0, 1.0], phi)
        assert rep.max_deviation <= 1e-9
        total = integrate_sectional_over(fam, phi @ np.array([1.0, 1.0]), ProductSet.full(100))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_separable_fixture(self):
        # oracle: mu_y([0,1/2)) = 0.25 per node, so both sides are
        # 5 * avg(y) * 0.25 = 0.625
        fam = square_family()
        gx = StepFunction.indicator(IntervalSet([(0.0, 0.5)]))
        phi = np.column_stack([fam.ygrid, fam.ygrid])
        rep = check_price_commutation(fam, [2.0, 3.0], phi, gx=gx)
        assert rep.max_deviation <= 1e-9
        both = integrate_product(fam, ProductStepFunction.separable(gx, phi @ np.array([2.0, 3.0])))
        assert both == pytest.approx(0.625, abs=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sectional_values_are_rejected(self, bad):
        fam = identity_family(K=3)
        with pytest.raises(StructuralError, match="finite and non-negative"):
            integrate_sectional_over(fam, [bad, 1.0, 1.0], ProductSet.full(3))
        with pytest.raises(StructuralError, match="finite and non-negative"):
            check_price_commutation(fam, [1.0, 1.0], [[bad, 1.0], [1.0, 1.0], [1.0, 1.0]])


class TestLevelSets:
    def test_full_levels(self):
        fam = square_family(K=10)
        H = product_set_from_levels(fam, np.ones(10))
        assert H == ProductSet.full(10)

    def test_identity_wedge(self):
        fam = identity_family(K=10)
        H = product_set_from_levels(fam, fam.ygrid)
        for y, sec, mu in zip(fam.ygrid, H.sections, fam.measures):
            assert sec == IntervalSet([(0.0, y)])
            assert mu(sec) == pytest.approx(y, abs=1e-9)

    def test_square_quarter_levels(self):
        fam = square_family(K=8)
        H = product_set_from_levels(fam, np.full(8, 0.25))
        for sec, mu in zip(H.sections, fam.measures):
            assert sec == IntervalSet([(0.0, 0.5)])
            assert mu(sec) == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("levels", [np.full((10, 2), 0.5), 0.5, np.full((1, 10), 0.5)])
    def test_levels_are_one_per_node(self, levels):
        # a (K, m) array made a K*m-section set and a scalar an IndexError
        with pytest.raises(StructuralError, match="one number per node"):
            product_set_from_levels(identity_family(K=10), levels)

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.5, 0.875, 1.0])
    @pytest.mark.parametrize("fam", [
        square_family(K=6),
        SectionFamily.homothetic(Distortion.piecewise_linear([(0, 0), (0.3, 0.6), (1, 1)]), K=6),
        intro_family(K=6),
        SectionFamily.sectioned(random_blocks(np.random.default_rng(3), 3),
                                np.full((6, 3), 1.0)),
    ], ids=["power", "pwl", "intro", "multi-interval blocks"])
    def test_a_node_chain_is_the_uniform_chain(self, fam, t):
        # the filtering chain of any node's measure on X is the uniform chain
        X_t = product_set_from_levels(fam, np.full(fam.K, t)).sections[0]
        for mu in fam.measures:
            assert filtering_family(mu, IntervalSet.full()).at(t).intervals == X_t.intervals

    def test_level_postcondition_random(self):
        rng = np.random.default_rng(5)
        for fam in (square_family(K=30), intro_family(K=30)):
            for _ in range(100):
                levels = rng.uniform(0, 1, size=30)
                H = product_set_from_levels(fam, levels)
                for lvl, sec, mu in zip(levels, H.sections, fam.measures):
                    assert mu(sec) == pytest.approx(lvl * mu.total, abs=1e-9)


def two_good_case():
    """Ten nodes trading one good against the other along y, and the top
    corner of their zonotope, mean_k u_k."""
    fam = square_family(K=10)
    phi = np.column_stack([np.linspace(0.1, 1.0, 10), np.linspace(1.0, 0.1, 10)])
    return fam, phi, (phi * fam.totals[:, None]).mean(axis=0)


class TestRangeRealize:
    def test_scalar_target(self):
        fam = square_family(K=50)
        res = range_realize(fam, np.ones(50), 0.37)
        assert res.feasible
        assert res.deviation <= 1e-6
        assert res.achieved == pytest.approx([0.37], abs=1e-6)

    def test_zero_target(self):
        fam = square_family(K=20)
        res = range_realize(fam, np.ones(20), 0.0)
        assert res.feasible
        assert res.achieved == pytest.approx([0.0], abs=1e-6)

    def test_out_of_range_gets_direction(self):
        fam = square_family(K=20)
        res = range_realize(fam, np.ones(20), 1.5)
        assert not res.feasible
        d = res.separating_direction
        assert d is not None
        # d certifies: d.target exceeds the zonotope's support in direction d
        support = np.mean(np.maximum(0.0, np.ones(20) * d[0]))
        assert d[0] * 1.5 > support + 1e-9

    @pytest.mark.parametrize("tamper", ["failed", "negated dual"])
    def test_no_direction_without_a_separating_dual(self, monkeypatch, tamper):
        # a failed LP has no multipliers; negated ones give -d with
        # -d . T < 0 <= h(-d)
        fam, phi, top = two_good_case()
        assert range_realize(fam, phi, 2 * top).separating_direction is not None
        solve = product.linprog

        def tampered(*args, **kwargs):
            res = solve(*args, **kwargs)
            if tamper == "failed":
                return type(res)(res, status=2)
            duals = type(res.ineqlin)(res.ineqlin, marginals=-res.ineqlin.marginals)
            return type(res)(res, ineqlin=duals)

        monkeypatch.setattr(product, "linprog", tampered)
        res = range_realize(fam, phi, 2 * top)
        assert not res.feasible and res.separating_direction is None

    @pytest.mark.parametrize("where", ["inside", "boundary", "outside"])
    def test_a_vector_target_solves_one_lp(self, monkeypatch, where):
        fam, phi, top = two_good_case()
        target = {"inside": 0.5 * top, "boundary": top, "outside": 2 * top}[where]
        solve, calls = product.linprog, []
        monkeypatch.setattr(product, "linprog",
                            lambda *a, **kw: calls.append(1) or solve(*a, **kw))
        res = range_realize(fam, phi, target)
        assert len(calls) == 1
        assert res.feasible == (where != "outside")

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["square", "sectioned"]),
        K=st.integers(2, 60),
        n=st.integers(2, 4),
        scale=st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]),
        parallel=st.booleans(),
        where=st.sampled_from(["inside", "outside", "near boundary", "on boundary"]),
    )
    def test_vector_target_agrees_with_the_separation_lp(
            self, seed, kind, K, n, scale, parallel, where):
        """The one LP's dual direction against the separation LP that
        decided vector targets before, max d . T - h(d) over |d|_inf <= 1,
        solved here with scipy's HiGHS."""
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        fam = square_family(K) if kind == "square" else sectioned_family(rng, K)
        phi = scale * rng.uniform(0.0, 1.0, size=(K, n))
        if parallel:
            phi = scale * np.outer(rng.uniform(0.0, 1.0, K), rng.uniform(0.1, 1.0, n))
        U = phi * fam.totals[:, None]
        z = rng.normal(size=n)  # the support point of Z in direction z
        face = U[U @ z > 0].sum(axis=0) / K
        T = {
            "inside": U.T @ rng.uniform(0.0, 1.0, K) / K,
            "outside": face + scale * rng.uniform(0.01, 1.0) * z,
            "near boundary": face + scale * rng.uniform(-1e-5, 1e-5) * z,
            "on boundary": face + scale * rng.uniform(-1e-7, 1e-7) * z,
        }[where]
        res = range_realize(fam, phi, T)

        separation = linprog(np.concatenate([-T, np.full(K, 1.0 / K)]),
                             A_ub=np.hstack([U, -np.eye(K)]), b_ub=np.zeros(K),
                             bounds=[(-1.0, 1.0)] * n + [(0.0, None)] * K, method="highs")
        assert separation.status == 0
        d_ref = separation.x[:n]
        ref_separates = d_ref @ T > np.mean(np.maximum(0.0, U @ d_ref))
        if abs(separation.fun) > 1e-6 * max(1.0, scale):  # outside the tolerance band
            assert (res.separating_direction is not None) == ref_separates
        d = res.separating_direction
        if d is not None:
            assert not res.feasible
            assert d @ T > np.mean(np.maximum(0.0, U @ d))
            assert np.abs(d).sum() <= 1 + 1e-12
        if res.feasible:
            assert res.deviation <= REALIZE_TOL * max(1.0, float(np.max(np.abs(T))))

    def test_roundtrip_random_levels(self):
        rng = np.random.default_rng(6)
        fam = square_family(K=40)
        for _ in range(100):
            phi = rng.uniform(0.1, 2.0, size=(40, 2))
            levels = rng.uniform(0, 1, size=40)
            H = product_set_from_levels(fam, levels)
            target = integrate_sectional_over(fam, phi, H)
            res = range_realize(fam, phi, target)
            assert res.feasible
            assert res.deviation <= 1e-6

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["square", "identity", "sectioned"]),
        K=st.integers(1, 50),
        where=st.sampled_from(
            ["anywhere", "0", "top", "just below 0", "just above top", "near 0", "near top"]),
        column=st.booleans(),
    )
    def test_scalar_target_agrees_with_the_lp(self, seed, kind, K, where, column):
        """The scalar closed form against the feasibility LP that decided
        scalar targets before, solved here with scipy's HiGHS."""
        from scipy.optimize import linprog

        rng = np.random.default_rng(seed)
        fam = {
            "square": lambda: square_family(K),
            "identity": lambda: identity_family(K),
            "sectioned": lambda: sectioned_family(rng, K),
        }[kind]()
        phi = rng.uniform(0.0, 2.0, K) * (rng.random(K) < 0.8) * (rng.random() < 0.9)
        u = phi * fam.totals
        a = float(np.mean(u))
        T = {
            "anywhere": rng.uniform(-0.5, a + 0.5),
            "0": 0.0,
            "top": a,
            "just below 0": -rng.uniform(0, 2e-8),
            "just above top": a + rng.uniform(0, 2e-8),
            "near 0": rng.uniform(-2e-6, 2e-6),
            "near top": a + rng.uniform(-2e-6, 2e-6),
        }[where]
        res = range_realize(fam, phi[:, None] if column else phi, T)

        c = np.zeros(K + 1)
        c[-1] = 1.0
        A_ub = np.block([[u[None, :] / K, -np.ones((1, 1))], [-u[None, :] / K, -np.ones((1, 1))]])
        lp = linprog(c, A_ub=A_ub, b_ub=[T, -T], bounds=[(0.0, 1.0)] * K + [(0.0, None)],
                     method="highs")
        separation = linprog(np.concatenate([[-T], np.full(K, 1.0 / K)]),
                             A_ub=np.hstack([u[:, None], -np.eye(K)]), b_ub=np.zeros(K),
                             bounds=[(-1.0, 1.0)] + [(0.0, None)] * K, method="highs")
        if min(abs(T), abs(T - a)) > 1e-7:
            assert res.feasible == (lp.status == 0 and lp.fun <= 1e-8)
            if not res.feasible:
                assert res.separating_direction.tolist() == [round(separation.x[0])]
        if res.feasible:
            assert res.levels.shape == (K,) and len(set(res.levels.tolist())) == 1
            assert 0.0 <= res.levels[0] <= 1.0
            assert res.deviation <= REALIZE_TOL
            assert abs(res.achieved[0] - T) <= REALIZE_TOL
        elif res.separating_direction is None:
            assert 0.0 <= T <= a
        else:
            d = res.separating_direction
            assert d.shape == (1,) and abs(d[0]) == 1.0
            assert d[0] * T > np.mean(np.maximum(0.0, d[0] * u))

    @pytest.mark.parametrize("T, phi", [(1e10, 1.7e10), (1e308, 1.7e308)], ids=["1e10", "1e308"])
    def test_large_scalar_targets_need_no_lp(self, monkeypatch, T, phi):
        # REALIZE_TOL is below the float spacing of 1e10, so the tolerance
        # scales with |T|; the one level T / phi then meets it
        def no_lp(*args, **kwargs):
            raise AssertionError("a scalar target solved an LP")

        monkeypatch.setattr("choquet_lab.product.linprog", no_lp)
        res = range_realize(square_family(K=3), np.full(3, phi), T)
        assert res.feasible and res.deviation <= REALIZE_TOL * T
        assert res.levels.tolist() == [T / phi] * 3

    def test_non_finite_inputs_are_rejected(self):
        fam = square_family(K=4)
        for phi, target in [(np.ones(4), np.nan), (np.ones(4), np.inf),
                            (np.array([1.0, np.nan, 1.0, 1.0]), 0.5),
                            (np.ones((4, 2)), [0.2, np.nan])]:
            with pytest.raises(StructuralError):
                range_realize(fam, phi, target)

    def test_convex_combinations_realizable(self):
        rng = np.random.default_rng(7)
        fam = intro_family(K=30)
        phi = np.column_stack([fam.ygrid, 1.0 - fam.ygrid])
        for _ in range(50):
            H1 = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(30)))
            H2 = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(30)))
            z1 = integrate_sectional_over(fam, phi, H1)
            z2 = integrate_sectional_over(fam, phi, H2)
            for c in rng.uniform(0, 1, size=3):
                res = range_realize(fam, phi, c * z1 + (1 - c) * z2)
                assert res.feasible
                assert res.deviation <= 1e-6


# -- differential test of the array kernel against the per-cell object path ----


def reference_fubini(fam, f, tnodes):
    """Per-node tables and a t-node loop, as (lhs, rhs) per component."""
    if f.is_vector:
        dims = f.sections[0].values.shape[1]
        return [
            reference_fubini(fam, ProductStepFunction(tuple(s.component(i) for s in f.sections)),
                             tnodes)[0]
            for i in range(dims)
        ]
    rhs = float(np.mean([reference_choquet(s, mu) for mu, s in zip(fam.measures, f.sections)]))
    M = f.max_value
    if M <= 0:
        return [(0.0, rhs)]
    dt = M / tnodes
    ts = (np.arange(tnodes) + 0.5) * dt
    acc = np.zeros(tnodes)
    for mu, section in zip(fam.measures, f.sections):
        u, S = reference_table(section, mu)
        acc += S[np.searchsorted(u, ts, side="right")]
    return [(float(np.sum(acc) / fam.K * dt), rhs)]


def random_family(rng, kind, K):
    if kind == "homothetic":
        return SectionFamily.homothetic(random_distortion(rng), K=K)
    if kind == "homothetic-scaled":
        scales = rng.uniform(0.2, 3.0, size=K)
        return SectionFamily.homothetic(
            random_distortion(rng), K=K, scales=scales, normalized=False
        )
    if kind == "sectioned":
        nblocks = int(rng.integers(1, 4))
        W = rng.uniform(0.0, 2.0, size=(K, nblocks))
        W[np.arange(K), rng.integers(0, nblocks, K)] += 0.5
        normalized = bool(rng.random() < 0.5)
        return SectionFamily.sectioned(random_blocks(rng, nblocks), W, normalized=normalized)
    return SectionFamily.heterogeneous([random_measure(rng) for _ in range(K)])


TNODES = 1024


def random_product_function(rng, layout, K, dims, on_nodes):
    """Sections sharing one partition, each with its own, or a mix of both.

    With ``on_nodes`` the maximum is 2 and every value is 2 or a t-node
    (2i + 1) / TNODES of the quadrature on [0, 2], so values tie with nodes.
    """
    shape = (lambda n: (n,)) if dims == 0 else (lambda n: (n, dims))
    shared = random_step_function(rng)
    sections = []
    for k in range(K):
        own = layout == "distinct" or (layout == "mixed" and rng.random() < 0.5)
        cells = random_step_function(rng).cells if own else shared.cells
        values = rng.uniform(0.0, 2.0, size=shape(len(cells)))
        if on_nodes:
            values = (2 * np.floor(values * TNODES / 2) + 1) / TNODES
            values[0] = 2.0
        elif rng.random() < 0.3:
            values = np.round(values * 2) / 2
        sections.append(StepFunction(cells, values, validate=False))
    return ProductStepFunction(tuple(sections))


class TestKernelAgainstObjectPath:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["homothetic", "homothetic-scaled", "sectioned", "heterogeneous"]),
        layout=st.sampled_from(["shared", "distinct", "mixed"]),
        dims=st.sampled_from([0, 0, 1, 3]),
        K=st.integers(1, 6),
        on_nodes=st.booleans(),
    )
    def test_integrate_and_fubini_match_per_cell_reference(
        self, seed, kind, layout, dims, K, on_nodes
    ):
        rng = np.random.default_rng(seed)
        fam = random_family(rng, kind, K)
        f = random_product_function(rng, layout, K, dims, on_nodes)
        expected = np.mean(
            [reference_choquet(s, mu) for mu, s in zip(fam.measures, f.sections)], axis=0
        )
        got = integrate_product(fam, f)
        assert isinstance(got, np.ndarray) == (dims > 0)
        assert close(got, expected)

        rep = fubini_check(fam, f, tnodes=TNODES)
        candidates = reference_fubini(fam, f, TNODES)
        assert any(close(rep.lhs, lhs) and close(rep.rhs, rhs) for lhs, rhs in candidates)
        worst = max(abs(lhs - rhs) for lhs, rhs in candidates)
        assert rep.deviation == pytest.approx(worst, abs=1e-11)

    def test_zero_cell_sections(self):
        empty = StepFunction((), np.zeros(0), validate=False)
        for fam in (square_family(K=3), intro_family(K=3)):
            f = ProductStepFunction((empty,) * 3)
            assert integrate_product(fam, f) == 0.0
            rep = fubini_check(fam, f, tnodes=100)
            assert (rep.lhs, rep.rhs) == (0.0, 0.0)


def whole_table_reference(fam, f, tnodes):
    """The node integrals, integrate_product(fam, f) and fubini_check's
    (lhs, rhs) from one whole-block kernel pass per block, the threshold
    tables of every node kept, and the quadrature summed over each whole
    table with the t-nodes counted by a search of the t-node array."""
    dims = f.sections[0].values.shape[1] if f.is_vector else 1
    blocks = {}
    for g, (nodes, _) in enumerate(fam._groups):
        for k in nodes.tolist():
            blocks.setdefault((g, id(f.sections[k].cells)), []).append(k)
    integrals, tables = np.empty((f.K, dims)), []
    for nodes in blocks.values():
        cells = f.sections[nodes[0]].cells
        values = np.array([f.sections[k].values for k in nodes])
        rows = values.reshape(len(nodes), len(cells), dims).transpose(0, 2, 1)
        measures = [fam.measures[k] for k in nodes for _ in range(dims)]
        out, v, L = stable_block(rows.reshape(len(measures), len(cells)),
                                 *whole_block_keys(measures, cells))
        integrals[nodes] = out.reshape(len(nodes), dims)
        tables.append((v, L))
    reports = []
    for i in range(dims):
        rhs = float(np.mean(integrals[:, i]))
        M = max(v[i::dims, :1].max(initial=0.0) for v, _ in tables)
        dt = M / tnodes
        total = 0.0
        for v, L in tables:
            below = searched_counts(v[i::dims], dt, tnodes)
            below[:, :-1] -= below[:, 1:]
            total += np.sum(below * L[i::dims])
        reports.append((float(total / f.K * dt) if M > 0 else 0.0, rhs))
    mean = np.mean(integrals, axis=0) if f.is_vector else float(np.mean(integrals))
    return integrals, mean, max(reports, key=lambda r: abs(r[0] - r[1]))


def chunked_family(rng, kind, K):
    if kind == "scaled homothetic":
        return SectionFamily("homothetic", tuple(block_measures(rng, "scaled distortions", K)))
    if kind == "sectioned":
        return SectionFamily("sectioned", tuple(block_measures(rng, "sectioned", K)))
    # heterogeneous: two measure shapes, the nodes of each interleaved with the other's
    shapes = [block_measures(rng, "scaled distortions", K), block_measures(rng, "sectioned", K)]
    return SectionFamily.heterogeneous([shapes[k % 2][k] for k in range(K)])


class TestChunkedNodes:
    """70 nodes x 900 cells span several kernel chunks (18 nodes at 900
    cells, 6 for 3 components); every output keeps the bits of the whole
    tables."""

    @pytest.mark.parametrize("shape", ["distinct", "tie in one chunk", "signed zero in one chunk"])
    @pytest.mark.parametrize("layout", ["shared", "mixed"])
    @pytest.mark.parametrize("dims", [0, 3])
    @pytest.mark.parametrize("kind", ["scaled homothetic", "sectioned", "heterogeneous"])
    def test_integrals_and_fubini_equal_the_whole_tables_bit_for_bit(self, kind, dims, layout,
                                                                     shape):
        rng = np.random.default_rng(27)
        fam = chunked_family(rng, kind, 70)
        shared = random_cells(rng, 900)
        sections = []
        for k in range(70):  # with "mixed", every fifth node has a partition of its own
            cells = random_cells(rng, 40) if layout == "mixed" and k % 5 == 0 else shared
            values = rng.uniform(0.0, 2.0, size=(len(cells), dims) if dims else len(cells))
            if k == 41 and shape == "tie in one chunk":
                values[100] = values[500]
            elif k == 41 and shape == "signed zero in one chunk":
                values[100], values[500] = 0.0, -0.0
            sections.append(StepFunction(cells, values, validate=False))
        f = ProductStepFunction(tuple(sections))
        integrals, integral, (lhs, rhs) = whole_table_reference(fam, f, 10_000)
        assert _node_tables(fam, f)[0].tobytes() == integrals.tobytes()
        got = integrate_product(fam, f)
        assert np.asarray(got).tobytes() == np.asarray(integral).tobytes()
        rep = fubini_check(fam, f, tnodes=10_000)
        assert np.array([rep.lhs, rep.rhs]).tobytes() == np.array([lhs, rhs]).tobytes()


class TestNodeIntegralsAreChoquet:
    """A node's integral is ``choquet`` of its section against its measure,
    bit for bit, whatever the other nodes of its block: 40 nodes on 900
    cells, the sectioned nodes on three blocks striped at 1/1024, so a
    cell's mass sums two weighted parts."""

    @pytest.mark.parametrize("dims", [0, 3])
    @pytest.mark.parametrize("kind", ["scaled homothetic", "sectioned", "heterogeneous"])
    def test_every_node_integral_equals_choquet(self, kind, dims):
        rng = np.random.default_rng(27)
        fam = chunked_family(rng, kind, 40)
        cells = random_cells(rng, 900)
        f = ProductStepFunction(tuple(
            StepFunction(cells, rng.uniform(0.0, 2.0, size=(900, dims) if dims else 900),
                         validate=False) for _ in range(40)))
        want = np.array([choquet(s, mu) for s, mu in zip(f.sections, fam.measures)])
        assert _node_tables(fam, f)[0].tobytes() == want.reshape(40, -1).tobytes()


class TestConstantSections:
    """Every constant section shares one partition object, so a sectional
    function is one kernel block per measure shape, walked in chunks, and
    each node integral is still ``choquet`` of its section."""

    @pytest.mark.parametrize("dims", [0, 3])
    @pytest.mark.parametrize("kind", ["scaled homothetic", "sectioned", "heterogeneous"])
    def test_a_sectional_function_is_one_block_per_measure_shape(self, kind, dims, monkeypatch):
        blocks, calls = [], []
        chunks, kernel = product._chunks, product._choquet_block

        def counted_chunks(fam, f, dims, nodes):
            blocks.append(len(nodes))
            return chunks(fam, f, dims, nodes)

        def counted_kernel(*args):
            calls.append(len(args[0]))
            return kernel(*args)

        monkeypatch.setattr(product, "_chunks", counted_chunks)
        monkeypatch.setattr(product, "_choquet_block", counted_kernel)
        monkeypatch.setattr(product, "_CHUNK", 2**5)
        rng = np.random.default_rng(31)
        fam = chunked_family(rng, kind, 100)
        f = ProductStepFunction.sectional(rng.uniform(0.0, 2.0, (100, dims) if dims else 100))
        integrals = _node_tables(fam, f)[0]
        assert sorted(blocks) == sorted(len(nodes) for nodes, _ in fam._groups)
        per = 2**5 // max(dims, 1)  # nodes per chunk
        assert len(calls) == sum(-(-n // per) for n in blocks)
        want = np.array([choquet(s, mu) for s, mu in zip(f.sections, fam.measures)])
        assert integrals.tobytes() == want.reshape(100, -1).tobytes()


def fubini_grid_knots(seed):
    """The concave pwl distortion of the fubini-grid benchmark jobs of ``seed``."""
    rng = np.random.default_rng([seed, 2])
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 0.9, size=2)), [1.0]])
    slopes = np.sort(rng.uniform(0.2, 3.0, size=3))[::-1]
    ys = np.concatenate([[0.0], np.cumsum(slopes * np.diff(xs))])
    return [[float(x), float(y)] for x, y in zip(xs, ys)]


# SHA-256 of the (lhs, rhs) bytes of fubini_check on the fubini-grid benchmark
# jobs 0-7 of seeds 1 and 2: K = 100 nodes x 1,000 cells of uniform values in
# [0, 2), 10,000 t-nodes, rotating over the identity, square, pwl and intro
# sectioned families.  Recorded with the whole-block kernel and quadrature.
FUBINI_GRID_SHA256 = "592127f66c4769076008b141c1c8a78bad9892259895b98437df4e0653bc14f3"


class TestFubiniGridPins:
    def test_fubini_grid_outputs_keep_their_bits(self):
        digest = hashlib.sha256()
        for seed in (1, 2):
            pwl = SectionFamily.homothetic(Distortion.piecewise_linear(fubini_grid_knots(seed)),
                                           K=100)
            families = [identity_family(100), square_family(100), pwl, intro_family(100)]
            for index in range(8):
                values = np.random.default_rng([seed, 0, index]).uniform(0.0, 2.0, (100, 1000))
                f = ProductStepFunction(tuple(StepFunction.on_grid(row) for row in values))
                rep = fubini_check(families[index % 4], f, tnodes=10_000)
                digest.update(np.array([rep.lhs, rep.rhs]).tobytes())
        assert digest.hexdigest() == FUBINI_GRID_SHA256

    def test_peak_memory_per_node_and_cell(self):
        # tracemalloc sees numpy's buffers: the kernel's temporaries and
        # sectioned keys are one chunk's, and the quadrature keeps one
        # (nodes x cells) array
        K, ncells = 4000, 1000
        fam = intro_family(K)
        values = np.random.default_rng(5).uniform(0.0, 2.0, size=(K, ncells))
        f = ProductStepFunction(tuple(StepFunction.on_grid(row) for row in values))
        tracemalloc.start()
        try:
            fubini_check(fam, f, tnodes=10_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * K * ncells


class TestNonFiniteFamilies:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected(self, bad):
        blocks = [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])]
        with pytest.raises(StructuralError):
            SectionFamily.sectioned(blocks, [[1.0, bad], [1.0, 1.0]])
        with pytest.raises(StructuralError):
            SectionFamily.homothetic(
                Distortion.power(2.0), K=2, scales=[1.0, bad], normalized=False
            )
