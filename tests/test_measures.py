import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_lab.errors import DegenerateSetError, StructuralError
from choquet_lab.intervals import IntervalSet, random_interval_set
from choquet_lab.measures import (
    ALGEBRA_TOL,
    Distortion,
    FuzzyMeasure,
    filtering_family,
    _pow,
    measure_properties,
)

# g(a + b) > g(a) + g(b) at a = 0.9, b = 0.05, so mu is not subadditive
NOT_SUBADDITIVE_KNOTS = [(0, 0), (0.9, 0.9), (0.95, 0.951), (1, 1)]
# subadditive, yet the slope rises at 0.6, so mu is not submodular
SUBADDITIVE_NOT_CONCAVE_KNOTS = [(0, 0), (0.5, 0.7), (0.6, 0.72), (0.7, 0.8), (1, 1)]
# neither subadditive nor submodular, with g(1) near 2
NEITHER_KNOTS = [(0, 0), (0.2433, 0.5520), (0.3771, 0.8414), (0.4686, 1.0490), (1, 1.9755)]


def sq():
    return FuzzyMeasure.distorted(Distortion.power(2.0))


def sqrt_measure():
    return FuzzyMeasure.distorted(Distortion.power(0.5))


def pwl_measure(knots):
    return FuzzyMeasure.distorted(Distortion.piecewise_linear(knots))


def sampled_violations(mu, trials, seed, bits=20):
    """The capacity properties that random interval-set pairs refute.

    The sampled check the exact decisions replaced, kept as their oracle:
    it can miss a violation, but every one it finds is genuine."""
    rng = np.random.default_rng(seed)
    refuted = set()
    for _ in range(trials):
        A = random_interval_set(rng, bits=bits, allow_empty=True)
        B = random_interval_set(rng, bits=bits, allow_empty=True)
        mA, mB = mu(A), mu(B)
        m_sub, m_sup = mu(A.intersection(B)), mu(A.union(B))
        if m_sub > mA + ALGEBRA_TOL or mA > m_sup + ALGEBRA_TOL:
            refuted.add("monotone")
        if m_sup > mA + mB + ALGEBRA_TOL:
            refuted.add("subadditive")
        if m_sup + m_sub > mA + mB + ALGEBRA_TOL:
            refuted.add("submodular")
    return refuted


def assert_witness_verifies(mu, witness):
    """The witness pair violates its property by more than ALGEBRA_TOL when
    mu re-evaluates it, and the report carries those values."""
    A, B = IntervalSet(witness["A"]), IntervalSet(witness["B"])
    lhs = mu(A.union(B))
    if witness["property"] == "submodular":
        lhs += mu(A.intersection(B))
    rhs = mu(A) + mu(B)
    assert lhs > rhs + ALGEBRA_TOL
    assert (witness["lhs"], witness["rhs"]) == (lhs, rhs)


def two_blocks():
    return FuzzyMeasure.sectioned(
        [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])], [1.0, 1.0]
    )


class TestDistortion:
    def test_power_eval_and_inverse(self):
        g = Distortion.power(2.0)
        assert g(0.5) == pytest.approx(0.25)
        assert g.inverse(0.25) == pytest.approx(0.5)
        for s in np.linspace(0, 1, 17):
            assert g.inverse(g(s)) == pytest.approx(s, abs=1e-10)

    def test_pwl_inverse_roundtrip(self):
        g = Distortion.piecewise_linear([(0, 0), (0.25, 0.5), (1, 2.0)])
        for s in np.linspace(0, 1, 33):
            assert g.inverse(g(s)) == pytest.approx(s, abs=1e-10)
        assert not g.is_concave is None

    def test_concavity_flags(self):
        assert Distortion.power(0.5).is_concave
        assert Distortion.identity().is_concave
        assert not Distortion.power(2.0).is_concave
        concave_pwl = Distortion.piecewise_linear([(0, 0), (0.25, 0.5), (1, 1)])
        assert concave_pwl.is_concave
        convex_pwl = Distortion.piecewise_linear([(0, 0), (0.5, 0.25), (1, 1)])
        assert not convex_pwl.is_concave

    def test_concave_flag_superadditive_in_lambda(self):
        # flagged concave => g(lam * s) >= lam * g(s) on a sample grid
        for g in (Distortion.power(0.5), Distortion.identity()):
            for lam in np.linspace(0, 1, 9):
                for s in np.linspace(0, 1, 9):
                    assert g(lam * s) >= lam * g(s) - 1e-12

    def test_validation(self):
        with pytest.raises(StructuralError):
            Distortion.power(-1.0)
        with pytest.raises(StructuralError):
            Distortion.piecewise_linear([(0, 0.1), (1, 1)])
        with pytest.raises(StructuralError):
            Distortion.piecewise_linear([(0, 0), (0.5, 0.5), (0.4, 0.7), (1, 1)])
        with pytest.raises(StructuralError, match="pwl knots must be finite"):
            Distortion.piecewise_linear([(0, 0), (0.5, np.inf), (1, 1)])

    def test_power_inverse_overflows_to_inf(self):
        # Python's float pow raises OverflowError where numpy's gives inf
        assert Distortion.power(0.25).inverse(1e100) == np.inf
        assert _pow([1e300, 2.0], 2.0).tolist() == [np.inf, 4.0]


class TestMeasure:
    def test_distorted_square_half(self):
        assert sq()(IntervalSet([(0.0, 0.5)])) == pytest.approx(0.25)

    def test_empty_set_is_null(self):
        assert sq()(IntervalSet.empty()) == 0.0
        assert two_blocks()(IntervalSet.empty()) == 0.0

    def test_sectioned_straddling_set(self):
        # oracle: direct formula sum w_i * lam(A ∩ E_i) / lam(E_i) = 0.5 + 0.5
        A = IntervalSet([(0.25, 0.75)])
        expected = 1.0 * 0.25 / 0.5 + 1.0 * 0.25 / 0.5
        assert two_blocks()(A) == pytest.approx(expected)

    def test_totals(self):
        assert sq().total == pytest.approx(1.0)
        assert two_blocks().total == pytest.approx(2.0)

    def test_sectioned_validation(self):
        with pytest.raises(StructuralError):
            FuzzyMeasure.sectioned([IntervalSet([(0.0, 0.5)])], [1.0])  # no cover
        with pytest.raises(StructuralError):
            FuzzyMeasure.sectioned(
                [IntervalSet([(0.0, 0.6)]), IntervalSet([(0.5, 1.0)])], [1, 1]
            )
        with pytest.raises(StructuralError):
            FuzzyMeasure.sectioned(
                [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])], [0.0, 0.0]
            )
        with pytest.raises(StructuralError, match="empty block"):
            FuzzyMeasure.sectioned([IntervalSet.empty(), IntervalSet.full()], [1.0, 1.0])
        with pytest.raises(StructuralError, match="distorted measure needs a distortion"):
            FuzzyMeasure("distorted")

    def test_zero_weight_blocks_allowed(self):
        mu = FuzzyMeasure.sectioned(
            [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])], [1.0, 0.0]
        )
        assert mu(IntervalSet([(0.5, 1.0)])) == 0.0
        assert mu(IntervalSet([(0.0, 0.25)])) == pytest.approx(0.5)


class TestPropertyChecks:
    def test_convex_distortion_fails_subadditivity(self):
        report = measure_properties(sq())
        assert not report.subadditive and not report.submodular
        assert report.witness == {"property": "subadditive", "A": [[0.0, 0.5]],
                                  "B": [[0.5, 1.0]], "lhs": 1.0, "rhs": 0.5}
        assert_witness_verifies(sq(), report.witness)
        assert {"subadditive", "submodular"} <= sampled_violations(sq(), trials=200, seed=1)

    def test_probe_pair_is_a_counterexample(self):
        # mu([0,1)) = 1 > 0.25 + 0.25 = mu([0,.5)) + mu([.5,1))
        mu = sq()
        A, B = IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])
        assert mu(A.union(B)) > mu(A) + mu(B)

    def test_concave_distortion_passes(self):
        assert measure_properties(sqrt_measure()).all_pass
        assert not sampled_violations(sqrt_measure(), trials=1000, seed=2)

    def test_identity_passes(self):
        assert measure_properties(FuzzyMeasure.lebesgue()).all_pass
        assert not sampled_violations(FuzzyMeasure.lebesgue(), trials=500, seed=3)

    def test_sectioned_passes(self):
        assert measure_properties(two_blocks()).all_pass
        assert not sampled_violations(two_blocks(), trials=1000, seed=4)

    def test_concave_submodular_exhaustive_grid(self):
        # independent oracle: every pair of unions of 8 grid cells
        g = Distortion.power(0.5)
        width = 1.0 / 8
        lengths = np.array([bin(m).count("1") * width for m in range(256)])
        for a in range(256):
            for b in range(256):
                lhs = g(lengths[a | b]) + g(lengths[a & b])
                rhs = g(lengths[a]) + g(lengths[b])
                assert lhs <= rhs + 1e-12

    def test_monotone_always(self):
        for mu in (sq(), sqrt_measure(), two_blocks()):
            assert measure_properties(mu).monotone
            assert "monotone" not in sampled_violations(mu, trials=500, seed=5)

    def test_pwl_subadditivity_violation_has_its_peak_witness(self):
        # the peak of g(a + b) - g(a) - g(b) is 0.951 - 0.9 - 0.05 = 1e-3
        mu = pwl_measure(NOT_SUBADDITIVE_KNOTS)
        report = measure_properties(mu)
        assert not (mu.is_subadditive or report.subadditive or report.submodular)
        assert (report.witness["A"], report.witness["B"]) == ([[0.0, 0.9]], [[0.9, 0.95]])
        assert report.witness["lhs"] - report.witness["rhs"] == pytest.approx(1e-3)
        assert_witness_verifies(mu, report.witness)

    def test_subadditive_non_concave_pwl_has_a_kink_witness(self):
        # the slope rises from 0.2 to 0.8 at x = 0.6 with h = 0.1: gap 0.06
        mu = pwl_measure(SUBADDITIVE_NOT_CONCAVE_KNOTS)
        report = measure_properties(mu)
        assert mu.is_subadditive and report.subadditive
        assert not (mu.is_submodular or report.submodular)
        assert report.witness["property"] == "submodular"
        assert report.witness["lhs"] - report.witness["rhs"] == pytest.approx(0.06)
        assert_witness_verifies(mu, report.witness)

    @pytest.mark.parametrize("alpha", [1 + 1e-15, 1 + 1e-12])
    def test_power_above_one_is_not_subadditive(self, alpha):
        # g(1) - 2 g(1/2) = 1 - 2^(1 - alpha) > 0 for every alpha > 1, however
        # far below ALGEBRA_TOL it rounds
        mu = FuzzyMeasure.distorted(Distortion.power(alpha))
        report = measure_properties(mu)
        assert not mu.is_subadditive and not report.subadditive and not report.submodular
        witness = report.witness
        assert (witness["A"], witness["B"]) == ([[0.0, 0.5]], [[0.5, 1.0]])
        gap = -math.expm1((1 - alpha) * math.log(2))
        assert witness["lhs"] > witness["rhs"]
        assert witness["lhs"] - witness["rhs"] == pytest.approx(gap, abs=2**-52)

    @pytest.mark.parametrize("magnitude", [1.0, 1e6])
    def test_slope_tolerance_is_relative(self, magnitude):
        # g(s) = magnitude * s is concave although its two slopes differ by
        # rounding; a rise of 1e-10 of the slope is a kink at any magnitude
        line = Distortion.piecewise_linear([(0, 0), (0.3, 0.3 * magnitude), (1, magnitude)])
        assert line.is_concave and measure_properties(FuzzyMeasure.distorted(line)).all_pass
        top = 0.5 * magnitude + 0.5 * magnitude * (1 + 1e-10)
        mu = pwl_measure([(0, 0), (0.5, 0.5 * magnitude), (1, top)])
        report = measure_properties(mu)
        assert not mu.distortion.is_concave and not report.submodular
        assert_witness_verifies(mu, report.witness)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_tight_subadditive_pwl_stays_subadditive_when_scaled(self, scale):
        # g(a) + g(1 - a) = g(1) for every a: the maximum of
        # g(a + b) - g(a) - g(b) is 0 along a + b = 1, and at scale 1e6 the
        # rounding of g's values exceeds 1e-12 there
        g = Distortion.piecewise_linear([(0, 0), (0.2, 0.3), (0.8, 0.7), (1, 1)], scale=scale)
        mu = FuzzyMeasure.distorted(g)
        report = measure_properties(mu)
        assert mu.is_subadditive and report.subadditive and not report.submodular
        assert_witness_verifies(mu, report.witness)

    @pytest.mark.parametrize("factor", [1.0, 1e-9, 1e-12])
    def test_decisions_do_not_depend_on_the_scale_of_g(self, factor):
        # the gap and the slope rise are compared relative to g(1) and to the
        # slope, with no floor at 1, so a small g keeps its verdicts
        mu = pwl_measure([(x, factor * y) for x, y in NEITHER_KNOTS])
        report = measure_properties(mu)
        assert not (mu.is_subadditive or mu.is_submodular)
        assert not (report.subadditive or report.submodular)
        assert report.witness["property"] == "subadditive"
        assert report.witness["lhs"] > report.witness["rhs"]

    @settings(max_examples=150, deadline=None)
    @given(
        inner=st.lists(st.floats(0.01, 0.99), max_size=5, unique=True),
        rises=st.lists(st.floats(1e-3, 10.0), min_size=6, max_size=6),
        k=st.integers(-60, 60),
    )
    def test_scaling_by_a_power_of_two_keeps_every_verdict(self, inner, rises, k):
        # y -> 2^k y is exact, and so is every value g takes, every slope
        # and every gap: the decisions and witnesses must follow it exactly
        xs = [0.0, *sorted(inner), 1.0]
        ys = np.cumsum([0.0, *rises[: len(xs) - 1]])
        base = measure_properties(pwl_measure(list(zip(xs, ys))))
        scaled = measure_properties(pwl_measure(list(zip(xs, np.ldexp(ys, k)))))
        assert (scaled.subadditive, scaled.submodular) == (base.subadditive, base.submodular)
        assert (scaled.witness is None) == (base.witness is None)
        if base.witness is not None:
            assert {**scaled.witness, "lhs": None, "rhs": None} == {
                **base.witness, "lhs": None, "rhs": None}
            assert (scaled.witness["lhs"], scaled.witness["rhs"]) == (
                math.ldexp(base.witness["lhs"], k), math.ldexp(base.witness["rhs"], k))

    @settings(max_examples=150, deadline=None)
    @given(
        inner=st.sets(st.integers(1, 15), max_size=5),
        rises=st.lists(st.integers(1, 16), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_decision_is_never_weaker_than_sampled_pairs(self, inner, rises, seed):
        # knots and random sets share the grid 1/16, where every vertex of
        # g(a + b) - g(a) - g(b) lies, so the sampled pairs can hit the peak
        xs = [0, *sorted(inner), 16]
        ys = np.cumsum([0, *rises[: len(xs) - 1]])
        mu = pwl_measure([(x / 16, y / 16) for x, y in zip(xs, ys)])
        report = measure_properties(mu)
        decided = {p for p in ("monotone", "subadditive", "submodular")
                   if not getattr(report, p)}
        assert sampled_violations(mu, trials=300, seed=seed, bits=4) <= decided
        assert (mu.is_subadditive, mu.is_submodular) == (report.subadditive, report.submodular)
        assert (report.witness is None) == report.all_pass
        if report.witness is not None:
            assert report.witness["property"] == ("submodular" if report.subadditive
                                                  else "subadditive")
            assert_witness_verifies(mu, report.witness)


class TestFilteringFamily:
    def test_identity_prefix(self):
        fam = filtering_family(FuzzyMeasure.lebesgue(), IntervalSet.full())
        assert fam.at(0.3) == IntervalSet([(0.0, 0.3)])

    def test_square_distortion_prefix(self):
        # oracle: solve s^2 = 0.25 by hand -> s = 0.5
        fam = filtering_family(sq(), IntervalSet.full())
        assert fam.at(0.25) == IntervalSet([(0.0, 0.5)])

    def test_endpoints(self):
        A = IntervalSet([(0.1, 0.4), (0.6, 0.9)])
        for mu in (sq(), two_blocks()):
            fam = filtering_family(mu, A)
            assert fam.at(0.0).is_empty
            assert fam.at(1.0) == A

    def test_degenerate_set_rejected(self):
        with pytest.raises(DegenerateSetError):
            filtering_family(sq(), IntervalSet.empty())

    @pytest.mark.parametrize("which", ["sq", "sqrt", "sectioned", "pwl"])
    def test_chain_measure_proportionality(self, which):
        mu = {
            "sq": sq(),
            "sqrt": sqrt_measure(),
            "sectioned": two_blocks(),
            "pwl": FuzzyMeasure.distorted(
                Distortion.piecewise_linear([(0, 0), (0.3, 0.6), (1, 1)])
            ),
        }[which]
        rng = np.random.default_rng(7)
        for _ in range(100):
            A = random_interval_set(rng)
            fam = filtering_family(mu, A)
            t = float(rng.uniform())
            assert fam.mu(fam.at(t)) == pytest.approx(t * mu(A), abs=1e-9)

    def test_chain_nested(self):
        rng = np.random.default_rng(11)
        for mu in (sq(), two_blocks()):
            A = random_interval_set(rng)
            fam = filtering_family(mu, A)
            ts = np.sort(rng.uniform(size=6))
            sets = [fam.at(t) for t in ts]
            for s1, s2 in zip(sets, sets[1:]):
                assert s1.is_subset_of(s2)


class TestChainIncrements:
    def test_square_distortion_known_values(self):
        # oracle: hand evaluation of g on the prefix difference
        fam = filtering_family(sq(), IntervalSet.full())
        inc = fam.at(0.5).difference(fam.at(0.0))
        assert fam.mu(inc) == pytest.approx(0.5, abs=1e-12)
        inc2 = fam.at(0.75).difference(fam.at(0.25))
        expected = (np.sqrt(0.75) - np.sqrt(0.25)) ** 2
        assert fam.mu(inc2) == pytest.approx(expected, abs=1e-12)
        assert abs(expected - 0.5) > 0.3  # the identity genuinely fails here
