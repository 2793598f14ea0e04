from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_lab.choquet import (
    INTEGRAL_PROPERTIES,
    StepFunction,
    _ENDS_CACHED,
    _cell_ends,
    _choquet_block,
    _ends_cache,
    _keys,
    _overlaps,
    choquet,
    choquet_restricted,
    comonotone_pair,
    integral_properties,
    random_step_function,
    riemann_choquet,
    superlevel_set,
)
from choquet_lab.errors import StructuralError
from choquet_lab.intervals import IntervalSet, _ends, _lengths, random_interval_set
from choquet_lab.measures import Distortion, FuzzyMeasure, _block_lengths, _masses

EXACT_TOL = 1e-9  # integral identities that hold exactly up to float rounding


def sq():
    return FuzzyMeasure.distorted(Distortion.power(2.0))


def linear_f(ncells=1000):
    return StepFunction.from_samples(lambda x: x, ncells)


class TestStepFunction:
    def test_partition_validation(self):
        with pytest.raises(StructuralError):
            StepFunction((IntervalSet([(0.0, 0.5)]),), [1.0])  # gap
        with pytest.raises(StructuralError):
            StepFunction(
                (IntervalSet([(0.0, 0.6)]), IntervalSet([(0.5, 1.0)])), [1.0, 2.0]
            )
        with pytest.raises(StructuralError):
            StepFunction.on_grid([1.0, -0.5])

    @pytest.mark.parametrize("call, message", [
        (lambda: StepFunction.on_grid(5.0), r"must be \(1,\) or \(1, \*\), not \(\)"),
        (lambda: StepFunction.on_grid([[1.0], [1.0, 2.0]]), "must be an array of numbers"),
        (lambda: StepFunction.on_grid([]), r"not \(0,\)"),
        (lambda: StepFunction.from_samples(lambda x: x, 0), "ncells must be an integer"),
        (lambda: StepFunction.constant(1.0).value_at(1.0), "point 1.0 not covered"),
        (lambda: StepFunction.constant(1.0).scaled(-1.0), "scalar must be non-negative"),
        (lambda: riemann_choquet(StepFunction.constant([1.0, 2.0]), sq()), "scalar-only"),
    ], ids=["scalar grid", "ragged grid", "empty grid", "no samples", "uncovered point",
            "negative scale", "vector riemann"])
    def test_refusals(self, call, message):
        with pytest.raises(StructuralError, match=message):
            call()

    def test_superlevel_sets(self):
        f = StepFunction.on_grid([2.0, 1.0, 3.0, 0.0])
        assert superlevel_set(f, 1.5) == IntervalSet([(0.0, 0.25), (0.5, 0.75)])
        assert superlevel_set(f, 2.5) == IntervalSet([(0.5, 0.75)])
        assert superlevel_set(f, 3.0).is_empty
        assert superlevel_set(f, -1.0) == IntervalSet.full()

    def test_restrict(self):
        f = StepFunction.on_grid([2.0, 1.0])
        g = f.restrict(IntervalSet([(0.25, 0.75)]))
        assert g.value_at(0.3) == pytest.approx(2.0)
        assert g.value_at(0.6) == pytest.approx(1.0)
        assert g.value_at(0.1) == 0.0

    def test_add_refines_partitions(self):
        f = StepFunction.on_grid([1.0, 2.0])
        g = StepFunction.on_grid([1.0, 2.0, 3.0])
        s = f + g
        assert s.value_at(0.1) == pytest.approx(2.0)
        assert s.value_at(0.4) == pytest.approx(3.0)
        assert s.value_at(0.6) == pytest.approx(4.0)
        assert s.value_at(0.9) == pytest.approx(5.0)


class TestChoquetExamples:
    def test_indicator_recovers_measure(self):
        A = IntervalSet([(0.0, 0.5)])
        assert choquet(StepFunction.indicator(A), sq()) == pytest.approx(0.25)
        rng = np.random.default_rng(0)
        for mu in (sq(), FuzzyMeasure.lebesgue()):
            for _ in range(20):
                B = IntervalSet([(0.2, 0.7)]) if _ == 0 else superlevel_set(
                    random_step_function(rng), 1.0
                )
                assert choquet(StepFunction.indicator(B), mu) == pytest.approx(mu(B))

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["identity", "pwl", "sectioned", "power", "power 0.5", "power 1|2"]),
    )
    def test_an_indicator_integrates_to_the_measure_of_its_set(self, seed, kind):
        # choquet(1_A, mu) = g(|A|) (or mu's block masses) is mu(A) bit for
        # bit where both take g by the same arithmetic: identity, pwl,
        # sectioned, and power alpha in {1, 2}.  For alpha = 1 numpy's array
        # power is a copy.  For alpha = 2 it is the square x * x against
        # libm's pow(x, 2) in mu, which is not always x * x (on an x86-64
        # glibc 2.36 host they differed in about 1,700 of 2e6 uniform
        # draws); they agree here only because the sets' lengths are dyadic
        # with at most 20 bits, so both squares are exact.  Other powers,
        # alpha = 0.5 among them (numpy's square root against libm's
        # pow(x, 0.5): about 1,700 of the same draws differ), take g by array
        # power in the kernel and by libm's pow in mu.  Both are faithfully
        # rounded, so each is one of the two floats next to the exact
        # |A|^alpha and they differ by at most 1 ulp.  Times the scale that
        # is less than 2 ulp of the exact product, and rounding each product
        # moves it by at most half an ulp: less than 3 ulp, so at most 2,
        # apart.
        rng = np.random.default_rng(seed)
        scale = float(rng.uniform(0.25, 3.0))
        if kind == "sectioned":
            nblocks = int(rng.integers(1, 5))
            mu = FuzzyMeasure.sectioned(random_blocks(rng, nblocks), rng.uniform(0.1, 2.0, nblocks))
        elif kind == "power":
            mu = FuzzyMeasure.distorted(Distortion.power(float(rng.uniform(0.2, 3.0)), scale=scale))
        elif kind.startswith("power"):
            alpha = 0.5 if kind == "power 0.5" else float(rng.choice([1.0, 2.0]))
            mu = FuzzyMeasure.distorted(Distortion.power(alpha, scale=scale))
        else:
            g = random_distortion(rng)
            while g.kind != kind:
                g = random_distortion(rng)
            mu = FuzzyMeasure.distorted(g)
        for _ in range(30):
            A = random_interval_set(rng, allow_empty=True)
            got, want = choquet(StepFunction.indicator(A), mu), mu(A)
            if kind in ("power", "power 0.5"):
                assert abs(got - want) <= 2 * np.spacing(max(got, want)), (A, got, want)
            else:
                assert got == want, (A, got, want)

    def test_constant(self):
        for mu in (sq(), FuzzyMeasure.lebesgue()):
            assert choquet(StepFunction.constant(3.5), mu) == pytest.approx(3.5 * mu.total)

    def test_a_sectioned_total_is_the_measure_of_x(self):
        # total, mu([0,1)) and choquet(1, mu) take the same sum of
        # w_i |E_i| / |E_i|, which rounds differently from sum(w_i) for
        # 37 of these 400 measures
        rng = np.random.default_rng(35)
        for _ in range(400):
            nblocks = 5
            mu = FuzzyMeasure.sectioned(random_blocks(rng, nblocks), rng.dirichlet(np.ones(nblocks)))
            assert choquet(StepFunction.constant(1.0), mu) == mu(IntervalSet.full()) == mu.total

    def test_linear_against_analytic(self):
        # oracle: integral of (1-t)^2 over [0,1] = 1/3
        val = choquet(linear_f(), sq())
        assert val == pytest.approx(1.0 / 3.0, abs=2e-3)

    def test_linear_against_brute_force(self):
        f = linear_f(200)
        val = choquet(f, sq())
        ref = riemann_choquet(f, sq(), tnodes=100_000)
        assert val == pytest.approx(ref, abs=1.0 * f.max_value / 100_000)

    def test_restricted_full_space_is_identity(self):
        f = linear_f()
        assert choquet_restricted(f, sq(), IntervalSet.full()) == pytest.approx(
            choquet(f, sq())
        )

    def test_restricted_constant_gives_measure(self):
        A = IntervalSet([(0.1, 0.6)])
        for mu in (sq(), FuzzyMeasure.lebesgue()):
            assert choquet_restricted(StepFunction.constant(1.0), mu, A) == pytest.approx(
                mu(A)
            )

    def test_restricted_two_level_hand_oracle(self):
        # sorted-threshold by hand: (2 - 0) * lebesgue([0, 1/4)) = 0.5
        f = StepFunction(
            (IntervalSet([(0.0, 0.25)]), IntervalSet([(0.25, 1.0)])),
            [2.0, 1.0],
        )
        val = choquet_restricted(f, FuzzyMeasure.lebesgue(), IntervalSet([(0.0, 0.25)]))
        assert val == pytest.approx(0.5)

    def test_translation_fixture(self):
        # (f + 1) integrates to 1/3 + mu(X) = 4/3
        val = choquet(linear_f().shifted(1.0), sq())
        assert val == pytest.approx(4.0 / 3.0, abs=2e-3)

    def test_comonotone_fixture(self):
        # analytic oracles: 1/3, 1/6 (= int (1-sqrt t)^2 dt), 1/2 via t = s + s^2
        f = linear_f()
        h = StepFunction.from_samples(lambda x: x * x, 1000)
        mu = sq()
        int_f = choquet(f, mu)
        int_h = choquet(h, mu)
        int_sum = choquet(f + h, mu)
        assert int_f == pytest.approx(1.0 / 3.0, abs=2e-3)
        assert int_h == pytest.approx(1.0 / 6.0, abs=5e-3)
        assert int_sum == pytest.approx(0.5, abs=5e-3)
        assert int_sum == pytest.approx(int_f + int_h, abs=5e-3)

    def test_sectioned_measure_path(self):
        mu = FuzzyMeasure.sectioned(
            [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])], [1.0, 3.0]
        )
        f = StepFunction.on_grid([2.0, 1.0])
        # thresholds: (2-1)*mu([0,.5)) + (1-0)*mu([0,1)) = 1*1 + 1*4
        assert choquet(f, mu) == pytest.approx(5.0)
        assert choquet(f, mu) == pytest.approx(riemann_choquet(f, mu, 50_000), abs=1e-3)


class TestSortedThresholdVsBruteForce:
    def test_random_functions_both_modes(self):
        rng = np.random.default_rng(42)
        mus = [
            sq(),
            FuzzyMeasure.distorted(Distortion.power(0.5)),
            FuzzyMeasure.lebesgue(),
            FuzzyMeasure.sectioned(
                [IntervalSet([(0.0, 0.25)]), IntervalSet([(0.25, 1.0)])], [2.0, 1.0]
            ),
        ]
        tnodes = 20_000
        for i in range(60):
            f = random_step_function(rng)
            mu = mus[i % len(mus)]
            exact = choquet(f, mu)
            ref = riemann_choquet(f, mu, tnodes=tnodes)
            assert exact == pytest.approx(
                ref, abs=mu.total * max(f.max_value, 1e-9) / tnodes + 1e-12
            )


class TestVectorIntegral:
    def test_componentwise(self):
        f = StepFunction.on_grid(np.array([[1.0, 2.0], [3.0, 0.5]]))
        out = choquet(f, FuzzyMeasure.lebesgue())
        assert out == pytest.approx([2.0, 1.25])


def integral_deviations(mu, rng) -> dict:
    """One random draw of each integral property's kernel identity: how far
    choquet misses it on random_step_function and comonotone_pair draws
    (> 0 is a violation)."""
    f, g = random_step_function(rng), random_step_function(rng)
    cf, ch = comonotone_pair(rng)
    bump = StepFunction(f.cells, rng.uniform(0, 1, size=len(f.cells)), validate=False)
    c, cut = float(rng.uniform(0, 3)), float(rng.uniform(0, f.max_value + 0.5))

    def C(h):
        return choquet(h, mu)

    return {
        "homogeneity": abs(C(f.scaled(c)) - c * C(f)),
        "monotonicity": C(f) - C(f + bump),
        "translation": abs(C(f.shifted(c)) - C(f) - c * mu.total),
        "subadditivity": C(f + g) - C(f) - C(g),
        "comonotone_additivity": abs(C(cf + ch) - C(cf) - C(ch)),
        "horizontal_additivity": abs(C(f) - C(f.clipped(cut)) - C(f.excess_over(cut))),
    }


def sampled_integral_violations(mu, trials, seed) -> set:
    """The integral properties that random step functions refute, the
    oracle of :func:`integral_properties`: it can miss a violation, but
    every one it finds is genuine."""
    rng = np.random.default_rng(seed)
    tol = EXACT_TOL * max(1.0, mu.total)
    return {name for _ in range(trials)
            for name, dev in integral_deviations(mu, rng).items() if dev > tol}


def assert_decision_verifies(mu, results):
    """Every property is decided; only subadditivity can fail, exactly when
    mu is not submodular, and its counterexample re-verifies through choquet."""
    assert list(results) == list(INTEGRAL_PROPERTIES)
    assert all(r["checked"] for r in results.values())
    assert [n for n, r in results.items() if not r["passed"]] == (
        [] if mu.is_submodular else ["subadditivity"])
    cx = results["subadditivity"]["counterexample"]
    assert (cx is None) == mu.is_submodular
    if cx is not None:
        f, g = (StepFunction.indicator(IntervalSet(cx[s])) for s in "AB")
        lhs, rhs = choquet(f + g, mu), choquet(f, mu) + choquet(g, mu)
        assert (cx["lhs"], cx["rhs"]) == (lhs, rhs)
        assert lhs > rhs + EXACT_TOL


@st.composite
def measures(draw):
    """Power (alpha in [0.1, 4]), concave or arbitrary pwl on the grid 1/16,
    identity and sectioned measures."""
    kind = draw(st.sampled_from(["power", "pwl", "concave pwl", "identity", "sectioned"]))
    if kind == "power":
        return FuzzyMeasure.distorted(Distortion.power(draw(st.integers(1, 40)) / 10))
    if kind == "identity":
        return FuzzyMeasure.lebesgue()
    if kind == "sectioned":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        nblocks = draw(st.integers(1, 4))
        return FuzzyMeasure.sectioned(random_blocks(rng, nblocks), rng.uniform(0.1, 3.0, nblocks))
    xs = [0, *sorted(draw(st.sets(st.integers(1, 15), max_size=5))), 16]
    slopes = draw(st.lists(st.integers(1, 16), min_size=len(xs) - 1, max_size=len(xs) - 1))
    if kind == "concave pwl":
        slopes = sorted(slopes, reverse=True)
    ys = np.cumsum([0, *(s * (b - a) for s, a, b in zip(slopes, xs, xs[1:]))])
    return FuzzyMeasure.distorted(Distortion.piecewise_linear(
        [(x / 16, y / ys[-1]) for x, y in zip(xs, ys)]))


class TestPropertyChecks:
    def test_all_pass_for_subadditive(self):
        for mu in (FuzzyMeasure.distorted(Distortion.power(0.5)), FuzzyMeasure.lebesgue()):
            results = integral_properties(mu)
            assert all(r["passed"] for r in results.values())
            assert_decision_verifies(mu, results)
            assert not sampled_integral_violations(mu, trials=300, seed=42)

    def test_sectioned_measure_properties(self):
        mu = FuzzyMeasure.sectioned(
            [IntervalSet([(0.0, 0.5)]), IntervalSet([(0.5, 1.0)])], [1.0, 2.0]
        )
        results = integral_properties(mu)
        assert all(r["passed"] for r in results.values())
        assert not sampled_integral_violations(mu, trials=300, seed=3)

    def test_convex_distortion_has_an_indicator_counterexample(self):
        results = integral_properties(sq())
        assert_decision_verifies(sq(), results)
        cx = results["subadditivity"]["counterexample"]
        assert (cx["A"], cx["B"]) == ([[0.0, 0.5]], [[0.5, 1.0]])
        assert (cx["lhs"], cx["rhs"]) == (1.0, 0.5)
        assert sampled_integral_violations(sq(), trials=200, seed=1) == {"subadditivity"}

    def test_subadditive_non_concave_distortion_has_a_counterexample(self):
        # mu is subadditive but not submodular, so its integral is not
        # subadditive: the counterexample comes from the submodularity witness
        mu = FuzzyMeasure.distorted(Distortion.piecewise_linear(
            [(0, 0), (0.5, 0.7), (0.6, 0.72), (0.7, 0.8), (1, 1)]))
        assert mu.is_subadditive and not mu.is_submodular
        results = integral_properties(mu)
        assert_decision_verifies(mu, results)
        cx = results["subadditivity"]["counterexample"]
        assert cx["lhs"] - cx["rhs"] == pytest.approx(0.06)

    @settings(max_examples=150, deadline=None)
    @given(mu=measures(), seed=st.integers(0, 2**32 - 1))
    def test_decision_is_never_weaker_than_sampled_functions(self, mu, seed):
        results = integral_properties(mu)
        assert_decision_verifies(mu, results)
        decided = {n for n, r in results.items() if not r["passed"]}
        assert sampled_integral_violations(mu, trials=20, seed=seed) <= decided

    def test_zero_scaling(self):
        f = random_step_function(np.random.default_rng(5))
        assert choquet(f.scaled(0.0), sq()) == 0.0

    def test_integral_subadditivity_counterexample_for_convex(self):
        # indicators of [0,.5) and [.5,1): integral of sum exceeds sum of integrals
        mu = sq()
        f = StepFunction.indicator(IntervalSet([(0.0, 0.5)]))
        g = StepFunction.indicator(IntervalSet([(0.5, 1.0)]))
        assert choquet(f + g, mu) > choquet(f, mu) + choquet(g, mu) + 0.4

    def test_comonotone_pairs_have_shared_order(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            f, h = comonotone_pair(rng)
            order = np.argsort(f.values, kind="stable")
            hv = h.values[order]
            fv = f.values[order]
            for i in range(len(fv)):
                for j in range(i + 1, len(fv)):
                    if fv[j] > fv[i]:
                        assert hv[j] >= hv[i]


# -- differential test of the array kernel against the per-cell object path ----


def reference_table(f, mu):
    """Threshold table by the per-cell object path: for g∘λ (the one block
    [0,1) with weight 1) lengths per cell and mu.distortion per distinct
    level, for an additive mu (any other) mu(cell) per cell.  Returns u
    (ascending distinct values) and S with S[k] = mu([f >= u_k]) and
    S[len(u)] = 0."""
    if f.values.size == 0:
        return np.zeros(0), np.zeros(1)
    distorted = on_lebesgue(mu)
    keys = np.array([c.lebesgue if distorted else mu(c) for c in f.cells])
    order = np.argsort(-f.values, kind="stable")
    sv = f.values[order]
    ck = np.cumsum(keys[order])
    ends = np.nonzero(np.diff(sv, append=sv[-1] - 1.0))[0]
    levels = [mu.distortion(x) for x in ck[ends]] if distorted else ck[ends]
    return sv[ends][::-1].copy(), np.append(np.asarray(levels)[::-1], 0.0)


def on_lebesgue(mu):
    """The measure's form, read from its fields: g∘λ, else additive."""
    return mu.blocks == (IntervalSet.full(),) and mu.weights == (1.0,)


def reference_choquet(f, mu):
    if f.is_vector:
        return np.array([reference_choquet(f.component(i), mu) for i in range(f.values.shape[1])])
    u, S = reference_table(f, mu)
    return float(np.sum(np.diff(u, prepend=0.0) * S[:-1]))


def random_distortion(rng):
    kind = int(rng.integers(3))
    scale = float(rng.uniform(0.25, 3.0))
    if kind == 0:
        return Distortion.power(float(rng.uniform(0.3, 3.0)), scale=scale)
    if kind == 1:
        return Distortion.identity(scale=scale)
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, size=2)), [1.0]])
    ys = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 2.0, size=3))])
    return Distortion.piecewise_linear(zip(xs, ys), scale=scale)


def random_blocks(rng, nblocks):
    """A block partition of [0,1) whose blocks are unions of several intervals."""
    npieces = int(rng.integers(nblocks, 3 * nblocks + 1))
    cuts = np.sort(rng.choice(np.arange(1, 1 << 10), size=npieces - 1, replace=False))
    edges = np.concatenate(([0.0], cuts / float(1 << 10), [1.0]))
    owner = rng.permutation(
        np.concatenate([np.arange(nblocks), rng.integers(0, nblocks, npieces - nblocks)])
    )
    return [
        IntervalSet([(edges[i], edges[i + 1]) for i in range(npieces) if owner[i] == b])
        for b in range(nblocks)
    ]


def random_measure(rng):
    if rng.random() < 0.5:
        return FuzzyMeasure.distorted(random_distortion(rng))
    nblocks = int(rng.integers(1, 5))
    weights = rng.uniform(0.0, 2.0, size=nblocks) * (rng.random(nblocks) < 0.8)
    weights[rng.integers(nblocks)] += 0.5
    return FuzzyMeasure.sectioned(random_blocks(rng, nblocks), weights)


def random_function(rng, vector: bool):
    f = random_step_function(rng)
    if vector:
        dims = int(rng.integers(1, 4))
        values = rng.uniform(0.0, 2.0, size=(len(f.cells), dims))
        return StepFunction(f.cells, values, validate=False)
    return f


def close(a, b, tol=1e-12):
    return np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol * np.maximum(1.0, np.abs(b)))


class TestKernelAgainstObjectPath:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), vector=st.booleans(), ties=st.booleans())
    def test_choquet_matches_per_cell_reference(self, seed, vector, ties):
        rng = np.random.default_rng(seed)
        mu = random_measure(rng)
        f = random_function(rng, vector)
        if ties:  # repeated values exercise the runs of equal thresholds
            f = StepFunction(f.cells, np.round(f.values * 2) / 2, validate=False)
        got = choquet(f, mu)
        assert isinstance(got, np.ndarray) == vector
        assert close(got, reference_choquet(f, mu))
        if not vector:
            tnodes = 4000
            ref = riemann_choquet(f, mu, tnodes=tnodes)
            assert abs(got - ref) <= mu.total * max(f.max_value, 1e-9) / tnodes + 1e-12

    def test_blocks_with_gaps_inside_the_cover_tolerance(self):
        # blocks need only cover [0,1) to 1e-12, so cells may start where no block does
        mu = FuzzyMeasure.sectioned(
            [IntervalSet([(1e-13, 0.3), (0.7, 1.0)]), IntervalSet([(0.3 + 1e-13, 0.7)])], [1.0, 2.5]
        )
        for values in ([3.0, 1.0, 2.0, 0.5], [[1.0, 0.0], [2.0, 1.0], [0.5, 3.0], [1.5, 1.5]]):
            f = StepFunction.on_grid(values)
            assert close(choquet(f, mu), reference_choquet(f, mu))

    def test_zero_cells(self):
        for mu in (sq(), FuzzyMeasure.sectioned([IntervalSet([(0.0, 1.0)])], [2.0])):
            assert choquet(StepFunction((), np.zeros(0), validate=False), mu) == 0.0
            vec = choquet(StepFunction((), np.zeros((0, 3)), validate=False), mu)
            assert vec.tolist() == [0.0, 0.0, 0.0]


def stable_block(values, keys, levels):
    """The kernel with a stable argsort on every block: the reference that
    ``_choquet_block`` must equal bit for bit."""
    rows = np.arange(values.shape[0])[:, None]
    order = np.argsort(-values, axis=1, kind="stable")
    v = values[rows, order]
    cum = np.cumsum(keys[order] if keys.ndim == 1 else keys[rows, order], axis=1)
    L = cum if levels is None else levels(cum)
    drops = v.copy()
    drops[:, :-1] -= v[:, 1:]
    return np.sum(drops * L, axis=1), v, L


class TestKernelOrder:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["distinct", "ties", "clipped", "signed zeros"]),
        per_row_keys=st.booleans(),
        levels=st.sampled_from(["additive", "distortion", "per row"]),
    )
    def test_block_equals_the_stable_sort_bit_for_bit(self, seed, shape, per_row_keys, levels):
        rng = np.random.default_rng(seed)
        rows, cells = int(rng.integers(1, 30)), int(rng.integers(1, 80))
        values = rng.uniform(0.0, 2.0, size=(rows, cells))
        if shape == "ties":
            values = np.round(values * 4) / 4
        elif shape == "clipped":
            values = np.minimum(values, rng.uniform(0.1, 2.0, size=(rows, 1)))
        elif shape == "signed zeros":  # 0.0 and -0.0 compare equal but differ in bits
            values[rng.random(values.shape) < 0.4] = 0.0
            values = np.where(values == 0.0, rng.choice([0.0, -0.0], size=values.shape), values)
        keys = rng.uniform(0.0, 1.0, size=(rows, cells) if per_row_keys else cells)
        if levels == "additive":
            level_map = None
        elif levels == "distortion":
            level_map = random_distortion(rng)
        else:
            gs = [random_distortion(rng) for _ in range(rows)]

            def level_map(cum):
                return np.array([g(c) for g, c in zip(gs, cum)])

        got = _choquet_block(values, keys, level_map)
        want = stable_block(values, keys, level_map)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def order_values(rng, shape, rows, width):
    """(rows, width) non-negative values that probe the packed sort keys of
    ``_choquet_block``: its keys replace the low bits of each value by the
    cell index, so the hard rows are those whose values agree in the rest."""
    if shape == "ties":
        return np.round(rng.uniform(0.0, 2.0, size=(rows, width)) * 4) / 4
    if shape == "signed zeros":  # 0.0 and -0.0 compare equal but differ in bits
        values = rng.uniform(0.0, 2.0, size=(rows, width)) * (rng.random((rows, width)) < 0.6)
        return np.where(values == 0.0, rng.choice([0.0, -0.0], size=values.shape), values)
    if shape == "ulp runs":  # base + k spacing(base): apart mostly in the index bits
        base = rng.uniform(0.1, 10.0, size=(rows, 1))
        k = rng.permutation(np.arange(rows * width) % (2 * width)).reshape(rows, width)
        return base + k * np.spacing(base)
    if shape == "subnormals":
        return rng.integers(0, 2**20, size=(rows, width)) * 5e-324
    return rng.uniform(0.0, 2.0, size=(rows, width))


def assert_same_bits(got, want):
    """Integrals, v and L equal in shape, dtype and every bit, sign bits
    included."""
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestPackedSortKeys:
    """``_choquet_block`` sorts packed value-and-index keys and falls back to
    the stable argsort; either way it equals ``stable_block`` bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(["distinct", "ties", "signed zeros", "ulp runs", "subnormals"]),
        width=st.sampled_from([1, 2, 1023, 1024, 1025, 4097]),
        components=st.sampled_from([1, 3]),
        levels=st.sampled_from(["additive", "distortion"]),
    )
    def test_kernel_equals_the_stable_reference(self, seed, shape, width, components, levels):
        rng = np.random.default_rng(seed)
        # the rows of a scalar or 3-component f, as choquet passes them: f.values.T
        values = order_values(rng, shape, components, width).T.copy().T
        keys = rng.uniform(0.0, 1.0, size=width)
        level_map = None if levels == "additive" else random_distortion(rng)
        assert_same_bits(_choquet_block(values, keys, level_map),
                         stable_block(values, keys, level_map))

    def test_a_near_equal_row_without_a_tie_takes_the_stable_fallback(self, monkeypatch):
        # 1.0 has an even bit pattern, so 1 + eps and 1.0 agree in all but
        # the one bit that holds the index of two cells: the packed keys put
        # the larger value last, and the rows are sorted again
        values = np.array([[1.0 + np.spacing(1.0), 1.0], [2.0, 1.0]])
        assert not np.any(values[0, 1:] == values[0, :-1])
        argsort, stable = np.argsort, []

        def spy(a, *args, **kwargs):
            stable.append(kwargs.get("kind"))
            return argsort(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        keys = np.array([0.25, 0.75])
        got = _choquet_block(values, keys, None)
        assert stable == ["stable"]
        assert got[1].tolist() == [[1.0 + np.spacing(1.0), 1.0], [2.0, 1.0]]
        assert_same_bits(got, stable_block(values, keys, None))
        stable.clear()
        # distinct values far apart need no fallback, at any width
        _choquet_block(values[1:], keys, None)
        far = np.random.default_rng(32).permutation(4097)[None, :] + 1.0
        _choquet_block(far, np.ones(4097), None)
        assert stable == []


def whole_block_keys(measures, cells):
    """Keys and level map of a block as one pass over all of its rows takes
    them: lengths and scale * base for g∘λ rows; for additive rows, the
    weights times the block fractions of every cell, added block by block
    over the whole (rows, cells) array."""
    lo, hi = _ends(cells)
    first = measures[0]
    if on_lebesgue(first):
        scales = np.array([[mu.distortion.scale] for mu in measures])
        return _lengths(lo, hi), lambda cum: scales * first.distortion._base(cum)
    parts = _block_lengths(lo, hi, first.blocks)
    W = np.array([mu.weights for mu in measures])
    keys = np.zeros((len(measures), len(cells)))
    for i, blk in enumerate(first.blocks):
        w = W[:, i:i + 1]
        keys = np.where(w > 0, keys + w * parts[:, i] / blk.lebesgue, keys)
    return keys, None


def random_cells(rng, n):
    """A partition of [0,1) into n single-interval cells of random lengths."""
    cuts = np.sort(rng.choice(np.arange(1, 1 << 12), size=n - 1, replace=False)) / 4096.0
    edges = np.concatenate(([0.0], cuts, [1.0]))
    return tuple(IntervalSet.interval(a, b) for a, b in zip(edges, edges[1:]))


def block_measures(rng, kind, rows):
    """One measure per row, all of one shape.  Sectioned rows have three
    blocks striped at 1/1024, so many cells of :func:`random_cells` meet
    two of them and their mass sums two weighted parts."""
    if kind == "sectioned":
        stripes = np.arange(1025) / 1024
        blocks = [IntervalSet(list(zip(stripes[b:-1:3], stripes[b + 1::3]))) for b in range(3)]
        return [FuzzyMeasure.sectioned(blocks, w) for w in rng.uniform(0.1, 2.0, size=(rows, 3))]
    g = random_distortion(rng)
    scales = rng.uniform(0.2, 3.0, size=rows) if kind == "scaled distortions" else np.ones(rows)
    return [FuzzyMeasure.distorted(replace(g, scale=s)) for s in scales]


class TestChunkedBlock:
    """70 rows x 900 cells in chunks of 18 rows, the chunk of the product
    kernel at 900 cells, each chunk with its own keys from the overlaps of
    the block: every row keeps the bits of one whole-block pass."""

    @pytest.mark.parametrize("shape", ["distinct", "tie in one chunk", "signed zero in one chunk"])
    @pytest.mark.parametrize("kind", ["scaled distortions", "unit distortions", "sectioned"])
    def test_chunks_equal_the_whole_block_bit_for_bit(self, kind, shape):
        rng = np.random.default_rng(27)
        cells = random_cells(rng, 900)
        values = rng.uniform(0.0, 2.0, size=(70, 900))
        if shape == "tie in one chunk":  # row 40 lies in the third chunk
            values[40, 100] = values[40, 500]
        elif shape == "signed zero in one chunk":
            values[40, [100, 500]] = [0.0, -0.0]
        measures = block_measures(rng, kind, 70)
        overlaps = _overlaps(measures[0], cells)
        chunks = [_choquet_block(values[start:start + 18], *_keys(measures[start:start + 18],
                                                                  overlaps))
                  for start in range(0, 70, 18)]
        ties = [bool(np.any(v[:, 1:] == v[:, :-1])) for _, v, _ in chunks]
        assert ties == [False, False, shape != "distinct", False]
        want = stable_block(values, *whole_block_keys(measures, cells))
        for got, ref in zip(zip(*chunks), want):
            got = np.concatenate(got)
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_sectioned_keys_are_the_measures_of_the_cells(self):
        # every key is the scalar mu of its cell, whatever the rows beside it
        rng = np.random.default_rng(28)
        cells = random_cells(rng, 900)
        measures = block_measures(rng, "sectioned", 70)
        keys, levels = _keys(measures, _overlaps(measures[0], cells))
        assert keys.shape == (70, 900) and levels(keys).tobytes() == keys.tobytes()
        for r, c in zip(rng.integers(0, 70, 100), rng.integers(0, 900, 100)):
            assert keys[r, c] == measures[r](cells[c])

    def test_sectioned_keys_per_distinct_measure_equal_the_per_row_masses(self):
        # 70 rows of 5 distinct measures, interleaved: one _masses call per
        # distinct weight row, indexed back, equals each row's own masses
        rng = np.random.default_rng(29)
        cells = random_cells(rng, 900)
        distinct = block_measures(rng, "sectioned", 5)
        measures = [distinct[i] for i in rng.integers(0, 5, 70)]
        overlaps = _overlaps(measures[0], cells)
        keys, _ = _keys(measures, overlaps)
        rows = np.array([_masses(overlaps, np.array(mu.weights), mu.blocks) for mu in measures])
        assert keys.tobytes() == rows.tobytes()
        for r, c in zip(rng.integers(0, 70, 100), rng.integers(0, 900, 100)):
            assert keys[r, c] == measures[r](cells[c])


class TestCellEndsCache:
    def test_cached_end_points_equal_those_of_the_cells(self):
        cells = random_cells(np.random.default_rng(30), 50)
        for _ in range(2):  # a miss, then a hit
            lo, hi = _cell_ends(cells)
            want = _ends(cells)
            assert lo.tobytes() == want[0].tobytes() and hi.tobytes() == want[1].tobytes()
            assert not lo.flags.writeable and not hi.flags.writeable
        assert _cell_ends(cells)[0] is _cell_ends(cells)[0]

    def test_partitions_made_and_dropped_in_a_loop(self):
        # equal-length partitions freed one by one may reuse a freed tuple's
        # id; the cache holds its partitions, so an id it keys is never reused
        rng = np.random.default_rng(31)
        mu = FuzzyMeasure.sectioned(random_blocks(rng, 3), [1.0, 0.5, 2.0])
        for _ in range(200):
            cells = random_cells(rng, 7)
            f = StepFunction(cells, rng.uniform(0.0, 2.0, size=7), validate=False)
            assert _overlaps(mu, cells).tobytes() == _block_lengths(*_ends(cells),
                                                                    mu.blocks).tobytes()
            assert close(choquet(f, mu), reference_choquet(f, mu))
            assert len(_ends_cache) <= _ENDS_CACHED
            del cells, f
        assert all(id(entry[0]) == key for key, entry in _ends_cache.items())


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_step_values_rejected(self, bad):
        with pytest.raises(StructuralError):
            StepFunction.on_grid([1.0, bad])
        with pytest.raises(StructuralError):
            StepFunction.on_grid(np.array([[1.0, 0.5], [bad, 0.0]]))
