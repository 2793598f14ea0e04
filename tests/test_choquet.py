import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_lab.choquet import (
    INTEGRAL_PROPERTIES,
    StepFunction,
    _choquet_block,
    choquet,
    choquet_restricted,
    comonotone_pair,
    integral_properties,
    random_step_function,
    riemann_choquet,
    superlevel_set,
)
from choquet_lab.errors import StructuralError
from choquet_lab.intervals import IntervalSet
from choquet_lab.measures import Distortion, FuzzyMeasure

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

    def test_constant(self):
        for mu in (sq(), FuzzyMeasure.lebesgue()):
            assert choquet(StepFunction.constant(3.5), mu) == pytest.approx(3.5 * mu.total)

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
    """Threshold table by the per-cell object path: mu(cell) per cell and
    mu.distortion per distinct level.  Returns u (ascending distinct values)
    and S with S[k] = mu([f >= u_k]) and S[len(u)] = 0."""
    if f.values.size == 0:
        return np.zeros(0), np.zeros(1)
    distorted = mu.mode == "distorted"
    keys = np.array([c.lebesgue if distorted else mu(c) for c in f.cells])
    order = np.argsort(-f.values, kind="stable")
    sv = f.values[order]
    ck = np.cumsum(keys[order])
    ends = np.nonzero(np.diff(sv, append=sv[-1] - 1.0))[0]
    levels = [mu.distortion(x) for x in ck[ends]] if distorted else ck[ends]
    return sv[ends][::-1].copy(), np.append(np.asarray(levels)[::-1], 0.0)


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


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_step_values_rejected(self, bad):
        with pytest.raises(StructuralError):
            StepFunction.on_grid([1.0, bad])
        with pytest.raises(StructuralError):
            StepFunction.on_grid(np.array([[1.0, 0.5], [bad, 0.0]]))
