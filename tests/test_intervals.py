import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_lab.errors import StructuralError
from choquet_lab.intervals import IntervalSet, random_interval_set, uniform_partition


def test_basic_construction_and_measure():
    s = IntervalSet([(0.0, 0.25), (0.5, 1.0)])
    assert s.lebesgue == pytest.approx(0.75)
    assert s.contains_point(0.1)
    assert not s.contains_point(0.3)


def test_touching_intervals_merge():
    s = IntervalSet([(0.0, 0.5), (0.5, 1.0)])
    assert s == IntervalSet.full()


def test_overlap_rejected():
    with pytest.raises(StructuralError):
        IntervalSet([(0.0, 0.6), (0.5, 1.0)])


def test_bad_bounds_rejected():
    with pytest.raises(StructuralError):
        IntervalSet([(0.5, 0.5)])
    with pytest.raises(StructuralError):
        IntervalSet([(-0.1, 0.5)])
    with pytest.raises(StructuralError):
        IntervalSet([(0.5, 1.2)])


def test_complement_and_difference():
    s = IntervalSet([(0.25, 0.5)])
    c = s.complement()
    assert c == IntervalSet([(0.0, 0.25), (0.5, 1.0)])
    assert s.union(c) == IntervalSet.full()
    assert s.intersection(c).is_empty
    assert IntervalSet.full().difference(s) == c


def test_prefix():
    s = IntervalSet([(0.0, 0.25), (0.5, 1.0)])
    assert s.prefix(0.25) == IntervalSet([(0.0, 0.25)])
    assert s.prefix(0.5) == IntervalSet([(0.0, 0.25), (0.5, 0.75)])
    assert s.prefix(0.0).is_empty
    assert s.prefix(0.75) == s
    assert s.prefix(0.1) == IntervalSet([(0.0, 0.1)])


def test_uniform_partition_covers():
    cells = uniform_partition(7)
    u = IntervalSet.empty()
    for c in cells:
        u = u.union(c)
    assert u == IntervalSet.full()


def _rand_pair(seed):
    rng = np.random.default_rng(seed)
    return random_interval_set(rng, allow_empty=True), random_interval_set(rng, allow_empty=True)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=300, deadline=None)
def test_inclusion_exclusion(seed):
    A, B = _rand_pair(seed)
    lhs = A.union(B).lebesgue + A.intersection(B).lebesgue
    assert lhs == pytest.approx(A.lebesgue + B.lebesgue, abs=1e-12)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=300, deadline=None)
def test_difference_partition(seed):
    A, B = _rand_pair(seed)
    assert A.difference(B).lebesgue + A.intersection(B).lebesgue == pytest.approx(
        A.lebesgue, abs=1e-12
    )


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=200, deadline=None)
def test_de_morgan(seed):
    A, B = _rand_pair(seed)
    assert A.union(B).complement() == A.complement().intersection(B.complement())


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_prefix_measure_and_nesting(seed, frac):
    A, _ = _rand_pair(seed)
    target = frac * A.lebesgue
    P = A.prefix(target)
    assert P.is_subset_of(A)
    assert P.lebesgue == pytest.approx(target, abs=1e-12)
    # prefixes are nested
    Q = A.prefix(0.5 * target)
    assert Q.is_subset_of(P)


def reference_set(pairs):
    """The set the constructor must build, checked and merged in the order
    the error messages promise: every pair's bounds first, then overlaps."""
    pairs = [(float(a), float(b)) for a, b in pairs]
    for a, b in pairs:
        if not (0.0 <= a < b <= 1.0):
            raise StructuralError(f"bad interval [{a}, {b}): need 0 <= a < b <= 1")
    merged: list[list[float]] = []
    for a, b in sorted(pairs):
        if merged and a < merged[-1][1]:
            raise StructuralError(f"overlapping intervals at [{a}, {b})")
        if merged and a == merged[-1][1]:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return tuple((a, b) for a, b in merged)


GRID_POINTS = st.sampled_from([-0.25, 0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 1.0, 1.5, float("nan")])


@given(st.lists(st.tuples(GRID_POINTS | st.floats(0.0, 1.0), GRID_POINTS | st.floats(0.0, 1.0)),
                max_size=6))
@settings(max_examples=400, deadline=None)
def test_constructor_matches_the_reference(pairs):
    try:
        expected = reference_set(pairs)
    except StructuralError as exc:
        with pytest.raises(StructuralError) as raised:
            IntervalSet(pairs)
        assert str(raised.value) == str(exc)
        return
    s = IntervalSet(pairs)
    assert s.intervals == expected
    # stored at construction, summed as a left-to-right sum over the merged set
    assert s.lebesgue == float(sum(b - a for a, b in expected))


@given(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=24, unique=True))
@settings(max_examples=200, deadline=None)
def test_stored_length_is_the_left_to_right_sum(points):
    ends = sorted(points)
    pairs = list(zip(ends[::2], ends[1::2]))
    s = IntervalSet(pairs[::-1])
    assert s.intervals == tuple(pairs)
    assert s.lebesgue == float(sum(b - a for a, b in pairs))


def test_empty_and_full_are_shared():
    assert IntervalSet.empty() is IntervalSet.empty() and IntervalSet.empty().lebesgue == 0.0
    assert IntervalSet.full() is IntervalSet.full() and IntervalSet.full().lebesgue == 1.0
    assert IntervalSet.full().prefix(0.0) is IntervalSet.empty()
    assert IntervalSet(()) == IntervalSet.empty() and IntervalSet([(0, 1)]) == IntervalSet.full()


@pytest.mark.parametrize("seed", [0, 1, 42])
def test_random_sets_keep_their_draws(seed):
    # The dyadic cuts, scaled one by one as numpy scalars, and the generator
    # state after every draw.
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    grid = 1 << 20
    for _ in range(300):
        s = random_interval_set(ours, allow_empty=True)
        npieces = int(ref.integers(0, 5))
        if npieces:
            cuts = np.sort(ref.choice(grid + 1, size=2 * npieces, replace=False))
            expected = tuple((cuts[2 * i] / float(grid), cuts[2 * i + 1] / float(grid))
                             for i in range(npieces))
        else:
            expected = ()
        assert s.intervals == expected
        assert ours.bit_generator.state == ref.bit_generator.state
