"""Metamorphic relations: a transformed input whose output is known from the
output of the original, without an oracle for either.  Each relation states
how exact it is.

* A scaled Lebesgue measure has two spellings, the one block [0,1) with
  weight c under the unit identity, ``sectioned([X], [c])``, and g∘λ with
  g = identity at scale c.  Their scalar and node measures are one float,
  fl(c |A|), so they agree bit for bit.  Their Choquet integrals on n cells
  with M = max f differ by at most 4 (n + 1) u c M, u = 2**-53: the one
  adds the keys fl(c l_i), the other multiplies the cumulative lengths by
  c, each level L_j within 2 gamma_n c of its exact value and the final
  sum within gamma_n c M of its own (Higham 2002, ch. 3).  Measured worst
  case: 0.70 c n u M over 3,000 random functions.
* ``range_realize`` under (phi, target) -> (c phi, c target): the reachable
  set scales by c, so the verdict is kept; the levels and deviations may
  round differently.
* ``check_walras`` under p -> c p: the budget sets are unchanged, so the
  verdict is kept; the normalized price may round differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_lab.choquet import StepFunction, choquet, random_step_function
from choquet_lab.economy import check_walras
from choquet_lab.fixtures import (
    cobb_douglas_economy,
    full_dominance_economy,
    intro_sectioned_family,
    split_dominance_economy,
)
from choquet_lab.intervals import IntervalSet, random_interval_set
from choquet_lab.measures import Distortion, FuzzyMeasure
from choquet_lab.product import (
    ProductSet,
    ProductStepFunction,
    SectionFamily,
    integrate_product,
    range_realize,
    section_measures,
)

U = 2.0**-53
SCALES = st.floats(1e-3, 1e3)


def two_spellings(c):
    """c λ as an additive one-block measure and as a scaled identity g∘λ."""
    return (FuzzyMeasure.sectioned([IntervalSet.full()], [c]),
            FuzzyMeasure.distorted(Distortion.identity(c)))


class TestScaledLebesgueSpellings:
    @settings(max_examples=100, deadline=None)
    @given(c=SCALES, seed=st.integers(0, 2**32 - 1), grid=st.booleans())
    def test_choquet_within_the_derived_bound_and_mu_bit_for_bit(self, c, seed, grid):
        rng = np.random.default_rng(seed)
        f = (StepFunction.on_grid(rng.uniform(0.0, 2.0, int(rng.integers(1, 1000)))) if grid
             else random_step_function(rng, max_cells=12))
        additive, distorted = two_spellings(c)
        n = len(f.cells)
        gap = abs(choquet(f, additive) - choquet(f, distorted))
        assert gap <= 4 * (n + 1) * U * c * f.max_value
        for _ in range(5):
            A = random_interval_set(rng, allow_empty=True)
            assert additive(A) == distorted(A)
        assert additive.total == distorted.total

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_node_measures_bit_for_bit_and_product_integrals_within_the_bound(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 12))
        scales = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), K))
        additive = SectionFamily.heterogeneous(two_spellings(c)[0] for c in scales)
        distorted = SectionFamily.homothetic(Distortion.identity(), K, scales=scales,
                                             normalized=False)
        H = ProductSet(tuple(random_interval_set(rng, allow_empty=True) for _ in range(K)))
        assert section_measures(additive, H).tobytes() == section_measures(distorted, H).tobytes()
        gx = StepFunction.on_grid(rng.uniform(0.0, 2.0, 50))
        f = ProductStepFunction.uniform(gx, K)
        # the two node means add at most 2 K u of their size to the nodes' gaps
        bound = (4 * 51 + 2 * K) * U * scales.max() * gx.max_value
        assert abs(integrate_product(additive, f) - integrate_product(distorted, f)) <= bound


FAMILIES = {
    "sqrt homothetic": lambda K: SectionFamily.homothetic(Distortion.power(0.5), K=K),
    "intro sectioned": intro_sectioned_family,
}


class TestRangeRealizeScaling:
    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(sorted(FAMILIES)), n=st.integers(1, 3), c=st.floats(1 / 16, 16),
           inside=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_verdict_is_kept(self, family, n, c, inside, seed):
        rng = np.random.default_rng(seed)
        fam = FAMILIES[family](8)
        phi = rng.uniform(0.1, 2.0, (fam.K, n))
        reach = phi * fam.totals[:, None]
        if inside:  # an integral over levels tau in [0.1, 0.9]
            target = np.mean(reach * rng.uniform(0.1, 0.9, (fam.K, 1)), axis=0)
        else:  # beyond the integral over the whole space, or negative
            target = np.mean(reach, axis=0) * (1.5 if rng.random() < 0.5 else -0.5)
        if n == 1:  # a scalar phi: the closed form, no LP
            phi = phi[:, 0]
        verdict = range_realize(fam, phi, target).feasible
        assert verdict == inside
        assert range_realize(fam, c * phi, c * target).feasible == verdict


class TestWalrasPriceScaling:
    @pytest.mark.parametrize("c", [1e-3, 0.1, 0.7, 1.0, 3.0, 2.0**20, 1e3])
    def test_verdict_is_kept(self, c):
        eco, alloc, p = cobb_douglas_economy(K=20)
        cases = [
            (eco, alloc, p, True),
            (eco, alloc, np.array([0.3, 0.7]), False),
            (split_dominance_economy(K=20), None, np.array([0.5, 0.5]), False),
            (full_dominance_economy(K=20), None, np.array([0.5, 0.5]), True),
        ]
        for economy, f, price, verdict in cases:
            f = economy.endowment if f is None else f
            assert check_walras(economy, f, price).verdict == verdict
            assert check_walras(economy, f, c * price).verdict == verdict
