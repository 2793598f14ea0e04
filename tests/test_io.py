import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choquet_lab import io
from choquet_lab.choquet import StepFunction
from choquet_lab.errors import ConfigError, StructuralError
from choquet_lab.fixtures import cobb_douglas_economy, intro_sectioned_family
from choquet_lab.intervals import IntervalSet
from choquet_lab.measures import Distortion, FuzzyMeasure
from choquet_lab.product import SectionFamily
from test_choquet import random_distortion
from test_economy import random_economy


class TestMeasureRoundTrip:
    def test_distorted(self):
        mu = FuzzyMeasure.distorted(Distortion.power(2.0))
        data = io.measure_to_json(mu)
        assert data == {"mode": "distorted", "distortion": {"kind": "power", "alpha": 2.0}}
        again = io.measure_from_json(data)
        assert again(IntervalSet([(0.0, 0.5)])) == pytest.approx(0.25)

    def test_sectioned(self):
        data = {"mode": "sectioned", "blocks": [[0, 0.5], [0.5, 1]], "weights": [1, 1]}
        mu = io.measure_from_json(data)
        assert mu(IntervalSet([(0.25, 0.75)])) == pytest.approx(1.0)
        assert io.measure_from_json(io.measure_to_json(mu)).total == pytest.approx(2.0)

    def test_pwl_distortion(self):
        data = {
            "mode": "distorted",
            "distortion": {"kind": "pwl", "knots": [[0, 0], [0.5, 0.8], [1, 1]]},
        }
        mu = io.measure_from_json(data)
        assert mu(IntervalSet([(0.0, 0.5)])) == pytest.approx(0.8)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            io.measure_from_json({"mode": "distorted", "distortion": {"kind": "identity"}, "x": 1})
        with pytest.raises(ConfigError):
            io.distortion_from_json({"kind": "power", "alpha": 2.0, "beta": 3.0})

    def test_bad_values_are_config_errors(self):
        with pytest.raises(ConfigError):
            io.measure_from_json({"mode": "distorted", "distortion": {"kind": "power", "alpha": -1}})
        with pytest.raises(ConfigError):
            io.measure_from_json({"mode": "sectioned", "blocks": [[0, 0.4]], "weights": [1]})


class TestStepFunction:
    def test_round_trip(self):
        data = {"cells": [[0, 0.25], [0.25, 1.0]], "values": [2.0, 1.0]}
        f = io.step_function_from_json(data)
        assert io.step_function_to_json(f) == data

    def test_vector_values(self):
        data = {"cells": [[0, 0.5], [0.5, 1.0]], "values": [[1.0, 2.0], [0.0, 1.0]]}
        f = io.step_function_from_json(data)
        assert f.is_vector

    def test_bad_partition_rejected(self):
        with pytest.raises(ConfigError):
            io.step_function_from_json({"cells": [[0, 0.5]], "values": [1.0]})


class TestFamily:
    def test_homothetic_round_trip(self):
        data = {"K": 10, "mode": "homothetic", "distortion": {"kind": "power", "alpha": 2.0},
                "normalized": True}
        fam = io.family_from_json(data)
        assert fam.K == 10 and fam.normalized
        assert io.family_from_json(io.family_to_json(fam)).K == 10

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 5))
    def test_normalized_homothetic_round_trip_keeps_every_bit(self, seed, K):
        # normalizing an already normalized distortion must not move its scale
        fam = SectionFamily.homothetic(random_distortion(np.random.default_rng(seed)), K=K)
        data = io.family_to_json(fam)
        again = io.family_from_json(json.loads(io.dump_json(data, None)))
        assert again == fam
        assert io.family_to_json(again) == data

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), K=st.integers(1, 5), nblocks=st.integers(1, 4))
    def test_normalized_sectioned_round_trip_keeps_every_bit(self, seed, K, nblocks):
        # the stored rows are normalized already: loading them must not divide again
        rng = np.random.default_rng(seed)
        cuts = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 1024), nblocks - 1,
                                                         replace=False)) / 1024, [1.0]])
        blocks = [IntervalSet([(a, b)]) for a, b in zip(cuts[:-1], cuts[1:])]
        fam = SectionFamily.sectioned(blocks, rng.uniform(0.01, 2.0, size=(K, nblocks)))
        data = io.family_to_json(fam)
        again = io.family_from_json(json.loads(io.dump_json(data, None)))
        assert [mu.weights for mu in again.measures] == [mu.weights for mu in fam.measures]
        assert io.family_to_json(again) == data

    def test_sectioned_with_y_intervals(self):
        data = {
            "K": 8,
            "mode": "sectioned",
            "blocks": [[0, 0.5], [0.5, 1]],
            "yintervals": [[0, 0.5], [0.5, 1]],
        }
        fam = io.family_from_json(data)
        assert fam.mode == "sectioned"
        assert fam.measures[0](IntervalSet([(0.5, 1.0)])) == 0.0
        round_tripped = io.family_from_json(io.family_to_json(fam))
        assert round_tripped.measures[0].weights == fam.measures[0].weights

    def test_heterogeneous(self):
        data = {
            "mode": "heterogeneous",
            "K": 2,
            "measures": [
                {"mode": "distorted", "distortion": {"kind": "identity"}},
                {"mode": "distorted", "distortion": {"kind": "power", "alpha": 0.5}},
            ],
        }
        fam = io.family_from_json(data)
        assert not fam.convex_type

    @pytest.mark.parametrize("data", [
        {"K": 100, "mode": "sectioned", "blocks": [[0, 0.5], [0.5, 1]],
         "weights": [[1, 2], [2, 1]]},
        {"K": 5, "mode": "heterogeneous", "measures": [{"mode": "distorted",
                                                        "distortion": {"kind": "identity"}}]},
    ])
    def test_a_given_K_must_agree_with_the_data(self, data):
        with pytest.raises(ConfigError, match=f"K is {data['K']} but"):
            io.family_from_json(data)
        K = len(data.get("weights", data.get("measures")))
        assert io.family_from_json({**data, "K": K}).K == K
        assert io.family_from_json({k: v for k, v in data.items() if k != "K"}).K == K

    @pytest.mark.parametrize("data, message", [
        ({"K": 2, "mode": "homothetic", "distortion": {"kind": "identity"}, "measures": 3,
          "weights": [[5, 1]]}, "homothetic mode takes no measures, weights"),
        ({"K": 2, "mode": "sectioned", "blocks": [[0, 0.5], [0.5, 1]],
          "yintervals": [[0, 0.5], [0.5, 1]], "weights": [[5, 1], [1, 5]]},
         "sectioned mode takes one of yintervals, weights"),
        ({"mode": "heterogeneous", "normalized": True, "measures": [
            {"mode": "distorted", "distortion": {"kind": "identity", "scale": 2.0}}]},
         "heterogeneous mode takes no normalized"),
    ])
    def test_keys_of_another_mode_are_rejected(self, data, message):
        # each of these loaded before, the extra keys unread
        with pytest.raises(ConfigError, match=message):
            io.family_from_json(data)

    @pytest.mark.parametrize("fam", [
        SectionFamily.homothetic(Distortion.power(2.0), K=3),
        # one scale for every node is in the distortion, so it round trips
        SectionFamily.homothetic(Distortion.identity(scale=2.0), K=3, normalized=False),
        SectionFamily.sectioned([IntervalSet([(0, 0.5)]), IntervalSet([(0.5, 1)])],
                                [[5, 1], [1, 5]], normalized=False),
        intro_sectioned_family(4),
        SectionFamily.heterogeneous([FuzzyMeasure.lebesgue(), FuzzyMeasure.distorted(
            Distortion.power(0.5, scale=2.0))]),
    ])
    def test_every_mode_round_trips_through_its_own_keys(self, fam):
        data = io.family_to_json(fam)
        again = io.family_from_json(json.loads(io.dump_json(data, None)))
        assert io.family_to_json(again) == data
        assert again.mode == fam.mode
        assert np.array_equal(again.totals, fam.totals)

    def test_per_node_scales_are_refused(self):
        # the JSON form has one distortion for every node, so the scales have no place
        fam = SectionFamily.homothetic(Distortion.identity(), K=3, scales=[1, 2, 3],
                                       normalized=False)
        with pytest.raises(ConfigError, match="per-node scales"):
            io.family_to_json(fam)


    def test_union_blocks_and_cells_do_not_serialize(self):
        union = [IntervalSet([(0.0, 0.25), (0.5, 0.75)]), IntervalSet([(0.25, 0.5), (0.75, 1.0)])]
        with pytest.raises(ConfigError, match="single-interval blocks"):
            io.family_to_json(SectionFamily.sectioned(union, [[1.0, 1.0]]))
        with pytest.raises(ConfigError, match="single-interval cells"):
            io.step_function_to_json(StepFunction(tuple(union), [1.0, 2.0]))


class TestEconomy:
    @pytest.mark.parametrize("preferences, message", [
        ({"kind": "cobb_douglas", "exponents": [[0.5, 0.5]] * 2},
         r"exponents: need 4 rows \(or a single broadcast row\)"),
        ({"kind": "coordinate_dominance", "coords": [[1], [2]]}, "need 4 coordinate sets"),
    ], ids=["exponent rows", "coordinate sets"])
    def test_preference_rows_are_one_or_K(self, preferences, message):
        data = {"family": {"mode": "homothetic", "K": 4, "distortion": {"kind": "identity"}},
                "n": 2, "endowment": [[1.0, 1.0]], "preferences": preferences}
        with pytest.raises(ConfigError, match=message):
            io.economy_from_json(data)

    def test_round_trip(self):
        eco, _, _ = cobb_douglas_economy(K=10)
        again = io.economy_from_json(io.economy_to_json(eco))
        assert again.K == 10
        assert np.allclose(again.prefs.exponents, eco.prefs.exponents)

    def test_broadcast_rows(self):
        data = {
            "family": {"mode": "homothetic", "K": 6, "distortion": {"kind": "identity"}},
            "n": 2,
            "endowment": [[1.0, 1.0]],
            "preferences": {"kind": "coordinate_dominance", "coords": [[1, 2]]},
        }
        eco = io.economy_from_json(data)
        assert eco.endowment.shape == (6, 2)
        assert eco.prefs.jsets == ((0, 1),) * 6

    def test_one_based_coords(self):
        data = {
            "family": {"mode": "homothetic", "K": 4, "distortion": {"kind": "identity"}},
            "n": 2,
            "endowment": [[1.0, 2.0]],
            "preferences": {"kind": "coordinate_dominance", "coords": [[1], [1], [2], [2]]},
        }
        eco = io.economy_from_json(data)
        assert eco.prefs.jsets == ((0,), (0,), (1,), (1,))

    def test_unknown_keys(self):
        eco, _, _ = cobb_douglas_economy(K=4)
        data = io.economy_to_json(eco)
        data["extra"] = 1
        with pytest.raises(ConfigError):
            io.economy_from_json(data)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        fam_kind=st.sampled_from(["identity", "power", "pwl"]),  # blocks of one interval only
        K=st.integers(1, 8),
        n=st.integers(1, 4),
    )
    def test_dominance_round_trip(self, seed, fam_kind, K, n):
        # random_economy draws its index sets with np.flatnonzero (numpy ints)
        eco = random_economy(np.random.default_rng(seed), "coordinate_dominance", fam_kind, K, n)
        data = io.economy_to_json(eco)
        again = io.economy_from_json(json.loads(io.dump_json(data, None)))
        assert again.prefs.jsets == eco.prefs.jsets
        np.testing.assert_array_equal(again.endowment, eco.endowment)
        assert again.fam == eco.fam
        assert io.economy_to_json(again) == data

    def test_allocation_and_price(self):
        f = io.allocation_from_json({"values": [[1.0, 2.0]]}, 5, 2)
        assert f.shape == (5, 2)
        with pytest.raises(ConfigError):
            io.allocation_from_json({"values": [[1.0, -2.0]]}, 5, 2)
        p = io.price_from_json({"price": [0.25, 0.75]}, 2)
        assert p == pytest.approx([0.25, 0.75])
        with pytest.raises(ConfigError):
            io.price_from_json({"price": [1.0]}, 2)


class TestFiles:
    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            io.load_json("/nonexistent/path.json")

    def test_load_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            io.load_json(str(bad))

    @pytest.mark.parametrize("text", [b'{"price": [\xff]}', b"[" * 100_000 + b"]" * 100_000])
    def test_load_undecodable_or_too_deep(self, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        with pytest.raises(ConfigError):
            io.load_json(str(bad))

    def test_dump_round_trip(self, tmp_path):
        out = tmp_path / "x.json"
        text = io.dump_json({"b": 1, "a": [2.5]}, str(out))
        assert out.read_text() == text
        assert text.index('"a"') < text.index('"b"')  # sorted keys


# One document per tagged loader that lacks a key its tag needs, and that key.
TAGGED = {
    "distortion": (io.distortion_from_json, {"kind": "power"}, "alpha"),
    "measure": (io.measure_from_json, {"mode": "sectioned", "blocks": [[0, 1]]}, "weights"),
    "product function": (lambda d: io.product_function_from_json(d, 2), {"kind": "uniform"},
                         "function"),
    "family": (io.family_from_json, {"mode": "sectioned", "blocks": [[0, 1]]},
               "yintervals or weights"),
    "preferences": (lambda d: io.preferences_from_json(d, 2, 2), {"kind": "linear"}, "weights"),
}


@pytest.mark.parametrize("loader", sorted(TAGGED))
def test_a_missing_needed_key_is_named(loader):
    load, data, key = TAGGED[loader]
    with pytest.raises(ConfigError, match=f"needs {key}$"):
        load(data)


@pytest.mark.parametrize("loader", sorted(TAGGED))
@pytest.mark.parametrize("tag", [[1], {}])
def test_an_unhashable_tag_is_a_config_error(loader, tag):
    load, data, _ = TAGGED[loader]
    (name,) = {"kind", "mode"} & set(data)
    with pytest.raises(ConfigError, match="unknown"):
        load({name: tag})


def test_intro_family_fixture_serializes():
    fam = intro_sectioned_family(K=6)
    data = io.family_to_json(fam)
    assert data["mode"] == "sectioned"
    assert io.family_from_json(data).K == 6


# -- schema fuzz ----------------------------------------------------------------------

# A valid document per loader; the fuzz replaces one node of it (or the whole
# document) by an arbitrary JSON value.
DISTORTION = {"kind": "pwl", "knots": [[0, 0], [0.5, 0.8], [1, 1]], "scale": 2.0}
FAMILY = {"K": 2, "mode": "sectioned", "blocks": [[0, 0.5], [0.5, 1]],
          "weights": [[1, 2], [2, 1]], "normalized": True}
ECONOMY = {
    "family": {"K": 2, "mode": "homothetic", "distortion": {"kind": "power", "alpha": 0.5}},
    "n": 2,
    "endowment": [[1.0, 2.0], [2.0, 1.0]],
    "preferences": {"kind": "linear", "weights": [[1.0, 2.0]]},
}
SCHEMAS = {
    "distortion": (DISTORTION, io.distortion_from_json),
    "measure": ({"mode": "sectioned", "blocks": [[0, 0.5], [0.5, 1]], "weights": [1, 2]},
                io.measure_from_json),
    "distorted measure": ({"mode": "distorted", "distortion": DISTORTION}, io.measure_from_json),
    "step function": ({"cells": [[0, 0.5], [0.5, 1]], "values": [[1.0, 2.0], [0.5, 0.0]]},
                      io.step_function_from_json),
    "product function": (
        {"kind": "sections", "sections": [{"cells": [[0, 1]], "values": [1.0]}] * 2},
        lambda d: io.product_function_from_json(d, 2)),
    "sectional product function": ({"kind": "sectional", "values": [[1.0], [2.0]]},
                                   lambda d: io.product_function_from_json(d, 2)),
    "family": (FAMILY, io.family_from_json),
    "heterogeneous family": (
        {"mode": "heterogeneous", "measures": [{"mode": "distorted", "distortion": DISTORTION}]},
        io.family_from_json),
    "economy": (ECONOMY, io.economy_from_json),
    "cobb-douglas preferences": ({"kind": "cobb_douglas", "exponents": [[0.5, 0.5], [0.2, 0.8]]},
                                 lambda d: io.preferences_from_json(d, 2, 2)),
    "dominance preferences": ({"kind": "coordinate_dominance", "coords": [[1], [1, 2]]},
                              lambda d: io.preferences_from_json(d, 2, 2)),
    "allocation": ({"values": [[1.0, 2.0]]}, lambda d: io.allocation_from_json(d, 2, 2)),
    "price": ({"price": [0.25, 0.75]}, lambda d: io.price_from_json(d, 2)),
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    ),
    max_leaves=10,
)


def node_paths(doc, path=()):
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    else:
        items = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from node_paths(child, path + (key,))


def replaced(doc, path, value):
    if not path:
        return value
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_templates_load(schema):
    template, load = SCHEMAS[schema]
    load(copy.deepcopy(template))


DEEP = [1]
for _ in range(99):
    DEEP = [DEEP]
ODD_VALUES = [None, True, "x", "1", {}, [], [[1]], [[[1]]], DEEP, -1, 0, 2.5, 1e300, float("nan"),
              10**400]


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_loaders_reject_odd_values_at_every_node(schema):
    template, load = SCHEMAS[schema]
    for path in node_paths(template):
        for value in ODD_VALUES:
            try:
                load(replaced(template, path, value))
            except (ConfigError, StructuralError):
                pass


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loaders_raise_only_config_or_structural_errors(schema, data):
    template, load = SCHEMAS[schema]
    path = data.draw(st.sampled_from(list(node_paths(template))), label="path")
    doc = replaced(template, path, data.draw(JSON_VALUES, label="value"))
    try:
        load(doc)
    except (ConfigError, StructuralError):
        pass
