import json

import numpy as np
import pytest

from choquet_lab import io
from choquet_lab.cli import main
from choquet_lab.fixtures import cobb_douglas_economy, split_dominance_economy


@pytest.fixture()
def square_measure_file(tmp_path):
    path = tmp_path / "sq.json"
    io.dump_json({"mode": "distorted", "distortion": {"kind": "power", "alpha": 2.0}}, str(path))
    return str(path)


@pytest.fixture()
def linear_function_file(tmp_path):
    edges = np.linspace(0.0, 1.0, 1001)
    cells = [[float(a), float(b)] for a, b in zip(edges, edges[1:])]
    values = [float((a + b) / 2) for a, b in zip(edges, edges[1:])]
    path = tmp_path / "linear.json"
    io.dump_json({"cells": cells, "values": values}, str(path))
    return str(path)


class TestIntegrate:
    def test_analytic_third(self, capsys, square_measure_file, linear_function_file):
        code = main(["integrate", "--measure", square_measure_file,
                     "--function", linear_function_file])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert abs(float(out) - 1.0 / 3.0) <= 2e-3
        assert out.startswith("0.333")

    def test_missing_file_is_exit_1(self, capsys, square_measure_file):
        code = main(["integrate", "--measure", square_measure_file,
                     "--function", "/nope.json"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_is_exit_1(self, tmp_path, capsys, square_measure_file):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert main(["integrate", "--measure", square_measure_file,
                     "--function", str(bad)]) == 1

    def test_schema_violation_is_exit_1(self, tmp_path, capsys, square_measure_file):
        bad = tmp_path / "fn.json"
        io.dump_json({"cells": [[0, 0.5]], "values": [1.0]}, str(bad))
        assert main(["integrate", "--measure", square_measure_file,
                     "--function", str(bad)]) == 1


GOOD_MEASURE = '{"mode": "distorted", "distortion": {"kind": "power", "alpha": 2.0}}'
GOOD_FUNCTION = '{"cells": [[0, 0.5], [0.5, 1]], "values": [1.0, 2.0]}'
BLOCKS = '"blocks": [[0, 0.5], [0.5, 1]]'
INTEGRATE = ["integrate", "--measure", "measure.json", "--function", "function.json"]
WALRAS = ["economy-check", "--config", "economy.json", "--mode", "walras"]
GOOD_PRICE = '{"price": [0.5, 0.5]}'


def economy_text(endowment="[[1.0, 1.0]]", preferences='"kind": "cobb_douglas", "exponents": [[0.5, 0.5]]'):
    return ('{"family": {"K": 4, "mode": "homothetic", "distortion": {"kind": "identity"}}, '
            '"n": 2, "endowment": ' + endowment + ', "preferences": {' + preferences + '}}')


def walras(economy=None, price=GOOD_PRICE, allocation=None):
    files = {"economy.json": economy or economy_text(), "price.json": price}
    args = WALRAS + ["--price", "price.json"]
    if allocation is not None:
        files["allocation.json"] = allocation
        args += ["--allocation", "allocation.json"]
    return files, args


# Non-finite numbers in input files: every one is a configuration error.
# A case is (measure text, function text) for ``integrate``, or
# (files by name, arguments naming them).
NON_FINITE = {
    "power alpha NaN": ('{"mode": "distorted", "distortion": {"kind": "power", "alpha": NaN}}',
                        GOOD_FUNCTION),
    "power alpha Infinity": (
        '{"mode": "distorted", "distortion": {"kind": "power", "alpha": Infinity}}', GOOD_FUNCTION),
    "scale NaN": ('{"mode": "distorted", "distortion": {"kind": "identity", "scale": NaN}}',
                  GOOD_FUNCTION),
    "scale Infinity": (
        '{"mode": "distorted", "distortion": {"kind": "identity", "scale": Infinity}}',
        GOOD_FUNCTION),
    "pwl knot NaN": (
        '{"mode": "distorted", "distortion": {"kind": "pwl", '
        '"knots": [[0, 0], [0.5, NaN], [1, 1]]}}', GOOD_FUNCTION),
    "pwl knot Infinity": (
        '{"mode": "distorted", "distortion": {"kind": "pwl", '
        '"knots": [[0, 0], [0.5, 1], [1, Infinity]]}}', GOOD_FUNCTION),
    "sectioned weight NaN": ('{"mode": "sectioned", ' + BLOCKS + ', "weights": [1.0, NaN]}',
                             GOOD_FUNCTION),
    "sectioned weight Infinity": (
        '{"mode": "sectioned", ' + BLOCKS + ', "weights": [Infinity, 1.0]}', GOOD_FUNCTION),
    "step value NaN": (GOOD_MEASURE, '{"cells": [[0, 0.5], [0.5, 1]], "values": [NaN, 2.0]}'),
    "step value Infinity": (
        GOOD_MEASURE, '{"cells": [[0, 0.5], [0.5, 1]], "values": [1.0, Infinity]}'),
    "step value -Infinity": (
        GOOD_MEASURE, '{"cells": [[0, 0.5], [0.5, 1]], "values": [-Infinity, 1.0]}'),
    "price NaN": walras(price='{"price": [NaN, 0.5]}'),
    "price Infinity": walras(price='{"price": [0.5, Infinity]}'),
    "endowment NaN": walras(economy_text(endowment="[[NaN, 1.0]]")),
    "endowment Infinity": walras(economy_text(endowment="[[1.0, Infinity]]")),
    "exponent NaN": walras(economy_text(
        preferences='"kind": "cobb_douglas", "exponents": [[NaN, 0.5]]')),
    "linear weight Infinity": walras(economy_text(
        preferences='"kind": "linear", "weights": [[1.0, Infinity]]')),
    "allocation NaN": walras(allocation='{"values": [[NaN, 1.0]]}'),
    "target NaN": ({}, ["range-demo", "--target", "nan"]),
    "target Infinity": ({}, ["range-demo", "--target", "0.5,inf"]),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_input_is_exit_1(case, tmp_path, capsys):
    files, args = NON_FINITE[case]
    if isinstance(files, str):  # an integrate case: (measure text, function text)
        files, args = {"measure.json": files, "function.json": args}, INTEGRATE
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main([str(tmp_path / a) if a in files else a for a in args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert any(line.startswith("error:") for line in captured.err.splitlines())


@pytest.mark.parametrize("weights", ["[[1.0, NaN]]", "[[Infinity, 1.0]]"])
def test_non_finite_family_weights_are_exit_1(weights, tmp_path, capsys):
    family, function = tmp_path / "family.json", tmp_path / "function.json"
    family.write_text('{"K": 4, "mode": "sectioned", ' + BLOCKS + ', "weights": ' + weights + "}")
    function.write_text('{"kind": "uniform", "function": ' + GOOD_FUNCTION + "}")
    code = main(["fubini-check", "--config", str(family), "--function", str(function)])
    assert code == 1
    assert any(line.startswith("error:") for line in capsys.readouterr().err.splitlines())


def test_vector_function_integrates_per_component(tmp_path, capsys):
    measure, function = tmp_path / "measure.json", tmp_path / "function.json"
    measure.write_text(GOOD_MEASURE)  # mu(A) = lebesgue(A)^2
    function.write_text('{"cells": [[0, 0.5], [0.5, 1]], "values": [[1, 2], [0.5, 0.5]]}')
    out = tmp_path / "report.json"
    code = main(["integrate", "--measure", str(measure), "--function", str(function),
                 "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == "0.625 0.875\n"
    assert json.loads(out.read_text())["value"] == [0.625, 0.875]


def test_scalar_integrate_report_keeps_a_number(tmp_path, capsys):
    measure, function = tmp_path / "measure.json", tmp_path / "function.json"
    measure.write_text(GOOD_MEASURE)
    function.write_text(GOOD_FUNCTION)
    out = tmp_path / "report.json"
    assert main(["integrate", "--measure", str(measure), "--function", str(function),
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out == "1.25\n"
    assert json.loads(out.read_text())["value"] == 1.25


class TestCheckMeasure:
    def test_convex_distortion_violates(self, tmp_path, capsys, square_measure_file):
        out = tmp_path / "report.json"
        code = main(["check-measure", "--measure", square_measure_file,
                     "--trials", "200", "--out", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert report["schema"] == "choquet-lab/1"
        assert report["measure_properties"]["subadditive"] is False
        assert report["measure_properties"]["witness"] is not None

    def test_concave_distortion_passes(self, tmp_path):
        path = tmp_path / "sqrt.json"
        io.dump_json({"mode": "distorted", "distortion": {"kind": "power", "alpha": 0.5}},
                     str(path))
        assert main(["check-measure", "--measure", str(path), "--trials", "200"]) == 0

    def test_determinism(self, tmp_path, square_measure_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["check-measure", "--measure", square_measure_file,
                  "--trials", "100", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestFubiniCheck:
    def test_constant_function(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        io.dump_json({"K": 20, "mode": "homothetic",
                      "distortion": {"kind": "power", "alpha": 2.0}}, str(fam))
        fn = tmp_path / "fn.json"
        io.dump_json({"kind": "uniform",
                      "function": {"cells": [[0, 1]], "values": [1.5]}}, str(fn))
        code = main(["fubini-check", "--config", str(fam), "--function", str(fn),
                     "--tnodes", "1000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["deviation"] <= 1e-9


class TestRangeDemo:
    def test_default_scalar_target(self, capsys):
        code = main(["range-demo", "--target", "0.37", "--K", "50"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert abs(report["achieved"][0] - 0.37) <= 1e-6

    def test_infeasible_target(self, capsys):
        code = main(["range-demo", "--target", "1.5", "--K", "20"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is False
        assert report["separating_direction"] is not None

    def test_bad_target_is_exit_1(self, capsys):
        assert main(["range-demo", "--target", "abc"]) == 1


class TestEconomyCheck:
    @pytest.fixture()
    def economy_file(self, tmp_path):
        eco, _, _ = cobb_douglas_economy(K=40)
        path = tmp_path / "eco.json"
        io.dump_json(io.economy_to_json(eco), str(path))
        return str(path)

    def test_walras_with_explicit_pair(self, tmp_path, capsys, economy_file):
        eco, allocation, price = cobb_douglas_economy(K=40)
        alloc = tmp_path / "alloc.json"
        io.dump_json({"values": allocation.tolist()}, str(alloc))
        pfile = tmp_path / "p.json"
        io.dump_json({"price": price.tolist()}, str(pfile))
        code = main(["economy-check", "--config", economy_file, "--mode", "walras",
                     "--allocation", str(alloc), "--price", str(pfile)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["walras"]["verdict"] is True

    def test_walras_rejects_endowment(self, capsys, economy_file):
        # default allocation is e; demand differs from e, so w2 fails
        code = main(["economy-check", "--config", economy_file, "--mode", "walras"])
        assert code == 2

    def test_core_search_finds_gains_from_trade(self, capsys, economy_file):
        code = main(["economy-check", "--config", economy_file, "--mode", "core",
                     "--budget", "300"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["core_search"]["witness"] is not None

    def test_seed_zero_is_accepted(self, capsys, economy_file):
        args = ["economy-check", "--config", economy_file, "--mode", "core", "--budget", "50"]
        assert main(args + ["--seed", "0"]) == 2  # the endowment admits gains from trade
        assert json.loads(capsys.readouterr().out)["core_search"]["witness"] is not None
        assert main(args + ["--seed", "-1"]) == 1
        assert "error: --seed must be non-negative" in capsys.readouterr().err

    def test_endowment_mode_on_split_fixture(self, tmp_path, capsys):
        eco = split_dominance_economy(K=40)
        path = tmp_path / "ecoJ.json"
        io.dump_json(io.economy_to_json(eco), str(path))
        code = main(["economy-check", "--config", str(path), "--mode", "endowment"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["endowment"]["verdict"] is False


class TestDemo:
    def test_cobb_douglas_scenario(self, tmp_path):
        out = tmp_path / "demo.json"
        code = main(["demo", "--scenario", "cobb-douglas", "--K", "50",
                     "--budget", "200", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["walras"]["verdict"] is True
        assert abs(report["price"][0] - 0.5) <= 1e-3
        assert abs(report["price"][1] - 0.5) <= 1e-3
        assert report["core_search"]["witness"] is None

    def test_sectioned_fubini_scenario(self, capsys):
        code = main(["demo", "--scenario", "sectioned-fubini", "--K", "20",
                     "--cells", "200", "--tnodes", "2000"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["fubini"]["deviation"] <= 2e-3

    def test_dominance_split_scenario(self, capsys):
        # the machine-checkable evidence behind acceptance criterion 09
        code = main(["demo", "--scenario", "dominance-split", "--K", "20",
                     "--budget", "100"])
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["endowment"]["verdict"] is False
        failure = report["endowment"]["price_failure"]
        assert failure["found"] is False
        assert failure["violations"] > 0
        assert report["improvement_of_endowment"]["witness"] is not None

    def test_demo_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["demo", "--scenario", "cobb-douglas", "--K", "30",
                  "--budget", "100", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()
