import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choquet_lab
from choquet_lab import io
from choquet_lab.choquet import INTEGRAL_PROPERTIES
from choquet_lab.cli import main
from choquet_lab.economy import Economy, Preferences
from choquet_lab.fixtures import (
    cobb_douglas_economy,
    full_dominance_economy,
    split_dominance_economy,
)
from choquet_lab.intervals import IntervalSet
from test_io import JSON_VALUES, node_paths, replaced


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

    def test_unwritable_out_is_exit_1(self, tmp_path, capsys, square_measure_file,
                                      linear_function_file):
        out = tmp_path / "missing" / "x.json"
        assert main(["integrate", "--measure", square_measure_file,
                     "--function", linear_function_file, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert captured.out == ""


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


def family_text(K="4", normalized="true"):
    return ('{"K": ' + K + ', "mode": "homothetic", "distortion": {"kind": "identity"}, '
            '"normalized": ' + normalized + "}")


def fubini(family, *options):
    files = {"family.json": family,
             "function.json": '{"kind": "uniform", "function": ' + GOOD_FUNCTION + "}"}
    return files, ["fubini-check", "--config", "family.json", "--function", "function.json",
                   *options]


# Non-finite numbers, values of the wrong type and unsupported families in
# input files: every one is an error line and exit 1, never a traceback.
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
    "step value not a number": (
        GOOD_MEASURE, '{"cells": [[0, 0.5], [0.5, 1]], "values": ["a", 2.0]}'),
    "family K not an integer": fubini(family_text(K='"two"')),
    "family K a fraction": fubini(family_text(K="2.5")),
    "family K a boolean": fubini(family_text(K="true")),
    "family normalized a string": fubini(family_text(normalized='"false"')),
    "family K other than its weight rows": fubini(
        '{"K": 3, "mode": "sectioned", ' + BLOCKS + ', "weights": [[1, 2], [2, 1]]}'),
    "family K other than its measures": fubini(
        '{"K": 5, "mode": "heterogeneous", "measures": [' + GOOD_MEASURE + "]}"),
    "homothetic family with weights": fubini(
        '{"K": 2, "mode": "homothetic", "distortion": {"kind": "identity"}, '
        '"weights": [[5, 1]]}'),
    "sectioned family with yintervals and weights": fubini(
        '{"K": 2, "mode": "sectioned", ' + BLOCKS + ', "yintervals": [[0, 0.5], [0.5, 1]], '
        '"weights": [[5, 1], [1, 5]]}'),
    "heterogeneous family with normalized": fubini(
        '{"K": 1, "mode": "heterogeneous", "normalized": true, "measures": [' + GOOD_MEASURE
        + "]}"),
    "tnodes above 2**52": fubini(family_text(), "--tnodes", "100000000000000000000"),
    "tolerance NaN": fubini(family_text(), "--tolerance", "nan"),
    "tolerance Infinity": fubini(family_text(), "--tolerance", "inf"),
    "tolerance negative": fubini(family_text(), "--tolerance", "-1"),
    "economy n not an integer": walras(economy_text().replace('"n": 2', '"n": "two"')),
    "economy n a fraction": walras(economy_text().replace('"n": 2', '"n": 2.9')),
    "dominance coordinate a fraction": walras(economy_text(
        preferences='"kind": "coordinate_dominance", "coords": [[1.7]]')),
    "dominance coordinate set not a list": walras(economy_text(
        preferences='"kind": "coordinate_dominance", "coords": [1]')),
    "range-demo on a heterogeneous family": (
        {"family.json": '{"K": 2, "mode": "heterogeneous", "measures": [' + GOOD_MEASURE
         + ", " + GOOD_MEASURE + "]}"},
        ["range-demo", "--target", "0.3", "--config", "family.json"]),
    "target Infinity": ({}, ["range-demo", "--target", "0.5,inf"]),
    "scale a string": (
        '{"mode": "distorted", "distortion": {"kind": "identity", "scale": "x"}}', GOOD_FUNCTION),
    "scale a list": (
        '{"mode": "distorted", "distortion": {"kind": "identity", "scale": [1]}}', GOOD_FUNCTION),
    "scale a numeric string": (
        '{"mode": "distorted", "distortion": {"kind": "identity", "scale": "2"}}', GOOD_FUNCTION),
    "scale a boolean": (
        '{"mode": "distorted", "distortion": {"kind": "identity", "scale": true}}', GOOD_FUNCTION),
    "power alpha a numeric string": (
        '{"mode": "distorted", "distortion": {"kind": "power", "alpha": "0.5"}}', GOOD_FUNCTION),
    "pwl knot a string": (
        '{"mode": "distorted", "distortion": {"kind": "pwl", '
        '"knots": [[0, 0], ["x", 1], [1, 1]]}}', GOOD_FUNCTION),
    "sectioned block a string": (
        '{"mode": "sectioned", "blocks": [["a", 0.5], [0.5, 1]], "weights": [1.0, 1.0]}',
        GOOD_FUNCTION),
    "sectioned weight a numeric string": (
        '{"mode": "sectioned", ' + BLOCKS + ', "weights": ["1", 1]}', GOOD_FUNCTION),
    "price a string": walras(price='{"price": ["a", 1]}'),
    "price numeric strings": walras(price='{"price": ["0.5", "0.5"]}'),
    "price booleans": walras(price='{"price": [true, false]}'),
    "endowment numeric strings": walras(economy_text(endowment='[["1", "1"]]')),
    "allocation a string": walras(allocation='{"values": [["a", 1]]}'),
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


# Finite numbers whose measure of [0,1) overflows: a pwl g(1), a measure's
# weights, a family row's weights
OVERFLOWING_TOTALS = {
    "pwl g(1)": ('{"mode": "distorted", "distortion": {"kind": "pwl", '
                 '"knots": [[0, 0], [0.5, 0.9], [1, 1.2]], "scale": 1.7e308}}', GOOD_FUNCTION),
    "measure weights": (
        '{"mode": "sectioned", ' + BLOCKS + ', "weights": [1.7e308, 1.7e308]}', GOOD_FUNCTION),
    "family weights": fubini('{"K": 3, "mode": "sectioned", ' + BLOCKS
                             + ', "weights": [[1.7e308, 1.7e308]], "normalized": false}'),
}


@pytest.mark.parametrize("case", sorted(OVERFLOWING_TOTALS))
def test_an_overflowing_total_is_one_error_line(case, tmp_path, capsys):
    files, args = OVERFLOWING_TOTALS[case]
    if isinstance(files, str):  # an integrate case: (measure text, function text)
        files, args = {"measure.json": files, "function.json": args}, INTEGRATE
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main([str(tmp_path / a) if a in files else a for a in args])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error:")
    assert "overflows" in captured.err


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

    def test_large_linear_knots_pass(self, tmp_path, capsys):
        # g(s) = 1e6 s: both slopes are 1e6, and they round ~1e-10 apart
        path = tmp_path / "linear.json"
        io.dump_json({"mode": "distorted", "distortion": {
            "kind": "pwl", "knots": [[0, 0], [0.3, 3e5], [1, 1e6]]}}, str(path))
        assert main(["check-measure", "--measure", str(path)]) == 0
        props = json.loads(capsys.readouterr().out)["measure_properties"]
        assert props["submodular"] is True and props["witness"] is None

    def test_determinism(self, tmp_path, square_measure_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["check-measure", "--measure", square_measure_file,
                  "--trials", "100", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("knots, subadditive", [
        ([[0, 0], [0.9, 0.9], [0.95, 0.951], [1, 1]], False),
        ([[0, 0], [0.5, 0.7], [0.6, 0.72], [0.7, 0.8], [1, 1]], True),
    ])
    @pytest.mark.parametrize("seed", ["1", "42"])
    def test_pwl_verdicts_carry_witnesses_that_verify(self, tmp_path, capsys, knots,
                                                      subadditive, seed):
        # Sampled pairs called the first distortion subadditive; the second
        # is subadditive but not concave, hence not submodular.
        data = {"mode": "distorted", "distortion": {"kind": "pwl", "knots": knots}}
        path = tmp_path / "pwl.json"
        io.dump_json(data, str(path))
        assert main(["check-measure", "--measure", str(path), "--trials", "100",
                     "--seed", seed]) == 2
        report = json.loads(capsys.readouterr().out)
        props = report["measure_properties"]
        assert (props["trials"], props["seed"]) == (100, int(seed))
        assert props["monotone"] and props["subadditive"] is subadditive
        assert props["submodular"] is False
        witness = props["witness"]
        assert witness["property"] == ("submodular" if subadditive else "subadditive")
        mu = io.measure_from_json(data)
        A, B = IntervalSet(witness["A"]), IntervalSet(witness["B"])
        lhs = mu(A.union(B)) + (mu(A.intersection(B)) if subadditive else 0.0)
        assert lhs == witness["lhs"] and witness["rhs"] == mu(A) + mu(B)
        assert lhs > mu(A) + mu(B) + 1e-12
        # not submodular, so the integral is not subadditive: 1_A + 1_B is
        # the counterexample, and the other properties hold
        integral = report["integral_properties"]
        assert list(integral) == ["results"]
        decided = {n: (r["checked"], r["passed"]) for n, r in integral["results"].items()}
        assert decided == {n: (True, n != "subadditivity") for n in INTEGRAL_PROPERTIES}
        cx = integral["results"]["subadditivity"]["counterexample"]
        assert (cx["A"], cx["B"]) == (witness["A"], witness["B"])
        assert cx["lhs"] > cx["rhs"] + 1e-9


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

    def test_sections_of_mixed_components_are_one_error_line(self, tmp_path, capsys):
        fam = tmp_path / "fam.json"
        io.dump_json({"K": 2, "mode": "homothetic", "distortion": {"kind": "identity"}}, str(fam))
        fn = tmp_path / "fn.json"
        io.dump_json({"kind": "sections",
                      "sections": [{"cells": [[0, 1]], "values": [[1.0, 2.0]]},
                                   {"cells": [[0, 1]], "values": [[1.0, 2.0, 3.0]]}]}, str(fn))
        code = main(["fubini-check", "--config", str(fam), "--function", str(fn)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: product function: sections of mixed value shapes: (2,), (3,)\n")

    def test_tolerance_zero_is_accepted(self, tmp_path, capsys):
        # NaN, infinite and negative tolerances are NON_FINITE cases
        files, args = fubini(family_text())
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        args = [str(tmp_path / a) if a in files else a for a in args]
        assert main(args + ["--tolerance", "-1"]) == 1
        assert capsys.readouterr().err == (
            "error: --tolerance must be finite and non-negative (got -1.0)\n")
        assert main(args + ["--tolerance", "0"]) == 0  # a constant f: both orders give 1.5
        assert json.loads(capsys.readouterr().out)["tolerance"] == 0.0


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

    def test_target_without_numbers_is_exit_1(self, capsys):
        assert main(["range-demo", "--target", ","]) == 1
        assert capsys.readouterr().err == "error: --target must list at least one number\n"

    def test_phi_file_is_realized(self, tmp_path, capsys):
        # phi = (1, 2) on every node: the target (0.5, 1) is half of it
        phi = tmp_path / "phi.json"
        io.dump_json({"values": [[1.0, 2.0]]}, str(phi))
        assert main(["range-demo", "--target", "0.5,1.0", "--phi", str(phi), "--K", "20"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["feasible"] is True
        assert report["achieved"] == pytest.approx([0.5, 1.0], abs=1e-9)

    def test_phi_with_more_components_than_the_target_is_exit_1(self, tmp_path, capsys):
        phi = tmp_path / "phi.json"
        io.dump_json({"values": [[1.0, 2.0, 3.0]]}, str(phi))
        assert main(["range-demo", "--target", "0.5,1.0", "--phi", str(phi), "--K", "20"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    # SHA-256 digests of vector-target reports on the default family (K =
    # 100, phi = 1), which the two HiGHS LPs decide: one target in range and
    # two out of range.
    @pytest.mark.parametrize("target, code, digest", [
        ("0.3,0.3", 0, "ae79e939d483d7d74ea1f0368b87fd9129c12101f628681b619617132e65817a"),
        ("0.8,-0.2", 2, "39703d4eed39edef159e80f1216df0f860bc7e7264076902b608ee90b53f67a9"),
        ("1.2,0.5", 2, "cebca56f81d1c707c11b5464f1f3438ba732b3d5ceb88af9457ca6012a6796c9"),
    ])
    def test_vector_target_reports_are_pinned(self, capsys, target, code, digest):
        assert main(["range-demo", "--target", target]) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_fubini_report_near_the_float_maximum_is_strict_json(tmp_path, capsys):
    # The mean of the node integrals sums them first; 3 * 1.35e308 overflows.
    files, args = fubini(family_text(K="3"))
    files["function.json"] = files["function.json"].replace("[1.0, 2.0]", "[1.7e308, 1e308]")
    for name, text in files.items():
        (tmp_path / name).write_text(text)

    def no_constant(name):
        raise ValueError(f"not strict JSON: {name}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(tmp_path / a) if a in files else a for a in args])
    report = json.loads(capsys.readouterr().out, parse_constant=no_constant)
    assert code == 2  # the quadrature error, ~M / tnodes, is far above 2e-3
    assert report["rhs"] == pytest.approx(1.35e308, rel=1e-15)
    assert report["deviation"] <= 1.7e308 / 10_000


# Commands that solve no LP import no scipy, and a sectioned integral does not
# import numpy.ma; each runs in a fresh interpreter.  A price search over two
# goods takes its price in closed form; over three it solves an LP.
LIGHT_COMMANDS = {
    "range-demo scalar": ({}, ["range-demo", "--target", "0.4"], ("scipy",)),
    "range-demo scalar out of range": ({}, ["range-demo", "--target", "1.5"], ("scipy",)),
    "integrate power": (
        {"measure.json": GOOD_MEASURE, "function.json": GOOD_FUNCTION}, INTEGRATE, ("scipy",)),
    "integrate sectioned": (
        {"measure.json": '{"mode": "sectioned", ' + BLOCKS + ', "weights": [1.0, 3.0]}',
         "function.json": GOOD_FUNCTION}, INTEGRATE, ("scipy", "numpy.ma")),
    "check-measure": (
        {"measure.json": GOOD_MEASURE},
        ["check-measure", "--measure", "measure.json", "--trials", "20"], ("scipy",)),
    "economy-check walras with a price": (*walras(), ("scipy",)),
    "economy-check walras, two goods, price searched": (
        {"economy.json": economy_text()}, WALRAS, ("scipy",)),
    "demo cobb-douglas": ({}, ["demo", "--scenario", "cobb-douglas", "--K", "20"], ("scipy",)),
}


def imported_in_a_fresh_interpreter(files, args, modules, tmp_path):
    """Run the command in a new interpreter; its exit code and which of the
    modules it imported."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / a) if a in files else a for a in args]
    script = ("import sys\n"
              "from choquet_lab.cli import main\n"
              f"code = main({argv!r})\n"
              f"print(code, [m for m in {list(modules)!r} if m in sys.modules])\n")
    src = str(Path(choquet_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stderr == ""
    code, imported = proc.stdout.splitlines()[-1].split(" ", 1)
    return code, imported


@pytest.mark.parametrize("case", sorted(LIGHT_COMMANDS))
def test_light_commands_skip_heavy_imports(case, tmp_path):
    code, imported = imported_in_a_fresh_interpreter(*LIGHT_COMMANDS[case], tmp_path)
    assert code in ("0", "2") and imported == "[]"


def test_a_three_good_price_search_solves_its_lp(tmp_path):
    economy = economy_text("[[1.0, 1.0, 1.0]]",
                           '"kind": "cobb_douglas", "exponents": [[0.25, 0.25, 0.5]]')
    code, imported = imported_in_a_fresh_interpreter(
        {"economy.json": economy.replace('"n": 2', '"n": 3')}, WALRAS, ("scipy",), tmp_path)
    assert code in ("0", "2") and imported == "['scipy']"


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

    def test_large_core_holds_at_equilibrium(self, tmp_path, capsys, economy_file):
        _, allocation, _ = cobb_douglas_economy(K=40)
        alloc = tmp_path / "alloc.json"
        io.dump_json({"values": allocation.tolist()}, str(alloc))
        code = main(["economy-check", "--config", economy_file, "--mode", "large-core",
                     "--allocation", str(alloc)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["core_search"]["witness"] is None
        assert report["core_search"]["searched"] == {
            "coalitions": 40, "allocations": 1, "two_level": 0, "pairs": 40}

    def test_large_core_blocked_by_a_node_preferring_its_endowment(
        self, tmp_path, capsys, economy_file
    ):
        _, allocation, _ = cobb_douglas_economy(K=40)
        allocation[7] *= 0.5  # e = (1, 1) is now strictly preferred at node 7
        alloc = tmp_path / "alloc.json"
        io.dump_json({"values": allocation.tolist()}, str(alloc))
        code = main(["economy-check", "--config", economy_file, "--mode", "large-core",
                     "--allocation", str(alloc)])
        assert code == 2
        witness = json.loads(capsys.readouterr().out)["core_search"]["witness"]
        assert witness["mode"] == "strongly_improve"
        assert witness["source"] == "endowment"
        assert [k for k, sec in enumerate(witness["coalition_sections"]) if sec] == [7]

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

    def test_unwritable_out_is_exit_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = main(["demo", "--scenario", "sectioned-fubini", "--K", "4", "--cells", "10",
                     "--tnodes", "100", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"

    def test_out_of_memory_is_one_error_line(self, tmp_path):
        # K = 100,000 nodes of 10,000 cells need 7.45 GiB for the quadrature's
        # (nodes x cells) array; under a 1.5 GB address-space cap the run
        # stops with exit 1
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

        src = str(Path(choquet_lab.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        argv = ["demo", "--scenario", "sectioned-fubini", "--K", "100000", "--cells", "10000",
                "--tnodes", "2000"]
        proc = subprocess.run([sys.executable, "-m", "choquet_lab.cli", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=300,
                              preexec_fn=cap)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: out of memory")

    def test_demo_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            main(["demo", "--scenario", "cobb-douglas", "--K", "30",
                  "--budget", "100", "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


# SHA-256 digests and exit codes of whole ``economy-check``, ``demo`` and
# ``check-measure`` reports (stdout bytes).  Any change to a search result, a Walras verdict
# or a reported violator moves them.  The economies: the K = 20 Cobb-Douglas
# fixture with its equilibrium allocation; a linear and a dominance economy
# with n = 3 on K = 12 nodes; the split and full dominance fixtures at K = 20.
# Each economy is checked at its endowment and at a second allocation whose
# rows are scaled node by node, so that some nodes are over budget.
REPORT_PRICES = {
    "cobb_douglas": ([0.5, 0.5], [1.0, 0.0]),
    "linear": ([0.2, 0.3, 0.5], [0.0, 0.4, 0.6]),
    "dominance": ([0.2, 0.3, 0.5], [1.0, 0.0, 0.0]),
    "split": ([0.5, 0.5], [1.0, 0.0]),
    "full": ([0.5, 0.5], [0.0, 1.0]),
}


def report_economy(name):
    """(economy, second allocation) of a pinned report."""
    from test_economy import random_economy

    if name == "cobb_douglas":
        eco, allocation, _ = cobb_douglas_economy(K=20)
        return eco, allocation
    if name in ("linear", "dominance"):
        pref_kind, fam_kind, seed = {
            "linear": ("linear", "sectioned", 21),
            "dominance": ("coordinate_dominance", "pwl", 22),
        }[name]
        rng = np.random.default_rng(seed)
        eco = random_economy(rng, pref_kind, fam_kind, K=12, n=3)
        if name == "dominance":  # plain ints, so the economy serializes
            jsets = tuple(tuple(int(j) for j in js) for js in eco.prefs.jsets)
            prefs = Preferences("coordinate_dominance", 3, jsets=jsets)
            eco = Economy(eco.fam, eco.endowment, prefs)
    else:
        eco = (split_dominance_economy if name == "split" else full_dominance_economy)(K=20)
        rng = np.random.default_rng(23)
    return eco, eco.endowment * rng.uniform(0.3, 1.3, size=(eco.K, 1))


# ``check-measure`` reports: one concave, one convex and one identity
# distortion and a two-block sectioned measure, each at two seeds.
REPORT_MEASURES = {
    "sqrt": {"mode": "distorted", "distortion": {"kind": "power", "alpha": 0.5}},
    "square": {"mode": "distorted", "distortion": {"kind": "power", "alpha": 2.0}},
    "identity": {"mode": "distorted", "distortion": {"kind": "identity"}},
    "two-block": {"mode": "sectioned", "blocks": [[0, 0.5], [0.5, 1]], "weights": [1, 1]},
}


def report_cases():
    cases = {}
    for name in REPORT_MEASURES:
        for seed in ("7", "42"):
            cases[f"check-measure {name} seed{seed}"] = (
                name, ["--measure", "measure.json", "--trials", "200", "--seed", seed])
    for name, prices in REPORT_PRICES.items():
        for alloc in ("endowment", "allocation"):
            extra = [] if alloc == "endowment" else ["--allocation", "allocation.json"]
            cases[f"{name} walras found {alloc}"] = (name, ["--mode", "walras"] + extra)
            for i in range(len(prices)):
                cases[f"{name} walras price{i} {alloc}"] = (
                    name, ["--mode", "walras", "--price", f"price{i}.json"] + extra)
            cases[f"{name} core {alloc}"] = (name, ["--mode", "core", "--budget", "100"] + extra)
            cases[f"{name} large-core {alloc}"] = (name, ["--mode", "large-core"] + extra)
        if name in ("dominance", "split", "full"):
            cases[f"{name} endowment"] = (name, ["--mode", "endowment"])
    cases["demo cobb-douglas"] = (None, ["--scenario", "cobb-douglas", "--K", "20"])
    cases["demo dominance-split"] = (None, ["--scenario", "dominance-split", "--K", "20"])
    return cases


REPORT_CASES = report_cases()


def report_digest(case, tmp_path, capsys):
    name, args = REPORT_CASES[case]
    if name is None:
        code = main(["demo"] + args)
    elif name in REPORT_MEASURES:
        io.dump_json(REPORT_MEASURES[name], str(tmp_path / "measure.json"))
        code = main(["check-measure"] + [str(tmp_path / a) if a.endswith(".json") else a
                                         for a in args])
    else:
        eco, allocation = report_economy(name)
        io.dump_json(io.economy_to_json(eco), str(tmp_path / "economy.json"))
        io.dump_json({"values": allocation.tolist()}, str(tmp_path / "allocation.json"))
        for i, p in enumerate(REPORT_PRICES[name]):
            io.dump_json({"price": p}, str(tmp_path / f"price{i}.json"))
        args = ["--config", "economy.json"] + args
        code = main(["economy-check"] + [str(tmp_path / a) if a.endswith(".json") else a
                                         for a in args])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


PINNED_REPORTS = {
    "check-measure identity seed42":
        (0, "1c5d06996e6db6e9a617ae24439315bcecc983b025558753d342a9dad70ddec2"),
    "check-measure identity seed7":
        (0, "009b11605644516ee806d92e363ba46dbec8fdebdf898b397fadeab3b76b9ffe"),
    "check-measure sqrt seed42":
        (0, "1c5d06996e6db6e9a617ae24439315bcecc983b025558753d342a9dad70ddec2"),
    "check-measure sqrt seed7":
        (0, "009b11605644516ee806d92e363ba46dbec8fdebdf898b397fadeab3b76b9ffe"),
    "check-measure square seed42":
        (2, "6516fee559960fd14e110fb54c85d77c12d72f94c4e6884553b21a15f4d662ad"),
    "check-measure square seed7":
        (2, "ad7e7cf5ba848838ce9b60034f8d33207b0916d7695f400ba55eab387da36bc3"),
    "check-measure two-block seed42":
        (0, "1c5d06996e6db6e9a617ae24439315bcecc983b025558753d342a9dad70ddec2"),
    "check-measure two-block seed7":
        (0, "009b11605644516ee806d92e363ba46dbec8fdebdf898b397fadeab3b76b9ffe"),
    "cobb_douglas core allocation":
        (0, "14848b1722f88d4e82b9edc02d54ab1130492d5ec77ce54690e0aaa6dbf8642a"),
    "cobb_douglas core endowment":
        (2, "2a836f500bcbc271ec6b3602cdbf0af4a55c1ac49d15039c7c653eb38dcce787"),
    "cobb_douglas large-core allocation":
        (0, "38ea5b642e9acf5a4bc9a6a3b04985914f8aaf0f7d40892b2ada8e4bd79e77f0"),
    "cobb_douglas large-core endowment":
        (0, "38ea5b642e9acf5a4bc9a6a3b04985914f8aaf0f7d40892b2ada8e4bd79e77f0"),
    "cobb_douglas walras found allocation":
        (0, "960564316436bbbd91da6f96008e6a5bcaf59cf9b1ecb0dc5e259048f3453a8e"),
    "cobb_douglas walras found endowment":
        (2, "28b49cef1d323dca2b6e12b34eb5bb0cbc908cebc5feed5499025977e0a0e862"),
    "cobb_douglas walras price0 allocation":
        (0, "df0f139e604333db9775c5a061bdba33821f70fcaa989ab7bf0226fd8e035312"),
    "cobb_douglas walras price0 endowment":
        (2, "656b6499ee764374a5fdb9898e0f2afc80fd11faf2cbfe08bdb67c77a2538db1"),
    "cobb_douglas walras price1 allocation":
        (2, "33efced519da0e6d7d3521a94d1bc96e0de44cc6256b5a752d61e05f097ec494"),
    "cobb_douglas walras price1 endowment":
        (2, "401bf256d539e165c292f0d84f0f6ac10770c6cb6911d4704d2d847f26873ce3"),
    "demo cobb-douglas": (0, "b66817aa184a1413efff6083e9254479f6d30f8270c49afa79e60939858a2a7f"),
    "demo dominance-split":
        (2, "ac9b19bd025a59b390c7b23cc88a348db19280a62303be5b70178e17e66b7db2"),
    "dominance core allocation":
        (2, "835c1b4c780155d5199a8fdc375488d3b9ae1c546ee419bf0034508f899dc5ed"),
    "dominance core endowment":
        (0, "1a3d52d4ef9fe34eefbbad0c638980fc4ea511e9718afacff4561f20228019d8"),
    "dominance endowment": (2, "4281844dfb8061f61f8164852119a93bb0b79b98ba23a8dd527749a795c1310e"),
    "dominance large-core allocation":
        (2, "d35bd6bad70943fe3911eceecb138898605f29f964b0e3ad9038f793e669c579"),
    "dominance large-core endowment":
        (0, "60e85995583a787765fc07c86e7119ba414826b8c2bb8309893ef4c5aba305bc"),
    "dominance walras found allocation":
        (2, "7c263c9244ee86ee24ae6ea2123bed23491147cc3673f17ddbd327f56539b349"),
    "dominance walras found endowment":
        (2, "5a255b30d129e14c970e70e725d565fe427146fffce170aadfad3ced70b9abc4"),
    "dominance walras price0 allocation":
        (2, "d6f752a4c686c68860ab1f90ff0d8fd68df0e42b526f2c59454acaf630633bda"),
    "dominance walras price0 endowment":
        (2, "1845f609b7c48db5ae9000ae66931176297c06e26b83ec6ae941ccab7be35b78"),
    "dominance walras price1 allocation":
        (2, "7978cffb02c360d12c5428a247bb7580c1f5d2c9dbf0d6d130d2848d1a305b53"),
    "dominance walras price1 endowment":
        (2, "33731d328302bb0e8b99f438e48e50a41f2b7f0ec0ce0c7cb7862069f14bcfe0"),
    "full core allocation":
        (2, "70415db5d34fb24f3ad8d3825058436aefed73a5d4d21ba0a7e7b55d95db033a"),
    "full core endowment": (0, "14848b1722f88d4e82b9edc02d54ab1130492d5ec77ce54690e0aaa6dbf8642a"),
    "full endowment": (0, "4ec30db87c61e516118bfdde0892fa400f304b92c3b09a379c77850a23289ef7"),
    "full large-core allocation":
        (2, "589ec791e50e4a007b01d4ddfeb606fd4a1fdaf55cfdbf275973f183eaa8f898"),
    "full large-core endowment":
        (0, "38ea5b642e9acf5a4bc9a6a3b04985914f8aaf0f7d40892b2ada8e4bd79e77f0"),
    "full walras found allocation":
        (2, "90730c3c1ca12ebb837425dded878f1a42b11bd7d8e0c6ba1f45cec00a7f6018"),
    "full walras found endowment":
        (0, "80302d7bc8075ed70095e93944921400a0a5b718875bd1cd95966a3e587608da"),
    "full walras price0 allocation":
        (2, "122f6277dc64c5efa2d9a2fcecfb4606b1c204b3429637749ca9e9bcee6d2c1c"),
    "full walras price0 endowment":
        (0, "df0f139e604333db9775c5a061bdba33821f70fcaa989ab7bf0226fd8e035312"),
    "full walras price1 allocation":
        (2, "de41820b9ea22cd556000bfe7c03ecfef1efe642f4858f63b85c19c20a8c30bf"),
    "full walras price1 endowment":
        (0, "407aa0e4c2fde76839c7a804fdc8d75a9efc3252b669286918b63d8cdf5cc560"),
    "linear core allocation":
        (2, "80a10c6cb47948e61ae610e35319ae4bf2de65e2f6037f20d0a57be2ced8e876"),
    "linear core endowment":
        (0, "1a3d52d4ef9fe34eefbbad0c638980fc4ea511e9718afacff4561f20228019d8"),
    "linear large-core allocation":
        (2, "3fe25f3c838c177753fa31674d8bd05962379adf1f679f9eb40269302179f5d6"),
    "linear large-core endowment":
        (0, "60e85995583a787765fc07c86e7119ba414826b8c2bb8309893ef4c5aba305bc"),
    "linear walras found allocation":
        (2, "b69fbc367f0201714e2fa3206ca59e11a0dd8692d01abf6b58b78ae0612ef0f0"),
    "linear walras found endowment":
        (2, "944c40b20257b7fdb7b92992ea8f7f6a1d34dc5d0b6571d17bb9aab165a61ebc"),
    "linear walras price0 allocation":
        (2, "05636267cb826baab604dc90c7219c7de014457d77c4e23f44699aadd2459b33"),
    "linear walras price0 endowment":
        (2, "a81160c0047f182faf55a0d5a5810f1d9af6c0474ceffad0fc842d512e54202f"),
    "linear walras price1 allocation":
        (2, "0e72ad6412a05d7b3a499db22d3b8a00110581bf02cf23b866811ee79232ccad"),
    "linear walras price1 endowment":
        (2, "3d52cc1f1012d25ff4294e8146099dde95b342c503f42bd0b5fee4835583615f"),
    "split core allocation":
        (2, "2a836f500bcbc271ec6b3602cdbf0af4a55c1ac49d15039c7c653eb38dcce787"),
    "split core endowment":
        (2, "2a836f500bcbc271ec6b3602cdbf0af4a55c1ac49d15039c7c653eb38dcce787"),
    "split endowment": (2, "c19c8740c91581787db2b6a796d08806ba1067faf1b2b733207aadfa35c82247"),
    "split large-core allocation":
        (2, "589ec791e50e4a007b01d4ddfeb606fd4a1fdaf55cfdbf275973f183eaa8f898"),
    "split large-core endowment":
        (0, "38ea5b642e9acf5a4bc9a6a3b04985914f8aaf0f7d40892b2ada8e4bd79e77f0"),
    "split walras found allocation":
        (2, "cf58ef74af089eef3384a6371590ce8bd193c97039ff9d93180f3be7fcfb2341"),
    "split walras found endowment":
        (2, "4ca27978854c4dd873c0e9da7d12f7f023c35a4fa3a27093fabad3e09d63cd59"),
    "split walras price0 allocation":
        (2, "980d018ceccd4826def5942c4a3220a4a4b18b7339712312b5430a145f43366f"),
    "split walras price0 endowment":
        (2, "6b835affd711d66b66b91c5aaa2dcb3683d5d0ae051231b48ecb314e7432535d"),
    "split walras price1 allocation":
        (2, "e5f0de5fc7ea69d5df9747c0b8475e74bab267cc0b0858469f91a2b338daf927"),
    "split walras price1 endowment":
        (2, "69c20b36e8fefb0b67d5eac4675c79cffc7ad69fcf6d2e89a3a371fe083a9e8c"),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_bytes_are_pinned(case, tmp_path, capsys):
    assert report_digest(case, tmp_path, capsys) == PINNED_REPORTS[case]


# -- CLI fuzz ----------------------------------------------------------------------

# Valid inputs per subcommand, as (documents by file name, arguments naming
# them).  The fuzz replaces one node of one document (or the whole document)
# by a small number, often still valid, or an arbitrary JSON value, or cuts the
# document's text short, and then runs the command in-process.
FUZZ_FAMILY = {"K": 2, "mode": "sectioned", "blocks": [[0, 0.5], [0.5, 1]],
               "weights": [[1, 2], [2, 1]]}
FUZZ_ECONOMY = {
    "family": {"K": 2, "mode": "homothetic", "distortion": {"kind": "power", "alpha": 0.5}},
    "n": 2,
    "endowment": [[1.0, 2.0], [2.0, 1.0]],
    "preferences": {"kind": "cobb_douglas", "exponents": [[0.5, 0.5], [0.25, 0.75]]},
}
FUZZ_STEP = {"cells": [[0, 0.5], [0.5, 1]], "values": [1.0, 2.0]}
FUZZ_MEASURE = {"mode": "distorted",
                "distortion": {"kind": "pwl", "knots": [[0, 0], [0.5, 0.8], [1, 1]]}}
ECONOMY_CHECK = ["economy-check", "--config", "economy.json", "--samples", "5", "--budget", "20"]
CLI_INPUTS = {
    "integrate": ({"measure.json": FUZZ_MEASURE, "function.json": FUZZ_STEP}, INTEGRATE),
    "check-measure": (
        {"measure.json": {"mode": "sectioned", "blocks": [[0, 0.5], [0.5, 1]], "weights": [1, 2]}},
        ["check-measure", "--measure", "measure.json"]),
    "fubini-check": (
        {"family.json": FUZZ_FAMILY,
         "function.json": {"kind": "sections", "sections": [FUZZ_STEP, FUZZ_STEP]}},
        ["fubini-check", "--config", "family.json", "--function", "function.json",
         "--tnodes", "100"]),
    "range-demo": (
        {"family.json": FUZZ_FAMILY, "phi.json": {"values": [[1.0, 2.0], [2.0, 1.0]]}},
        ["range-demo", "--target", "0.5,0.5", "--config", "family.json", "--phi", "phi.json"]),
    "economy-check walras": (
        {"economy.json": FUZZ_ECONOMY, "allocation.json": {"values": [[1.5, 1.5]]},
         "price.json": {"price": [0.5, 0.5]}},
        ECONOMY_CHECK + ["--mode", "walras", "--allocation", "allocation.json",
                         "--price", "price.json"]),
    "economy-check walras search": (
        {"economy.json": FUZZ_ECONOMY}, ECONOMY_CHECK + ["--mode", "walras"]),
    "economy-check core": ({"economy.json": FUZZ_ECONOMY}, ECONOMY_CHECK + ["--mode", "core"]),
    "economy-check large-core": (
        {"economy.json": FUZZ_ECONOMY}, ECONOMY_CHECK + ["--mode", "large-core"]),
    "economy-check endowment": (
        {"economy.json": dict(FUZZ_ECONOMY, preferences={
            "kind": "coordinate_dominance", "coords": [[1], [2]]})},
        ECONOMY_CHECK + ["--mode", "endowment"]),
}
# demo reads no documents: its options are drawn instead
DEMO_OPTIONS = st.fixed_dictionaries({
    "--scenario": st.sampled_from(["cobb-douglas", "sectioned-fubini", "dominance-split"]),
    "--K": st.integers(-1, 6), "--cells": st.integers(-1, 20),
    "--tnodes": st.sampled_from([-1, 0, 99, 100, 300]), "--budget": st.integers(-1, 20),
})


def run_in_process(argv) -> tuple[int, str, str]:
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_fuzz_ends_in_an_exit_code_never_a_traceback(data):
    command = data.draw(st.sampled_from(sorted(CLI_INPUTS) + ["demo"]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        if command == "demo":
            options = data.draw(DEMO_OPTIONS, label="options")
            argv = ["demo", *(str(x) for item in options.items() for x in item)]
        else:
            docs, args = CLI_INPUTS[command]
            texts = {name: json.dumps(doc) for name, doc in docs.items()}
            name = data.draw(st.sampled_from(sorted(docs)), label="file")
            if data.draw(st.booleans(), label="cut text"):
                texts[name] = texts[name][:data.draw(st.integers(0, len(texts[name]) - 1))]
            else:
                path = data.draw(st.sampled_from(list(node_paths(docs[name]))), label="path")
                value = data.draw(st.floats(-1, 3) | JSON_VALUES, label="value")
                texts[name] = json.dumps(replaced(docs[name], path, value))
            for file, text in texts.items():
                Path(tmp, file).write_text(text)
            argv = [str(Path(tmp, a)) if a in docs else a for a in args]
        code, out, err = run_in_process(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert out == ""
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1
