"""Self-tests of the benchmark: seeded inputs, oracles, metric names, tracer.

    python -m pytest benchmarks

They are not part of the package's test suite.  Oracles are exercised with
hand-made records: an exact one must pass, a perturbed one must fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]


def generated_inputs(seed: int) -> bytes:
    """Every input a seed determines, serialized, for a few jobs of each kind."""
    parts = [json.dumps(wl.pwl_knots(seed)).encode()]
    for index in range(6):
        for warm in (False, True):
            parts.append(wl.fubini_values(seed, index, warm).tobytes())
            parts.append(str(wl.equilibrium_seed(seed, index, warm)).encode())
            job = wl.cli_job(seed, index, warm)
            parts.append(json.dumps(job["args"]).encode())
            parts.extend(wl.file_text(obj).encode() for obj in job["files"].values())
    return b"\0".join(parts)


def test_same_seed_gives_identical_inputs_and_another_seed_differs():
    assert generated_inputs(7) == generated_inputs(7)
    assert generated_inputs(7) != generated_inputs(8)


@pytest.mark.parametrize("kind", wl.KINDS["fubini-grid"])
def test_fubini_oracle(kind):
    values = wl.fubini_values(3, 0)
    knots = wl.pwl_knots(3)
    exact = wl.fubini_exact_rhs(kind, values, knots)
    good = {"lhs": exact + 1e-4, "rhs": exact, "tnodes": wl.TNODES}
    assert wl.check_fubini(kind, values, knots, good) is None
    for bad in (
        dict(good, rhs=exact + 1e-6),
        dict(good, lhs=exact + 1e-2),
        dict(good, tnodes=wl.TNODES // 2),
        dict(good, lhs=float("nan")),
        dict(good, rhs=float("nan")),
    ):
        assert wl.check_fubini(kind, values, knots, bad) is not None


EQUILIBRIUM_CASES = {
    "find-price": (
        {"found": True, "price": [0.5000001, 0.4999999], "verdict": True},
        [{"found": False, "price": None, "verdict": None},
         {"found": True, "price": [0.51, 0.49], "verdict": True},
         {"found": True, "price": [0.5, 0.5], "verdict": False}],
    ),
    "improve": (
        {"report": "ExhaustedReport", "mode": "improve"},
        [{"report": "ImprovementWitness", "mode": "improve"},
         {"report": "ExhaustedReport", "mode": "strongly_improve"}],
    ),
    "strongly-improve": (
        {"report": "ExhaustedReport", "mode": "strongly_improve"},
        [{"report": "ImprovementWitness", "mode": "strongly_improve"}],
    ),
    "split-endowment": (
        {"verdict": False, "price_failure": True},
        [{"verdict": True, "price_failure": False}, {"verdict": False, "price_failure": False}],
    ),
    "full-dominance": ({"verdict": True}, [{"verdict": False}]),
}


@pytest.mark.parametrize("kind", wl.KINDS["equilibrium"])
def test_equilibrium_oracle(kind):
    good, bads = EQUILIBRIUM_CASES[kind]
    assert wl.check_equilibrium(kind, good) is None
    for bad in bads:
        assert wl.check_equilibrium(kind, bad) is not None


def cli_outputs(job: dict) -> tuple[dict, list[dict]]:
    """A correct output of a CLI job and perturbed ones."""
    kind, expect = job["kind"], job["expect"]
    if kind.startswith("integrate"):
        value = wl.cli_expected_value(job)
        good = {"code": 0, "stdout": f"{value:.12g}\n"}
        bads = [{"code": 0, "stdout": f"{value + 1e-6:.12g}\n"}, dict(good, code=1),
                {"code": 0, "stdout": "nan\n"}]
        return good, bads
    if kind == "range-demo":
        t = expect["target"]
        report = {"command": "range-demo", "target": [t], "feasible": True, "achieved": [t],
                  "deviation": 0.0, "levels": [t] * wl.K, "separating_direction": None}
        bads = [dict(report, feasible=False), dict(report, achieved=[t + 1e-3]),
                dict(report, levels=[min(1.0, t + 1e-3)] * wl.K)]
    elif kind == "check-measure":
        passed = {"checked": True, "passed": True, "max_deviation": 0.0, "counterexample": None}
        report = {
            "command": "check-measure",
            "seed": expect["seed"],
            "measure_properties": {"trials": wl.CHECK_TRIALS, "seed": expect["seed"],
                                   "monotone": True, "subadditive": True, "submodular": True,
                                   "witness": None},
            "integral_properties": {"trials": wl.CHECK_TRIALS, "seed": expect["seed"],
                                    "results": {"homogeneity": passed, "subadditivity": passed}},
        }
        failed_integral = json.loads(json.dumps(report))
        failed_integral["integral_properties"]["results"]["subadditivity"]["passed"] = False
        failed_measure = json.loads(json.dumps(report))
        failed_measure["measure_properties"]["submodular"] = False
        bads = [failed_integral, failed_measure, dict(report, seed=expect["seed"] + 1)]
    else:
        walras = {"w1": True, "w1_deviation": 0.0, "w2": True, "w2_failures": 0,
                  "first_violation": None, "verdict": True}
        report = {"command": "economy-check", "mode": "walras", "price": expect["price"],
                  "walras": walras}
        bads = [dict(report, walras=dict(walras, verdict=False, w2=False, w2_failures=3)),
                dict(report, price=[0.5, 0.5])]
    good = {"code": 0, "stdout": json.dumps(report)}
    return good, [{"code": 0, "stdout": json.dumps(bad)} for bad in bads] + [dict(good, code=2)]


@pytest.mark.parametrize("index", range(len(wl.KINDS["cli-short"])))
def test_cli_oracle(index):
    job = wl.cli_job(5, index)
    good, bads = cli_outputs(job)
    assert wl.check_cli(job, good) is None
    for bad in bads:
        assert wl.check_cli(job, bad) is not None


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.KINDS)
    assert spec["paths"] == [Path(__file__).parent.name]


def test_tail_has_ten_jobs_beyond_it():
    value, percentile = run.tail(list(range(20, 0, -1)))
    assert value == 10 and percentile == 50.0
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 10)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / Path(__file__).parent.name,
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "cli-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_counts_layers_and_restores_the_package():
    import choquet_lab
    from choquet_lab import fixtures

    original = choquet_lab.choquet
    f = choquet_lab.StepFunction.on_grid(np.linspace(0.0, 1.0, 8))

    def work():
        choquet_lab.choquet(f, fixtures.sqrt_measure())
        choquet_lab.range_realize(fixtures.square_family(K=4), np.ones(4), [0.5])

    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            tracer.run_job(0, work)
        finally:
            tracer.uninstall()
        counts.append({k: v for k, v in tracer.metrics().items() if run.PER_LAYER[k] != "s"})
    assert choquet_lab.choquet is original
    assert counts[0] == counts[1]
    m = counts[0]
    assert m["choquet.calls"] == 1 and m["choquet.cells"] == 8
    assert m["lp.calls"] == 1 and m["lp.failed"] == 0
    assert m["measures.g_calls"] > 0 and m["product.calls"] > 0 and m["intervals.calls"] > 0
    parents = {span[1]: span for span in tracer.spans}
    assert all(span[2] is None or span[2] in parents for span in tracer.spans)
    assert all(span[7] >= -1e-9 for span in tracer.spans)
