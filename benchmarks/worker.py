"""One benchmark process: set up a workload in a fresh interpreter, then run it.

Started by ``run.py``, never by hand.  Set-up is everything from interpreter
start to the first timed job: ``import choquet_lab``, fixtures and inputs,
and one untimed warm-up job of each kind.  Then the worker times the jobs
``--first`` .. ``--first + --count - 1``, or, given ``--trace-out``, runs one
rotation untraced and the same jobs again under the tracer.

Prints one JSON object on stdout.  A job's inputs are built before its timer
starts; its output is reduced to the plain record that ``workloads.check_job``
judges later, in the parent, outside every timer.
"""

import time

T_START = time.monotonic()  # interpreter start-up ends here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
CLI_TIMEOUT_S = 120
wl = None  # the workloads module, imported after the timed package import


class FubiniGrid:
    def __init__(self, seed: int):
        import choquet_lab as cl
        from choquet_lab import fixtures

        self.cl, self.seed = cl, seed
        self.families = {
            "identity": fixtures.identity_family(wl.K),
            "power": fixtures.square_family(wl.K),
            "pwl": cl.SectionFamily.homothetic(
                cl.Distortion.piecewise_linear(wl.pwl_knots(seed)), K=wl.K
            ),
            "sectioned": fixtures.intro_sectioned_family(wl.K),
        }

    def prepare(self, index: int, warm: bool):
        values = wl.fubini_values(self.seed, index, warm)
        sections = tuple(self.cl.StepFunction.on_grid(row) for row in values)
        return self.families[wl.kind_of("fubini-grid", index)], self.cl.ProductStepFunction(sections)

    def call(self, fam, f) -> dict:
        # Package attributes are looked up per call, so a traced run sees the wrappers.
        rep = self.cl.fubini_check(fam, f, tnodes=wl.TNODES)
        return {"lhs": rep.lhs, "rhs": rep.rhs, "tnodes": rep.tnodes}


class Equilibrium:
    HALF = (0.5, 0.5)

    def __init__(self, seed: int):
        import choquet_lab as cl
        from choquet_lab import fixtures

        self.cl, self.seed = cl, seed
        self.cd, self.cd_alloc, _ = fixtures.cobb_douglas_economy(wl.K)
        self.split = fixtures.split_dominance_economy(wl.K)
        self.full = fixtures.full_dominance_economy(wl.K)

    def prepare(self, index: int, warm: bool):
        return wl.kind_of("equilibrium", index), wl.equilibrium_seed(self.seed, index, warm)

    def call(self, kind: str, seed: int) -> dict:
        cl = self.cl
        if kind == "find-price":
            res = cl.find_price(self.cd, self.cd_alloc, samples=200, seed=seed)
            walras = cl.check_walras(self.cd, self.cd_alloc, res.price) if res.found else None
            return {"found": res.found, "price": None if walras is None else res.price.tolist(),
                    "verdict": None if walras is None else walras.verdict}
        if kind in ("improve", "strongly-improve"):
            mode, budget = ("improve", 500) if kind == "improve" else ("strongly_improve", 100)
            res = cl.search_improvement(self.cd, self.cd_alloc, mode, budget=budget, seed=seed)
            return {"report": type(res).__name__, "mode": res.mode}
        if kind == "split-endowment":
            rep = cl.endowment_is_walrasian(self.split, seed=seed)
            return {"verdict": rep.verdict, "price_failure": rep.price_failure is not None}
        rep = cl.check_walras(self.full, self.full.endowment, self.HALF)
        return {"verdict": rep.verdict}


class CliShort:
    """Each job is one ``python -m choquet_lab.cli`` process on the checkout's src."""

    def __init__(self, seed: int, root: Path, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.traced = None  # Tracer collecting the children's summaries
        self.interpreter_s = self.import_s = 0.0
        self.records = []  # the children's span records

    def prepare(self, index: int, warm: bool):
        job = wl.cli_job(self.seed, index, warm)
        jobdir = self.workdir / f"{'warm' if warm else 'job'}-{index}"
        jobdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, obj in job["files"].items():
            paths[name] = str(jobdir / name)
            Path(paths[name]).write_text(wl.file_text(obj), encoding="utf-8")
        return [paths.get(arg, arg) for arg in job["args"]], jobdir

    def call(self, args: list, jobdir: Path) -> dict:
        if self.traced is None:
            argv = [sys.executable, "-m", "choquet_lab.cli", *args]
        else:
            summary = jobdir / "trace.json"
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(summary),
                    repr(time.monotonic()), *args]
        proc = subprocess.run(argv, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S, stdin=subprocess.DEVNULL)
        if self.traced is not None:
            child = json.loads(summary.read_text(encoding="utf-8"))
            self.traced.merge(child)
            self.interpreter_s += child["interpreter_s"]
            self.import_s += child["import_s"]
            self.records.extend(dict(r, job=self.traced.job) for r in child["records"])
        return {"code": proc.returncode, "stdout": proc.stdout}


def run_jobs(bench, workload: str, indices, tracer=None) -> tuple[list, float]:
    """Run the jobs in order, one in flight; returns records and loop wall time."""
    records = []
    loop_start = time.perf_counter()
    for index in indices:
        prepared = bench.prepare(index, False)
        start = time.perf_counter()
        try:
            if tracer is None:
                out, error = bench.call(*prepared), None
            else:
                out, error = tracer.run_job(index, bench.call, *prepared), None
        except Exception as exc:  # a failed job is counted and the run goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        records.append({"index": index, "kind": wl.kind_of(workload, index),
                        "latency_s": latency, "out": out, "error": error})
    return records, time.perf_counter() - loop_start


def main() -> int:
    global wl
    # SIGTERM unwinds like an exception, so subprocess.run stops a running CLI child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--first", type=int, default=0)
    ap.add_argument("--count", type=int, default=0)
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workdir", required=True, type=Path)
    ap.add_argument("--trace-out", type=Path)
    args = ap.parse_args()

    import_s = 0.0
    if args.workload != "cli-short":  # cli-short imports the package in its children
        t0 = time.monotonic()
        import choquet_lab  # noqa: F401

        import_s = time.monotonic() - t0
    import workloads

    wl = workloads
    if args.workload == "cli-short":
        bench = CliShort(args.seed, args.root, args.workdir)
    else:
        bench = (FubiniGrid if args.workload == "fubini-grid" else Equilibrium)(args.seed)
    kinds = len(wl.KINDS[args.workload])
    for k in range(kinds):  # warm-up: one untimed job of each kind
        try:
            bench.call(*bench.prepare(k, True))
        except Exception:  # the same job fails, and is counted, when timed
            pass
    result = {"t_start": T_START, "t_ready": time.monotonic(), "import_s": import_s}

    if args.trace_out is None:
        jobs = range(args.first, args.first + args.count)
        result["jobs"], result["loop_s"] = run_jobs(bench, args.workload, jobs)
    else:
        from tracer import Tracer

        untraced, wall = run_jobs(bench, args.workload, range(kinds))
        tracer = Tracer()
        if isinstance(bench, CliShort):
            bench.traced = tracer
        else:
            tracer.install()
        traced, traced_wall = run_jobs(bench, args.workload, range(kinds), tracer)
        tracer.uninstall()
        layers = tracer.metrics()
        if isinstance(bench, CliShort):
            tracer.dump(args.trace_out, bench.records)
            layers["cli.interpreter_s"], layers["cli.import_s"] = bench.interpreter_s, bench.import_s
        else:  # this interpreter; run.py adds its start-up time
            tracer.dump(args.trace_out)
            layers["cli.interpreter_s"], layers["cli.import_s"] = 0.0, import_s
        layers["trace.overhead_s"] = traced_wall - wall
        result.update(jobs=untraced + traced, loop_s=wall, layers=layers)

    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["child_peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
