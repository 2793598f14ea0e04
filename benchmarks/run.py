#!/usr/bin/env python3
"""choquet-lab benchmark: run one workload, check every result, print its metrics.

    python3 benchmarks/run.py --workload fubini-grid --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; every job uses the package under ./src,
never an installed copy.  Workloads (see BENCHMARK.json for why each one):

* ``fubini-grid``: one ``fubini_check`` per job, K=100 x 1000 cells x 1e4
  t-nodes, rotating over identity, power, pwl and sectioned families;
* ``equilibrium``: price search with Walras check, both improvement
  searches, the split-dominance endowment and the full-dominance Walras check;
* ``cli-short``: one ``python -m choquet_lab.cli`` process per job.

Load is a closed loop with one client: one job in flight at a time.  A run
starts SETUP_RUNS fresh interpreters one after another.  Each sets up
(interpreter start to first timed job; ``setup_s`` is the median) and then
times its share of the run's jobs, so the timed work is spread over the whole
run rather than one stretch of the host's speed, which drifts by up to 2x
for minutes on a shared machine.  ``--trace 1`` runs one rotation untraced and
the same jobs traced, and reports the per-layer metrics; its spans go to
``benchmarks/out/``.  Every job's output is checked by an oracle
in ``workloads.py``.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line starting
with ``record`` before it holds the environment and every metric shown.
"""

import os

# Pin the BLAS/OpenMP pools of this process and of every process it starts.
THREAD_PINS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "BLIS_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SETUP_RUNS = 3
# Seconds of --seconds that buy one rotation over all kinds: about the
# baseline rotation time, less for equilibrium, whose 0.25-2 s jobs need more
# rotations to average out the host's speed drift.  The job count of a run
# depends on --seconds and these constants only, so it stays the same when
# the program gets faster, and so does the percentile job_tail_s reads.
ROTATION_S = {"fubini-grid": 3.0, "equilibrium": 3.3, "cli-short": 5.5}
DEADLINE_S = 170  # every process of a run ends within this many seconds
END_TO_END = {"setup_s": "s", "jobs_per_s": "1/s", "peak_rss_mb": "MB"}
# Printed and recorded with the end-to-end metrics, but not in BENCHMARK.json:
# the host's speed flips between two states for minutes at a time, and a
# median of job latencies follows whichever state held most of a run, so its
# run-to-run spread exceeds any bound BENCHMARK.json allows.  jobs_per_s, a
# mean over the run, carries the latency gate (one client: 1/jobs_per_s is
# the mean job latency).
UNGATED = {"job_p50_s": "s", "job_tail_s": "s"}
PER_LAYER = {
    "intervals.calls": "count",
    "intervals.self_s": "s",
    "measures.mu_calls": "count",
    "measures.g_calls": "count",
    "measures.self_s": "s",
    "choquet.calls": "count",
    "choquet.cells": "count",
    "choquet.self_s": "s",
    "product.calls": "count",
    "product.self_s": "s",
    "economy.self_s": "s",
    "economy.excess_points": "count",
    "economy.excess_kept_ratio": "ratio",
    "economy.candidates": "count",
    "economy.prefers_calls": "count",
    "lp.calls": "count",
    "lp.s": "s",
    "lp.failed": "count",
    "io.self_s": "s",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The run cannot produce a result."""


def tail(latencies: list) -> tuple[float, float]:
    """The highest percentile that still has ten jobs beyond it, and its rank."""
    ordered = sorted(latencies)
    rank = len(ordered) - 11
    if rank < 0:
        raise BenchError(f"{len(ordered)} jobs are too few for a tail percentile")
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def rotations(workload: str, seconds: int) -> int:
    """Whole rotations a run times: at least one per set-up interpreter."""
    return max(SETUP_RUNS, round(seconds / ROTATION_S[workload]))


def start_worker(args, root: Path, workdir: Path, deadline: float, extra: list):
    """Run worker.py in a fresh interpreter; returns its result and spawn time."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--root", str(root), "--workdir", str(workdir), *extra]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    spawned_at = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"a worker passed the {DEADLINE_S}s deadline") from None
    finally:
        if proc.poll() is None:  # deadline or SIGTERM: stop the worker and its child
            proc.terminate()
            try:
                proc.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"a worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.splitlines()[-1]), spawned_at


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from its .git directory; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, args) -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "choquet_lab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(root),
        "src_sha256": digest.hexdigest(),
        "thread_pins": THREAD_PINS,
        "load": "closed loop, one client, one job in flight",
        "wait_s": "not applicable: single-threaded, no queue",
    }


def check(workload: str, seed: int, jobs: list) -> list[str]:
    """One line per failed job: it raised, or its oracle rejected the output."""
    failures = []
    for job in jobs:
        reason = job["error"] or wl.check_job(workload, seed, job["index"], job["out"])
        if reason:
            failures.append(f"job {job['index']} ({job['kind']}): {reason}")
    return failures


def measure(args, root: Path, workdir: Path, deadline: float) -> tuple[dict, list, dict]:
    """Untraced run: end-to-end metrics, job records and notes for the record."""
    kinds = len(wl.KINDS[args.workload])
    total = rotations(args.workload, args.seconds)
    setups, jobs, loop_s, rss_kb = [], [], 0.0, 0
    rss_key = "child_peak_rss_kb" if args.workload == "cli-short" else "peak_rss_kb"
    for i in range(SETUP_RUNS):
        count = kinds * (total // SETUP_RUNS + (i < total % SETUP_RUNS))
        res, spawned_at = start_worker(args, root, workdir, deadline,
                                       ["--first", str(len(jobs)), "--count", str(count)])
        setups.append(res["t_ready"] - spawned_at)
        jobs += res["jobs"]
        loop_s += res["loop_s"]
        rss_kb = max(rss_kb, res[rss_key])
    latencies = [job["latency_s"] for job in jobs]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(latencies) / loop_s,
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {"setup_samples_s": setups, "job_tail_percentile": tail_pct, "jobs": len(latencies)}
    return metrics, jobs, notes


def trace(args, root: Path, workdir: Path, deadline: float) -> tuple[dict, list, dict]:
    """Traced run: per-layer metrics of one rotation, job records, notes."""
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
    res, spawned_at = start_worker(args, root, workdir, deadline, ["--trace-out", str(trace_out)])
    metrics = res["layers"]
    if args.workload != "cli-short":  # the workload's own interpreter start-up
        metrics["cli.interpreter_s"] = res["t_start"] - spawned_at
    notes = {"spans": str(trace_out.relative_to(root)), "jobs": len(res["jobs"]) // 2}
    return metrics, res["jobs"], notes


def _exit_on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through the finally blocks that stop workers


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.KINDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "choquet_lab" / "__init__.py").is_file():
        print(f"error: {root} holds no src/choquet_lab; run from a checkout's root",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = root / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        metrics, jobs, notes = (trace if args.trace else measure)(args, root, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    failures = check(args.workload, args.seed, jobs)
    units = PER_LAYER if args.trace else END_TO_END
    shown = PER_LAYER if args.trace else {**END_TO_END, **UNGATED}
    record = dict(environment(root, args), **notes, failed_ratio=len(failures) / len(jobs),
                  failures=failures, metrics={name: metrics[name] for name in shown})
    print("record " + json.dumps(record))
    for line in failures:
        print("FAILED " + line)
    for name, unit in shown.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_ratio = {len(failures) / len(jobs):.6g} ratio ({len(failures)}/{len(jobs)})")
    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
