#!/usr/bin/env python3
"""Record a point of the benchmark trajectory: every workload over many seeds.

    python3 benchmarks/baseline.py --seeds 1-10 --out benchmarks/BENCH_baseline.json

Runs ``run.py`` once per workload and seed with tracing off, then once per
workload with tracing on, from the current directory (a checkout's root).
For each end-to-end metric, and the latency percentiles run.py prints but
BENCHMARK.json does not gate, it stores the values, their median, quartiles
(``statistics.quantiles(values, n=4)``) and spread = (q3 - q1) / median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    record = json.loads(next(ln for ln in lines if ln.startswith("record "))[len("record "):])
    return json.loads(lines[-1]), record


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    seconds = spec["run_seconds"]
    gated = {m["name"] for m in spec["end_to_end"]}
    out = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values, attempted, failed = {}, 0, 0
        for seed in args.seeds:
            result, record = run_once(workload, seed, seconds, 0)
            attempted, failed = attempted + result["attempted"], failed + result["failed"]
            for name, value in record["metrics"].items():
                values.setdefault(name, []).append(value)
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        summary = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            summary[name] = {"gated": name in gated, "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "values": vals}
            print(f"  {name}: median {med:.6g} spread {(q3 - q1) / med:.4f}", flush=True)
        _, trace_record = run_once(workload, args.seeds[0], seconds, 1)
        out["environment"] = {k: record[k] for k in
                              ("nproc", "cpu", "python", "numpy", "scipy", "git_commit",
                               "src_sha256", "thread_pins", "load", "wait_s")}
        out["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "job_tail_percentile": record["job_tail_percentile"],
            "jobs_per_run": record["jobs"],
            "end_to_end": summary,
            "per_layer": {"seed": args.seeds[0], "jobs": trace_record["jobs"],
                          "metrics": trace_record["metrics"]},
        }
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
