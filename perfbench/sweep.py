"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --seeds 0-9 --seconds 10
    python3 perfbench/sweep.py --seeds 0-9 --seconds 10 --record perfbench/trajectory/1-foo.json

For every workload and end-to-end metric it prints the median and the
spread, (Q3 - Q1) / median over the seeds, next to the metric's bound in
BENCHMARK.json. With --record it also makes one traced run per workload at
the default seed and writes both to a trajectory file. Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402
import workloads  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    stem = f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads((run.OUT_DIR / stem).read_text())
    return {"result": result, "record": record}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS))
    ap.add_argument("--record", type=Path, help="write a trajectory entry here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    entry: dict = {"seeds": args.seeds, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads:
        runs = [one_run(name, seed, args.seconds, 0) for seed in args.seeds]
        summary = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            med, q1, q3, rel = spread(values)
            summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                               "bound": bound, "values": values}
            print(f"{name:12s} {metric:22s} median {med:<12.6g} spread {rel:6.3f}"
                  f"  (bound {bound}, {'ok' if rel < bound / 3 else 'WIDE'})", flush=True)
        entry["workloads"][name] = {
            "inputs": [r["record"]["inputs"] for r in runs],
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "checks_at_default_seed": next(
                (r["record"]["checks"] for r in runs if r["record"]["seed"] == workloads.DEFAULT_SEED),
                None,
            ),
            "end_to_end": summary,
        }
        if args.record:
            traced = one_run(name, workloads.DEFAULT_SEED, args.seconds, 1)
            entry["workloads"][name]["per_layer_default_seed"] = {
                k: v["value"] for k, v in traced["result"]["metrics"].items()
            }
        entry["machine"] = runs[0]["record"]["machine"]
        entry["commit"] = runs[0]["record"]["commit"]
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(entry, indent=1) + "\n")


if __name__ == "__main__":
    main()
