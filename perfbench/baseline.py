"""Measure a baseline: several seeds per workload untraced, one traced run each.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed) with the run length
from BENCHMARK.json, then once per workload with ``--trace 1``.  For each
end-to-end metric it writes the median, the quartiles and their distance
as a share of the median (the spread the benchmark's bounds are set
against), and for the traced run every per-layer value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}: {done.stderr.strip()}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    names = args.workloads.split(",") if args.workloads else list(whys)
    out = {"run_seconds": seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for name in names:
        values, record = {}, None
        for seed in out["seeds"]:
            record, result = run(name, seed, seconds, 0)
            if not result["correct"]:
                raise RuntimeError(f"{name} seed {seed}: {record['failures']}")
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, {m: round(v["value"], 4) for m, v in result["metrics"].items()},
                  file=sys.stderr, flush=True)
        untraced = {}
        for metric, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            untraced[metric] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / statistics.median(vals), "values": vals}
        trace_record, traced = run(name, out["seeds"][0], seconds, 1)
        out["machine"] = record["machine"]
        out["workloads"][name] = {
            "why": whys[name],
            "sizes": record["sizes"],
            "untraced": untraced,
            "traced": {m: v["value"] for m, v in traced["metrics"].items()},
            "traced_absent": trace_record["absent"],
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
