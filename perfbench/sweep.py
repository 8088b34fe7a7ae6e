"""Repeat the benchmark over seeds and summarise its spread, or compare two sweeps.

    python3 perfbench/sweep.py --seeds 1-10 --out SWEEP.json [--trace 1]
    python3 perfbench/sweep.py --compare FIRST.json SECOND.json

A sweep runs `run.py` once per workload and seed, one after another, with
BENCHMARK.json's run_seconds, and reports for every metric the median and
the quartile spread (q3 - q1) / median over the seeds. A comparison reports,
for every end-to-end metric, how far the second sweep's median is worse than
the first's, against the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def sweep(workloads, seeds, trace, seconds):
    runs, summary = [], {}
    for name in workloads:
        values = {}
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=ROOT)
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            hashes = next(ln for ln in lines if ln.startswith("report hashes")).split()[2:]
            runs.append({"workload": name, "seed": seed, "trace": trace, **result,
                         "report_hashes": dict(h.split("=") for h in hashes),
                         "log": lines[:-1]})
            for metric, v in result["metrics"].items():
                values.setdefault(metric, []).append(v["value"])
            print(name, seed, "correct" if result["correct"] else "FAILED",
                  {m: round(v["value"], 4) for m, v in result["metrics"].items()}
                  if not trace else "", flush=True)
        summary[name] = {m: summarise(v) for m, v in values.items()}
        for m, s in summary[name].items():
            print(f"  {name:22s} {m:36s} median {s['median']:<14.6g} spread {s['spread']:.4f}")
    return {"runs": runs, "summary": summary}


def compare(first, second, bounds):
    worst = 0.0
    for name, metrics in first["summary"].items():
        for metric, bound in bounds.items():
            a = metrics[metric]["median"]
            b = second["summary"][name][metric]["median"]
            worse = (b - a) / a if bound["better"] == "lower" else (a - b) / a
            worst = max(worst, worse / bound["bound"])
            print(f"{name:22s} {metric:12s} {a:<12.6g} {b:<12.6g} worse by {worse:+.4f}"
                  f" (bound {bound['bound']})")
    return worst


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", help="FIRST-LAST")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        first, second = (json.loads(Path(f).read_text()) for f in args.compare)
        bounds = {m["name"]: m for m in bench["end_to_end"]}
        worst = compare(first, second, bounds)
        print(f"largest worsening as a share of its bound: {worst:.3f}")
        sys.exit(0 if worst <= 1 else 1)
    if not (args.seeds and args.out):
        p.error("--seeds and --out are required for a sweep")
    lo, hi = (int(x) for x in args.seeds.split("-"))
    names = [w["name"] for w in bench["workloads"]]
    result = sweep(names, range(lo, hi + 1), args.trace, bench["run_seconds"])
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
