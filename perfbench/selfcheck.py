"""Self-check of the benchmark itself, on tiny inputs, in well under a minute.

    python3 perfbench/selfcheck.py

For a tiny copy of every workload it pins the report hashes of the seed's
inputs from one run each (pin.py), then checks that
  * an untraced and a traced run pass the correctness gate,
  * a corrupted pinned report hash makes every run count as failed,
  * an input with no pinned hash makes every run count as failed,
  * the metric names and units printed, in the table and in the JSON result,
    are exactly those BENCHMARK.json declares.
Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import sys

import env

TINY = {"select-800x20": 200, "wide-missing-1500x60": 300}
SEED = 7
SECONDS = 0.2


def run_once(run, workload, trace, pins):
    args = argparse.Namespace(workload=workload.name, seed=SEED, seconds=SECONDS, trace=trace)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        run(args, workload, pins)
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def main():
    env.prepare()
    from pin import pin_hash
    from run import run
    from workloads import WORKLOADS, input_paths

    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
        1: {m["name"]: m["unit"] for m in declared["per_layer"]},
    }
    problems = []
    for name, genes in TINY.items():
        tiny = dataclasses.replace(WORKLOADS[name], name=f"tiny-{name}", genes=genes)
        pins = {
            str(s): pin_hash(tiny, s, env.WORK / "selfcheck-pin")
            for s, _ in input_paths(SEED, "")
        }
        for trace in (0, 1):
            lines, result = run_once(run, tiny, trace, {tiny.name: pins})
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{tiny.name} trace {trace}: metrics differ from BENCHMARK.json")
            unprinted = [m for m in want[trace] if not any(ln.startswith(m + " ") for ln in lines)]
            if unprinted:
                problems.append(f"{tiny.name} trace {trace}: not printed: {unprinted}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tiny.name} trace {trace}: runs failed the gate")
        corrupted = {s: ("0" if d[0] != "0" else "1") + d[1:] for s, d in pins.items()}
        for bad, what in ((corrupted, "a corrupted pinned hash"), ({}, "an unpinned input")):
            _, result = run_once(run, tiny, 0, {tiny.name: bad})
            if result["correct"] or result["failed"] != result["attempted"]:
                problems.append(f"{tiny.name}: {what} was not caught")
        print(f"{tiny.name}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
