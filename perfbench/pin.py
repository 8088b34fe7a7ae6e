"""Record the report hashes that gate.py pins, one per workload and input seed.

    python3 perfbench/pin.py

Pins every input seed of the pool (workloads.INPUT_POOL) for every
workload. Each hash is the sha256 of report.json with its timings removed,
from one run of the current code. Run it only on a commit whose reports are
known to be right.
"""

import contextlib
import io
import json
import shutil
import sys

import env


def pin_hash(workload, input_seed, work):
    """Report hash of one run of the current code on one input, made in `work`."""
    import genecluster
    from gate import report_hash

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.write_input(genecluster, input_seed, work / "input.tsv")
    cfg = workload.config(genecluster, input_seed, work / "input.tsv", work / "out")
    with contextlib.redirect_stdout(io.StringIO()):
        genecluster.run_pipeline(cfg)
    digest = report_hash(json.loads((work / "out" / "report.json").read_text()))
    shutil.rmtree(work, ignore_errors=True)
    return digest


def main(argv):
    if argv:
        raise SystemExit(__doc__)
    env.prepare()
    from gate import PINS, load_pins
    from workloads import INPUT_POOL, WORKLOADS

    pins = load_pins()
    for name, workload in WORKLOADS.items():
        for seed in range(INPUT_POOL):
            pins.setdefault(name, {})[str(seed)] = pin_hash(workload, seed, env.WORK / "pin")
            PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            print(name, seed, pins[name][str(seed)], flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
