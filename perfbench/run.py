"""genecluster benchmark: one command prints every metric by name and unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is one closed-loop caller in one process: each `run_pipeline` call
starts when the previous one has ended, for S seconds and at least once per
input of the seed (workloads.py), after untimed warm-up calls. Every call
passes the correctness gate (gate.py) or counts as failed.

--trace 0 reports the end-to-end metrics. Each call of the code under test
is paired with a call of the frozen seed code (seedcode.py) on the same
input, half of the pairs in each order; the typical time of one call is
the typical ratio of a pair's times (typical_ratio) scaled by the frozen
code's recorded time, so the host's drift cancels. Input cells per
second follow from that time. The peak RSS is that of one call in a fresh
process. Set-up time is measured the same way as call time, in pairs of
fresh processes spread evenly over the run; their time is not counted in
the run's seconds.
--trace 1 rotates untraced and traced calls (spans.py) and reports the
per-layer metrics. The last line of stdout is the JSON result.
"""

import argparse
import contextlib
import dataclasses
import io
import json
import math
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
SETUP_PAIRS = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "run_s": "s",
    "cells_per_s": "cells/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "matrix.read_s": "s",
    "matrix.read_cells_per_s": "cells/s",
    "matrix.filter_s": "s",
    "matrix.genes_dropped": "count",
    "matrix.normalize_s": "s",
    "matrix.discretize_s": "s",
    "matrix.write_s": "s",
    "matrix.bytes_written": "bytes",
    "matrix.self_s": "s",
    "roughset.build_table_s": "s",
    "roughset.reduct_s": "s",
    "roughset.rounds": "count",
    "roughset.forced_rounds": "count",
    "roughset.candidates_scored": "count",
    "roughset.s_per_candidate": "s",
    "roughset.selected": "count",
    "roughset.peak_mb": "MiB",
    "roughset.self_s": "s",
    "clustering.cluster_s": "s",
    "clustering.iterations": "count",
    "clustering.s_per_iter": "s",
    "clustering.label_changes": "count",
    "clustering.shortcut_kept_frac": "ratio",
    "clustering.assign_bytes_computed": "bytes",
    "clustering.peak_mb": "MiB",
    "clustering.self_s": "s",
    "evaluation.silhouette_s": "s",
    "evaluation.points": "count",
    "evaluation.pairwise_bytes_computed": "bytes",
    "evaluation.peak_mb": "MiB",
    "evaluation.self_s": "s",
    "pipeline.write_s": "s",
    "pipeline.artifact_bytes": "bytes",
    "pipeline.self_s": "s",
    "pipeline.traced_run_s": "s",
    "pipeline.trace_overhead_s": "s",
}
LAYERS = ("matrix", "roughset", "clustering", "evaluation", "pipeline")

# report.timings stage -> the spans that run inside it
STAGE_SPANS = {
    "parse": ("matrix.read_matrix",),
    "filter": ("matrix.drop_incomplete_genes",),
    "normalize": ("matrix.min_max_normalize",),
    "discretize": ("matrix.discretize",),
    "select": ("roughset.build_table", "roughset.usqr_reduct", "matrix.subset_genes"),
    "cluster": ("clustering.cluster_pipeline",),
    "evaluate": ("evaluation.silhouette_scores",),
}
# a stage timer may exceed its spans only by call overhead
CROSS_CHECK_SLACK_S = 0.005
CROSS_CHECK_SLACK_FRAC = 0.05


class Bench:
    """One benchmark run of one workload and seed: its inputs, gate and counters."""

    def __init__(self, workload, seed, pins):
        import genecluster
        import seedcode
        from gate import Gate
        from workloads import input_paths

        self.workload = workload
        self.seed = seed
        self.current = genecluster
        self.frozen = seedcode.load()
        self.dir = env.WORK / workload.name
        self.inputs = input_paths(seed, self.dir)
        self.out = self.dir / "out"
        self.gate = Gate(workload, pins)
        self.orders = {s: random.Random(f"{seed} {s}") for s in ("calls", "setup")}
        self.drawn = {}
        self.attempted = 0
        self.failed = 0

    def write_inputs(self):
        """Write the seed's inputs from this process; set-up is timed in setup_pair."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for input_seed, path in self.inputs:
            self.workload.write_input(self.current, input_seed, path)

    def setup_pair(self, j):
        """Set-up times of the current and the frozen code, one fresh process each.

        Each process imports its package and writes input j."""
        input_seed, path = self.inputs[j % len(self.inputs)]
        times = {}
        for code in ("current", "seed")[:: 1 if self.current_first("setup", j) else -1]:
            copy = self.dir / f"setup-input-{code}.tsv"
            times[code] = self._child("setup", input_seed, copy, code)["setup_s"]
            if copy.read_bytes() != path.read_bytes():
                raise SystemExit(f"perfbench: set-up by the {code} code wrote another input")
        return times["current"], times["seed"]

    def call(self, i, run=None):
        """One gated call of the code under test on input i (cyclically).

        `run` replaces run_pipeline, as a traced call does. Returns
        (seconds, report, passed)."""
        input_seed, path = self.inputs[i % len(self.inputs)]
        shutil.rmtree(self.out, ignore_errors=True)
        cfg = self.workload.config(self.current, input_seed, path, self.out)
        run = run or self.current.run_pipeline
        self.attempted += 1
        report = None
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            try:
                report = run(cfg)
            except Exception as err:  # any raise is a failed run, counted below
                self.gate.fail(f"run_pipeline raised {type(err).__name__}: {err}")
            seconds = time.perf_counter() - start
        ok = report is not None and self.gate.check(self.out, input_seed) is not None
        self.failed += not ok
        return seconds, report, ok

    def frozen_call(self, i):
        """Seconds of one call of the frozen copy on input i (cyclically).

        Only the code under test is gated and counted: the frozen copy's
        reports are the ones pins.json was recorded from, and a raise here
        means the benchmark itself is broken."""
        input_seed, path = self.inputs[i % len(self.inputs)]
        shutil.rmtree(self.out, ignore_errors=True)
        cfg = self.workload.config(self.frozen, input_seed, path, self.out)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            self.frozen.run_pipeline(cfg)
            return time.perf_counter() - start

    def current_first(self, stream, i):
        """Whether the code under test goes first in pair i of a stream.

        Pairs 2k and 2k+1 take opposite orders, so each order has half the
        pairs. Which of the two comes first is drawn from the seed: in
        trials a strict alternation fell into step with a periodic load on
        the host and favoured one side for a whole run."""
        if i % 2 == 0:
            self.drawn[stream] = self.orders[stream].random() < 0.5
        return self.drawn[stream] == (i % 2 == 0)

    def pair(self, i):
        """The code under test's call() and the frozen copy's seconds on input i,
        in the order current_first gives."""
        if self.current_first("calls", i):
            current = self.call(i)
            return current, self.frozen_call(i)
        frozen_s = self.frozen_call(i)
        return self.call(i), frozen_s

    def peak_rss_mb(self, i):
        """Peak RSS of one pipeline call on input i, in a fresh process.

        The figure includes the interpreter and the imported modules."""
        input_seed, path = self.inputs[i]
        shutil.rmtree(self.out, ignore_errors=True)
        self.attempted += 1
        try:
            out = self._child("run", input_seed, path, self.out)
        except subprocess.CalledProcessError as err:
            self.gate.fail(f"fresh-process run failed: {err.stderr.strip()[-200:]}")
            self.failed += 1
            return None
        if self.gate.check(self.out, input_seed) is None:
            self.failed += 1
        return out["peak_rss_mb"]

    def _child(self, mode, *args):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode,
             json.dumps(dataclasses.asdict(self.workload)), *map(str, args)],
            capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def closed_loop(seconds, minimum, step, aside=None):
    """Call step(i) back to back until the calls have taken `seconds` and `minimum` are made.

    aside(elapsed), if given, runs before each call with the calls' time so
    far; its own time is not counted.
    """
    elapsed, i = 0.0, 0
    while i < minimum or elapsed < seconds:
        if aside is not None:
            aside(elapsed)
        start = time.perf_counter()
        step(i)
        elapsed += time.perf_counter() - start
        i += 1


def typical_ratio(ratios):
    """Hodges-Lehmann estimate of the typical ratio: the median of all pairwise
    means of the log ratios. It keeps the median's robustness to a pair that
    the host disturbed, with less scatter from run to run."""
    logs = [math.log(r) for r in ratios]
    return math.exp(statistics.median((a + b) / 2 for i, a in enumerate(logs) for b in logs[i:]))


def tail(samples):
    """Highest nearest-rank percentile with at least ten samples above it.

    With eleven samples or fewer no percentile has ten above it, and the
    rule's limit, the lowest sample, is returned. Returns the value and its
    percentile."""
    xs = sorted(samples)
    i = max(len(xs) - 11, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(bench, seconds):
    bench.write_inputs()
    bench.call(0)  # warm-up, gated but not timed
    bench.frozen_call(0)  # warm-up, not timed
    pairs, setup = [], []
    genes = [0] * len(bench.inputs)  # genes clustered, from each input's report

    def step(i):
        (current_s, report, _), frozen_s = bench.pair(i)
        pairs.append((bench.inputs[i % len(bench.inputs)][0], current_s, frozen_s))
        if report is not None:
            genes[i % len(genes)] = report.shape_after[0]

    def aside(elapsed):
        if len(setup) < SETUP_PAIRS and elapsed >= len(setup) * seconds / SETUP_PAIRS:
            setup.append(bench.setup_pair(len(setup)))

    # at least one pair per input, so that every run covers all of them
    closed_loop(seconds, len(bench.inputs), step, aside)
    while len(setup) < SETUP_PAIRS:
        setup.append(bench.setup_pair(len(setup)))
    heaviest = max(range(len(genes)), key=genes.__getitem__)
    peak = bench.peak_rss_mb(heaviest)
    w = bench.workload
    run_ratio = typical_ratio([c / f for _, c, f in pairs])
    setup_ratio = typical_ratio([c / f for c, f in setup])
    metrics = {
        "run_s": w.seed_run_s * run_ratio,
        "cells_per_s": w.cells / (w.seed_run_s * run_ratio),
        "peak_rss_mb": peak,
        "setup_s": w.seed_setup_s * setup_ratio,
    }
    notes = {
        "run_s": f"{w.seed_run_s} s x typical ratio {run_ratio:.4f} of {len(pairs)} pairs",
        "cells_per_s": f"{w.cells} input cells / run_s",
        "peak_rss_mb": f"one call on input {bench.inputs[heaviest][0]} in a fresh process",
        "setup_s": f"{w.seed_setup_s} s x typical ratio {setup_ratio:.4f} of {len(setup)} pairs",
    }

    def median(xs):
        return f"{statistics.median(xs):.4f}"

    tail_s, tail_p = tail([w.seed_run_s * c / f for _, c, f in pairs])
    lines = [
        f"call tail  {tail_s:.4f} s at p{tail_p:.1f} of {len(pairs)} pairs"
        " (seed_run_s x pair ratio; not declared: it needs more than 11 pairs"
        " to lie above the lowest)",
        "raw medians  call current {} s, seed {} s;  set-up current {} s, seed {} s".format(
            median([c for _, c, _ in pairs]), median([f for _, _, f in pairs]),
            median([c for c, _ in setup]), median([f for _, f in setup]),
        ),
        "call pairs (input seed=current/seed s)  "
        + "  ".join(f"{s}={c:.4f}/{f:.4f}" for s, c, f in pairs),
        "set-up pairs (current/seed s)  " + "  ".join(f"{c:.4f}/{f:.4f}" for c, f in setup),
    ]
    return metrics, notes, lines


def layer_metrics(spans, report, out_dir):
    """Per-layer times and counts of one traced call, from its spans and returned objects."""
    from spans import self_times

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    def info(name, key):
        return sum(s.info.get(key, 0) for s in spans if s.name == name)

    own = self_times(spans)
    read_s = total("matrix.read_matrix")
    reduct_s = total("roughset.usqr_reduct")
    candidates = info("roughset.usqr_reduct", "candidates_scored")
    cluster_s = total("clustering.cluster_pipeline")
    iterations = info("clustering.cluster_pipeline", "iterations")
    tested = info("clustering.cluster_pipeline", "shortcut_tested")
    n, k, d = (info("clustering.cluster_pipeline", key) for key in ("points", "k", "dims"))
    sil_n = info("evaluation.silhouette_scores", "points")
    sil_d = info("evaluation.silhouette_scores", "dims")
    (root,) = [s for s in spans if s.parent is None]
    return {
        "matrix.read_s": read_s,
        "matrix.read_cells_per_s": info("matrix.read_matrix", "cells") / read_s,
        "matrix.filter_s": total("matrix.drop_incomplete_genes"),
        "matrix.genes_dropped": info("matrix.drop_incomplete_genes", "genes_dropped"),
        "matrix.normalize_s": total("matrix.min_max_normalize"),
        "matrix.discretize_s": total("matrix.discretize"),
        "matrix.write_s": total("matrix.write_matrix"),
        "matrix.bytes_written": info("matrix.write_matrix", "bytes"),
        "matrix.self_s": own.get("matrix", 0.0),
        "roughset.build_table_s": total("roughset.build_table"),
        "roughset.reduct_s": reduct_s,
        "roughset.rounds": info("roughset.usqr_reduct", "rounds"),
        "roughset.forced_rounds": info("roughset.usqr_reduct", "forced_rounds"),
        "roughset.candidates_scored": candidates,
        "roughset.s_per_candidate": reduct_s / candidates if candidates else 0.0,
        "roughset.selected": info("roughset.usqr_reduct", "selected"),
        "roughset.self_s": own.get("roughset", 0.0),
        "clustering.cluster_s": cluster_s,
        "clustering.iterations": iterations,
        "clustering.s_per_iter": cluster_s / iterations,
        "clustering.label_changes": info("clustering.cluster_pipeline", "label_changes"),
        "clustering.shortcut_kept_frac": (
            info("clustering.cluster_pipeline", "shortcut_kept") / tested if tested else 0.0
        ),
        "clustering.assign_bytes_computed": n * k * d * 8,
        "clustering.self_s": own.get("clustering", 0.0),
        "evaluation.silhouette_s": total("evaluation.silhouette_scores"),
        "evaluation.points": sil_n,
        "evaluation.pairwise_bytes_computed": sil_n * sil_n * sil_d * 8,
        "evaluation.self_s": own.get("evaluation", 0.0),
        "pipeline.write_s": report.timings["write"],
        "pipeline.artifact_bytes": sum(p.stat().st_size for p in Path(out_dir).iterdir()),
        "pipeline.self_s": own.get("pipeline", 0.0),
        "pipeline.traced_run_s": root.duration,
    }


def peak_metrics(spans):
    """Peak traced memory above its start of each layer's largest span, in MiB."""
    return {
        f"{layer}.peak_mb": max(
            (s.peak_bytes - s.base_bytes for s in spans if s.layer == layer), default=0
        ) / 2**20
        for layer in ("roughset", "clustering", "evaluation")
    }


def cross_check(spans, timings):
    """Largest gap between a stage timer in report.timings and its spans; None if one fails."""
    worst = 0.0
    for stage, names in STAGE_SPANS.items():
        inside = sum(s.duration for s in spans if s.name in names)
        gap = timings[stage] - inside
        if gap < 0 or gap > CROSS_CHECK_SLACK_S + CROSS_CHECK_SLACK_FRAC * timings[stage]:
            return None
        worst = max(worst, gap)
    writes = sum(s.duration for s in spans if s.name == "matrix.write_matrix")
    return worst if writes <= timings["write"] else None


def per_layer(bench, seconds):
    from spans import Recorder

    bench.write_inputs()
    bench.call(0)  # warm-up, gated but not timed
    timed, memory = Recorder(memory=False), Recorder(memory=True)
    untraced, traced, peaks, gaps = [], [], [], []

    def traced_call(recorder):
        first = len(recorder.spans)
        with recorder.installed() as run:
            _, report, ok = bench.call(0, run)
        spans = recorder.spans[first:]
        if not ok:
            return None
        gap = cross_check(spans, report.timings)
        if gap is None:
            bench.gate.fail("span durations disagree with report.timings")
            bench.failed += 1
            return None
        gaps.append(gap)
        return spans, report

    def untraced_call():
        untraced.append(bench.call(0)[0])

    def timed_call():
        result = traced_call(timed)
        if result is not None:
            traced.append(layer_metrics(*result, bench.out))

    def memory_call():
        result = traced_call(memory)
        if result is not None:
            peaks.append(peak_metrics(result[0]))

    calls = (untraced_call, timed_call, memory_call)

    def rotation(i):
        # The order rotates so that no kind of call always runs first. Every
        # call is on the first input, so counts repeat exactly from run to run.
        for call in calls[i % 3:] + calls[:i % 3]:
            call()

    closed_loop(seconds, 1, rotation)
    if not traced or not peaks:
        raise SystemExit("perfbench: no traced call passed the gate")
    metrics = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    metrics.update(
        {name: statistics.median(m[name] for m in peaks) for name in peaks[0]}
    )
    metrics["pipeline.trace_overhead_s"] = (
        metrics["pipeline.traced_run_s"] - statistics.median(untraced)
    )
    bench.dir.joinpath("spans.json").write_text(
        json.dumps([vars(s) for s in timed.spans + memory.spans]) + "\n"
    )
    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    notes = {
        "pipeline.traced_run_s": f"median of {len(traced)} traced calls",
        "pipeline.trace_overhead_s": f"traced minus {len(untraced)} untraced calls",
    }
    for name in PER_LAYER:
        if name.endswith(".peak_mb"):
            notes[name] = f"median of {len(peaks)} calls under tracemalloc"
    lines = [
        f"self times   layers + pipeline.self_s = {sum(selfs.values()):.6f} s"
        f" of traced run_s {metrics['pipeline.traced_run_s']:.6f} s;"
        f" dominant layer {max(selfs, key=selfs.get)}",
        f"cross-check  spans within {max(gaps):.6f} s of report.timings in every stage",
    ]
    return metrics, notes, lines


def print_result(bench, metrics, units, notes, lines, args):
    print(f"workload {bench.workload.name}  seed {bench.seed}  trace {args.trace}"
          f"  seconds {args.seconds}")
    print("environment  " + "  ".join(f"{k}={v}" for k, v in env.environment().items()))
    print(f"correctness  attempted {bench.attempted}  failed {bench.failed}"
          f"  failed_frac {bench.failed / bench.attempted:.4f}")
    print("report hashes  " + "  ".join(f"{s}={h}" for s, h in bench.gate.hashes.items()))
    for reason, count in bench.gate.reasons.items():
        print(f"  failure x{count}: {reason}")
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]!r:>24} {unit:8s} {notes.get(name, '')}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))


def run(args, workload, pins):
    bench = Bench(workload, args.seed, pins)
    if args.trace:
        metrics, notes, lines = per_layer(bench, args.seconds)
        units = PER_LAYER
    else:
        metrics, notes, lines = end_to_end(bench, args.seconds)
        units = END_TO_END
    print_result(bench, metrics, units, notes, lines, args)


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv):
    env.prepare()
    from gate import load_pins
    from workloads import WORKLOADS

    args = parse_args(argv, list(WORKLOADS))
    run(args, WORKLOADS[args.workload], load_pins())


if __name__ == "__main__":
    main(sys.argv[1:])
