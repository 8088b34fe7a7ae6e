"""One fresh process of the benchmark, started by run.py.

    child.py setup SPEC INPUT_SEED FILE CODE  import the package, generate one
                                              input and write it to FILE;
                                              print the set-up time
    child.py run SPEC INPUT_SEED INPUT OUT    one pipeline run; print its peak RSS

SPEC is a workloads.Workload as a JSON object. CODE is `current` for the
package under test or `seed` for its frozen copy (seedcode.py).

A fresh process is the only way to read one run's peak resident memory
without an earlier run's high-water mark hiding it; the figure is the
process's own VmHWM, which, unlike ru_maxrss, does not inherit the peak of
the benchmark process that started it.
"""

import contextlib
import io
import json
import sys
import time

import env


def main(argv):
    start = time.perf_counter()
    env.prepare()
    from workloads import Workload

    mode, spec, seed, path = argv[:4]
    workload, seed = Workload(**json.loads(spec)), int(seed)
    if mode == "setup":
        if argv[4] == "seed":
            import seedcode

            package = seedcode.load()
        else:
            import genecluster as package
        workload.write_input(package, seed, path)
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return
    import genecluster

    cfg = workload.config(genecluster, seed, path, argv[4])
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        genecluster.run_pipeline(cfg)
    run_s = time.perf_counter() - start
    print(json.dumps({"run_s": run_s, "peak_rss_mb": vm_hwm_kib() / 1024}))


def vm_hwm_kib():
    """This process's peak RSS in KiB, from /proc/self/status.

    VmHWM belongs to the address space made at exec, so unlike getrusage's
    ru_maxrss it never carries the high-water mark of the parent that
    started the process.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("perfbench: no VmHWM in /proc/self/status")


if __name__ == "__main__":
    main(sys.argv[1:])
