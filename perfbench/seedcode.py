"""The pipeline as it was when the benchmark was added, as a speed reference.

`seed_code/genecluster/` is a frozen copy of the package at the commit that
added the benchmark (its command-line modules left out). `load()` imports
it under the name `genecluster_seed`, beside the package under test.

On a shared host the speed of the same call drifts by half over minutes, so
a run's raw wall times mostly measure the host. The benchmark therefore
times every call of the code under test next to a call of this frozen copy
on the same input, in alternating order, and reports the median ratio of
the two times scaled by the frozen copy's recorded time (workloads.py).
Host drift moves both calls of a pair alike and cancels in the ratio; a
change to the code under test does not touch the frozen copy and shows in
full. Never edit these files: the recorded times belong to them.
"""

import importlib.util
import sys
from pathlib import Path

NAME = "genecluster_seed"
PACKAGE = Path(__file__).resolve().parent / "seed_code" / "genecluster"


def load():
    if NAME in sys.modules:
        return sys.modules[NAME]
    spec = importlib.util.spec_from_file_location(
        NAME, PACKAGE / "__init__.py", submodule_search_locations=[str(PACKAGE)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[NAME] = module
    spec.loader.exec_module(module)
    return module
