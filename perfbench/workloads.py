"""The benchmark's workloads: synthetic inputs and the pipeline settings.

Every input comes from `generate_synthetic(genes, conditions, 7,
noise=0.3, missing_fraction, seed=input seed)`, so one seed always gives the
same file. A benchmark seed s stands for the INPUTS_PER_SEED input seeds
s*INPUTS_PER_SEED, ..., s*INPUTS_PER_SEED + INPUTS_PER_SEED - 1, taken
modulo INPUT_POOL, and the calls of a run cycle through them. Every input
seed of the pool has a pinned report hash (pins.json), so every benchmark
seed is gated against known-good reports; seeds 40 and above reuse the
inputs of seeds 0-39.

Selection runs on 800 genes, not 1500: a 1500x20 call takes 3.5-6 s, so a
run would hold only a handful of call pairs (run.py); at 800 genes it
holds about fifteen. There is no 2000x20 --no-select workload: with three
workloads each run could last only 28 s, and ten-seed spreads stayed at
0.10-0.15 of the median; wide-missing-1500x60 already runs the silhouette
with ~1.2 GB of pairwise memory, and, unlike 2000x20, the NA filter and
the shortcut K-Means path too. Two inputs are deliberately absent:
4000x20 with selection takes about 40 s per run (it waits for a faster
reduct) and 16000x60 with --no-select is killed for memory (it waits for a
bounded-memory silhouette).

`seed_run_s` and `seed_setup_s` are the median times of one call and of one
set-up of the frozen seed code (seedcode.py) on a 2-core Intel Xeon VM,
recorded once; the benchmark reports times as these scaled by the ratio
of the code under test to the frozen copy, measured side by side.
"""

from dataclasses import dataclass
from pathlib import Path

PLANTED_CLUSTERS = 7
NOISE = 0.3
FORMATS = ("json", "tsv")
INPUTS_PER_SEED = 6
INPUT_POOL = 240  # input seeds 0..239, each pinned for every workload


def input_paths(seed, directory):
    """(input seed, file) for each input a benchmark seed stands for."""
    first = seed * INPUTS_PER_SEED
    return [
        ((first + j) % INPUT_POOL, Path(directory) / f"input-{j}.tsv")
        for j in range(INPUTS_PER_SEED)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    genes: int
    conditions: int
    missing_fraction: float
    select: bool
    k: int
    strategy: str
    mode: str
    why: str
    seed_run_s: float
    seed_setup_s: float

    @property
    def cells(self):
        return self.genes * self.conditions

    def write_input(self, package, input_seed, path):
        m, _ = package.generate_synthetic(
            self.genes, self.conditions, PLANTED_CLUSTERS, noise=NOISE,
            missing_fraction=self.missing_fraction, seed=input_seed,
        )
        package.write_matrix(m, path)

    def config(self, package, input_seed, input_path, out_dir):
        """Settings of one call; `package` is the code under test or its frozen copy."""
        return package.PipelineConfig(
            str(input_path), select=self.select, k=self.k, strategy=self.strategy,
            seed=input_seed if self.strategy == "random" else None, mode=self.mode,
            output_dir=str(out_dir), formats=FORMATS,
        )

    def artifacts(self):
        """Files a successful run must leave in its output directory."""
        names = [
            "normalized.tsv", "discretized.tsv", "assignment.json", "assignment.tsv",
            "silhouette.json", "silhouette.tsv", "report.json", "report.tsv",
        ]
        if self.select:
            names += ["selected.tsv", "reduct.json"]
        return sorted(names)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "select-800x20", 800, 20, 0.0, True, 3, "ecia", "exact",
            "selection on: the quick reduct is ~90% of a run and the silhouette of "
            "the few selected genes is negligible",
            1.34, 0.162,
        ),
        Workload(
            "wide-missing-1500x60", 1500, 60, 0.005, False, 7, "random", "shortcut",
            "60-wide rows with NA cells: parse, filter and write are a real share, "
            "K-Means runs the random/shortcut path, the silhouette is d-heavy",
            1.10, 0.361,
        ),
    )
}
