"""The whole pipeline end to end on synthetic data, plus the multi-run check.

Run:  python3 demos/05_full_pipeline.py
"""

import tempfile
from pathlib import Path

from genecluster import (
    PipelineConfig,
    generate_synthetic,
    run_many,
    run_pipeline,
    write_matrix,
)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        matrix_path = tmp / "synthetic.tsv"

        # 90 genes in 5 planted groups over 12 conditions, mild noise and a
        # few missing entries to exercise the filter stage
        m, labels = generate_synthetic(
            genes=90, conditions=12, planted_clusters=5,
            noise=0.05, missing_fraction=0.02, seed=42,
        )
        write_matrix(m, matrix_path)
        print(f"wrote {m.n_genes} x {m.n_conditions} matrix, groups of {len(set(labels.tolist()))}")

        out = tmp / "artifacts"
        config = PipelineConfig(str(matrix_path), select=False, k=5, output_dir=str(out))
        print("\n== single run ==")
        report = run_pipeline(config)

        print("\nartifacts written:")
        for p in sorted(out.iterdir()):
            print(f"  {p.name}")
        print(f"report says shape {report.shape_before} -> {report.shape_after}")

        # deterministic seeding means repeated runs cannot drift
        print("\n== three repeated runs ==")
        result = run_many(PipelineConfig(str(matrix_path), select=False, k=5, runs=3))
        print(f"\nall reports identical: {result.summary['identical']}")


if __name__ == "__main__":
    main()
