"""Rough-set gene selection, from indiscernibility up to the greedy reduct.

Conditions are the objects and genes the attributes: a gene earns its keep
by helping tell the experimental conditions apart.

Run:  python3 demos/02_gene_selection.py
"""

import numpy as np

from genecluster import (
    ExpressionMatrix,
    InformationTable,
    NormalizationParams,
    build_table,
    dependency,
    discretize,
    indiscernibility_partition,
    mean_dependency,
    min_max_normalize,
    positive_region,
    select_genes,
    usqr_reduct,
)


def hand_table():
    # four conditions described by two categorical attributes
    values = [[1, 1], [1, 0], [0, 0], [0, 0]]
    return InformationTable(("mon", "tue", "wed", "thu"), ("a1", "a2"), values)


def show_basics():
    t = hand_table()
    part = indiscernibility_partition(t, ("a1", "a2"))
    print("blocks of conditions that agree on both attributes:")
    for block in part.blocks:
        print("  ", sorted(t.object_ids[i] for i in block))
    positive = positive_region(t, ("a1",), "a2")
    print(f"objects whose a1 value pins down a2: {sorted(positive)}")
    print(f"dependency of a2 on a1: {dependency(t, ('a1',), 'a2')}")
    print(f"mean dependency of the pair on a1: {mean_dependency(t, ('a1',))}")


def show_reduct():
    # 30 genes, 9 conditions; gene i spikes at condition 1 + i mod 8, so
    # single genes are weak but a handful of them separates every condition
    genes, conditions = 30, 9
    values = np.ones((genes, conditions))
    for i in range(genes):
        values[i, 1 + i % (conditions - 1)] += 2.0
    m = ExpressionMatrix(
        tuple(f"g{i + 1:02d}" for i in range(genes)),
        tuple(f"t{j + 1}" for j in range(conditions)),
        values,
    )
    norm = min_max_normalize(m, NormalizationParams(0.0, 1.0))
    disc = discretize(norm)
    reduct = usqr_reduct(build_table(disc))
    print(f"\nfull mean dependency: {reduct.final_mean_dependency}")
    print(f"selected {len(reduct.selected)} of {genes} genes: {reduct.selected}")
    print("round by round:")
    for r in reduct.trace:
        print(f"  +{r.attribute}: mean dependency {r.mean_dependency}")
    kept = select_genes(norm, disc)
    print(f"matrix after selection: {kept.n_genes} x {kept.n_conditions}")


if __name__ == "__main__":
    show_basics()
    show_reduct()
