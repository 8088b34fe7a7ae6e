"""End-to-end pipeline: parse, filter, normalize, discretize, select, cluster,
evaluate, report.

Every stage is a pure function of its inputs; all randomness enters through
the single seed in the config, so a fixed config yields a byte-identical
report apart from the timing block.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .clustering import (
    MODES, STRATEGIES, Centroids, ClusterAssignment, Dataset, cluster_pipeline,
)
from .errors import (
    ConfigError,
    EmptyMatrixError,
    GeneClusterError,
    ParseError,
    PipelineError,
    ValidationError,
    wrong_type,
)
from .evaluation import SilhouetteReport, check_labels, silhouette_scores
from .matrix import (
    GENES_AS_ROWS,
    ORIENTATIONS,
    NormalizationParams,
    discretize,
    drop_incomplete_genes,
    min_max_normalize,
    read_matrix,
    read_utf8,
    subset_genes,
    write_matrix,
    write_new_file,
)
from .roughset import build_table, usqr_reduct

FORMATS = ("json", "tsv")


@dataclass
class PipelineConfig:
    input_path: str
    orientation: str = GENES_AS_ROWS
    delimiter: str | None = None
    new_min: float = 0.0
    new_max: float = 1.0
    select: bool = True
    k: int = 7
    strategy: str = "ecia"
    seed: int | None = None
    mode: str = "exact"
    max_iters: int = 100
    runs: int = 1
    output_dir: str | None = None
    formats: tuple = FORMATS

    def validate(self):
        for name, low in (("k", 1), ("max_iters", 1), ("runs", 1), ("seed", 0)):
            value = getattr(self, name)
            if wrong_type(value, (int, type(None)) if name == "seed" else int):
                raise ConfigError(f"{name} must be an int, got {value!r}")
            if value is not None and value < low:
                raise ConfigError(f"{name} must be >= {low}, got {value}")
        for name in ("new_min", "new_max"):
            if wrong_type(getattr(self, name), (int, float)):
                raise ConfigError(f"{name} must be an int or float, got {getattr(self, name)!r}")
        if wrong_type(self.select, bool):
            raise ConfigError(f"select must be a bool, got {self.select!r}")
        for name, allowed in (
            ("orientation", ORIENTATIONS), ("strategy", STRATEGIES), ("mode", MODES),
        ):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name}: {getattr(self, name)!r}")
        try:
            NormalizationParams(self.new_min, self.new_max)
        except ValidationError as err:
            raise ConfigError(str(err)) from err
        if self.strategy == "random" and self.seed is None:
            raise ConfigError("the random strategy requires --seed")
        if self.strategy == "ecia" and self.seed is not None:
            raise ConfigError("--seed applies only to the random strategy")
        check_delimiter(self.delimiter)
        _check_formats(self.formats)


def check_delimiter(delimiter):
    """A field delimiter override is None (taken from the file name) or one
    character other than the csv quote character and a line break."""
    if delimiter is None:
        return
    if not (isinstance(delimiter, str) and len(delimiter) == 1):
        raise ConfigError(f"delimiter must be one character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise ConfigError(
            f"delimiter cannot be the quote character or a line break, got {delimiter!r}"
        )


def _check_formats(formats):
    bad = [f for f in formats if f not in FORMATS]
    if bad or not formats:
        raise ConfigError(f"formats must be a non-empty subset of {FORMATS}")


def parse_formats(text):
    """Artifact formats from a comma list such as "json,tsv"."""
    formats = tuple(f.strip() for f in text.split(",") if f.strip())
    _check_formats(formats)
    return formats


class ClusterRow(NamedTuple):
    label: str
    size: int
    mean_silhouette: float | None


@dataclass
class PipelineReport:
    shape_before: tuple
    config: PipelineConfig
    reduct: object  # Reduct, or None when selection is off
    assignment: ClusterAssignment
    silhouette: SilhouetteReport | None  # None with fewer than two non-empty clusters
    timings: dict

    @property
    def shape_after(self):
        """(genes clustered, conditions): selection keeps every condition."""
        return (len(self.assignment.labels), self.shape_before[1])

    @property
    def clusters(self):
        sil = self.silhouette
        mean_of = {} if sil is None else {c: mean for c, _, mean in sil.per_cluster}
        return tuple(
            ClusterRow(cluster_label(j), size, mean_of.get(j))
            for j, size in enumerate(self.assignment.sizes.tolist())
        )

    @property
    def compact_cluster(self):
        sil = self.silhouette
        return None if sil is None else cluster_label(sil.compact_cluster)

    @property
    def global_mean_silhouette(self):
        return None if self.silhouette is None else self.silhouette.global_mean

    def to_dict(self, include_timings=True):
        selection = {"enabled": self.config.select}
        if self.config.select:
            selection["selected_gene_ids"] = list(self.reduct.selected)
            selection["rounds"] = [round_dict(r) for r in self.reduct.trace]
            selection["final_mean_dependency"] = fraction_dict(self.reduct.final_mean_dependency)
        out = {
            "shape_before": _shape_dict(self.shape_before),
            "shape_after": _shape_dict(self.shape_after),
            "selection": selection,
            "clustering": {
                "k": self.config.k,
                "strategy": self.config.strategy,
                "seed": self.config.seed,
                "mode": self.config.mode,
                **_kmeans_facts(self.assignment),
            },
            "clusters": [
                {"cluster": c.label, "size": c.size, "mean_silhouette": c.mean_silhouette}
                for c in self.clusters
            ],
            "compact_cluster": self.compact_cluster,
            "global_mean_silhouette": self.global_mean_silhouette,
        }
        if include_timings:
            out["timings"] = dict(self.timings)
        return out

    def to_json(self, include_timings=True):
        return _json_document(self.to_dict(include_timings))

    def summary_text(self):
        a = self.assignment
        lines = [
            f"input shape: {self.shape_before[0]} genes x {self.shape_before[1]} conditions",
        ]
        if self.config.select:
            dep = self.reduct.final_mean_dependency
            lines.append(
                f"selection: kept {self.shape_after[0]} genes"
                f" (mean dependency {dep.numerator}/{dep.denominator})"
            )
        else:
            lines.append("selection: off")
        lines.append(
            f"clustering: k={self.config.k} strategy={self.config.strategy}"
            f" mode={self.config.mode} iterations={a.iterations}"
            f" converged={'yes' if a.converged else 'no'} wcss={a.wcss:.6f}"
        )
        lines.append(cluster_table(self.clusters, "{:.6f}".format))
        if self.silhouette is not None:
            lines.append(silhouette_summary(self.silhouette))
        else:
            lines.append("silhouette: not defined (fewer than two non-empty clusters)")
        return "\n".join(lines)


def _shape_dict(shape):
    return {"genes": shape[0], "conditions": shape[1]}


def cluster_label(index):
    return f"C{index + 1}"


def silhouette_rows(sil):
    """(label, size, mean silhouette) of every non-empty cluster of a report."""
    return [(cluster_label(c), size, mean) for c, size, mean in sil.per_cluster]


def silhouette_summary(sil):
    """The compact-cluster and global-mean lines that close a run's summary
    and evaluate's output."""
    return (
        f"compact cluster: {cluster_label(sil.compact_cluster)}\n"
        f"global mean silhouette: {sil.global_mean:.6f}"
    )


def cluster_table(rows, number_format):
    """The cluster/size/mean_silhouette table of (label, size, mean or None)
    rows, one line each; number_format writes a mean (repr or "{:.6f}".format)
    and a missing mean is left empty."""
    lines = ["cluster\tsize\tmean_silhouette"]
    lines += [
        f"{label}\t{size}\t{'' if mean is None else number_format(mean)}"
        for label, size, mean in rows
    ]
    return "\n".join(lines)


def select_genes(m, d):
    """Quick reduct of a discretized matrix, and the normalized matrix m
    restricted to the genes it keeps, in m's row order.

    The layers are reached through this module's names, so a caller can
    time build_table, usqr_reduct and subset_genes by rebinding them here.
    """
    if m.gene_ids != d.gene_ids or m.condition_ids != d.condition_ids:
        raise ValidationError("matrix and discretized matrix must share ids")
    reduct = usqr_reduct(build_table(d))
    if not reduct.selected:
        raise EmptyMatrixError("gene selection kept no genes (no informative attribute)")
    return reduct, subset_genes(m, reduct.selected)


def _run_stage(name, timings, fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    except (GeneClusterError, OSError) as err:
        err.stage = name
        raise
    except Exception as err:
        raise PipelineError(name, err) from err
    timings[name] = time.perf_counter() - start
    return result


def run_pipeline(config):
    """Run every stage, write the requested artifacts, print a summary."""
    config.validate()
    timings = {}
    raw = _run_stage(
        "parse", timings, read_matrix, config.input_path, config.orientation,
        config.delimiter,
    )
    complete = _run_stage("filter", timings, drop_incomplete_genes, raw)
    params = NormalizationParams(config.new_min, config.new_max)
    normalized = _run_stage("normalize", timings, min_max_normalize, complete, params)
    disc = _run_stage("discretize", timings, discretize, normalized)

    if config.select:
        reduct, selected = _run_stage("select", timings, select_genes, normalized, disc)
    else:
        reduct, selected = None, normalized
        timings["select"] = 0.0

    if config.k > selected.n_genes:
        step = "selection" if config.select else "filtering"
        raise ConfigError(
            f"k={config.k} exceeds the {selected.n_genes} genes available after {step}"
        )
    assignment = _run_stage(
        "cluster", timings, cluster_pipeline, selected, config.k, config.strategy,
        config.seed, config.mode, config.max_iters,
    )

    def _evaluate():  # None with fewer than two non-empty clusters
        if (assignment.sizes > 0).sum() > 1:
            return silhouette_scores(Dataset.from_matrix(selected), assignment.labels, config.k)

    report = PipelineReport(
        shape_before=raw.shape,
        config=config,
        reduct=reduct,
        assignment=assignment,
        silhouette=_run_stage("evaluate", timings, _evaluate),
        timings=timings,
    )
    if config.output_dir is not None:
        _run_stage("write", timings, _write_artifacts, report, normalized, disc, selected)
    print(report.summary_text())
    return report


def _kmeans_facts(assignment):
    """K-Means facts held by both report.json's clustering object and assignment.json."""
    return {
        "provenance": assignment.centroids.provenance,
        "iterations": assignment.iterations,
        "converged": assignment.converged,
        "wcss": assignment.wcss,
        "cluster_sizes": assignment.sizes.tolist(),
    }


def fraction_dict(f):
    """An exact rational as the artifacts write it: its reduced ratio and float."""
    return {"ratio": f"{f.numerator}/{f.denominator}", "value": float(f)}


def round_dict(r):
    """A reduct round as report.json lists it; reduct.json adds its candidates."""
    return {
        "attribute": r.attribute,
        "mean_dependency": fraction_dict(r.mean_dependency),
        "forced": r.forced,
    }


def reduct_payload(reduct):
    """reduct.json: each round with its candidates' integer pure totals."""
    return {
        "selected": list(reduct.selected),
        "rounds": [
            {**round_dict(r), "candidates": list(r.candidates), "totals": list(r.totals),
             "denominator": r.denominator}
            for r in reduct.trace
        ],
        "final_mean_dependency": fraction_dict(reduct.final_mean_dependency),
    }


def silhouette_payload(sil):
    """silhouette.json: every point's and every non-empty cluster's score."""
    return {
        "per_point": [
            {"id": pid, "cluster": c, "silhouette": s} for pid, c, s in sil.per_point
        ],
        "per_cluster": [
            {"cluster": c, "size": n, "mean_silhouette": m} for c, n, m in sil.per_cluster
        ],
        "global_mean": sil.global_mean,
        "compact_cluster": sil.compact_cluster,
    }


def _json_document(payload):
    """One line of JSON with sorted keys: without indent, json.dumps runs
    CPython's C encoder instead of its pure-Python one."""
    return json.dumps(payload, sort_keys=True) + "\n"


def write_json(path, payload):
    """Write payload to a new file as a JSON artifact."""
    write_new_file(path, _json_document(payload))


def write_silhouette(out, sil, formats):
    """Write silhouette.json and/or silhouette.tsv for a report into directory out."""
    if "json" in formats:
        write_json(out / "silhouette.json", silhouette_payload(sil))
    if "tsv" in formats:
        text = cluster_table(silhouette_rows(sil), repr)
        write_new_file(out / "silhouette.tsv", text + "\n")


def _write_artifacts(report, normalized, disc, selected):
    config, assignment = report.config, report.assignment
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(normalized, out / "normalized.tsv")
    write_matrix(disc, out / "discretized.tsv")
    if config.select:
        write_matrix(selected, out / "selected.tsv")
    if "json" in config.formats:
        if config.select:
            write_json(out / "reduct.json", reduct_payload(report.reduct))
        payload = {
            "point_ids": list(selected.gene_ids),
            "labels": assignment.labels.tolist(),
            "nearest_dist": assignment.nearest_dist.tolist(),
            "centroids": assignment.centroids.vectors.tolist(),
            **_kmeans_facts(assignment),
        }
        write_json(out / "assignment.json", payload)
        write_new_file(out / "report.json", report.to_json())
    if report.silhouette is not None:
        write_silhouette(out, report.silhouette, config.formats)
    if "tsv" in config.formats:
        # quoted as the matrices are: an id may hold a tab, '"' or "\n"
        rows = io.StringIO()
        writer = csv.writer(rows, delimiter="\t", lineterminator="\n")
        writer.writerow(("gene", "cluster", "nearest_dist"))
        writer.writerows(zip(
            selected.gene_ids,
            map(cluster_label, assignment.labels.tolist()),
            map(repr, assignment.nearest_dist.tolist()),
        ))
        write_new_file(out / "assignment.tsv", rows.getvalue())
        text = cluster_table(report.clusters, repr)
        write_new_file(out / "report.tsv", text + "\n")


def read_assignment(path, d):
    """Labels and k of the assignment.json at path, which must assign the
    points of dataset d in order and give centroids of d's dimension; k is
    the number of its centroids.  Every refusal names path."""
    try:
        payload = json.loads(read_utf8(path))
        if not isinstance(payload, dict):
            raise ParseError("assignment file must hold a JSON object")
        for key in ("point_ids", "labels", "nearest_dist", "centroids"):
            if key not in payload:
                raise ParseError(f"assignment file lacks {key!r}")
        if payload["point_ids"] != list(d.point_ids):
            raise ValidationError("assignment point ids do not match the data matrix rows")

        def array(key, dtype=None):
            try:
                return np.array(payload[key], dtype=dtype)
            except (TypeError, ValueError) as err:
                raise ValidationError(f"bad {key!r}: {err}") from err

        labels = array("labels")
        if array("nearest_dist", float).shape != (d.n_points,):
            raise ValidationError("'nearest_dist' must be a list of one distance per point")
        centroids = Centroids(array("centroids", float), "assignment file")
        if centroids.vectors.shape[1] != d.n_dims:
            raise ValidationError(f"'centroids' must have {d.n_dims} columns, one per condition")
        check_labels(labels, d.n_points, centroids.k)
    except (ParseError, json.JSONDecodeError) as err:
        raise ParseError(f"{path}: {err}") from err
    except ValidationError as err:
        raise ValidationError(f"{path}: {err}") from err
    return labels, centroids.k


@dataclass
class MultiRunResult:
    reports: tuple
    summary: dict


def _variance(values):
    mean = sum(values) / len(values)
    return sum((v - mean) ** 2 for v in values) / len(values)


def run_many(config):
    """Execute config.runs isolated pipeline runs.

    With the deterministic strategy the runs must agree byte for byte
    (timings aside) and a disagreement is reported as a pipeline failure.
    With the random strategy run i uses seed + i and the spread of wcss and
    mean silhouette across runs is summarized instead.
    """
    config.validate()
    reports = []
    for i in range(config.runs):
        run_cfg = dataclasses.replace(
            config,
            output_dir=config.output_dir if i == 0 else None,
            seed=config.seed + i if config.strategy == "random" else config.seed,
        )
        reports.append(run_pipeline(run_cfg))
    summary = {
        "runs": config.runs,
        "strategy": config.strategy,
        "wcss": [r.assignment.wcss for r in reports],
        "global_mean_silhouette": [r.global_mean_silhouette for r in reports],
    }
    if config.strategy == "ecia":
        if len({r.to_json(include_timings=False) for r in reports}) != 1:
            raise PipelineError(
                "runs", AssertionError("deterministic runs produced differing reports")
            )
        summary["identical"] = True
    else:
        summary["seeds"] = [config.seed + i for i in range(config.runs)]
        summary["wcss_variance"] = _variance(summary["wcss"])
        sils = [v for v in summary["global_mean_silhouette"] if v is not None]
        summary["global_mean_silhouette_variance"] = (
            _variance(sils) if len(sils) == config.runs else None
        )
    if config.output_dir is not None:
        write_json(Path(config.output_dir) / "runs_summary.json", summary)
    return MultiRunResult(tuple(reports), summary)
