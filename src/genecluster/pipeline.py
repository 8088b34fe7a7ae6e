"""End-to-end pipeline: parse, filter, normalize, discretize, select, cluster,
evaluate, report.

Every stage is a pure function of its inputs; all randomness enters through
the single seed in the config, so a fixed config yields a byte-identical
report apart from the timing block.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .clustering import MODES, STRATEGIES, Dataset, cluster_pipeline
from .errors import ConfigError, GeneClusterError, PipelineError, ValidationError
from .evaluation import silhouette_scores
from .matrix import (
    GENES_AS_ROWS,
    ORIENTATIONS,
    NormalizationParams,
    discretize,
    drop_incomplete_genes,
    min_max_normalize,
    read_matrix,
    subset_genes,
    write_matrix,
    write_new_file,
)
from .roughset import build_table, kept_genes, usqr_reduct

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
        for name, allowed in (
            ("orientation", ORIENTATIONS), ("strategy", STRATEGIES), ("mode", MODES),
        ):
            if getattr(self, name) not in allowed:
                raise ConfigError(f"unknown {name}: {getattr(self, name)!r}")
        for name in ("k", "max_iters", "runs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
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


@dataclass
class ClusterRow:
    label: str
    size: int
    mean_silhouette: float | None


@dataclass
class PipelineReport:
    shape_before: tuple
    shape_after: tuple
    selection_enabled: bool
    reduct: object  # Reduct or None
    k: int
    strategy: str
    seed: int | None
    mode: str
    provenance: str
    iterations: int
    converged: bool
    wcss: float
    cluster_sizes: tuple
    clusters: tuple
    compact_cluster: str | None
    global_mean_silhouette: float | None
    timings: dict

    def to_dict(self, include_timings=True):
        selection = {"enabled": self.selection_enabled}
        if self.reduct is not None:
            rd = self.reduct.to_dict(include_candidate_scores=False)
            selection["selected_gene_ids"] = rd["selected"]
            selection["rounds"] = rd["rounds"]
            selection["final_mean_dependency"] = rd["final_mean_dependency"]
        out = {
            "shape_before": _shape_dict(self.shape_before),
            "shape_after": _shape_dict(self.shape_after),
            "selection": selection,
            "clustering": {
                "k": self.k,
                "strategy": self.strategy,
                "seed": self.seed,
                "mode": self.mode,
                "provenance": self.provenance,
                "iterations": self.iterations,
                "converged": self.converged,
                "wcss": self.wcss,
                "cluster_sizes": list(self.cluster_sizes),
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
        return json_text(self.to_dict(include_timings)) + "\n"

    def cluster_rows(self):
        return [(c.label, c.size, c.mean_silhouette) for c in self.clusters]

    def summary_text(self):
        lines = [
            f"input shape: {self.shape_before[0]} genes x {self.shape_before[1]} conditions",
        ]
        if self.selection_enabled:
            dep = self.reduct.final_mean_dependency
            lines.append(
                f"selection: kept {self.shape_after[0]} genes"
                f" (mean dependency {dep.numerator}/{dep.denominator})"
            )
        else:
            lines.append("selection: off")
        lines.append(
            f"clustering: k={self.k} strategy={self.strategy} mode={self.mode}"
            f" iterations={self.iterations}"
            f" converged={'yes' if self.converged else 'no'} wcss={self.wcss:.6f}"
        )
        lines.append(cluster_table(self.cluster_rows(), "{:.6f}".format))
        if self.compact_cluster is not None:
            lines.append(f"compact cluster: {self.compact_cluster}")
            lines.append(f"global mean silhouette: {self.global_mean_silhouette:.6f}")
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
        # called through this module's names: perfbench/spans.py times each of
        # build_table, usqr_reduct and subset_genes by rebinding them here
        def _select():
            reduct = usqr_reduct(build_table(disc))
            return reduct, subset_genes(normalized, kept_genes(reduct))

        reduct, selected = _run_stage("select", timings, _select)
    else:
        reduct, selected = None, normalized
        timings["select"] = 0.0

    if config.k > selected.n_genes:
        raise ConfigError(
            f"k={config.k} exceeds the {selected.n_genes} genes available after selection"
        )
    assignment = _run_stage(
        "cluster", timings, cluster_pipeline, selected, config.k, config.strategy,
        config.seed, config.mode, config.max_iters,
    )

    def _evaluate():
        if int((assignment.sizes > 0).sum()) < 2:
            return None
        return silhouette_scores(Dataset.from_matrix(selected), assignment)

    sil = _run_stage("evaluate", timings, _evaluate)

    mean_of = {}
    if sil is not None:
        mean_of = {c: mean for c, _, mean in sil.per_cluster}
    clusters = tuple(
        ClusterRow(cluster_label(j), int(assignment.sizes[j]), mean_of.get(j))
        for j in range(config.k)
    )
    report = PipelineReport(
        shape_before=raw.shape,
        shape_after=selected.shape,
        selection_enabled=config.select,
        reduct=reduct,
        k=config.k,
        strategy=config.strategy,
        seed=config.seed,
        mode=config.mode,
        provenance=assignment.centroids.provenance,
        iterations=assignment.iterations,
        converged=assignment.converged,
        wcss=assignment.wcss,
        cluster_sizes=tuple(int(s) for s in assignment.sizes),
        clusters=clusters,
        compact_cluster=None if sil is None else cluster_label(sil.compact_cluster),
        global_mean_silhouette=None if sil is None else sil.global_mean,
        timings=timings,
    )
    if config.output_dir is not None:
        _run_stage(
            "write", timings, _write_artifacts,
            config, report, normalized, disc, selected, reduct, assignment, sil,
        )
    print(report.summary_text())
    return report


def _assignment_dict(selected, assignment):
    return {
        "point_ids": list(selected.gene_ids),
        "labels": [int(v) for v in assignment.labels],
        "nearest_dist": [float(v) for v in assignment.nearest_dist],
        "centroids": [[float(v) for v in row] for row in assignment.centroids.vectors],
        "provenance": assignment.centroids.provenance,
        "iterations": assignment.iterations,
        "converged": assignment.converged,
        "wcss": assignment.wcss,
        "cluster_sizes": [int(s) for s in assignment.sizes],
    }


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _encode_flat(width):
    """The stdlib C encoder, one-line except that items are separated by a
    line break and a pad of width two-space steps."""
    separators = (",\n" + "  " * width, ": ")
    return json.JSONEncoder(sort_keys=True, separators=separators).encode


def _holds_container(values):
    return any(map(isinstance, values, repeat(_CONTAINERS)))


def _is_flat_dict_list(items):
    """True for a list of non-empty dicts none of which holds a container."""
    return (
        all(map(isinstance, items, repeat(dict)))
        and all(map(len, items))
        and not _holds_container(chain.from_iterable(map(dict.values, items)))
    )


def json_text(payload):
    """json.dumps(payload, indent=2, sort_keys=True), written by the C encoder.

    json.dumps runs the pure-Python encoder whenever indent is set.  Here
    each flat container (no dict, list or tuple among its values) is one C
    encoder call whose item separator already holds the line break and the
    pad; only the brackets get theirs put in.  A list of non-empty flat
    dicts is one call too, with the pad of the dicts' items, and the text
    between two dicts is then rewritten to the indented form.  That rewrite
    is exact: with ensure_ascii an encoded string holds no raw line break,
    so "},\n" occurs only between two dicts.  Everything else recurses.
    """
    parts = []
    _encode(payload, 0, parts)
    return "".join(parts)


def _encode(obj, depth, parts):
    is_dict = isinstance(obj, dict)
    if not (is_dict or isinstance(obj, (list, tuple))):
        parts.append(_encode_flat(0)(obj))
        return
    pad = "\n" + "  " * depth
    inner = pad + "  "
    if not obj:
        parts.append("{}" if is_dict else "[]")
    elif not _holds_container(obj.values() if is_dict else obj):
        text = _encode_flat(depth + 1)(obj)
        parts += (text[0], inner, text[1:-1], pad, text[-1])
    elif not is_dict and _is_flat_dict_list(obj):
        item = inner + "  "
        text = _encode_flat(depth + 2)(obj)[2:-2].replace(
            "}," + item + "{", inner + "}," + inner + "{" + item
        )
        parts += ("[", inner, "{", item, text, inner, "}", pad, "]")
    elif is_dict:
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            parts += (sep, _key_text(key), ": ")
            _encode(value, depth + 1, parts)
            sep = "," + inner
        parts += (pad, "}")
    else:
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _encode(value, depth + 1, parts)
            sep = "," + inner
        parts += (pad, "]")


def _key_text(key):
    """A dict key as json.dumps writes it: non-str keys as their JSON text."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(
                f"keys must be str, int, float, bool or None, not {type(key).__name__}"
            )
        key = _encode_flat(0)(key)
    return encode_basestring_ascii(key)


def write_json(path, payload):
    """Write payload as indented JSON with sorted keys (json_text)."""
    write_new_file(path, json_text(payload) + "\n")


def write_silhouette(out, sil, formats):
    """Write silhouette.json and/or silhouette.tsv for a report into directory out."""
    if "json" in formats:
        write_json(out / "silhouette.json", sil.to_dict())
    if "tsv" in formats:
        text = cluster_table(silhouette_rows(sil), repr)
        write_new_file(out / "silhouette.tsv", text + "\n")


def _write_artifacts(config, report, normalized, disc, selected, reduct, assignment, sil):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    want_json = "json" in config.formats
    want_tsv = "tsv" in config.formats
    write_matrix(normalized, out / "normalized.tsv")
    write_matrix(disc, out / "discretized.tsv")
    if config.select:
        write_matrix(selected, out / "selected.tsv")
        if want_json:
            write_json(out / "reduct.json", reduct.to_dict())
    if want_json:
        write_json(out / "assignment.json", _assignment_dict(selected, assignment))
        write_new_file(out / "report.json", report.to_json())
    if sil is not None:
        write_silhouette(out, sil, config.formats)
    if want_tsv:
        rows = ["gene\tcluster\tnearest_dist"]
        for gid, lab, nd in zip(selected.gene_ids, assignment.labels, assignment.nearest_dist):
            rows.append(f"{gid}\t{cluster_label(int(lab))}\t{float(nd)!r}")
        write_new_file(out / "assignment.tsv", "\n".join(rows) + "\n")
        text = cluster_table(report.cluster_rows(), repr)
        write_new_file(out / "report.tsv", text + "\n")


@dataclass
class MultiRunResult:
    reports: tuple
    identical: bool | None  # meaningful for the deterministic strategy only
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
        "wcss": [r.wcss for r in reports],
        "global_mean_silhouette": [r.global_mean_silhouette for r in reports],
    }
    identical = None
    if config.strategy == "ecia":
        blobs = {r.to_json(include_timings=False) for r in reports}
        identical = len(blobs) == 1
        summary["identical"] = identical
        if not identical:
            raise PipelineError(
                "runs", AssertionError("deterministic runs produced differing reports")
            )
    else:
        summary["seeds"] = [config.seed + i for i in range(config.runs)]
        summary["wcss_variance"] = _variance(summary["wcss"])
        sils = [v for v in summary["global_mean_silhouette"] if v is not None]
        summary["global_mean_silhouette_variance"] = (
            _variance(sils) if len(sils) == config.runs else None
        )
    return MultiRunResult(tuple(reports), identical, summary)
