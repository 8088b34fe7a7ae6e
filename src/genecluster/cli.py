"""Command line interface.

Subcommands:
  run       full pipeline on a matrix file
  generate  synthetic matrix with planted clusters
  evaluate  silhouette report for an existing assignment

Exit codes: 0 success, 2 configuration error, 3 input or parse error,
4 pipeline stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .clustering import Centroids, ClusterAssignment, Dataset
from .errors import (
    ConfigError,
    GeneClusterError,
    ParseError,
    PipelineError,
    ValidationError,
)
from .evaluation import silhouette_scores
from .matrix import (
    GENES_AS_ROWS,
    ORIENTATIONS,
    read_matrix,
    write_matrix,
    write_new_file,
)
from .pipeline import (
    PipelineConfig,
    STRATEGIES,
    cluster_label,
    parse_formats,
    run_many,
    run_pipeline,
    write_json,
    write_silhouette,
)
from .synthetic import generate_synthetic

RUN_DEFAULTS = {
    "input": None,
    "orientation": GENES_AS_ROWS,
    "delimiter": None,
    "k": 7,
    "strategy": "ecia",
    "seed": None,
    "mode": "exact",
    "select": True,
    "new_min": 0.0,
    "new_max": 1.0,
    "max_iters": 100,
    "runs": 1,
    "out": None,
    "format": "json,tsv",
}

_COERCE = {
    "k": int,
    "seed": int,
    "max_iters": int,
    "runs": int,
    "new_min": float,
    "new_max": float,
}


def _parse_config_file(path):
    """Read simple key=value lines; '#' starts a comment."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in RUN_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "select":
            if value.lower() not in ("true", "false", "on", "off", "1", "0"):
                raise ConfigError(f"{path}:{lineno}: select must be true or false")
            values[key] = value.lower() in ("true", "on", "1")
        elif key in _COERCE:
            try:
                values[key] = _COERCE[key](value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {value!r}") from None
        else:
            values[key] = value
    return values


def _merged_run_settings(args):
    settings = dict(RUN_DEFAULTS)
    if args.config is not None:
        settings.update(_parse_config_file(args.config))
    for key in RUN_DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            settings[key] = flag_value
    if args.no_select:
        settings["select"] = False
    if settings["input"] is None:
        raise ConfigError("an input matrix is required (--input or config file)")
    return settings


def cmd_run(args):
    s = _merged_run_settings(args)
    config = PipelineConfig(
        input_path=s["input"],
        orientation=s["orientation"],
        delimiter=s["delimiter"],
        new_min=s["new_min"],
        new_max=s["new_max"],
        select=s["select"],
        k=s["k"],
        strategy=s["strategy"],
        seed=s["seed"],
        mode=s["mode"],
        max_iters=s["max_iters"],
        runs=s["runs"],
        output_dir=s["out"],
        formats=parse_formats(s["format"]),
    )
    if config.runs == 1:
        run_pipeline(config)
    else:
        result = run_many(config)
        print(f"runs: {result.summary['runs']} strategy: {config.strategy}")
        if config.strategy == "ecia":
            print("all runs identical: yes")
        else:
            print(f"wcss per run: {result.summary['wcss']}")
            print(f"wcss variance: {result.summary['wcss_variance']}")
        if config.output_dir is not None:
            write_json(Path(config.output_dir) / "runs_summary.json", result.summary)
    return 0


def cmd_generate(args):
    try:
        matrix, labels = generate_synthetic(
            genes=args.genes,
            conditions=args.conditions,
            planted_clusters=args.clusters,
            noise=args.noise,
            missing_fraction=args.missing_fraction,
            seed=args.seed,
        )
    except ValidationError as err:
        # bad generator parameters are a configuration problem
        raise ConfigError(str(err)) from err
    write_matrix(matrix, args.out)
    if args.labels_out is not None:
        rows = ["gene\tcluster"]
        rows += [f"{g}\t{int(c)}" for g, c in zip(matrix.gene_ids, labels)]
        write_new_file(args.labels_out, "\n".join(rows) + "\n")
    print(
        f"wrote {matrix.n_genes} x {matrix.n_conditions} matrix"
        f" with {args.clusters} planted clusters to {args.out}"
    )
    return 0


def _load_assignment(path):
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise ParseError(f"{path}: {err}") from err
    for key in ("point_ids", "labels", "nearest_dist", "centroids"):
        if key not in payload:
            raise ParseError(f"{path}: assignment file lacks {key!r}")
    return payload


def cmd_evaluate(args):
    matrix = read_matrix(args.data, GENES_AS_ROWS, args.delimiter)
    payload = _load_assignment(args.assignment)
    if list(matrix.gene_ids) != list(payload["point_ids"]):
        raise ValidationError("assignment point ids do not match the data matrix rows")
    assignment = ClusterAssignment(
        labels=payload["labels"],
        nearest_dist=payload["nearest_dist"],
        centroids=Centroids(payload["centroids"], payload.get("provenance", "loaded")),
        iterations=payload.get("iterations", 0),
        converged=payload.get("converged", True),
        wcss=payload.get("wcss", 0.0),
        history=(),
    )
    report = silhouette_scores(Dataset.from_matrix(matrix), assignment)
    print("cluster\tsize\tmean_silhouette")
    for c, size, mean in report.per_cluster:
        print(f"{cluster_label(c)}\t{size}\t{mean:.6f}")
    print(f"compact cluster: {cluster_label(report.compact_cluster)}")
    print(f"global mean silhouette: {report.global_mean:.6f}")
    if args.out is not None:
        formats = parse_formats(args.format)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_silhouette(out, report, formats)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="genecluster",
        description="Cluster gene expression profiles: normalize, discretize, "
        "select genes by rough-set dependency, run seeded K-Means, score with "
        "silhouettes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline on a matrix file")
    run.add_argument("--input", help="expression matrix (TSV or CSV)")
    run.add_argument("--config", help="key=value config file; flags override it")
    run.add_argument("--orientation", choices=ORIENTATIONS, default=None)
    run.add_argument("--delimiter", default=None, help="field delimiter override")
    run.add_argument("--k", type=int, default=None, help="number of clusters (default 7)")
    run.add_argument("--strategy", choices=STRATEGIES, default=None)
    run.add_argument("--seed", type=int, default=None,
                     help="seed for the random strategy; run i of a multi-run uses seed+i")
    run.add_argument("--mode", choices=("exact", "shortcut"), default=None)
    run.add_argument("--no-select", action="store_true",
                     help="skip rough-set gene selection")
    run.add_argument("--new-min", dest="new_min", type=float, default=None)
    run.add_argument("--new-max", dest="new_max", type=float, default=None)
    run.add_argument("--max-iters", dest="max_iters", type=int, default=None)
    run.add_argument("--runs", type=int, default=None,
                     help="repeat the pipeline this many times (default 1)")
    run.add_argument("--out", default=None, help="directory for artifacts")
    run.add_argument("--format", default=None, help="comma list from: json,tsv")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("generate", help="write a synthetic matrix with planted clusters")
    gen.add_argument("--genes", type=int, required=True)
    gen.add_argument("--conditions", type=int, required=True)
    gen.add_argument("--clusters", type=int, required=True)
    gen.add_argument("--noise", type=float, default=0.0)
    gen.add_argument("--missing-fraction", dest="missing_fraction", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output matrix path")
    gen.add_argument("--labels-out", dest="labels_out", default=None,
                     help="also write the planted labels here")
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="silhouette report for a stored assignment")
    ev.add_argument("--data", required=True, help="matrix the assignment refers to")
    ev.add_argument("--assignment", required=True, help="assignment.json from a run")
    ev.add_argument("--delimiter", default=None)
    ev.add_argument("--out", default=None, help="directory for the report files")
    ev.add_argument("--format", default="json,tsv")
    ev.set_defaults(func=cmd_evaluate)
    return parser


def _fail(err):
    stage = getattr(err, "stage", None)
    prefix = f"stage '{stage}': " if stage and not isinstance(err, PipelineError) else ""
    print(f"genecluster: error: {prefix}{err}", file=sys.stderr)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        _fail(err)
        return 2
    except (ParseError, ValidationError, OSError) as err:
        _fail(err)
        return 3
    except PipelineError as err:
        _fail(err)
        if isinstance(err.cause, (ParseError, ValidationError, OSError)):
            return 3
        return 4
    except GeneClusterError as err:
        _fail(err)
        return 4


if __name__ == "__main__":
    sys.exit(main())
