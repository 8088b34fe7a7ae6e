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
import dataclasses
import sys
import typing
from pathlib import Path

from .clustering import MODES, STRATEGIES, Dataset
from .errors import (
    ConfigError,
    GeneClusterError,
    ParseError,
    PipelineError,
    ValidationError,
)
from .evaluation import silhouette_scores
from .matrix import (
    ORIENTATIONS, check_delimiter, read_matrix, read_utf8, write_matrix, write_new_file,
)
from .pipeline import (
    FORMATS,
    PipelineConfig,
    cluster_table,
    parse_formats,
    read_assignment,
    run_many,
    run_pipeline,
    silhouette_rows,
    silhouette_summary,
    write_silhouette,
)
from .synthetic import generate_synthetic

# run flags and config-file keys whose name differs from their PipelineConfig field
_KEY_OF_FIELD = {"input_path": "input", "output_dir": "out", "formats": "format"}
# run flag (dest) and config-file key -> PipelineConfig field
RUN_KEYS = {
    _KEY_OF_FIELD.get(f.name, f.name): f.name for f in dataclasses.fields(PipelineConfig)
}
# each field's annotated type, Optional[...] unwrapped
_FIELD_TYPES = {
    name: next(t for t in typing.get_args(hint) or (hint,) if t is not type(None))
    for name, hint in typing.get_type_hints(PipelineConfig).items()
}
_BOOLS = {"true": True, "on": True, "1": True, "false": False, "off": False, "0": False}


def _coerce(key, text, where=""):
    """A run flag's or config-file key's text, typed as its PipelineConfig field."""
    kind = _FIELD_TYPES[RUN_KEYS[key]]
    try:
        if kind is bool:
            return _BOOLS[text.lower()]
        if kind is tuple:
            return parse_formats(text)
        return kind(text)
    except (KeyError, ValueError):
        raise ConfigError(f"{where}bad value for {key}: {text!r}") from None


def _parse_config_file(path):
    r"""Read key=value lines of UTF-8 text, each ended by "\n" only; '#' starts a comment."""
    try:
        text = read_utf8(path)
    except ParseError as err:
        raise ConfigError(f"{path}:{err.line}: not UTF-8 text") from err
    values = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line or "\r" in line:  # a bare "\r" does not end a line
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in RUN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _coerce(key, value.strip(), f"{path}:{lineno}: ")
    return values


def run_config(args):
    """The PipelineConfig of a `run` command: config file first, then flags."""
    settings = {} if args.config is None else _parse_config_file(args.config)
    for key in RUN_KEYS:
        if (text := getattr(args, key)) is not None:
            settings[key] = _coerce(key, text)
    if "input" not in settings:
        raise ConfigError("an input matrix is required (--input or config file)")
    return PipelineConfig(**{RUN_KEYS[key]: value for key, value in settings.items()})


def cmd_run(args):
    config = run_config(args)
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
    return 0


def cmd_generate(args):
    knobs = {k: v for k, v in vars(args).items() if k in ("noise", "missing_fraction", "seed")}
    try:
        matrix, labels = generate_synthetic(
            genes=args.genes, conditions=args.conditions, planted_clusters=args.clusters, **knobs
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


def cmd_evaluate(args):
    if args.delimiter is not None:
        try:
            check_delimiter(args.delimiter)
        except ValidationError as err:
            raise ConfigError(str(err)) from err
    formats = parse_formats(args.format)
    try:
        d = Dataset.from_matrix(read_matrix(args.data, delimiter=args.delimiter))
    except ParseError as err:
        raise ParseError(f"{args.data}: {err}") from err
    except ValidationError as err:
        raise ValidationError(f"{args.data}: {err}") from err
    path = args.assignment
    labels, k = read_assignment(path, d)
    report = silhouette_scores(d, labels, k)
    if report is None:
        raise ValidationError(f"{path}: silhouette needs at least two non-empty clusters")
    print(cluster_table(silhouette_rows(report), "{:.6f}".format))
    print(silhouette_summary(report))
    if args.out is not None:
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

    # run flags are read as text and typed like config-file values (run_config)
    run = sub.add_parser("run", help="run the full pipeline on a matrix file")
    run.add_argument("--input", help="expression matrix (TSV or CSV)")
    run.add_argument("--config", help="key=value config file; flags override it")
    run.add_argument("--orientation", choices=ORIENTATIONS)
    run.add_argument("--delimiter", help="one-character field delimiter override")
    run.add_argument("--k", help=f"number of clusters (default {PipelineConfig.k})")
    run.add_argument("--strategy", choices=STRATEGIES)
    run.add_argument("--seed",
                     help="seed for the random strategy; run i of a multi-run uses seed+i")
    run.add_argument("--mode", choices=MODES)
    run.add_argument("--no-select", dest="select", action="store_const", const="false",
                     help="skip rough-set gene selection")
    run.add_argument("--new-min", dest="new_min")
    run.add_argument("--new-max", dest="new_max")
    run.add_argument("--max-iters", dest="max_iters")
    run.add_argument("--runs",
                     help=f"repeat the pipeline this many times (default {PipelineConfig.runs})")
    run.add_argument("--out", help="directory for artifacts")
    run.add_argument("--format", help=f"comma list from: {','.join(FORMATS)}")
    run.set_defaults(func=cmd_run)

    # an unset --noise, --missing-fraction or --seed is left out of the parsed
    # args (SUPPRESS), so generate_synthetic's own default holds
    gen = sub.add_parser("generate", help="write a synthetic matrix with planted clusters",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--genes", type=int, required=True)
    gen.add_argument("--conditions", type=int, required=True)
    gen.add_argument("--clusters", type=int, required=True)
    gen.add_argument("--noise", type=float)
    gen.add_argument("--missing-fraction", dest="missing_fraction", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", required=True, help="output matrix path")
    gen.add_argument("--labels-out", dest="labels_out", default=None,
                     help="also write the planted labels here")
    gen.set_defaults(func=cmd_generate)

    ev = sub.add_parser("evaluate", help="silhouette report for a stored assignment")
    ev.add_argument("--data", required=True, help="matrix the assignment refers to")
    ev.add_argument("--assignment", required=True, help="assignment.json from a run")
    ev.add_argument("--delimiter", default=None)
    ev.add_argument("--out", default=None, help="directory for the report files")
    ev.add_argument("--format", default=",".join(FORMATS))
    ev.set_defaults(func=cmd_evaluate)
    return parser


def _fail(err):
    stage = getattr(err, "stage", None)
    prefix = f"stage '{stage}': " if stage and not isinstance(err, PipelineError) else ""
    print(f"genecluster: error: {prefix}{err}", file=sys.stderr)


def _is_negative_number(word):
    try:
        float(word)
    except ValueError:
        return False
    return word.startswith("-")


def _attach_negative_values(argv):
    """Join "--flag -1e-3" into "--flag=-1e-3".

    argparse takes a word for a negative number only in the forms -5 and
    -0.5, so it reads "-1e-3" (or "-inf") after a flag as another option.
    """
    out = []
    for word in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _is_negative_number(word):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except ConfigError as err:
        _fail(err)
        return 2
    except (ParseError, ValidationError, OSError) as err:
        _fail(err)
        return 3
    except GeneClusterError as err:
        _fail(err)
        return 4


if __name__ == "__main__":
    sys.exit(main())
