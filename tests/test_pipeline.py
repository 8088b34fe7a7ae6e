import ast
import dataclasses
import importlib.util
import itertools
import json
import tracemalloc
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import genecluster
import genecluster.pipeline as pipeline_mod
from genecluster import (
    Centroids,
    ClusterAssignment,
    ConfigError,
    EmptyMatrixError,
    ExpressionMatrix,
    IterationStats,
    ParseError,
    PipelineConfig,
    PipelineError,
    PipelineReport,
    cluster_label,
    cluster_pipeline,
    discretize,
    generate_synthetic,
    min_max_normalize,
    NormalizationParams,
    read_matrix,
    run_many,
    run_pipeline,
    write_matrix,
)
from genecluster import cli, clustering, evaluation, matrix, roughset

from helpers import bump_matrix

SCHEMA = json.loads(
    (Path(genecluster.__file__).parent / "report_schema.json").read_text()
)


@pytest.fixture(scope="module")
def bump_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "bump.tsv"
    write_matrix(bump_matrix(), path)
    return str(path)


@pytest.fixture()
def small_file(tmp_path):
    rng = np.random.default_rng(50)
    m = ExpressionMatrix(
        tuple(f"g{i}" for i in range(12)),
        ("t1", "t2", "t3", "t4"),
        rng.normal(size=(12, 4)),
    )
    path = tmp_path / "small.tsv"
    write_matrix(m, path)
    return str(path)


def test_default_run_structure(bump_file, capsys):
    report = run_pipeline(PipelineConfig(bump_file))
    assert report.shape_before == (300, 17)
    assert report.shape_after[1] == 17
    assert 7 <= report.shape_after[0] < 300  # selection kept a small informative set
    assert report.config.select
    assert set(report.reduct.selected) <= set(bump_matrix().gene_ids)
    assert report.config.k == 7
    assert len(report.clusters) == 7
    assert sum(c.size for c in report.clusters) == report.shape_after[0]
    assert [c.label for c in report.clusters] == [f"C{j}" for j in range(1, 8)]
    assert report.compact_cluster in {c.label for c in report.clusters}
    assert report.assignment.converged
    assert set(report.timings) == {
        "parse", "filter", "normalize", "discretize", "select", "cluster", "evaluate",
    }
    out = capsys.readouterr().out
    assert "compact cluster:" in out
    assert "clustering: k=7 strategy=ecia mode=exact" in out
    jsonschema.validate(report.to_dict(), SCHEMA)


def test_default_run_is_deterministic(bump_file):
    r1 = run_pipeline(PipelineConfig(bump_file))
    r2 = run_pipeline(PipelineConfig(bump_file))
    assert r1.to_json(include_timings=False) == r2.to_json(include_timings=False)


def test_artifacts_written(bump_file, tmp_path):
    out = tmp_path / "artifacts"
    report = run_pipeline(PipelineConfig(bump_file, output_dir=str(out)))
    names = {p.name for p in out.iterdir()}
    assert names == {
        "normalized.tsv", "discretized.tsv", "selected.tsv", "reduct.json",
        "assignment.json", "assignment.tsv", "silhouette.json", "silhouette.tsv",
        "report.json", "report.tsv",
    }
    assert "write" in report.timings
    normalized = read_matrix(out / "normalized.tsv", "genes-as-rows")
    assert normalized.shape == (300, 17)
    assert normalized.values.min() >= 0.0 and normalized.values.max() <= 1.0
    selected = read_matrix(out / "selected.tsv", "genes-as-rows")
    # selection order names the genes; the matrix keeps its own row order
    assert set(selected.gene_ids) == set(report.reduct.selected)
    position = {g: i for i, g in enumerate(normalized.gene_ids)}
    assert list(selected.gene_ids) == sorted(selected.gene_ids, key=position.__getitem__)
    reduct = json.loads((out / "reduct.json").read_text())
    assert tuple(reduct["selected"]) == report.reduct.selected
    for r in reduct["rounds"]:
        assert len(r["candidates"]) == len(r["totals"])
        assert r["denominator"] == normalized.values.size
    assignment = json.loads((out / "assignment.json").read_text())
    assert assignment["point_ids"] == list(selected.gene_ids)
    assert len(assignment["labels"]) == selected.n_genes
    assert assignment["cluster_sizes"] == report.assignment.sizes.tolist()
    for path in out.glob("*.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    saved = json.loads((out / "report.json").read_text())
    saved.pop("timings")
    assert saved == report.to_dict(include_timings=False)
    # the report's rounds are reduct.json's without the candidate columns
    assert saved["selection"]["rounds"] == [
        {k: v for k, v in r.items() if k not in ("candidates", "totals", "denominator")}
        for r in reduct["rounds"]
    ]
    jsonschema.validate(saved, SCHEMA)
    sil_tsv = (out / "silhouette.tsv").read_text().splitlines()
    assert sil_tsv[0] == "cluster\tsize\tmean_silhouette"
    assert len(sil_tsv) == 1 + 7


def test_rerun_into_same_directory_writes_new_files(small_file, tmp_path):
    def run_into(out, k):
        run_pipeline(PipelineConfig(small_file, select=False, k=k, output_dir=str(out)))
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def without_timings(artifacts):
        report = json.loads(artifacts.pop("report.json"))
        report.pop("timings")
        return artifacts, report

    out = tmp_path / "out"
    old = run_into(out, 2)
    links = tmp_path / "links"
    links.mkdir()
    for name in old:
        (links / name).hardlink_to(out / name)
    new = run_into(out, 3)
    # a new file replaced each artifact; the hard links still hold the first run
    assert {p.name: p.read_bytes() for p in links.iterdir()} == old
    assert new["assignment.json"] != old["assignment.json"]
    assert without_timings(new) == without_timings(run_into(tmp_path / "fresh", 3))


def test_json_only_formats(bump_file, tmp_path):
    out = tmp_path / "jsonly"
    run_pipeline(PipelineConfig(bump_file, output_dir=str(out), formats=("json",)))
    names = {p.name for p in out.iterdir()}
    assert "report.json" in names
    assert "assignment.tsv" not in names
    assert "report.tsv" not in names


def test_no_select_single_cluster_report(small_file):
    report = run_pipeline(PipelineConfig(small_file, select=False, k=1))
    assert not report.config.select
    assert report.reduct is None
    assert report.shape_after == report.shape_before
    assert report.compact_cluster is None
    assert report.global_mean_silhouette is None
    assert report.clusters[0].mean_silhouette is None
    assert tuple(report.assignment.sizes.tolist()) == (12,)
    d = report.to_dict()
    assert d["selection"] == {"enabled": False}
    jsonschema.validate(d, SCHEMA)


def test_no_select_matches_direct_clustering(small_file):
    report = run_pipeline(PipelineConfig(small_file, select=False, k=3))
    raw = read_matrix(small_file, "genes-as-rows")
    normalized = min_max_normalize(raw, NormalizationParams(0.0, 1.0))
    direct = cluster_pipeline(normalized, 3)
    assert tuple(report.assignment.sizes.tolist()) == tuple(int(s) for s in direct.sizes)
    assert report.assignment.wcss == direct.wcss
    assert report.assignment.iterations == direct.iterations


def test_column_oriented_input_gives_same_report(small_file, tmp_path):
    m = read_matrix(small_file, "genes-as-rows")
    lines = ["id\t" + "\t".join(m.gene_ids)]
    for j, cid in enumerate(m.condition_ids):
        row = "\t".join(repr(float(v)) for v in m.values[:, j])
        lines.append(f"{cid}\t{row}")
    flipped = tmp_path / "flipped.tsv"
    flipped.write_text("\n".join(lines) + "\n")
    r1 = run_pipeline(PipelineConfig(small_file, select=False, k=3))
    r2 = run_pipeline(
        PipelineConfig(str(flipped), orientation="genes-as-columns", select=False, k=3)
    )
    assert r1.to_json(include_timings=False) == r2.to_json(include_timings=False)


def test_k_exceeding_selected_genes_names_both_numbers(bump_file):
    with pytest.raises(ConfigError, match=r"k=250 exceeds the \d+ genes"):
        run_pipeline(PipelineConfig(bump_file, k=250))


def test_config_validation_rules(small_file):
    good = PipelineConfig(small_file)
    good.validate()
    cases = [
        {"orientation": "diagonal"},
        {"strategy": "kmeans++"},
        {"mode": "turbo"},
        {"k": 0},
        {"max_iters": 0},
        {"runs": 0},
        {"new_min": 1.0, "new_max": 1.0},
        {"new_min": -1e308, "new_max": 1e308},  # the width overflows a float
        {"new_min": -np.inf},
        {"delimiter": ";;"},
        {"delimiter": ""},
        {"delimiter": '"'},  # the csv quote character
        {"delimiter": "\n"},
        {"delimiter": "\r"},
        {"strategy": "random"},  # seed missing
        {"seed": 3},  # seed with the deterministic strategy
        {"formats": ()},
        {"formats": ("json", "yaml")},
    ]
    for overrides in cases:
        cfg = dataclasses.replace(PipelineConfig(small_file), **overrides)
        with pytest.raises(ConfigError):
            cfg.validate()
    # a wrongly typed setting (the last key) is refused by name before the
    # input is opened; a bool is no count and a count no switch
    typed = [
        {"k": True},
        {"k": np.int64(3)},
        {"k": 2.5},
        {"k": "3"},
        {"k": None},
        {"max_iters": 2.5},
        {"max_iters": True},
        {"runs": 2.5},
        {"runs": False},
        {"strategy": "random", "seed": True},
        {"strategy": "random", "seed": 1.5},
        {"strategy": "random", "seed": np.int64(1)},
        {"new_min": "0"},
        {"new_max": True},
        {"select": 0},
        {"select": "yes"},
    ]
    out = Path(small_file).parent / "typed_out"
    for overrides in typed:
        cfg = PipelineConfig(str(out / "absent.tsv"), output_dir=str(out), **overrides)
        with pytest.raises(ConfigError, match=f"^{list(overrides)[-1]} must be "):
            run_pipeline(cfg)
        assert not out.exists()


def test_random_strategy_seed_accepted(small_file):
    report = run_pipeline(
        PipelineConfig(small_file, select=False, k=3, strategy="random", seed=8)
    )
    assert report.config.seed == 8
    assert report.assignment.centroids.provenance == "random(seed=8)"


def test_missing_input_fails_in_parse_stage(tmp_path):
    with pytest.raises(OSError) as exc:
        run_pipeline(PipelineConfig(str(tmp_path / "absent.tsv")))
    assert exc.value.stage == "parse"


def test_bad_cell_fails_in_parse_stage(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("id\tt1\tt2\ng1\t0.5\tpotato\n")
    with pytest.raises(ParseError) as exc:
        run_pipeline(PipelineConfig(str(path)))
    assert exc.value.stage == "parse"


def test_all_incomplete_fails_in_filter_stage(tmp_path):
    path = tmp_path / "holes.tsv"
    path.write_text("id\tt1\tt2\ng1\tNA\t1.0\ng2\t2.0\tNA\n")
    with pytest.raises(EmptyMatrixError) as exc:
        run_pipeline(PipelineConfig(str(path)))
    assert exc.value.stage == "filter"


def test_no_informative_gene_fails_in_select_stage(tmp_path):
    path = tmp_path / "flat.tsv"
    path.write_text("id\tt1\tt2\ng1\t1.0\t1.0\ng2\t1.0\t1.0\n")
    with pytest.warns(UserWarning, match="constant condition"):
        with pytest.raises(EmptyMatrixError, match="kept no genes") as exc:
            run_pipeline(PipelineConfig(str(path), k=1))
    assert exc.value.stage == "select"


def test_unexpected_error_becomes_pipeline_error(small_file, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("disk on fire")

    monkeypatch.setattr(pipeline_mod, "cluster_pipeline", boom)
    with pytest.raises(PipelineError) as exc:
        run_pipeline(PipelineConfig(small_file, select=False, k=2))
    assert exc.value.stage == "cluster"
    assert "disk on fire" in str(exc.value)
    assert isinstance(exc.value.__cause__, RuntimeError)


def test_run_many_deterministic_strategy(bump_file, tmp_path):
    out = tmp_path / "runs"
    result = run_many(PipelineConfig(bump_file, runs=3, output_dir=str(out)))
    assert len(result.reports) == 3
    assert result.summary["identical"] is True
    assert len(set(result.summary["wcss"])) == 1
    # artifacts come from the first run only
    assert (out / "report.json").exists()


def test_run_many_random_strategy_spread(small_file):
    cfg = PipelineConfig(small_file, select=False, k=3, strategy="random", seed=5, runs=3)
    result = run_many(cfg)
    assert "identical" not in result.summary
    assert result.summary["seeds"] == [5, 6, 7]
    assert [r.config.seed for r in result.reports] == [5, 6, 7]
    wcss = result.summary["wcss"]
    expected_var = float(np.var(wcss))
    assert result.summary["wcss_variance"] == pytest.approx(expected_var, abs=1e-12)
    assert result.summary["global_mean_silhouette_variance"] is not None


def test_run_many_writes_runs_summary(small_file, tmp_path):
    out = tmp_path / "runs"
    cfg = PipelineConfig(
        small_file, select=False, k=3, strategy="random", seed=5, runs=2,
        output_dir=str(out),
    )
    result = run_many(cfg)
    text = (out / "runs_summary.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    assert json.loads(text) == result.summary
    assert json.loads(text)["seeds"] == [5, 6]


def _tiny_report(wcss):
    return PipelineReport(
        shape_before=(2, 2),
        config=PipelineConfig("tiny.tsv", select=False, k=1),
        reduct=None,
        assignment=ClusterAssignment(
            labels=(0, 0),
            nearest_dist=(0.0, 0.0),
            centroids=Centroids([[0.0, 0.0]], "ecia"),
            history=(IterationStats(wcss, 2, None),),
        ),
        silhouette=None,
        timings={},
    )


def test_run_many_flags_deterministic_disagreement(small_file, monkeypatch):
    ticker = itertools.count()

    def fake_run(cfg):
        return _tiny_report(float(next(ticker)))

    monkeypatch.setattr(pipeline_mod, "run_pipeline", fake_run)
    with pytest.raises(PipelineError, match="differing"):
        run_many(PipelineConfig(small_file, runs=2))


def _load_spans():
    """perfbench/spans.py, the benchmark's span recorder, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_records_a_span_for_every_layer_call(bump_file, tmp_path, capsys):
    # the benchmark times each layer by rebinding its name in
    # genecluster.pipeline, so every layer call must go through those names
    spans = _load_spans()
    recorder = spans.Recorder(memory=False)
    with recorder.installed() as traced_run:
        traced_run(PipelineConfig(bump_file, output_dir=str(tmp_path / "out")))
    recorded = {s.name for s in recorder.spans}
    assert recorded >= {name for name, _ in spans.LAYER_CALLS.values()}
    assert spans.ROOT_SPAN in recorded


def test_roughset_imports_nothing_from_matrix():
    # layers meet only in the pipeline
    tree = ast.parse(Path(roughset.__file__).read_text())
    imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [n for n in imports if "matrix" in (n.module, *(a.name for a in n.names))]


@pytest.mark.parametrize("module", [roughset, evaluation, clustering, matrix, cli])
def test_only_the_pipeline_knows_json_layouts(module):
    # every artifact layout, and its reader, lives in pipeline.py
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names}
    imported |= {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    assert "json" not in imported
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    assert "to_dict" not in {n.name for n in ast.walk(tree) if isinstance(n, functions)}


def test_no_module_raises_a_bare_value_error():
    # every refusal of the package is a GeneClusterError
    raised = []
    for path in sorted(Path(genecluster.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    raised.append(f"{path.name}:{node.lineno}")
    assert raised == []


def _traced_peak(tmp_path, genes):
    """tracemalloc peak of one ECIA --no-select k=7 run that writes its artifacts."""
    m, _ = generate_synthetic(genes, 60, 7, noise=1.0, seed=1)
    path = tmp_path / f"in-{genes}.tsv"
    write_matrix(m, path)
    config = PipelineConfig(str(path), select=False, k=7, output_dir=str(tmp_path / str(genes)))
    tracemalloc.start()
    try:
        run_pipeline(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_whole_pipeline_memory_grows_linearly_in_genes(tmp_path, capsys):
    # twice the genes raises the peak about 1.3-1.5x from 500 to 4000 genes;
    # a stage whose memory grew as genes**2 would take it toward 4x.  A first
    # run imports what the package loads lazily, so neither peak holds that.
    _traced_peak(tmp_path, 100)
    assert _traced_peak(tmp_path, 2000) / _traced_peak(tmp_path, 1000) < 2.3


def test_cluster_label_format():
    assert cluster_label(0) == "C1"
    assert cluster_label(6) == "C7"
