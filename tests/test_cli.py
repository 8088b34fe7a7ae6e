import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from genecluster import PipelineConfig, parse_matrix, write_matrix
from genecluster.cli import RUN_KEYS, _build_parser, main, run_config
from genecluster.pipeline import cluster_label

from helpers import bump_matrix


@pytest.fixture()
def generated(tmp_path):
    matrix = tmp_path / "matrix.tsv"
    labels = tmp_path / "labels.tsv"
    code = main([
        "generate", "--genes", "60", "--conditions", "8", "--clusters", "4",
        "--seed", "3", "--out", str(matrix), "--labels-out", str(labels),
    ])
    assert code == 0
    return matrix, labels


def test_generate_writes_matrix_and_labels(generated, capsys):
    matrix, labels = generated
    assert matrix.exists()
    lines = labels.read_text().splitlines()
    assert lines[0] == "gene\tcluster"
    assert len(lines) == 61
    assert lines[1].split("\t")[1] in {"0", "1", "2", "3"}


@pytest.mark.parametrize("bad", [
    pytest.param(["--clusters", "9"], id="too-many-clusters"),
    pytest.param(["--clusters", "2", "--seed", "-1"], id="negative-seed"),
    pytest.param(["--clusters", "2", "--noise", "nan"], id="nan-noise"),
    pytest.param(["--clusters", "2", "--noise", "inf"], id="infinite-noise"),
    pytest.param(["--clusters", "2", "--noise", "1e308"], id="overflowing-noise"),
])
def test_generate_rejects_bad_parameters(tmp_path, capsys, bad):
    code = main([
        "generate", "--genes", "3", "--conditions", "4", *bad,
        "--out", str(tmp_path / "m.tsv"),
    ])
    assert code == 2
    assert "genecluster: error:" in capsys.readouterr().err
    assert not (tmp_path / "m.tsv").exists()


def test_generate_run_evaluate_round_trip(generated, tmp_path, capsys):
    matrix, _ = generated
    rundir = tmp_path / "run"
    code = main([
        "run", "--input", str(matrix), "--no-select", "--k", "4",
        "--out", str(rundir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "compact cluster:" in out

    evaldir = tmp_path / "eval"
    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(rundir / "assignment.json"),
        "--out", str(evaldir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("cluster\tsize\tmean_silhouette")
    # re-scoring the stored assignment reproduces the run's own report
    run_sil = json.loads((rundir / "silhouette.json").read_text())
    eval_sil = json.loads((evaldir / "silhouette.json").read_text())
    assert eval_sil == run_sil
    for name in ("silhouette.json", "silhouette.tsv"):
        assert (evaldir / name).read_bytes() == (rundir / name).read_bytes()


def test_evaluate_prints_the_runs_summary_from_the_cluster_table_on(
    generated, tmp_path, capsys
):
    matrix, _ = generated
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(matrix), "--no-select", "--k", "4",
                 "--out", str(rundir)]) == 0
    run_out = capsys.readouterr().out
    # the run's table lists empty clusters too, evaluate's does not
    assert 0 not in json.loads((rundir / "report.json").read_text())["clustering"][
        "cluster_sizes"]
    assert main(["evaluate", "--data", str(rundir / "normalized.tsv"),
                 "--assignment", str(rundir / "assignment.json")]) == 0
    eval_out = capsys.readouterr().out
    assert eval_out == run_out[run_out.index("cluster\tsize\tmean_silhouette"):]


def test_run_with_selection_on_informative_matrix(tmp_path, capsys):
    matrix = tmp_path / "bump.tsv"
    write_matrix(bump_matrix(), matrix)
    rundir = tmp_path / "out"
    code = main(["run", "--input", str(matrix), "--out", str(rundir)])
    assert code == 0
    report = json.loads((rundir / "report.json").read_text())
    assert report["selection"]["enabled"] is True
    assert report["clustering"]["k"] == 7
    assert (rundir / "selected.tsv").exists()
    capsys.readouterr()


@pytest.mark.parametrize("flags, refusal", [
    pytest.param(
        ["--no-select"], r"k=50 exceeds the 40 genes available after filtering\n",
        id="no-select",
    ),
    pytest.param([], r"k=50 exceeds the \d+ genes available after selection\n", id="select"),
])
def test_run_k_refusal_names_the_step_that_left_the_genes(tmp_path, capsys, flags, refusal):
    matrix = tmp_path / "m.tsv"
    assert main([
        "generate", "--genes", "40", "--conditions", "6", "--clusters", "3",
        "--seed", "1", "--out", str(matrix),
    ]) == 0
    capsys.readouterr()
    code = main(["run", "--input", str(matrix), *flags, "--k", "50"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(f"genecluster: error: {refusal}", captured.err)


def test_run_requires_input(capsys):
    assert main(["run", "--k", "3"]) == 2
    assert "input matrix is required" in capsys.readouterr().err


def test_run_seed_with_deterministic_strategy_is_config_error(generated, capsys):
    matrix, _ = generated
    code = main(["run", "--input", str(matrix), "--no-select", "--seed", "4"])
    assert code == 2
    assert "--seed applies only" in capsys.readouterr().err


def test_run_negative_seed_is_config_error(tmp_path, capsys):
    # refused before the input is read, so a missing file does not matter
    code = main([
        "run", "--input", str(tmp_path / "nowhere.tsv"), "--strategy", "random",
        "--seed", "-1", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_missing_file_is_input_error(tmp_path, capsys):
    code = main(["run", "--input", str(tmp_path / "nowhere.tsv")])
    assert code == 3
    assert "stage 'parse':" in capsys.readouterr().err


def test_run_malformed_cell_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.tsv"
    path.write_text("id\tt1\tt2\ng1\t1.0\tbanana\n")
    code = main(["run", "--input", str(path)])
    assert code == 3
    err = capsys.readouterr().err
    assert "stage 'parse':" in err
    assert "line 2" in err


def test_run_infinite_cell_is_input_error(tmp_path, capsys):
    path = tmp_path / "inf.tsv"
    path.write_text("id\tt1\tt2\ng1\t1.0\t2.0\ng2\t0.5\tInfinity\n")
    code = main(["run", "--input", str(path), "--no-select", "--k", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "stage 'parse':" in err
    assert "line 3: column 't2': not a finite number: 'Infinity'" in err


def test_run_overflowing_column_range_is_input_error(tmp_path, capsys):
    path = tmp_path / "huge.tsv"
    path.write_text("id\tt1\tt2\ng1\t1e308\t1\ng2\t-1e308\t2\ng3\t0\t3\ng4\t5e307\t4\n")
    code = main(["run", "--input", str(path), "--no-select", "--k", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "stage 'normalize': range of condition column(s) overflows a float: t1" in err


def test_run_oversized_cell_is_input_error(tmp_path, capsys):
    path = tmp_path / "big.tsv"
    path.write_text("id\tt1\ng1\t" + "1" * 200000 + "\ng2\t2\n")
    code = main(["run", "--input", str(path), "--no-select", "--k", "2"])
    assert code == 3
    assert "stage 'parse': line 2: field larger than field limit" in capsys.readouterr().err


def test_run_carriage_return_in_id_is_input_error(tmp_path, capsys):
    # the file is read without newline translation, as parse_matrix sees it
    path = tmp_path / "cr.tsv"
    for data, message in (
        (b"id\tt1\ng\r1\t1\ng2\t2\n", "line 2: new-line character seen in unquoted field"),
        (b'id\tt1\n"g\r1"\t1\ng2\t2\n', "line 2: gene id holds a carriage return: 'g\\r1'"),
        (b"id\tt1\rg1\t1\rg2\t2\r", "line 1: new-line character seen in unquoted field"),
    ):
        path.write_bytes(data)
        code = main(["run", "--input", str(path), "--no-select", "--k", "1"])
        assert code == 3
        assert f"stage 'parse': {message}" in capsys.readouterr().err


def _assert_same_files(one, other):
    """The two output directories hold the same files; report.json is
    compared without its timings."""
    names = sorted(p.name for p in one.iterdir())
    assert names == sorted(p.name for p in other.iterdir())
    for name in names:
        a, b = ((d / name).read_bytes() for d in (one, other))
        if name == "report.json":
            a, b = ({k: v for k, v in json.loads(x).items() if k != "timings"} for x in (a, b))
        assert a == b, name


def test_run_reads_crlf_file_like_lf_file(generated, tmp_path):
    matrix, _ = generated
    crlf = tmp_path / "crlf.tsv"
    crlf.write_bytes(matrix.read_bytes().replace(b"\n", b"\r\n"))
    for path, out in ((matrix, "lf"), (crlf, "crlf")):
        code = main(["run", "--input", str(path), "--k", "3", "--out", str(tmp_path / out)])
        assert code == 0
    _assert_same_files(tmp_path / "lf", tmp_path / "crlf")


def test_leading_bom_is_ignored(generated, tmp_path, capsys):
    # a file saved as "UTF-8 with BOM" reads as the same file without it
    matrix, _ = generated
    settings = f"input = {matrix}\nk = 2\nselect = off\n".encode()
    for name, data in (("plain.cfg", settings), ("bom.cfg", b"\xef\xbb\xbf" + settings)):
        (tmp_path / name).write_bytes(data)
        out = str(tmp_path / name.replace(".cfg", ""))
        assert main(["run", "--config", str(tmp_path / name), "--out", out]) == 0
    _assert_same_files(tmp_path / "plain", tmp_path / "bom")
    assignment = tmp_path / "plain" / "assignment.json"
    bom_assignment = tmp_path / "bom_assignment.json"
    bom_assignment.write_bytes(b"\xef\xbb\xbf" + assignment.read_bytes())
    for path, out in ((assignment, "eval"), (bom_assignment, "bom_eval")):
        assert main([
            "evaluate", "--data", str(tmp_path / "plain" / "normalized.tsv"),
            "--assignment", str(path), "--out", str(tmp_path / out),
        ]) == 0
    _assert_same_files(tmp_path / "eval", tmp_path / "bom_eval")
    for name in ("silhouette.json", "silhouette.tsv"):
        assert (tmp_path / "eval" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    capsys.readouterr()


def test_assignment_tsv_quotes_ids_as_csv(tmp_path, capsys):
    # ids holding a tab, '"' or a line break are legal in a quoted field
    path = tmp_path / "odd.csv"
    path.write_text('id,t1,t2,t3\n"g\t1",1,2,3\n"g\n2",3,2,1\n"g""3",1,3,2\ng4,2,2,5\n')
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(path), "--k", "2", "--no-select", "--out", str(rundir)]) == 0
    capsys.readouterr()
    with open(rundir / "assignment.tsv", newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f, delimiter="\t")
    payload = json.loads((rundir / "assignment.json").read_text())
    assert header == ["gene", "cluster", "nearest_dist"]
    assert [r[0] for r in rows] == payload["point_ids"] == ["g\t1", "g\n2", 'g"3', "g4"]
    assert [r[1] for r in rows] == [cluster_label(c) for c in payload["labels"]]
    assert [float(r[2]) for r in rows] == payload["nearest_dist"]


def test_run_duplicate_gene_in_genes_as_columns_header_is_input_error(tmp_path, capsys):
    path = tmp_path / "flipped.tsv"
    path.write_text("id\tg1\tg2\tg1\nt1\t1\t2\t3\nt2\t4\t5\t6\n")
    code = main([
        "run", "--input", str(path), "--orientation", "genes-as-columns",
        "--no-select", "--k", "1",
    ])
    assert code == 3
    assert "stage 'parse': line 1: header field 4: duplicate gene id: 'g1'" in (
        capsys.readouterr().err
    )


def test_run_repeated_gene_id_names_its_line(tmp_path, capsys):
    path = tmp_path / "repeat.tsv"
    path.write_text("id\tt1\tt2\ng1\t1\t2\ng2\t3\t4\ng1\t5\t6\n")
    code = main(["run", "--input", str(path), "--no-select", "--k", "1"])
    assert code == 3
    assert "stage 'parse': line 4: duplicate gene id: 'g1'" in capsys.readouterr().err


def test_run_empty_gene_id_is_input_error(tmp_path, capsys):
    path = tmp_path / "blank.tsv"
    path.write_text("id\tt1\tt2\ng1\t1\t2\n\t3\t4\n")
    code = main(["run", "--input", str(path), "--no-select", "--k", "1"])
    assert code == 3
    assert "stage 'parse': line 3: empty row id" in capsys.readouterr().err


def test_unexpected_failure_is_stage_error(generated, monkeypatch, capsys):
    matrix, _ = generated

    def boom(*args, **kwargs):
        raise RuntimeError("centroid matrix went missing")

    monkeypatch.setattr("genecluster.pipeline.cluster_pipeline", boom)
    code = main(["run", "--input", str(matrix), "--no-select", "--k", "4"])
    assert code == 4
    err = capsys.readouterr().err
    assert "stage 'cluster' failed" in err
    assert "centroid matrix went missing" in err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_config_file_with_flag_override(generated, tmp_path, capsys):
    matrix, _ = generated
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# pipeline settings\n"
        f"input = {matrix}\n"
        "k = 3\n"
        "select = false\n"
        "new-min = 0.0\n"
    )
    rundir = tmp_path / "cfgout"
    code = main(["run", "--config", str(cfg), "--k", "2", "--out", str(rundir)])
    assert code == 0
    report = json.loads((rundir / "report.json").read_text())
    assert report["clustering"]["k"] == 2  # flag beats config file
    assert report["selection"]["enabled"] is False
    capsys.readouterr()


def test_config_file_errors(tmp_path, capsys):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("colour = blue\n")
    assert main(["run", "--config", str(bad_key)]) == 2
    assert "unknown key" in capsys.readouterr().err

    bad_value = tmp_path / "b.cfg"
    bad_value.write_text("k = seven\n")
    assert main(["run", "--config", str(bad_value)]) == 2
    assert "bad value for k" in capsys.readouterr().err

    no_equals = tmp_path / "c.cfg"
    no_equals.write_text("just a line\n")
    assert main(["run", "--config", str(no_equals)]) == 2
    assert "expected key=value" in capsys.readouterr().err


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_config_file_lines_end_only_at_newline(generated, tmp_path, capsys, newline):
    # str.splitlines would end the comment at "\x85" or "\u2028"
    matrix, _ = generated
    cfg = tmp_path / "nel.cfg"
    lines = ["# note\x85 x\u2028 y", f"input = {matrix}", "k = 2", "select = off", ""]
    cfg.write_bytes(newline.join(lines).encode())
    rundir = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(rundir)]) == 0
    report = json.loads((rundir / "report.json").read_text())
    assert report["clustering"]["k"] == 2
    assert report["selection"]["enabled"] is False
    capsys.readouterr()
    cfg.write_bytes(newline.join(["# a\x85b", "k = 2", "just a line", ""]).encode())
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"{cfg}:3: expected key=value" in capsys.readouterr().err
    # nor does a bare "\r": a setting running into the next one is refused
    cfg.write_bytes(newline.join([f"input = {matrix}", "out = x\rk = 2", ""]).encode())
    assert main(["run", "--config", str(cfg)]) == 2
    assert f"{cfg}:2: expected key=value, got 'out = x\\rk = 2" in capsys.readouterr().err


def _run_parser():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return sub.choices["run"]


def test_run_flags_config_keys_and_fields_agree():
    dests = {a.dest for a in _run_parser()._actions} - {"help", "config"}
    assert dests == set(RUN_KEYS)
    fields = [f.name for f in dataclasses.fields(PipelineConfig)]
    assert sorted(RUN_KEYS.values()) == sorted(fields)  # one key per field
    renamed = {k: f for k, f in RUN_KEYS.items() if k != f}
    assert renamed == {"input": "input_path", "out": "output_dir", "format": "formats"}


def test_config_file_with_every_key_equals_flags(tmp_path):
    settings = {
        "input": "m.tsv", "orientation": "genes-as-columns", "delimiter": ";",
        "k": "3", "strategy": "random", "seed": "5", "mode": "shortcut",
        "new-min": "-1.5", "new-max": "2.5", "max-iters": "50", "runs": "2",
        "out": "results", "format": "json",
    }
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()) + "select = off\n")
    flags = [part for k, v in settings.items() for part in (f"--{k}", v)] + ["--no-select"]
    from_file = run_config(_run_parser().parse_args(["--config", str(cfg)]))
    from_flags = run_config(_run_parser().parse_args(flags))
    assert from_file == from_flags == PipelineConfig(
        "m.tsv", orientation="genes-as-columns", delimiter=";", new_min=-1.5,
        new_max=2.5, select=False, k=3, strategy="random", seed=5, mode="shortcut",
        max_iters=50, runs=2, output_dir="results", formats=("json",),
    )
    assert set(settings) | {"select"} == {k.replace("_", "-") for k in RUN_KEYS}


@pytest.mark.parametrize("bounds", [
    ["--new-min=-1e308", "--new-max=1e308"],  # each end finite, the width overflows
    ["--new-min=-inf"],
    ["--new-max=inf"],
])
def test_run_normalization_range_is_config_error(generated, tmp_path, capsys, bounds):
    matrix, _ = generated
    out = tmp_path / "out"
    code = main(["run", "--input", str(matrix), "--no-select", "--k", "2",
                 "--out", str(out), *bounds])
    assert code == 2
    assert "finite width" in capsys.readouterr().err
    assert not (out / "normalized.tsv").exists()


def test_config_file_normalization_range_is_config_error(generated, tmp_path, capsys):
    matrix, _ = generated
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(f"input = {matrix}\nselect = off\nnew-min = -1e308\nnew_max = 1e308\n")
    assert main(["run", "--config", str(cfg), "--k", "2"]) == 2
    assert "finite width" in capsys.readouterr().err


def test_long_delimiter_is_config_error(generated, tmp_path, capsys):
    matrix, _ = generated
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(matrix), "--no-select", "--k", "4",
                 "--out", str(rundir)]) == 0
    capsys.readouterr()
    message = "delimiter must be one character, got ';;'"

    assert main(["run", "--input", str(matrix), "--delimiter", ";;"]) == 2
    assert message in capsys.readouterr().err

    cfg = tmp_path / "delim.cfg"
    cfg.write_text(f"input = {matrix}\ndelimiter = ;;\n")
    assert main(["run", "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err

    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(rundir / "assignment.json"), "--delimiter", ";;",
    ])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("delimiter", ['"', "\n", "\r"])
def test_quote_or_line_break_delimiter_is_config_error(generated, tmp_path, capsys, delimiter):
    matrix, _ = generated
    rundir = tmp_path / "run"
    assert main(["run", "--input", str(matrix), "--no-select", "--k", "4",
                 "--out", str(rundir)]) == 0
    capsys.readouterr()
    message = f"delimiter cannot be the quote character or a line break, got {delimiter!r}"

    assert main(["run", "--input", str(matrix), "--delimiter", delimiter]) == 2
    assert message in capsys.readouterr().err

    if delimiter == '"':  # a config-file value cannot hold a line break
        cfg = tmp_path / "delim.cfg"
        cfg.write_text(f"input = {matrix}\ndelimiter = {delimiter}\n")
        assert main(["run", "--config", str(cfg)]) == 2
        assert message in capsys.readouterr().err

    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(rundir / "assignment.json"), "--delimiter", delimiter,
    ])
    assert code == 2
    assert message in capsys.readouterr().err


def test_negative_exponent_value_as_separate_word(generated, tmp_path, capsys):
    matrix, _ = generated
    outputs = []
    for bounds in (["--new-min", "-1e-3", "--new-max", "2.5"],
                   ["--new-min=-1e-3", "--new-max=2.5"]):
        out = tmp_path / str(len(outputs))
        code = main(["run", "--input", str(matrix), "--no-select", "--k", "2",
                     "--out", str(out), *bounds])
        assert code == 0
        outputs.append((out / "normalized.tsv").read_text())
    assert outputs[0] == outputs[1]
    values = parse_matrix(outputs[0]).values
    assert (values.min(), values.max()) == (-1e-3, 2.5)
    capsys.readouterr()
    # an infinite bound given as a separate word is a config error, not an unknown option
    assert main(["run", "--input", str(matrix), "--no-select", "--new-min", "-inf"]) == 2
    assert "finite width" in capsys.readouterr().err


def test_multi_run_deterministic_summary(tmp_path, capsys):
    matrix = tmp_path / "bump.tsv"
    write_matrix(bump_matrix(genes=80, conditions=17), matrix)
    rundir = tmp_path / "runs"
    code = main([
        "run", "--input", str(matrix), "--runs", "3", "--out", str(rundir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "all runs identical: yes" in out
    summary = json.loads((rundir / "runs_summary.json").read_text())
    assert summary["identical"] is True
    assert summary["runs"] == 3


def test_multi_run_random_summary(generated, tmp_path, capsys):
    matrix, _ = generated
    rundir = tmp_path / "rruns"
    code = main([
        "run", "--input", str(matrix), "--no-select", "--k", "4",
        "--strategy", "random", "--seed", "5", "--runs", "3",
        "--out", str(rundir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "wcss variance:" in out
    summary = json.loads((rundir / "runs_summary.json").read_text())
    assert summary["seeds"] == [5, 6, 7]
    assert "wcss_variance" in summary


def test_column_oriented_input_flag(generated, tmp_path, capsys):
    matrix, _ = generated
    from genecluster import read_matrix

    m = read_matrix(matrix, "genes-as-rows")
    lines = ["id\t" + "\t".join(m.gene_ids)]
    for j, cid in enumerate(m.condition_ids):
        lines.append(cid + "\t" + "\t".join(repr(float(v)) for v in m.values[:, j]))
    flipped = tmp_path / "flipped.tsv"
    flipped.write_text("\n".join(lines) + "\n")
    code = main([
        "run", "--input", str(flipped), "--orientation", "genes-as-columns",
        "--no-select", "--k", "4",
    ])
    assert code == 0
    assert "input shape: 60 genes x 8 conditions" in capsys.readouterr().out


def test_delimiter_override(generated, tmp_path, capsys):
    matrix, _ = generated
    from genecluster import read_matrix

    m = read_matrix(matrix, "genes-as-rows")
    odd = tmp_path / "matrix.txt"
    write_matrix(m, odd, delimiter=";")
    code = main([
        "run", "--input", str(odd), "--delimiter", ";", "--no-select", "--k", "4",
    ])
    assert code == 0
    capsys.readouterr()


def test_evaluate_id_mismatch(generated, tmp_path, capsys):
    matrix, _ = generated
    rundir = tmp_path / "run"
    assert main([
        "run", "--input", str(matrix), "--no-select", "--k", "4",
        "--out", str(rundir),
    ]) == 0
    payload = json.loads((rundir / "assignment.json").read_text())
    payload["point_ids"] = payload["point_ids"][::-1]
    twisted = tmp_path / "twisted.json"
    twisted.write_text(json.dumps(payload))
    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(twisted),
    ])
    assert code == 3
    err = capsys.readouterr().err
    assert f"{twisted}: assignment point ids do not match" in err


def test_evaluate_rejects_malformed_assignment(generated, tmp_path, capsys):
    matrix, _ = generated
    rundir = tmp_path / "run"
    assert main([
        "run", "--input", str(matrix), "--no-select", "--k", "4",
        "--out", str(rundir),
    ]) == 0
    capsys.readouterr()

    not_json = tmp_path / "broken.json"
    not_json.write_text("{ this is not json")
    assert main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(not_json),
    ]) == 3

    payload = json.loads((rundir / "assignment.json").read_text())
    del payload["centroids"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(payload))
    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(partial),
    ])
    assert code == 3
    assert "lacks 'centroids'" in capsys.readouterr().err

    payload = json.loads((rundir / "assignment.json").read_text())
    payload["labels"][0] = len(payload["centroids"])
    out_of_range = tmp_path / "out_of_range.json"
    out_of_range.write_text(json.dumps(payload))
    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(out_of_range),
    ])
    assert code == 3
    assert f"{out_of_range}: assignment labels must lie in 0..3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda p: 5, "assignment file must hold a JSON object"),
        (lambda p: {**p, "centroids": [p["centroids"][0], p["centroids"][1][:-1]]},
         "bad 'centroids'"),
        (lambda p: {**p, "labels": [0.7, *p["labels"][1:]]},
         "'labels' must be a list of integers"),
        (lambda p: {**p, "centroids": []}, "centroids must be a non-empty 2-d array"),
        (lambda p: {**p, "centroids": [1.0, 2.0]}, "centroids must be a non-empty 2-d array"),
        (lambda p: {**p, "nearest_dist": 7}, "'nearest_dist' must be a list of one distance"),
        (lambda p: {**p, "centroids": [row[:1] for row in p["centroids"]]},
         "'centroids' must have 8 columns"),
        (lambda p: {**p, "centroids": [[float("nan"), *p["centroids"][0][1:]],
                                       *p["centroids"][1:]]},
         "centroids must be finite"),
    ],
    ids=["not-an-object", "ragged-centroids", "fractional-label", "empty-centroids",
         "flat-centroids", "scalar-nearest-dist", "one-column-centroids", "nan-centroid"],
)
def test_evaluate_rejects_mistyped_assignment(generated, tmp_path, capsys, edit, message):
    matrix, _ = generated
    rundir = tmp_path / "run"
    assert main([
        "run", "--input", str(matrix), "--no-select", "--k", "4",
        "--out", str(rundir),
    ]) == 0
    capsys.readouterr()
    payload = json.loads((rundir / "assignment.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(payload)))
    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"), "--assignment", str(bad),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert f"{bad}: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text, message", [
    pytest.param("id\tt1\tt2\ng1\t1\n", "line 2: expected 3 fields, got 2", id="ragged"),
    pytest.param(
        "id\tt1\tt2\ng1\t1\t2\ng2\tNA\t3\n", "points must be finite (no missing entries)",
        id="missing-entry",
    ),
])
def test_evaluate_names_the_data_file_in_its_refusals(tmp_path, capsys, text, message):
    data = tmp_path / "data.tsv"
    data.write_text(text)
    evaldir = tmp_path / "ev"
    # the data is refused before the assignment file is read
    code = main(["evaluate", "--data", str(data), "--assignment",
                 str(tmp_path / "absent.json"), "--out", str(evaldir)])
    captured = capsys.readouterr()
    assert code == 3
    assert f"genecluster: error: {data}: {message}" in captured.err
    assert captured.out == ""
    assert not evaldir.exists()


@pytest.mark.parametrize("with_out", [False, True], ids=["no-out", "out"])
def test_evaluate_rejects_bad_format_before_reading(generated, tmp_path, capsys, with_out):
    matrix, _ = generated
    rundir = tmp_path / "run"
    assert main([
        "run", "--input", str(matrix), "--no-select", "--k", "4",
        "--out", str(rundir),
    ]) == 0
    capsys.readouterr()
    evaldir = tmp_path / "ev"
    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(rundir / "assignment.json"), "--format", "bogus",
        *(["--out", str(evaldir)] if with_out else []),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert "formats must be a non-empty subset" in captured.err
    assert captured.out == ""
    assert not evaldir.exists()


def test_evaluate_json_only_output(generated, tmp_path, capsys):
    matrix, _ = generated
    rundir = tmp_path / "run"
    assert main([
        "run", "--input", str(matrix), "--no-select", "--k", "4",
        "--out", str(rundir),
    ]) == 0
    evaldir = tmp_path / "ev"
    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(rundir / "assignment.json"),
        "--out", str(evaldir), "--format", "json",
    ])
    assert code == 0
    assert (evaldir / "silhouette.json").exists()
    assert not (evaldir / "silhouette.tsv").exists()
    capsys.readouterr()


def test_evaluate_of_one_cluster_assignment_is_input_error(generated, tmp_path, capsys):
    # the run is fine with one cluster; only its silhouette is undefined
    matrix, _ = generated
    rundir = tmp_path / "r1"
    assert main([
        "run", "--input", str(matrix), "--no-select", "--k", "1", "--out", str(rundir),
    ]) == 0
    capsys.readouterr()
    evaldir = tmp_path / "ev"
    code = main([
        "evaluate", "--data", str(rundir / "normalized.tsv"),
        "--assignment", str(rundir / "assignment.json"), "--out", str(evaldir),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "silhouette needs at least two non-empty clusters" in captured.err
    assert captured.out == ""
    assert not evaldir.exists()


_BAD_UTF8_TSV = b"id\tt1\tt2\ng1\t1\t2\n\xff\t2\t3\n"


@pytest.mark.parametrize("files, argv, code, message", [
    pytest.param(
        {"m.tsv": _BAD_UTF8_TSV}, ["run", "--input", "m.tsv"],
        3, "stage 'parse': line 3: not UTF-8 text", id="run-input",
    ),
    pytest.param(
        # the bad byte is named by its own line and byte, also after a BOM
        {"m.tsv": b"\xef\xbb\xbfid\tt1\n\xff\t1\n"}, ["run", "--input", "m.tsv"],
        3, "stage 'parse': line 2: not UTF-8 text: byte 0xff", id="run-input-after-bom",
    ),
    pytest.param(
        {"m.tsv": _BAD_UTF8_TSV}, ["evaluate", "--data", "m.tsv", "--assignment", "a.json"],
        3, "m.tsv: line 3: not UTF-8 text", id="evaluate-data",
    ),
    pytest.param(
        {"m.tsv": b"id\tt1\ng1\t1\ng2\t2\n", "a.json": b'{\n"point_ids": ["\xff"]}'},
        ["evaluate", "--data", "m.tsv", "--assignment", "a.json"],
        3, "a.json: line 2: not UTF-8 text", id="evaluate-assignment",
    ),
    pytest.param(
        {"run.cfg": b"# settings\nk=\xff\n"}, ["run", "--config", "run.cfg"],
        2, "run.cfg:2: not UTF-8 text", id="config-file",
    ),
])
def test_non_utf8_bytes_are_input_errors(
    tmp_path, capsys, monkeypatch, files, argv, code, message
):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_module_help_runs_as_subprocess():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "genecluster", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for name in ("run", "generate", "evaluate"):
        assert name in proc.stdout
