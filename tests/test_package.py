"""The package root: its public names, and which submodules an import loads."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import genecluster

PACKAGE = Path(genecluster.__file__).resolve().parent


def _run_fresh(code, cwd):
    """Run `code` in a fresh interpreter that imports this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_layer_and_setup_only_its_own(tmp_path):
    # set-up of a benchmark input (generate, then write) should not pay for
    # the reduct, K-Means, the silhouette or the pipeline
    _run_fresh(
        """
import sys

def loaded():
    return sorted(m for m in sys.modules if m.startswith("genecluster."))

import genecluster
assert loaded() == [], loaded()
assert "numpy" not in sys.modules
m, _ = genecluster.generate_synthetic(30, 6, 3, seed=1)
genecluster.write_matrix(m, "m.tsv")
assert loaded() == ["genecluster.errors", "genecluster.matrix", "genecluster.synthetic"], loaded()
""",
        tmp_path,
    )


@pytest.mark.parametrize("name", genecluster.__all__)
def test_public_name_is_its_submodule_object(name):
    value = getattr(genecluster, name)
    assert value.__module__.startswith("genecluster.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from genecluster import *", namespace)
    assert set(genecluster.__all__) <= set(namespace)
    assert namespace["run_pipeline"] is genecluster.pipeline.run_pipeline


def test_dir_lists_every_public_name():
    assert {"__all__", *genecluster.__all__} <= set(dir(genecluster))


def test_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'genecluster' has no attribute 'nope'"):
        genecluster.nope


def test_submodule_resolves_after_a_bare_import(tmp_path):
    _run_fresh(
        """
import sys
import genecluster
assert genecluster.pipeline is sys.modules["genecluster.pipeline"]
assert genecluster.clustering.kmeans is genecluster.kmeans
""",
        tmp_path,
    )


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_the_package_root(path):
    # a module that imports the root would reach its names through the
    # root's __getattr__, which imports that module again: layers import
    # each other by their own names
    tree = ast.parse(path.read_text())
    root = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.ImportFrom) and n.module == ("genecluster" if n.level == 0 else None)
        or isinstance(n, ast.Import) and "genecluster" in (a.name for a in n.names)
    ]
    assert not root, [ast.unparse(n) for n in root]
