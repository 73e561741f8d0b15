"""The screen module's boundary: it alone decides which Haar draws of a batch
are scored exactly, draws every sampling batch, and depends on numerics only."""

import ast
from pathlib import Path

import numpy as np
import pytest

import qqent
from qqent import _screen
from qqent.decompositions import iter_decomposition_samples, min_average_search
from qqent.numerics import BATCH_SIZE

from conftest import random_density

SRC = Path(qqent.__file__).resolve().parent

#: names that live in _screen only
SCREEN_NAMES = {
    "SCREEN_MARGIN", "SCREEN_KAPPA", "_PROBES", "_PIVOT_FLOOR", "draws", "_candidates",
    "_gram_schmidt", "preconcurrence_estimator", "_screened_preconcurrence", "_trace_bound",
    "_block_gram", "_gram_estimates", "_pruned", "_cholesky_passes",
}


def module_ast(name):
    return ast.parse((SRC / f"{name}.py").read_text())


def top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def referenced(tree, name):
    """Whether ``tree`` names ``name``: as a variable, an attribute or an import."""
    return any(
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
        or isinstance(node, ast.alias) and node.name == name
        for node in ast.walk(tree)
    )


def test_screen_imports_only_numerics():
    imports = [node for node in module_ast("_screen").body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert {(node.level, node.module) for node in imports if isinstance(node, ast.ImportFrom)} == {
        (1, "numerics")}
    assert [alias.name for node in imports if isinstance(node, ast.Import)
            for alias in node.names] == ["numpy"]


def test_screen_names_defined_once():
    assert SCREEN_NAMES <= top_level_names(module_ast("_screen"))
    for name in ("numerics", "measures", "decompositions"):
        assert not SCREEN_NAMES & top_level_names(module_ast(name)), name


def test_batches_drawn_and_picked_only_in_draws():
    # haar_unitary draws its own normals; every sampling batch is drawn in
    # _screen.draws, and only _screen applies the candidate rule
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.stem == "_screen":
            others = [node for node in tree.body
                      if isinstance(node, ast.FunctionDef) and node.name != "draws"]
            assert not any(referenced(node, "_haar_normals") for node in others)
        elif path.stem != "numerics":
            assert not referenced(tree, "_haar_normals"), path.stem
        if path.stem != "_screen":
            assert not referenced(tree, "_candidates"), path.stem


@pytest.mark.parametrize("search", [
    pytest.param(lambda rho: min_average_search(rho, 4, 5000, 3), id="min_average_search"),
    pytest.param(lambda rho: list(iter_decomposition_samples(rho, 4, 5000, 3)),
                 id="iter_decomposition_samples"),
])
def test_search_draws_every_batch_into_one_buffer(search, monkeypatch):
    draw, buffers = _screen._haar_normals, []

    def recorded(rng, dim, count, out):
        buffers.append(out)
        return draw(rng, dim, count, out)

    monkeypatch.setattr(_screen, "_haar_normals", recorded)
    search(random_density(np.random.default_rng(9), 6, rank=3))
    assert len(buffers) == -(-5000 // BATCH_SIZE)
    assert all(np.shares_memory(b, buffers[0]) for b in buffers)
