"""Every certlap module does its imports at module level, so the import
graph of the package is visible at the top of each file, and numpy is the
only third-party package it reaches."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import certlap
import certlap.gibbs
import certlap.oracle

SRC = Path(certlap.__file__).parent


def test_no_import_inside_a_function():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert found == []


def test_one_limit_frame():
    """problems.limit_axes is the one place that picks the exponential axis
    and the inward sign: no np.delete tangent extraction and no
    boundary_side helper remain."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "delete"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                found.append(f"{path.name}:{node.lineno}: np.delete")
            if isinstance(node, ast.FunctionDef) and node.name == "boundary_side":
                found.append(f"{path.name}:{node.lineno}: def boundary_side")
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "boundary_side":
                found.append(f"{path.name}:{node.lineno}: boundary_side()")
    assert found == []
    assert not hasattr(certlap.problems, "boundary_side")


def _callers(name: str, skip: str = "") -> set[str]:
    """The functions of the package, as module.function, that call ``name``
    (a bare name or an attribute); a call in a nested function counts for
    the module-level function it is nested in.  ``skip`` is a module file
    left out."""
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == skip:
            continue
        for top in ast.parse(path.read_text()).body:
            fns = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in fns:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)
                    ):
                        callers.add(f"{path.stem}.{fn.name}")
    return callers


def test_one_expectation_path():
    """Outside the oracle, integrate is called only by the laplace check, by
    gibbs_measure (the normaliser) and by the one expectation helper that
    every box probability and MGF goes through."""
    assert _callers("integrate", skip="oracle.py") == {
        "cli._check_laplace", "gibbs.gibbs_measure", "gibbs._expectation"}


def test_one_maximizer_solve():
    """x*(N) and every tilted maximizer of f(., N) are solved by one cached
    solver: besides it, only classify_maximum (the limit maximizer) runs
    locate_maximum, and the tilt check reads the solver.  No module stores
    x*(N) as state, and only f(., N)'s assembly adds fields.  Every field is
    evaluated by ScalarField.evaluate: no module defines or imports a second
    evaluator."""
    assert _callers("locate_maximum") == {
        "problems.classify_maximum", "problems._maximizer_of_n"}
    assert "gibbs._check_tilt_inside" in _callers("_maximizer_of_n")
    assert _callers("add_fields") == {"problems.f_of_box"}
    assert [p.name for p in sorted(SRC.glob("*.py")) if "x_star_of_N" in p.read_text()] == []
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            found += [f"{path.name}:{node.lineno}" for n in names if n == "field_values"]
    assert found == []


def test_one_block_evaluation():
    """Every layer evaluates a coupling block as a field of its own, on the
    block's own axes (``problems.block_field``): the constants' extremes,
    the sampler's Hessian grids and the oracle's block sums.  No derivative
    or extreme is sliced to a block out of a full-width grid, and the
    sampler reads each proposal's envelope as it draws it, with no label
    array read back."""
    assert _callers("block_field") == {
        "constants.estimate_constants", "gibbs._block_hessians",
        "oracle._block_exponent", "oracle.integrate"}
    assert "gibbs._block_hessians" not in _callers("gauss_block")
    assert list(inspect.signature(certlap.derivatives.third_norms_on).parameters) == ["fld", "pts"]
    assert "axes" not in inspect.signature(certlap.constants._curvature_extremes).parameters
    assert not hasattr(certlap.gibbs._Envelope, "log_labelled")


def test_oracle_builds_no_meshgrid_copies():
    """The oracle fills one point buffer by broadcasting each axis's nodes:
    it calls neither np.meshgrid nor np.stack."""
    path = SRC / "oracle.py"
    found = [
        f"{path.name}:{node.lineno}: np.{node.func.attr}"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("meshgrid", "stack")
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in ("np", "numpy")
    ]
    assert found == []


def test_no_difference_stencil():
    """Every field is a term list with exact derivative handles: no function
    or table in the package is a difference stencil, and a ScalarField
    cannot be built from a bare callable."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = []
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            found += [f"{path.name}:{node.lineno}: {n}" for n in names
                      if n in ("_D1", "_D2") or "stencil" in n.lower()]
    assert found == []
    with pytest.raises(TypeError):
        certlap.ScalarField(lambda p: -np.sum(p * p, axis=-1))
    with pytest.raises(TypeError):
        certlap.ScalarField(evaluate=lambda p: -np.sum(p * p, axis=-1))


def test_epsilon_and_fields_are_plain_data():
    """eps is (scale, exponent) data that every decay rule reads, with no
    tag or probe beside it, and a field is its term list and coupling: it
    carries no name."""
    gone = ("decay_class", "zero_epsilon", "power_epsilon", "_eps_sqrt_n_violated")
    found = [f"{p.name}: {n}" for p in sorted(SRC.glob("*.py")) for n in gone
             if n in p.read_text()]
    assert found == []
    fields = [f.name for f in dataclasses.fields(certlap.EpsilonSchedule)]
    assert fields == ["scale", "exponent"]
    fields = [f.name for f in dataclasses.fields(certlap.ScalarField)]
    assert fields == ["terms", "coupling"]


def _memo_name(node) -> str | None:
    """``lru_cache`` or ``cache`` when the expression is that decorator,
    bare, called or reached through ``functools``."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name if name in ("lru_cache", "cache") else None


def test_one_cache_per_spec():
    """Every per-problem value lives in the spec's one cache, which only
    problems.py reads, behind ProblemSpec.cached: no module imports weakref,
    and the module-level memos are the three bounded ones of pure functions
    of plain numbers."""
    weak, memos, readers = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                weak += [path.name for a in node.names if a.name.split(".")[0] == "weakref"]
            elif isinstance(node, ast.ImportFrom) and node.module == "weakref":
                weak.append(path.name)
            elif isinstance(node, ast.Attribute) and node.attr in ("_cache", "_block_fields"):
                readers.append(path.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                memos += [node.name for d in node.decorator_list if _memo_name(d)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
                memos += [f"{path.name}:{node.lineno}" for n in ast.walk(node.value)
                          if isinstance(n, ast.Call) and _memo_name(n)]
    assert weak == []
    assert sorted(memos) == ["_blocks", "_cell_geometry", "_leggauss"]
    assert set(readers) == {"problems.py"}
    for module, fn in ((certlap.oracle, "_panel_store"), (certlap.gibbs, "_block_hessians")):
        source = ast.parse(inspect.getsource(getattr(module, fn)))
        assert any(isinstance(n, ast.Attribute) and n.attr == "cached" for n in ast.walk(source))
    spec = certlap.get_problem("gauss1d")
    spec.f_of_box(100)
    assert dataclasses.replace(spec)._cache == {}


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports certlap from this
    source tree; returns its stdout."""
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return done.stdout


def test_cli_imports_no_scipy():
    loaded = _fresh_python(
        "import json, sys\n"
        "import certlap.cli\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    assert [m for m in json.loads(loaded) if m.split(".")[0] == "scipy"] == []


def test_full_checks_run_without_scipy():
    """With every scipy import failing, full-check runs of an interior, a
    3-D boundary and an inline boundary problem end as they do with scipy
    installed: status 0."""
    bnd2d = {
        "name": "bnd2d",
        "domain": {"lower": [0.0, -1.0], "upper": [1.0, 1.0]},
        "f": {"type": "polynomial", "terms": [
            {"coeff": -1.0, "powers": [1, 0]}, {"coeff": -0.3, "powers": [2, 0]},
            {"coeff": -0.5, "powers": [0, 2]},
        ]},
        "g": {"type": "exponential", "linear": [0.3, -0.2]},
        "sigma": {"type": "polynomial", "terms": [{"coeff": 1.0, "powers": [1, 0]}]},
        "epsilon": {"class": "power", "exponent": -0.75},
    }
    out = _fresh_python(
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from certlap.cli import run_checks\n"
        "from certlap.config import KNOWN_CHECKS, RunConfig\n"
        f"problems = ['gauss1d', 'boundary3d', {bnd2d!r}]\n"
        "print(json.dumps([run_checks(RunConfig(problem=p, checks=KNOWN_CHECKS, seed=1,\n"
        "                                       sample_count=20_000))[0] for p in problems]))\n"
    )
    assert json.loads(out) == [0, 0, 0]
