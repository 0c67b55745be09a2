"""The package's public names: an explicit list, so the API cannot grow unnoticed."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import btdesign

PUBLIC = {
    "BtDesignError",
    "ClassificationError",
    "ConsistencyError",
    "Design",
    "KW_TOLERANCE",
    "KwCertificate",
    "Pair",
    "Parameters",
    "PathDesign",
    "RegionKind",
    "RegionLabel",
    "RegionMembership",
    "SingularMatrixError",
    "SolverResult",
    "all_pairs",
    "classify_m4",
    "d_efficiency",
    "find_optimal_saturated",
    "information_matrix",
    "kw_check",
    "log_det",
    "region_margin",
    "region_membership",
    "regression_vector",
    "search_disjoint_four_point",
    "solve",
}


def test_all_is_the_pinned_set():
    assert len(btdesign.__all__) == len(set(btdesign.__all__))
    assert set(btdesign.__all__) == PUBLIC


def test_import_leaves_graphs_unloaded():
    # The package and its CLI answer without the graph module, which only the benchmark's tests import.
    src = str(Path(btdesign.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, btdesign, btdesign.cli; print('btdesign.graphs' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_every_public_name_resolves():
    for name in btdesign.__all__:
        assert getattr(btdesign, name) is not None, name


def _referenced_names(path: Path) -> set[str]:
    """Names a module uses: loaded names, attributes and imports, not its own definitions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_public_name_has_a_user():
    # A public name that neither the package nor a test uses is dead API.
    src = Path(btdesign.__file__).parent
    tests = Path(__file__).parent
    modules = [p for p in src.glob("*.py") if p.name != "__init__.py"]
    modules += [p for p in tests.glob("test_*.py") if p.name != Path(__file__).name]
    used = set().union(*map(_referenced_names, modules))
    assert sorted(set(btdesign.__all__) - used) == []


def test_package_imports_only_stdlib_and_numpy():
    # src/ depends on numpy alone; scipy, sympy and the like stay in tests and tools.
    allowed = set(sys.stdlib_module_names) | {"numpy", "btdesign"}
    found = {}
    for path in Path(btdesign.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                roots = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = [node.module.split(".")[0]]
            else:
                continue
            found.update((root, path.name) for root in roots if root not in allowed)
    assert found == {}


def test_only_core_builds_or_factors_the_information_matrix():
    # One kernel for M: core._derivatives assembles and factors it, and
    # every other module reads d and log det from that kernel.  Importing a
    # name is fine (bench/tests checks that optimality and solver bind
    # cholesky_pivots); calling it outside core is not, by its bare name or
    # through the module.  A method of the same name, such as the solver's
    # cached log det of a design, is not core's function.
    kernel = {"regression_matrix", "information_matrix", "log_det", "cholesky_pivots"}
    calls = []
    for path in sorted(Path(btdesign.__file__).parent.glob("*.py")):
        if path.name == "core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in {"core", "btdesign"}:
                name = func.attr
            else:
                continue
            if name in kernel:
                calls.append(f"{path.name}:{node.lineno} {name}")
    assert calls == []
