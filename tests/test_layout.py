"""The package holds only what a run executes, and sums in written order.

Every function, class, method and property defined in src/vptwin must be
named again somewhere in src/vptwin: by a call, an attribute access, an
import or a docstring. A definition named nowhere else is code that only
the tests reach; it belongs in tests/oracles.py, or nowhere.

No sum in src/vptwin may leave its order to numpy: totals go through
transport.ordered_sum, per-row norms through transport.squared_norms.

Every FFT in src/vptwin is numpy.fft: the kernel spectra and the pruned
solve must run the same transforms for the solve to equal the full one.

Only the run plan, harness.ScenarioConfig, builds a GridSpec: the grid
(and with it the "auto" softening) of every solve comes from one place.

The CI workflow runs the Tier-1 command that ROADMAP.md states.
"""

import ast
import re
from pathlib import Path

import pytest

import vptwin

PACKAGE = Path(vptwin.__file__).parent


def test_every_definition_is_named_elsewhere_in_the_package():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    defined = {}
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, []).append(f"{name}:{node.lineno}")
    package = "\n".join(sources.values())
    unused = [
        f"{name} ({', '.join(where)})"
        for name, where in sorted(defined.items())
        if len(re.findall(rf"\b{name}\b", package)) <= len(where)
    ]
    assert not unused, "defined in src/vptwin but named nowhere else there: " + "; ".join(unused)


# the reductions whose order numpy picks, as "<attribute chain>" suffixes of
# a call's function, plus the @ operator
UNORDERED_CALLS = ("sum", "mean", "einsum", "dot", "linalg.norm", "add.reduce")
# (module, enclosing function, reduction) -> why the site may stay
ALLOWED_REDUCTIONS = {
    ("fields.py", "solve_field_direct", "add.reduce"): (
        "an axis-0 reduce of a C-order (source, target) plane adds row after "
        "row from +0.0, in source order; test_fields.py pins it bit for bit "
        "against direct_sum_loop"
    ),
    ("scenarios.py", "_uniform_ball", "linalg.norm"): (
        "normalises the sampled directions: another order would move every "
        "uniform-ball and hubble trajectory, and squared_norms would bring a "
        "transport import back into scenarios"
    ),
}


def _dotted(node):
    """'a.b.c' for an attribute chain; a chain on any other expression,
    such as (x * y).sum, keeps only its attributes: 'sum'."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _reductions(tree):
    """(enclosing function, reduction, line) of every unordered reduction."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        label = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            chain = _dotted(node.func)
            label = next(
                (r for r in UNORDERED_CALLS if chain == r or chain.endswith("." + r)), None
            )
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            label = "@"
        if label is not None:
            found.append((where, label, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_no_sum_leaves_its_order_to_numpy():
    seen = set()
    bad = []
    for path in sorted(PACKAGE.glob("*.py")):
        for where, label, line in _reductions(ast.parse(path.read_text())):
            key = (path.name, where, label)
            if key in ALLOWED_REDUCTIONS:
                seen.add(key)
            else:
                bad.append(f"{path.name}:{line} {label} in {where}")
    assert not bad, "sums whose order numpy picks (use transport.ordered_sum): " + "; ".join(bad)
    assert seen == set(ALLOWED_REDUCTIONS), "allowed sites gone: " + str(
        set(ALLOWED_REDUCTIONS) - seen
    )


def test_reduction_guard_sees_every_form():
    source = (
        "def f(x, y, np):\n"
        "    a = np.sum(x) + x.sum() + np.mean(x) + x.mean(axis=0)\n"
        "    b = np.einsum('i,i', x, y) + np.dot(x, y) + x.dot(y) + (x @ y)\n"
        "    x @= y\n"
        "    c = np.linalg.norm(x) + np.add.reduce(x) + (x * y).sum()\n"
        "    return np.maximum.reduce(x) + np.count_nonzero(x) + sum([1, 2])\n"
    )
    labels = [label for _, label, _ in _reductions(ast.parse(source))]
    assert sorted(labels) == sorted(
        ["sum", "sum", "mean", "mean", "einsum", "dot", "dot", "@", "@",
         "linalg.norm", "add.reduce", "sum"]
    )


FOREIGN_FFT = ("scipy.fft", "scipy.fftpack")


def _fft_imports(tree):
    """(line, module) of each import statement that takes a scipy FFT module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        hits = [n for n in names if any(n == m or n.startswith(m + ".") for m in FOREIGN_FFT)]
        if hits:
            found.append((node.lineno, hits[0]))
    return sorted(found)


def test_every_fft_is_numpy_fft():
    bad = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _fft_imports(ast.parse(path.read_text()))
    ]
    assert not bad, "FFTs outside numpy.fft: " + "; ".join(bad)


def test_fft_guard_sees_every_form():
    source = (
        "import scipy.fft as sfft\n"
        "import scipy.fftpack\n"
        "from scipy import fft\n"
        "from scipy.fft import rfft\n"
        "from scipy import optimize, fftpack\n"
        "import numpy.fft\n"
        "from scipy import signal\n"
    )
    assert [line for line, _ in _fft_imports(ast.parse(source))] == [1, 2, 3, 4, 5]


def _grid_spec_uses(tree):
    """(enclosing class, line) of every use of the name GridSpec as a value
    (a call, or an alias that could be called later); annotations, imports
    and the class definition itself are not uses."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            return
        if isinstance(node, ast.ClassDef):
            where = node.name
        named = (isinstance(node, ast.Name) and node.id == "GridSpec") or (
            isinstance(node, ast.Attribute) and node.attr == "GridSpec"
        )
        if named:
            found.append((where, node.lineno))
            return
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    visit(child, where)

    visit(tree, None)
    return found


def test_only_the_run_plan_builds_a_grid():
    uses = {
        path.name: _grid_spec_uses(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    bad = [
        f"{name}:{line} in {where or 'module scope'}"
        for name, found in uses.items()
        for where, line in found
        if (name, where) != ("harness.py", "ScenarioConfig")
    ]
    assert not bad, "GridSpec built outside ScenarioConfig: " + "; ".join(bad)
    assert uses["harness.py"], "the run plan builds no GridSpec"


def test_grid_guard_sees_every_form():
    source = (
        "from .fields import GridSpec\n"
        "import vptwin.fields as f\n"
        "class GridSpec:\n"
        "    edge: float\n"
        "def a(spec: GridSpec) -> GridSpec:\n"
        "    x: GridSpec = spec\n"
        "    return GridSpec(1.0, 8)\n"
        "class ScenarioConfig:\n"
        "    def grid(self):\n"
        "        return f.GridSpec(1.0, 8)\n"
        "make = f.GridSpec\n"
    )
    assert _grid_spec_uses(ast.parse(source)) == [(None, 7), ("ScenarioConfig", 10), (None, 11)]


def test_ci_runs_the_tier1_command_and_the_benchmark_tests():
    # the workflow parses, and its steps run ROADMAP.md's Tier-1 command and
    # perfbench/test_perfbench.py on Python 3.11, with the numpy and scipy
    # the goldens were made with and the pytest and hypothesis whose
    # derandomized examples the property tests were written against, and
    # the pyyaml this check parses the workflow with
    yaml = pytest.importorskip("yaml")
    root = Path(__file__).resolve().parents[1]
    workflow = yaml.safe_load((root / ".github" / "workflows" / "tests.yml").read_text())
    tier1 = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (root / "ROADMAP.md").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    runs = [step.get("run", "") for step in steps]
    assert tier1 and tier1.group(1) in runs
    assert any(run.endswith("pytest -q perfbench/test_perfbench.py") for run in runs)
    assert {"python-version": "3.11"} in [step.get("with") for step in steps]
    pins = (
        "numpy==2.4.6", "scipy==1.17.1", "pytest==9.0.3", "hypothesis==6.155.2", "pyyaml==6.0.3"
    )
    assert any(run.startswith("python -m pip install") and set(pins) <= set(run.split())
               for run in runs)
