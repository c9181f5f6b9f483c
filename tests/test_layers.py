"""The package's modules import in one order: each module imports only the
modules before it in ``LAYERS``, so the oracles never load the engine they
check. Imports inside an ``if TYPE_CHECKING:`` block are for annotations and
do not count; an import inside a function body is never allowed."""
from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import fairshare

LAYERS = ["core", "utility", "oracle", "dynamics", "scenario", "cli"]
PACKAGE = Path(fairshare.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_TYPE_CHECKING = ("TYPE_CHECKING", "typing.TYPE_CHECKING")


def _imports(node, scope=None, in_function=False):
    """(import, the qualified name of the function it sits in, or None) for
    every import at or under ``node``, skipping ``if TYPE_CHECKING:`` bodies."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        yield node, scope if in_function else None
        return
    children = list(ast.iter_child_nodes(node))
    if isinstance(node, ast.If) and ast.unparse(node.test) in _TYPE_CHECKING:
        children = node.orelse
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = node.name if scope is None else f"{scope}.{node.name}"
        in_function = in_function or not isinstance(node, ast.ClassDef)
    for child in children:
        yield from _imports(child, scope, in_function)


def _targets(node: ast.Import | ast.ImportFrom) -> list[str]:
    """The package modules an import names; empty for outside packages."""
    if isinstance(node, ast.Import):
        names = [alias.name.split(".") for alias in node.names]
        return [p[1] for p in names if p[0] == "fairshare" and len(p) > 1]
    path = (node.module or "").split(".")
    if node.level == 0:
        if path[0] != "fairshare":
            return []
        path = path[1:]
    return [path[0]] if path and path[0] else [alias.name for alias in node.names]


def layer_findings(package: Path = PACKAGE) -> list[str]:
    """Every breach of the layer order in the modules of ``package``."""
    findings = []
    for path in sorted(package.glob("*.py")):
        module = path.stem
        if module == "__init__":
            rank = len(LAYERS)
        elif module in LAYERS:
            rank = LAYERS.index(module)
        else:
            findings.append(f"{module} is not in the layer order")
            continue
        for node, function in _imports(ast.parse(path.read_text(), str(path))):
            if function is not None:
                findings.append(f"{module}.{function} imports inside a function")
                continue
            for target in _targets(node):
                if target not in LAYERS[:rank]:
                    findings.append(f"{module} imports {target}")
    return findings


def test_modules_import_only_earlier_layers():
    assert layer_findings() == []


def test_each_kind_of_breach_is_found(tmp_path):
    modules = {
        "__init__.py": "from .cli import main\n",
        "core.py": ("from typing import TYPE_CHECKING\n"
                    "if TYPE_CHECKING:\n    from .utility import Model\n"
                    "class Noise:\n    def draw(self):\n        import numpy\n"),
        "utility.py": "import fairshare.core\nfrom fairshare import oracle\n",
        "oracle.py": "from .core import x\nfrom .dynamics import y\n",
        "dynamics.py": "from . import core, scenario\n",
        "extra.py": "",
    }
    for name, text in modules.items():
        (tmp_path / name).write_text(text)
    assert layer_findings(tmp_path) == [
        "core.Noise.draw imports inside a function",
        "dynamics imports scenario",
        "extra is not in the layer order",
        "oracle imports dynamics",
        "utility imports oracle",
    ]


def test_the_benchmark_trace_hooks_resolve():
    # perfbench's --trace 1 patches the layer boundaries by name (layers.py
    # install); a renamed or deleted one fails here rather than in the
    # benchmark. In a fresh process, as the patches are global.
    hooks = ("import sys; sys.path[:0] = sys.argv[1:]; import layers; "
             "layers.install(layers.SpanRecorder())")
    subprocess.run([sys.executable, "-c", hooks, str(PERFBENCH), str(PACKAGE.parent)],
                   check=True)
