import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sparse_risk"
# ROADMAP item 1: the package's source stays within this many lines.
LINE_BUDGET = 2400


def test_source_within_line_budget():
    # counted as `wc -l` counts: newline characters
    files = sorted(SRC.glob("*.py"))
    assert files
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert lines <= LINE_BUDGET, f"src/sparse_risk/*.py has {lines} lines"


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, as pyflakes' F401 would flag
    them: a name in ``__all__`` counts as read, and an import statement
    marked ``# noqa: F401`` is skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_finder():
    source = (
        "from dataclasses import dataclass\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .risk import run_mc  # noqa: F401\n"
        "from .tuning import SCALES\n"
        "__all__ = ['SCALES']\n"
        "x = np.zeros(os.path.sep.count('/'))\n"
    )
    assert unused_imports(source) == ["dataclass (line 1)"]


def test_no_unused_imports():
    found = {path.name: unused_imports(path.read_text("utf8")) for path in SRC.glob("*.py")}
    assert not {name: names for name, names in found.items() if names}
