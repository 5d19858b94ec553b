import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sparse_risk"
# ROADMAP item 13: the package's source stays within this many lines.
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


# perfbench/tracer.py wraps it by name; ROADMAP item 13 deletes it after item 1.
UNREAD_ALLOWED = {"_lqa_batch"}


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names (one leading underscore) that no statement
    of the package reads outside their own definition; ``sources`` maps a
    module's name to its text. A read is a loaded name or an attribute."""
    defined, reads = {}, set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = set()
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            names = {n for n in names if n.startswith("_") and not n.startswith("__")}
            defined.update((name, module) for name in names)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read = node.id
                elif isinstance(node, ast.Attribute):
                    read = node.attr
                else:
                    continue
                if read not in names:
                    reads.add(read)
    return sorted(f"{module}.{name}" for name, module in defined.items() if name not in reads)


def test_unread_private_name_finder():
    sources = {
        "a": (
            "_USED = 1\n"
            "_UNUSED: int = 2\n"
            "__dunder__ = 3\n"
            "def _recursive(x):\n"
            "    return _recursive(x - 1)\n"
            "def _helper():\n"
            "    return _USED\n"
            "class _Orphan:\n"
            "    pass\n"
        ),
        "b": "from . import a\nfrom .a import _helper\nx = a._helper() + _helper()\n",
    }
    assert unread_private_names(sources) == ["a._Orphan", "a._UNUSED", "a._recursive"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text("utf8") for path in sorted(SRC.glob("*.py"))}
    unread = {name.split(".")[1] for name in unread_private_names(sources)}
    assert unread == UNREAD_ALLOWED, sorted(unread ^ UNREAD_ALLOWED)
