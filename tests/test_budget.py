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
