"""Static checks on the package source that need no linter installed."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "hullprice"


def _unused_imports(path):
    """``file:line: name`` of each imported name the module never uses.

    An import whose first line carries ``# noqa: F401`` is kept on
    purpose (a name other code looks up on the module) and is skipped.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"{path.name}:{node.lineno}: {name}")
    return unused


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


# what only ``model`` reads: the pre-horizon durations behind the run rules
# (first_start, first_shut, run_cost, gap_cost) and the duration lookups
_RUN_RULE_ATTRS = {"on_for", "off_for", "t0", "t0_minus"}
_DURATION_TABLES = {"startup_cost", "shutdown_cost"}


def _run_rule_reads(path):
    """``file:line: expr`` of each read of what ``model`` owns."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and (node.attr in _RUN_RULE_ATTRS
                 or node.attr == "value"
                 and isinstance(node.value, ast.Attribute)
                 and node.value.attr in _DURATION_TABLES)]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "model.py"),
    ids=lambda p: p.name)
def test_run_rules_have_one_owner(path):
    assert _run_rule_reads(path) == []
