"""Import hygiene: what a cold `import ttgkit.cli` loads, and no unused imports."""

import ast
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src"

# `dataclasses` pulls these in; each command would pay for them at start.
HEAVY = ("dataclasses", "inspect", "ast", "dis")


def test_cold_import_loads_no_dataclasses():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ttgkit.cli; "
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == ""


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """`__init__.py` is skipped: its imports are the package's re-exports."""
    paths = [p for p in sorted((SRC / "ttgkit").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert [hit for p in paths for hit in _unused_imports(p)] == []
