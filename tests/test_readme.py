"""The README's library example runs, its schema is what the parser reads,
and every exported name resolves."""

import contextlib
import io
import json
import pathlib
import re

import ttgkit
from ttgkit.cli import parse_workspace, serialize_workspace

README = pathlib.Path(__file__).parent.parent / "README.md"


def test_readme_library_example_runs():
    text = README.read_text()
    section = text[text.index("## Library example"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["(y, x)", "('px',)"]


def test_every_export_resolves():
    for name in ttgkit.__all__:
        assert getattr(ttgkit, name, None) is not None, name


def _keys(value):
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def test_readme_schema_keys_are_read(tmp_path):
    """Every key of the README's schema example survives a parse and a
    serialization, so the README shows no key that the program ignores."""
    text = README.read_text()
    section = text[text.index("## Workspace files"):]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    path = tmp_path / "readme.json"
    path.write_text(example)
    serialized = json.loads(serialize_workspace(parse_workspace(str(path))))
    assert _keys(json.loads(example)) <= _keys(serialized)
