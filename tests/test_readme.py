"""The README's library example runs, and every exported name resolves."""

import contextlib
import io
import pathlib
import re

import ttgkit

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
