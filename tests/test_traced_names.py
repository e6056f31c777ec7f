"""Every name the benchmark tracer wraps must still exist in ttgkit.

`perfbench/tracing.py` replaces functions and methods by their dotted names;
a deleted or renamed target would only show when a traced run starts.
"""

import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    modules = tracing.ttgkit_modules()
    for span, module_name, path in tracing.TRACED:
        owner, attr = tracing._resolve(modules[module_name], path)
        assert callable(getattr(owner, attr, None)), (span, module_name, path)
