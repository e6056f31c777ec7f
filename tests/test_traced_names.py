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


def test_tracer_hooks_run_and_leave_answers_unchanged(qxy_path):
    """A traced pass over the qxy objects runs every hook the benchmark reads:
    `len` of each `buchberger_module` result, `HomIdeal._basis` with
    `_GB_CACHE`, and `cohomology.cache_info()`; it answers as the untraced
    pass does."""
    tracing = _load_tracing()
    modules = tracing.ttgkit_modules()
    cli, complexes, groebner = modules["cli"], modules["complexes"], modules["groebner"]

    def answers():
        catalogue = cli.parse_workspace(qxy_path).catalogue
        return [(name, complexes.cohomology(x).annihilator().display_basis(),
                 catalogue.support(x).names())
                for name, x in sorted(catalogue.objects.items())]

    expected = answers()
    complexes.cohomology.cache_clear()
    groebner._GB_CACHE.clear()
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        traced = answers()
    finally:
        tracer.uninstall()
    assert not hasattr(groebner.normal_form_vec, "__wrapped__")
    assert traced == expected
    total = tracer.summary({"gb_entries": len(groebner._GB_CACHE)})
    metrics = tracing.layer_metrics(total, 0.0)
    assert metrics["groebner.buchberger_calls"] > 0
    assert metrics["groebner.basis_elements"] > 0
    assert metrics["complexes.cohomology_calls"] > 0
