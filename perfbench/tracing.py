"""Span tracing from outside the program.

`Tracer.install` replaces public functions and methods of the ttgkit modules
with wrappers that record one span per call: name, start, end, parent span
and query id.  Functions that other modules import by name (for example
`complexes.cohomology` inside `spectrum`, or `groebner.syzygy_module` inside
`modules`) are replaced in every module that holds them.  Spans stay in
memory in flat arrays; `summary` reduces them to additive totals that can be
summed over processes, and `layer_metrics` turns totals into the per-layer
metrics.

Per-span time is inclusive; a name's time counts only spans with no ancestor
of the same name, so recursion and nested builds are not double counted.
Self time is a span's duration minus the durations of its direct children.
"""

import functools
import gzip
import sys
import time
from array import array

# (span name, module, attribute); several attributes may share one span name.
TRACED = (
    ("groebner.buchberger", "groebner", "buchberger_module"),
    ("groebner.syzygy", "groebner", "syzygy_module"),
    ("groebner.lift_divide", "groebner", "LiftBasis.divide"),
    ("groebner.ideal_intersection", "groebner", "ideal_intersection"),
    ("groebner.normal_form", "groebner", "normal_form_vec"),
    ("groebner.groebner_basis", "groebner", "HomIdeal.groebner_basis"),
    ("modules.is_zero_localized", "modules", "is_zero_localized"),
    ("modules.transporters", "modules", "GradedModule.transporters"),
    ("modules.annihilator", "modules", "GradedModule.annihilator"),
    ("modules.hilbert", "modules", "GradedModule.hilbert_dimension"),
    ("modules.generic_rank", "modules", "generic_rank"),
    ("complexes.build", "complexes", "unit_complex"),
    ("complexes.build", "complexes", "shift"),
    ("complexes.build", "complexes", "direct_sum"),
    ("complexes.build", "complexes", "cone"),
    ("complexes.build", "complexes", "central_action"),
    ("complexes.build", "complexes", "koszul_object"),
    ("complexes.build", "complexes", "tensor"),
    ("complexes.cohomology", "complexes", "cohomology"),
    ("spectrum.prime_create", "spectrum", "PrimePoint.create"),
    ("spectrum.residue_object", "spectrum", "residue_field_object"),
    ("spectrum.residue_support", "spectrum", "residue_supported_primes"),
    ("spectrum.module_support", "spectrum", "module_supported_primes"),
    ("classify.support", "classify", "Catalogue.support"),
    ("classify.in_thick", "classify", "in_thick"),
    ("classify.classify", "classify", "classify_catalogue"),
    ("classify.suite", "classify", "run_suite"),
    ("cli.parse", "cli", "parse_workspace"),
    ("cli.execute", "cli", "execute"),
    ("cli.render", "cli", "emit_report"),
    ("cli.render", "classify", "SuiteReport.to_json"),
    ("cli.render", "classify", "SuiteReport.to_text"),
    ("rings.parse", "rings", "parse_polynomial"),
)

SPAN_HEADER = "name,start_s,end_s,parent,query\n"

LAYERS = ("groebner", "modules", "complexes", "spectrum", "classify", "cli", "rings")

# Per-layer metrics in reporting order: (name, unit, better).
PER_LAYER = (
    ("groebner.buchberger_calls", "count", "lower"),
    ("groebner.buchberger_s", "s", "lower"),
    ("groebner.basis_elements", "count", "lower"),
    ("groebner.syzygy_calls", "count", "lower"),
    ("groebner.syzygy_s", "s", "lower"),
    ("groebner.lift_divide_s", "s", "lower"),
    ("groebner.ideal_intersection_s", "s", "lower"),
    ("groebner.normal_form_calls", "count", "lower"),
    ("groebner.normal_form_s", "s", "lower"),
    ("groebner.gb_cache_entries", "count", "lower"),
    ("groebner.gb_cache_hit_ratio", "ratio", "higher"),
    ("groebner.self_s", "s", "lower"),
    ("modules.is_zero_localized_calls", "count", "lower"),
    ("modules.is_zero_localized_s", "s", "lower"),
    ("modules.transporters_s", "s", "lower"),
    ("modules.annihilator_s", "s", "lower"),
    ("modules.hilbert_s", "s", "lower"),
    ("modules.generic_rank_s", "s", "lower"),
    ("modules.presentation_gens", "count", "lower"),
    ("modules.presentation_relations", "count", "lower"),
    ("modules.self_s", "s", "lower"),
    ("complexes.build_s", "s", "lower"),
    ("complexes.build_gens", "count", "lower"),
    ("complexes.cohomology_calls", "count", "lower"),
    ("complexes.cohomology_s", "s", "lower"),
    ("complexes.cohomology_cache_hit_ratio", "ratio", "higher"),
    ("complexes.self_s", "s", "lower"),
    ("spectrum.prime_create_s", "s", "lower"),
    ("spectrum.residue_object_s", "s", "lower"),
    ("spectrum.residue_support_s", "s", "lower"),
    ("spectrum.module_support_s", "s", "lower"),
    ("spectrum.localization_pairs", "count", "lower"),
    ("spectrum.self_s", "s", "lower"),
    ("classify.support_calls", "count", "lower"),
    ("classify.support_cache_hit_ratio", "ratio", "higher"),
    ("classify.in_thick_s", "s", "lower"),
    ("classify.classify_s", "s", "lower"),
    ("classify.suite_s", "s", "lower"),
    ("classify.self_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.parse_s", "s", "lower"),
    ("cli.execute_s", "s", "lower"),
    ("cli.render_s", "s", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("cli.self_s", "s", "lower"),
    ("rings.parse_calls", "count", "lower"),
    ("rings.parse_s", "s", "lower"),
    ("rings.self_s", "s", "lower"),
    ("trace.queries", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """Records spans around ttgkit calls; `enabled` pauses recording."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.query = array("l")
        self.value = array("l")
        self.stack = []
        self.qid = -1
        self.enabled = True
        self.counters = {}
        self._undo = []

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _name(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, value=None, around=None):
        """Wrapper that records a span; `value(args, result)` sets its value."""
        nid = self._name(name)
        clock = time.perf_counter
        inner = fn if around is None else functools.partial(around, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.query.append(self.qid)
            self.value.append(0)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = inner(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self.stack.pop()
            if value is not None:
                self.value[idx] = value(args, result)
            return result

        return traced

    def install(self, ttgkit_modules):
        """Wrap every TRACED attribute and rebind it wherever it was imported.

        The rebinding covers every loaded ttgkit module, the package itself
        included, so `ttgkit.cohomology` is traced as well.
        """
        mods = ttgkit_modules
        groebner = mods["groebner"]
        cohomology = mods["complexes"].cohomology

        def gb_around(fn, ideal):
            lookup = ideal._basis is None
            before = len(groebner._GB_CACHE)
            result = fn(ideal)
            if lookup:
                self.count("gb_lookups")
                if len(groebner._GB_CACHE) == before:
                    self.count("gb_hits")
            return result

        def cohomology_around(fn, complex_):
            before = cohomology.cache_info()
            module = fn(complex_)
            after = cohomology.cache_info()
            if after.misses > before.misses:
                self.count("cohomology_misses")
                self.count("presentation_gens", len(module.gens))
                self.count("presentation_relations", len(module.relations))
            else:
                self.count("cohomology_hits")
            return module

        special = {
            "groebner.buchberger": dict(value=lambda a, r: len(r)),
            "groebner.groebner_basis": dict(around=gb_around),
            "complexes.build": dict(value=lambda a, r: len(r) if hasattr(r, "degrees") else 0),
            "complexes.cohomology": dict(around=cohomology_around),
            "spectrum.residue_support": dict(value=lambda a, r: len(a[1])),
        }
        replaced = {}
        for name, module_name, path in TRACED:
            owner, attr = _resolve(mods[module_name], path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, **special.get(name, {})))
            else:
                wrapped = self.wrap(name, raw, **special.get(name, {}))
                replaced[id(raw)] = (raw, wrapped)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        holders = [m for name, m in list(sys.modules.items())
                   if name == "ttgkit" or name.startswith("ttgkit.")]
        for module in holders:
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    def summary(self, extra=None):
        """Additive totals: per span name calls, inclusive, self, value sums."""
        n = len(self.start)
        names = self.names
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        per = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "value": 0, "outer_value": 0}
               for name in names}
        nid = self.name_id
        parent = self.parent
        support_misses = 0
        support_id = self._ids.get("classify.support")
        residue_id = self._ids.get("spectrum.residue_support")
        for i in range(n):
            entry = per[names[nid[i]]]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            entry["value"] += self.value[i]
            p = parent[i]
            if nid[i] == residue_id and p >= 0 and nid[p] == support_id:
                support_misses += 1
            while p >= 0 and nid[p] != nid[i]:
                p = parent[p]
            if p < 0:
                entry["incl_s"] += dur[i]
                entry["outer_value"] += self.value[i]
        counters = dict(self.counters)
        counters["support_misses"] = support_misses
        counters["spans"] = n
        for key, amount in (extra or {}).items():
            counters[key] = counters.get(key, 0) + amount
        return {"spans": per, "counters": counters}

    def write_spans(self, path, header=True):
        """Write every span as gzip-compressed CSV, times relative to the first.

        Gzip members concatenate, so files written with header=False can be
        appended to one that has the header.
        """
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            if header:
                out.write(SPAN_HEADER)
            for i in range(len(self.start)):
                out.write(f"{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                          f"{self.end[i] - t0:.9f},{self.parent[i]},{self.query[i]}\n")


def merge(summaries):
    """Sum additive totals over processes; cache entries take the maximum."""
    spans = {}
    counters = {}
    for s in summaries:
        for name, entry in s["spans"].items():
            into = spans.setdefault(name, dict.fromkeys(entry, 0))
            for key, v in entry.items():
                into[key] += v
        for key, v in s["counters"].items():
            if key == "gb_entries":
                counters[key] = max(counters.get(key, 0), v)
            else:
                counters[key] = counters.get(key, 0) + v
    return {"spans": spans, "counters": counters}


def layer_metrics(total, overhead_ratio):
    """Per-layer metric values, keyed as in PER_LAYER."""
    spans = total["spans"]
    c = total["counters"]
    empty = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "value": 0, "outer_value": 0}

    def span(name, key):
        return spans.get(name, empty)[key]

    def ratio(num, den):
        return num / den if den else 0.0

    support_calls = span("classify.support", "calls")
    values = {
        "groebner.buchberger_calls": span("groebner.buchberger", "calls"),
        "groebner.buchberger_s": span("groebner.buchberger", "incl_s"),
        "groebner.basis_elements": span("groebner.buchberger", "value"),
        "groebner.syzygy_calls": span("groebner.syzygy", "calls"),
        "groebner.syzygy_s": span("groebner.syzygy", "incl_s"),
        "groebner.lift_divide_s": span("groebner.lift_divide", "incl_s"),
        "groebner.ideal_intersection_s": span("groebner.ideal_intersection", "incl_s"),
        "groebner.normal_form_calls": span("groebner.normal_form", "calls"),
        "groebner.normal_form_s": span("groebner.normal_form", "incl_s"),
        "groebner.gb_cache_entries": c.get("gb_entries", 0),
        "groebner.gb_cache_hit_ratio": ratio(c.get("gb_hits", 0), c.get("gb_lookups", 0)),
        "modules.is_zero_localized_calls": span("modules.is_zero_localized", "calls"),
        "modules.is_zero_localized_s": span("modules.is_zero_localized", "incl_s"),
        "modules.transporters_s": span("modules.transporters", "incl_s"),
        "modules.annihilator_s": span("modules.annihilator", "incl_s"),
        "modules.hilbert_s": span("modules.hilbert", "incl_s"),
        "modules.generic_rank_s": span("modules.generic_rank", "incl_s"),
        "modules.presentation_gens": c.get("presentation_gens", 0),
        "modules.presentation_relations": c.get("presentation_relations", 0),
        "complexes.build_s": span("complexes.build", "incl_s"),
        "complexes.build_gens": span("complexes.build", "outer_value"),
        "complexes.cohomology_calls": span("complexes.cohomology", "calls"),
        "complexes.cohomology_s": span("complexes.cohomology", "incl_s"),
        "complexes.cohomology_cache_hit_ratio": ratio(
            c.get("cohomology_hits", 0),
            c.get("cohomology_hits", 0) + c.get("cohomology_misses", 0)),
        "spectrum.prime_create_s": span("spectrum.prime_create", "incl_s"),
        "spectrum.residue_object_s": span("spectrum.residue_object", "incl_s"),
        "spectrum.residue_support_s": span("spectrum.residue_support", "incl_s"),
        "spectrum.module_support_s": span("spectrum.module_support", "incl_s"),
        "spectrum.localization_pairs": span("spectrum.residue_support", "value"),
        "classify.support_calls": support_calls,
        "classify.support_cache_hit_ratio": ratio(
            support_calls - c.get("support_misses", 0), support_calls),
        "classify.in_thick_s": span("classify.in_thick", "incl_s"),
        "classify.classify_s": span("classify.classify", "incl_s"),
        "classify.suite_s": span("classify.suite", "incl_s"),
        "cli.import_s": c.get("import_s", 0.0),
        "cli.parse_s": span("cli.parse", "incl_s"),
        "cli.execute_s": span("cli.execute", "incl_s"),
        "cli.render_s": span("cli.render", "incl_s"),
        "cli.stdout_bytes": c.get("stdout_bytes", 0),
        "rings.parse_calls": span("rings.parse", "calls"),
        "rings.parse_s": span("rings.parse", "incl_s"),
        "trace.queries": c.get("queries", 0),
        "trace.spans": c.get("spans", 0),
        "trace.overhead_ratio": overhead_ratio,
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in spans.items() if name.startswith(layer + "."))
    return {name: values[name] for name, _, _ in PER_LAYER}


def self_time_table(total):
    """Rows (span name, calls, inclusive s, self s), by self time."""
    rows = [(name, e["calls"], e["incl_s"], e["self_s"]) for name, e in total["spans"].items()]
    return sorted(rows, key=lambda r: -r[3])


def ttgkit_modules():
    """The ttgkit submodules the tracer wraps, imported."""
    import importlib

    return {name: importlib.import_module(f"ttgkit.{name}")
            for name in ("groebner", "modules", "complexes", "spectrum", "classify", "cli", "rings")}
