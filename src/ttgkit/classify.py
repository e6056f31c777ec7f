"""Thick-subcategory membership by supports, and the named verification suites.

Membership questions are answered through the support calculus; the converse
direction (containment of supports implies constructibility) is supplied by
the classification theorem, not by exhibiting triangles, and reports carry a
fixed method note saying so.

Suite contract: a suite is a generator over its instances that yields one
witness (a JSON-ready dict) per failing instance and `None` per passing one.
`run_suite` numbers the instances and derives each record's `ok` from the
witness, so an instance fails exactly when it has a witness.
"""

import random

from .complexes import (
    PerfectComplex,
    acts_as_zero_on_cohomology,
    central_action,
    cohomology,
    cone,
    direct_sum,
    even_vanishing_check,
    homotopy_defect,
    koszul_object,
    action_null_homotopy,
    random_homogeneous,
    random_perfect_complex,
    shift,
    tensor,
)
from .errors import InputError, TtgError
from .modules import generic_rank, is_zero_localized, local_shift_multiset, pivot_columns
from .serialize import canonical_json, render_table
from .spectrum import (
    SupportSet,
    module_supported_primes,
    residue_field_object,
    residue_supported_primes,
    supp_via_residue,
    support_contains,
)

MEMBERSHIP_METHOD = "support containment; converse by classification theorem"


class Catalogue:
    """A declared ring, prime catalogue, and named objects, with support caches."""

    def __init__(self, ring, primes, objects=None):
        self.ring = ring
        self.primes = tuple(primes)
        names = [p.name for p in self.primes]
        if len(set(names)) != len(names):
            raise InputError("duplicate prime names in catalogue")
        self.objects = dict(objects or {})
        self._support_cache = {}

    def object(self, name: str) -> PerfectComplex:
        if name not in self.objects:
            raise InputError(f"unknown object {name!r}")
        return self.objects[name]

    def prime(self, name: str):
        for p in self.primes:
            if p.name == name:
                return p
        raise InputError(f"unknown prime {name!r}")

    def support(self, complex_: PerfectComplex) -> SupportSet:
        cached = self._support_cache.get(complex_)
        if cached is None:
            cached = supp_via_residue(complex_, self.primes)
            self._support_cache[complex_] = cached
        return cached


def in_thick(catalogue: Catalogue, target: PerfectComplex, generators) -> bool:
    """Membership of the target in the thick subcategory the generators build.

    True iff the support of the target sits inside the union of the
    generators' supports; valid under the classification hypotheses.  The
    union is left unminimized: containment in a non-minimal member implies
    containment in a minimal one below it, so the answer is the same.
    """
    members = [p for g in generators for p in catalogue.support(g).members]
    inner = catalogue.support(target)
    return support_contains(SupportSet(inner.universe, members), inner)


def classify_catalogue(catalogue: Catalogue) -> dict:
    """Group objects by support and emit the inclusion order among supports."""
    classes = {}
    for name in sorted(catalogue.objects):
        support = catalogue.support(catalogue.objects[name])
        classes.setdefault(support.names(), []).append(name)
    keys = sorted(classes)
    supports = [
        catalogue.support(catalogue.objects[classes[key][0]]) for key in keys
    ]
    inclusions = []
    for i, si in enumerate(supports):
        for j, sj in enumerate(supports):
            if i == j:
                continue
            if support_contains(sj, si) and not support_contains(si, sj):
                inclusions.append([i, j])
    return {
        "classes": [
            {
                "support": list(supports[i].ideal_strings()),
                "primes": list(keys[i]),
                "objects": classes[keys[i]],
            }
            for i in range(len(keys))
        ],
        "inclusions": sorted(inclusions),
        "method": MEMBERSHIP_METHOD,
    }


class SuiteReport:
    """Deterministic per-instance results of one suite run."""

    def __init__(self, suite, seed, n, instances):
        self.suite = suite
        self.seed = seed
        self.n = n
        self.instances = instances

    @property
    def passed(self) -> int:
        return sum(1 for inst in self.instances if inst["ok"])

    @property
    def failed(self) -> int:
        return len(self.instances) - self.passed

    def all_passed(self) -> bool:
        return self.failed == 0

    def canonical_dict(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "n": self.n,
            "passed": self.passed,
            "failed": self.failed,
            "instances": self.instances,
        }

    def to_json(self) -> str:
        return canonical_json(self.canonical_dict())

    def to_text(self) -> str:
        rows = []
        for inst in self.instances:
            witness = "" if inst["witness"] is None else canonical_json(inst["witness"]).strip()
            rows.append([inst["index"], "pass" if inst["ok"] else "FAIL", witness])
        header = (
            f"suite {self.suite}  seed {self.seed}  n {self.n}  "
            f"passed {self.passed}  failed {self.failed}\n"
        )
        return header + render_table(["idx", "result", "witness"], rows)


def _instance_rng(seed: int, index: int) -> random.Random:
    return random.Random(seed * 1000003 + index)


def _instance_objects(catalogue, seed, n, monomial_only=False):
    """The n seeded instance objects, each with the rng it was drawn from."""
    for index in range(n):
        rng = _instance_rng(seed, index)
        yield random_perfect_complex(
            catalogue.ring, rng.randrange(2**30), max_gens=6,
            steps=3, monomial_only=monomial_only,
        ), rng


def _first_prime_witnesses(catalogue, seed, n, check):
    """Per instance object x, the first witness `check(x, p)` over the primes.

    The witness carries the object; an object no prime fails yields `None`.
    """
    for x, _ in _instance_objects(catalogue, seed, n):
        witness = next(filter(None, (check(x, p) for p in catalogue.primes)), None)
        yield None if witness is None else {**witness, "object": x.to_json_dict()}


def _suite_residue_cohomology(catalogue, seed, n):
    for p in catalogue.primes:
        try:
            module = cohomology(residue_field_object(p))
            ann_ok = module.annihilator().same_ideal(p.ideal)
            rank_ok = generic_rank(module, p) == 1
        except TtgError as err:  # a failed build or rank is the reportable outcome
            yield {"prime": p.name, "error": str(err)}
            continue
        yield None if ann_ok and rank_ok else {
            "prime": p.name, "annihilator_ok": ann_ok, "rank_ok": rank_ok,
        }


def _suite_even_vanishing(catalogue, seed, n):
    cases = [(p.name, f) for p in catalogue.primes for f in p.sequence]
    cases += [("random", random_homogeneous(catalogue.ring, _instance_rng(seed, i)))
              for i in range(n)]
    for label, f in cases:
        yield None if even_vanishing_check(f) else {"source": label, "element": str(f)}


def _suite_zero_action(catalogue, seed, n):
    primes = [p for p in catalogue.primes if p.sequence]
    for x, rng in _instance_objects(catalogue, seed, n):
        if not primes:
            yield None
            continue
        p = rng.choice(primes)
        depth = rng.randint(1, len(p.sequence))
        partial = p.sequence[:depth]
        built = koszul_object(x, partial)
        f = next((f for f in partial if not acts_as_zero_on_cohomology(f, built)), None)
        yield None if f is None else {
            "prime": p.name, "depth": depth, "element": str(f), "object": x.to_json_dict(),
        }


def _suite_nakayama(catalogue, seed, n):
    def check(x, p):
        lhs = is_zero_localized(cohomology(x), p)
        rhs = is_zero_localized(cohomology(koszul_object(x, p.sequence)), p)
        return None if lhs == rhs else {"prime": p.name, "lhs": lhs, "rhs": rhs}
    return _first_prime_witnesses(catalogue, seed, n, check)


def _tensor_residue_cohomology(x, p):
    return cohomology(tensor(x, residue_field_object(p)))


def _suite_vector_space(catalogue, seed, n):
    def check(x, p):
        module = _tensor_residue_cohomology(x, p)
        unkilled = next((g for g in p.ideal.generators
                         if module.unkilled_generator(g) is not None), None)
        return None if unkilled is None else {"prime": p.name, "element": str(unkilled)}
    return _first_prime_witnesses(catalogue, seed, n, check)


def _suite_decomposition(catalogue, seed, n):
    def check(x, p):
        module = _tensor_residue_cohomology(x, p)
        try:
            shifts = local_shift_multiset(module, p)
        except InputError as err:
            return {"prime": p.name, "error": str(err)}
        # K(p)_p ~ k(p), so H*(X (x) K(p))_p = H*(X (x) k(p)), the cohomology of
        # D mod p, of dimension n - 2 rank(D mod p) (derived Nakayama).
        if len(shifts) != len(x) - 2 * len(pivot_columns(x.rows, len(x), p)):
            return {"prime": p.name, "shifts": shifts}
        return None
    return _first_prime_witnesses(catalogue, seed, n, check)


def _suite_detection(catalogue, seed, n):
    for x, _ in _instance_objects(catalogue, seed, n, monomial_only=True):
        module = cohomology(x)
        empty = not residue_supported_primes(x, catalogue.primes)
        zero = module.is_zero()
        yield None if empty == zero else {
            "object": x.to_json_dict(), "support_empty": empty, "cohomology_zero": zero,
        }


def _suite_supp_agreement(catalogue, seed, n):
    cases = [catalogue.objects[name] for name in sorted(catalogue.objects)]
    cases += [x for x, _ in _instance_objects(catalogue, seed, n)]
    for x in cases:
        via = {p.name for p in residue_supported_primes(x, catalogue.primes)}
        mod = {p.name for p in module_supported_primes(cohomology(x), catalogue.primes)}
        yield None if via == mod else {
            "object": x.to_json_dict(),
            "via_residue": sorted(via),
            "module_support": sorted(mod),
        }


def _suite_homotopy(catalogue, seed, n):
    for index in range(n):
        f = random_homogeneous(catalogue.ring, _instance_rng(seed, index))
        h = action_null_homotopy(f)  # its target is cone(f . 1)
        defect = homotopy_defect(h, central_action(f, h.target))
        induced_zero = acts_as_zero_on_cohomology(f, h.target)
        yield None if not defect and induced_zero else {
            "element": str(f),
            "defect": [[i, j, str(p)] for i, j, p in defect],
            "induced_zero": induced_zero,
        }


def _build_from_residue(catalogue, p, rng):
    """Random object of the thick subcategory generated by K(p).

    Cones are taken along homogeneous elements of p itself (random monomial
    multiples of the ideal generators): inverting anything outside p would
    shrink the support below V(p), which only the local category quotients
    away.  Shifts and finite sums are support-neutral.  The monomial has
    degree 0 or 2, drawn among those the ring has monomials in.
    """
    ring = catalogue.ring
    degrees = [d for d in (0, 2) if ring.monomials_of_weight(d)]
    base = residue_field_object(p)
    current = base
    for _ in range(rng.randint(0, 5)):
        op = rng.choice(["shift", "sum", "cone"])
        if op == "shift":
            current = shift(current, rng.randint(-2, 2))
        elif op == "sum":
            if len(current) + len(base) <= 24:
                current = direct_sum(current, shift(base, rng.randint(-1, 1)))
        else:
            if 2 * len(current) <= 24:
                if p.ideal.generators:
                    g = rng.choice(p.ideal.generators)
                    monomials = ring.monomials_of_weight(rng.choice(degrees))
                    m = ring.from_terms({rng.choice(list(monomials)): 1})
                    current = cone(central_action(g * m, current))
                else:
                    current = cone(central_action(ring.zero(), current))
    return current


def _suite_minimality(catalogue, seed, n):
    for index in range(n):
        if not catalogue.primes:
            yield None
            continue
        rng = _instance_rng(seed, index)
        p = catalogue.primes[index % len(catalogue.primes)]
        built = _build_from_residue(catalogue, p, rng)
        if cohomology(built).is_zero():
            yield {"prime": p.name, "error": "built object is zero"}
            continue
        support = catalogue.support(built)
        support_ok = support.names() == (p.name,)
        thick_ok = in_thick(catalogue, residue_field_object(p), [built])
        yield None if support_ok and thick_ok else {
            "prime": p.name,
            "support": list(support.names()),
            "generates_back": thick_ok,
            "object": built.to_json_dict(),
        }


SUITES = {
    "residue-cohomology": _suite_residue_cohomology,
    "even-vanishing": _suite_even_vanishing,
    "zero-action": _suite_zero_action,
    "nakayama": _suite_nakayama,
    "vector-space": _suite_vector_space,
    "decomposition": _suite_decomposition,
    "detection": _suite_detection,
    "supp-agreement": _suite_supp_agreement,
    "homotopy": _suite_homotopy,
    "minimality-surrogate": _suite_minimality,
}


def run_suite(catalogue: Catalogue, name: str, seed: int, n: int) -> SuiteReport:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    instances = [
        {"index": index, "ok": witness is None, "witness": witness}
        for index, witness in enumerate(SUITES[name](catalogue, seed, n))
    ]
    return SuiteReport(name, seed, n, instances)
