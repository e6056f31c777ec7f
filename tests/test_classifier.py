import random

import pytest

from ttgkit import InputError
from ttgkit.classify import (
    SUITES,
    Catalogue,
    classify_catalogue,
    in_thick,
    run_suite,
)
from ttgkit.complexes import (
    central_action,
    cone,
    direct_sum,
    random_homogeneous,
    shift,
    tensor,
)


def test_in_thick_examples(catalogue_q):
    cat = catalogue_q
    cx = cat.object("cx")
    assert in_thick(cat, tensor(cx, cx), [cx])
    assert not in_thick(cat, cat.object("unit"), [cx])
    assert in_thick(cat, cat.object("zero"), [])


def test_in_thick_reflexive_transitive_monotone(catalogue_q):
    cat = catalogue_q
    objects = [cat.object(n) for n in ("cx", "cy", "kxy")]
    for obj in objects:
        assert in_thick(cat, obj, [obj])
    # kxy is in thick(cx, cy); enlarging the generator set keeps membership
    assert in_thick(cat, cat.object("kxy"), [cat.object("cx"), cat.object("cy")])
    assert in_thick(
        cat, cat.object("kxy"),
        [cat.object("cx"), cat.object("cy"), cat.object("unit")],
    )
    assert not in_thick(cat, cat.object("kxy"), [cat.object("cx")]) is None


def test_closure_soundness_seeded(catalogue_q):
    cat = catalogue_q
    ring = cat.ring
    rng = random.Random(99)
    names = sorted(cat.objects)
    for _ in range(8):
        gens = [cat.object(n) for n in rng.sample(names, rng.randint(1, 3))]
        built = gens[0]
        for _ in range(rng.randint(1, 6)):
            op = rng.choice(["cone", "shift", "sum", "tensor"])
            if op == "shift":
                built = shift(built, rng.randint(-1, 1))
            elif op == "sum":
                other = rng.choice(gens)
                if len(built) + len(other) <= 12:
                    built = direct_sum(built, other)
            elif op == "cone":
                if 2 * len(built) <= 12:
                    built = cone(central_action(
                        random_homogeneous(ring, rng, max_degree=4), built))
            else:
                other = rng.choice(list(cat.objects.values()))
                if len(built) * len(other) <= 12:
                    built = tensor(built, other)
        assert in_thick(cat, built, gens)


def test_classify_catalogue(catalogue_q):
    report = classify_catalogue(catalogue_q)
    classes = {tuple(c["primes"]): c["objects"] for c in report["classes"]}
    assert classes[()] == ["zero"]
    assert classes[("p0",)] == ["unit"]
    assert classes[("pmax",)] == ["kxy"]
    assert classes[("px",)] == ["cx"]
    # empty support is included in every other class; generic includes all
    index_empty = next(i for i, c in enumerate(report["classes"]) if not c["primes"])
    index_generic = next(
        i for i, c in enumerate(report["classes"]) if c["primes"] == ["p0"]
    )
    assert [index_empty, index_generic] in report["inclusions"]
    assert report["method"]


def test_classify_groups_duplicates_and_shifts(catalogue_q):
    cat = catalogue_q
    enlarged = Catalogue(
        cat.ring,
        cat.primes,
        dict(cat.objects, cx2=cat.object("cx"), cxs=shift(cat.object("cx"), 3)),
    )
    report = classify_catalogue(enlarged)
    by_primes = {tuple(c["primes"]): c["objects"] for c in report["classes"]}
    assert by_primes[("px",)] == ["cx", "cx2", "cxs"]


def test_run_suite_unknown_name(catalogue_q):
    with pytest.raises(InputError, match="unknown suite"):
        run_suite(catalogue_q, "nonsense", 0, 1)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_pass_on_reference_catalogue(catalogue_q, name):
    report = run_suite(catalogue_q, name, seed=7, n=4)
    assert report.all_passed(), report.to_text()


def test_suite_reports_deterministic(catalogue_q):
    first = run_suite(catalogue_q, "supp-agreement", seed=3, n=3)
    second = run_suite(catalogue_q, "supp-agreement", seed=3, n=3)
    assert first.to_json() == second.to_json()
    assert first.to_text() == second.to_text()


def test_suite_report_shape(catalogue_q):
    report = run_suite(catalogue_q, "homotopy", seed=1, n=2)
    payload = report.canonical_dict()
    assert payload["suite"] == "homotopy"
    assert payload["passed"] == 2 and payload["failed"] == 0
    assert [inst["index"] for inst in payload["instances"]] == [0, 1]
    assert "wall" not in report.to_json()


def test_minimality_surrogate_every_prime(catalogue_q):
    report = run_suite(catalogue_q, "minimality-surrogate", seed=11,
                       n=len(catalogue_q.primes))
    assert report.all_passed(), report.to_text()
