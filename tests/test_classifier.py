import inspect
import random
import textwrap

import pytest

from ttgkit import InputError, classify
from ttgkit.classify import (
    SUITES,
    Catalogue,
    classify_catalogue,
    in_thick,
    run_suite,
)
from ttgkit.complexes import (
    central_action,
    cohomology,
    cone,
    direct_sum,
    random_homogeneous,
    random_perfect_complex,
    shift,
    tensor,
)
from ttgkit.cli import parse_workspace
from ttgkit.spectrum import module_supported_primes


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


def _in_thick_disagreements(cat, membership):
    """Seeded draws where `membership` differs from the module-route referee.

    The pool is the named objects plus 12 random complexes; each of 60 draws
    asks for a target in the thick subcategory of one to three generators.
    The referee is the subset test on the pointwise supports that the
    annihilator route gives, as in the thick-reuse-q benchmark.
    """
    pool = [cat.objects[name] for name in sorted(cat.objects)]
    pool += [random_perfect_complex(cat.ring, seed, max_gens=6, steps=3)
             for seed in range(12)]
    supports = [{p.name for p in module_supported_primes(cohomology(x), cat.primes)}
                for x in pool]
    rng = random.Random(2024)
    answers, wrong = [], []
    for draw in range(60):
        target = rng.randrange(len(pool))
        gens = [rng.randrange(len(pool)) for _ in range(rng.randint(1, 3))]
        answer = membership(cat, pool[target], [pool[g] for g in gens])
        answers.append(answer)
        if answer != (supports[target] <= set().union(*(supports[g] for g in gens))):
            wrong.append((draw, target, gens, answer))
    assert True in answers and False in answers
    return wrong


@pytest.mark.parametrize("fixture", ["catalogue_q", "catalogue_f5"])
def test_in_thick_seeded_referee(request, fixture):
    """`in_thick` agrees with the referee, and a mutant that drops the first
    generator's supports does not."""
    cat = request.getfixturevalue(fixture)
    assert _in_thick_disagreements(cat, in_thick) == []

    def mutant(catalogue, target, generators):
        return in_thick(catalogue, target, generators[1:])

    assert _in_thick_disagreements(cat, mutant) != []


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


def test_catalogue_rejects_duplicate_prime_names(catalogue_q):
    p = catalogue_q.prime("px")
    with pytest.raises(InputError, match=r"^duplicate prime names in catalogue$"):
        Catalogue(catalogue_q.ring, [p, p])


def test_zero_action_passes_when_no_prime_has_a_sequence(catalogue_q):
    """(0) has the empty sequence, so there is no element to act by."""
    cat = Catalogue(catalogue_q.ring, [catalogue_q.prime("p0")], catalogue_q.objects)
    report = run_suite(cat, "zero-action", seed=1, n=3)
    assert report.passed == 3 and report.all_passed()


def test_run_suite_unknown_name(catalogue_q):
    with pytest.raises(InputError, match="unknown suite"):
        run_suite(catalogue_q, "nonsense", 0, 1)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_pass_on_reference_catalogue(catalogue_q, name):
    report = run_suite(catalogue_q, name, seed=7, n=4)
    assert report.all_passed(), report.to_text()


@pytest.mark.parametrize("fixture", ["qxy_path", "f5xyz_path"])
def test_decomposition_mutant_fails(request, monkeypatch, fixture):
    """The suite's count must be independent of the one it checks.

    It compares the shifts of H*(X (x) K(p)) at p with n - 2 rank(D mod p).
    A mutant of the suite that compares them with n - rank(D mod p) must
    report failures.
    """
    source = textwrap.dedent(inspect.getsource(classify._suite_decomposition))
    mutated = source.replace("2 * len(pivot_columns(", "len(pivot_columns(")
    assert mutated != source
    namespace = dict(vars(classify))
    exec(compile(mutated, classify.__file__, "exec"), namespace)
    catalogue = parse_workspace(request.getfixturevalue(fixture)).catalogue
    assert run_suite(catalogue, "decomposition", seed=5, n=5).all_passed()
    monkeypatch.setitem(SUITES, "decomposition", namespace["_suite_decomposition"])
    assert run_suite(catalogue, "decomposition", seed=5, n=5).failed > 0


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
