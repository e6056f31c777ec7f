"""Acceptance gate: every criterion exact (tolerance zero), one line per run.

Counts and wall-clock budgets are pinned here.  The reference catalogue is
Q[x:2, y:2] with primes (0), (x), (y), (x-y), (x, y); the F5[x:2, y:2, z:4]
catalogue with all monomial primes exercises three variables and prime
characteristic on the criteria that touch residue objects directly.
"""

import random
import time

from conftest import build_catalogue_q
from oracles import membership_oracle, module_degree_span, syzygy_space_dimension
from ttgkit import GradedRing, HomIdeal
from ttgkit.classify import in_thick, run_suite
from ttgkit.complexes import (
    central_action,
    cone,
    direct_sum,
    random_homogeneous,
    random_perfect_complex,
    shift,
    tensor,
)
from ttgkit.fields import Field
from ttgkit.groebner import FreeContext, poly_to_vec, syzygy_module
from ttgkit.spectrum import residue_supported_primes


def _report(criterion, label, start, limit, ok, detail=""):
    elapsed = time.monotonic() - start
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:>2} {label}: {status} ({elapsed:.1f}s)"
          + (f"  {detail}" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.1f}s)"


def _suite_ok(catalogue, name, seed, n):
    report = run_suite(catalogue, name, seed, n)
    if report.all_passed():
        return True, ""
    witness = next(i["witness"] for i in report.instances if not i["ok"])
    return False, str(witness)


def test_criterion_01_residue_cohomology(catalogue_q, catalogue_f5):
    start = time.monotonic()
    ok_q, detail = _suite_ok(catalogue_q, "residue-cohomology", seed=0, n=0)
    ok_f, detail_f = _suite_ok(catalogue_f5, "residue-cohomology", seed=0, n=0)
    _report(1, "residue-cohomology", start, 10, ok_q and ok_f, detail or detail_f)


def test_criterion_02_even_vanishing(catalogue_q, catalogue_f5):
    start = time.monotonic()
    ok_q, detail = _suite_ok(catalogue_q, "even-vanishing", seed=0, n=10)
    ok_f, detail_f = _suite_ok(catalogue_f5, "even-vanishing", seed=0, n=10)
    _report(2, "even-vanishing", start, 10, ok_q and ok_f, detail or detail_f)


def test_criterion_03_zero_action(catalogue_q):
    start = time.monotonic()
    ok, detail = _suite_ok(catalogue_q, "zero-action", seed=3, n=25)
    _report(3, "zero-action", start, 60, ok, detail)


def test_criterion_04_nakayama(catalogue_q):
    start = time.monotonic()
    ok, detail = _suite_ok(catalogue_q, "nakayama", seed=4, n=50)
    _report(4, "nakayama", start, 120, ok, detail)


def test_criterion_05_decomposition(catalogue_q, catalogue_f5):
    start = time.monotonic()
    ok, detail = _suite_ok(catalogue_q, "decomposition", seed=5, n=25)
    ok_f, detail_f = _suite_ok(catalogue_f5, "decomposition", seed=5, n=3)
    _report(5, "decomposition", start, 120, ok and ok_f, detail or detail_f)


def test_criterion_06_detection(catalogue_q):
    start = time.monotonic()
    ok, detail = _suite_ok(catalogue_q, "detection", seed=6, n=25)
    _report(6, "detection", start, 60, ok, detail)


def test_criterion_07_support_agreement(catalogue_q, catalogue_f5):
    start = time.monotonic()
    ok, detail = _suite_ok(catalogue_q, "supp-agreement", seed=7, n=25)
    ok_f, detail_f = _suite_ok(catalogue_f5, "supp-agreement", seed=7, n=2)
    _report(7, "supp-agreement", start, 120, ok and ok_f, detail or detail_f)


def test_criterion_08_tensor_support_intersection(catalogue_q):
    start = time.monotonic()
    cat = catalogue_q
    failures = []
    for index in range(15):
        rng = random.Random(800 + index)
        x = random_perfect_complex(cat.ring, rng.randrange(2**30), max_gens=4, steps=2)
        y = random_perfect_complex(cat.ring, rng.randrange(2**30), max_gens=4, steps=2)
        left = {p.name for p in residue_supported_primes(tensor(x, y), cat.primes)}
        sx = {p.name for p in residue_supported_primes(x, cat.primes)}
        sy = {p.name for p in residue_supported_primes(y, cat.primes)}
        if left != sx & sy:
            failures.append((index, sorted(left), sorted(sx & sy)))
    _report(8, "tensor-support", start, 120, not failures, str(failures[:1]))


def test_criterion_09_homotopy(catalogue_q, catalogue_f5):
    start = time.monotonic()
    ok, detail = _suite_ok(catalogue_q, "homotopy", seed=9, n=25)
    ok_f, detail_f = _suite_ok(catalogue_f5, "homotopy", seed=9, n=10)
    _report(9, "homotopy", start, 10, ok and ok_f, detail or detail_f)


def test_criterion_10_closure_soundness(catalogue_q):
    start = time.monotonic()
    cat = catalogue_q
    names = sorted(cat.objects)
    failures = []
    for index in range(25):
        rng = random.Random(1000 + index)
        gens = [cat.object(n) for n in rng.sample(names, rng.randint(1, 3))]
        built = gens[0]
        for _ in range(rng.randint(1, 10)):
            op = rng.choice(["cone", "shift", "sum", "tensor"])
            if op == "shift":
                built = shift(built, rng.randint(-1, 1))
            elif op == "sum":
                other = rng.choice(gens)
                if len(built) + len(other) <= 12:
                    built = direct_sum(built, shift(other, rng.randint(-1, 1)))
            elif op == "cone":
                if 2 * len(built) <= 12:
                    built = cone(central_action(
                        random_homogeneous(cat.ring, rng, max_degree=4), built))
            else:
                other = rng.choice(list(cat.objects.values()))
                if len(built) * len(other) <= 12:
                    built = tensor(built, other)
        if not in_thick(cat, built, gens):
            failures.append(index)
    _report(10, "closure-soundness", start, 120, not failures, str(failures))


ORACLE_RINGS = (
    GradedRing(Field(0), (("x", 2), ("y", 2))),
    GradedRing(Field(0), (("x", 2), ("y", 4))),
    GradedRing(Field(5), (("x", 2), ("y", 2), ("z", 4))),
)


def test_criterion_11_oracle_equivalence():
    start = time.monotonic()
    failures = []
    for index in range(100):
        rng = random.Random(1100 + index)
        ring = ORACLE_RINGS[index % len(ORACLE_RINGS)]
        gens = [random_homogeneous(ring, rng, max_degree=8)
                for _ in range(rng.randint(1, 3))]
        ideal = HomIdeal(ring, gens)
        f = random_homogeneous(ring, rng, max_degree=12)
        if rng.random() < 0.4:
            f = gens[0] * random_homogeneous(ring, rng, max_degree=4)
        if ideal.normal_form(f).is_zero() != membership_oracle(f, gens):
            failures.append(("membership", index))
        if index % 4 == 0:
            rows = [poly_to_vec(g) for g in gens]
            degrees = [g.homogeneous_degree() for g in gens]
            syzygies, _ = syzygy_module(rows, degrees, FreeContext(ring, (0,)))
            syz_degrees = []
            for s in syzygies:
                (pos, expt), _ = next(iter(s.items()))
                syz_degrees.append(ring.weighted_degree(expt) + degrees[pos])
            for d in range(0, 13):
                oracle_dim = syzygy_space_dimension(rows, degrees, ring, d)
                span = module_degree_span(syzygies, syz_degrees, ring, d)
                if span.rank != oracle_dim:
                    failures.append(("syzygy", index, d))
                    break
    _report(11, "oracle-equivalence", start, 120, not failures, str(failures[:3]))


def test_criterion_12_determinism(catalogue_q, ring_q):
    start = time.monotonic()
    ok = True
    detail = ""
    for name, n in [("nakayama", 5), ("supp-agreement", 3), ("decomposition", 3),
                    ("homotopy", 5)]:
        first = run_suite(catalogue_q, name, seed=12, n=n).to_json()
        fresh = build_catalogue_q(ring_q)  # cold caches must not change bytes
        second = run_suite(fresh, name, seed=12, n=n).to_json()
        if first != second:
            ok = False
            detail = name
            break
    _report(12, "determinism", start, 120, ok, detail)
