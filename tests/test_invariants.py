"""Cross-module invariants refereed by the brute-force oracles and goldens."""

import pathlib
import random

import pytest

from oracles import (
    ExactSpan,
    annihilator_dimension_oracle,
    direct_sum_modules,
    hilbert_oracle,
    membership_oracle,
    poly_vector,
)
from ttgkit import GradedRing, HomIdeal, ideal_quotient
from ttgkit.cli import main
from ttgkit.classify import in_thick
from ttgkit.complexes import cohomology, random_homogeneous, random_perfect_complex, tensor
from ttgkit.fields import Field
from ttgkit.modules import is_zero_localized, quotient_module
from ttgkit.spectrum import (
    PrimePoint,
    module_supported_primes,
    residue_field_object,
    residue_supported_primes,
)

GOLDEN = pathlib.Path(__file__).parent.parent / "fixtures" / "golden"


def _quotient_space_dimension(gens, f, ring, degree):
    """dim of {g homogeneous of the given degree : g*f in (gens)}, by oracle."""
    fdeg = f.homogeneous_degree()
    span = ExactSpan(ring.field)
    for g in gens:
        gdeg = g.homogeneous_degree()
        if gdeg > degree + fdeg:
            continue
        for m in ring.monomials_of_weight(degree + fdeg - gdeg):
            shifted = {
                (1, tuple(a + b for a, b in zip(m, e))): c for e, c in g.terms.items()
            }
            span.add(shifted)
    dimension = 0
    for m in ring.monomials_of_weight(degree):
        vec = {
            (1, tuple(a + b for a, b in zip(m, e))): c for e, c in f.terms.items()
        }
        vec[(0, m)] = ring.field.one
        reduced = span.reduce(vec)
        if all(k[0] == 0 for k in reduced):
            dimension += 1
        else:
            span.add(vec)
    return dimension


def test_ideal_quotient_complete_against_oracle(ring_q):
    rng = random.Random(41)
    for _ in range(6):
        gens = [random_homogeneous(ring_q, rng, max_degree=6)
                for _ in range(rng.randint(1, 2))]
        f = random_homogeneous(ring_q, rng, max_degree=4)
        quotient = ideal_quotient(HomIdeal(ring_q, gens), f)
        basis = quotient.groebner_basis()
        for d in range(0, 11):
            total = len(ring_q.monomials_of_weight(d))
            engine_dim = total - basis.standard_monomial_count(d)
            oracle_dim = _quotient_space_dimension(gens, f, ring_q, d)
            assert engine_dim == oracle_dim, (d, [str(g) for g in gens], str(f))


def test_supp_additivity_over_direct_sums(catalogue_q):
    ring = catalogue_q.ring
    x, y = ring.variable("x"), ring.variable("y")
    pieces = [
        quotient_module(ring, HomIdeal(ring, [x])),
        quotient_module(ring, HomIdeal(ring, [y])),
        quotient_module(ring, HomIdeal(ring, [x, y])),
        quotient_module(ring, HomIdeal(ring, [x * y])),
    ]
    for m in pieces:
        for n in pieces:
            both = direct_sum_modules(m, n)
            for p in catalogue_q.primes:
                assert is_zero_localized(both, p) == (
                    is_zero_localized(m, p) and is_zero_localized(n, p)
                )


@pytest.mark.parametrize("catalogue_name", ["catalogue_q", "catalogue_f5"])
def test_localization_rank_matches_annihilator_referee(request, catalogue_name):
    """The Nakayama rank test agrees with Ann M contained in p, prime by prime."""
    cat = request.getfixturevalue(catalogue_name)
    rng = random.Random(2311)
    outcomes = set()

    def check(module):
        annihilator = module.annihilator()
        for p in cat.primes:
            zero = is_zero_localized(module, p)
            assert zero == (not p.ideal.contains_ideal(annihilator)), (p.name, module)
            outcomes.add(zero)

    for _ in range(20):
        x = random_perfect_complex(cat.ring, rng.randrange(2**30), max_gens=6, steps=3)
        check(cohomology(x))
        for p in cat.primes:
            check(cohomology(tensor(x, residue_field_object(p).complex)))
    assert outcomes == {True, False}


def test_hilbert_oracle_on_catalogue_modules(catalogue_q):
    for name in sorted(catalogue_q.objects):
        module = cohomology(catalogue_q.objects[name])
        for degree in range(-4, 17):
            assert module.hilbert_dimension(degree) == hilbert_oracle(module, degree), (
                name, degree,
            )


@pytest.mark.parametrize("catalogue_name", ["catalogue_q", "catalogue_f5"])
def test_annihilator_and_hilbert_match_oracles(request, catalogue_name):
    """Ann M and the Hilbert function, read off the core presentation, agree
    degree by degree with row reduction on the given presentation."""
    cat = request.getfixturevalue(catalogue_name)
    ring = cat.ring
    rng = random.Random(8191)
    modules = [cohomology(cat.objects[name]) for name in sorted(cat.objects)]
    for monomial_only in (True, False):
        for _ in range(10):
            x = random_perfect_complex(ring, rng.randrange(2**30), max_gens=8, steps=4,
                                       monomial_only=monomial_only)
            modules.append(cohomology(x))
    cancelled = 0
    for module in modules:
        if module.core() is not module:
            cancelled += 1
        basis = module.annihilator().groebner_basis()
        for degree in range(0, 9):
            engine = (len(ring.monomials_of_weight(degree))
                      - basis.standard_monomial_count(degree))
            assert engine == annihilator_dimension_oracle(module, degree), (module, degree)
        lo = min(module.gens, default=0)
        for degree in range(lo - 2, lo + 9):
            assert module.hilbert_dimension(degree) == hilbert_oracle(module, degree), (
                module, degree,
            )
    assert cancelled > 0


@pytest.mark.parametrize("catalogue_name", ["catalogue_q", "catalogue_f5"])
def test_transporters_match_oracle(request, catalogue_name):
    """(N : e_i) on the given presentation agrees degree by degree with row
    reduction restricted to generator i."""
    cat = request.getfixturevalue(catalogue_name)
    ring = cat.ring
    rng = random.Random(1663)
    modules = [cohomology(cat.objects[name]) for name in sorted(cat.objects)]
    for _ in range(8):
        x = random_perfect_complex(ring, rng.randrange(2**30), max_gens=8, steps=4)
        modules.append(cohomology(x))
    for module in modules:
        transporters = module.transporters()
        assert len(transporters) == len(module.gens)
        for i, transporter in enumerate(transporters):
            basis = transporter.groebner_basis()
            for degree in range(0, 7):
                engine = (len(ring.monomials_of_weight(degree))
                          - basis.standard_monomial_count(degree))
                assert engine == annihilator_dimension_oracle(module, degree, indices=(i,)), (
                    module, i, degree,
                )


REFEREE_RINGS = [
    (2, (("x", 2), ("y", 2))),
    (3, (("x", 2), ("y", 4))),
    (2, (("x", 2), ("y", 2), ("z", 4))),
    (7, (("x", 2), ("y", 2), ("z", 2))),
    (0, (("x", 2), ("y", 4), ("z", 6))),
    (3, (("x", 4), ("y", 6))),
]


@pytest.mark.parametrize("char, variables", REFEREE_RINGS)
def test_multi_ring_referee_sweep(char, variables):
    """Hilbert function, residue supports, the rank route on the plain
    cohomology and Ann M refereed over rings and characteristics that no
    fixture covers; the catalogue is every monomial prime (x_i : i in S), the
    zero ideal included."""
    ring = GradedRing(Field(char), variables)
    primes = []
    for mask in range(2 ** ring.nvars):
        gens = [ring.variable(n) for i, n in enumerate(ring.names) if mask >> i & 1]
        primes.append(PrimePoint.create(ring, f"m{mask}", gens, gens))
    for seed in range(10):
        x = random_perfect_complex(ring, seed, max_gens=6, steps=3)
        module = cohomology(x)
        lo, hi = x.probe_window()
        for degree in range(lo, hi + 1):
            assert module.hilbert_dimension(degree) == hilbert_oracle(module, degree), (
                seed, degree,
            )
        annihilator_route = module_supported_primes(module, primes)
        assert residue_supported_primes(x, primes) == annihilator_route, seed
        rank_route = [p for p in primes if not is_zero_localized(module, p)]
        assert rank_route == annihilator_route, seed
        basis = module.annihilator().groebner_basis()
        for degree in range(0, 9):
            engine = (len(ring.monomials_of_weight(degree))
                      - basis.standard_monomial_count(degree))
            assert engine == annihilator_dimension_oracle(module, degree), (seed, degree)


def test_in_thick_transitive(catalogue_q):
    cat = catalogue_q
    kxy = cat.object("kxy")
    cx = cat.object("cx")
    step = tensor(kxy, cx)
    assert in_thick(cat, step, [kxy])
    assert in_thick(cat, kxy, [cx, cat.object("cy")])
    assert in_thick(cat, step, [cx, cat.object("cy")])


def test_membership_oracle_spot_checks(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    assert membership_oracle(x * x, [x - y, y * y])
    assert not membership_oracle(x, [x * y])
    assert membership_oracle(ring_q.zero(), [x])
    span = ExactSpan(ring_q.field)
    assert span.contains(poly_vector(ring_q.zero()))


def test_golden_reports_are_stable(capsys, qxy_path):
    code = main(["check", "nakayama", "--seed", "7", "--n", "50",
                 "--input", qxy_path])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "nakayama-seed7-n50.json").read_text()
    code = main(["check", "homotopy", "--seed", "1", "--n", "3",
                 "--format", "text", "--input", qxy_path])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / "homotopy-seed1-n3.txt").read_text()
