import re

import pytest

from ttgkit import CertificateError, HomIdeal, InputError
from ttgkit.complexes import cohomology, tensor, unit_complex
from ttgkit.modules import quotient_module
from ttgkit.spectrum import (
    PrimePoint,
    check_regular_sequence,
    module_supported_primes,
    residue_field_object,
    residue_supported_primes,
    supp_via_residue,
    support_contains,
    support_of_module,
    SupportSet,
)


@pytest.fixture(scope="module")
def world(catalogue_q):
    ring = catalogue_q.ring
    return ring, ring.variable("x"), ring.variable("y"), catalogue_q


def test_regular_sequence_examples(world):
    ring, x, y, cat = world
    assert check_regular_sequence(ring, [x, y])
    assert not check_regular_sequence(ring, [x, x])
    assert check_regular_sequence(ring, [x - y, y])
    assert check_regular_sequence(ring, [])
    assert not check_regular_sequence(ring, [ring.zero()])


def test_local_generation_examples(world):
    """(seq) = p is checked once, in `create`, with the message the CLI prints."""
    ring, x, y, cat = world
    assert cat.prime("pmax").sequence == (x, y)
    assert cat.prime("px").sequence == (x,)
    assert PrimePoint.create(ring, "pmax2", [x, y], [y, x - y]).sequence == (y, x - y)
    with pytest.raises(CertificateError, match=re.escape(
            "prime bad: the sequence does not generate the prime: y is not in (x)")):
        PrimePoint.create(ring, "bad", [x, y], [x])


def test_prime_statuses(world):
    ring, x, y, cat = world
    assert cat.prime("p0").status == "verified-monomial"
    assert cat.prime("px").status == "verified-monomial"
    assert cat.prime("pd").status == "verified-principal"
    assert cat.prime("pmax").status == "verified-monomial"
    declared = PrimePoint.create(ring, "pq", [x * x + y * y], [x * x + y * y])
    assert declared.status == "declared"


def test_prime_rejects_unit_generator(world):
    ring, x, y, cat = world
    with pytest.raises(InputError):
        PrimePoint.create(ring, "punit", [ring.one()], [])


def test_sequence_must_lie_in_ideal(world):
    ring, x, y, cat = world
    with pytest.raises(CertificateError):
        PrimePoint.create(ring, "pbad", [x], [y])


def test_residue_field_objects(world):
    ring, x, y, cat = world
    for name, gens in [("pmax", [x, y]), ("px", [x]), ("p0", [])]:
        residue = residue_field_object(cat.prime(name))
        assert residue_field_object(cat.prime(name)) is residue
        assert cohomology(residue).annihilator().same_ideal(HomIdeal(ring, gens))
    assert residue_field_object(cat.prime("p0")) == unit_complex(ring)


def test_residue_rejects_invalid_certificate(world):
    """A sequence that generates p only locally is no residue certificate.

    x^2+x*y is a regular element of px that generates it away from x + y, but
    H*(K(x^2+x*y)) = R/(x^2+x*y) is not a residue object of px: `create`
    refuses the prime, so no residue object is ever built from it.
    """
    ring, x, y, cat = world
    with pytest.raises(CertificateError, match=re.escape(
            "prime pw: the sequence does not generate the prime: x is not in (x^2+x*y)")):
        PrimePoint.create(ring, "pw", [x], [x * x + x * y])


def test_support_of_module_examples(world):
    ring, x, y, cat = world
    primes = cat.primes
    s = support_of_module(quotient_module(ring, HomIdeal(ring, [x])), primes)
    assert s.names() == ("px",)
    assert support_of_module(quotient_module(ring, HomIdeal(ring, [])), primes).names() == ("p0",)
    assert support_of_module(
        quotient_module(ring, HomIdeal(ring, [x, y])), primes
    ).names() == ("pmax",)


def test_supp_via_residue_examples(world):
    ring, x, y, cat = world
    primes = cat.primes
    assert supp_via_residue(cat.object("unit"), primes).names() == ("p0",)
    assert supp_via_residue(cat.object("cx"), primes).names() == ("px",)
    assert supp_via_residue(cat.object("zero"), primes).is_empty()


def test_support_agreement_on_catalogue(world):
    ring, x, y, cat = world
    for name in sorted(cat.objects):
        obj = cat.object(name)
        via = {p.name for p in residue_supported_primes(obj, cat.primes)}
        mod = {p.name for p in module_supported_primes(cohomology(obj), cat.primes)}
        assert via == mod, name


def test_support_contains(world):
    ring, x, y, cat = world
    primes = cat.primes
    universe = tuple(sorted(p.name for p in primes))
    s_x = SupportSet.from_members([cat.prime("px")], universe)
    s_max = SupportSet.from_members([cat.prime("pmax")], universe)
    s_y = SupportSet.from_members([cat.prime("py")], universe)
    s_0 = SupportSet.from_members([cat.prime("p0")], universe)
    assert support_contains(s_x, s_max)
    assert not support_contains(s_x, s_y)
    assert support_contains(s_0, s_x) and support_contains(s_0, s_max)
    with pytest.raises(InputError):
        support_contains(s_x, SupportSet.from_members([cat.prime("px")], ("px",)))


def test_support_antichain_reduction(world):
    ring, x, y, cat = world
    universe = tuple(sorted(p.name for p in cat.primes))
    s = SupportSet.from_members([cat.prime("px"), cat.prime("pmax")], universe)
    assert s.names() == ("px",)
    assert s.ideal_strings() == ("(x)",)


def test_tensor_support_intersection(world):
    ring, x, y, cat = world
    cx, cy = cat.object("cx"), cat.object("cy")
    via = {p.name for p in residue_supported_primes(tensor(cx, cy), cat.primes)}
    sx = {p.name for p in residue_supported_primes(cx, cat.primes)}
    sy = {p.name for p in residue_supported_primes(cy, cat.primes)}
    assert via == (sx & sy) == {"pmax"}


def test_prime_serialization(world):
    ring, x, y, cat = world
    payload = cat.prime("pmax").to_json_dict()
    assert payload == {
        "name": "pmax",
        "gens": ["x", "y"],
        "seq": ["x", "y"],
        "status": "verified-monomial",
    }
