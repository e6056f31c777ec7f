import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from ttgkit import GradedRing
from ttgkit.classify import Catalogue
from ttgkit.complexes import central_action, cone, koszul_object, unit_complex
from ttgkit.fields import Field
from ttgkit.spectrum import PrimePoint

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def ring_q():
    return GradedRing(Field(0), (("x", 2), ("y", 2)))


@pytest.fixture(scope="session")
def ring_f5():
    return GradedRing(Field(5), (("x", 2), ("y", 2), ("z", 4)))


def build_catalogue_q(ring):
    x, y = ring.variable("x"), ring.variable("y")
    one = unit_complex(ring)
    primes = [
        PrimePoint.create(ring, "p0", [], []),
        PrimePoint.create(ring, "px", [x], [x]),
        PrimePoint.create(ring, "py", [y], [y]),
        PrimePoint.create(ring, "pd", [x - y], [x - y]),
        PrimePoint.create(ring, "pmax", [x, y], [x, y]),
    ]
    objects = {
        "unit": one,
        "zero": cone(central_action(ring.one(), one)),
        "cx": cone(central_action(x, one)),
        "cy": cone(central_action(y, one)),
        "cd": cone(central_action(x - y, one)),
        "kxy": koszul_object(one, [x, y]),
    }
    return Catalogue(ring, primes, objects)


def build_catalogue_f5(ring):
    x, y, z = (ring.variable(v) for v in "xyz")
    one = unit_complex(ring)
    named = {"x": x, "y": y, "z": z}
    primes = []
    for label, names in [
        ("q0", ""), ("qx", "x"), ("qy", "y"), ("qz", "z"),
        ("qxy", "xy"), ("qxz", "xz"), ("qyz", "yz"), ("qxyz", "xyz"),
    ]:
        gens = [named[v] for v in names]
        primes.append(PrimePoint.create(ring, label, gens, gens))
    objects = {
        "unit": one,
        "cx": cone(central_action(x, one)),
        "cz": cone(central_action(z, one)),
        "kxy": koszul_object(one, [x, y]),
        "kxyz": koszul_object(one, [x, y, z]),
    }
    return Catalogue(ring, primes, objects)


@pytest.fixture(scope="session")
def catalogue_q(ring_q):
    return build_catalogue_q(ring_q)


@pytest.fixture(scope="session")
def catalogue_f5(ring_f5):
    return build_catalogue_f5(ring_f5)


@pytest.fixture(scope="session")
def qxy_path():
    return str(FIXTURES / "qxy.json")


@pytest.fixture(scope="session")
def f5xyz_path():
    return str(FIXTURES / "f5xyz.json")
