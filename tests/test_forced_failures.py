"""Failure witnesses of the ten suites, pinned by goldens.

On working code every suite passes, so its witness records are never built.
Here each suite runs on `fixtures/qxy.json` with the check it calls patched
to fail on a fixed rhythm of calls; the `to_json()` and `to_text()` output is
compared with `fixtures/golden/forced-<suite>.txt`.  The patches count calls,
so they need the suites to call their checks in the same order as when the
goldens were recorded.
"""

import itertools
import pathlib

import pytest

from ttgkit import classify
from ttgkit.classify import SUITES, run_suite
from ttgkit.cli import parse_workspace
from ttgkit.complexes import central_action, cone, unit_complex
from ttgkit.errors import CertificateError, InputError

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"
SEED, N = 1, 6


def _on_every(k, original, forced):
    """`original`, except that every k-th call returns `forced(*args)`."""
    calls = itertools.count(1)

    def wrapper(*args, **kwargs):
        if next(calls) % k == 0:
            return forced(*args, **kwargs)
        return original(*args, **kwargs)

    return wrapper


def _raise(error):
    def forced(*args, **kwargs):
        raise error
    return forced


def _patch(mp, name, k, forced):
    mp.setattr(classify, name, _on_every(k, getattr(classify, name), forced))


def _residue_cohomology(mp, ring):
    _patch(mp, "residue_field_object", 2, _raise(CertificateError("forced certificate failure")))
    _patch(mp, "generic_rank", 2, lambda module, p: 2)


def _even_vanishing(mp, ring):
    _patch(mp, "even_vanishing_check", 2, lambda f: False)


def _zero_action(mp, ring):
    _patch(mp, "acts_as_zero_on_cohomology", 2, lambda f, x: False)


def _nakayama(mp, ring):
    original = classify.is_zero_localized
    _patch(mp, "is_zero_localized", 11, lambda m, p: not original(m, p))


def _vector_space(mp, ring):
    _patch(mp, "tensor", 2, lambda x, k: x)


def _decomposition(mp, ring):
    original = classify.local_shift_multiset
    _patch(mp, "local_shift_multiset", 9, lambda m, p: original(m, p) + [0])
    _patch(mp, "local_shift_multiset", 13, _raise(InputError("forced shift failure")))


def _detection(mp, ring):
    _patch(mp, "residue_supported_primes", 2, lambda x, primes: [])
    _patch(mp, "residue_supported_primes", 3, lambda x, primes: list(primes))


def _supp_agreement(mp, ring):
    original = classify.module_supported_primes
    _patch(mp, "module_supported_primes", 2, lambda m, primes: original(m, primes)[1:])


def _homotopy(mp, ring):
    _patch(mp, "acts_as_zero_on_cohomology", 2, lambda f, x: False)
    _patch(mp, "homotopy_defect", 3, lambda h, g: [(0, 1, ring.one())])


def _minimality(mp, ring):
    one = unit_complex(ring)
    _patch(mp, "_build_from_residue", 2, lambda *args: cone(central_action(ring.one(), one)))
    _patch(mp, "_build_from_residue", 3, lambda *args: one)


FORCED = {
    "residue-cohomology": _residue_cohomology,
    "even-vanishing": _even_vanishing,
    "zero-action": _zero_action,
    "nakayama": _nakayama,
    "vector-space": _vector_space,
    "decomposition": _decomposition,
    "detection": _detection,
    "supp-agreement": _supp_agreement,
    "homotopy": _homotopy,
    "minimality-surrogate": _minimality,
}


def forced_report(mp, suite):
    """The JSON and text reports of `suite` on qxy with its checks forced."""
    catalogue = parse_workspace(str(FIXTURES / "qxy.json")).catalogue
    FORCED[suite](mp, catalogue.ring)
    report = run_suite(catalogue, suite, SEED, N)
    return report.to_json() + report.to_text()


def test_every_suite_is_forced():
    assert sorted(FORCED) == sorted(SUITES)


@pytest.mark.parametrize("suite", sorted(FORCED))
def test_forced_failure_golden(monkeypatch, suite):
    expected = (FIXTURES / "golden" / f"forced-{suite}.txt").read_text()
    assert forced_report(monkeypatch, suite) == expected
