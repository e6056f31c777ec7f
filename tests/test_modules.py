import random

import pytest

from oracles import (
    annihilator_dimension_oracle,
    direct_sum_modules,
    hilbert_oracle,
    shift_module,
)
from ttgkit import HomIdeal, InputError
from ttgkit.complexes import cohomology, random_perfect_complex
from ttgkit.modules import (
    GradedDimensionTable,
    GradedModule,
    generic_rank,
    is_zero_localized,
    local_shift_multiset,
    quotient_module,
)
from ttgkit.spectrum import PrimePoint


@pytest.fixture(scope="module")
def setup(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    primes = {
        "p0": PrimePoint.create(ring_q, "p0", [], []),
        "px": PrimePoint.create(ring_q, "px", [x], [x]),
        "py": PrimePoint.create(ring_q, "py", [y], [y]),
        "pd": PrimePoint.create(ring_q, "pd", [x - y], [x - y]),
        "pmax": PrimePoint.create(ring_q, "pmax", [x, y], [x, y]),
    }
    return ring_q, x, y, primes


def test_annihilator_examples(setup):
    ring, x, y, primes = setup
    assert quotient_module(ring, HomIdeal(ring, [x])).annihilator().same_ideal(
        HomIdeal(ring, [x])
    )
    assert GradedModule(ring, (0,)).annihilator().is_zero()
    both = direct_sum_modules(
        quotient_module(ring, HomIdeal(ring, [x])),
        quotient_module(ring, HomIdeal(ring, [y])),
    )
    assert both.annihilator().same_ideal(HomIdeal(ring, [x * y]))


def test_annihilator_soundness(setup):
    ring, x, y, _ = setup
    module = GradedModule(ring, (0, 2), [{0: x * y, 1: x}, {1: y * y}])
    basis = module.rel_basis()
    for a in module.annihilator().generators:
        for i in range(len(module.gens)):
            vec = {(i, expt): c for expt, c in a.terms.items()}
            assert basis.contains(vec)


def test_colon_edge_cases(setup):
    """A free module, R/(1) and a single-generator core, against the oracle."""
    ring, x, y, _ = setup
    free = GradedModule(ring, (0, 2))
    assert free.annihilator().is_zero()
    assert all(t.is_zero() for t in free.transporters())
    unit = quotient_module(ring, HomIdeal(ring, [ring.one()]))
    assert unit.annihilator().is_unit()
    assert [t.is_unit() for t in unit.transporters()] == [True]
    # e1 = -y*e0 modulo the first relation, so the core is R/(x^2) in degree 2.
    module = GradedModule(ring, (2, 4), [{0: y, 1: ring.one()}, {0: x * x}])
    assert module.core().gens == (2,)
    square = HomIdeal(ring, [x * x])
    assert module.annihilator().same_ideal(square)
    assert all(t.same_ideal(square) for t in module.transporters())
    ann = module.annihilator().groebner_basis()
    for d in range(0, 9):
        expected = annihilator_dimension_oracle(module, d)
        assert len(ring.monomials_of_weight(d)) - ann.standard_monomial_count(d) == expected


def test_zero_module_annihilator_is_unit(setup):
    ring, *_ = setup
    assert GradedModule(ring, ()).annihilator().is_unit()


def test_presentation_canonicalization(setup):
    ring, x, y, _ = setup
    module = GradedModule(ring, (0,), [{0: x}, {0: ring.zero()}, {0: x}])
    assert len(module.relations) == 1


def test_relation_homogeneity_enforced(setup):
    ring, x, y, _ = setup
    with pytest.raises(InputError):
        GradedModule(ring, (0,), [{0: x + x * y}])
    with pytest.raises(InputError):
        GradedModule(ring, (0, 1), [{0: x, 1: x}])  # mixed column degrees


def test_hilbert_examples(setup):
    ring, x, y, _ = setup
    assert GradedModule(ring, (0,)).hilbert_dimension(4) == 3
    mx = quotient_module(ring, HomIdeal(ring, [x]))
    assert mx.hilbert_dimension(1) == 0
    assert quotient_module(ring, HomIdeal(ring, [x, y])).hilbert_dimension(0) == 1


def test_hilbert_matches_rowreduction_oracle(setup):
    ring, x, y, _ = setup
    rng = random.Random(9)
    modules = [
        GradedModule(ring, (0, 2)),
        quotient_module(ring, HomIdeal(ring, [x])),
        quotient_module(ring, HomIdeal(ring, [x * y])),
        GradedModule(ring, (0, 2), [{0: x * x, 1: y}, {1: x * x}]),
        GradedModule(ring, (-2, 0), [{0: x * y - y * y}]),
    ]
    for module in modules:
        for d in range(-2, 17):
            assert module.hilbert_dimension(d) == hilbert_oracle(module, d), (module, d)
    del rng


def test_core_cancels_one_unit_entry(setup):
    ring, x, y, _ = setup
    # e1 = -x*e0 modulo the first relation, so y*e1 = 0 becomes x*y*e0 = 0.
    module = GradedModule(ring, (0, 2), [{0: x, 1: ring.one()}, {1: y}])
    core = module.core()
    assert core.gens == (0,)
    assert core.relations == (((0, -(x * y)),),)
    assert core.core() is core
    assert module.dimension_table(-2, 12) == core.dimension_table(-2, 12)
    for d in range(-2, 13):
        assert module.hilbert_dimension(d) == hilbert_oracle(module, d)
    assert module.annihilator().same_ideal(HomIdeal(ring, [x * y]))
    ann = module.annihilator().groebner_basis()
    for d in range(0, 9):
        expected = annihilator_dimension_oracle(module, d)
        assert expected == annihilator_dimension_oracle(core, d)
        assert len(ring.monomials_of_weight(d)) - ann.standard_monomial_count(d) == expected


def test_core_without_unit_entries_is_self(setup):
    ring, x, y, _ = setup
    for module in (
        GradedModule(ring, (0, 2)),
        quotient_module(ring, HomIdeal(ring, [x, y])),
        GradedModule(ring, (0, 2), [{0: x * x, 1: y}, {1: x * x}]),
    ):
        assert module.core() is module


def test_core_of_unit_quotient_has_no_generators(setup):
    ring, *_ = setup
    module = quotient_module(ring, HomIdeal(ring, [ring.one()]))
    core = module.core()
    assert core.gens == () and core.relations == ()
    assert module.annihilator().is_unit()
    assert all(module.hilbert_dimension(d) == 0 for d in range(-2, 7))


def test_core_leaves_no_degree_zero_entry(ring_q, ring_f5):
    def has_unit_entry(module):
        return any(p.homogeneous_degree() == 0 for col in module.relations for _, p in col)

    rng = random.Random(733)
    shrunk = 0
    for ring in (ring_q, ring_f5):
        for _ in range(12):
            module = cohomology(random_perfect_complex(ring, rng.randrange(2**30),
                                                       max_gens=10, steps=5))
            core = module.core()
            assert not has_unit_entry(core), module
            assert (core is not module) == has_unit_entry(module), module
            shrunk += core is not module
    assert shrunk > 0


def test_dimension_table_window(setup):
    ring, x, *_ = setup
    table = quotient_module(ring, HomIdeal(ring, [x])).dimension_table(0, 4)
    assert table.dims == (1, 0, 1, 0, 1)
    with pytest.raises(InputError):
        table.dimension(6)


def test_dimension_table_value_semantics():
    table = GradedDimensionTable(-2, 2, (0, 1, 2, 1, 0))
    assert table == GradedDimensionTable(lo=-2, hi=2, dims=(0, 1, 2, 1, 0))
    assert hash(table) == hash((-2, 2, (0, 1, 2, 1, 0)))
    assert table != (-2, 2, (0, 1, 2, 1, 0))
    assert table.__eq__((-2, 2, (0, 1, 2, 1, 0))) is NotImplemented
    assert table != GradedDimensionTable(-2, 2, (0, 1, 2, 1, 1))
    assert repr(table) == "GradedDimensionTable(lo=-2, hi=2, dims=(0, 1, 2, 1, 0))"
    for action in (lambda: setattr(table, "lo", 0), lambda: setattr(table, "other", 1),
                   lambda: delattr(table, "dims")):
        with pytest.raises(AttributeError):
            action()
    assert table.to_json_dict() == {"lo": -2, "hi": 2, "dims": [0, 1, 2, 1, 0]}
    listed = GradedDimensionTable(lo=0, hi=1, dims=[1, 2])
    assert listed.dims == (1, 2)
    assert hash(listed) == hash(GradedDimensionTable(0, 1, (1, 2)))
    assert repr(listed) == "GradedDimensionTable(lo=0, hi=1, dims=(1, 2))"


def test_is_zero_localized(setup):
    ring, x, y, primes = setup
    mx = quotient_module(ring, HomIdeal(ring, [x]))
    assert is_zero_localized(mx, primes["py"]) is True
    assert is_zero_localized(mx, primes["px"]) is False
    mxy = quotient_module(ring, HomIdeal(ring, [x * y]))
    assert is_zero_localized(mxy, primes["px"]) is False
    assert is_zero_localized(GradedModule(ring, ()), primes["p0"]) is True


def test_is_zero_localized_rank_cases_match_annihilator(setup):
    ring, x, y, primes = setup

    def check(module, name, expected):
        p = primes[name]
        assert is_zero_localized(module, p) is expected, (module, name)
        assert expected == (not p.ideal.contains_ideal(module.annihilator()))

    # At (0) the rank is taken over Frac(R) itself.
    check(quotient_module(ring, HomIdeal(ring, [x])), "p0", True)
    check(GradedModule(ring, (0,)), "p0", False)
    # R^2/(x(e0-e1), y(e0-e1)) is nonzero everywhere: its reduced matrix has
    # rank one, although at (0) and (x-y) no relation column vanishes mod p.
    diagonal = GradedModule(ring, (0, 0), [{0: x, 1: -x}, {0: y, 1: -y}])
    for name in ("p0", "px", "pd", "pmax"):
        check(diagonal, name, False)
    # More relations than generators, zero at (y) and nonzero at (x).
    tall = GradedModule(ring, (0, 0), [{0: x}, {1: x}, {0: y, 1: y}])
    check(tall, "py", True)
    check(tall, "pd", True)
    check(tall, "px", False)
    # Fewer relations than generators can never vanish.
    check(GradedModule(ring, (0, 0), [{0: x}]), "py", False)


def test_supp_specialization_closure(setup):
    ring, x, y, primes = setup
    mx = quotient_module(ring, HomIdeal(ring, [x]))
    # px in Supp and pmax contains px, hence pmax in Supp
    assert not is_zero_localized(mx, primes["px"])
    assert not is_zero_localized(mx, primes["pmax"])


def test_generic_rank_examples(setup):
    ring, x, y, primes = setup
    mmax = quotient_module(ring, HomIdeal(ring, [x, y]))
    assert generic_rank(mmax, primes["pmax"]) == 1
    mx = quotient_module(ring, HomIdeal(ring, [x]))
    assert generic_rank(direct_sum_modules(mx, mx), primes["px"]) == 2
    cokernel = GradedModule(ring, (0,), [{0: x}, {0: y}])
    assert generic_rank(cokernel, primes["px"]) == 0


def test_generic_rank_precondition_names_offender(setup):
    ring, x, y, primes = setup
    mx = quotient_module(ring, HomIdeal(ring, [x]))
    with pytest.raises(InputError, match="y"):
        generic_rank(mx, primes["pmax"])


def test_generic_rank_additive_and_presentation_invariant(setup):
    ring, x, y, primes = setup
    rng = random.Random(4)
    mx = quotient_module(ring, HomIdeal(ring, [x]))
    m2 = direct_sum_modules(mx, shift_module(mx, 2))
    assert generic_rank(m2, primes["px"]) == 2 * generic_rank(mx, primes["px"])
    # adding a redundant relation does not change the rank
    redundant = GradedModule(ring, (0,), [{0: x}, {0: x * y}])
    assert generic_rank(redundant, primes["px"]) == generic_rank(mx, primes["px"])
    del rng


def test_local_shift_multiset_vs_global(setup):
    ring, x, y, primes = setup
    mmax = quotient_module(ring, HomIdeal(ring, [x, y]))
    mx = quotient_module(ring, HomIdeal(ring, [x]))
    # globally free: the local multiset lists both shifts
    pair = direct_sum_modules(mx, shift_module(mx, 2))
    assert local_shift_multiset(pair, primes["px"]) == [0, 2]
    # p-torsion summand invisible at p: local sees rank 1
    mixed = direct_sum_modules(mx, mmax)
    assert local_shift_multiset(mixed, primes["px"]) == [0]


def test_module_json_round_trip_shape(setup):
    ring, x, *_ = setup
    module = quotient_module(ring, HomIdeal(ring, [x]))
    payload = module.to_json_dict()
    assert payload == {"gens": [0], "relations": [["x"]]}
