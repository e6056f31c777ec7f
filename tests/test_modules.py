import itertools
import random
from unittest import mock

import pytest

from oracles import (
    Presentation,
    annihilator_dimension_oracle,
    direct_sum_modules,
    hilbert_oracle,
    shift_module,
)
from test_invariants import raw_cohomology
from ttgkit import HomIdeal, InputError, modules
from ttgkit.complexes import cohomology, koszul_object, random_perfect_complex
from ttgkit.groebner import FreeContext, SubmoduleBasis, poly_to_vec, syzygy_module, vec_lead
from ttgkit.modules import (
    GradedDimensionTable,
    GradedModule,
    generic_rank,
    is_zero_localized,
    local_shift_multiset,
    quotient_module,
)
from ttgkit.rings import _monomials_of_weight
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
    """A free module, R/(1) and a unit entry cancelled down to one generator,
    against the oracle on the presentation as given."""
    ring, x, y, _ = setup
    free = GradedModule(ring, (0, 2))
    assert free.annihilator().is_zero()
    assert all(t.is_zero() for t in free.transporters())
    unit = quotient_module(ring, HomIdeal(ring, [ring.one()]))
    assert unit.annihilator().contains_poly(ring.one())
    assert unit.gens == () and unit.transporters() == ()
    # e1 = -y*e0 modulo the first relation, so the module is R/(x^2) in degree 2.
    raw = Presentation(ring, (2, 4), [{0: y, 1: ring.one()}, {0: x * x}])
    module = GradedModule(ring, raw.gens, raw.relations)
    assert module.gens == (2,)
    square = HomIdeal(ring, [x * x])
    assert module.annihilator().same_ideal(square)
    assert all(t.same_ideal(square) for t in module.transporters())
    ann = quotient_module(ring, module.annihilator())
    for d in range(0, 9):
        expected = annihilator_dimension_oracle(raw, d)
        assert len(ring.monomials_of_weight(d)) - ann.hilbert_dimension(d) == expected


def test_zero_module_annihilator_is_unit(setup):
    ring, *_ = setup
    assert GradedModule(ring, ()).annihilator().contains_poly(ring.one())


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


def _standard_monomial_dimension(module, degree):
    """Monomials of each position's degree outside that position's lead ideal."""
    basis = module.rel_basis()
    leads = [vec_lead(v, basis.ctx) for v in basis.elements]
    count = 0
    for pos, shift in enumerate(module.gens):
        divisors = [e for p, e in leads if p == pos]
        for expt in module.ring.monomials_of_weight(degree - shift):
            if not any(all(a <= b for a, b in zip(e, expt)) for e in divisors):
                count += 1
    return count


def test_hilbert_numerator_against_oracle_and_enumeration(setup, catalogue_f5):
    """The numerator's Hilbert function agrees with row reduction on the
    presentation and with counting standard monomials: on R/(1), free
    modules with shifted generators and cohomology modules, and over the
    widest window the CLI allows on f5xyz."""
    ring, x, y, _ = setup
    unit = quotient_module(ring, HomIdeal(ring, [ring.one()]))
    assert unit.gens == ()
    assert unit.dimension_table(-4, 12).dims == (0,) * 17
    modules = [unit, GradedModule(ring, (0, 2, 6)), GradedModule(ring, (-4, 2), [{1: x * y}])]
    for seed in range(6):
        modules.append(cohomology(random_perfect_complex(ring, seed, max_gens=8, steps=4)))
    for module in modules:
        for d in range(-6, 15):
            expected = hilbert_oracle(module, d)
            assert module.hilbert_dimension(d) == expected, (module, d)
            assert _standard_monomial_dimension(module, d) == expected, (module, d)
    ring5 = catalogue_f5.ring
    z = ring5.variable("z")
    wide = [cohomology(koszul_object(catalogue_f5.object("kxyz"), [z])),
            cohomology(catalogue_f5.object("cx")), GradedModule(ring5, (-6, 2))]
    for module in wide:
        table = module.dimension_table(-400, 400)
        for d in range(-400, 401, 9):
            assert table.dimension(d) == _standard_monomial_dimension(module, d), (module, d)
    assert table.dimension(400) == len(ring5.monomials_of_weight(406)) + len(
        ring5.monomials_of_weight(398))


def test_monomial_numerator_edge_cases_and_work():
    """K(R/L) of monomial ideals: 1 in L gives zero, generators need not be
    minimal, and the colons are minimalized, so the staircase (x, y, z)^10
    costs a few calls per generator."""
    weights = (2, 2, 4)
    assert not any(modules._monomial_numerator(weights, [(0, 0, 0)]).values())
    assert not any(modules._monomial_numerator(weights, [(1, 0, 2), (0, 0, 0)]).values())
    assert modules._monomial_numerator(weights, []) == {0: 1}
    rng = random.Random(71)
    for _ in range(20):
        gens = [tuple(rng.randrange(4) for _ in weights) for _ in range(rng.randint(1, 6))]
        numerator = modules._monomial_numerator(weights, gens)
        for d in range(0, 30):
            counted = sum(1 for m in _monomials_of_weight(weights, d)
                          if not any(all(a <= b for a, b in zip(g, m)) for g in gens))
            total = sum(c * modules._monomial_count(weights, d - e)
                        for e, c in numerator.items())
            assert total == counted, (gens, d)
    staircase = [e for e in itertools.product(range(11), repeat=3) if sum(e) == 10]
    calls = []
    original = modules._monomial_numerator

    def counting(*args):
        calls.append(1)
        return original(*args)

    with mock.patch.object(modules, "_monomial_numerator", counting):
        modules._monomial_numerator(weights, staircase)
    assert len(calls) <= 5 * len(staircase)


def test_minimalization_is_per_position(setup):
    """x*e_1 divides x^2*e_0 exponent by exponent but not as a term: both
    leads stay in the basis, in relation bases, colons and lifts alike."""
    ring, x, y, _ = setup
    ctx = FreeContext(ring, (0, 0))
    rows = [poly_to_vec(x, 1), poly_to_vec(x * x, 0)]
    basis = SubmoduleBasis.generate(rows, ctx)
    assert sorted(vec_lead(v, ctx) for v in basis.elements) == [(0, (2, 0)), (1, (1, 0))]
    assert all(basis.contains(row) for row in rows)
    module = GradedModule(ring, (0, 0), [{1: x}, {0: x * x}])
    for d in range(0, 9):
        assert module.hilbert_dimension(d) == hilbert_oracle(module, d), d
    assert module.annihilator().same_ideal(HomIdeal(ring, [x * x]))
    _, lift = syzygy_module(rows, [2, 4], ctx)
    assert lift.divide(poly_to_vec(x * x * y, 0)) == ({}, {(1, (0, 1)): 1})


def test_constructor_cancels_one_unit_entry(setup):
    ring, x, y, _ = setup
    # e1 = -x*e0 modulo the first relation, so y*e1 = 0 becomes x*y*e0 = 0.
    raw = Presentation(ring, (0, 2), [{0: x, 1: ring.one()}, {1: y}])
    module = GradedModule(ring, raw.gens, raw.relations)
    assert module.gens == (0,)
    assert module.relations == (((0, -(x * y)),),)
    again = GradedModule(ring, module.gens, module.relations)
    assert (again.gens, again.relations) == (module.gens, module.relations)
    for d in range(-2, 13):
        assert module.hilbert_dimension(d) == hilbert_oracle(raw, d)
    assert module.annihilator().same_ideal(HomIdeal(ring, [x * y]))
    ann = quotient_module(ring, module.annihilator())
    for d in range(0, 9):
        expected = annihilator_dimension_oracle(raw, d)
        assert expected == annihilator_dimension_oracle(module, d)
        assert len(ring.monomials_of_weight(d)) - ann.hilbert_dimension(d) == expected


def test_constructor_keeps_presentations_without_unit_entries(setup):
    ring, x, y, _ = setup
    for gens, relations in (
        ((0, 2), []),
        ((0,), [{0: x}, {0: y}]),
        ((0, 2), [{0: x * x, 1: y}, {1: x * x}]),
    ):
        module = GradedModule(ring, gens, relations)
        assert module.gens == gens
        assert [dict(col) for col in module.relations] == relations


def test_unit_quotient_has_no_generators(setup):
    ring, *_ = setup
    module = quotient_module(ring, HomIdeal(ring, [ring.one()]))
    assert module.gens == () and module.relations == ()
    assert module.is_zero()
    assert module.annihilator().contains_poly(ring.one())
    assert all(module.hilbert_dimension(d) == 0 for d in range(-2, 7))


def test_constructor_leaves_no_degree_zero_entry(ring_q, ring_f5):
    def has_unit_entry(presentation):
        return any(p.homogeneous_degree() == 0
                   for col in presentation.relations for _, p in dict(col).items())

    rng = random.Random(733)
    shrunk = 0
    for ring in (ring_q, ring_f5):
        for _ in range(12):
            x = random_perfect_complex(ring, rng.randrange(2**30), max_gens=10, steps=5)
            raw = raw_cohomology(x)
            module = cohomology(x)
            assert not has_unit_entry(module), module
            assert (len(module.gens) < len(raw.gens)) == has_unit_entry(raw), module
            shrunk += len(module.gens) < len(raw.gens)
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
