import functools
import random
import zlib
from unittest import mock

import pytest

from oracles import (
    membership_oracle,
    module_degree_span,
    syzygy_space_dimension,
    term_order_compare,
)
from test_invariants import REFEREE_RINGS
from ttgkit import (
    GradedRing,
    HomIdeal,
    InputError,
    ideal_intersection,
    ideal_quotient,
)
from ttgkit.complexes import random_homogeneous
from ttgkit.fields import Field
from ttgkit import groebner
from ttgkit.errors import InternalError
from ttgkit.groebner import (
    FreeContext,
    LiftBasis,
    SubmoduleBasis,
    colon,
    poly_to_vec,
    syzygy_module,
)
from ttgkit.modules import quotient_module


def test_normal_form_examples(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    assert HomIdeal(ring_q, [x]).normal_form(x * y).is_zero()
    assert HomIdeal(ring_q, [x]).normal_form(ring_q.one()) == ring_q.one()
    assert HomIdeal(ring_q, [x - y, y * y]).normal_form(x * x).is_zero()


def test_normal_form_idempotent(ring_q):
    rng = random.Random(11)
    for _ in range(20):
        f = random_homogeneous(ring_q, rng, max_degree=10)
        gens = [random_homogeneous(ring_q, rng, max_degree=6) for _ in range(2)]
        ideal = HomIdeal(ring_q, gens)
        once = ideal.normal_form(f)
        assert ideal.normal_form(once) == once


def test_normal_form_ring_mismatch(ring_q, ring_f5):
    with pytest.raises(InputError):
        HomIdeal(ring_q, [ring_q.variable("x")]).normal_form(ring_f5.variable("x"))


@pytest.mark.parametrize("char, variables", REFEREE_RINGS)
def test_term_key_matches_documented_order(char, variables):
    """Seeded random terms sort the same by `term_key` as by the order the
    module docstring states, in free modules with and without a tag block."""
    ring = GradedRing(Field(char), variables)
    rng = random.Random(REFEREE_RINGS.index((char, variables)))
    for block in (None, 2):
        degrees = tuple(rng.randint(-2, 4) for _ in range(4))
        ctx = FreeContext(ring, degrees, block=block)
        terms = list(dict.fromkeys(
            (rng.randrange(4), tuple(rng.randint(0, 3) for _ in range(ring.nvars)))
            for _ in range(120)))
        rng.shuffle(terms)
        by_doc = functools.cmp_to_key(
            lambda a, b: term_order_compare(ring, degrees, ctx.block, a, b))
        assert sorted(terms, key=ctx.term_key) == sorted(terms, key=by_doc), (degrees, block)


def test_groebner_examples(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    assert set(map(str, HomIdeal(ring_q, [x, y]).basis_polynomials())) == {"x", "y"}
    assert set(map(str, HomIdeal(ring_q, [x - y, y * y]).basis_polynomials())) == {
        "x-y", "y^2"
    }
    assert HomIdeal(ring_q, []).basis_polynomials() == ()


def test_buchberger_criterion_spoly_reduction(ring_q):
    rng = random.Random(5)
    for _ in range(10):
        gens = [random_homogeneous(ring_q, rng, max_degree=8) for _ in range(2)]
        ideal = HomIdeal(ring_q, gens)
        basis = ideal.basis_polynomials()
        for i, g in enumerate(basis):
            for h in basis[:i]:
                (eg, cg), (eh, ch) = g.lead(), h.lead()
                lcm = tuple(max(a, b) for a, b in zip(eg, eh))
                mg = {tuple(l - a for l, a in zip(lcm, eg)): 1}
                mh = {tuple(l - a for l, a in zip(lcm, eh)): 1}
                spoly = g * ring_q.from_terms(mg).scale(ring_q.field.inv(cg)) - (
                    h * ring_q.from_terms(mh).scale(ring_q.field.inv(ch))
                )
                assert ideal.normal_form(spoly).is_zero()


def test_groebner_deterministic_and_cached(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    a = HomIdeal(ring_q, [x * x - y * y, x * y])
    b = HomIdeal(ring_q, [x * x - y * y, x * y])
    assert [str(g) for g in a.basis_polynomials()] == [str(g) for g in b.basis_polynomials()]
    assert a.groebner_basis() is b.groebner_basis()  # memoized per ideal value


@pytest.mark.parametrize("ring_name", ["ring_q", "ring_f5"])
def test_basis_index_requires_monic_leads(ring_name, request):
    """Reduction divides by no lead coefficient, so every indexed vector must be monic."""
    ring = request.getfixturevalue(ring_name)
    x, y = ring.variable("x"), ring.variable("y")
    ctx = FreeContext(ring, (0, 0))
    vec = poly_to_vec(x.scale(2), 0) | poly_to_vec(y.scale(2), 1)
    with pytest.raises(InternalError, match="lead coefficient 2, not 1"):
        SubmoduleBasis(ctx, [vec])
    with pytest.raises(InternalError):
        LiftBasis(FreeContext(ring, (0, 0), block=1), [vec])
    basis = SubmoduleBasis.generate([vec], ctx)
    assert sorted(basis.elements[0].values()) == [1, 1]
    assert basis.contains(vec)


def test_ideal_contains(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    assert HomIdeal(ring_q, [x, y]).contains_ideal(HomIdeal(ring_q, [x]))
    assert not HomIdeal(ring_q, [x]).contains_ideal(HomIdeal(ring_q, [x, y]))
    assert HomIdeal(ring_q, [x - y]).contains_ideal(HomIdeal(ring_q, [x * x - y * y]))


def test_ideal_quotient_examples(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    assert ideal_quotient(HomIdeal(ring_q, [x]), x).contains_poly(ring_q.one())
    assert ideal_quotient(HomIdeal(ring_q, []), x).is_zero()
    assert ideal_quotient(HomIdeal(ring_q, [x * y]), x).same_ideal(HomIdeal(ring_q, [y]))
    with pytest.raises(InputError):
        ideal_quotient(HomIdeal(ring_q, [x]), ring_q.zero())


def test_ideal_quotient_soundness_random(ring_q):
    rng = random.Random(23)
    for _ in range(10):
        gens = [random_homogeneous(ring_q, rng, max_degree=6) for _ in range(2)]
        f = random_homogeneous(ring_q, rng, max_degree=4)
        ideal = HomIdeal(ring_q, gens)
        quotient = ideal_quotient(ideal, f)
        for g in quotient.generators:
            assert ideal.normal_form(g * f).is_zero()


def test_ideal_intersection(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    inter = ideal_intersection(HomIdeal(ring_q, [x]), HomIdeal(ring_q, [y]))
    assert inter.same_ideal(HomIdeal(ring_q, [x * y]))
    inter2 = ideal_intersection(HomIdeal(ring_q, [x, y]), HomIdeal(ring_q, [x - y]))
    for g in inter2.generators:
        assert HomIdeal(ring_q, [x - y]).contains_poly(g)
        assert HomIdeal(ring_q, [x, y]).contains_poly(g)
    ideal = HomIdeal(ring_q, [x * y, y * y - x * x])
    zero, unit = HomIdeal(ring_q, []), HomIdeal(ring_q, [ring_q.one()])
    assert ideal_intersection(zero, ideal).is_zero()
    assert ideal_intersection(ideal, zero).is_zero()
    assert ideal_intersection(unit, ideal).same_ideal(ideal)
    assert ideal_intersection(ideal, unit).same_ideal(ideal)


def test_stacked_colon_twists_each_copy_to_degree_zero(ring_q):
    """colon([(N_1, v_1), (N_2, v_2)]) is (N_1 : v_1) meet (N_2 : v_2).  Copy i
    is twisted by -deg v_i, so with v_1, v_2 of degrees 2 and 4 the stacked
    row is still homogeneous, and so is every element the completion makes."""
    x, y = ring_q.variable("x"), ring_q.variable("y")
    ctx = FreeContext(ring_q, (0,))
    first = SubmoduleBasis.generate([poly_to_vec(x * x * y)], ctx)
    second = SubmoduleBasis.generate([poly_to_vec(y * y * y)], ctx)
    completed = []
    complete = groebner._complete

    def recording(known, rows, ctx):
        basis = complete(known, rows, ctx)
        completed.extend((ctx, vec) for vec in basis.elements)
        return basis

    with mock.patch.object(groebner, "_complete", recording):
        result = colon([(first, poly_to_vec(x)), (second, poly_to_vec(y * y))])
    assert result.same_ideal(HomIdeal(ring_q, [x * y]))
    assert completed
    for ctx, vec in completed:
        assert len({ctx.degree({key: c}) for key, c in vec.items()}) == 1, vec


@pytest.mark.parametrize("ring_name", ["ring_q", "ring_f5"])
def test_ideal_intersection_dimensions_against_oracle(request, ring_name):
    """dim (I n J)_d = dim I_d + dim J_d - dim (I + J)_d, degree by degree."""
    ring = request.getfixturevalue(ring_name)
    rng = random.Random(4099)

    def oracle_dim(gens, degree):
        vectors = [poly_to_vec(g) for g in gens]
        degrees = [g.homogeneous_degree() for g in gens]
        return module_degree_span(vectors, degrees, ring, degree).rank

    for _ in range(8):
        first = [random_homogeneous(ring, rng, max_degree=6)
                 for _ in range(rng.randint(1, 3))]
        second = [random_homogeneous(ring, rng, max_degree=6)
                  for _ in range(rng.randint(1, 3))]
        inter = quotient_module(ring, ideal_intersection(HomIdeal(ring, first),
                                                         HomIdeal(ring, second)))
        for d in range(0, 13):
            engine = len(ring.monomials_of_weight(d)) - inter.hilbert_dimension(d)
            expected = (oracle_dim(first, d) + oracle_dim(second, d)
                        - oracle_dim(first + second, d))
            assert engine == expected, (d, [str(g) for g in first], [str(g) for g in second])


RINGS = [
    ("q2", lambda: GradedRing(Field(0), (("x", 2), ("y", 2)))),
    ("q24", lambda: GradedRing(Field(0), (("x", 2), ("y", 4)))),
    ("f5", lambda: GradedRing(Field(5), (("x", 2), ("y", 2), ("z", 4)))),
]


@pytest.mark.parametrize("label,make", RINGS)
def test_membership_matches_oracle(label, make):
    ring = make()
    rng = random.Random(zlib.crc32(label.encode()))
    for _ in range(40):
        gens = [random_homogeneous(ring, rng, max_degree=8)
                for _ in range(rng.randint(1, 3))]
        ideal = HomIdeal(ring, gens)
        f = random_homogeneous(ring, rng, max_degree=12)
        if rng.random() < 0.4:
            # force some members: multiply a generator by a random form
            f = gens[0] * random_homogeneous(ring, rng, max_degree=4)
        engine = ideal.normal_form(f).is_zero()
        oracle = membership_oracle(f, gens)
        assert engine == oracle


def test_syzygy_dimensions_match_oracle(ring_q):
    rng = random.Random(17)
    x, y = ring_q.variable("x"), ring_q.variable("y")
    for _ in range(10):
        nrows = rng.randint(2, 3)
        rows = []
        degrees = []
        for _ in range(nrows):
            f = random_homogeneous(ring_q, rng, max_degree=6)
            rows.append(poly_to_vec(f))
            degrees.append(f.homogeneous_degree())
        ctx = FreeContext(ring_q, (0,))
        syzygies, _ = syzygy_module(rows, degrees, ctx)
        syz_degrees = []
        for s in syzygies:
            (pos, expt), _ = next(iter(s.items()))
            syz_degrees.append(ring_q.weighted_degree(expt) + degrees[pos])
        # soundness: each syzygy kills the rows exactly
        for s in syzygies:
            total = ring_q.zero()
            for (pos, expt), c in s.items():
                mono = ring_q.from_terms({expt: c})
                poly = ring_q.zero()
                for (p2, e2), c2 in rows[pos].items():
                    poly = poly + ring_q.from_terms({e2: c2})
                total = total + mono * poly
            assert total.is_zero()
        # completeness, degree by degree against the nullspace oracle
        for d in range(0, 13):
            oracle_dim = syzygy_space_dimension(rows, degrees, ring_q, d)
            span = module_degree_span(
                [{(p, e): c for (p, e), c in s.items()} for s in syzygies],
                syz_degrees,
                ring_q,
                d,
            )
            assert span.rank == oracle_dim, (d, oracle_dim, span.rank)


def _random_form(ring, rng, degree):
    """A homogeneous polynomial of exactly this weighted degree, possibly zero."""
    terms = {}
    for expt in ring.monomials_of_weight(degree):
        if rng.random() < 0.5:
            terms[expt] = rng.choice([-2, -1, 1, 2, 3])
    return ring.from_terms(terms)


def _random_vector(ring, rng, col_degrees, degree):
    vec = {}
    for pos, d in enumerate(col_degrees):
        vec.update(poly_to_vec(_random_form(ring, rng, degree - d), pos))
    return vec


def _combine(coeffs, rows, field):
    """sum_i coeffs[i] * rows[i], computed term by term."""
    total = {}
    for (i, shift), c in coeffs.items():
        for (pos, expt), c2 in rows[i].items():
            key = (pos, tuple(a + b for a, b in zip(shift, expt)))
            s = field.add(total.get(key, field.zero), field.mul(c, c2))
            if s == 0:
                total.pop(key, None)
            else:
                total[key] = s
    return total


@pytest.mark.parametrize("ring_name", ["ring_q", "ring_f5"])
def test_lift_divide_matches_division_identity(ring_name, request):
    ring = request.getfixturevalue(ring_name)
    field = ring.field
    rng = random.Random(31 if field.characteristic == 0 else 37)
    col_degrees = (0, 2)
    ctx = FreeContext(ring, col_degrees)
    in_span = outside = 0
    for _ in range(6):
        row_degrees = [rng.choice([2, 4, 6]) for _ in range(rng.randint(2, 4))]
        rows = [_random_vector(ring, rng, col_degrees, d) for d in row_degrees]
        rows = [r for r in rows if r]
        row_degrees = [d for d, r in zip(row_degrees, rows) if r]
        _, lift = syzygy_module(rows, row_degrees, ctx)
        span = SubmoduleBasis.generate(rows, ctx)
        for degree in (6, 8):
            factors = [_random_form(ring, rng, degree - d) for d in row_degrees]
            member = _combine(
                {(i, e): c for i, f in enumerate(factors) for e, c in f.terms.items()},
                rows, field,
            )
            if member:
                remainder, coeffs = lift.divide(member)
                assert remainder == {}
                assert _combine(coeffs, rows, field) == member
                in_span += 1
            vec = _random_vector(ring, rng, col_degrees, degree)
            if vec and not span.contains(vec):
                remainder, coeffs = lift.divide(vec)
                assert remainder == span.normal_form(vec)
                lifted = _combine(coeffs, rows, field)
                for key, c in remainder.items():
                    lifted[key] = field.add(lifted.get(key, field.zero), c)
                assert {k: c for k, c in lifted.items() if c != 0} == vec
                outside += 1
    assert in_span >= 6 and outside >= 6


@pytest.mark.parametrize("ring_name", ["ring_q", "ring_f5"])
def test_syzygy_module_kills_rows_exactly(ring_name, request):
    """Every returned syzygy a satisfies sum_i a_i * rows[i] = 0 exactly."""
    ring = request.getfixturevalue(ring_name)
    field = ring.field
    rng = random.Random(41 if field.characteristic == 0 else 43)
    x, y = ring.variable("x"), ring.variable("y")
    zero = ring.zero()
    fixed = [(x * x, x * y), (x * y, y * y), (zero, x * x - y * y), (zero, zero)]
    cases = [((0, 0), [poly_to_vec(a, 0) | poly_to_vec(b, 1) for a, b in fixed], [4] * 4)]
    for _ in range(6):
        col_degrees = (0, 2)
        row_degrees = [rng.choice([2, 4, 6]) for _ in range(rng.randint(3, 5))]
        rows = [_random_vector(ring, rng, col_degrees, d) for d in row_degrees]
        cases.append((col_degrees, rows, row_degrees))
    for col_degrees, rows, row_degrees in cases:
        syzygies, _ = syzygy_module(rows, row_degrees, FreeContext(ring, col_degrees))
        assert syzygies
        for syz in syzygies:
            assert syz and _combine(syz, rows, field) == {}
