import functools
import random
from fractions import Fraction
import zlib
from unittest import mock

import pytest

from oracles import (
    membership_oracle,
    module_degree_span,
    normal_form_oracle,
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
    """Reduction divides by no lead coefficient, so every indexed element is
    normalized: primitive with a positive lead over Q, monic over F_p.  The
    index refuses any other element, and a completion normalizes each one."""
    ring = request.getfixturevalue(ring_name)
    x, y = ring.variable("x"), ring.variable("y")
    ctx = FreeContext(ring, (0, 0))
    lead, tail = (0, next(iter(x.terms))), (1, next(iter(y.terms)))
    if ring.field.characteristic == 0:
        bad = [{lead: 2, tail: 2}, {lead: 4, tail: 6}, {lead: -1, tail: 1}, {lead: -3, tail: 2}]
        good = [{lead: 1, tail: -1}, {lead: 2, tail: 3}, {lead: 6, tail: -5}]
    else:
        bad = [{lead: 2, tail: 2}, {lead: 3, tail: 1}, {lead: 4, tail: 1}]
        good = [{lead: 1, tail: 4}]
    for vec in bad:
        with pytest.raises(InternalError, match="lead coefficient"):
            SubmoduleBasis(ctx, [(lead, vec)])
        with pytest.raises(InternalError, match="lead coefficient"):
            LiftBasis(FreeContext(ring, (0, 0), block=1), [(lead, vec)])
    for vec in good:
        assert SubmoduleBasis(ctx, [(lead, vec)]).elements == [vec]
    vec = poly_to_vec(x.scale(2), 0) | poly_to_vec(y.scale(2), 1)
    basis = SubmoduleBasis.generate([vec], ctx)
    assert basis.leads == [lead] and basis.elements == [{lead: 1, tail: 1}]
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


def _add_vectors(first, second, field):
    total = dict(first)
    for key, c in second.items():
        s = field.add(total.get(key, field.zero), c)
        if s == 0:
            total.pop(key, None)
        else:
            total[key] = s
    return total


@pytest.mark.parametrize("char, variables",
                         [(0, (("x", 2), ("y", 2)))] + [r for r in REFEREE_RINGS if r[0] == 0])
def test_integer_engine_is_exact_at_the_boundary(char, variables):
    """Over Q the engine keeps primitive integer elements whose leads need not
    be 1, and a reduction comes back scaled.  What leaves the engine is still
    exact: `LiftBasis.divide` gives vec = remainder + sum_i coeffs[i] rows[i]
    with the remainder the normal form over the span, `HomIdeal.normal_form`
    agrees with the row-reduction oracle, and the basis polynomials are monic."""
    ring = GradedRing(Field(char), variables)
    field = ring.field
    rng = random.Random(zlib.crc32(repr(variables).encode()))
    x, y = ring.variable("x"), ring.variable("y")
    half = ring.constant(Fraction(1, 2))
    ideals = [[x.scale(2) + y.scale(3), (x * y).scale(6) - (y * y).scale(4)],
              [(x * x).scale(Fraction(2, 3)) + (x * y).scale(5), (y * y).scale(6) - x * y],
              [(x * x).scale(2) + y.scale(3), (x * x * y).scale(6) - (y * y).scale(4)]]
    for _ in range(6):
        ideals.append([random_homogeneous(ring, rng, max_degree=8) * half
                       for _ in range(rng.randint(1, 3))])
    unit_leads = other_leads = 0
    for gens in ideals:
        ideal = HomIdeal(ring, [g for g in gens if g.is_homogeneous()])
        if ideal.is_zero():
            continue
        basis = ideal.groebner_basis()
        for lead, vec in zip(basis.leads, basis.elements):
            if vec[lead] == 1:
                unit_leads += 1
            else:
                other_leads += 1
        assert all(g.lead()[1] == 1 for g in ideal.basis_polynomials())
        for _ in range(6):
            f = random_homogeneous(ring, rng, max_degree=12).scale(Fraction(3, 7))
            if rng.random() < 0.3:
                f = f + ideal.generators[0] * random_homogeneous(ring, rng, max_degree=4)
            if f.is_homogeneous():
                assert ideal.normal_form(f) == normal_form_oracle(f, ideal.generators), str(f)
    assert unit_leads and other_leads

    ctx = FreeContext(ring, (0, 2))
    divided = 0
    for _ in range(6):
        row_degrees = [rng.choice([2, 4, 6]) for _ in range(rng.randint(2, 4))]
        rows = [_random_vector(ring, rng, (0, 2), d) for d in row_degrees]
        rows = [{k: c * 3 for k, c in r.items()} for r in rows if r]
        row_degrees = [d for d, r in zip(row_degrees, rows) if r]
        _, lift = syzygy_module(rows, row_degrees, ctx)
        span = SubmoduleBasis.generate(rows, ctx)
        for degree in (6, 8):
            vec = _random_vector(ring, rng, (0, 2), degree)
            vec = {k: c * Fraction(5, 4) for k, c in vec.items()}
            factors = [_random_form(ring, rng, degree - d) for d in row_degrees]
            member = _combine(
                {(i, e): c for i, f in enumerate(factors) for e, c in f.terms.items()},
                rows, field)
            for target in (vec, member, _add_vectors(vec, member, field)):
                if not target:
                    continue
                remainder, coeffs = lift.divide(target)
                assert remainder == span.normal_form(target)
                assert _add_vectors(remainder, _combine(coeffs, rows, field), field) == target
                divided += 1
    assert divided >= 30


@pytest.mark.parametrize("ring_name", ["ring_q", "ring_f5"])
def test_engine_makes_no_field_calls(ring_name, request):
    """Inside the engine coefficients are plain ints: a completion, the
    syzygies, a lift and a colon run with every `Field` operation refusing."""
    ring = request.getfixturevalue(ring_name)
    x, y = ring.variable("x"), ring.variable("y")
    gens = [x.scale(2) + y.scale(3), (x * y).scale(6) - (y * y).scale(4), (x * x * y).scale(3)]
    rows = [poly_to_vec(g) for g in gens]
    degrees = [g.homogeneous_degree() for g in gens]
    module_rows = [poly_to_vec(x, 0) | poly_to_vec(y.scale(2), 1), poly_to_vec(x * y, 1)]
    target = poly_to_vec(x * x.scale(3), 0) | poly_to_vec((x * y).scale(6), 1)

    def refuse(*args):
        raise AssertionError("Field operation inside the Groebner engine")

    with mock.patch.multiple(Field, add=refuse, mul=refuse, neg=refuse, sub=refuse, inv=refuse):
        ctx = FreeContext(ring, (0,))
        assert len(groebner.buchberger_module(rows, ctx)) == 2
        syzygies, lift = syzygy_module(rows, degrees, ctx)
        assert syzygies and lift.divide(rows[2])[0] == {}
        basis = SubmoduleBasis.generate(rows, ctx)
        assert not colon([(basis, poly_to_vec(x))]).is_zero()
        module_ctx = FreeContext(ring, (0, 2))
        module = SubmoduleBasis.generate(module_rows, module_ctx)
        assert module.contains(target)
        _, lift = syzygy_module(module_rows, [2, 4], module_ctx)
        assert lift.divide(target)[0] == {}
        assert not colon([(module, poly_to_vec(ring.one(), 0)),
                          (module, poly_to_vec(ring.one(), 1))]).is_zero()
