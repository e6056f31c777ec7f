import random

import pytest

from test_invariants import REFEREE_RINGS
from ttgkit import GradedRing, HomIdeal, HomogeneityError, InputError
from ttgkit.complexes import (
    ChainMap,
    Homotopy,
    PerfectComplex,
    acts_as_zero_on_cohomology,
    action_null_homotopy,
    central_action,
    cohomology,
    cone,
    direct_sum,
    even_vanishing_check,
    homotopy_defect,
    koszul_object,
    random_homogeneous,
    random_perfect_complex,
    shift,
    tensor,
    unit_complex,
    validate,
)
from ttgkit.fields import Field


@pytest.fixture(scope="module")
def basics(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    one = unit_complex(ring_q)
    return ring_q, x, y, one


def test_validate_unit(basics):
    ring, x, y, one = basics
    validate(one)  # no exception


def test_validate_degree_rule(basics):
    ring, x, y, one = basics
    # d(u) = x v with u:1, v:0 forces a degree-2 entry: valid
    PerfectComplex(ring, (1, 0), {(0, 1): x})
    # y^2 has degree 4 there: homogeneity error naming the entry
    with pytest.raises(HomogeneityError, match="g0 -> g1"):
        PerfectComplex(ring, (1, 0), {(0, 1): y * y})


def test_validate_square_zero(basics):
    ring, x, y, one = basics
    with pytest.raises(InputError, match="square"):
        PerfectComplex(ring, (2, 1, 0), {(0, 1): x, (1, 2): x})


@pytest.mark.parametrize("cls, label", [(ChainMap, "chain map"), (Homotopy, "homotopy")])
def test_map_entries_are_range_and_ring_checked(basics, ring_f5, cls, label):
    ring, x, y, one = basics
    pair = direct_sum(one, one)
    cases = [
        (pair, {(-1, -1): ring.one()}, r"entry \(-1, -1\) out of range"),
        (pair, {(0, 2): ring.one()}, r"entry \(0, 2\) out of range"),
        (one, {(5, 0): ring.one()}, r"entry \(5, 0\) out of range"),
        (one, {(0, 0): ring_f5.one()}, "entry from a different ring"),
    ]
    for complex_, entries, message in cases:
        with pytest.raises(InputError, match=f"^{label} {message}$"):
            cls(complex_, complex_, entries)
    with pytest.raises(InputError, match=r"^differential entry \(2, 0\) out of range$"):
        PerfectComplex(ring, (0, 0), {(2, 0): ring.one()})


def test_chain_map_commutation_error_names_first_entry(basics):
    ring, x, y, one = basics
    message = r"^chain map does not commute with differentials at \(0, 1\)$"
    cx = cone(central_action(x, one))
    with pytest.raises(InputError, match=message):
        ChainMap(cx, cx, {(0, 0): ring.one()})
    # U*D - D*U fails at (0, 1) and (0, 8); the first in column order is named
    wide = PerfectComplex(ring, (1,) + (0,) * 8, {(0, 1): x, (0, 8): y})
    with pytest.raises(InputError, match=message):
        ChainMap(wide, wide, {(k, k): ring.one() for k in range(1, 9)})


def test_shift_conventions(basics):
    ring, x, y, one = basics
    assert shift(one, 0) == one
    cx = cone(central_action(x, one))
    assert shift(shift(cx, 1), -1) == cx
    assert cohomology(shift(one, 2)).gens == (-2,)
    # odd shift negates the differential
    assert shift(cx, 1).entry(0, 1) == -x


def test_cone_examples(basics):
    ring, x, y, one = basics
    contractible = cone(central_action(ring.one(), one))
    lo, hi = contractible.probe_window()
    assert all(d == 0 for d in cohomology(contractible).dimension_table(lo, hi).dims)
    cx = cone(central_action(x, one))
    zero_map = ChainMap(cx, one, {})
    assert cone(zero_map) == direct_sum(shift(cx, 1), one)
    hx = cohomology(cx)
    assert hx.gens == (0,)
    assert hx.annihilator().same_ideal(HomIdeal(ring, [x]))


def test_tensor_examples(basics):
    ring, x, y, one = basics
    cx = cone(central_action(x, one))
    cy = cone(central_action(y, one))
    assert tensor(one, cx) == cx
    lo, hi = tensor(cx, cy).probe_window()
    assert (
        cohomology(tensor(cx, cy)).dimension_table(lo, hi).dims
        == cohomology(tensor(cy, cx)).dimension_table(lo, hi).dims
    )
    hxy = cohomology(tensor(cx, cy))
    assert hxy.annihilator().same_ideal(HomIdeal(ring, [x, y]))
    from ttgkit.modules import generic_rank
    from ttgkit.spectrum import PrimePoint
    pmax = PrimePoint.create(ring, "pmax", [x, y], [x, y])
    assert generic_rank(hxy, pmax) == 1


def test_central_action_examples(basics):
    ring, x, y, one = basics
    ident = central_action(ring.one(), one)
    assert ident.source == one and ident.target == one
    assert dict(ident.rows[0]) == {0: ring.one()}
    action = central_action(x, one)
    assert action.source.degrees == (2,)
    rng = random.Random(12)
    for _ in range(25):
        f = random_homogeneous(ring, rng)
        target = random_perfect_complex(ring, rng.randrange(2**30), max_gens=6)
        central_action(f, target)  # constructor checks exact commutation


def test_central_action_rejects_inhomogeneous(basics):
    ring, x, y, one = basics
    with pytest.raises(HomogeneityError):
        central_action(x + x * y, one)


def test_koszul_object_examples(basics):
    ring, x, y, one = basics
    k = koszul_object(one, [x, y])
    assert cohomology(k).annihilator().same_ideal(HomIdeal(ring, [x, y]))
    assert koszul_object(one, []) == one
    # cone of a zero action splits: Hilbert table of K(p) + shifted K(p)
    again = koszul_object(k, [x])
    lo, hi = again.probe_window()
    table = cohomology(again).dimension_table(lo, hi)
    base = cohomology(k)
    for n in range(lo, hi + 1):
        expected = base.hilbert_dimension(n) + base.hilbert_dimension(n - 1)
        assert table.dimension(n) == expected


def test_koszul_tensor_compatibility(basics):
    ring, x, y, one = basics
    rng = random.Random(31)
    for _ in range(5):
        X = random_perfect_complex(ring, rng.randrange(2**30), max_gens=5)
        seq = [random_homogeneous(ring, rng, max_degree=4)]
        direct = koszul_object(X, seq)
        via_tensor = tensor(X, koszul_object(one, seq))
        lo = min(direct.probe_window()[0], via_tensor.probe_window()[0])
        hi = max(direct.probe_window()[1], via_tensor.probe_window()[1])
        assert (
            cohomology(direct).dimension_table(lo, hi)
            == cohomology(via_tensor).dimension_table(lo, hi)
        )


def test_cohomology_examples(basics):
    ring, x, y, one = basics
    h1 = cohomology(one)
    assert h1.gens == (0,) and not h1.relations
    assert cohomology(cone(central_action(ring.one(), one))).is_zero()
    hx = cohomology(cone(central_action(x, one)))
    assert [str(p) for col in hx.relations for _, p in col] == ["x"]


def test_triangle_hilbert_bound(basics):
    # long-exact-sequence consistency: dim H^n(X//f) <= dim H^n X + dim H^(n-|f|+1) X
    ring, x, y, one = basics
    rng = random.Random(8)
    for _ in range(5):
        X = random_perfect_complex(ring, rng.randrange(2**30), max_gens=6)
        f = random_homogeneous(ring, rng, max_degree=4)
        built = koszul_object(X, [f])
        d = f.homogeneous_degree()
        base = cohomology(X)
        table = cohomology(built)
        lo, hi = built.probe_window()
        for n in range(lo + d, hi - d):
            bound = base.hilbert_dimension(n) + base.hilbert_dimension(n - d + 1)
            assert table.hilbert_dimension(n) <= bound


def test_zero_action_property(basics):
    ring, x, y, one = basics
    rng = random.Random(21)
    for _ in range(5):
        X = random_perfect_complex(ring, rng.randrange(2**30), max_gens=5)
        seq = [random_homogeneous(ring, rng, max_degree=4) for _ in range(2)]
        built = koszul_object(X, seq)
        for f in seq:
            assert acts_as_zero_on_cohomology(f, built)
        combo = seq[0] * random_homogeneous(ring, rng, max_degree=2)
        assert acts_as_zero_on_cohomology(combo, built)


def test_action_null_homotopy_identity(basics):
    ring, x, y, one = basics
    for f in [x, x - y, x * y, x * x + 2 * x * y]:
        h = action_null_homotopy(f)
        g = central_action(f, cone(central_action(f, one)))
        assert homotopy_defect(h, g) == []
        assert acts_as_zero_on_cohomology(f, cone(central_action(f, one)))
    mapping_cone = cone(central_action(x * y, one))
    g = central_action(x * y, mapping_cone)
    for entries, defect in [({(1, 0): ring.one()}, [(0, 0, "2*x*y"), (1, 1, "2*x*y")]),
                            ({}, [(0, 0, "x*y"), (1, 1, "x*y")])]:
        wrong = Homotopy(shift(mapping_cone, -4), mapping_cone, entries)
        assert [(i, j, str(p)) for i, j, p in homotopy_defect(wrong, g)] == defect


def test_even_vanishing(basics):
    ring, x, y, one = basics
    assert even_vanishing_check(x)
    assert even_vanishing_check(x * y)
    assert even_vanishing_check(x * x)


def _rebuild(ring, degrees, names, entries, *blocks):
    """The checked PerfectComplex on entries plus each block (rows, row0, col0, sign)."""
    entries = dict(entries)
    for rows, row0, col0, sign in blocks:
        for i, row in enumerate(rows):
            for j, p in row:
                entries[(i + row0, j + col0)] = p.scale(sign)
    return PerfectComplex(ring, degrees, entries, names)


# Rebuilds of each constructor from the sign conventions in the complexes
# module docstring, through the checked public constructor.
def _shift_rebuilt(X, k):
    degrees = tuple(d - k for d in X.degrees)
    return _rebuild(X.ring, degrees, X.names, {}, (X.rows, 0, 0, (-1) ** k))


def _sum_rebuilt(X, Y):
    names = tuple(f"a.{nm}" for nm in X.names) + tuple(f"b.{nm}" for nm in Y.names)
    return _rebuild(X.ring, X.degrees + Y.degrees, names, {},
                    (X.rows, 0, 0, 1), (Y.rows, len(X), len(X), 1))


def _action_rebuilt(f, X):
    diagonal = {(i, i): f for i in range(len(X))}
    return ChainMap(_shift_rebuilt(X, -f.homogeneous_degree()), X, diagonal)


def _cone_rebuilt(u):
    x, y, n = u.source, u.target, len(u.source)
    names = tuple(f"x.{nm}" for nm in x.names) + tuple(f"y.{nm}" for nm in y.names)
    degrees = tuple(d - 1 for d in x.degrees) + y.degrees
    return _rebuild(x.ring, degrees, names, {},
                    (x.rows, 0, 0, -1), (u.rows, 0, n, 1), (y.rows, n, n, 1))


def _tensor_rebuilt(X, Y):
    nb = len(Y)
    degrees = tuple(di + dj for di in X.degrees for dj in Y.degrees)
    names = tuple(f"{a}&{b}" for a in X.names for b in Y.names)
    entries = {(i * nb + j, k * nb + j): p
               for i, row in enumerate(X.rows) for j in range(nb) for k, p in row}
    blocks = [(Y.rows, i * nb, i * nb, (-1) ** di) for i, di in enumerate(X.degrees)]
    return _rebuild(X.ring, degrees, names, entries, *blocks)


def test_square_zero_everywhere(basics):
    """Every constructor's output passes `validate` and equals, names included,
    its rebuild through the checked constructor, over Q[x:2,y:2] and the rings
    of the multi-ring referee sweep."""
    rings = [basics[0]] + [GradedRing(Field(c), v) for c, v in REFEREE_RINGS]
    for ring in rings:
        rng = random.Random(2)
        one = unit_complex(ring)
        c = cone(central_action(ring.variable(ring.names[0]), one))
        for seed in range(6):
            X = random_perfect_complex(ring, seed, max_gens=8)
            validate(X)  # D^2 = 0 and homogeneity re-checked
            f, g = (random_homogeneous(ring, rng, max_degree=4) for _ in range(2))
            k = rng.randint(-2, 2)
            assert central_action(f, X).rows == _action_rebuilt(f, X).rows
            for built, rebuilt in [
                (shift(X, k), _shift_rebuilt(X, k)),
                (direct_sum(X, c), _sum_rebuilt(X, c)),
                (cone(central_action(f, X)), _cone_rebuilt(_action_rebuilt(f, X))),
                (tensor(X, c), _tensor_rebuilt(X, c)),
                (tensor(c, X), _tensor_rebuilt(c, X)),
                (koszul_object(X, [f, g]), _cone_rebuilt(_action_rebuilt(
                    g, _cone_rebuilt(_action_rebuilt(f, X))))),
            ]:
                validate(built)
                assert built == rebuilt and built.names == rebuilt.names, (ring, seed)


def test_random_builder_determinism(basics):
    ring, x, y, one = basics
    assert random_perfect_complex(ring, 7) == random_perfect_complex(ring, 7)
    assert random_perfect_complex(ring, 0, max_gens=1) == one
    assert random_perfect_complex(ring, 5, steps=0) == one
    presentations = {hash(random_perfect_complex(ring, s)) for s in range(1, 26)}
    assert len(presentations) == 25


def test_random_homogeneous_falls_back_to_the_smallest_weight():
    """With x of degree 8 no even degree <= 6 has a monomial, so the draw
    has degree 8, the smallest variable weight, past max_degree; where an
    allowed degree has monomials the bound holds."""
    ring = GradedRing(Field(3), (("x", 8),))
    for seed in range(6):
        f = random_homogeneous(ring, random.Random(seed), max_degree=6)
        assert not f.is_zero() and f.homogeneous_degree() == 8
        g = random_homogeneous(ring, random.Random(seed), max_degree=9)
        assert g.homogeneous_degree() == 8
    ring = GradedRing(Field(3), (("x", 4), ("y", 6)))
    for seed in range(6):
        assert random_homogeneous(ring, random.Random(seed), max_degree=6).homogeneous_degree() <= 6


def test_cohomology_cache_hits_equal_presentations(basics):
    ring, x, y, one = basics
    a = cone(central_action(x, one))
    b = cone(central_action(x, one))
    assert cohomology(a) is cohomology(b)
