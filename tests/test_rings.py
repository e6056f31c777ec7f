import time
from fractions import Fraction

import pytest

from ttgkit import GradedRing, InputError
from ttgkit.fields import MAX_CHARACTERISTIC, Field, _is_prime
from ttgkit.rings import clear_denominators, format_polynomial


def test_ring_rejects_odd_weight():
    with pytest.raises(InputError, match="odd weight"):
        GradedRing(Field(0), (("x", 3),))


def test_ring_rejects_duplicate_names():
    with pytest.raises(InputError):
        GradedRing(Field(0), (("x", 2), ("x", 4)))


def test_field_rejects_composite_characteristic():
    with pytest.raises(InputError):
        Field(6)


def _trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_primality_agrees_with_trial_division_below_ten_thousand():
    for n in range(10**4):
        assert _is_prime(n) == _trial_division_is_prime(n), n


def test_field_rejects_carmichael_and_strong_pseudoprimes():
    # 561 is Carmichael; 3215031751 is a strong pseudoprime to bases 2, 3, 5, 7.
    for n in (561, 3215031751):
        with pytest.raises(InputError, match="not prime"):
            Field(n)


def test_large_prime_characteristic_is_fast():
    start = time.perf_counter()
    Field(2**61 - 1)
    assert time.perf_counter() - start < 1.0


def test_characteristic_above_cap_is_rejected():
    with pytest.raises(InputError, match="supported cap"):
        Field(MAX_CHARACTERISTIC)


def test_prime_field_symmetric_representatives():
    f = Field(5)
    assert f.coerce(3) == -2
    assert f.coerce(7) == 2
    assert f.add(2, 2) == -1
    assert f.inv(2) == -2  # 2 * 3 = 6 = 1 mod 5, 3 -> -2


def test_parse_and_format_round_trip(ring_q):
    for text in ["x", "x^2-y^2", "2*x*y", "-x+2*y", "7", "0", "x^2+2*x*y+y^2",
                 "1/2*x", "-3/4*x*y+y^2"]:
        p = ring_q.parse(text)
        assert ring_q.parse(format_polynomial(p)) == p


def test_parse_collects_repeated_monomials(ring_q):
    assert ring_q.parse("x+x") == ring_q.parse("2*x")
    assert ring_q.parse("x-x").is_zero()


def test_parse_errors_carry_position(ring_q):
    with pytest.raises(InputError, match=r"^undeclared variable 'q' at column 5 in"):
        ring_q.parse("x + q")
    with pytest.raises(InputError, match=r"^expected exponent at column 3 in"):
        ring_q.parse("x ^")
    for blank in ("", " "):
        with pytest.raises(InputError, match=r"^empty polynomial text$"):
            ring_q.parse(blank)
    with pytest.raises(InputError, match=r"^unexpected character '\?' at column 3$"):
        ring_q.parse("2 ? 3")
    with pytest.raises(InputError, match=r"^expected '\+' or '-' at column 5 in"):
        ring_q.parse("2   3")


@pytest.mark.parametrize("text, message", [
    ("-", "dangling sign at column 1 in '-'"),
    ("x*2", "coefficient must precede variables at column 3 in 'x*2'"),
    ("3/", "expected denominator at column 2 in '3/'"),
    ("3/0", "zero denominator at column 3 in '3/0'"),
    ("x+*y", "expected a term at column 3 in 'x+*y'"),
    ("x*", "dangling '*' at column 2 in 'x*'"),
    ("x y", "expected '+' or '-' at column 3 in 'x y'"),
    ("x^", "expected exponent at column 2 in 'x^'"),
    ("x + #", "unexpected character '#' at column 5"),
    ("x^\u0661+y", "unexpected character '\u0661' at column 3"),
    ("x+\u3000y", "unexpected character '\\u3000' at column 3"),
])
def test_parse_error_messages_name_the_token_column(ring_q, text, message):
    with pytest.raises(InputError) as err:
        ring_q.parse(text)
    assert str(err.value) == message


def test_arithmetic_is_exact(ring_q):
    x, y = ring_q.variable("x"), ring_q.variable("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    third = ring_q.constant(1).scale(1) * p
    assert third.scale(3).scale(1) == p.scale(3)


def test_weighted_degrees(ring_f5):
    z = ring_f5.variable("z")
    x = ring_f5.variable("x")
    assert z.homogeneous_degree() == 4
    assert (x * z).homogeneous_degree() == 6
    assert (x + z).homogeneous_degree() is None
    assert not (x + z).is_homogeneous()


def test_grevlex_order(ring_q):
    # equal weighted degree: ties broken reverse-lexicographically
    x, y = ring_q.variable("x"), ring_q.variable("y")
    lead, _ = (x * x + x * y + y * y).lead()
    assert lead == (2, 0)
    ring3 = GradedRing(Field(0), (("x", 2), ("y", 2), ("z", 2)))
    p = ring3.parse("x*z+y^2")
    lead, _ = p.lead()
    assert lead == (0, 2, 0)  # y^2 beats x*z in grevlex


def test_monomials_of_weight(ring_f5):
    assert set(ring_f5.monomials_of_weight(4)) == {(2, 0, 0), (1, 1, 0), (0, 2, 0),
                                                   (0, 0, 1)}
    assert ring_f5.monomials_of_weight(3) == ()
    assert ring_f5.monomials_of_weight(0) == ((0, 0, 0),)


def test_clear_denominators(ring_q):
    p = ring_q.parse("1/2*x-1/3*y")
    q = clear_denominators(p)
    assert str(q) == "3*x-2*y"
    assert clear_denominators(ring_q.zero()).is_zero()


def test_hash_and_eq(ring_q):
    x = ring_q.variable("x")
    assert hash(x + x) == hash(x.scale(2))
    assert x + x == x.scale(2)
    other = GradedRing(Field(0), (("x", 2), ("y", 2)))
    assert other.variable("x") == x


def test_field_value_semantics():
    f = Field(5)
    assert f == Field(5) and Field() == Field(0)
    assert hash(f) == hash((5,))
    assert f != (5,) and f.__eq__((5,)) is NotImplemented
    assert len({Field(5), Field(5), Field(0)}) == 2
    assert repr(f) == "Field(characteristic=5)"
    assert repr(Field()) == "Field(characteristic=0)"
    with pytest.raises(InputError, match="^negative characteristic -3$"):
        Field(-3)
    for action in (lambda: setattr(f, "characteristic", 7), lambda: setattr(f, "other", 1),
                   lambda: delattr(f, "characteristic"), lambda: setattr(f, "one", 2)):
        with pytest.raises(AttributeError):
            action()
    assert f.characteristic == 5
    assert (f.zero, f.one) == (0, 1) and type(f.one) is int
    q = Field(0)
    assert (q.zero, q.one) == (0, 1) and type(q.one) is Fraction and q.one is q.one


def test_graded_ring_value_semantics():
    ring = GradedRing(field=Field(5), variables=[("x", 2.0), ("y", 4)])
    assert ring.variables == (("x", 2), ("y", 4)) and isinstance(ring.variables, tuple)
    assert all(type(w) is int for _, w in ring.variables)
    assert all(type(w) is int for w in ring.weights) and ring.weights == (2, 4)
    assert ring.names == ("x", "y")
    assert repr(ring) == "GradedRing(field=Field(characteristic=5), variables=(('x', 2), ('y', 4)))"
    same = GradedRing(Field(5), (("x", 2), ("y", 4)))
    assert ring == same and hash(ring) == hash(same)
    assert hash(ring) == hash((Field(5), (("x", 2), ("y", 4))))
    assert ring != GradedRing(Field(0), (("x", 2), ("y", 4)))
    assert ring != (Field(5), (("x", 2), ("y", 4)))
    assert ring.__eq__(Field(5)) is NotImplemented
    for action in (lambda: setattr(ring, "field", Field(0)), lambda: setattr(ring, "names", ()),
                   lambda: setattr(ring, "other", 1), lambda: delattr(ring, "variables")):
        with pytest.raises(AttributeError):
            action()
    assert ring == same
