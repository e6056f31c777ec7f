"""Exact coefficient arithmetic over the rationals or a prime field.

No floating point appears anywhere in the package; rationals are Fraction
values in lowest terms, prime-field elements are ints stored as symmetric
representatives in [-(p-1)/2, (p-1)/2].  These are the values of polynomials
and of every vector that enters or leaves the Groebner engine.  Inside it
(`groebner.py`) no `Field` method runs: coefficients there are plain ints,
integral over Q and residues in [0, p) over F_p.
"""

from fractions import Fraction

from .errors import InputError, frozen_attribute


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
MAX_CHARACTERISTIC = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < MAX_CHARACTERISTIC."""
    if n >= MAX_CHARACTERISTIC:
        raise InputError(
            f"characteristic {n} exceeds the supported cap {MAX_CHARACTERISTIC}"
        )
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The ground field: Q for characteristic 0, F_p for prime p.

    An immutable value: equality and hash are those of the tuple
    (characteristic,); `zero` and `one` are stored with it.
    """

    __slots__ = ("characteristic", "zero", "one")
    __setattr__ = __delattr__ = frozen_attribute

    def __init__(self, characteristic: int = 0):
        c = characteristic
        if c < 0:
            raise InputError(f"negative characteristic {c}")
        if c != 0 and not _is_prime(c):
            raise InputError(f"characteristic {c} is not prime")
        object.__setattr__(self, "characteristic", c)
        object.__setattr__(self, "zero", Fraction(0) if c == 0 else 0)
        object.__setattr__(self, "one", Fraction(1) if c == 0 else 1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.characteristic == other.characteristic

    def __hash__(self):
        return hash((self.characteristic,))

    def __repr__(self):
        return f"Field(characteristic={self.characteristic!r})"

    def coerce(self, value):
        """Normalize an int/Fraction into this field's canonical form."""
        if self.characteristic == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % self.characteristic == 0:
                raise InputError(
                    f"denominator {value.denominator} not invertible mod {self.characteristic}"
                )
            return self.mul(self._sym(value.numerator), self.inv(self._sym(value.denominator)))
        return self._sym(int(value))

    def _sym(self, n: int) -> int:
        p = self.characteristic
        h = (p - 1) // 2
        return (n + h) % p - h

    def add(self, a, b):
        return a + b if self.characteristic == 0 else self._sym(a + b)

    def sub(self, a, b):
        return a - b if self.characteristic == 0 else self._sym(a - b)

    def mul(self, a, b):
        return a * b if self.characteristic == 0 else self._sym(a * b)

    def neg(self, a):
        return -a if self.characteristic == 0 else self._sym(-a)

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.characteristic == 0:
            return 1 / Fraction(a)
        return self._sym(pow(int(a) % self.characteristic, -1, self.characteristic))
