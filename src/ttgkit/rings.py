"""Weighted graded polynomial rings and sparse exact polynomials.

A ring is Q or F_p adjoined finitely many variables with positive even
weights.  The fixed monomial order is graded reverse lexicographic, refined
by total weighted degree.  Polynomials are immutable sparse term maps.
"""

import re
from fractions import Fraction
from functools import lru_cache

from .errors import HomogeneityError, InputError, frozen_attribute
from .fields import Field

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class GradedRing:
    """A field adjoined variables with positive even weights.

    An immutable value: equality and hash are those of the tuple
    (field, variables), with every weight normalized to int.
    """

    __slots__ = ("field", "variables", "names", "weights")
    __setattr__ = __delattr__ = frozen_attribute

    def __init__(self, field: Field, variables):
        names = [n for n, _ in variables]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate variable names in {names}")
        for name, weight in variables:
            if not _IDENT.fullmatch(name):
                raise InputError(f"bad variable name {name!r}")
            if weight <= 0:
                raise InputError(
                    f"nonpositive weight unsupported: variable {name} has weight {weight}"
                )
            if weight % 2 != 0:
                raise InputError(f"odd weight unsupported: variable {name} has weight {weight}")
        variables = tuple((n, int(w)) for n, w in variables)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "variables", variables)  # ordered (name, weight) pairs
        object.__setattr__(self, "names", tuple(n for n, _ in variables))
        object.__setattr__(self, "weights", tuple(w for _, w in variables))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.variables) == (other.field, other.variables)

    def __hash__(self):
        return hash((self.field, self.variables))

    def __repr__(self):
        return f"GradedRing(field={self.field!r}, variables={self.variables!r})"

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def max_weight(self) -> int:
        return max(self.weights) if self.variables else 2

    def weighted_degree(self, expt) -> int:
        return sum(w * e for w, e in zip(self.weights, expt))

    def monomial_key(self, expt):
        """Sort key realizing weighted grevlex: bigger key = bigger monomial."""
        return (self.weighted_degree(expt), tuple(-e for e in reversed(expt)))

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def constant(self, value):
        c = self.field.coerce(value)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def variable(self, name) -> "Polynomial":
        try:
            i = self.names.index(name)
        except ValueError:
            raise InputError(f"unknown variable {name!r}") from None
        expt = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial(self, {expt: self.field.one})

    def from_terms(self, terms) -> "Polynomial":
        out = {}
        for expt, coeff in terms.items():
            c = self.field.coerce(coeff)
            if c != 0:
                out[tuple(expt)] = c
        return Polynomial(self, out)

    def monomials_of_weight(self, degree: int):
        return _monomials_of_weight(self.weights, degree)

    def parse(self, text: str) -> "Polynomial":
        return parse_polynomial(self, text)

    def to_json_dict(self):
        return {
            "char": self.field.characteristic,
            "vars": [{"name": n, "degree": w} for n, w in self.variables],
        }


@lru_cache(maxsize=None)
def _monomials_of_weight(weights, degree):
    """All exponent tuples of the given total weighted degree."""
    if degree < 0:
        return ()
    if not weights:
        return ((),) if degree == 0 else ()
    out = []
    w = weights[0]
    for e in range(degree // w + 1):
        for rest in _monomials_of_weight(weights[1:], degree - e * w):
            out.append((e,) + rest)
    return tuple(out)


class Polynomial:
    """Immutable sparse polynomial: dict from exponent tuple to coefficient."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._hash = None

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degs = {self.ring.weighted_degree(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_degree(self):
        """Weighted degree if homogeneous and nonzero, else None."""
        degs = {self.ring.weighted_degree(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def lead(self):
        """(exponent, coefficient) of the leading term; None for zero."""
        if not self.terms:
            return None
        expt = max(self.terms, key=self.ring.monomial_key)
        return expt, self.terms[expt]

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise InputError("polynomial ring mismatch")

    def __add__(self, other):
        self._check_ring(other)
        f = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(out.get(e, f.zero), c)
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Polynomial(self.ring, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        f = self.ring.field
        return Polynomial(self.ring, {e: f.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_ring(other)
        f = self.ring.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(out.get(e, f.zero), f.mul(c1, c2))
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def scale(self, value):
        c = self.ring.field.coerce(value)
        if c == 0:
            return self.ring.zero()
        f = self.ring.field
        return Polynomial(self.ring, {e: f.mul(c, v) for e, v in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


def require_homogeneous(p: Polynomial, where: str = "polynomial") -> None:
    if not p.is_homogeneous():
        raise HomogeneityError(f"{where} is not homogeneous: {p}")


# --- text grammar -----------------------------------------------------------
#
#   poly    := [sign] term (sign term)*          sign := '+' | '-'
#   term    := coeff ['*' factors] | factors
#   factors := factor ('*' factor)*
#   factor  := variable ['^' nat]
#   coeff   := nat ['/' nat]
#
# Whitespace is ignored.  Variables must be declared in the ring.

_SPACE = re.compile(r"\s*")
_TOKEN = re.compile(r"(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[+\-*/^])")


def _tokenize(text: str):
    """(kind, value, start) triples; start is the token's own 0-based column."""
    tokens = []
    pos = _SPACE.match(text).end()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise InputError(f"unexpected character {text[pos]!r} at column {pos + 1}")
        kind, value = m.lastgroup, m.group()
        if kind == "num":
            try:
                value = int(value)
            except ValueError:  # past the interpreter's integer-string digit limit
                raise InputError(f"number too long at column {pos + 1}") from None
        tokens.append((kind, value, pos))
        pos = _SPACE.match(text, m.end()).end()
    return tokens


def parse_polynomial(ring: GradedRing, text: str) -> Polynomial:
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty polynomial text")
    f = ring.field
    names = ring.names
    terms = {}
    i = 0
    n = len(tokens)

    def fail(msg, tok=None):
        col = (tok[2] + 1) if tok else len(text)
        raise InputError(f"{msg} at column {col} in {text!r}")

    while i < n:
        sign = 1
        while i < n and tokens[i][0] == "op" and tokens[i][1] in "+-":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n:
            fail("dangling sign")
        coeff = Fraction(sign)
        expt = [0] * ring.nvars
        saw_factor = False
        expect_factor = True
        while i < n:
            kind, val, _ = tokens[i]
            if kind == "num":
                if saw_factor:
                    fail("coefficient must precede variables", tokens[i])
                num = val
                i += 1
                if i < n and tokens[i][0] == "op" and tokens[i][1] == "/":
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        fail("expected denominator", tokens[i - 1])
                    den = tokens[i][1]
                    if den == 0:
                        fail("zero denominator", tokens[i])
                    i += 1
                    coeff *= Fraction(num, den)
                else:
                    coeff *= num
                saw_factor = True
                expect_factor = False
            elif kind == "name":
                if val not in names:
                    fail(f"undeclared variable {val!r}", tokens[i])
                idx = names.index(val)
                i += 1
                power = 1
                if i < n and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        fail("expected exponent", tokens[i - 1])
                    power = tokens[i][1]
                    i += 1
                expt[idx] += power
                saw_factor = True
                expect_factor = False
            else:
                break
            if i < n and tokens[i][0] == "op" and tokens[i][1] == "*":
                i += 1
                expect_factor = True
                continue
            break
        if expect_factor and not saw_factor:
            fail("expected a term", tokens[i] if i < n else None)
        if expect_factor and saw_factor:
            fail("dangling '*'", tokens[i - 1])
        key = tuple(expt)
        c = f.add(f.coerce(terms.get(key, 0)), f.coerce(coeff))
        if c == 0:
            terms.pop(key, None)
        else:
            terms[key] = c
        if i < n and not (tokens[i][0] == "op" and tokens[i][1] in "+-"):
            fail("expected '+' or '-'", tokens[i])
    return Polynomial(ring, terms)


def format_polynomial(p: Polynomial) -> str:
    """Canonical compact rendering, parseable by parse_polynomial."""
    if p.is_zero():
        return "0"
    ring = p.ring
    parts = []
    for expt in sorted(p.terms, key=ring.monomial_key, reverse=True):
        coeff = p.terms[expt]
        factors = []
        for name, e in zip(ring.names, expt):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        neg = coeff < 0
        mag = -coeff if neg else coeff
        if not factors:
            body = _coeff_str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([_coeff_str(mag)] + factors)
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("-" if neg else "+") + body)
    return "".join(parts)


def _coeff_str(c) -> str:
    if isinstance(c, Fraction) and c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(int(c))


def clear_denominators(p: Polynomial) -> Polynomial:
    """Scale to primitive integer content with positive leading coefficient.

    Identity on prime fields.  Used for display of ideal generators; the
    scaled polynomial generates the same ideal.
    """
    if p.is_zero() or p.ring.field.characteristic != 0:
        return p
    from math import gcd

    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    nums = [int(c * den) for c in p.terms.values()]
    g = 0
    for v in nums:
        g = gcd(g, abs(v))
    scale = Fraction(den, g if g else 1)
    _, lc = p.lead()
    if lc * scale < 0:
        scale = -scale
    return p.scale(scale)
