"""Checked homogeneous primes, residue-field objects, and supports.

Spec R is never enumerated: every support statement is relative to a declared
catalogue of primes.  A p-local vanishing statement is decided by Nakayama's
lemma, as full rank of the cohomology's relation matrix over Frac(R/p)
(`modules.is_zero_localized`).  The annihilator route, Ann M contained in p
(`module_supported_primes`), answers the same question independently and is
kept as the referee of the rank route.
"""

from .complexes import PerfectComplex, cohomology, koszul_object, tensor, unit_complex
from .errors import CertificateError, InputError
from .groebner import HomIdeal, ideal_quotient
from .modules import GradedModule, is_zero_localized
from .rings import GradedRing, Polynomial, require_homogeneous

VERIFIED_MONOMIAL = "verified-monomial"
VERIFIED_PRINCIPAL = "verified-principal"
DECLARED = "declared"


def check_regular_sequence(ring: GradedRing, sequence) -> bool:
    """True iff each element is a nonzero non-zero-divisor modulo its predecessors.

    The ring is a domain, so the first condition is nonvanishing; the i-th
    step checks the transporter ((f_1..f_{i-1}) : f_i) adds nothing new.
    Global regularity suffices locally because localization preserves
    injectivity of multiplication maps.
    """
    for f in sequence:
        if f.ring != ring:
            raise InputError("sequence element from a different ring")
        require_homogeneous(f, "sequence element")
    prefix = []
    for f in sequence:
        if f.is_zero():
            return False
        ideal = HomIdeal(ring, prefix)
        transporter = ideal_quotient(ideal, f)
        if not ideal.contains_ideal(transporter):
            return False
        prefix.append(f)
    return True


class PrimePoint:
    """A homogeneous prime with a regular sequence that generates it."""

    __slots__ = ("name", "ideal", "sequence", "status", "_residue")

    def __init__(self, name, ideal, sequence, status):
        self.name = name
        self.ideal = ideal
        self.sequence = tuple(sequence)
        self.status = status
        self._residue = None

    @classmethod
    def create(cls, ring: GradedRing, name: str, generators, sequence) -> "PrimePoint":
        """Check the prime contract: (seq) = p for a regular sequence seq.

        For a regular sequence H*(K(seq)) = R/(seq), so K(seq) is a residue
        object of p only when the sequence generates p.
        """
        gens = list(generators)
        for g in gens:
            if g.is_zero():
                raise InputError(f"prime {name}: zero generator")
            require_homogeneous(g, f"prime {name} generator")
            if g.homogeneous_degree() == 0:
                raise InputError(f"prime {name}: unit generator {g}")
        ideal = HomIdeal(ring, gens)
        seq = tuple(sequence)
        for f in seq:
            if not ideal.contains_poly(f):
                raise CertificateError(
                    f"prime {name}: sequence element {f} is not in the ideal"
                )
        if not check_regular_sequence(ring, seq):
            raise CertificateError(f"prime {name}: sequence is not regular")
        seq_ideal = HomIdeal(ring, seq)
        missing = next((g for g in ideal.generators if not seq_ideal.contains_poly(g)),
                       None)
        if missing is not None:
            raise CertificateError(f"prime {name}: the sequence does not generate "
                                   f"the prime: {missing} is not in {seq_ideal!r}")
        return cls(name, ideal, seq, _primality_status(name, ideal))

    def __repr__(self):
        return f"PrimePoint({self.name}: {self.ideal})"

    def to_json_dict(self):
        return {
            "name": self.name,
            "gens": [str(g) for g in self.ideal.generators],
            "seq": [str(f) for f in self.sequence],
            "status": self.status,
        }

    def ideal_display(self) -> str:
        inner = ", ".join(self.ideal.display_generators())
        return f"({inner})" if inner else "(0)"


def _primality_status(name: str, ideal: HomIdeal) -> str:
    """Machine-verifiable primality: monomial primes and low-degree principal ones.

    A reduced basis of distinct variables is prime structurally.  A single
    homogeneous generator of weighted degree below twice the least variable
    weight cannot split into two positive-degree homogeneous factors, so it
    is irreducible and generates a prime in this UFD.  Anything else stays
    declared and downstream results are conditional on the declaration.

    When the reduced basis is all monomials or a single element, a basis
    element g divisible by a variable x, other than x itself, is a product
    x * (g/x); if neither factor lies in the ideal, it is not prime.  Over F_p
    a single basis element whose exponents are all divisible by p is h^p,
    where h takes the p-th root of each monomial (every c in F_p has c^p = c),
    so it is the product h * h^(p-1) of two factors of lower degree.
    """
    ring = ideal.ring
    basis = ideal.basis_polynomials()
    monomial = all(len(g.terms) == 1 for g in basis)
    for g in basis if monomial or len(basis) == 1 else ():
        for i, x in enumerate(ring.names):
            if not all(e[i] for e in g.terms):
                continue
            var = ring.variable(x)
            rest = Polynomial(ring, {e[:i] + (e[i] - 1,) + e[i + 1:]: c
                                     for e, c in g.terms.items()})
            if g != var and not ideal.contains_poly(var) and not ideal.contains_poly(rest):
                shown = f"({rest})" if len(rest.terms) > 1 else str(rest)
                factors = x if rest == var else f"{x} or {rest}"
                raise InputError(f"prime {name}: not a prime ideal: it contains "
                                 f"{x}*{shown} but not {factors}")
    char = ring.field.characteristic
    if char and len(basis) == 1 and all(k % char == 0 for e in basis[0].terms for k in e):
        h = Polynomial(ring, {tuple(k // char for k in e): c for e, c in basis[0].terms.items()})
        other = f"({h})" if char == 2 else f"({h})^{char - 1}"
        factors = h if char == 2 else f"{h} or {other}"
        raise InputError(f"prime {name}: not a prime ideal: it contains "
                         f"({h})*{other} but not {factors}")
    if monomial and all(sum(next(iter(g.terms))) == 1 for g in basis):
        return VERIFIED_MONOMIAL
    if len(basis) == 1:
        degree = basis[0].homogeneous_degree()
        if degree is not None and degree < 2 * min(ring.weights):
            return VERIFIED_PRINCIPAL
    return DECLARED


class ResidueFieldObject:
    """The Koszul object of the unit on a prime's chosen regular sequence."""

    __slots__ = ("complex", "cohomology")

    def __init__(self, complex_: PerfectComplex, cohomology_: GradedModule):
        self.complex = complex_
        self.cohomology = cohomology_


def residue_field_object(prime: PrimePoint) -> ResidueFieldObject:
    """K(p) and its cohomology, built once per prime.

    `PrimePoint.create` checked that the sequence is regular and generates p,
    so the cohomology is R/p: annihilated by p and of generic rank one over
    R/p.  The residue-cohomology suite checks both.
    """
    if prime._residue is None:
        complex_ = koszul_object(unit_complex(prime.ideal.ring), prime.sequence)
        prime._residue = ResidueFieldObject(complex_, cohomology(complex_))
    return prime._residue


class SupportSet:
    """A finite union of closed sets V(p), stored as the antichain of minimal members."""

    __slots__ = ("universe", "members")

    def __init__(self, universe, members):
        self.universe = tuple(universe)
        self.members = tuple(members)

    @classmethod
    def from_members(cls, members, universe) -> "SupportSet":
        members = sorted(set(members), key=lambda p: p.name)
        minimal = []
        for p in members:
            redundant = False
            for q in members:
                if q is p:
                    continue
                if p.ideal.contains_ideal(q.ideal):
                    if not q.ideal.contains_ideal(p.ideal) or q.name < p.name:
                        redundant = True
                        break
            if not redundant:
                minimal.append(p)
        return cls(universe, minimal)

    def names(self):
        return tuple(p.name for p in self.members)

    def ideal_strings(self):
        return tuple(p.ideal_display() for p in self.members)

    def is_empty(self) -> bool:
        return not self.members

    def __repr__(self):
        return f"SupportSet{self.names()}"


def support_contains(outer: SupportSet, inner: SupportSet) -> bool:
    """True iff every closed set of `inner` lies in the union for `outer`."""
    if outer.universe != inner.universe:
        raise InputError("support sets over different catalogues")
    for q in inner.members:
        if not any(q.ideal.contains_ideal(p.ideal) for p in outer.members):
            return False
    return True


def _universe_token(primes):
    return tuple(sorted(p.name for p in primes))


def module_supported_primes(module: GradedModule, primes):
    """Raw pointwise support: catalogue primes where the localization is nonzero.

    Decided by Ann M contained in p, independently of the rank test in
    `is_zero_localized`; the supp-agreement suite compares the two routes.
    """
    annihilator = module.annihilator()
    return [p for p in primes if p.ideal.contains_ideal(annihilator)]


def support_of_module(module: GradedModule, primes) -> SupportSet:
    members = module_supported_primes(module, primes)
    return SupportSet.from_members(members, _universe_token(primes))


def residue_supported_primes(complex_: PerfectComplex, primes):
    """Raw pointwise support through residue objects.

    Membership at p is decided after localization: the cohomology of the
    tensor with K(p) survives at p exactly when, by Nakayama's lemma, its
    relation matrix reduced mod p has less than full rank over Frac(R/p).
    `module_supported_primes` on the plain cohomology is the annihilator
    referee of this route.
    """
    members = []
    for p in primes:
        residue = residue_field_object(p)
        module = cohomology(tensor(complex_, residue.complex))
        if not is_zero_localized(module, p):
            members.append(p)
    return members


def supp_via_residue(complex_: PerfectComplex, primes) -> SupportSet:
    members = residue_supported_primes(complex_, primes)
    return SupportSet.from_members(members, _universe_token(primes))
