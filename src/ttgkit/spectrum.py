"""Certified homogeneous primes, residue-field objects, and supports.

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
from .modules import GradedModule, generic_rank, is_zero_localized
from .rings import GradedRing, require_homogeneous

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
    """A homogeneous prime with a regular-sequence and local-generation certificate."""

    __slots__ = ("name", "ideal", "sequence", "certificate", "status", "_seq_ideal",
                 "_residue")

    def __init__(self, name, ideal, sequence, certificate, status):
        self.name = name
        self.ideal = ideal
        self.sequence = tuple(sequence)
        self.certificate = certificate
        self.status = status
        self._seq_ideal = None
        self._residue = None

    @classmethod
    def create(cls, ring: GradedRing, name: str, generators, sequence,
               certificate=None) -> "PrimePoint":
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
        cert = ring.one() if certificate is None else certificate
        require_homogeneous(cert, f"prime {name} certificate")
        point = cls(name, ideal, seq, cert, DECLARED)
        if not check_local_generation(point):
            raise CertificateError(
                f"prime {name}: certificate {cert} does not witness local generation"
            )
        point.status = _primality_status(ideal)
        return point

    def seq_ideal(self) -> HomIdeal:
        if self._seq_ideal is None:
            self._seq_ideal = HomIdeal(self.ideal.ring, self.sequence)
        return self._seq_ideal

    def __repr__(self):
        return f"PrimePoint({self.name}: {self.ideal})"

    def to_json_dict(self):
        return {
            "name": self.name,
            "gens": [str(g) for g in self.ideal.generators],
            "seq": [str(f) for f in self.sequence],
            "cert": str(self.certificate),
            "status": self.status,
        }

    def ideal_display(self) -> str:
        inner = ", ".join(self.ideal.display_generators())
        return f"({inner})" if inner else "(0)"


def _primality_status(ideal: HomIdeal) -> str:
    """Machine-verifiable primality: monomial primes and low-degree principal ones.

    A reduced basis of distinct variables is prime structurally.  A single
    homogeneous generator of weighted degree below twice the least variable
    weight cannot split into two positive-degree homogeneous factors, so it
    is irreducible and generates a prime in this UFD.  Anything else stays
    declared and downstream results are conditional on the declaration.
    """
    basis = ideal.basis_polynomials()
    if all(len(g.terms) == 1 and sum(next(iter(g.terms))) == 1 for g in basis):
        return VERIFIED_MONOMIAL
    if len(basis) == 1:
        degree = basis[0].homogeneous_degree()
        if degree is not None and degree < 2 * min(ideal.ring.weights):
            return VERIFIED_PRINCIPAL
    return DECLARED


def check_local_generation(prime: PrimePoint) -> bool:
    """Certificate check: s outside p with s * (each generator) in the sequence ideal."""
    s = prime.certificate
    if prime.ideal.contains_poly(s):
        return False
    seq_ideal = prime.seq_ideal()
    return all(seq_ideal.contains_poly(s * g) for g in prime.ideal.generators)


class ResidueFieldObject:
    """The Koszul object of the unit on a prime's chosen regular sequence."""

    __slots__ = ("prime", "complex", "cohomology")

    def __init__(self, prime: PrimePoint, complex_: PerfectComplex,
                 cohomology_: GradedModule):
        self.prime = prime
        self.complex = complex_
        self.cohomology = cohomology_


def residue_field_object(prime: PrimePoint, ring: GradedRing = None) -> ResidueFieldObject:
    """Build K(p), compute its cohomology, and verify the residue contract.

    The cohomology must be annihilated by the prime and have generic rank one
    over R/p; a failure means the sequence does not present the residue field
    and is reported as an invalid certificate.
    """
    if prime._residue is not None:
        return prime._residue
    ring = ring or prime.ideal.ring
    complex_ = koszul_object(unit_complex(ring), prime.sequence)
    module = cohomology(complex_)
    for g in prime.ideal.generators:
        if module.unkilled_generator(g) is not None:
            raise CertificateError(
                f"prime {prime.name}: invalid certificate, {g} does not "
                f"annihilate the residue cohomology"
            )
    rank = generic_rank(module, prime)
    if rank != 1:
        raise CertificateError(
            f"prime {prime.name}: invalid certificate, residue cohomology has "
            f"generic rank {rank}"
        )
    prime._residue = ResidueFieldObject(prime, complex_, module)
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

    def __eq__(self, other):
        return (
            isinstance(other, SupportSet)
            and self.universe == other.universe
            and self.names() == other.names()
        )

    def __hash__(self):
        return hash((self.universe, self.names()))

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
