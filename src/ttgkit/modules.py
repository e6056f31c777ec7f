"""Finitely presented graded modules: annihilators, Hilbert data, local tests.

Module invariants are computed on a core presentation: the isomorphic module
obtained by cancelling every relation that has a unit (degree-0, hence
constant) entry against that generator, as in Macaulay2's `prune`.  The
annihilator of a core with k generators is one colon (`groebner.colon`):
(N^k : sum_i e_i^(i)) in k twisted copies of the free module, read off a
single completion with one tag position (elimination; Eisenbud, Commutative
Algebra, section 15.10).  The Hilbert function counts the standard monomials
of the core.

Localization at a prime is never materialized: every p-local statement is
reduced to a rank over the fraction field Frac(R/p) of the quotient domain.
Vanishing at p is decided by Nakayama's lemma, as full rank of the relation
matrix reduced mod p, on the given presentation.  The annihilator decides the
same question by ideal containment; it is kept as the independent referee of
the rank route.  Both reductions are valid because all modules produced here
are finitely generated.
"""

from .errors import HomogeneityError, InputError, frozen_attribute
from .groebner import FreeContext, HomIdeal, SubmoduleBasis, colon, poly_to_vec, row_to_vec
from .rings import GradedRing, Polynomial


class GradedDimensionTable:
    """Exact dimensions over an explicit degree window.

    Degrees outside [lo, hi] were not queried and must not be assumed zero.
    An immutable value: equality and hash are those of (lo, hi, dims).
    """

    __slots__ = ("lo", "hi", "dims")
    __setattr__ = __delattr__ = frozen_attribute

    def __init__(self, lo: int, hi: int, dims: tuple):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dims", tuple(dims))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi, self.dims) == (other.lo, other.hi, other.dims)

    def __hash__(self):
        return hash((self.lo, self.hi, self.dims))

    def __repr__(self):
        return f"GradedDimensionTable(lo={self.lo!r}, hi={self.hi!r}, dims={self.dims!r})"

    def dimension(self, degree: int) -> int:
        if not self.lo <= degree <= self.hi:
            raise InputError(f"degree {degree} outside probed window [{self.lo}, {self.hi}]")
        return self.dims[degree - self.lo]

    def to_json_dict(self):
        return {"lo": self.lo, "hi": self.hi, "dims": list(self.dims)}


class GradedModule:
    """A graded module given by generator degrees and homogeneous relations.

    Presentations may be non-minimal; construction only canonicalizes by
    dropping zero and duplicate relation columns.  `core()` is the lazily
    cached isomorphic presentation without unit entries; `annihilator()` (one
    colon over N^k) and `hilbert_dimension()` read it, while the
    presentation-indexed queries (`unkilled_generator`, `transporters`, one
    colon per generator, and the localization rank) keep the given generators.
    """

    __slots__ = ("ring", "gens", "relations", "_rel_basis", "_core", "_annihilator")

    def __init__(self, ring: GradedRing, gens, relations=()):
        self.ring = ring
        self.gens = tuple(int(d) for d in gens)
        cols = []
        seen = set()
        for col in relations:
            entries = dict(col)
            entries = {i: p for i, p in entries.items() if not p.is_zero()}
            if not entries:
                continue
            degree = None
            for i, p in entries.items():
                if p.ring != ring:
                    raise InputError("relation entry from a different ring")
                if not (0 <= i < len(self.gens)):
                    raise InputError(f"relation entry index {i} out of range")
                d = p.homogeneous_degree()
                if d is None:
                    raise HomogeneityError(f"relation entry {p} is not homogeneous")
                total = d + self.gens[i]
                if degree is None:
                    degree = total
                elif degree != total:
                    raise HomogeneityError(
                        f"relation column mixes degrees {degree} and {total}"
                    )
            canon = tuple(sorted(entries.items(), key=lambda t: t[0]))
            if canon not in seen:
                seen.add(canon)
                cols.append(canon)
        self.relations = tuple(cols)
        self._rel_basis = None
        self._core = None
        self._annihilator = None

    # -- presentation plumbing ------------------------------------------------

    def relation_vectors(self):
        return [row_to_vec(col) for col in self.relations]

    def relation_degrees(self):
        out = []
        for col in self.relations:
            i, p = col[0]
            out.append(p.homogeneous_degree() + self.gens[i])
        return out

    def rel_basis(self) -> SubmoduleBasis:
        if self._rel_basis is None:
            ctx = FreeContext(self.ring, self.gens)
            self._rel_basis = SubmoduleBasis.generate(self.relation_vectors(), ctx)
        return self._rel_basis

    def core(self) -> "GradedModule":
        """An isomorphic presentation with no unit entry; self if there was none."""
        if self._core is None:
            self._core = _cancel_units(self)
            self._core._core = self._core
        return self._core

    def __repr__(self):
        return f"GradedModule(gens={self.gens}, relations={len(self.relations)})"

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.unkilled_generator(self.ring.one()) is None

    def unkilled_generator(self, f: Polynomial):
        """Index of the first generator e_i with f * e_i outside the relation span.

        None when f kills every generator, that is when f annihilates M.
        """
        if not self.gens:
            return None
        basis = self.rel_basis()
        for i in range(len(self.gens)):
            if not basis.contains(poly_to_vec(f, i)):
                return i
        return None

    def transporters(self):
        """(relations : e_i) for each generator of the given presentation."""
        basis = self.rel_basis()
        one = self.ring.one()
        return tuple(
            colon(basis.elements, poly_to_vec(one, i), basis.ctx) for i in range(len(self.gens))
        )

    def annihilator(self) -> HomIdeal:
        """Ann M as one colon (N^k : sum_i e_i^(i)) over the core's k generators.

        Copy i of F^k carries the core's reduced relation basis, twisted by
        -deg e_i, so every diagonal entry e_i^(i) has degree 0; f kills the
        diagonal modulo N^k exactly when f kills every generator modulo N.
        """
        if self._annihilator is None:
            core = self.core()
            k = len(core.gens)
            if not k:
                self._annihilator = HomIdeal(self.ring, [self.ring.one()])
            else:
                degrees = tuple(d - shift for shift in core.gens for d in core.gens)
                relations = core.rel_basis().elements
                rows = [
                    {(i * k + j, e): c for (j, e), c in v.items()}
                    for i in range(k)
                    for v in relations
                ]
                diagonal = row_to_vec((i * k + i, self.ring.one()) for i in range(k))
                self._annihilator = colon(rows, diagonal, FreeContext(self.ring, degrees))
        return self._annihilator

    def hilbert_dimension(self, degree: int) -> int:
        """Exact k-dimension of the degree component, via standard monomials of the core."""
        return self.core().rel_basis().standard_monomial_count(degree)

    def dimension_table(self, lo: int, hi: int) -> GradedDimensionTable:
        return GradedDimensionTable(
            lo, hi, tuple(self.hilbert_dimension(d) for d in range(lo, hi + 1))
        )

    def to_json_dict(self):
        matrix = []
        for col in self.relations:
            entries = dict(col)
            matrix.append(
                [str(entries.get(i, self.ring.zero())) for i in range(len(self.gens))]
            )
        return {"gens": list(self.gens), "relations": matrix}


def _cancel_units(module: GradedModule) -> GradedModule:
    """Cancel unit entries, one relation column and one generator at a time.

    The pivot is the first column r with a unit entry, at its lowest such
    generator j, with constant c.  Every other column s with s_j != 0 becomes
    s - (s_j/c) r, which keeps the relation span and clears s_j; then e_j is
    a combination of the other generators modulo r, so generator j and
    column r drop out.  Weights are positive, so unit entries are exactly
    the constant ones.
    """
    ring = module.ring
    field = ring.field
    unit = (0,) * ring.nvars
    alive = list(range(len(module.gens)))
    cols = [dict(col) for col in module.relations]

    def pivot():
        for r, col in enumerate(cols):
            units = [i for i, p in col.items() if unit in p.terms]
            if units:
                return r, min(units)
        return None

    while (found := pivot()) is not None:
        r, j = found
        col = cols.pop(r)
        scale = field.neg(field.inv(col[j].terms[unit]))
        for s in cols:
            sj = s.get(j)
            if sj is None:
                continue
            factor = sj.scale(scale)
            for i, p in col.items():
                q = s[i] + factor * p if i in s else factor * p
                if q.is_zero():
                    del s[i]
                else:
                    s[i] = q
        alive.remove(j)
    if len(alive) == len(module.gens):
        return module
    position = {old: new for new, old in enumerate(alive)}
    return GradedModule(
        ring,
        [module.gens[i] for i in alive],
        [{position[i]: p for i, p in s.items()} for s in cols],
    )


def quotient_module(ring: GradedRing, ideal: HomIdeal) -> GradedModule:
    """R/I as a cyclic module generated in degree zero."""
    return GradedModule(ring, (0,), [{0: g} for g in ideal.generators])


def is_zero_localized(module: GradedModule, prime) -> bool:
    """True iff the localization M_p vanishes.

    For finitely generated M, Nakayama's lemma over the local ring R_p gives
    M_p = 0 iff M (x) k(p) = 0, where k(p) = Frac(R/p).  That tensor is the
    cokernel of the relation matrix reduced mod p, so it vanishes exactly
    when the reduced matrix has rank len(gens) over Frac(R/p).  No
    annihilation by p is assumed.  The annihilator route (Ann M contained in
    p, see `spectrum.module_supported_primes`) is the independent referee.
    """
    if len(module.relations) < len(module.gens):
        return False
    return len(pivot_columns(module.relations, len(module.gens), prime)) == len(module.gens)


def _require_annihilated(module: GradedModule, prime) -> None:
    for g in prime.ideal.generators:
        i = module.unkilled_generator(g)
        if i is not None:
            raise InputError(
                f"module is not annihilated by {prime.name}: generator {g} "
                f"does not kill module generator {i}"
            )


def pivot_columns(rows, ncols: int, prime):
    """Pivot column indices of a matrix over the domain R/p, in increasing order.

    Each row is an iterable of (column, polynomial) pairs, so module relation
    columns and complex rows both fit.  Entries are reduced to normal forms
    modulo the prime; fraction-free elimination then combines rows by
    cross-multiplication and re-reduces, so every zero test is exact.
    """
    normal_form = prime.ideal.normal_form
    zero = prime.ideal.ring.zero()
    active = []
    for row in rows:
        reduced = {i: nf for i, p in row if not (nf := normal_form(p)).is_zero()}
        if reduced:
            active.append(reduced)
    pivots = []
    for j in range(ncols):
        pivot_row = None
        for r in active:
            if j in r:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        pivots.append(j)
        active.remove(pivot_row)
        pj = pivot_row[j]
        new_active = []
        for r in active:
            if j not in r:
                new_active.append(r)
                continue
            rj = r[j]
            combined = {}
            for i, p in r.items():
                combined[i] = p * pj
            for i, p in pivot_row.items():
                combined[i] = combined.get(i, zero) - p * rj
            combined = {i: normal_form(p) for i, p in combined.items()}
            combined = {i: p for i, p in combined.items() if not p.is_zero()}
            if combined:
                new_active.append(combined)
        active = new_active
    return pivots


def generic_rank(module: GradedModule, prime) -> int:
    """Rank of a p-annihilated module over the quotient domain R/p."""
    _require_annihilated(module, prime)
    return len(module.gens) - len(pivot_columns(module.relations, len(module.gens), prime))


def local_shift_multiset(module: GradedModule, prime):
    """Degrees of a homogeneous basis of the module after inverting R minus p.

    The module must be p-annihilated; over the graded field of fractions of
    R/p it is automatically free, and the returned multiset lists the
    generator degrees of the shifted copies for the deterministic basis
    chosen by elimination (the non-pivot presentation generators).
    """
    _require_annihilated(module, prime)
    pivots = set(pivot_columns(module.relations, len(module.gens), prime))
    return sorted(module.gens[i] for i in range(len(module.gens)) if i not in pivots)

