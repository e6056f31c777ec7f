"""Finitely presented graded modules: annihilators, Hilbert data, local tests.

Every module is stored in one presentation with no unit entry: construction
cancels each relation that has a unit (degree-0, hence constant) entry
against that generator, as Macaulay2's `prune` does.  Weights are positive,
so R_0 is the field, and by the graded Nakayama lemma the generators left
are a minimal set; the module is zero exactly when there are none.  The
annihilator of a module with k generators is one colon (`groebner.colon`)
of the k pairs (N, e_i), the intersection of the (N : e_i), which `colon`
reads off a single completion over k stacked copies of the free module
(elimination; Eisenbud, Commutative Algebra, section 15.10); the reduced
relation basis N is already a Groebner basis of each copy, so the colon
keeps it as given.  The Hilbert function is read off one numerator per
module, computed from the stored leads of that basis (Bayer and Stillman,
J. Symb. Comp. 14, 1992).

Localization at a prime is never materialized: every p-local statement is
reduced to a rank over the fraction field Frac(R/p) of the quotient domain.
Vanishing at p is decided by Nakayama's lemma, as full rank of the relation
matrix reduced mod p.  The annihilator decides the same question by ideal
containment; it is kept as the independent referee of the rank route.  Both
reductions are valid because all modules produced here are finitely
generated.
"""

from functools import lru_cache

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

    Construction validates each relation column, cancels every unit entry
    (`_cancel_units`), then drops zero and duplicate columns.  Only the
    result is stored, so no relation entry is a unit, the generators are
    minimal, and every query reads that one presentation.
    """

    __slots__ = ("ring", "gens", "relations", "_rel_basis", "_annihilator", "_numerator")

    def __init__(self, ring: GradedRing, gens, relations=()):
        gens = tuple(int(d) for d in gens)
        cols = []
        for col in relations:
            entries = {i: p for i, p in dict(col).items() if not p.is_zero()}
            degree = None
            for i, p in entries.items():
                if p.ring != ring:
                    raise InputError("relation entry from a different ring")
                if not (0 <= i < len(gens)):
                    raise InputError(f"relation entry index {i} out of range")
                d = p.homogeneous_degree()
                if d is None:
                    raise HomogeneityError(f"relation entry {p} is not homogeneous")
                total = d + gens[i]
                if degree is None:
                    degree = total
                elif degree != total:
                    raise HomogeneityError(
                        f"relation column mixes degrees {degree} and {total}"
                    )
            cols.append(entries)
        gens, cols = _cancel_units(ring, gens, cols)
        canon = (tuple(sorted(col.items(), key=lambda t: t[0])) for col in cols if col)
        self.ring = ring
        self.gens = gens
        self.relations = tuple(dict.fromkeys(canon))
        self._rel_basis = None
        self._annihilator = None
        self._numerator = None

    # -- presentation plumbing ------------------------------------------------

    def rel_basis(self) -> SubmoduleBasis:
        if self._rel_basis is None:
            ctx = FreeContext(self.ring, self.gens)
            vectors = [row_to_vec(col) for col in self.relations]
            self._rel_basis = SubmoduleBasis.generate(vectors, ctx)
        return self._rel_basis

    def __repr__(self):
        return f"GradedModule(gens={self.gens}, relations={len(self.relations)})"

    # -- queries ---------------------------------------------------------------

    def is_zero(self) -> bool:
        """The stored generators are minimal, so M = 0 exactly when there are none."""
        return not self.gens

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
        """(relations : e_i) for each generator e_i."""
        basis = self.rel_basis()
        one = self.ring.one()
        return tuple(colon([(basis, poly_to_vec(one, i))]) for i in range(len(self.gens)))

    def annihilator(self) -> HomIdeal:
        """Ann M as one colon: f kills M exactly when every f * e_i lies in the
        relation span N, so Ann M is the intersection of the (N : e_i)."""
        if self._annihilator is None:
            one = self.ring.one()
            pairs = [(self.rel_basis(), poly_to_vec(one, i)) for i in range(len(self.gens))]
            self._annihilator = colon(pairs) if pairs else HomIdeal(self.ring, [one])
        return self._annihilator

    def hilbert_dimension(self, degree: int) -> int:
        """Exact k-dimension of the degree component, read off the Hilbert numerator.

        The standard monomials at position i are those outside the lead
        ideal L_i, so the Hilbert series is sum_i t^(deg e_i) K(R/L_i) over
        prod_j (1 - t^(w_j)), with K the numerator of `_monomial_numerator`.
        It is computed once per module; a degree then costs one monomial
        count per numerator term.
        """
        if self._numerator is None:
            leads = {}
            for pos, expt in self.rel_basis().leads:
                leads.setdefault(pos, []).append(expt)
            numerator = {}
            for pos, shift in enumerate(self.gens):
                for d, c in _monomial_numerator(self.ring.weights,
                                                 leads.get(pos, [])).items():
                    numerator[d + shift] = numerator.get(d + shift, 0) + c
            self._numerator = tuple((d, c) for d, c in sorted(numerator.items()) if c)
        weights = self.ring.weights
        return sum(c * _monomial_count(weights, degree - d) for d, c in self._numerator)

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


def _monomial_numerator(weights, monomials):
    """K-polynomial of R/(monomials) as {degree: coefficient}.

    The Hilbert series of R/L is K(R/L) / prod_j (1 - t^(w_j)).  Adding the
    generators m_1, ..., m_r in lex order, each step is K(I + (m)) = K(I) -
    t^(deg m) K(I : m) (Bayer and Stillman, "Computation of Hilbert
    functions", J. Symb. Comp. 14, 1992).  m has the largest first exponent
    so far, so the minimal generators m_i / gcd(m_i, m) of (I : m) do
    without the first variable, and the recursion is at most as deep as the
    number of variables.
    """
    monomials = sorted(monomials)
    out = {0: 1}
    for i, m in enumerate(monomials):
        quotient = []
        for g in sorted({tuple(max(a - b, 0) for a, b in zip(g, m)) for g in monomials[:i]},
                        key=sum):
            if not any(all(a <= b for a, b in zip(q, g)) for q in quotient):
                quotient.append(g)
        shift = sum(w * e for w, e in zip(weights, m))
        for d, c in _monomial_numerator(weights, quotient).items():
            out[d + shift] = out.get(d + shift, 0) - c
    return out


@lru_cache(maxsize=None)
def _monomial_count(weights, degree):
    """Number of monomials of the given weighted degree."""
    if degree < 0:
        return 0
    if not weights:
        return int(degree == 0)
    w, rest = weights[0], weights[1:]
    return sum(_monomial_count(rest, degree - e * w) for e in range(degree // w + 1))


def _cancel_units(ring: GradedRing, gens, cols):
    """Cancel unit entries, one relation column and one generator at a time.

    The pivot is the first column r with a unit entry, at its lowest such
    generator j, with constant c.  Every other column s with s_j != 0 becomes
    s - (s_j/c) r, which keeps the relation span and clears s_j; then e_j is
    a combination of the other generators modulo r, so generator j and
    column r drop out.  Weights are positive, so unit entries are exactly
    the constant ones.  Returns the remaining generator degrees and the
    columns, some possibly empty, re-indexed to them.
    """
    field = ring.field
    unit = (0,) * ring.nvars
    alive = list(range(len(gens)))

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
    position = {old: new for new, old in enumerate(alive)}
    return (tuple(gens[i] for i in alive),
            [{position[i]: p for i, p in s.items()} for s in cols])


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

