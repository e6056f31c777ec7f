"""Buchberger engine for homogeneous ideals and submodules of graded free modules.

Vectors are sparse maps (position, exponent-tuple) -> coefficient; this module
alone converts them to and from rows of (position, Polynomial) pairs.  Every
basis vector is monic: `buchberger_module` scales each new element by its
inverse lead coefficient, so reduction and S-vectors need no division.  The
term order is block-wise: an optional tag block ranks strictly below the
leading block, and inside a block terms compare by total degree (monomial
weight plus position degree), then weighted grevlex on the monomial, then
position.  `FreeContext.term_key` is the one key per term that realizes this
order, and it reads weighted grevlex off `GradedRing.monomial_key`.  One
tagged completion serves two jobs: every element of the augmented module
keeps, in its tag coordinates, an exact expression of its leading-block part
in terms of the tagged rows, so `syzygy_module` tags every row, and `colon`,
the one routine behind every transporter, ideal quotient, intersection and
annihilator, tags a single row.  The rows `colon` is given must be a monic
Groebner basis, as every caller already holds one: they are kept as given and
no S-pair is formed between two of them.  A completion reduces only the blocks
its caller reads: `colon` and the syzygies read the tag block, and a
`LiftBasis` reduces the rest on its first `divide`.

Everything here is a pure function of its inputs; ideal bases are memoized in
a process-wide table keyed by ring and generator values (concurrent fills
would recompute the identical reduced basis).
"""

import heapq
from bisect import insort

from .errors import InputError, InternalError
from .rings import GradedRing, Polynomial, clear_denominators, require_homogeneous


class FreeContext:
    """A graded free module with ordered basis and an optional tag block.

    `term_key` is the one order key per term, memoized: a bigger key is a
    bigger term.
    """

    __slots__ = ("ring", "degrees", "block", "_keys")

    def __init__(self, ring: GradedRing, degrees, block=None):
        self.ring = ring
        self.degrees = tuple(degrees)
        self.block = len(self.degrees) if block is None else block
        self._keys = {}

    def term_key(self, key):
        cached = self._keys.get(key)
        if cached is None:
            pos, expt = key
            wd, negrev = self.ring.monomial_key(expt)
            cached = (pos < self.block, wd + self.degrees[pos], wd, negrev, -pos)
            self._keys[key] = cached
        return cached

    def degree(self, vec):
        """Degree of a nonzero homogeneous vector, read off any one term."""
        pos, expt = next(iter(vec))
        return self.degrees[pos] + self.ring.weighted_degree(expt)


def vec_lead(vec, ctx):
    return max(vec, key=ctx.term_key)


class _Index:
    """Per-position divisor lookup over monic basis vectors."""

    def __init__(self, ctx, vectors=()):
        self.ctx = ctx
        self.by_pos = {}
        for vec in vectors:
            self.add(vec)

    def add(self, vec):
        lead = vec_lead(vec, self.ctx)
        if vec[lead] != 1:
            raise InternalError(f"basis vector with lead coefficient {vec[lead]}, not 1")
        pos, expt = lead
        self.by_pos.setdefault(pos, []).append((expt, vec))
        return lead

    def find(self, key):
        pos, expt = key
        for gexpt, gvec in self.by_pos.get(pos, ()):
            if all(a <= b for a, b in zip(gexpt, expt)):
                return gexpt, gvec
        return None


def normal_form_vec(vec, index, ctx):
    """Full normal form of vec against the indexed basis.

    Pending terms stay sorted by `term_key` and the largest is taken from
    the end; a term that cancelled is skipped when it comes up.  Reduction
    only ever introduces strictly smaller terms, so settled output terms are
    never revisited.
    """
    field = ctx.ring.field
    term_key = ctx.term_key
    work = dict(vec)
    out = {}
    pending = sorted((term_key(k), k) for k in work)
    while pending:
        _, key = pending.pop()
        coeff = work.get(key)
        if coeff is None:
            continue
        hit = index.find(key)
        if hit is None:
            out[key] = work.pop(key)
            continue
        gexpt, gvec = hit
        shift = tuple(a - b for a, b in zip(key[1], gexpt))
        factor = field.neg(coeff)
        plus_one = factor == 1
        minus_one = factor == -1
        for (p2, e2), c2 in gvec.items():
            k2 = (p2, tuple(a + b for a, b in zip(shift, e2)))
            if plus_one:
                val = c2
            elif minus_one:
                val = field.neg(c2)
            else:
                val = field.mul(factor, c2)
            cur = work.get(k2)
            if cur is None:
                work[k2] = val
                insort(pending, (term_key(k2), k2))
            else:
                s = field.add(cur, val)
                if s == 0:
                    del work[k2]
                else:
                    work[k2] = s
    return out


def _spair(v1, e1, v2, e2, field):
    """x^(lcm-e1) v1 - x^(lcm-e2) v2 for monic v1, v2 with lead exponents e1, e2."""
    lcm = tuple(max(a, b) for a, b in zip(e1, e2))
    shift = tuple(a - b for a, b in zip(lcm, e1))
    s = {(pos, tuple(a + b for a, b in zip(shift, e))): c for (pos, e), c in v1.items()}
    shift = tuple(a - b for a, b in zip(lcm, e2))
    for (pos, e), c in v2.items():
        k = (pos, tuple(a + b for a, b in zip(shift, e)))
        d = field.sub(s.get(k, field.zero), c)
        if d == 0:
            s.pop(k, None)
        else:
            s[k] = d
    return s


def buchberger_module(rows, ctx):
    """Reduced Groebner basis of the submodule generated by the given vectors."""
    basis, leads = _complete((), rows, ctx)
    return _reduce_basis(basis, leads, ctx)


def _complete(known, rows, ctx):
    """A Groebner basis of the span of known and rows, with its leads; not reduced.

    known must be a monic Groebner basis.  Its elements are kept as given,
    ahead of the rows, no normal form is taken of them, and S-pairs are
    formed only with later elements: a pair inside known reduces to zero
    over known.  The rows are normal-formed in lead order and made monic.
    """
    field = ctx.ring.field
    basis = list(known)
    index = _Index(ctx)
    leads = [index.add(vec) for vec in basis]

    def append(vec):
        lead = vec_lead(vec, ctx)
        inv = field.inv(vec[lead])
        vec = {k: field.mul(inv, c) for k, c in vec.items()}
        basis.append(vec)
        leads.append(index.add(vec))

    seed = sorted((r for r in rows if r), key=lambda v: ctx.term_key(vec_lead(v, ctx)))
    for row in seed:
        nf = normal_form_vec(row, index, ctx)
        if nf:
            append(nf)

    pure_ring = ctx.block == 1 and len(ctx.degrees) == 1

    def push_pairs(heap, new_idx):
        pnew, enew = leads[new_idx]
        for j in range(new_idx):
            pj, ej = leads[j]
            if pj != pnew:
                continue
            lcm = tuple(max(a, b) for a, b in zip(enew, ej))
            if pure_ring and all(a + b == c for a, b, c in zip(enew, ej, lcm)):
                continue  # coprime leads: S-poly reduces to zero (ideal case only)
            heapq.heappush(heap, (ctx.term_key((pnew, lcm)), j, new_idx))

    heap = []
    for i in range(len(known), len(basis)):
        push_pairs(heap, i)
    while heap:
        _, i, j = heapq.heappop(heap)
        s = _spair(basis[i], leads[i][1], basis[j], leads[j][1], field)
        nf = normal_form_vec(s, index, ctx)
        if nf:
            append(nf)
            push_pairs(heap, len(basis) - 1)
    return basis, leads


def _reduce_basis(basis, leads, ctx, others=()):
    """Minimalize per position and tail-reduce into the unique reduced basis.

    Only leads at the same position divide each other, so each position
    keeps its own list of minimal leads; sorted by lead, a divisor comes
    before its multiples, and the output keeps that order.  Tails are
    reduced against the minimal elements together with `others`, the
    reduced elements at the remaining positions of the same Groebner basis
    (a caller that reads only some positions reduces only those).  A tail
    term is never divisible by its own element's lead (the quotient would
    make it larger), so no element is used in its own reduction.
    """
    kept = {}
    minimal = []
    for lead, vec in sorted(zip(leads, basis), key=lambda t: ctx.term_key(t[0])):
        pos, expt = lead
        divisors = kept.setdefault(pos, [])
        if not any(all(a <= b for a, b in zip(d, expt)) for d in divisors):
            divisors.append(expt)
            minimal.append((lead, vec))
    index = _Index(ctx, [vec for _, vec in minimal] + list(others))
    one = ctx.ring.field.one
    out = []
    for lead, vec in minimal:
        tail = dict(vec)
        del tail[lead]
        reduced = normal_form_vec(tail, index, ctx)
        reduced[lead] = one
        out.append(reduced)
    return out


class SubmoduleBasis:
    """Reduced Groebner basis of a submodule, with membership helpers.

    The elements must be monic, as `buchberger_module` returns them.
    """

    __slots__ = ("ctx", "elements", "_index")

    def __init__(self, ctx, elements):
        self.ctx = ctx
        self.elements = elements
        self._index = _Index(ctx, elements)

    @classmethod
    def generate(cls, rows, ctx):
        return cls(ctx, buchberger_module(rows, ctx))

    def normal_form(self, vec):
        return normal_form_vec(vec, self._index, self.ctx)

    def contains(self, vec) -> bool:
        return not self.normal_form(vec)


def _tagged_completion(ctx, known, tagged, tag_degrees):
    """Complete known and each tagged[i] + t_i, with a tag block t below ctx.

    known must be a monic Groebner basis in ctx (possibly empty); its
    elements are kept as given (`_complete`).  Returns (tags, rest,
    tag_ctx): the reduced basis of the completed elements that lie in the
    tag block, still in their tag positions, the other elements, neither
    minimalized nor reduced, and the augmented context.  A tag-block element
    sum_i a_i t_i records the relation sum_i a_i tagged[i] in the span of
    known.  A tag-block element has every term in the tag block, where only
    tag-block leads divide, so its reduction needs no other element.
    """
    ncols = len(ctx.degrees)
    tag_ctx = FreeContext(ctx.ring, ctx.degrees + tuple(tag_degrees), block=ncols)
    zero_expt = (0,) * ctx.ring.nvars
    aug_rows = []
    for i, vec in enumerate(tagged):
        row = dict(vec)
        row[(ncols + i, zero_expt)] = ctx.ring.field.one
        aug_rows.append(row)
    basis, leads = _complete(known, aug_rows, tag_ctx)
    tag_basis, tag_leads, rest = [], [], []
    for vec, lead in zip(basis, leads):
        if lead[0] >= ncols:
            tag_basis.append(vec)
            tag_leads.append(lead)
        else:
            rest.append(vec)
    return _reduce_basis(tag_basis, tag_leads, tag_ctx), rest, tag_ctx


def syzygy_module(rows, degrees, ctx_cols):
    """Kernel of the map sending e_i to rows[i], plus a division-with-lift basis.

    Returns (syzygies, lift) where syzygies is a list of coefficient vectors
    over the row index (sparse {(i, expt): coeff}) generating all relations
    sum_i a_i rows[i] = 0, and lift is a LiftBasis for expressing members of
    the row span in terms of the rows.
    """
    tags, rest, aug_ctx = _tagged_completion(ctx_cols, (), rows, degrees)
    ncols = aug_ctx.block
    syzygies = [{(pos - ncols, expt): c for (pos, expt), c in vec.items()} for vec in tags]
    return syzygies, LiftBasis(aug_ctx, rest, tags)


class LiftBasis(SubmoduleBasis):
    """The non-tag part of a tagged completion; the tag block starts at ctx.block.

    Built from the non-tag elements as the completion left them, together
    with the reduced tag block (`tags`, in tag positions).  The first
    `divide` minimalizes the non-tag elements and reduces their tails
    against both, into the reduced basis: the lifts it returns are read off
    those tails, so they are the same however the basis was completed.
    """

    __slots__ = ("_tags",)

    def __init__(self, ctx, elements, tags=()):
        super().__init__(ctx, elements)
        self._tags = tags

    def divide(self, vec):
        """vec = remainder + sum_i coeffs[i] * rows[i]; returns (remainder, coeffs).

        Remainder and coeffs are sparse vectors; coeffs is keyed by row index.
        Every span element leads in the leading block, so no lead divides a
        tag term: the normal form reduces only leading-block terms, and the
        tag terms it accumulates are minus the lift.
        """
        if self._tags is not None:
            ctx = self.ctx
            leads = [vec_lead(v, ctx) for v in self.elements]
            self.elements = _reduce_basis(self.elements, leads, ctx, self._tags)
            self._index = _Index(ctx, self.elements)
            self._tags = None
        field = self.ctx.ring.field
        ncols = self.ctx.block
        remainder = {}
        coeffs = {}
        for (pos, expt), c in self.normal_form(vec).items():
            if pos < ncols:
                remainder[(pos, expt)] = c
            else:
                coeffs[(pos - ncols, expt)] = field.neg(c)
        return remainder, coeffs


# --- polynomials and ideals --------------------------------------------------


def poly_to_vec(p: Polynomial, pos: int = 0):
    return {(pos, expt): c for expt, c in p.terms.items()}


def row_to_vec(row):
    """A row of (position, Polynomial) pairs as a sparse vector."""
    return {(pos, expt): c for pos, p in row for expt, c in p.terms.items()}


def vec_to_row(vec, ring):
    """A sparse vector as a row {position: Polynomial}; inverse of row_to_vec."""
    terms = {}
    for (pos, expt), c in vec.items():
        terms.setdefault(pos, {})[expt] = c
    return {pos: Polynomial(ring, t) for pos, t in terms.items()}


def vec_component(vec, pos, ring) -> Polynomial:
    return Polynomial(ring, {expt: c for (p, expt), c in vec.items() if p == pos})


_GB_CACHE = {}


class HomIdeal:
    """A homogeneous ideal with a lazily computed, memoized reduced basis."""

    __slots__ = ("ring", "generators", "_basis")

    def __init__(self, ring: GradedRing, generators):
        self.ring = ring
        gens = []
        for g in generators:
            if g.ring != ring:
                raise InputError("ideal generator from a different ring")
            if g.is_zero():
                continue
            require_homogeneous(g, "ideal generator")
            if g not in gens:
                gens.append(g)
        self.generators = tuple(gens)
        self._basis = None

    def groebner_basis(self):
        if self._basis is None:
            key = (self.ring, frozenset(self.generators))
            cached = _GB_CACHE.get(key)
            if cached is None:
                rows = [poly_to_vec(g) for g in self.generators]
                cached = SubmoduleBasis.generate(rows, FreeContext(self.ring, (0,)))
                _GB_CACHE[key] = cached
            self._basis = cached
        return self._basis

    def basis_polynomials(self):
        basis = self.groebner_basis()
        return tuple(vec_component(v, 0, self.ring) for v in basis.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ring != self.ring:
            raise InputError("polynomial ring mismatch")
        nf = self.groebner_basis().normal_form(poly_to_vec(f))
        return vec_component(nf, 0, self.ring)

    def contains_poly(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def contains_ideal(self, other: "HomIdeal") -> bool:
        if other.ring != self.ring:
            raise InputError("ideal ring mismatch")
        return all(self.contains_poly(g) for g in other.generators)

    def same_ideal(self, other: "HomIdeal") -> bool:
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_zero(self) -> bool:
        return not self.generators

    def display_generators(self):
        return tuple(str(clear_denominators(g)) for g in self.generators)

    def display_basis(self):
        return tuple(str(clear_denominators(g)) for g in self.basis_polynomials())

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.generators)
        return f"({inner})" if inner else "(0)"


def colon(rows, vec, ctx) -> HomIdeal:
    """The colon (N : vec) = {f | f * vec in N}, N the span of rows in ctx.

    rows must be a monic Groebner basis of N in ctx, such as the elements of
    a `SubmoduleBasis`; they are kept as given and no S-pair is formed
    between two of them.  The row vec + t is completed together with rows,
    in a free module with one tag position t of degree deg vec ranked below
    every position of ctx.  An element of the span is n + f*(vec + t) with n
    in N; it lies in the tag block exactly when f*vec = -n, so the tag-block
    elements of the completed basis are f*t for f generating the colon
    (elimination; Eisenbud, Commutative Algebra, section 15.10).  Only that
    block is reduced.  vec must be nonzero and homogeneous.
    """
    tags, _, _ = _tagged_completion(ctx, rows, [vec], [ctx.degree(vec)])
    ncols = len(ctx.degrees)
    return HomIdeal(ctx.ring, [vec_component(v, ncols, ctx.ring) for v in tags])


def ideal_quotient(ideal: HomIdeal, f: Polynomial) -> HomIdeal:
    """The transporter (ideal : f) = {g | g*f in ideal}."""
    if f.is_zero():
        raise InputError("quotient by the zero polynomial")
    require_homogeneous(f, "quotient divisor")
    ring = ideal.ring
    if f.ring != ring:
        raise InputError("polynomial ring mismatch")
    basis = ideal.groebner_basis()
    return colon(basis.elements, poly_to_vec(f), basis.ctx)


def ideal_intersection(first: HomIdeal, second: HomIdeal) -> HomIdeal:
    """The intersection as the colon (first*e_0 + second*e_1 : e_0 + e_1) in R^2.

    The two reduced bases, one per position, together form a Groebner basis.
    """
    ring = first.ring
    if second.ring != ring:
        raise InputError("ideal ring mismatch")
    rows = [{(pos, expt): c for (_, expt), c in v.items()}
            for pos, ideal in enumerate((first, second))
            for v in ideal.groebner_basis().elements]
    diagonal = row_to_vec([(0, ring.one()), (1, ring.one())])
    return colon(rows, diagonal, FreeContext(ring, (0, 0)))
