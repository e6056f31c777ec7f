"""Buchberger engine for homogeneous ideals and submodules of graded free modules.

Vectors are sparse maps (position, exponent-tuple) -> coefficient; this module
alone converts them to and from rows of (position, Polynomial) pairs and reads
their terms.  Inside the engine every coefficient is a plain int: over Q a
vector is integral, over F_p its coefficients are residues in [0, p), reduced
with `% p` where they are formed.  `Fraction` and `Field` values appear only
where a vector enters or leaves: `_integral` clears the denominators of an
input vector and `_field_vec` divides an output vector by its scale.
`SubmoduleBasis` is the one basis type: its elements, the lead of each, handed
in by the caller that found it, and a per-position divisor index.  A
completion grows one and every normal form reads one.  Every basis element is
normalized: primitive with a positive lead coefficient over Q, monic over F_p.
Reduction is fraction-free: `normal_form_vec` scales the vector it reduces
instead of dividing by a lead coefficient, and returns that scale, so every
element of a completion is a nonzero scalar multiple of the element a
reduction by monic field vectors would give.  The term order is block-wise:
an optional tag block ranks strictly below the leading block, and inside a
block terms compare by total degree (monomial weight plus position degree),
then weighted grevlex on the monomial, then position.
`FreeContext.term_key` is the one key per term that realizes this order, and
it reads weighted grevlex off `GradedRing.monomial_key`.  One tagged
completion serves two jobs: every element of the augmented module keeps, in
its tag coordinates, an exact expression of its leading-block part in terms of
the tagged rows, so `syzygy_module` tags every row, and `colon`, the one
routine behind every transporter, ideal quotient, intersection and
annihilator, tags a single row.  `colon` takes (basis, vector) pairs, stacks
one twisted copy of each basis, and returns the intersection of the colons;
every caller already holds each basis as a `SubmoduleBasis`, so its elements
are kept as given and no S-pair is formed between two of them.  A completion
reduces only the blocks its caller reads: `colon` and the syzygies read the
tag block, and a `LiftBasis` reduces the rest on its first `divide`.

Everything here is a pure function of its inputs; ideal bases are memoized in
a process-wide table keyed by ring and generator values (concurrent fills
would recompute the identical reduced basis).
"""

import heapq
from bisect import insort
from fractions import Fraction
from math import gcd
from operator import add, le, sub

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


def _integral(vec, p):
    """(scale * vec with plain int coefficients, scale) for a field vector.

    Over Q the scale is the lcm of the denominators; over F_p it is 1 and the
    coefficients become residues in [0, p).
    """
    if p:
        return {k: c % p for k, c in vec.items()}, 1
    den = 1
    for c in vec.values():
        d = c.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    return {k: c.numerator * (den // c.denominator) for k, c in vec.items()}, den


def _field_vec(vec, scale, field):
    """vec / scale as field elements: Fractions over Q, symmetric residues over F_p."""
    p = field.characteristic
    if p:
        h = (p - 1) // 2
        inv = pow(scale, -1, p)
        return {k: (c * inv + h) % p - h for k, c in vec.items()}
    return {k: Fraction(c, scale) for k, c in vec.items()}


def _normalized(vec, lc, p):
    """vec, with lead coefficient lc, made primitive with a positive lead over Q
    and monic over F_p."""
    if p:
        if lc == 1:
            return vec
        inv = pow(lc, -1, p)
        return {k: c * inv % p for k, c in vec.items()}
    g = gcd(*vec.values())
    if lc < 0:
        g = -g
    if g == 1:
        return vec
    return {k: c // g for k, c in vec.items()}


class SubmoduleBasis:
    """A Groebner basis of a submodule: elements, leads, divisor index.

    Elements are plain int vectors, each primitive with a positive lead
    coefficient over Q and monic over F_p; `add` takes the lead its caller
    already holds and raises `InternalError` on an element that breaks that
    rule.  The index lists each lead exponent, with its element and lead
    coefficient, under the lead's position.  `normal_form` and `contains`
    take and return field vectors.
    """

    __slots__ = ("ctx", "elements", "leads", "_by_pos")

    def __init__(self, ctx, pairs=()):
        self.ctx = ctx
        self.elements = []
        self.leads = []
        self._by_pos = {}
        for lead, vec in pairs:
            self.add(lead, vec)

    @classmethod
    def generate(cls, rows, ctx):
        return cls(ctx, buchberger_module(rows, ctx))

    def add(self, lead, vec):
        lc = vec[lead]
        if lc != 1:
            if self.ctx.ring.field.characteristic:
                raise InternalError(f"basis vector over F_p with lead coefficient {lc}, not 1")
            if lc < 0 or gcd(*vec.values()) != 1:
                raise InternalError(f"basis vector over Q with lead coefficient {lc}, "
                                    "not primitive with a positive lead")
        self.elements.append(vec)
        self.leads.append(lead)
        pos, expt = lead
        self._by_pos.setdefault(pos, []).append((expt, vec, lc))

    def find(self, key):
        """(lead exponent, element, lead coefficient) of the first element whose
        lead divides key."""
        pos, expt = key
        for hit in self._by_pos.get(pos, ()):
            if all(map(le, hit[0], expt)):
                return hit
        return None

    def normal_form(self, vec):
        """The normal form of a field vector, as a field vector."""
        field = self.ctx.ring.field
        ivec, den = _integral(vec, field.characteristic)
        nf, scale = normal_form_vec(ivec, self)
        return _field_vec(nf, den * scale, field)

    def contains(self, vec) -> bool:
        ivec, _ = _integral(vec, self.ctx.ring.field.characteristic)
        return not normal_form_vec(ivec, self)[0]


def normal_form_vec(vec, basis):
    """Fraction-free full normal form of a plain int vector against a basis.

    Returns (nf, scale): scale is a positive int, 1 over F_p, and
    scale * vec - nf lies in the span, with no term of nf divisible by a
    lead.  A term c*m meets an element with lead coefficient lc: the vector
    is scaled by lc/g, g = gcd(c, lc), and c/g times the element is
    subtracted, so nothing is divided.  Pending terms stay sorted by
    `term_key` and the largest is taken from the end; a term that cancelled
    is skipped when it comes up.  Reduction only ever introduces strictly
    smaller terms, so settled output terms are never revisited, and nf lists
    its terms largest first: its lead is its first key.
    """
    p = basis.ctx.ring.field.characteristic
    term_key = basis.ctx.term_key
    find = basis.find
    work = dict(vec)
    out = {}
    scale = 1
    pending = sorted((term_key(k), k) for k in work)
    while pending:
        _, key = pending.pop()
        coeff = work.get(key)
        if coeff is None:
            continue
        hit = find(key)
        if hit is None:
            out[key] = work.pop(key)
            continue
        gexpt, gvec, lc = hit
        if lc != 1:
            g = gcd(coeff, lc)
            coeff //= g
            m = lc // g
            if m != 1:
                scale *= m
                for k in work:
                    work[k] *= m
                for k in out:
                    out[k] *= m
        shift = tuple(map(sub, key[1], gexpt))
        neg = -coeff
        for (p2, e2), c2 in gvec.items():
            k2 = (p2, tuple(map(add, shift, e2)))
            cur = work.get(k2)
            if cur is None:
                work[k2] = neg * c2 % p if p else neg * c2
                insort(pending, (term_key(k2), k2))
            else:
                s = (cur + neg * c2) % p if p else cur + neg * c2
                if s:
                    work[k2] = s
                else:
                    del work[k2]
    return out, scale


def _spair(v1, l1, v2, l2, p):
    """b x^(lcm-e1) v1 - a x^(lcm-e2) v2 for basis elements v1, v2 with leads
    l1, l2 of exponents e1, e2 and coefficients a*g, b*g, g their gcd."""
    e1, e2 = l1[1], l2[1]
    g = gcd(v1[l1], v2[l2])
    m1, m2 = v2[l2] // g, v1[l1] // g
    lcm = tuple(map(max, e1, e2))
    shift = tuple(map(sub, lcm, e1))
    s = {(pos, tuple(map(add, shift, e))): m1 * c for (pos, e), c in v1.items()}
    shift = tuple(map(sub, lcm, e2))
    for (pos, e), c in v2.items():
        k = (pos, tuple(map(add, shift, e)))
        d = s.get(k, 0) - m2 * c
        if p:
            d %= p
        if d:
            s[k] = d
        else:
            s.pop(k, None)
    return s


def buchberger_module(rows, ctx):
    """Reduced Groebner basis of the submodule generated by the given field
    vectors, as a list of (lead, element) pairs."""
    p = ctx.ring.field.characteristic
    basis = _complete((), [_integral(row, p)[0] for row in rows], ctx)
    return _reduce_basis(list(zip(basis.leads, basis.elements)), ctx)


def _complete(known, rows, ctx):
    """A `SubmoduleBasis` of the span of known and rows; not reduced.

    known must be a Groebner basis, as (lead, element) pairs.  Its elements
    are kept as given, ahead of the rows, no normal form is taken of them,
    and S-pairs are formed only with later elements: a pair inside known
    reduces to zero over known.  The rows, plain int vectors, are
    normal-formed in lead order, and every element is appended with its
    content divided out (over F_p: made monic).
    """
    p = ctx.ring.field.characteristic
    basis = SubmoduleBasis(ctx, known)
    elements, leads = basis.elements, basis.leads
    start = len(elements)

    def append(nf):
        lead = next(iter(nf))
        basis.add(lead, _normalized(nf, nf[lead], p))

    seed = sorted((r for r in rows if r), key=lambda v: ctx.term_key(vec_lead(v, ctx)))
    for row in seed:
        nf, _ = normal_form_vec(row, basis)
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
    for i in range(start, len(elements)):
        push_pairs(heap, i)
    while heap:
        _, i, j = heapq.heappop(heap)
        nf, _ = normal_form_vec(_spair(elements[i], leads[i], elements[j], leads[j], p), basis)
        if nf:
            append(nf)
            push_pairs(heap, len(elements) - 1)
    return basis


def _reduce_basis(pairs, ctx, others=()):
    """Minimalize per position and tail-reduce into the unique reduced basis.

    pairs and others are (lead, element) pairs, and so is the result.  Only
    leads at the same position divide each other, so each position keeps its
    own list of minimal leads; sorted by lead, a divisor comes before its
    multiples, and the output keeps that order.  Tails are reduced against
    the minimal elements together with `others`, the reduced elements at the
    remaining positions of the same Groebner basis (a caller that reads only
    some positions reduces only those).  A tail term is never divisible by
    its own element's lead (the quotient would make it larger), so no
    element is used in its own reduction.  A reduced tail comes back scaled,
    so the lead is scaled with it before the content is divided out.
    """
    p = ctx.ring.field.characteristic
    kept = {}
    minimal = []
    for lead, vec in sorted(pairs, key=lambda t: ctx.term_key(t[0])):
        pos, expt = lead
        divisors = kept.setdefault(pos, [])
        if not any(all(a <= b for a, b in zip(d, expt)) for d in divisors):
            divisors.append(expt)
            minimal.append((lead, vec))
    index = SubmoduleBasis(ctx, minimal + list(others))
    out = []
    for lead, vec in minimal:
        tail = dict(vec)
        lc = tail.pop(lead)
        reduced, scale = normal_form_vec(tail, index)
        reduced[lead] = lc * scale
        out.append((lead, _normalized(reduced, lc * scale, p)))
    return out


def _tagged_completion(ctx, known, tagged, tag_degrees):
    """Complete known and each tagged row v_i + t_i, with a tag block t below ctx.

    known must be a Groebner basis in ctx (possibly empty), as (lead, element)
    pairs; its elements are kept as given (`_complete`).  tagged[i] is the
    pair (d_i * v_i, d_i) of `_integral`, and the row completed is d_i times
    v_i + t_i.  Returns (tags, rest, tag_ctx): the reduced basis of the
    completed elements that lie in the tag block, still in their tag
    positions, the other elements, neither minimalized nor reduced, both as
    (lead, element) pairs, and the augmented context.  A tag-block element
    sum_i a_i t_i records the relation sum_i a_i v_i in the span of known.
    A tag-block element has every term in the tag block, where only
    tag-block leads divide, so its reduction needs no other element.
    """
    ncols = len(ctx.degrees)
    tag_ctx = FreeContext(ctx.ring, ctx.degrees + tuple(tag_degrees), block=ncols)
    zero_expt = (0,) * ctx.ring.nvars
    aug_rows = []
    for i, (vec, den) in enumerate(tagged):
        row = dict(vec)
        row[(ncols + i, zero_expt)] = den
        aug_rows.append(row)
    basis = _complete(known, aug_rows, tag_ctx)
    tags, rest = [], []
    for pair in zip(basis.leads, basis.elements):
        (tags if pair[0][0] >= ncols else rest).append(pair)
    return _reduce_basis(tags, tag_ctx), rest, tag_ctx


def syzygy_module(rows, degrees, ctx_cols):
    """Kernel of the map sending e_i to rows[i], plus a division-with-lift basis.

    Returns (syzygies, lift) where syzygies is a list of monic coefficient
    vectors over the row index (sparse {(i, expt): coeff}) generating all
    relations sum_i a_i rows[i] = 0, and lift is a LiftBasis for expressing
    members of the row span in terms of the rows.
    """
    field = ctx_cols.ring.field
    tagged = [_integral(row, field.characteristic) for row in rows]
    tags, rest, aug_ctx = _tagged_completion(ctx_cols, (), tagged, degrees)
    ncols = aug_ctx.block
    syzygies = []
    for lead, vec in tags:
        monic = _field_vec(vec, vec[lead], field)
        syzygies.append({(pos - ncols, expt): c for (pos, expt), c in monic.items()})
    return syzygies, LiftBasis(aug_ctx, rest, tags)


class LiftBasis(SubmoduleBasis):
    """The non-tag part of a tagged completion; the tag block starts at ctx.block.

    Built from the non-tag elements as the completion left them, together
    with the reduced tag block (`tags`, in tag positions), both as (lead,
    element) pairs.  The first `divide` minimalizes the non-tag elements and
    reduces their tails against both, into the reduced basis: the lifts it
    returns are read off those tails, so they are the same however the basis
    was completed.
    """

    __slots__ = ("_tags",)

    def __init__(self, ctx, pairs, tags=()):
        super().__init__(ctx, pairs)
        self._tags = tags

    def divide(self, vec):
        """vec = remainder + sum_i coeffs[i] * rows[i]; returns (remainder, coeffs).

        vec, remainder and coeffs are sparse field vectors; coeffs is keyed by
        row index.  Every span element leads in the leading block, so no lead
        divides a tag term: the normal form of d * vec, d its denominator,
        reduces only leading-block terms and comes back scaled by s, and the
        tag terms it accumulates are minus d * s times the lift.
        """
        if self._tags is not None:
            reduced = _reduce_basis(list(zip(self.leads, self.elements)), self.ctx, self._tags)
            super().__init__(self.ctx, reduced)
            self._tags = None
        field = self.ctx.ring.field
        ivec, den = _integral(vec, field.characteristic)
        nf, scale = normal_form_vec(ivec, self)
        ncols = self.ctx.block
        remainder, lift = {}, {}
        for (pos, expt), c in nf.items():
            if pos < ncols:
                remainder[(pos, expt)] = c
            else:
                lift[(pos - ncols, expt)] = -c
        scale *= den
        return _field_vec(remainder, scale, field), _field_vec(lift, scale, field)


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


def _monic_component(lead, vec, pos, ring) -> Polynomial:
    """The monic polynomial at one position of a basis element."""
    return vec_component(_field_vec(vec, vec[lead], ring.field), pos, ring)


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
        return tuple(_monic_component(lead, vec, 0, self.ring)
                     for lead, vec in zip(basis.leads, basis.elements))

    def _require_ring(self, f: Polynomial) -> None:
        if f.ring != self.ring:
            raise InputError("polynomial ring mismatch")

    def normal_form(self, f: Polynomial) -> Polynomial:
        self._require_ring(f)
        return vec_component(self.groebner_basis().normal_form(poly_to_vec(f)), 0, self.ring)

    def contains_poly(self, f: Polynomial) -> bool:
        self._require_ring(f)
        return self.groebner_basis().contains(poly_to_vec(f))

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


def colon(pairs) -> HomIdeal:
    """The intersection of the colons (N_i : v_i) = {f | f * v_i in N_i}.

    Each pair is (basis, v): a `SubmoduleBasis` of N_i and a nonzero
    homogeneous field vector v_i in its context.  Copy i of each free module
    is twisted by -deg v_i and the copies are stacked, so sum_i v_i^(i) has
    degree 0; the stacked bases, one per copy, form a Groebner basis of the
    sum of the N_i^(i).  They are kept as given, no S-pair is formed between
    two of them, and the row sum_i v_i^(i) + t is completed together with
    them, t a tag position of degree 0 ranked below every copy.  An element
    of the span is n + f*(sum_i v_i^(i) + t) with n in the stack; it lies
    in the tag block exactly when every f*v_i is in N_i, so the tag-block
    elements of the completed basis are f*t for f generating the colon
    (elimination; Eisenbud, Commutative Algebra, section 15.10).  Only that
    block is reduced, and its elements leave as monic generators.
    """
    ring = pairs[0][0].ctx.ring
    degrees, known, stacked = [], [], {}
    for basis, vec in pairs:
        offset, twist = len(degrees), basis.ctx.degree(vec)
        degrees += [d - twist for d in basis.ctx.degrees]
        known += [((offset + pos, e), {(offset + q, x): c for (q, x), c in v.items()})
                  for (pos, e), v in zip(basis.leads, basis.elements)]
        stacked.update(((offset + pos, e), c) for (pos, e), c in vec.items())
    tagged = [_integral(stacked, ring.field.characteristic)]
    tags, _, _ = _tagged_completion(FreeContext(ring, degrees), known, tagged, [0])
    return HomIdeal(ring, [_monic_component(lead, v, len(degrees), ring) for lead, v in tags])


def ideal_quotient(ideal: HomIdeal, f: Polynomial) -> HomIdeal:
    """The transporter (ideal : f) = {g | g*f in ideal}."""
    if f.is_zero():
        raise InputError("quotient by the zero polynomial")
    require_homogeneous(f, "quotient divisor")
    if f.ring != ideal.ring:
        raise InputError("polynomial ring mismatch")
    return colon([(ideal.groebner_basis(), poly_to_vec(f))])


def ideal_intersection(first: HomIdeal, second: HomIdeal) -> HomIdeal:
    """The intersection as one stacked colon: (first : 1) meet (second : 1)."""
    ring = first.ring
    if second.ring != ring:
        raise InputError("ideal ring mismatch")
    one = poly_to_vec(ring.one())
    return colon([(first.groebner_basis(), one), (second.groebner_basis(), one)])
