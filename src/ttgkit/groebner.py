"""Buchberger engine for homogeneous ideals and submodules of graded free modules.

Vectors are sparse maps (position, exponent-tuple) -> coefficient.  The term
order is block-wise: an optional tag block ranks strictly below the leading
block, and inside a block terms compare by total degree (monomial weight plus
position degree), then weighted grevlex on the monomial, then position.  The
tag block turns one completion pass into a syzygy computation: every element
of the augmented module keeps, in its tag coordinates, an exact expression of
its leading-block part in terms of the original generators.  With a single
tag position the same pass is `colon`, the one routine behind every
transporter, ideal quotient, intersection and annihilator in the package.

Everything here is a pure function of its inputs; ideal bases are memoized in
a process-wide table keyed by ring and generator values (concurrent fills
would recompute the identical reduced basis).
"""

import heapq

from .errors import InputError
from .rings import GradedRing, Polynomial, clear_denominators, require_homogeneous


class FreeContext:
    """A graded free module with ordered basis and an optional tag block.

    Order keys are memoized per term; `term_key_neg` is the componentwise
    negation used for min-heaps that must pop the largest term first.
    """

    __slots__ = ("ring", "degrees", "block", "_keys", "_neg_keys")

    def __init__(self, ring: GradedRing, degrees, block=None):
        self.ring = ring
        self.degrees = tuple(degrees)
        self.block = len(self.degrees) if block is None else block
        self._keys = {}
        self._neg_keys = {}

    def term_key(self, key):
        cached = self._keys.get(key)
        if cached is None:
            pos, expt = key
            weights = self.ring.weights
            wd = sum(w * e for w, e in zip(weights, expt))
            cached = (
                pos < self.block,
                wd + self.degrees[pos],
                wd,
                tuple(-e for e in reversed(expt)),
                -pos,
            )
            self._keys[key] = cached
        return cached

    def term_key_neg(self, key):
        cached = self._neg_keys.get(key)
        if cached is None:
            block, total, wd, negrev, negpos = self.term_key(key)
            cached = (-int(block), -total, -wd, tuple(-v for v in negrev), -negpos)
            self._neg_keys[key] = cached
        return cached


def vec_lead(vec, ctx):
    return max(vec, key=ctx.term_key)


def vec_scale(vec, c, field):
    return {k: field.mul(c, v) for k, v in vec.items()}


def vec_add_scaled(target, factor, shift, src, field):
    """target += factor * x^shift * src, in place."""
    for (pos, expt), c in src.items():
        k = (pos, tuple(a + b for a, b in zip(shift, expt)))
        s = field.add(target.get(k, field.zero), field.mul(factor, c))
        if s == 0:
            target.pop(k, None)
        else:
            target[k] = s


class _Index:
    """Per-position divisor lookup over a list of basis vectors."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.by_pos = {}

    def add(self, vec):
        pos, expt = vec_lead(vec, self.ctx)
        coeff = vec[(pos, expt)]
        self.by_pos.setdefault(pos, []).append((expt, coeff, vec))

    def find(self, key):
        pos, expt = key
        for gexpt, gcoeff, gvec in self.by_pos.get(pos, ()):
            if all(a <= b for a, b in zip(gexpt, expt)):
                return gexpt, gcoeff, gvec
        return None


def normal_form_vec(vec, index, ctx):
    """Full normal form of vec against the indexed basis.

    Terms are consumed largest-first through a lazily pruned heap; reduction
    only ever introduces strictly smaller terms, so settled output terms are
    never revisited.
    """
    field = ctx.ring.field
    neg = ctx.term_key_neg
    work = dict(vec)
    out = {}
    heap = [(neg(k), k) for k in work]
    heapq.heapify(heap)
    while heap:
        _, key = heapq.heappop(heap)
        coeff = work.get(key)
        if coeff is None:
            continue
        hit = index.find(key)
        if hit is None:
            out[key] = work.pop(key)
            continue
        gexpt, gcoeff, gvec = hit
        pos, expt = key
        shift = tuple(a - b for a, b in zip(expt, gexpt))
        factor = field.neg(field.div(coeff, gcoeff))
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
                heapq.heappush(heap, (neg(k2), k2))
            else:
                s = field.add(cur, val)
                if s == 0:
                    del work[k2]
                else:
                    work[k2] = s
    return out


def _spair(v1, v2, ctx):
    field = ctx.ring.field
    (p1, e1) = vec_lead(v1, ctx)
    (p2, e2) = vec_lead(v2, ctx)
    lcm = tuple(max(a, b) for a, b in zip(e1, e2))
    s = {}
    vec_add_scaled(s, field.inv(v1[(p1, e1)]), tuple(a - b for a, b in zip(lcm, e1)), v1, field)
    vec_add_scaled(
        s, field.neg(field.inv(v2[(p2, e2)])), tuple(a - b for a, b in zip(lcm, e2)), v2, field
    )
    return s


def buchberger_module(rows, ctx):
    """Reduced Groebner basis of the submodule generated by the given vectors."""
    field = ctx.ring.field
    basis = []
    leads = []
    index = _Index(ctx)

    def append(vec):
        lead = vec_lead(vec, ctx)
        vec = vec_scale(vec, field.inv(vec[lead]), field)
        basis.append(vec)
        leads.append(lead)
        index.add(vec)

    seed = sorted((dict(r) for r in rows if r), key=lambda v: ctx.term_key(vec_lead(v, ctx)))
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
    for i in range(len(basis)):
        push_pairs(heap, i)
    while heap:
        _, i, j = heapq.heappop(heap)
        s = _spair(basis[i], basis[j], ctx)
        nf = normal_form_vec(s, index, ctx)
        if nf:
            append(nf)
            push_pairs(heap, len(basis) - 1)
    return _reduce_basis(basis, leads, ctx)


def _reduce_basis(basis, leads, ctx):
    """Minimalize and tail-reduce into the unique reduced basis.

    Tails are reduced against the full minimal index: a tail term is never
    divisible by its own element's lead (the quotient would make it larger),
    so the element itself is never used in its own reduction.
    """
    field = ctx.ring.field
    with_leads = sorted(
        ((ctx.term_key(lead), lead, vec) for lead, vec in zip(leads, basis)),
        key=lambda t: t[0],
    )
    minimal = []
    for key, lead, vec in with_leads:
        pos, expt = lead
        dominated = False
        for _, (mpos, mexpt), _ in minimal:
            if mpos == pos and all(a <= b for a, b in zip(mexpt, expt)):
                dominated = True
                break
        if not dominated:
            minimal.append((key, lead, vec))
    index = _Index(ctx)
    for _, _, vec in minimal:
        index.add(vec)
    out = []
    for _, lead, vec in minimal:
        tail = dict(vec)
        lead_coeff = tail.pop(lead)
        reduced = normal_form_vec(tail, index, ctx)
        reduced[lead] = lead_coeff
        out.append(vec_scale(reduced, field.inv(lead_coeff), field))
    out.sort(key=lambda v: ctx.term_key(vec_lead(v, ctx)))
    return out


class SubmoduleBasis:
    """Reduced Groebner basis of a submodule, with membership helpers."""

    __slots__ = ("ctx", "elements", "_index")

    def __init__(self, ctx, elements):
        self.ctx = ctx
        self.elements = elements
        self._index = _Index(ctx)
        for v in elements:
            self._index.add(v)

    @classmethod
    def generate(cls, rows, ctx):
        return cls(ctx, buchberger_module(rows, ctx))

    def normal_form(self, vec):
        return normal_form_vec(vec, self._index, self.ctx)

    def contains(self, vec) -> bool:
        return not self.normal_form(vec)

    def standard_monomial_count(self, degree: int) -> int:
        """k-dimension of (free module / this submodule) in the given degree."""
        count = 0
        ring = self.ctx.ring
        for pos in range(self.ctx.block):
            d = degree - self.ctx.degrees[pos]
            for expt in ring.monomials_of_weight(d):
                if self._index.find((pos, expt)) is None:
                    count += 1
        return count


def syzygy_module(rows, degrees, ctx_cols):
    """Kernel of the map sending e_i to rows[i], plus a division-with-lift basis.

    Returns (syzygies, lift) where syzygies is a list of coefficient vectors
    over the row index (sparse {(i, expt): coeff}) generating all relations
    sum_i a_i rows[i] = 0, and lift is a LiftBasis for expressing members of
    the row span in terms of the rows.
    """
    ncols = len(ctx_cols.degrees)
    aug_ctx = FreeContext(ctx_cols.ring, ctx_cols.degrees + tuple(degrees), block=ncols)
    zero_expt = (0,) * ctx_cols.ring.nvars
    aug_rows = []
    for i, row in enumerate(rows):
        aug = {(pos, expt): c for (pos, expt), c in row.items()}
        aug[(ncols + i, zero_expt)] = ctx_cols.ring.field.one
        aug_rows.append(aug)
    basis = buchberger_module(aug_rows, aug_ctx)
    syzygies = []
    span = []
    for vec in basis:
        if all(pos >= ncols for pos, _ in vec):
            syzygies.append({(pos - ncols, expt): c for (pos, expt), c in vec.items()})
        else:
            span.append(vec)
    return syzygies, LiftBasis(aug_ctx, span, ncols)


class LiftBasis:
    """Division with coefficient tracking against an augmented basis."""

    __slots__ = ("ctx", "ncols", "_index")

    def __init__(self, aug_ctx, span, ncols):
        self.ctx = aug_ctx
        self.ncols = ncols
        self._index = _Index(aug_ctx)
        for v in span:
            self._index.add(v)

    def divide(self, vec):
        """vec = remainder + sum_i coeffs[i] * rows[i]; returns (remainder, coeffs).

        Remainder and coeffs are sparse vectors; coeffs is keyed by row index.
        Every span element leads in the leading block, so no lead divides a
        tag term: the normal form reduces only leading-block terms, and the
        tag terms it accumulates are minus the lift.
        """
        field = self.ctx.ring.field
        remainder = {}
        coeffs = {}
        for (pos, expt), c in normal_form_vec(vec, self._index, self.ctx).items():
            if pos < self.ncols:
                remainder[(pos, expt)] = c
            else:
                coeffs[(pos - self.ncols, expt)] = field.neg(c)
        return remainder, coeffs


# --- polynomials and ideals --------------------------------------------------


def poly_to_vec(p: Polynomial, pos: int = 0):
    return {(pos, expt): c for expt, c in p.terms.items()}


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
            key = (self.ring.key(), frozenset(self.generators))
            cached = _GB_CACHE.get(key)
            if cached is None:
                ctx = FreeContext(self.ring, (0,))
                rows = [poly_to_vec(g) for g in self.generators]
                gb = buchberger_module(rows, ctx)
                cached = SubmoduleBasis(ctx, gb)
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

    def is_unit(self) -> bool:
        return self.contains_poly(self.ring.one())

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

    The row vec + t is completed together with rows, in a free module with
    one tag position t of degree deg vec ranked below every position of ctx.
    An element of the span is n + f*(vec + t) with n in N; it lies in the tag
    block exactly when f*vec = -n, so the tag-block elements of the completed
    basis are f*t for f generating the colon (elimination; Eisenbud,
    Commutative Algebra, section 15.10).  vec must be nonzero and homogeneous.
    """
    ring = ctx.ring
    ncols = len(ctx.degrees)
    pos, expt = next(iter(vec))
    degree = ctx.degrees[pos] + ring.weighted_degree(expt)
    tag_ctx = FreeContext(ring, ctx.degrees + (degree,), block=ncols)
    row = dict(vec)
    row[(ncols, (0,) * ring.nvars)] = ring.field.one
    basis = buchberger_module(list(rows) + [row], tag_ctx)
    return HomIdeal(ring, [
        Polynomial(ring, {e: c for (_, e), c in v.items()})
        for v in basis
        if all(p == ncols for p, _ in v)
    ])


def ideal_quotient(ideal: HomIdeal, f: Polynomial) -> HomIdeal:
    """The transporter (ideal : f) = {g | g*f in ideal}."""
    if f.is_zero():
        raise InputError("quotient by the zero polynomial")
    require_homogeneous(f, "quotient divisor")
    ring = ideal.ring
    if f.ring != ring:
        raise InputError("polynomial ring mismatch")
    rows = [poly_to_vec(g) for g in ideal.generators]
    return colon(rows, poly_to_vec(f), FreeContext(ring, (0,)))


def ideal_intersection(first: HomIdeal, second: HomIdeal) -> HomIdeal:
    """The intersection as the colon (first*e_0 + second*e_1 : e_0 + e_1) in R^2."""
    ring = first.ring
    if second.ring != ring:
        raise InputError("ideal ring mismatch")
    rows = [poly_to_vec(g, 0) for g in first.generators]
    rows += [poly_to_vec(g, 1) for g in second.generators]
    diagonal = poly_to_vec(ring.one(), 0)
    diagonal.update(poly_to_vec(ring.one(), 1))
    return colon(rows, diagonal, FreeContext(ring, (0, 0)))


def module_syzygies(matrix, row_degrees, col_degrees, ring: GradedRing):
    """Generators of the kernel of the free-module map defined by the matrix.

    matrix[i][j] maps source generator i (degree row_degrees[i]) into target
    generator j (degree col_degrees[j]); each entry must be homogeneous of
    degree row_degrees[i] - col_degrees[j], or zero.  Returns a list of
    kernel vectors, each a tuple of polynomials over the source index.
    """
    row_degrees = tuple(row_degrees)
    col_degrees = tuple(col_degrees)
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != len(col_degrees):
            raise InputError(f"row {i} has {len(row)} entries, expected {len(col_degrees)}")
        vec = {}
        for j, entry in enumerate(row):
            if entry.is_zero():
                continue
            if entry.ring != ring:
                raise InputError("matrix entry from a different ring")
            d = entry.homogeneous_degree()
            if d is None or d != row_degrees[i] - col_degrees[j]:
                raise InputError(
                    f"entry ({i}, {j}) = {entry} is not homogeneous of degree "
                    f"{row_degrees[i] - col_degrees[j]}"
                )
            for expt, c in entry.terms.items():
                vec[(j, expt)] = c
        rows.append(vec)
    ctx = FreeContext(ring, col_degrees)
    syzygies, _ = syzygy_module(rows, row_degrees, ctx)
    out = []
    for syz in syzygies:
        out.append(tuple(vec_component(syz, i, ring) for i in range(len(matrix))))
    return out
