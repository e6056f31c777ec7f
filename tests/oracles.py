"""Independent brute-force oracles: exact linear algebra on monomial bases.

Nothing here touches the Groebner engine; membership, syzygy and Hilbert
questions are answered by row reduction over the coefficient field, degree by
degree, so these can referee the engine's answers.  A module oracle reads
only `ring`, `gens` and `relations`, so it takes a `GradedModule` or a raw
`Presentation` alike.  The two module constructors at the end only
rearrange presentations.
"""

from ttgkit.modules import GradedModule


class ExactSpan:
    """Incremental reduced row echelon span over an exact field."""

    def __init__(self, field):
        self.field = field
        self.pivots = []  # (pivot key, vector normalized to 1 at key)

    def reduce(self, vec):
        field = self.field
        vec = {k: c for k, c in vec.items() if c != 0}
        for key, pivot in self.pivots:
            c = vec.get(key)
            if not c:
                continue
            for k2, c2 in pivot.items():
                s = field.sub(vec.get(k2, field.zero), field.mul(c, c2))
                if s == 0:
                    vec.pop(k2, None)
                else:
                    vec[k2] = s
        return vec

    def add(self, vec) -> bool:
        vec = self.reduce(vec)
        if not vec:
            return False
        key = max(vec)
        inv = self.field.inv(vec[key])
        vec = {k: self.field.mul(inv, c) for k, c in vec.items()}
        for _, pivot in self.pivots:
            c = pivot.get(key)
            if c:
                for k2, c2 in vec.items():
                    s = self.field.sub(pivot.get(k2, self.field.zero),
                                       self.field.mul(c, c2))
                    if s == 0:
                        pivot.pop(k2, None)
                    else:
                        pivot[k2] = s
        self.pivots.append((key, vec))
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.pivots)


def poly_vector(p, position=0):
    return {(position, expt): c for expt, c in p.terms.items()}


class Presentation:
    """Generator degrees and relation columns exactly as given, unpruned."""

    def __init__(self, ring, gens, relations):
        self.ring = ring
        self.gens = tuple(gens)
        self.relations = [dict(col) for col in relations]


def relation_span_data(module):
    """Vectors and degrees of the nonzero relation columns of a presentation."""
    vectors, degrees = [], []
    for col in module.relations:
        entries = [(i, p) for i, p in dict(col).items() if not p.is_zero()]
        if entries:
            vectors.append({k: c for i, p in entries for k, c in poly_vector(p, i).items()})
            i, p = entries[0]
            degrees.append(p.homogeneous_degree() + module.gens[i])
    return vectors, degrees


def term_order_compare(ring, degrees, block, a, b) -> int:
    """-1, 0 or 1 as the term a is smaller than, equal to or bigger than b.

    A term is (position, exponents) in a free module whose basis vector at
    a position has the degree `degrees[position]`; the positions from
    `block` on form the tag block.  The order is the one the Groebner engine
    documents, bigger first: a leading-block term beats a tag-block term;
    then the larger total degree (weighted degree plus position degree);
    then the larger weighted degree; then, at the last variable where the
    exponents differ, the smaller exponent wins; then the lower position.
    """
    (pos_a, expt_a), (pos_b, expt_b) = a, b
    weighted_a, weighted_b = ring.weighted_degree(expt_a), ring.weighted_degree(expt_b)
    for first, second in ((pos_a < block, pos_b < block),
                          (weighted_a + degrees[pos_a], weighted_b + degrees[pos_b]),
                          (weighted_a, weighted_b)):
        if first != second:
            return 1 if first > second else -1
    for i in reversed(range(ring.nvars)):
        if expt_a[i] != expt_b[i]:
            return 1 if expt_a[i] < expt_b[i] else -1
    if pos_a != pos_b:
        return 1 if pos_a < pos_b else -1
    return 0


def membership_oracle(f, generators) -> bool:
    """Is f a combination sum g_i h_i with homogeneous h_i?  Degree-bounded solve."""
    ring = f.ring
    if f.is_zero():
        return True
    degree = f.homogeneous_degree()
    span = ExactSpan(ring.field)
    for g in generators:
        gdeg = g.homogeneous_degree()
        if gdeg is None or gdeg > degree:
            continue
        for m in ring.monomials_of_weight(degree - gdeg):
            shifted = {
                tuple(a + b for a, b in zip(m, expt)): c for expt, c in g.terms.items()
            }
            span.add({(0, k): c for k, c in shifted.items()})
    return span.contains(poly_vector(f))


def module_degree_span(vectors, vector_degrees, ring, degree):
    """Span of all monomial multiples of the vectors landing in one degree."""
    span = ExactSpan(ring.field)
    for vec, vdeg in zip(vectors, vector_degrees):
        if vdeg > degree:
            continue
        for m in ring.monomials_of_weight(degree - vdeg):
            shifted = {
                (pos, tuple(a + b for a, b in zip(m, expt))): c
                for (pos, expt), c in vec.items()
            }
            span.add(shifted)
    return span


def syzygy_space_dimension(rows, row_degrees, ring, degree):
    """Dimension of homogeneous vectors a of the given total degree with
    sum_i a_i rows[i] = 0, by nullspace computation over the monomial basis.

    Image keys are tagged with 1 and bookkeeping keys with 0 so that pivots
    are always chosen in the image block.
    """
    unknowns = []
    for i, rdeg in enumerate(row_degrees):
        if rdeg > degree:
            continue
        for m in ring.monomials_of_weight(degree - rdeg):
            unknowns.append((i, m))
    pivots = ExactSpan(ring.field)
    nullity = 0
    for i, m in unknowns:
        image = {}
        for (pos, expt), c in rows[i].items():
            key = (1, pos, tuple(a + b for a, b in zip(m, expt)))
            s = ring.field.add(image.get(key, ring.field.zero), c)
            if s == 0:
                image.pop(key, None)
            else:
                image[key] = s
        image[(0, i, m)] = ring.field.one
        reduced = pivots.reduce(image)
        if all(k[0] == 0 for k in reduced):
            nullity += 1
        else:
            pivots.add(image)
    return nullity


def hilbert_oracle(module, degree) -> int:
    """Row-reduction dimension count over the monomial basis of generators."""
    ring = module.ring
    total = sum(len(ring.monomials_of_weight(degree - d)) for d in module.gens)
    span = module_degree_span(*relation_span_data(module), ring, degree)
    return total - span.rank


def annihilator_dimension_oracle(module, degree, indices=None) -> int:
    """dim_k {f in R_degree : f * e_i in N for every generator e_i}.

    N is the relation span of the given presentation.  The map sending f to
    the classes of f * e_i in each (F / N)_(degree + deg e_i) is linear; each
    class is the reduced remainder against that degree's span of N, keyed by
    generator so the summands stay apart.  The annihilator in this degree is
    the kernel of that map.  With `indices`, only those generators e_i are
    asked to be killed: for a single index i this is dim (N : e_i)_degree.
    """
    ring = module.ring
    if indices is None:
        indices = range(len(module.gens))
    monomials = ring.monomials_of_weight(degree)
    vectors, degrees = relation_span_data(module)
    spans = {}
    for d in {module.gens[i] for i in indices}:
        spans[d] = module_degree_span(vectors, degrees, ring, degree + d)
    image = ExactSpan(ring.field)
    for m in monomials:
        vec = {}
        for i in indices:
            remainder = spans[module.gens[i]].reduce({(i, m): ring.field.one})
            vec.update({(i, key): c for key, c in remainder.items()})
        image.add(vec)
    return len(monomials) - image.rank


def direct_sum_modules(first, second):
    """M (+) N: the generators side by side, each relation on its own block."""
    offset = len(first.gens)
    cols = [dict(col) for col in first.relations]
    cols += [{i + offset: p for i, p in col} for col in second.relations]
    return GradedModule(first.ring, first.gens + second.gens, cols)


def shift_module(module, k):
    """The same module with every generator degree raised by k."""
    return GradedModule(
        module.ring,
        tuple(d + k for d in module.gens),
        [dict(col) for col in module.relations],
    )
