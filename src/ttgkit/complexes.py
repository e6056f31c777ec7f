"""Perfect complexes over the graded ring viewed as a formal dg-algebra.

A complex is one graded free module with a square-zero degree-+1
differential; the ring's internal grading and the suspension merge into a
single total grading because the differential of the algebra itself is zero.

Conventions, fixed once:
  * matrices are row-per-source: rows[i][j] is the coefficient of target
    generator j in the image of source generator i;
  * shift(X, k) lowers generator degrees by k and scales the differential
    by (-1)^k;
  * cone(u: X -> Y) is shift(X, 1) ++ Y with differential blocks
    [[-D_X, u], [0, D_Y]] in row-per-source form.
Under these choices the explicit null homotopy of a central action on its
own cone satisfies D*H + H*D = -G exactly; see action_null_homotopy.

`PerfectComplex(...)` and `ChainMap(...)` check every input.  The
constructors below build from valid inputs, where homogeneity, d^2 = 0 and
commutation hold by construction, and check only their arguments.
"""

import random
from functools import lru_cache
from operator import itemgetter

from .errors import HomogeneityError, InputError, InternalError
from .groebner import FreeContext, row_to_vec, syzygy_module, vec_to_row
from .modules import GradedModule
from .rings import GradedRing, Polynomial


def _canon_rows(ring, nrows, ncols, entries, label):
    """Normalize {(i, j): poly} into a hashable sparse row tuple.

    `label` names the matrix ("differential", "chain map", "homotopy") in the
    errors for an index outside nrows x ncols or an entry from another ring.
    """
    rows = [dict() for _ in range(nrows)]
    for (i, j), p in entries.items():
        if p.is_zero():
            continue
        if not (0 <= i < nrows and 0 <= j < ncols):
            raise InputError(f"{label} entry ({i}, {j}) out of range")
        if p.ring != ring:
            raise InputError(f"{label} entry from a different ring")
        rows[i][j] = p
    return tuple(tuple(sorted(r.items())) for r in rows)


def _check_degrees(rows, source_degrees, target_degrees, offset, at):
    """Require entry (i, j) homogeneous of degree source[i] - target[j] + offset.

    `at(i, j)` names the entry in the error.
    """
    for i, row in enumerate(rows):
        for j, p in row:
            expected = source_degrees[i] - target_degrees[j] + offset
            if p.homogeneous_degree() != expected:
                raise HomogeneityError(
                    f"{at(i, j)} = {p} must be homogeneous of degree {expected}"
                )


def _map_rows(label, source, target, entries, offset):
    """Checked rows of a map source -> target of degree `offset`."""
    if source.ring != target.ring:
        raise InputError(f"{label} ring mismatch")
    rows = _canon_rows(source.ring, len(source), len(target), entries, label)
    _check_degrees(rows, source.degrees, target.degrees, offset,
                   lambda i, j: f"{label} entry ({i}, {j})")
    return rows


def _defect(terms, plain=None):
    """Nonzero entries (i, k, p) of sum(sign * A*B for sign, A, B in terms) + plain.

    A, B and plain are row matrices; A*B applies A then B.  The entries come
    sorted by row, then column.
    """
    out = [dict(row) for row in plain] if plain else [{} for _ in terms[0][1]]
    for sign, first, second in terms:
        for i, row in enumerate(first):
            acc = out[i]
            for j, p in row:
                if sign < 0:
                    p = -p
                for k, q in second[j]:
                    prev = acc.get(k)
                    pq = p * q
                    acc[k] = pq if prev is None else prev + pq
    nonzero = [(i, k, p) for i, acc in enumerate(out)
               for k, p in acc.items() if not p.is_zero()]
    nonzero.sort(key=lambda entry: entry[:2])
    return nonzero


def _fill(obj, *fields):
    """Store fields in the slots of obj, in slot order, and return obj."""
    for slot, value in zip(type(obj).__slots__, fields, strict=True):
        setattr(obj, slot, value)
    return obj


def _moved(row, col0=0, negate=False):
    """A canonical row with every column moved by col0, negated on request."""
    return tuple((j + col0, -p if negate else p) for j, p in row)


class PerfectComplex:
    """A semifree dg-module: graded free module plus square-zero differential."""

    __slots__ = ("ring", "degrees", "names", "rows", "_hash")

    def __init__(self, ring: GradedRing, degrees, entries=None, names=None):
        degrees = tuple(int(d) for d in degrees)
        n = len(degrees)
        names = tuple(f"g{i}" for i in range(n)) if names is None else tuple(names)
        if len(names) != n or len(set(names)) != n:
            raise InputError("generator names must be distinct and match degrees")
        rows = _canon_rows(ring, n, n, entries or {}, "differential")
        _fill(self, ring, degrees, names, rows, None)
        self._validate()

    def _validate(self):
        names = self.names
        _check_degrees(self.rows, self.degrees, self.degrees, 1,
                       lambda i, j: f"differential entry {names[i]} -> {names[j]}")
        square = _defect([(1, self.rows, self.rows)])
        if square:
            i, j, p = square[0]
            raise InputError(
                f"differential does not square to zero at ({names[i]}, {names[j]}): {p}"
            )

    def entry(self, i: int, j: int) -> Polynomial:
        for k, p in self.rows[i]:
            if k == j:
                return p
        return self.ring.zero()

    def __len__(self):
        return len(self.degrees)

    def __eq__(self, other):
        return (
            isinstance(other, PerfectComplex)
            and self.ring == other.ring
            and self.degrees == other.degrees
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, self.degrees, self.rows))
        return self._hash

    def __repr__(self):
        return f"PerfectComplex(degrees={self.degrees})"

    def probe_window(self):
        """Default degree window for Hilbert-level displays and checks."""
        margin = 2 * self.ring.max_weight
        lo = min(self.degrees, default=0) - margin
        hi = max(self.degrees, default=0) + margin
        return lo, hi

    def to_json_dict(self):
        entries = []
        for i, row in enumerate(self.rows):
            for j, p in row:
                entries.append({"from": self.names[i], "to": self.names[j], "coef": str(p)})
        entries.sort(key=lambda e: (e["from"], e["to"]))
        return {
            "gens": [{"name": n, "degree": d} for n, d in zip(self.names, self.degrees)],
            "d": entries,
        }


def validate(complex_: PerfectComplex) -> None:
    """Run the checks of the public constructor (homogeneity and d^2 = 0)."""
    complex_._validate()


def _complex(ring, degrees, names, rows) -> PerfectComplex:
    """A complex on canonical rows (sorted by column, no zero entries) that are
    valid by construction, so it skips the checks of `PerfectComplex`."""
    return _fill(PerfectComplex.__new__(PerfectComplex), ring, degrees, names, rows, None)


def unit_complex(ring: GradedRing) -> PerfectComplex:
    return _complex(ring, (0,), ("e",), ((),))


def shift(complex_: PerfectComplex, k: int) -> PerfectComplex:
    if k == 0:
        return complex_
    rows = complex_.rows
    if k % 2:
        rows = tuple(_moved(row, negate=True) for row in rows)
    return _complex(complex_.ring, tuple(d - k for d in complex_.degrees),
                    complex_.names, rows)


def direct_sum(first: PerfectComplex, second: PerfectComplex) -> PerfectComplex:
    if first.ring != second.ring:
        raise InputError("complex ring mismatch")
    n = len(first)
    rows = first.rows + tuple(_moved(row, n) for row in second.rows)
    names = tuple(f"a.{nm}" for nm in first.names) + tuple(f"b.{nm}" for nm in second.names)
    return _complex(first.ring, first.degrees + second.degrees, names, rows)


class ChainMap:
    """A degree-zero map of complexes commuting with the differentials."""

    __slots__ = ("source", "target", "rows")

    def __init__(self, source: PerfectComplex, target: PerfectComplex, entries):
        _fill(self, source, target, _map_rows("chain map", source, target, entries, 0))
        self._check_commutes()

    def _check_commutes(self):
        defect = _defect([(1, self.rows, self.target.rows), (-1, self.source.rows, self.rows)])
        if defect:
            i, k, _ = defect[0]
            raise InputError(f"chain map does not commute with differentials at ({i}, {k})")


class Homotopy:
    """A degree -1 map; its defining identity is the producing operation's contract."""

    __slots__ = ("source", "target", "rows")

    def __init__(self, source: PerfectComplex, target: PerfectComplex, entries):
        _fill(self, source, target, _map_rows("homotopy", source, target, entries, -1))


def cone(u: ChainMap) -> PerfectComplex:
    """Mapping cone: shift(source, 1) ++ target, blocks [[-D_X, u], [0, D_Y]]."""
    x, y = u.source, u.target
    n = len(x)
    rows = tuple(_moved(dx, negate=True) + _moved(ux, n) for dx, ux in zip(x.rows, u.rows))
    rows += tuple(_moved(row, n) for row in y.rows)
    degrees = tuple(d - 1 for d in x.degrees) + y.degrees
    names = tuple(f"x.{nm}" for nm in x.names) + tuple(f"y.{nm}" for nm in y.names)
    return _complex(x.ring, degrees, names, rows)


def central_action(f: Polynomial, complex_: PerfectComplex) -> ChainMap:
    """The chain map f . X : shift(X, -|f|) -> X given by the central action."""
    d = f.homogeneous_degree()
    if d is None:
        if f.is_zero():
            return ChainMap(complex_, complex_, {})
        raise HomogeneityError(f"central action of inhomogeneous element {f}")
    if f.ring != complex_.ring:
        raise InputError("chain map entry from a different ring")
    # f is central and of degree d, so f * I commutes with the differential
    # and is homogeneous of degree zero as a map shift(X, -d) -> X.
    rows = tuple(((i, f),) for i in range(len(complex_)))
    return _fill(ChainMap.__new__(ChainMap), shift(complex_, -d), complex_, rows)


def koszul_object(complex_: PerfectComplex, sequence) -> PerfectComplex:
    """Iterated cone of central actions, left to right."""
    out = complex_
    for f in sequence:
        out = cone(central_action(f, out))
    return out


def tensor(first: PerfectComplex, second: PerfectComplex) -> PerfectComplex:
    """Tensor product with the Koszul sign on the second differential block."""
    if first.ring != second.ring:
        raise InputError("complex ring mismatch")
    nb = len(second)
    degrees = []
    names = []
    rows = []
    for i, (di, row) in enumerate(zip(first.degrees, first.rows)):
        for j, dj in enumerate(second.degrees):
            degrees.append(di + dj)
            names.append(f"{first.names[i]}&{second.names[j]}")
            # The diagonal block is disjoint from the entries of the first
            # differential: weights are even, so no differential has a
            # (degree 1) diagonal entry.
            entries = [(k * nb + j, p) for k, p in row]
            entries += _moved(second.rows[j], i * nb, negate=di % 2)
            rows.append(tuple(sorted(entries, key=itemgetter(0))))
    return _complex(first.ring, tuple(degrees), tuple(names), tuple(rows))


# --- cohomology ---------------------------------------------------------------


@lru_cache(maxsize=1024)
def cohomology(complex_: PerfectComplex) -> GradedModule:
    """Exact presentation of ker D / im D as a graded module.

    Kernel generators come from one syzygy pass over the differential rows;
    a second augmented pass over the kernel generators yields both their
    internal syzygies and the division data expressing each image row in
    terms of them.  No truncation anywhere.
    """
    ring = complex_.ring
    ctx = FreeContext(ring, complex_.degrees)
    rows = [row_to_vec(row) for row in complex_.rows]
    row_degrees = [d + 1 for d in complex_.degrees]
    kernel_gens, _ = syzygy_module(rows, row_degrees, ctx)
    kernel_degrees = [ctx.degree(vec) for vec in kernel_gens]
    kernel_syzygies, lift = syzygy_module(kernel_gens, kernel_degrees, ctx)
    columns = [vec_to_row(syz, ring) for syz in kernel_syzygies]
    for vec in rows:
        if not vec:
            continue
        remainder, coeffs = lift.divide(vec)
        if remainder:
            raise InternalError("image vector failed to lift into the kernel")
        columns.append(vec_to_row(coeffs, ring))
    return GradedModule(ring, tuple(kernel_degrees), columns)


def acts_as_zero_on_cohomology(f: Polynomial, complex_: PerfectComplex) -> bool:
    """True iff the central action of f induces zero on every cohomology class."""
    return cohomology(complex_).unkilled_generator(f) is None


def action_null_homotopy(f: Polynomial) -> Homotopy:
    """The explicit homotopy showing f acts as zero on the cone of f on the unit.

    With C = cone(f . 1) on generators (u, v) and G the induced action of f on
    C, the map H sending the shifted v to -u satisfies D*H + H*D = -G as an
    exact matrix identity under this package's sign conventions.
    """
    if f.is_zero():
        raise InputError("null homotopy of the zero action is the zero map on a sum")
    d = f.homogeneous_degree()
    if d is None:
        raise HomogeneityError(f"inhomogeneous element {f}")
    ring = f.ring
    mapping_cone = cone(central_action(f, unit_complex(ring)))
    shifted = shift(mapping_cone, -d)
    minus_one = ring.constant(-1)
    return Homotopy(shifted, mapping_cone, {(1, 0): minus_one})


def homotopy_defect(h: Homotopy, g: ChainMap):
    """Entries of D*H + H*D + G; all zero iff H is a null homotopy of -G."""
    return _defect([(1, h.rows, h.target.rows), (1, h.source.rows, h.rows)], g.rows)


def even_vanishing_check(f: Polynomial) -> bool:
    """H^n(cone(f . 1)) = 0 for every odd n in the probe window."""
    d = f.homogeneous_degree()
    if d is None or f.is_zero():
        raise HomogeneityError("even vanishing requires a nonzero homogeneous element")
    if d % 2 != 0:
        raise InputError("even vanishing requires an element of even degree")
    mapping_cone = cone(central_action(f, unit_complex(f.ring)))
    lo, hi = mapping_cone.probe_window()
    module = cohomology(mapping_cone)
    for n in range(lo, hi + 1):
        if n % 2 != 0 and module.hilbert_dimension(n) != 0:
            return False
    return True


# --- seeded instance generation ----------------------------------------------


def random_homogeneous(ring: GradedRing, rng: random.Random, max_degree=6,
                       monomial_only=False) -> Polynomial:
    """A nonzero homogeneous polynomial of a random even weighted degree
    <= max_degree that has monomials.

    When no even degree <= max_degree has a monomial, the polynomial has the
    smallest variable weight as its degree instead, which may exceed
    max_degree (a constant in a ring without variables).
    """
    degrees = [d for d in range(2, max_degree + 1, 2) if ring.monomials_of_weight(d)]
    if not degrees:
        degrees = [min(ring.weights, default=0)]
    degree = rng.choice(degrees)
    monomials = list(ring.monomials_of_weight(degree))
    if monomial_only:
        return ring.from_terms({rng.choice(monomials): 1})
    count = rng.randint(1, min(3, len(monomials)))
    chosen = rng.sample(monomials, count)
    terms = {}
    for expt in chosen:
        terms[expt] = rng.choice([-2, -1, 1, 1, 2, 3])
    p = ring.from_terms(terms)
    if p.is_zero():
        p = ring.from_terms({monomials[0]: 1})
    return p


def random_perfect_complex(ring: GradedRing, seed: int, max_gens: int = 10,
                           steps: int = 4, monomial_only: bool = False) -> PerfectComplex:
    """Deterministic-per-seed complex built from cones, shifts, sums, tensors.

    Trivial bounds (max_gens <= 1 or steps <= 0) give the unit complex, the
    base case of the builder.  All outputs pass validation by construction.
    """
    rng = random.Random(seed)
    one = unit_complex(ring)
    if max_gens <= 1 or steps <= 0:
        return one

    def block():
        roll = rng.random()
        if roll < 0.25:
            return one
        if roll < 0.35:
            # contractible: the cone of the identity on the unit
            return cone(central_action(ring.one(), one))
        f = random_homogeneous(ring, rng, monomial_only=monomial_only)
        return cone(central_action(f, one))

    current = block()
    for _ in range(steps):
        op = rng.choice(["shift", "sum", "koszul", "koszul", "tensor"])
        if op == "shift":
            current = shift(current, rng.randint(-2, 2))
        elif op == "sum":
            extra = block()
            if len(current) + len(extra) <= max_gens:
                current = direct_sum(current, shift(extra, rng.randint(-1, 1)))
        elif op == "koszul":
            if 2 * len(current) <= max_gens:
                f = random_homogeneous(ring, rng, monomial_only=monomial_only)
                current = cone(central_action(f, current))
        else:
            extra = block()
            if len(current) * len(extra) <= max_gens:
                current = tensor(current, extra)
    return current
