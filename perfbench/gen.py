"""Seeded input generation for the benchmark.

Inputs are plain data first: a workspace dict in the ttgkit JSON schema and
query recipes (lists of construction steps with polynomial strings).  Only
`Builder` and `workspace` touch ttgkit, through public constructors
(`unit_complex`, `cone`, `central_action`, `shift`, `direct_sum`, `tensor`,
`koszul_object`), `GradedRing.parse` and `PerfectComplex.to_json_dict`.  The program's own random generators are never used,
so a change to them cannot change the benchmark's inputs.
"""

import hashlib
import json
import random

QXY_VARS = (("x", 2), ("y", 2))
F5_VARS = (("x", 2), ("y", 2), ("z", 4))

QXY_PRIMES = (
    ("p0", ()),
    ("px", ("x",)),
    ("py", ("y",)),
    ("pd", ("x-y",)),
    ("pmax", ("x", "y")),
)
F5_PRIMES = tuple(
    (label, tuple(names))
    for label, names in (
        ("q0", ""), ("qx", "x"), ("qy", "y"), ("qz", "z"),
        ("qxy", "xy"), ("qxz", "xz"), ("qyz", "yz"), ("qxyz", "xyz"),
    )
)

# Named objects of the qxy catalogue, as recipes (see `build`).
QXY_OBJECTS = (
    ("unit", [["block", None]]),
    ("zero", [["block", "1"]]),
    ("cx", [["block", "x"]]),
    ("cy", [["block", "y"]]),
    ("cd", [["block", "x-y"]]),
    ("kxy", [["block", None], ["koszul", ["x", "y"]]]),
)


def sha256_of(items) -> str:
    """sha256 over the canonical JSON of each item, one per line."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def monomials(variables, weight):
    """Exponent tuples of the given weighted degree, in a fixed order."""
    out = []

    def rec(i, rest, prefix):
        if i == len(variables) - 1:
            w = variables[i][1]
            if rest % w == 0:
                out.append(tuple(prefix + [rest // w]))
            return
        for e in range(rest // variables[i][1] + 1):
            rec(i + 1, rest - e * variables[i][1], prefix + [e])

    if weight >= 0:
        rec(0, weight, [])
    return out


def format_poly(variables, terms) -> str:
    """Render {exponent: int coefficient} in the ttgkit polynomial grammar."""
    parts = []
    for expt, c in sorted(terms.items(), reverse=True):
        factors = []
        for (name, _), e in zip(variables, expt):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        body = "*".join(factors)
        magnitude = abs(c)
        if not body:
            body = str(magnitude)
        elif magnitude != 1:
            body = f"{magnitude}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign}{body}")
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


class PolyGen:
    """Random homogeneous polynomials over Q[x:2, y:2] with one or two terms."""

    def __init__(self, rng):
        self.rng = rng

    def poly(self, degree):
        mons = monomials(QXY_VARS, degree)
        chosen = self.rng.sample(mons, self.rng.randint(1, min(2, len(mons))))
        return format_poly(QXY_VARS, {m: self.rng.choice((-2, -1, 1, 2, 3)) for m in chosen})

    def block(self):
        """A one- or two-generator block: the unit, or a cone on the unit."""
        if self.rng.random() < 0.2:
            return None
        return self.poly(self.rng.choice((2, 2, 4)))


def random_recipe(polys: PolyGen, max_gens, min_gens=1, steps=4):
    """Cones, shifts, sums and small tensors, grown from one block.

    Tracks the generator count so the result has between min_gens and
    max_gens generators; restarts until it does.
    """
    rng = polys.rng
    while True:
        first = polys.block()
        recipe = [["block", first]]
        size = 1 if first is None else 2
        for _ in range(steps):
            op = rng.choice(["shift", "sum", "cone", "cone", "tensor"])
            if op == "shift":
                recipe.append(["shift", rng.randint(-2, 2)])
            elif op == "sum":
                extra = polys.block()
                extra_size = 1 if extra is None else 2
                if size + extra_size <= max_gens:
                    recipe.append(["sum", extra, rng.randint(-1, 1)])
                    size += extra_size
            elif op == "cone":
                if 2 * size <= max_gens:
                    recipe.append(["cone", polys.poly(rng.choice((2, 4)))])
                    size *= 2
            else:
                extra = polys.block()
                extra_size = 1 if extra is None else 2
                if size * extra_size <= max_gens:
                    recipe.append(["tensor", extra])
                    size *= extra_size
        if size >= min_gens:
            return recipe


def workspace(variables, char, primes, objects):
    """Workspace dict in the JSON schema; `objects` maps names to complexes."""
    return {
        "ring": {"char": char, "vars": [{"name": n, "degree": w} for n, w in variables]},
        "primes": [
            {"name": name, "gens": list(gens), "seq": list(gens), "cert": "1"}
            for name, gens in primes
        ],
        "complexes": [dict(c.to_json_dict(), name=name) for name, c in objects.items()],
    }


class Builder:
    """Turns recipes into ttgkit complexes through public constructors only."""

    def __init__(self, ttgkit, ring):
        self.t = ttgkit
        self.ring = ring
        self.one = ttgkit.unit_complex(ring)

    def poly(self, text):
        return self.ring.parse(text)

    def block(self, spec):
        if spec is None:
            return self.one
        return self.t.cone(self.t.central_action(self.poly(spec), self.one))

    def build(self, recipe, named=None):
        t = self.t
        current = None
        for step in recipe:
            op = step[0]
            if op == "block":
                current = self.block(step[1])
            elif op == "named":
                current = named[step[1]]
            elif op == "shift":
                current = t.shift(current, step[1])
            elif op == "sum":
                current = t.direct_sum(current, t.shift(self.block(step[1]), step[2]))
            elif op == "sum_named":
                current = t.direct_sum(current, t.shift(named[step[1]], step[2]))
            elif op == "cone":
                current = t.cone(t.central_action(self.poly(step[1]), current))
            elif op == "tensor":
                current = t.tensor(current, self.block(step[1]))
            elif op == "tensor_named":
                current = t.tensor(current, named[step[1]])
            elif op == "koszul":
                current = t.koszul_object(current, [self.poly(s) for s in step[1]])
            else:
                raise ValueError(f"unknown recipe step {op!r}")
        return current


def seeded_rng(seed, label):
    return random.Random(f"{label}:{seed}")
