"""The four workloads: inputs, the query each one times, and its referee.

In-process workloads share one shape.  `queries()` yields prepared queries
(built outside the timed phase), `ask` is the timed call into ttgkit, `key`
is the part of an answer that `output_sha256` covers, and `referee` checks
answers after the timed phase through an independent route.  The command-line
workload (`CliColdF5`) has its own loop in run.py; this module gives it the
workspace and the command sequence.
"""

import itertools
import json
from array import array

import gen
from referee import ComplexRanks

HILBERT_WINDOW = 30      # cohomology-q asks for dimension_table(-30, 30)
FULL_REFEREE = 16        # cohomology-q: queries refereed in every degree
POOL_BUILT = 18          # thick-reuse-q: pool objects besides the named six
# cli-cold-f5 rotates through these suites.  supp-agreement is left out: one
# instance costs as much as seven `validate` commands, which would leave fewer
# than 100 commands in a run, and support-fresh-q referees its identity on
# every query.
CHECK_SUITES = (
    "residue-cohomology", "even-vanishing", "zero-action", "nakayama",
    "vector-space", "decomposition", "detection", "homotopy",
    "minimality-surrogate",
)


def qxy_workspace(t, ring):
    builder = gen.Builder(t, ring)
    named = {name: builder.build(recipe) for name, recipe in gen.QXY_OBJECTS}
    return gen.workspace(gen.QXY_VARS, 0, gen.QXY_PRIMES, named)


class InProcess:
    """Common plumbing: a qxy workspace and a seeded stream of recipes."""

    name = None

    def __init__(self, t, seed):
        self.t = t
        self.seed = seed
        self.ring = t.GradedRing(t.Field(0), gen.QXY_VARS)
        self.workspace = qxy_workspace(t, self.ring)
        self.catalogue = None
        self.builder = None

    def setup(self, catalogue):
        self.catalogue = catalogue
        self.builder = gen.Builder(self.t, catalogue.ring)

    def recipes(self):
        raise NotImplementedError

    def input_items(self):
        """What input_sha256 covers: the workspace and the first 4096 recipes."""
        return [self.workspace] + list(itertools.islice(self.recipes(), 4096))

    def queries(self):
        """Distinct complexes, so no query is a cache hit on another."""
        seen = set()
        for recipe in self.recipes():
            obj = self.builder.build(recipe)
            if obj not in seen:
                seen.add(obj)
                yield obj

    missing = None          # the stored key of a query that failed

    def answer_store(self):
        return []

    def key(self, answer):
        return answer


class SupportFreshQ(InProcess):
    name = "support-fresh-q"

    def recipes(self):
        rng = gen.seeded_rng(self.seed, self.name)
        polys = gen.PolyGen(rng)
        while True:
            yield gen.random_recipe(polys, max_gens=6, min_gens=2)

    def ask(self, obj):
        support = self.catalogue.support(obj)
        return {"names": list(support.names()), "minimal": list(support.ideal_strings())}

    def referee(self, answers):
        """Residue route against the module route (supp-agreement)."""
        primes = self.catalogue.primes
        failures = []
        for i, (obj, answer) in enumerate(zip(self.queries(), answers)):
            if answer is None:
                continue
            expected = self.t.support_of_module(self.t.cohomology(obj), primes)
            if list(expected.names()) != answer["names"]:
                failures.append((i, f"support {answer['names']} != module route "
                                    f"{list(expected.names())}"))
        return failures


class CohomologyQ(InProcess):
    name = "cohomology-q"

    def recipes(self):
        rng = gen.seeded_rng(self.seed, self.name)
        polys = gen.PolyGen(rng)
        while True:
            yield gen.random_recipe(polys, max_gens=25, min_gens=12, steps=8)

    def ask(self, obj):
        """The payload of `ttgkit cohomology NAME --max-degree 30`."""
        module = self.t.cohomology(obj)
        return {
            "module": module.to_json_dict(),
            "annihilator": list(module.annihilator().display_basis()),
            "hilbert": module.dimension_table(-HILBERT_WINDOW, HILBERT_WINDOW).to_json_dict(),
        }

    def key(self, answer):
        # Module invariants only: a smaller presentation is not a change.
        return {"annihilator": answer["annihilator"], "hilbert": answer["hilbert"]}

    def referee(self, answers):
        """Hilbert tables against exact ranks on monomial bases.

        The first FULL_REFEREE queries are checked in every degree of the
        window; every later query in one seeded degree.
        """
        failures = []
        rng = gen.seeded_rng(self.seed, "cohomology-q-referee")
        lo = -HILBERT_WINDOW
        for i, (obj, answer) in enumerate(zip(self.queries(), answers)):
            if answer is None:
                continue
            ranks = ComplexRanks(obj, gen.QXY_VARS)
            dims = answer["hilbert"]["dims"]
            if i < FULL_REFEREE:
                degrees = range(lo, HILBERT_WINDOW + 1)
            else:
                degrees = [rng.randint(lo, HILBERT_WINDOW)]
            for n in degrees:
                expected = ranks.hilbert(n)
                if dims[n - lo] != expected:
                    failures.append((i, f"H^{n} has dimension {expected}, "
                                        f"table says {dims[n - lo]}"))
                    break
        return failures


class ThickReuseQ(InProcess):
    """in_thick over a fixed pool, shaped like the closure-soundness criterion."""

    name = "thick-reuse-q"

    def pool_recipes(self):
        """The same pool for every seed; the seed drives the query stream."""
        rng = gen.seeded_rng(0, self.name + "-pool")
        polys = gen.PolyGen(rng)
        names = [name for name, _ in gen.QXY_OBJECTS]
        sizes = {"unit": 1, "zero": 2, "cx": 2, "cy": 2, "cd": 2, "kxy": 4}
        recipes = [[["named", name]] for name in names]
        while len(recipes) < len(names) + POOL_BUILT:
            gens = rng.sample(names, rng.randint(1, 3))
            recipe = [["named", gens[0]]]
            size = sizes[gens[0]]
            for _ in range(rng.randint(1, 6)):
                op = rng.choice(["cone", "shift", "sum", "tensor"])
                if op == "shift":
                    recipe.append(["shift", rng.randint(-1, 1)])
                elif op == "sum":
                    other = rng.choice(gens)
                    if size + sizes[other] <= 8:
                        recipe.append(["sum_named", other, rng.randint(-1, 1)])
                        size += sizes[other]
                elif op == "cone":
                    if 2 * size <= 8:
                        recipe.append(["cone", polys.poly(rng.choice((2, 4)))])
                        size *= 2
                else:
                    other = rng.choice(names)
                    if size * sizes[other] <= 8:
                        recipe.append(["tensor_named", other])
                        size *= sizes[other]
            recipes.append(recipe)
        return recipes

    def recipes(self):
        """Query recipes: a target and one to three generators, by pool index."""
        rng = gen.seeded_rng(self.seed, self.name)
        size = len(gen.QXY_OBJECTS) + POOL_BUILT
        while True:
            yield [rng.randrange(size), [rng.randrange(size) for _ in range(rng.randint(1, 3))]]

    def input_items(self):
        return [self.workspace, self.pool_recipes()] + list(
            itertools.islice(self.recipes(), 4096))

    def setup(self, catalogue):
        super().setup(catalogue)
        self.pool = [self.builder.build(r, catalogue.objects) for r in self.pool_recipes()]

    def queries(self):
        return self.recipes()

    missing = -1

    def answer_store(self):
        return array("b")   # hundreds of thousands of answers, one byte each

    def ask(self, query):
        target, gens = query
        return self.t.in_thick(self.catalogue, self.pool[target],
                               [self.pool[g] for g in gens])

    def key(self, answer):
        return int(answer)

    def referee(self, answers):
        """Answers against containment of the module-route supports."""
        from ttgkit.spectrum import module_supported_primes

        primes = self.catalogue.primes
        supports = [
            {p.name for p in module_supported_primes(self.t.cohomology(x), primes)}
            for x in self.pool
        ]
        failures = []
        for i, ((target, gens), answer) in enumerate(zip(self.recipes(), answers)):
            if answer == self.missing:
                continue
            union = set().union(*(supports[g] for g in gens))
            if answer != (supports[target] <= union):
                failures.append((i, f"in_thick({target}, {gens}) = {answer}"))
        return failures


class CliColdF5:
    """Inputs for the command-line workload over F5[x:2, y:2, z:4].

    The workspace has fixed shapes: the unit, two cones, a Koszul object and
    a sum.  The seed picks the nonzero coefficients and whether x and y
    trade places, which the eight monomial primes treat symmetrically, so
    every seed asks for the same amount of algebra.
    """

    name = "cli-cold-f5"

    def __init__(self, t, seed):
        self.seed = seed
        ring = t.GradedRing(t.Field(5), gen.F5_VARS)
        builder = gen.Builder(t, ring)
        rng = gen.seeded_rng(seed, self.name)
        a, b = ("x", "y") if rng.random() < 0.5 else ("y", "x")
        c = [rng.randint(1, 4) for _ in range(5)]
        recipes = {
            "c1": [["block", f"{c[0]}*{a}*{b}"]],
            "c2": [["block", f"{c[1]}*z+{c[2]}*{a}^2"]],
            "k1": [["block", None], ["koszul", [a, f"{c[3]}*z"]]],
            "s1": [["block", f"{c[4]}*{b}"], ["sum", None, 2]],
        }
        objects = {"unit": builder.one}
        objects.update((name, builder.build(r)) for name, r in recipes.items())
        self.objects = sorted(objects)
        self.workspace = gen.workspace(gen.F5_VARS, 5, gen.F5_PRIMES, objects)
        self.elements = [f"{c[0]}*{b}", f"{c[1]}*z", f"{c[2]}*{a}*{b}", f"{c[3]}*{a}^2"]

    def commands(self):
        """An endless closed-loop command sequence, a fixed 40-command cycle.

        Arguments rotate through the objects, primes, Koszul elements and the
        suites, each check with `--n 1` and a suite seed fixed by its
        position, so every seed runs the same mix.  The three heaviest kinds
        (`koszul`, `classify`/`report`, `check nakayama`) are about 6% of the
        cycle, so p90 falls inside the `support`/`check` band, not on the
        edge between two bands where a small shift moves it by half.
        """
        primes = itertools.cycle(name for name, _ in gen.F5_PRIMES)
        objects = itertools.cycle(self.objects)
        elements = itertools.cycle(self.elements)
        suites = itertools.cycle(CHECK_SUITES)
        summaries = itertools.cycle(["classify", "report"])
        cycle = ("validate", "cohomology", "residue", "support", "validate",
                 "cohomology", "check", "residue", "validate", "koszul",
                 "cohomology", "residue", "validate", "check", "validate",
                 "support", "cohomology", "residue", "check", "validate",
                 "residue", "cohomology", "validate", "summary", "residue",
                 "validate", "support", "cohomology", "residue", "check",
                 "validate", "residue", "cohomology", "validate", "support",
                 "residue", "check", "validate", "cohomology", "validate")
        for index, kind in enumerate(itertools.cycle(cycle)):
            if kind == "validate":
                yield ["validate"]
            elif kind in ("cohomology", "support"):
                yield [kind, next(objects)]
            elif kind == "residue":
                yield ["residue", next(primes)]
            elif kind == "koszul":
                yield ["koszul", next(objects), next(elements)]
            elif kind == "summary":
                yield [next(summaries)]
            else:
                yield ["check", next(suites), "--seed", str(index % 7), "--n", "1"]

    def input_items(self):
        return [self.workspace] + list(itertools.islice(self.commands(), 4096))

    @staticmethod
    def check_output(command, code, stdout):
        """None if the command's result is as expected, else the reason."""
        if code != 0:
            return f"exit code {code}"
        try:
            payload = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                               ensure_ascii=False) + "\n"
        if stdout != canonical.encode("utf-8"):
            return "stdout is not canonical JSON"
        if command[0] == "check" and payload.get("failed") != 0:
            return f"check reported failed={payload.get('failed')}"
        if command[0] == "validate" and payload.get("ok") is not True:
            return "validate did not report ok"
        return None


IN_PROCESS = {cls.name: cls for cls in (SupportFreshQ, CohomologyQ, ThickReuseQ)}
