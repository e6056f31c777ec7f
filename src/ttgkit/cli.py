"""Command-line surface: workspace parsing, command dispatch, report emission.

Workspaces are JSON; polynomial strings are the only embedded mini-language.
JSON output is canonical (sorted keys, no insignificant whitespace) so golden
files are byte-stable.  Exit codes: 0 success, 1 check failure, 2 input error.
"""

import argparse
import json
import re
import sys

from .classify import Catalogue, SuiteReport, classify_catalogue, run_suite
from .complexes import PerfectComplex, cohomology, koszul_object
from .errors import InputError, TtgError
from .fields import Field
from .modules import generic_rank
from .rings import GradedRing
from .serialize import canonical_json, render_text
from .spectrum import PrimePoint, residue_field_object

# Input budgets, checked before the algebra they bound; past them a command
# exits 2.  The worst window on fixtures/f5xyz.json (`koszul kxyz z
# --max-degree 400`) takes about 0.4 s and 18 MiB, and the slowest suite at
# `--n 60` (minimality-surrogate, seeds 1-4) at most 5.4 s, on a 2-vCPU VM.
# At parse, MAX_PROBE_DEGREE also bounds the weighted degree of every
# workspace polynomial and the absolute degree of every complex generator.
# The degree bound is not a time bound for suites: with the declared prime
# qh = (x^50+x*y^49+z^25) added to fixtures/f5xyz.json, `check zero-action
# --seed 1` takes 0.13 s at `--n 17` and was still running when stopped at
# 60 s at `--n 60`.
MAX_N = 60              # --n: instances per randomized suite, from 1
MAX_PROBE_DEGREE = 400  # --max-degree N probes [-N, N]; a default window must fit too


class Workspace:
    def __init__(self, catalogue: Catalogue):
        self.catalogue = catalogue

    def to_json_dict(self):
        return {
            "ring": self.catalogue.ring.to_json_dict(),
            "primes": [p.to_json_dict() for p in self.catalogue.primes],
            "complexes": [
                dict(self.catalogue.objects[name].to_json_dict(), name=name)
                for name in self.catalogue.objects
            ],
        }


def _expect(mapping, key, kind, where):
    if not isinstance(mapping, dict) or key not in mapping:
        raise InputError(f"{where}: missing key {key!r}")
    value = mapping[key]
    # JSON true/false load as bool, a subclass of int; they are not numbers here.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise InputError(f"{where}.{key}: expected {kind.__name__}")
    return value


def _optional_list(mapping, key, where):
    """mapping[key], which must be a list when present; [] when absent."""
    value = mapping.get(key, [])
    if not isinstance(value, list):
        raise InputError(f"{where}: expected list")
    return value


def parse_workspace(path: str) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except FileNotFoundError:
        raise InputError(f"workspace file not found: {path}") from None
    except json.JSONDecodeError as err:
        raise InputError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except (ValueError, RecursionError) as err:  # over-long integer, too deep nesting
        raise InputError(f"{path}: unsupported JSON: {err}") from None

    ring_spec = _expect(raw, "ring", dict, path)
    char = _expect(ring_spec, "char", int, f"{path}:ring")
    var_specs = _expect(ring_spec, "vars", list, f"{path}:ring")
    variables = []
    for i, v in enumerate(var_specs):
        name = _expect(v, "name", str, f"{path}:ring.vars[{i}]")
        degree = _expect(v, "degree", int, f"{path}:ring.vars[{i}]")
        variables.append((name, degree))
    try:
        field = Field(char)
    except InputError as err:
        raise InputError(f"{path}:ring.char: {err}") from None
    try:
        ring = GradedRing(field, tuple(variables))
    except InputError as err:
        raise InputError(f"{path}:ring.vars: {err}") from None

    def parse_poly(text, where):
        if not isinstance(text, str):
            raise InputError(f"{where}: expected a polynomial string")
        try:
            poly = ring.parse(text)
        except InputError as err:
            raise InputError(f"{where}: {err}") from None
        degree = max(map(ring.weighted_degree, poly.terms), default=0)
        if degree > MAX_PROBE_DEGREE:
            raise InputError(
                f"{where}: weighted degree {degree} exceeds {MAX_PROBE_DEGREE}"
            )
        return poly

    primes = []
    for i, spec in enumerate(_optional_list(raw, "primes", f"{path}:primes")):
        where = f"{path}:primes[{i}]"
        name = _expect(spec, "name", str, where)
        if any(p.name == name for p in primes):
            raise InputError(f"{where}.name: duplicate prime name {name!r}")
        gens = [parse_poly(t, f"{where}.gens[{j}]")
                for j, t in enumerate(_expect(spec, "gens", list, where))]
        seq = [parse_poly(t, f"{where}.seq[{j}]")
               for j, t in enumerate(_expect(spec, "seq", list, where))]
        try:
            primes.append(PrimePoint.create(ring, name, gens, seq))
        except InputError as err:
            raise InputError(f"{where}: {err}") from None

    objects = {}
    for i, spec in enumerate(_optional_list(raw, "complexes", f"{path}:complexes")):
        where = f"{path}:complexes[{i}]"
        name = _expect(spec, "name", str, where)
        if name in objects:
            raise InputError(f"{where}.name: duplicate complex name {name!r}")
        gen_specs = _expect(spec, "gens", list, where)
        gen_names = []
        degrees = []
        for j, g in enumerate(gen_specs):
            gen_names.append(_expect(g, "name", str, f"{where}.gens[{j}]"))
            degree = _expect(g, "degree", int, f"{where}.gens[{j}]")
            if not -MAX_PROBE_DEGREE <= degree <= MAX_PROBE_DEGREE:
                raise InputError(
                    f"{where}.gens[{j}].degree: {degree} is outside the supported range "
                    f"[-{MAX_PROBE_DEGREE}, {MAX_PROBE_DEGREE}]"
                )
            degrees.append(degree)
        index = {n: k for k, n in enumerate(gen_names)}
        entries = {}
        for j, e in enumerate(_optional_list(spec, "d", f"{where}.d")):
            src = _expect(e, "from", str, f"{where}.d[{j}]")
            dst = _expect(e, "to", str, f"{where}.d[{j}]")
            coef = parse_poly(_expect(e, "coef", str, f"{where}.d[{j}]"), f"{where}.d[{j}].coef")
            for gen, label in ((src, "from"), (dst, "to")):
                if gen not in index:
                    raise InputError(f"{where}.d[{j}].{label}: unknown generator {gen!r}")
            key = (index[src], index[dst])
            entries[key] = entries.get(key, ring.zero()) + coef
        try:
            objects[name] = PerfectComplex(ring, degrees, entries, names=tuple(gen_names))
        except TtgError as err:
            raise InputError(f"{where}: {err}") from None

    return Workspace(Catalogue(ring, primes, objects))


def serialize_workspace(workspace: Workspace) -> str:
    return canonical_json(workspace.to_json_dict())


def emit_report(payload, fmt: str) -> bytes:
    """Canonical bytes for a report payload; text uses deterministic rendering."""
    if fmt == "json":
        return canonical_json(payload).encode("utf-8")
    if fmt == "text":
        return render_text(payload).encode("utf-8")
    raise InputError(f"unknown format {fmt!r}")


def _decimal(text):
    """A numeric flag value: an optional sign and ASCII digits, nothing else
    (`int` alone also reads other Unicode digits, `_` and outer whitespace)."""
    if re.fullmatch(r"[+-]?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # past the interpreter's integer-string digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _check_budgets(args) -> None:
    """Reject out-of-range numeric options before any workspace is read."""
    if not 1 <= args.n <= MAX_N:
        raise InputError(f"--n: {args.n} is outside the supported range [1, {MAX_N}]")
    if args.max_degree is not None and not 0 <= args.max_degree <= MAX_PROBE_DEGREE:
        raise InputError(
            f"--max-degree: {args.max_degree} is outside the supported range "
            f"[0, {MAX_PROBE_DEGREE}]"
        )


def _window(complex_: PerfectComplex, max_degree, label):
    """The probed degree window; a default window must lie in the budget."""
    if max_degree is not None:
        return (-max_degree, max_degree)
    lo, hi = complex_.probe_window()
    if lo < -MAX_PROBE_DEGREE or hi > MAX_PROBE_DEGREE:
        raise InputError(
            f"{label}: probe window [{lo}, {hi}] exceeds [-{MAX_PROBE_DEGREE}, "
            f"{MAX_PROBE_DEGREE}]; pass --max-degree"
        )
    return lo, hi


def _hilbert_payload(complex_, window):
    return cohomology(complex_).dimension_table(*window).to_json_dict()


def execute(args, workspace: Workspace):
    """Run one command; returns (payload_or_text, exit_code)."""
    cat = workspace.catalogue
    command = args.command
    if command == "validate":
        return {
            "ring": cat.ring.to_json_dict(),
            "primes": [{"name": p.name, "status": p.status} for p in cat.primes],
            "complexes": sorted(cat.objects),
            "ok": True,
        }, 0
    if command == "cohomology":
        obj = cat.object(args.name)
        window = _window(obj, args.max_degree, f"object {args.name}")
        module = cohomology(obj)
        return {
            "object": args.name,
            "module": module.to_json_dict(),
            "annihilator": list(module.annihilator().display_basis()),
            "hilbert": _hilbert_payload(obj, window),
        }, 0
    if command == "support":
        obj = cat.object(args.name)
        support = cat.support(obj)
        payload = {
            "object": args.name,
            "minimal": list(support.ideal_strings()),
            "names": list(support.names()),
        }
        if support.is_empty() and not cohomology(obj).is_zero():
            payload["warning"] = (
                "annihilator has a minimal prime outside the declared catalogue"
            )
        return payload, 0
    if command == "koszul":
        obj = cat.object(args.name)
        ring = cat.ring
        try:
            sequence = [ring.parse(t) for t in args.elements]
        except InputError as err:
            raise InputError(f"koszul element: {err}") from None
        built = koszul_object(obj, sequence)
        label = f"{args.name}//({','.join(str(f) for f in sequence)})"
        window = _window(built, args.max_degree, f"object {label}")
        support = cat.support(built)
        return {
            "object": label,
            "gens": list(built.degrees),
            "hilbert": _hilbert_payload(built, window),
            "support": list(support.ideal_strings()),
        }, 0
    if command == "residue":
        prime = cat.prime(args.name)
        residue = residue_field_object(prime)
        window = _window(residue, args.max_degree, f"prime {prime.name}")
        module = cohomology(residue)
        return {
            "prime": prime.name,
            "status": prime.status,
            "hilbert": _hilbert_payload(residue, window),
            "annihilator": list(module.annihilator().display_basis()),
            "generic_rank": generic_rank(module, prime),
        }, 0
    if command == "classify":
        return classify_catalogue(cat), 0
    if command == "check":
        if args.seed is None:
            raise InputError("check requires an explicit --seed; no hidden entropy")
        report = run_suite(cat, args.suite, args.seed, args.n)
        return report, 0 if report.all_passed() else 1
    if command == "report":
        payload = {
            "ring": cat.ring.to_json_dict(),
            "primes": [p.to_json_dict() for p in cat.primes],
            "objects": [
                {
                    "name": name,
                    "gens": list(cat.objects[name].degrees),
                    "support": list(cat.support(cat.objects[name]).ideal_strings()),
                }
                for name in sorted(cat.objects)
            ],
            "classification": classify_catalogue(cat),
        }
        return payload, 0
    raise InputError(f"unknown command {command!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttgkit",
        description="Exact workbench for perfect complexes over weighted graded rings",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", required=True, help="workspace JSON file")
    common.add_argument("--format", choices=["json", "text"], default="json")
    window = argparse.ArgumentParser(add_help=False)
    window.add_argument("--max-degree", type=_decimal, default=None, dest="max_degree",
                        help="override the Hilbert probe window to [-N, N], "
                             f"0 <= N <= {MAX_PROBE_DEGREE}")
    # `_check_budgets` reads both budgets, also on commands without the flags.
    parser.set_defaults(n=25, max_degree=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[common])
    p = sub.add_parser("cohomology", parents=[common, window])
    p.add_argument("name")
    p = sub.add_parser("support", parents=[common])
    p.add_argument("name")
    p = sub.add_parser("koszul", parents=[common, window])
    p.add_argument("name")
    p.add_argument("elements", nargs="+", help="homogeneous polynomial strings")
    p = sub.add_parser("residue", parents=[common, window])
    p.add_argument("name")
    sub.add_parser("classify", parents=[common])
    p = sub.add_parser("check", parents=[common])
    p.add_argument("suite")
    p.add_argument("--seed", type=_decimal, default=None)
    p.add_argument("--n", type=_decimal, default=25,
                   help=f"instances per randomized suite, 1 to {MAX_N}")
    sub.add_parser("report", parents=[common])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_budgets(args)
        workspace = parse_workspace(args.input)
        result, code = execute(args, workspace)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if isinstance(result, SuiteReport):
        out = result.to_json() if args.format == "json" else result.to_text()
        sys.stdout.write(out)
    else:
        sys.stdout.buffer.write(emit_report(result, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
