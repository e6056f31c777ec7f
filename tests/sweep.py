"""Byte-identity sweep: every CLI probe on both fixtures, hashed against a manifest.

A probe is one `ttgkit` command line, run in-process on `fixtures/qxy.json`
or `fixtures/f5xyz.json`, once with `--format json` and once with `--format
text`.  The command probes are `validate`, `classify` and `report`; every
object's `cohomology`, `cohomology --max-degree 7`, `support` and `koszul
<obj> x`; and every prime's `residue`, with and without `--max-degree 5`.
The suite probes run each of the ten suites at seeds 1 and 2 with the
default `--n`.  A probe's digest is the sha256 of its argv (fixture path
relative to the repository root), exit code, stdout and stderr;
`fixtures/sweep-manifest.json` holds one digest per probe.

    python tests/sweep.py           # compare the command probes
    python tests/sweep.py --all     # compare the suite probes too
    python tests/sweep.py --write   # rewrite the manifest from every probe

A comparison prints each probe whose digest differs and exits 1 if any does.
A change that alters output on purpose rewrites the manifest and names the
changed probes.
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "fixtures" / "sweep-manifest.json"
FIXTURES = ("fixtures/qxy.json", "fixtures/f5xyz.json")
FORMATS = ("json", "text")
SUITE_SEEDS = (1, 2)


def _names(fixture, key):
    spec = json.loads((ROOT / fixture).read_text(encoding="utf-8"))
    return [entry["name"] for entry in spec[key]]


def command_probes():
    """argv lists, fixture path relative, of the validate/object/prime probes."""
    probes = []
    for fixture in FIXTURES:
        commands = [["validate"], ["classify"], ["report"]]
        for name in _names(fixture, "complexes"):
            commands += [["cohomology", name], ["cohomology", name, "--max-degree", "7"],
                         ["support", name], ["koszul", name, "x"]]
        for name in _names(fixture, "primes"):
            commands += [["residue", name], ["residue", name, "--max-degree", "5"]]
        probes += [command + ["--input", fixture, "--format", fmt]
                   for command in commands for fmt in FORMATS]
    return probes


def suite_probes():
    from ttgkit.classify import SUITES

    return [["check", suite, "--seed", str(seed), "--input", fixture, "--format", fmt]
            for fixture in FIXTURES for suite in SUITES
            for seed in SUITE_SEEDS for fmt in FORMATS]


def probe_id(argv):
    return " ".join(argv)


def run_probe(argv):
    """(exit code, stdout, stderr) of `ttgkit argv`, run in this process."""
    from ttgkit.cli import main

    absolute = [str(ROOT / a) if a in FIXTURES else a for a in argv]
    raw, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(raw, encoding="utf-8")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(absolute)
        out.flush()
    return code, raw.getvalue().decode("utf-8"), err.getvalue()


def digest(argv):
    code, out, err = run_probe(argv)
    record = json.dumps([argv, code, out, err], ensure_ascii=True)
    return hashlib.sha256(record.encode("ascii")).hexdigest()


def load_manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def changed_probes(probes, manifest):
    """Ids of the probes whose digest differs from, or is missing in, the manifest."""
    return [probe_id(argv) for argv in probes
            if manifest.get(probe_id(argv)) != digest(argv)]


def main():
    args = sys.argv[1:]
    if set(args) - {"--all", "--write"}:
        print("usage: python tests/sweep.py [--all | --write]", file=sys.stderr)
        return 2
    if "--write" in args:
        probes = command_probes() + suite_probes()
        manifest = {probe_id(argv): digest(argv) for argv in probes}
        MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
        print(f"wrote {len(manifest)} digests to {MANIFEST.relative_to(ROOT)}")
        return 0
    probes = command_probes() + (suite_probes() if "--all" in args else [])
    changed = changed_probes(probes, load_manifest())
    for name in changed:
        print(f"changed: {name}")
    print(f"{len(probes) - len(changed)} of {len(probes)} probes match the manifest")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
