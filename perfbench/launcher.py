"""Run one ttgkit command the way the `ttgkit` console script does.

    python3 perfbench/launcher.py [--trace-out PREFIX QUERY] -- <ttgkit arguments>
    python3 perfbench/launcher.py --parse-probe WORKSPACE

The source tree is taken from `src/` next to this directory, never from an
installed copy.  With `--trace-out`, the ttgkit modules are wrapped by the
benchmark's tracer before `ttgkit.cli.main` runs; when the command ends the
span totals go to PREFIX.json and the spans, tagged with query id QUERY, to
PREFIX.csv.gz.  `--parse-probe` imports ttgkit, then times one cold
`parse_workspace` and prints the seconds.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)


def parse_probe(path):
    from ttgkit.cli import parse_workspace

    start = time.perf_counter()
    parse_workspace(path)
    print(repr(time.perf_counter() - start))
    return 0


def main(argv):
    if argv[:1] == ["--parse-probe"]:
        return parse_probe(argv[1])
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, query, argv = argv[1], int(argv[2]), argv[3:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    start = time.perf_counter()
    import ttgkit.cli

    import_s = time.perf_counter() - start
    if trace_out is None:
        return ttgkit.cli.main(argv)

    from tracing import Tracer, ttgkit_modules

    mods = ttgkit_modules()
    tracer = Tracer()
    tracer.install(mods)
    tracer.qid = query
    try:
        code = ttgkit.cli.main(argv)
    finally:
        sys.stdout.flush()
        total = tracer.summary({"import_s": import_s,
                                "gb_entries": len(mods["groebner"]._GB_CACHE)})
        with open(trace_out + ".json", "w", encoding="utf-8") as handle:
            json.dump(total, handle)
        tracer.write_spans(trace_out + ".csv.gz", header=False)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
