"""ttgkit benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ttgkit is imported from `src/`.
Workloads (see perfbench/README.md for why each exists):

  support-fresh-q  Catalogue.support on fresh complexes over Q[x:2,y:2]
  cohomology-q     the `cohomology` command's payload on 12-25 generator complexes
  thick-reuse-q    in_thick over a fixed pool, so the support caches mostly hit
  cli-cold-f5      one `ttgkit` process after another on an F5[x:2,y:2,z:4] workspace

Every workload is a closed loop with one client.  With --trace 0 the run
prints the end-to-end metrics; with --trace 1 it runs the same queries for
S/2 seconds untraced and S/2 seconds traced, and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array

import gen
import workloads
from tracing import (PER_LAYER, SPAN_HEADER, Tracer, layer_metrics, merge, self_time_table,
                     ttgkit_modules)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")

SETUP_SAMPLES = 8          # cold starts before and again after the timed
                           # phase; setup_s is the median of all of them
MIN_QUERIES = 100          # a timed phase runs until both its seconds have
                           # passed and this many queries are done, so that
                           # at least 10 samples lie beyond p90
HASHED_ANSWERS = 100       # output_sha256 covers the first answers
RSS_QUERIES = 100          # in-process peak_rss_mib is read after this many
                           # queries, so a faster program is not charged for
                           # the cache entries of the extra queries it runs
PREPARE_CHUNK = 16         # queries built per untimed preparation step
RUN_GRACE_S = 45           # the run deadline: a query still running this long
                           # after the phase began plus its seconds fails
COMMAND_TIMEOUT_S = 60     # cli-cold-f5: per-process deadline
PROCESS_BUDGET_S = 170     # referees stop here; unrefereed answers fail

WORKLOADS = ("support-fresh-q", "cohomology-q", "thick-reuse-q", "cli-cold-f5")


class Deadline(BaseException):
    """Raised by the alarm; a BaseException so no `except Exception` eats it."""


def _alarm(signum, frame):
    raise Deadline()


def arm(seconds):
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 0.001))


def disarm():
    signal.setitimer(signal.ITIMER_REAL, 0)


# --- run metadata ----------------------------------------------------------------


def read_first_line(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.readline().strip()
    except OSError:
        return None


def steal_ticks():
    line = read_first_line("/proc/stat")
    if not line or not line.startswith("cpu "):
        return None
    fields = line.split()
    return int(fields[8]) if len(fields) > 8 else None


def cpu_probe_ms():
    """Median time of a fixed pure-Python loop: how fast this machine is now.

    Steal ticks miss a host that slows the CPU without descheduling it; this
    shows it.  Metadata only: no metric is scaled by it.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def machine_state():
    return {"loadavg": read_first_line("/proc/loadavg"), "steal_ticks": steal_ticks(),
            "cpu_probe_ms": cpu_probe_ms()}


def source_sha256():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "ttgkit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


# --- statistics ------------------------------------------------------------------


def latency_stats(latencies):
    ordered = sorted(latencies)
    p50 = statistics.median(ordered)
    if len(ordered) >= 2:
        p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    else:
        p90 = ordered[0]
    beyond = sum(1 for v in ordered if v > p90)
    return p50, p90, beyond


# --- in-process workloads --------------------------------------------------------


def timed_phase(wl, seconds, started, tracer=None, min_queries=0):
    """Closed loop over wl.queries() for `seconds` of query time.

    Queries are prepared in untimed chunks; the phase clock runs only while
    queries are asked.  Per query the run keeps a float32 latency and
    `wl.key(answer)` in `wl.answer_store()`, so the benchmark's own memory
    stays small next to the program's; referees regenerate the queries.
    The phase goes on past `seconds` until `min_queries` are done.
    Returns (latencies, answers, errors by query index, wall, peak RSS in
    MiB after RSS_QUERIES queries or at the end, whichever comes first).
    """
    latencies, answers, errors = array("f"), wl.answer_store(), {}
    rss = None
    stream = wl.queries()
    wall = 0.0
    clock = time.perf_counter
    arm(min(seconds + RUN_GRACE_S, PROCESS_BUDGET_S - 20 - (time.monotonic() - started)))
    try:
        while wall < seconds or len(latencies) < min_queries:
            if tracer is not None:
                tracer.enabled = False
            chunk = [q for _, q in zip(range(PREPARE_CHUNK), stream)]
            if tracer is not None:
                tracer.enabled = True
            if not chunk:
                break
            begin = clock()
            for query in chunk:
                start = clock()
                if wall + (start - begin) >= seconds and len(latencies) >= min_queries:
                    break
                if tracer is not None:
                    tracer.qid = len(latencies)
                try:
                    key = wl.key(wl.ask(query))
                except Deadline:
                    key, errors[len(latencies)] = wl.missing, "run deadline"
                except Exception as err:  # a raising query is a failed query
                    key, errors[len(latencies)] = wl.missing, f"{type(err).__name__}: {err}"
                latencies.append(clock() - start)
                answers.append(key)
                if len(latencies) == RSS_QUERIES:
                    rss = peak_rss_mib(resource.RUSAGE_SELF)
                if errors.get(len(latencies) - 1) == "run deadline":
                    seconds = 0
                    break
            wall += clock() - begin
    finally:
        disarm()
        if tracer is not None:
            tracer.enabled = True
    return latencies, answers, errors, wall, rss or peak_rss_mib(resource.RUSAGE_SELF)


def peak_rss_mib(who):
    return resource.getrusage(who).ru_maxrss / 1024


def referee_in_process(wl, phases, started):
    """Failure reasons by query index over (answers, errors) phases.

    Each phase ran the query stream from its start, so the referee replays
    it.  A query fails if it raised, hit the run deadline, or its answer is
    wrong; if the referee runs out of the process budget, every answer fails.
    """
    failed = {}
    arm(PROCESS_BUDGET_S - (time.monotonic() - started))
    try:
        offset = 0
        for answers, errors in phases:
            for i, reason in list(errors.items()) + list(wl.referee(answers)):
                failed.setdefault(offset + i, reason)
            offset += len(answers)
    except Deadline:
        for i in range(sum(len(answers) for answers, _ in phases)):
            failed.setdefault(i, "referee did not finish within the process budget")
    finally:
        disarm()
    return failed


def reset_caches(t):
    """Empty the process-wide caches so a second phase starts cold."""
    import ttgkit.groebner
    import ttgkit.rings

    t.cohomology.cache_clear()
    ttgkit.groebner._GB_CACHE.clear()
    ttgkit.rings._monomials_of_weight.cache_clear()


def run_in_process(args, t, ws_path, started, import_s):
    from ttgkit.cli import parse_workspace

    wl = workloads.IN_PROCESS[args.workload](t, args.seed)
    with open(ws_path, "w", encoding="utf-8") as handle:
        json.dump(wl.workspace, handle, sort_keys=True)
    info = {"input_sha256": gen.sha256_of(wl.input_items())}

    def probe():
        return float(_launch(["--parse-probe", ws_path]).stdout)

    if not args.trace:
        samples = [probe() for _ in range(SETUP_SAMPLES)]
        wl.setup(parse_workspace(ws_path).catalogue)
        latencies, answers, errors, wall, rss = timed_phase(wl, args.seconds, started,
                                                            min_queries=MIN_QUERIES)
        samples += [probe() for _ in range(SETUP_SAMPLES)]
        failed = referee_in_process(wl, [(answers, errors)], started)
        info.update(latencies=latencies, wall=wall, failed=failed, peak_rss_mib=rss,
                    setup_samples=samples,
                    output_sha256=gen.sha256_of(answers[:HASHED_ANSWERS]))
        return info

    wl.setup(parse_workspace(ws_path).catalogue)
    half = args.seconds / 2
    lat_a, answers_a, errors_a, _, _ = timed_phase(wl, half, started)
    reset_caches(t)
    mods = ttgkit_modules()
    tracer = Tracer()
    tracer.install(mods)
    try:
        catalogue = mods["cli"].parse_workspace(ws_path).catalogue
        tracer.enabled = False
        wl.setup(catalogue)
        tracer.enabled = True
        lat_b, answers_b, errors_b, _, _ = timed_phase(wl, half, started, tracer)
    finally:
        tracer.uninstall()
    failed = referee_in_process(wl, [(answers_a, errors_a), (answers_b, errors_b)], started)
    total = tracer.summary({"import_s": import_s, "queries": len(lat_b),
                            "gb_entries": len(mods["groebner"]._GB_CACHE)})
    info.update(latencies=lat_a + lat_b, failed=failed, tracer=tracer, total=total,
                overhead=_overhead(lat_a, lat_b),
                output_sha256=gen.sha256_of(answers_a[:HASHED_ANSWERS]))
    return info


def _overhead(untraced, traced):
    k = min(len(untraced), len(traced))
    base = sum(untraced[:k])
    return sum(traced[:k]) / base - 1 if base else 0.0


def _launch(argv):
    return subprocess.run([sys.executable, LAUNCHER] + argv, cwd=ROOT, capture_output=True,
                          timeout=COMMAND_TIMEOUT_S, check=True)


def spans_path(args):
    return os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.csv.gz")


# --- the command-line workload ---------------------------------------------------


def cli_phase(wl, ws_path, seconds, started, trace_dir=None, min_queries=0):
    """Run commands one process at a time for `seconds` of wall time.

    The phase goes on past `seconds` until `min_queries` commands are done,
    but never past PROCESS_BUDGET_S - 30 after the run started; each command's
    timeout is cut to fit.
    """
    latencies, commands, results = [], [], []
    clock = time.perf_counter
    begin = clock()
    limit = begin + PROCESS_BUDGET_S - 30 - (time.monotonic() - started)
    for command in wl.commands():
        start = clock()
        if (start - begin >= seconds and len(latencies) >= min_queries) or start >= limit:
            break
        argv = []
        if trace_dir is not None:
            query = len(latencies)
            argv = ["--trace-out", os.path.join(trace_dir, str(query)), str(query)]
        argv += ["--"] + command + ["--input", ws_path]
        try:
            proc = subprocess.run([sys.executable, LAUNCHER] + argv, cwd=ROOT,
                                  capture_output=True,
                                  timeout=min(COMMAND_TIMEOUT_S, limit + 10 - start))
            result = (proc.returncode, proc.stdout)
        except subprocess.TimeoutExpired:
            result = (None, b"")
        latencies.append(clock() - start)
        commands.append(command)
        results.append(result)
    return latencies, commands, results, clock() - begin


def stdout_sha256(results):
    return gen.sha256_of(stdout.decode("utf-8", "replace")
                         for _, stdout in results[:HASHED_ANSWERS])


def cli_failures(wl, commands, results):
    failed = {}
    for i, (command, (code, stdout)) in enumerate(zip(commands, results)):
        reason = "command timeout" if code is None else wl.check_output(command, code, stdout)
        if reason is not None:
            failed[i] = f"{' '.join(command)}: {reason}"
    return failed


def run_cli(args, t, ws_path, work, started):
    wl = workloads.CliColdF5(t, args.seed)
    with open(ws_path, "w", encoding="utf-8") as handle:
        json.dump(wl.workspace, handle, sort_keys=True)
    info = {"input_sha256": gen.sha256_of(wl.input_items())}

    def probe():
        start = time.perf_counter()
        _launch(["--", "validate", "--input", ws_path])
        return time.perf_counter() - start

    if not args.trace:
        samples = [probe() for _ in range(SETUP_SAMPLES)]
        latencies, commands, results, wall = cli_phase(wl, ws_path, args.seconds, started,
                                                       min_queries=MIN_QUERIES)
        samples += [probe() for _ in range(SETUP_SAMPLES)]
        info.update(latencies=latencies, wall=wall, failed=cli_failures(wl, commands, results),
                    setup_samples=samples,
                    output_sha256=stdout_sha256(results),
                    peak_rss_mib=peak_rss_mib(resource.RUSAGE_CHILDREN))
        return info

    half = args.seconds / 2
    lat_a, cmd_a, res_a, _ = cli_phase(wl, ws_path, half, started)
    trace_dir = os.path.join(work, "spans")
    os.makedirs(trace_dir)
    lat_b, cmd_b, res_b, _ = cli_phase(wl, ws_path, half, started, trace_dir)
    summaries = []
    with open(spans_path(args), "wb") as spans:
        spans.write(gzip.compress(SPAN_HEADER.encode()))
        for i in range(len(lat_b)):
            prefix = os.path.join(trace_dir, str(i))
            if os.path.exists(prefix + ".json"):
                with open(prefix + ".json", encoding="utf-8") as handle:
                    summaries.append(json.load(handle))
                with open(prefix + ".csv.gz", "rb") as handle:
                    spans.write(handle.read())
    total = merge(summaries)
    total["counters"]["queries"] = len(lat_b)
    total["counters"]["stdout_bytes"] = sum(len(r[1]) for r in res_b)
    info.update(latencies=lat_a + lat_b, total=total, overhead=_overhead(lat_a, lat_b),
                failed=cli_failures(wl, cmd_a + cmd_b, res_a + res_b),
                output_sha256=stdout_sha256(res_a))
    return info


# --- reporting -------------------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def report_end_to_end(info):
    latencies = info["latencies"]
    attempted = len(latencies)
    failed = len(info["failed"])
    p50, p90, beyond = latency_stats(latencies) if latencies else (0.0, 0.0, 0)
    metrics = {
        "setup_s": metric(statistics.median(info["setup_samples"]), "s"),
        "query_p50_ms": metric(p50 * 1000, "ms"),
        "query_p90_ms": metric(p90 * 1000, "ms"),
        "throughput_qps": metric(attempted / info["wall"] if info["wall"] else 0.0, "1/s"),
        "peak_rss_mib": metric(info["peak_rss_mib"], "MiB"),
    }
    for name, m in metrics.items():
        print(f"{name:<16} {m['value']:>14.4f} {m['unit']}")
    print(f"{'error_rate':<16} {(failed / attempted if attempted else 0.0):>14.4f} ratio"
          f"  (failed {failed} / attempted {attempted})")
    print(f"samples          {attempted} queries, {beyond} beyond p90; setup_s median of "
          f"{len(info['setup_samples'])}")
    if attempted < MIN_QUERIES:
        print(f"INCOMPLETE: {attempted} queries, fewer than {MIN_QUERIES}")
    return metrics, attempted, failed


def report_per_layer(info):
    values = layer_metrics(info["total"], info["overhead"])
    print("self time by span (traced phase):")
    print(f"  {'span':<30} {'calls':>9} {'incl_s':>10} {'self_s':>10}")
    for name, calls, incl, self_s in self_time_table(info["total"]):
        print(f"  {name:<30} {calls:>9} {incl:>10.4f} {self_s:>10.4f}")
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, value in values.items():
        print(f"{name:<40} {value:>14.6g} {units[name]}")
    metrics = {name: metric(value, units[name]) for name, value in values.items()}
    return metrics, len(info["latencies"]), len(info["failed"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "ttgkit", "__init__.py")):
        print(f"error: no ttgkit source tree at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    begin = time.perf_counter()
    import ttgkit as t
    import ttgkit.cli  # noqa: F401  (the CLI layer is part of the import cost)

    import_s = time.perf_counter() - begin
    if os.path.dirname(os.path.abspath(t.__file__)) != os.path.join(SRC, "ttgkit"):
        print(f"error: imported ttgkit from {t.__file__}, not {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit(), "source_sha256": source_sha256(),
            "python": platform.python_version(), "nproc": nproc(), "start": machine_state()}
    work = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    ws_path = os.path.join(work, "workspace.json")
    try:
        if args.workload == "cli-cold-f5":
            info = run_cli(args, t, ws_path, work, started)
        else:
            info = run_in_process(args, t, ws_path, started, import_s)
        if args.trace and "tracer" in info:
            info["tracer"].write_spans(spans_path(args))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["end"] = machine_state()

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  closed loop, 1 client")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"input_sha256     {info['input_sha256']}")
    print(f"output_sha256    {info['output_sha256']}  (first {HASHED_ANSWERS} answers)")
    for i, reason in sorted(info["failed"].items())[:10]:
        print(f"FAILED query {i}: {reason}")
    if args.trace:
        metrics, attempted, failed = report_per_layer(info)
        print(f"spans in {os.path.relpath(spans_path(args), ROOT)}")
        print(f"tracing overhead {info['overhead']:.4f} (traced vs untraced time "
              f"on the same queries)")
    else:
        metrics, attempted, failed = report_end_to_end(info)
    floor = 1 if args.trace else MIN_QUERIES
    result = {"correct": failed == 0 and attempted >= floor, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
