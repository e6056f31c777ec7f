"""Run the benchmark over several seeds and record one trajectory entry.

    python3 perfbench/record.py --label NAME [--append]

For each workload in BENCHMARK.json: one run per seed 1-10 with --trace 0,
then one run with seed 1 and --trace 1, each for BENCHMARK.json's
run_seconds.  Prints, per end-to-end metric, the median and the quartile
spread (q3 - q1) / median that the bounds in BENCHMARK.json are checked
against.  With --append, adds the entry to perfbench/trajectory.json: the
medians and quartiles in the result's {"value", "unit"} form, the error
counts, and the traced run's per-layer metrics.  Runs go one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.json")
SEEDS = list(range(1, 11))
TRACE_SEED = 1
REPORTED = ("input_sha256", "output_sha256", "setup_s", "query_p50_ms", "query_p90_ms",
            "throughput_qps", "peak_rss_mib", "error_rate", "samples", "tracing")


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    report = [line for line in lines[:-1] if line.split(" ")[0] in REPORTED]
    return json.loads(lines[-1]), meta, report


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    entry = {"label": args.label, "seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        values, attempted, failed = {}, 0, 0
        for seed in SEEDS:
            result, meta, report = run_once(workload, seed, seconds, 0)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"load {meta['start']['loadavg']} "
                  f"cpu_probe_ms {meta['start']['cpu_probe_ms']:.2f}", flush=True)
            for line in report:
                print("    " + line, flush=True)
            entry.update(commit=meta["commit"], source_sha256=meta["source_sha256"],
                         python=meta["python"], nproc=meta["nproc"])
        summary = {}
        for name, ms in values.items():
            v = [m["value"] for m in ms]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[name] = {"value": med, "unit": ms[0]["unit"], "q1": q1, "q3": q3}
            print(f"  {workload} {name}: median {med:.6g} spread {spread:.3f} "
                  f"(bound {bounds.get(name)})", flush=True)
        traced, _, report = run_once(workload, TRACE_SEED, seconds, 1)
        print(f"{workload} traced, seed {TRACE_SEED}: " + "; ".join(report[-1:]),
              flush=True)
        entry["workloads"][workload] = {
            "end_to_end": summary,
            "attempted": attempted,
            "failed": failed,
            "per_layer": traced["metrics"],
            "per_layer_seed": TRACE_SEED,
        }
    if args.append:
        trajectory = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as handle:
                trajectory = json.load(handle)
        trajectory.append(entry)
        with open(TRAJECTORY, "w", encoding="utf-8") as handle:
            json.dump(trajectory, handle, indent=1, sort_keys=True)
            handle.write("\n")


if __name__ == "__main__":
    main()
