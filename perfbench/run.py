#!/usr/bin/env python3
"""Run the nlfm performance benchmark.

    python3 perfbench/run.py --workload batch-ds2 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Builds the measuring binary from source (into .bench_build/perfbench at
the root of the checkout), writes the zoo models whenever the binary is
newer than them, runs the workload in its own process and prints a
table of every metric by name and unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics BENCHMARK.json
lists; with --trace 1 the per-layer ones. Workload parameters (batch
sizes, frozen thetas, absolute arrival rates, the latency limit) are
constants of the workload sources in perfbench/src. Exit status is
non-zero on a build failure, a correctness mismatch or a request that
is not accounted for.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
MODELS = os.path.join(BUILD, "models")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build (a no-op when up to date)."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    step = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def prepare_models():
    """Write the model files (atomically) unless they are newer than the
    binary, so a rebuilt binary never measures models an older one
    wrote."""
    files = [os.path.join(MODELS, f)
             for f in ("ds2.nlfm", "ds2.head", "imdb.nlfm", "imdb.head")]
    if all(os.path.exists(f) for f in files) and \
            min(os.path.getmtime(f) for f in files) > \
            os.path.getmtime(BINARY):
        return True
    staging = MODELS + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    done = subprocess.run([BINARY, "prepare", "--model-dir", staging],
                          stdout=sys.stderr)
    if done.returncode != 0:
        return False
    shutil.rmtree(MODELS, ignore_errors=True)
    os.replace(staging, MODELS)
    return True


def run_binary(args):
    """Run the binary in its own process group; (returncode, stdout)."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, out


def print_table(workload, report):
    print(f"== {workload}")
    for phase in report["phases"]:
        print(f"  phase {phase['name']:<18} sent {phase['sent']:>6}  "
              f"succeeded {phase['succeeded']:>6}  failed "
              f"{phase['failed']:>3}  shed {phase['shed']:>3}")
    for section in ("end_to_end", "per_layer", "detail"):
        for name, m in report[section].items():
            print(f"  {section:<10} {name:<34} {m['value']:>16.6g} "
                  f"{m['unit']}")
    for mismatch in report["mismatches"]:
        print(f"  MISMATCH {mismatch}")


def run_workload(workload, seed, seconds, trace, bench, corrupt=False):
    """Run one workload; (ok, contract result dict). The binary's full
    report is kept as .bench_build/perfbench/report-<workload>-<seed>-
    <trace>.json."""
    args = [BINARY, "run", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--model-dir", MODELS]
    if trace:
        args += ["--trace-out",
                 os.path.join(BUILD, f"trace-{workload}-{seed}.json")]
    if corrupt:
        args.append("--corrupt-reference")
    code, out = run_binary(args)
    lines = [l for l in out.splitlines() if l.startswith("{")]
    if not lines:
        log(f"perfbench: {workload} printed no report (exit {code})")
        return False, None
    report = json.loads(lines[-1])
    with open(os.path.join(BUILD, f"report-{workload}-{seed}-{trace}.json"),
              "w") as f:
        json.dump(report, f, indent=1)
    print_table(workload, report)

    attempted = sum(p["sent"] for p in report["phases"])
    failed = sum(p["failed"] + p["shed"] for p in report["phases"])
    unaccounted = sum(p["sent"] - p["succeeded"] - p["failed"] - p["shed"]
                      for p in report["phases"])
    ok = code == 0 and report["correct"] and unaccounted == 0
    if unaccounted:
        log(f"perfbench: {workload}: {unaccounted} requests unaccounted")

    metrics = {}
    if trace:
        # Every per-layer metric; a layer the workload does not exercise
        # (e.g. the serving driver under a closed batch) reads 0.
        for m in bench["per_layer"]:
            got = report["per_layer"].get(m["name"])
            if got is not None and got["unit"] != m["unit"]:
                log(f"perfbench: unit of {m['name']} is {got['unit']}")
                ok = False
            metrics[m["name"]] = {"value": got["value"] if got else 0,
                                  "unit": m["unit"]}
    else:
        for m in bench["end_to_end"]:
            got = report["end_to_end"].get(m["name"])
            if got is None or got["unit"] != m["unit"] or not got["value"]:
                log(f"perfbench: {workload} lacks metric {m['name']}")
                ok = False
                continue
            metrics[m["name"]] = got
    return ok, {"correct": bool(report["correct"]) and unaccounted == 0,
                "attempted": attempted, "failed": failed + unaccounted,
                "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name from BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="self-test: flip one reference bit, so the "
                        "correctness gate must fail")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            log(f"perfbench: unknown workload {w} (known: {names})")
            return 2

    if not build():
        log("perfbench: build failed")
        return 1
    if not prepare_models():
        log("perfbench: cannot write the model files")
        return 1

    results = {}
    all_ok = True
    for w in workloads:
        ok, result = run_workload(w, args.seed, seconds, args.trace, bench,
                                  args.corrupt_reference)
        if result is None:
            return 1
        all_ok = all_ok and ok
        results[w] = result
    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
