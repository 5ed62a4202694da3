#!/usr/bin/env python3
"""End-to-end benchmark of the branch-predictor simulator.

One run (the form BENCHMARK.json names):

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the simulator libraries and the e2ebench binary from source
(CMake, Release, under $CARGO_TARGET_DIR or .bench_build), runs one
workload, and prints the binary's output: metadata, every metric with
its unit, and as the last line one JSON object with "correct",
"attempted", "failed" and "metrics".

A/A steadiness (run the same build N times per workload, print median
and quartiles per metric, flag metrics whose spread exceeds their
BENCHMARK.json bound as unresolved):

    python3 e2ebench/run.py --aa 10 [--workloads a,b] [--trace 0|1]
                            [--seconds S] [--save out.json]

runs seeds 1..N. Comparing a parent with a change from two saved A/A
sets (refused when their run metadata, such as the kernel tier,
differ):

    python3 e2ebench/run.py --compare parent.json change.json

Recording the default-seed output digests (after a change that
legitimately alters simulated results):

    python3 e2ebench/run.py --record-digests
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
LAYERS = os.path.join(HERE, "layers.json")
WORKLOADS = ["suite-store", "ladder-fused", "mixed-kinds", "serve-clients"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
# Run metadata that must agree for two A/A sets to be comparable.
COMPARABLE = ("kernel_tier", "nproc", "build_type", "compiler")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no simulator sources under " + ROOT)
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "e2ebench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(step))
    return os.path.join(out, "e2ebench")


def recorded_digests():
    try:
        with open(DIGESTS) as f:
            return json.load(f)
    except (OSError, ValueError):
        return {}


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """Runs the binary once; returns (exit code, stdout lines)."""
    work = os.path.join(build_dir(), "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--work-dir", work]
    digest = recorded_digests().get(workload)
    if digest:
        cmd += ["--expect-digest", digest]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
        code, out = done.returncode, done.stdout
    except subprocess.TimeoutExpired:
        # subprocess.run() has killed and reaped the binary.
        code, out = 1, ""
        print("e2ebench: run timed out", file=sys.stderr)
    # Keep the Chrome trace; the rest of the work dir (trace store,
    # socket) is scratch.
    traces = os.path.join(build_dir(), "traces")
    for name in os.listdir(work) if os.path.isdir(work) else []:
        if name.startswith("trace-") and name.endswith(".json"):
            os.makedirs(traces, exist_ok=True)
            os.replace(os.path.join(work, name), os.path.join(traces, name))
    shutil.rmtree(work, ignore_errors=True)
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return code, out.splitlines()


def meta_of(lines):
    """The run metadata the binary prints on its "meta" line."""
    for line in lines:
        if line.startswith("meta "):
            return json.loads(line[len("meta "):])
    return None


def result_of(lines):
    for line in reversed(lines):
        if line.startswith("{"):
            return json.loads(line)
    return None


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles as
    statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    with open(LAYERS) as f:
        layers = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    binary = build()
    report = {}
    unresolved = 0
    for workload in workloads:
        values = {}
        meta = None
        for seed in range(1, args.aa + 1):
            code, lines = run_once(binary, workload, seed, seconds,
                                   args.trace, echo=False)
            # One build on one machine: every run's metadata agree.
            run_meta = meta_of(lines) or {}
            meta = {k: run_meta.get(k) for k in COMPARABLE}
            result = result_of(lines)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: failed run (exit %d, result %s)"
                      % (workload, seed, code, result and {
                          k: result[k] for k in ("correct", "attempted",
                                                 "failed")}))
                unresolved += 1
                continue
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print("\n## %s (%d runs, %s s each, trace %d) %s"
              % (workload, args.aa, seconds, args.trace,
                 json.dumps(meta, sort_keys=True)))
        print("%-28s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        report[workload] = {"meta": meta, "metrics": {}}
        for name, vals in values.items():
            med, q1, q3, rel = spread(vals)
            bound = bounds.get(name) if not args.trace else None
            flag = ""
            if bound is not None and rel > bound:
                flag = "UNRESOLVED"
                unresolved += 1
            elif bound is not None and rel > bound / 3:
                flag = "noisy"
            if args.trace and name in layers:
                flag = "moves %s on %s" % (
                    ",".join(layers[name]["moves"]) or "-",
                    ",".join(layers[name]["on"]))
            print("%-28s %14.6g %14.6g %14.6g %8.4f %6s %s" % (
                name, med, q1, q3, rel,
                "-" if bound is None else bound, flag))
            report[workload]["metrics"][name] = {
                "values": vals, "median": med, "q1": q1, "q3": q3,
                "spread": rel}
    if args.save:
        with open(args.save, "w") as f:
            json.dump(report, f, indent=1)
    return 1 if unresolved else 0


def compare(parent_path, change_path):
    """Median ratio change/parent per workload and end-to-end metric."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    with open(parent_path) as f:
        parent = json.load(f)
    with open(change_path) as f:
        change = json.load(f)
    worse = 0
    for workload in sorted(set(parent) & set(change)):
        print("\n## %s" % workload)
        p_meta, c_meta = parent[workload]["meta"], change[workload]["meta"]
        if p_meta != c_meta:
            print("not comparable: parent ran with %s, change with %s"
                  % (json.dumps(p_meta, sort_keys=True),
                     json.dumps(c_meta, sort_keys=True)))
            worse += 1
            continue
        print("%-22s %12s %12s %8s %6s" % (
            "metric", "parent", "change", "ratio", "bound"))
        p_metrics = parent[workload]["metrics"]
        c_metrics = change[workload]["metrics"]
        for name, m in metrics.items():
            if name not in p_metrics or name not in c_metrics:
                continue
            p, c = p_metrics[name], c_metrics[name]
            ratio = c["median"] / p["median"]
            loss = ratio - 1 if m["better"] == "lower" else 1 - ratio
            flag = ""
            if max(p["spread"], c["spread"]) > m["bound"]:
                flag = "UNRESOLVED"
            elif loss > m["bound"]:
                flag = "WORSE"
                worse += 1
            print("%-22s %12.6g %12.6g %8.4f %6s %s" % (
                name, p["median"], c["median"], ratio, m["bound"], flag))
    return 1 if worse else 0


def record_digests():
    binary = build()
    digests = {}
    for workload in WORKLOADS:
        _, lines = run_once(binary, workload, DEFAULT_SEED, 1, False,
                            echo=False)
        found = [l.split()[1] for l in lines if l.startswith("digest ")]
        if not found:
            sys.exit("e2ebench: no digest from " + workload)
        digests[workload] = found[0]
    with open(DIGESTS, "w") as f:
        json.dump(digests, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(digests, indent=2, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--aa", type=int, default=0,
                        help="A/A mode: runs per workload")
    parser.add_argument("--workloads", default="",
                        help="A/A mode: comma-separated subset")
    parser.add_argument("--save", default="",
                        help="A/A mode: write all values as JSON")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT_JSON", "CHANGE_JSON"),
                        help="compare two A/A sets saved with --save")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.record_digests:
        return record_digests()
    if args.aa:
        return steadiness(args)
    if not args.workload or args.seconds <= 0:
        parser.error("--workload and --seconds are required")
    binary = build()
    code, _ = run_once(binary, args.workload, args.seed, args.seconds,
                       args.trace)
    return code


if __name__ == "__main__":
    sys.exit(main())
