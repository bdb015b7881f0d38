#!/usr/bin/env python3
"""The specnoc repository benchmark.

Run one workload (from the root of a checkout):

    python3 perfbench/run.py --workload paper_8x8 --seed 1 --seconds 30 --trace 0

Compare two sets of runs (result files this script appended to):

    python3 perfbench/run.py compare PARENT.jsonl CHILD.jsonl

A run builds perfbench_driver (the specnoc libraries from src/ plus
perfbench/driver.cpp, Release) in .bench_build/perfbench, runs the workload
for the given number of seconds, checks every simulated cell, prints a report
and ends with one JSON line: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # write nothing beside the sources
sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchstat  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
RESULTS = ROOT / ".bench_build" / "perfbench-results.jsonl"

# Workloads and metrics, with their units, come from BENCHMARK.json.
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec():
    spec = json.loads(SPEC_PATH.read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m for m in spec["end_to_end"]},
            {m["name"]: m for m in spec["per_layer"]})


# Computed here from the traced and untraced passes, not by the driver.
RUNNER_LAYER_METRICS = ("stats.tracing_overhead_pct",)

# Per-layer metrics a workload runs but the benchmark cannot see from outside
# the program; they read 0 there.
UNMEASURED = {
    ("paper_8x8", "core.teardown_s"):
        "the stats batch runner destroys each network inside the cell, so "
        "teardown is part of that cell's sim.run time",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; False when either fails."""
    BUILD.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"perfbench: build step failed: {' '.join(step)}")
            return False
    return True


def source_digest():
    """Digest of the sources the driver is built from, which names the code
    measured where there is no git commit (the benchmark's checkouts)."""
    digest = hashlib.sha256()
    files = [p for d in (ROOT / "src", HERE) for p in d.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_context(build_info):
    """Where and how a result was measured."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "build_type": build_info["build_type"],
        "cxx_flags": build_info["cxx_flags"].strip(),
        "compiler": build_info["compiler"],
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def workload_fingerprint(cells):
    text = "\n".join(f"{c['key']} {c['fp']}" for c in cells)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def timed(passes, traced):
    """The passes that give times: all but the warm-up, of one kind."""
    return [p for p in passes if not p["warmup"] and p["traced"] == traced]


def end_to_end_metrics(data, names):
    passes = timed(data["passes"], False)
    values = {
        "wall_s": benchstat.median([p["wall_s"] for p in passes]),
        "setup_s": benchstat.median([p["setup_s"] for p in passes]),
        "cpu_s": benchstat.median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": data["peak_rss_mb"],
        "flit_hops_per_s": benchstat.median(
            [p["flit_hops"] / p["hop_time_s"] for p in passes]),
    }
    return {name: {"value": values[name], "unit": names[name]["unit"]}
            for name in names}


def layer_metrics(data, names):
    traced = timed(data["passes"], True)
    untraced = timed(data["passes"], False)
    if not traced:
        raise RuntimeError("the traced run made no traced pass")
    values = {}
    for name in names:
        if name in RUNNER_LAYER_METRICS:
            continue
        if name not in traced[0]["layers"]:
            raise RuntimeError(f"the driver did not report {name}")
        values[name] = benchstat.median([p["layers"][name] for p in traced])
    plain = benchstat.median([p["wall_s"] for p in untraced])
    with_tracing = benchstat.median([p["wall_s"] for p in traced])
    values["stats.tracing_overhead_pct"] = 100.0 * (with_tracing / plain - 1.0)
    return {name: {"value": values[name], "unit": names[name]["unit"]}
            for name in names}


def print_accuracy(run_pass):
    """The Table 1 error metrics with the per-cell errors they average."""
    accuracy = run_pass["accuracy"]
    for metric, prefix, covers in (
            ("accuracy.table1_throughput_err_pct",
             "accuracy.cell.throughput.",
             "36 cells: 6 networks x 6 benchmarks"),
            ("accuracy.table1_power_err_pct", "accuracy.cell.power.",
             "18 cells: 6 networks x Hotspot/Multicast5/Multicast10; "
             "the UniformRandom column calibrated the energy model")):
        print(f"{metric} = {accuracy[metric]:.3f} %  (mean |measured - "
              f"paper| / paper over {covers})")
        for name, value in accuracy.items():
            if name.startswith(prefix):
                print(f"  {name[len(prefix):]:<42} {value:8.3f} %")
    for name, value in accuracy.items():
        if name.startswith("accuracy.cell.power_calibration."):
            cell = name[len("accuracy.cell.power_calibration."):]
            print(f"  (calibration, not scored) {cell:<30} {value:8.3f} %")


def run_workload(args, names):
    """Builds, runs and checks one workload; reports the metrics `names`."""
    started = time.time()
    if not build():
        return 1
    command = [str(DRIVER), "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds)]
    trace_path = None
    if args.trace:
        trace_path = (ROOT / ".bench_build" /
                      f"trace-{args.workload}-seed{args.seed}.json")
        command += ["--trace", "--trace-out", str(trace_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        log("perfbench: the driver overran its time limit and was killed")
        return 1
    if done.returncode != 0:
        log(f"perfbench: the driver exited with code {done.returncode}")
        return 1
    data = json.loads(done.stdout.strip().splitlines()[-1])

    passes = data["passes"]
    attempted, failed, problems = benchstat.count_failed(passes)
    metrics = (layer_metrics(data, names) if args.trace
               else end_to_end_metrics(data, names))
    context = run_context(data["build"])

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={int(args.trace)} "
          f"passes={len(passes)} "
          f"(1 warm-up, {sum(1 for p in passes if p['traced'])} traced)")
    print("context " + json.dumps(context, sort_keys=True))
    fingerprint = workload_fingerprint(passes[0]["cells"])
    print(f"fingerprint {args.workload} {fingerprint}")
    for cell in passes[0]["cells"]:
        print(f"  cell {cell['key']} {cell['fp']}")
    for problem in problems:
        print(f"FAILED {problem}")
    if args.workload == "paper_8x8":
        print_accuracy(passes[0])
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
        if (args.workload, name) in UNMEASURED and args.trace:
            print(f"  not measured: {UNMEASURED[(args.workload, name)]}")
    if trace_path is not None:
        print(f"trace written to {trace_path}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  started=started,
                  seconds=args.seconds, trace=int(args.trace),
                  fingerprint=fingerprint, context=context,
                  samples=[{k: p[k] for k in ("warmup", "traced", "setup_s",
                                               "wall_s", "cpu_s", "flit_hops",
                                               "hop_time_s")}
                           for p in passes])
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results or RESULTS, "a") as out:
        out.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"] == 0:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def compare(args):
    """Per workload and end-to-end metric: each side's median and quartiles,
    the change of the median and the verdict under benchstat.verdict."""
    _, end_to_end, _ = load_spec()
    bounds = {name: (m["better"], m["bound"]) for name, m in end_to_end.items()}
    parent, child = load_runs(args.parent), load_runs(args.child)
    print(f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':<36} "
          f"{'child median [q1, q3]':<36} {'delta':>8}  verdict")
    for workload in sorted(set(parent) & set(child)):
        p_runs, c_runs = parent[workload], child[workload]
        if not benchstat.alternated([r.get("started") for r in p_runs],
                                    [r.get("started") for r in c_runs]):
            print(f"{workload:<14} warning: parent and child runs did not "
                  "alternate, so host drift can read as a change")
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        for name, (better, bound) in bounds.items():
            pv = [r["metrics"][name]["value"] for r in p_runs]
            cv = [r["metrics"][name]["value"] for r in c_runs]
            pm, cm = benchstat.median(pv), benchstat.median(cv)
            pq, cq = benchstat.quartiles(pv), benchstat.quartiles(cv)
            outcome = benchstat.verdict(pv, cv, better, bound)
            if outcome == "improved" and c_failed > p_failed:
                outcome = "unresolved (more failed operations)"
            print(f"{workload:<14} {name:<16} "
                  f"{pm:>11.5g} [{pq[0]:.5g}, {pq[1]:.5g}]".ljust(68) +
                  f" {cm:>11.5g} [{cq[0]:.5g}, {cq[1]:.5g}]".ljust(37) +
                  f" {100.0 * (cm / pm - 1.0):>+7.2f}%  {outcome}")
        print(f"{workload:<14} runs parent={len(p_runs)} child={len(c_runs)} "
              f"failed parent={p_failed} child={c_failed}")
        # Same seed, same simulated output, unless the change is meant to
        # alter the model.
        p_fp = {r["seed"]: r["fingerprint"] for r in p_runs}
        c_fp = {r["seed"]: r["fingerprint"] for r in c_runs}
        seeds = sorted(set(p_fp) & set(c_fp))
        differ = [s for s in seeds if p_fp[s] != c_fp[s]]
        print(f"{workload:<14} simulated output: "
              + (f"differs on seeds {differ}" if differ else
                 f"identical on {len(seeds)} common seeds"))
    return 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent")
        parser.add_argument("child")
        return compare(parser.parse_args(argv[1:]))
    workloads, end_to_end, per_layer = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="append the result record here "
                        f"(default {RESULTS.relative_to(ROOT)})")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return run_workload(args, per_layer if args.trace else end_to_end)


if __name__ == "__main__":
    sys.exit(main())
