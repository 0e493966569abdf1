#!/usr/bin/env python3
"""The manywalks benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds the
manywalks CLI and the layer probe (perfbench/probe.cpp) into .bench_build
(or $CARGO_TARGET_DIR); later runs reuse that build.

--trace 0 times `manywalks run <experiment>` as a user runs it, with no
observer installed, repeating it for --seconds and reporting medians.
--trace 1 alternates that untraced run with perfbench_probe, which
re-composes the experiment from the library's public functions and times
each layer call. Every run's result tables are checked against the
--threads=1 run of the same workload and seed (mwg-ooc also against the
in-core run of its store).

Stdout: a fingerprint line, one line per metric (name, value, unit), and
last the one-line JSON result. The full record of the run (fingerprint,
per-repetition samples, spans, resolved parallelism, store facts) is
written to <build>/results/.
"""
import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
CLI = BUILD / "manywalks"
PROBE = BUILD / "perfbench_probe"

# The pool plus the calling thread must fit a 4-core host: at --threads=4
# the sharded team oversubscribes the cores (see README.md).
THREADS = 3
MIN_REPS = 3         # timed CLI runs per --trace 0 run, whatever --seconds says
SETUP_REPS = 7       # fresh-process set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 150.0

WORKLOADS = {
    # Theory/linalg-bound: exact dense h_max solves, mixing probes and
    # thousands of short trial-parallel MC trials on seven small CSR graphs.
    "table1": {
        "experiment": "table1_summary",
        "args": ["--n=384"],
    },
    # Implicit-substrate lane kernel, trial-parallel MC up to k = 1024; no
    # storage, no theory, no shard merges.
    "giant-torus": {
        "experiment": "giant-torus-speedup",
        "args": ["--kmax=1024", "--target=150000"],
    },
    # In-core CSR lane kernel over mmap with the sharded tracker's merges
    # and barriers; --lane-shards=16 pins what the policy picks for k = 4096.
    "mwg-sharded": {
        "experiment": "mwg-starts",
        "store": 1 << 18,
        "args": ["--k=4096", "--trials=8", "--lane-shards=16"],
    },
    # Block engine and extent cache with a quarter-size budget: same walk
    # and storage code as mwg-sharded, used out of core. The engine is
    # serial, and one serial run's speed follows whichever CPU it lands on:
    # on a shared host that drifts by ±25 % over minutes. Three concurrent
    # clients sample three CPUs at once, which keeps the medians steady.
    "mwg-ooc": {
        "experiment": "mwg-starts",
        "clients": 3,
        "store": 1 << 15,
        "args": ["--k=4096", "--trials=8", "--block-walk", "--mem-budget=256K"],
        "incore_args": ["--k=4096", "--trials=8"],
    },
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "cores_used": "cores",
    "steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "result_match": "ratio",
}

PER_LAYER = {
    "graph.build_s": "s",
    "storage.open_s": "s",
    "theory.hmax_s": "s",
    "theory.mixing_s": "s",
    "mc.estimate_s": "s",
    "cli.emit_s": "s",
    "layers.accounted_s": "s",
    "layers.unaccounted_s": "s",
    "obs.trace_overhead": "ratio",
    "mc.trials": "count",
    "mc.trials_censored": "count",
    "mc.trials_per_s": "1/s",
    "mc.lane_estimates": "count",
    "walk.steps": "count",
    "walk.rounds": "count",
    "walk.kernel_steps_per_cpu_s": "1/s",
    "walk.shard_merges": "count",
    "walk.shard_merge_stalls": "count",
    "walk.merges_per_round": "ratio",
    "walk.block_visits": "count",
    "walk.bucket_passes": "count",
    "walk.bucket_migrations": "count",
    "walk.replayed_rounds": "count",
    "walk.steps_per_block_visit": "ratio",
    "storage.extent_loads": "count",
    "storage.extent_hits": "count",
    "storage.extent_evictions": "count",
    "storage.bytes_loaded": "bytes",
    "storage.bytes_per_step": "bytes",
    "storage.hit_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing source, failed build,
    failed reference run)."""


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# --- processes ----------------------------------------------------------------

@dataclass
class Child:
    """One finished child process: exit code, wall/CPU seconds, peak RSS,
    output, and (CLI runs) the parsed JSON result."""
    code: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str
    result: dict = None


def kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_children(args, tag, copies=1):
    """Starts `copies` instances of args at once from the repository root
    and waits for all of them. Each goes through `perfbench_probe exec`,
    which reports that child's own wall and CPU seconds and peak RSS: a
    child spawned from this process would report this process's peak RSS
    as its own."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    names = [tmp / f"{tag}{i}" for i in range(copies)]
    procs = []
    try:
        for name in names:
            Path(f"{name}.rusage").unlink(missing_ok=True)
            with open(f"{name}.out", "w") as out, \
                    open(f"{name}.err", "w") as err:
                procs.append(subprocess.Popen(
                    [str(PROBE), "exec", f"--rusage={name}.rusage", "--"]
                    + [str(a) for a in args],
                    cwd=ROOT, stdout=out, stderr=err, preexec_fn=os.setpgrp))
        watchdog = threading.Timer(
            CHILD_TIMEOUT_S, lambda: [kill_group(proc) for proc in procs])
        watchdog.start()
        try:
            for proc in procs:
                proc.wait()
        finally:
            watchdog.cancel()
    finally:
        for proc in procs:
            if proc.poll() is None:
                kill_group(proc)
                proc.wait()
    children = []
    for name, proc in zip(names, procs):
        rusage = Path(f"{name}.rusage")
        usage = (json.loads(rusage.read_text()) if rusage.is_file() else
                 {"code": proc.returncode or 1, "wall_s": CHILD_TIMEOUT_S,
                  "cpu_s": 0.0, "maxrss_kb": 0})
        children.append(Child(usage["code"], usage["wall_s"], usage["cpu_s"],
                              usage["maxrss_kb"] / 1024.0,
                              Path(f"{name}.out").read_text(),
                              Path(f"{name}.err").read_text()))
    return children


def run_child(args, tag):
    return run_children(args, tag)[0]


def checked(child, what):
    if child.code != 0:
        raise BenchError(f"{what} exited {child.code}: {child.stderr[-2000:]}")
    return child


# --- build and host -----------------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no manywalks sources at {ROOT} (CMakeLists.txt, src/)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "manywalks_bin", "perfbench_probe"])
    with open(log, "a") as out:
        for step in steps:
            code = subprocess.run([str(a) for a in step], cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT).returncode
            if code != 0:
                fail(f"build step {' '.join(map(str, step))} failed; see {log}:\n"
                     + log.read_text()[-3000:])


def cmake_cache(name):
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(name + ":"):
            return line.split("=", 1)[1]
    return ""


def fingerprint():
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = "unknown"
    commit = "unknown (not a git checkout)"
    top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                         capture_output=True, text=True)
    if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "machine": platform.machine(),
        "compiler": f"{compiler} ({version})",
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "MW_NATIVE": cmake_cache("MW_NATIVE"),
        "git_commit": commit,
        "threads": THREADS,
    }


# --- inputs and set-up --------------------------------------------------------

def store_path(spec):
    """The store's path relative to the root: it is echoed in the result
    tables, so every run of a workload must spell it the same way. Each run
    rewrites it (margulis graphs have no random part)."""
    return (Path(os.path.relpath(BUILD, ROOT)) / "inputs"
            / f"margulis-{spec['store']}.mwg")


def setup(name, spec, seed):
    """Builds the workload's graph SETUP_REPS times in fresh processes and
    returns the wall times. Stored-graph workloads write their margulis v2
    store (`manywalks graph gen`) and open it; the others construct their
    graphs in the probe's set-up mode."""
    samples = []
    for rep in range(SETUP_REPS):
        wall = 0.0
        if "store" in spec:
            path = store_path(spec)
            path.parent.mkdir(parents=True, exist_ok=True)
            wall += checked(run_child(
                [CLI, "graph", "gen", "--family=margulis",
                 f"--n={spec['store']}", f"--seed={seed}", f"--out={path}"],
                "store"), "graph gen").wall
        wall += checked(run_child([PROBE, "setup", f"--workload={name}",
                                   f"--seed={seed}"] + workload_args(spec),
                                  "setup"), "probe setup").wall
        samples.append(wall)
    return samples


def workload_args(spec, args_key="args"):
    args = list(spec[args_key])
    if "store" in spec:
        args.append(f"--graph={store_path(spec)}")
    return args


def store_facts(spec):
    if "store" not in spec:
        return None
    info = json.loads(checked(run_child(
        [CLI, "graph", "info", store_path(spec), "--json"], "info"),
        "graph info").stdout)
    return {"path": str(store_path(spec)), "bytes": info["file_bytes"],
            "blocks": info["blocks"]["count"], "vertices": info["vertices"],
            "adjacency_bytes": info["layout"]["adjacency_bytes"]}


# --- the CLI and its checks ---------------------------------------------------

def cli_runs(spec, seed, threads, tag, copies=1, metrics=False,
             args_key="args"):
    args = [CLI, "run", spec["experiment"], f"--seed={seed}",
            f"--threads={threads}", "--format=json"]
    args += workload_args(spec, args_key)
    if metrics:
        args.append("--metrics")
    children = run_children(args, tag, copies)
    for child in children:
        child.result = json.loads(child.stdout) if child.code == 0 else None
    return children


def cli_run(spec, seed, threads, tag, metrics=False, args_key="args"):
    return cli_runs(spec, seed, threads, tag, 1, metrics, args_key)[0]


def reference(name, spec, seed):
    """The --threads=1 run: the tables every timed run must reproduce, and
    the engine-invariant step count (the in-core lane engine's walk.steps,
    which a blocked run's horizon overshoot does not inflate)."""
    ref = checked(cli_run(spec, seed, 1, "reference", metrics=True),
                  "reference run")
    out = {"tables": ref.result["tables"], "wall": ref.wall,
           "parallelism": parallelism_of(ref.result), "checks": 0,
           "mismatches": 0}
    if "incore_args" in spec:
        incore = checked(cli_run(spec, seed, 1, "incore", metrics=True,
                                 args_key="incore_args"), "in-core run")
        out["checks"] += 1
        if incore.result["tables"] != ref.result["tables"]:
            out["mismatches"] += 1
            print(f"perfbench: {name}: blocked --threads=1 tables differ from "
                  "the in-core run of the same store", file=sys.stderr)
        out["steps"] = incore.result["manifest"]["metrics.walk.steps"]
        out["incore_parallelism"] = parallelism_of(incore.result)
    else:
        out["steps"] = ref.result["manifest"]["metrics.walk.steps"]
    return out


def parallelism_of(result):
    params = result.get("params", {})
    return {key: params[key] for key in ("parallelism", "lane_shards")
            if key in params}


def curve_matches(curve, tables):
    """giant-torus: the probe's raw estimates against the CLI table cells."""
    rows = tables[0]["rows"]
    if len(rows) != len(curve):
        return False
    for row, point in zip(rows, curve):
        if (row[0] != point["k"] or row[1]["mean"] != point["mean"]
                or row[1]["half_width"] != point["half_width"]
                or row[2]["mean"] != point["speedup"]
                or row[2]["half_width"] != point["speedup_half_width"]):
            return False
    return True


# --- measurement --------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def measure_untraced(name, spec, seed, seconds, ref, deadline):
    reps, mismatches = [], 0
    start = time.perf_counter()
    while True:
        for child in cli_runs(spec, seed, THREADS, "timed",
                              spec.get("clients", 1)):
            ok = child.code == 0 and child.result["tables"] == ref["tables"]
            if not ok:
                mismatches += 1
                print(f"perfbench: {name}: timed run {len(reps)} "
                      + ("failed: " + child.stderr[-500:] if child.code else
                         "tables differ from the --threads=1 run"),
                      file=sys.stderr)
            reps.append({"wall_s": child.wall, "cpu_s": child.cpu,
                         "rss_mb": child.rss_mb, "match": ok,
                         "parallelism": parallelism_of(child.result or {})})
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and (elapsed >= seconds
                                      or time.perf_counter() > deadline):
            break
    return reps, mismatches


def measure_traced(name, spec, seed, seconds, ref, deadline):
    pairs, mismatches = [], 0
    copies = spec.get("clients", 1)
    start = time.perf_counter()
    while True:
        children = cli_runs(spec, seed, THREADS, "untraced", copies)
        probes = run_children([PROBE, "trace", f"--workload={name}",
                               f"--seed={seed}", f"--threads={THREADS}"]
                              + workload_args(spec), "probe", copies)
        for child, probe in zip(children, probes):
            trace = json.loads(probe.stdout) if probe.code == 0 else None
            cli_ok = child.code == 0 and child.result["tables"] == ref["tables"]
            if trace is None:
                probe_ok = False
            elif trace["curve"] is not None:
                probe_ok = curve_matches(trace["curve"], ref["tables"])
            else:
                probe_ok = trace["result"]["tables"] == ref["tables"]
            for ok, what, err in ((cli_ok, "untraced CLI run", child.stderr),
                                  (probe_ok, "traced probe run", probe.stderr)):
                if not ok:
                    mismatches += 1
                    print(f"perfbench: {name}: {what} does not match the "
                          f"--threads=1 run: {err[-500:]}", file=sys.stderr)
            pairs.append({"cli_wall_s": child.wall, "trace": trace,
                          "parallelism": parallelism_of(child.result or {})})
        if (time.perf_counter() - start >= seconds
                or time.perf_counter() > deadline):
            break
    return pairs, mismatches


def layer_metrics(pairs, ref):
    """Per-layer metrics from the traced probe runs: times are medians over
    the runs, counts come from the last run (they repeat exactly)."""
    traces = [p["trace"] for p in pairs if p["trace"] is not None]
    if not traces:
        raise BenchError("no traced probe run succeeded")

    def layer_s(trace, layer):
        return sum(s["s"] for s in trace["spans"] if s["layer"] == layer)

    def layer_median(layer):
        return median([layer_s(t, layer) for t in traces])

    last = traces[-1]
    counts = {}
    for span in last["spans"]:
        for key, value in span["counters"].items():
            counts[key] = counts.get(key, 0) + value
    steps = ref["steps"]  # engine-invariant work count
    accounted = median([sum(s["s"] for s in t["spans"]) for t in traces])
    cli_wall = median([p["cli_wall_s"] for p in pairs])
    estimate_s = layer_median("mc.estimate")
    loads, hits = counts.get("cache.loads", 0), counts.get("cache.hits", 0)
    return {
        "graph.build_s": layer_median("graph.build"),
        "storage.open_s": layer_median("storage.open"),
        "theory.hmax_s": layer_median("theory.hmax"),
        "theory.mixing_s": layer_median("theory.mixing"),
        "mc.estimate_s": estimate_s,
        "cli.emit_s": layer_median("cli.emit"),
        "layers.accounted_s": accounted,
        "layers.unaccounted_s": cli_wall - accounted,
        "obs.trace_overhead": ratio(median([t["workload_s"] for t in traces]),
                                    cli_wall),
        "mc.trials": counts.get("mc.trials_done", 0),
        "mc.trials_censored": counts.get("mc.trials_censored", 0),
        "mc.trials_per_s": ratio(counts.get("mc.trials_done", 0), estimate_s),
        "mc.lane_estimates": last["lane_estimates"],
        "walk.steps": counts.get("walk.steps", 0),
        "walk.rounds": counts.get("walk.rounds", 0),
        "walk.kernel_steps_per_cpu_s": median(
            [t["kernel"]["steps_per_cpu_s"] for t in traces]),
        "walk.shard_merges": counts.get("shard.merges", 0),
        "walk.shard_merge_stalls": counts.get("shard.merge_stalls", 0),
        "walk.merges_per_round": ratio(counts.get("shard.merges", 0),
                                       counts.get("walk.rounds", 0)),
        "walk.block_visits": counts.get("block.block_visits", 0),
        "walk.bucket_passes": counts.get("block.bucket_passes", 0),
        "walk.bucket_migrations": counts.get("block.bucket_migrations", 0),
        "walk.replayed_rounds": counts.get("block.replayed_rounds", 0),
        "walk.steps_per_block_visit": ratio(
            steps, counts.get("block.block_visits", 0)),
        "storage.extent_loads": loads,
        "storage.extent_hits": hits,
        "storage.extent_evictions": counts.get("cache.evictions", 0),
        "storage.bytes_loaded": counts.get("cache.bytes_loaded", 0),
        "storage.bytes_per_step": ratio(counts.get("cache.bytes_loaded", 0),
                                        steps),
        "storage.hit_ratio": ratio(hits, hits + loads),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()
    began = time.perf_counter()
    # Leave room under the 180 s per-run limit for the last repetition.
    deadline = began + 120.0

    build()
    name, spec, seed = opts.workload, WORKLOADS[opts.workload], opts.seed
    try:
        setup_samples = setup(name, spec, seed)
        ref = reference(name, spec, seed)
        if opts.trace == 0:
            reps, mismatches = measure_untraced(name, spec, seed, opts.seconds,
                                                ref, deadline)
            wall = median([r["wall_s"] for r in reps])
            metrics = {
                "wall_s": wall,
                "cpu_s": median([r["cpu_s"] for r in reps]),
                "cores_used": median([r["cpu_s"] / r["wall_s"] for r in reps]),
                "steps_per_s": ref["steps"] / wall,
                "setup_s": median(setup_samples),
                "peak_rss_mb": median([r["rss_mb"] for r in reps]),
                "result_match": sum(r["match"] for r in reps) / len(reps),
            }
            units, samples = END_TO_END, reps
        else:
            pairs, mismatches = measure_traced(name, spec, seed, opts.seconds,
                                               ref, deadline)
            metrics = layer_metrics(pairs, ref)
            units, samples = PER_LAYER, pairs
    except BenchError as error:
        fail(str(error))

    attempted = len(samples) * (1 if opts.trace == 0 else 2) + ref["checks"]
    failed = mismatches + ref["mismatches"]
    host = fingerprint()
    record = {
        "workload": name, "seed": seed, "trace": opts.trace,
        "seconds": opts.seconds, "experiment": spec["experiment"],
        "args": workload_args(spec),
        "clients": spec.get("clients", 1), "fingerprint": host,
        "store": store_facts(spec),
        "reference": {"wall_s": ref["wall"], "steps": ref["steps"],
                      "parallelism": ref["parallelism"],
                      "incore_parallelism": ref.get("incore_parallelism")},
        "setup_samples_s": setup_samples, "samples": samples,
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "elapsed_s": time.perf_counter() - began,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{opts.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("# host " + json.dumps(host))
    print("# workload " + json.dumps({
        "name": name, "seed": seed, "args": record["args"],
        "clients": record["clients"],
        "store": record["store"], "parallelism": samples[-1]["parallelism"]}))
    for key, value in metrics.items():
        print(f"{key:32s} {value:>18.6g} {units[key]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
