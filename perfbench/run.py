#!/usr/bin/env python3
"""Wall-clock benchmark of the LAPSES simulator.

Builds perfbench/ (the driver plus liblapses from the repository's
sources) in Release, runs one workload for a fixed time, checks every
operation's simulated statistics against the pinned bytes in
pins.json, and prints one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload mesh16_transpose_knee \\
        --seed 1 --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a separate traced pass. Two maintenance modes:

    python3 perfbench/run.py --self-check [--runs 10]   # steadiness
    python3 perfbench/run.py --regen-pins               # refresh pins

README.md beside this file documents workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

WORKLOADS = [
    "mesh16_transpose_knee",
    "mesh64_uniform_par2",
    "dragonfly72_service",
    "campaign_fig5_quick_par2",
]

E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Environment knobs liblapses resolves at run time; never passed on.
SANITIZED_PREFIX = "LAPSES_"

# A setup_s this small is timer noise; the self-check lets medians
# within this many seconds of each other agree whatever the share.
SETUP_FLOOR_S = 0.001

# Wall-clock limit of one invocation, build excluded.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """A failure that must end the run without printing a result."""


# --- Build ------------------------------------------------------------


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configure (once) and build the driver; returns its path."""
    bdir = build_dir()
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").exists():
        raise BenchError("the repository's sources are missing beside "
                         "perfbench/")
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _run_build_step(cmd)
    _run_build_step(["cmake", "--build", str(bdir), "-j", "2"])
    return bdir / "lapses-perfbench"


def _run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError("build step failed: " + " ".join(cmd))


def sanitized_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith(SANITIZED_PREFIX)}


# --- Driver output ----------------------------------------------------


def parse_driver_output(text):
    """Parse the driver's line protocol (see driver.cpp).

    Returns {"host": dict, "stats": {rep: [record, ...]},
    "reps": [dict, ...], "metrics": {name: (value, unit)},
    "spans": path or None}. Raises ValueError on a malformed line.
    """
    out = {"host": None, "stats": {}, "reps": [], "metrics": {},
           "spans": None}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        try:
            if kind == "HOST":
                out["host"] = json.loads(rest)
            elif kind == "STATS":
                rep, _, record = rest.partition(" ")
                out["stats"].setdefault(int(rep), []).append(record)
            elif kind == "REP":
                out["reps"].append(json.loads(rest))
            elif kind == "METRIC":
                name, value, unit = rest.split(" ")
                if name in out["metrics"]:
                    raise ValueError("duplicate metric " + name)
                out["metrics"][name] = (float(value), unit)
            elif kind == "SPANS":
                out["spans"] = rest
            else:
                raise ValueError("unknown record kind " + repr(kind))
        except (ValueError, json.JSONDecodeError) as e:
            raise ValueError("driver output line %d: %s: %r"
                             % (lineno, e, line)) from None
    return out


def records_digest(records):
    data = "".join(r + "\n" for r in records).encode()
    return hashlib.sha256(data).hexdigest(), len(data)


def op_problem(workload, parsed, rep, pins):
    """Why one operation fails its check, or None when it passes.

    An operation fails when it raised, has no pin for its seed, or its
    bytes or simulated cycle count differ from the pin (cycles of 0
    mean the driver could not observe them).
    """
    pin = pins.get(workload, {}).get(str(rep["sim_seed"]))
    if rep["error"]:
        return "raised: " + rep["error"]
    if pin is None:
        return "no pinned statistics for this seed"
    records = parsed["stats"].get(rep["rep"], [])
    if records_digest(records)[0] != pin["sha256"]:
        return "statistics differ from the pinned bytes"
    if rep["cycles"] and rep["cycles"] != pin["cycles"]:
        return "simulated %d cycles, pinned %d" % (rep["cycles"],
                                                   pin["cycles"])
    return None


def check_pins(workload, parsed, pins):
    """Returns (attempted, failed, problems) over every operation."""
    problems = []
    for rep in parsed["reps"]:
        problem = op_problem(workload, parsed, rep, pins)
        if problem is not None:
            problems.append("%s op %d (seed %d): %s" % (
                workload, rep["rep"], rep["sim_seed"], problem))
    return len(parsed["reps"]), len(problems), problems


def e2e_metrics(workload, parsed, pins):
    """Medians over the operations that passed their pin check."""
    ok = [rep for rep in parsed["reps"]
          if op_problem(workload, parsed, rep, pins) is None]
    if not ok:
        raise BenchError("no operation of %s passed its check" % workload)
    cycles = [pins[workload][str(r["sim_seed"])]["cycles"] for r in ok]
    values = {
        "run_s": statistics.median(r["run_s"] for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "sim_cycles_per_s": statistics.median(
            c / r["run_s"] for c, r in zip(cycles, ok)),
        "cpu_s": statistics.median(r["cpu_s"] for r in ok),
        "peak_rss_mb": parsed["metrics"]["peak_rss_mb"][0],
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in E2E_UNITS.items()}


def layer_metrics(parsed, expected):
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in parsed["metrics"].items()
               if name != "peak_rss_mb"}
    missing = [name for name in expected if name not in metrics]
    if missing:
        raise BenchError("traced pass did not report " + ", ".join(missing))
    return {name: metrics[name] for name in expected}


# --- Host record ------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources, path and bytes."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".py",
                                                  ".txt", ".json"):
                h.update(str(path.relative_to(ROOT)).encode() + b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()


def host_record(driver_host, args):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": driver_host["build_type"],
        "compiler": driver_host["compiler"],
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "threads": driver_host["threads"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# --- One benchmark run ------------------------------------------------


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_driver(driver, argv, timeout):
    proc = subprocess.run([str(driver)] + argv, capture_output=True,
                          text=True, env=sanitized_env(), timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError("driver exited with code %d" % proc.returncode)
    return parse_driver_output(proc.stdout)


def bench(args):
    driver = build()
    start = time.monotonic()
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        argv += ["--spans-out",
                 str(build_dir() / ("spans-%s.jsonl" % args.workload))]
    parsed = run_driver(driver, argv, RUN_TIMEOUT_S)
    if parsed["host"] is None:
        raise BenchError("driver printed no HOST record")
    host = host_record(parsed["host"], args)
    if host["build_type"] != "Release":
        raise BenchError("refusing to report a %r build; results come "
                         "from Release only" % host["build_type"])

    pins = load_json(PINS)
    attempted, failed, problems = check_pins(args.workload, parsed, pins)
    for problem in problems:
        print("MISMATCH " + problem, file=sys.stderr)
    if args.trace:
        expected = [m["name"] for m in load_json(BENCHMARK_JSON)["per_layer"]]
        metrics = layer_metrics(parsed, expected)
        if parsed["spans"]:
            print("spans written to " + parsed["spans"], file=sys.stderr)
    else:
        metrics = e2e_metrics(args.workload, parsed, pins)
    print("HOST " + json.dumps(host, sort_keys=True))
    print("elapsed %.1f s" % (time.monotonic() - start), file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


# --- Pin refresh --------------------------------------------------------


PIN_SEEDS = [1, 2, 3, 4]  # driver.cpp kSimSeeds


def regen_pins(workloads):
    """Pin each workload's statistics on every simulation seed.

    The driver's traced pass runs the workload twice (untraced, then
    traced; for the campaign runCampaign at two jobs, then one run at
    a time), and both must produce the same bytes.
    """
    driver = build()
    pins = load_json(PINS) if PINS.exists() else {}
    for workload in workloads:
        pins[workload] = {}
        for seed in PIN_SEEDS:
            parsed = run_driver(driver, [
                "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", "1", "--pin-seed", str(seed)], None)
            reps = parsed["reps"]
            digests = [records_digest(parsed["stats"].get(r["rep"], []))
                       for r in reps]
            cycles = [r["cycles"] for r in reps if r["cycles"]]
            if any(r["error"] for r in reps) or len(set(digests)) != 1 \
                    or len(set(cycles)) != 1:
                raise BenchError("%s seed %d: untraced and traced runs "
                                 "disagree" % (workload, seed))
            pins[workload][str(seed)] = {
                "sha256": digests[0][0], "bytes": digests[0][1],
                "records": len(parsed["stats"][0]), "cycles": cycles[0]}
            print("pinned %s seed %d: %s" % (workload, seed,
                                             pins[workload][str(seed)]),
                  file=sys.stderr)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=2, sort_keys=True)
        f.write("\n")


# --- Steadiness self-check --------------------------------------------


def summarize(values):
    """Median, first and third quartile (statistics.quantiles, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first, second, better):
    """Share by which second is worse than first (negative = better)."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare_sets(set1, set2, spec):
    """Check two sets of runs of one workload against the bounds.

    set1/set2 map metric name to its list of values; spec is
    BENCHMARK.json's end_to_end list. Returns rows of
    (name, summary1, summary2, worse, ok).
    """
    rows = []
    for m in spec:
        name = m["name"]
        s1, s2 = summarize(set1[name]), summarize(set2[name])
        worse = worse_by(s1["median"], s2["median"], m["better"])
        ok = worse <= m["bound"]
        if name == "setup_s":
            ok = ok or abs(s2["median"] - s1["median"]) <= SETUP_FLOOR_S
        else:
            ok = ok and max(s1["spread"], s2["spread"]) <= m["bound"]
        rows.append((name, s1, s2, worse, ok))
    return rows


def self_check(workloads, runs, seconds):
    spec = load_json(BENCHMARK_JSON)["end_to_end"]
    build()
    all_ok = True
    for workload in workloads:
        sets = []
        for set_no in (1, 2):
            values = {m["name"]: [] for m in spec}
            for i in range(runs):
                seed = 1000 * set_no + i
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", "0"],
                    capture_output=True, text=True)
                result = json.loads(proc.stdout.splitlines()[-1])
                if proc.returncode != 0 or not result["correct"]:
                    raise BenchError("%s seed %d failed" % (workload, seed))
                for name in values:
                    values[name].append(result["metrics"][name]["value"])
            sets.append(values)
        print("== %s (%d runs per set, %d s each)" % (workload, runs,
                                                      seconds))
        print("%-18s %14s %8s %14s %8s %8s  %s" % (
            "metric", "median1", "spread1", "median2", "spread2",
            "worse", "agree"))
        for name, s1, s2, worse, ok in compare_sets(sets[0], sets[1], spec):
            all_ok = all_ok and ok
            print("%-18s %14.6g %7.2f%% %14.6g %7.2f%% %7.2f%%  %s" % (
                name, s1["median"], 100 * s1["spread"], s2["median"],
                100 * s2["spread"], 100 * worse, "yes" if ok else "NO"))
        sys.stdout.flush()
    return all_ok


# --- Main ---------------------------------------------------------------


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true",
                   help="run every workload in two sets and compare")
    p.add_argument("--runs", type=int, default=10,
                   help="runs per set for --self-check")
    p.add_argument("--workloads", default=",".join(WORKLOADS),
                   help="comma-separated workloads for the maintenance "
                        "modes")
    p.add_argument("--regen-pins", action="store_true")
    args = p.parse_args()
    try:
        if args.regen_pins:
            regen_pins(args.workloads.split(","))
        elif args.self_check:
            return 0 if self_check(args.workloads.split(","), args.runs,
                                   args.seconds) else 1
        elif args.workload is None:
            p.error("--workload is required")
        else:
            bench(args)
    except (BenchError, ValueError, OSError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
