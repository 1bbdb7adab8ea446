#!/usr/bin/env python3
"""LENS perf benchmark: builds lens_perfbench from the repository's sources,
runs one workload on one worker thread, checks its outputs and prints the
metrics. The last stdout line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. See perfbench/README.md for what each workload and metric
is and how it is estimated.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

WORKLOADS = ("search-mobo", "fleet-2tier", "fleet-3tier-faults", "serve-faults")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "lens_perfbench")
RUN_TIMEOUT_S = 170

# Per workload: the span around the timed call in the traced run, the root
# of the replayed children and the replayed children whose time is taken
# out of the timed call's to leave the loop's self time.
ATTRIBUTION = {
    "fleet-2tier": ("fleet.run", "fleet.replay", "fleet.self_s"),
    "fleet-3tier-faults": ("fleet.run", "fleet.replay", "fleet.self_s"),
    "serve-faults": ("sim.run", "sim.replay", "sim.self_s"),
}
FLEET_KERNELS = ("comm.start_state", "sim.fault_gen", "core.collapse", "comm.trace_step",
                 "runtime.tracker", "runtime.select", "cloud.place_step", "core.price")
SERVE_KERNELS = ("sim.fault_gen", "cloud.admit")
SEARCH_REPLAY = ("opt.gp_fit", "opt.acquisition", "opt.gp_observe")


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def host_facts():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "python": platform.python_version(),
            "machine": platform.machine()}


def build():
    """Configure once, then bring lens_perfbench up to date (quiet unless it
    fails). Build logs go to stderr so stdout stays the result stream."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no LENS sources next to perfbench/ (expected %s)" % os.path.join(ROOT, "src"))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "lens_perfbench", "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build step failed: %s" % " ".join(cmd))


def end_to_end(records):
    reps = [r for r in records if r["type"] == "rep" and r["phase"] == "run"]
    setups = [r for r in records if r["type"] == "setup"]
    counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
    rss = [r["peak_mb"] for r in records if r["type"] == "rss"]
    return {
        "setup_s": benchstats.median_setup(setups),
        "work_per_s": benchstats.fast_half_rate(reps),
        "peak_rss_mb": rss[-1],
        "quality_share": counters["quality_share"],
    }


def per_layer(workload, names, records, spans):
    """Every per-layer metric in `names`; a layer the workload never reaches
    reads 0 (no calls, no time), an admission share with nothing offered 1."""
    counters = {r["name"]: r["value"] for r in records if r["type"] == "counter"}
    reps = {r["phase"]: r["seconds"] for r in records if r["type"] == "rep"}
    untraced, traced = reps["untraced"], reps["traced"]
    everything = benchstats.span_table(spans)

    def total(table, name):
        return table.get(name, {}).get("total", 0.0)

    def calls(table, name):
        return table.get(name, {}).get("calls", 0)

    m = dict.fromkeys(names, 0.0)
    m["cloud.admitted_share"] = m["cloud.fog_admitted_share"] = 1.0
    m.update((n, v) for n, v in counters.items() if n in m)
    m["perf.train_s"] = total(everything, "perf.train")

    if workload == "search-mobo":
        nas_driver = benchstats.span_table(spans, under="search.nas_driver")
        engine = benchstats.span_table(spans, under="search.engine")
        replay = benchstats.span_table(spans, under="opt.replay")
        m["opt.gp_fit_s"] = total(replay, "opt.gp_fit")
        m["opt.gp_fit_calls"] = calls(replay, "opt.gp_fit")
        m["opt.acquisition_s"] = total(replay, "opt.acquisition")
        m["opt.acquisition_calls"] = calls(replay, "opt.acquisition")
        m["opt.gp_observe_s"] = total(replay, "opt.gp_observe")
        m["opt.self_s"] = engine["opt.step"]["self"]
        m["core.sample_s"] = total(engine, "core.sample")
        m["core.compile_s"] = total(engine, "core.compile")
        m["core.price_s"] = total(engine, "core.price")
        m["perf.predict_s"] = total(nas_driver, "perf.predict")
        m["perf.predict_calls"] = calls(nas_driver, "perf.predict")
        m["core.accuracy_s"] = total(nas_driver, "core.accuracy")
        # The replay stands in for the engine's own self time.
        layers = [row["self"] for name, row in engine.items() if name != "opt.step"]
        layers += [total(replay, name) for name in SEARCH_REPLAY]
        m["opt.replay_gap_share"] = (
            m["opt.self_s"] - sum(total(replay, n) for n in SEARCH_REPLAY)) / untraced
    else:
        timed, replay_root, self_name = ATTRIBUTION[workload]
        replay = benchstats.span_table(spans, under=replay_root)
        kernels = FLEET_KERNELS if workload.startswith("fleet") else SERVE_KERNELS
        for name in kernels:
            m[name + "_s"] = total(replay, name)
        children = sum(total(replay, name) for name in kernels)
        m[self_name] = total(everything, timed) - children
        layers = [m[self_name]] + [total(replay, name) for name in kernels]
        if workload == "serve-faults":
            m["sim.fault_query_ns"] = (
                1e9 * total(replay, "sim.fault_query") / counters["sim.fault_query_calls"])
    m["bench.residual_share"] = benchstats.residual_share(untraced, layers)
    m["bench.trace_overhead_share"] = benchstats.overhead_share(traced, untraced)
    return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail("lens_perfbench exited with %d" % proc.returncode)
    records, spans = benchstats.parse_output(proc.stdout)

    checks = [r for r in records if r["type"] == "check"]
    attempted, failed = benchstats.tally_checks(checks)
    for c in checks:
        if not c["ok"]:
            print(json.dumps({"failed_check": c["name"], "detail": c["detail"]}))
    print(json.dumps({"host": host_facts()}))
    for r in records:
        if r["type"] in ("config", "workload", "digest"):
            print(json.dumps(r))

    if args.trace:
        values = per_layer(args.workload, list(units), records, spans)
    else:
        values = end_to_end(records)
    missing = [n for n in units if n not in values]
    if missing:
        fail("metrics not produced: %s" % ", ".join(missing))
    extra = {n: v for n, v in values.items() if n not in units}
    if extra:
        print(json.dumps({"diagnostics": extra}))
    metrics = {n: values[n] for n in units}
    print(benchstats.result_line(failed == 0, attempted, failed, metrics, units))


if __name__ == "__main__":
    main()
