#!/usr/bin/env python3
"""Campaign benchmark for the pbSE engine.

Builds campaign_bench (CMakeLists.txt in this directory) from the engine
sources under ../src, runs one named workload for a fixed time and prints
every metric by name with its unit. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 campaign_bench/run.py --workload readelf-klee --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 is the separate traced
run that reports the per-layer metrics. --self-test runs every workload at
a tiny budget twice and checks determinism and the metric table;
--write-spec regenerates ../BENCHMARK.json from the tables below. NOTES.md
explains the workloads, the metrics and the checks.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "campaign_bench")
# One pass is a few seconds; a pass that takes this long has hung.
PASS_TIMEOUT_S = 150
SERVED = "readelf-pbse-served"

WORKLOADS = [
    ("readelf-klee",
     "KLEE baseline, sym-1000 readelf, default/random-path/md2u/bfs at 300k ticks: "
     "solver-bound (98.5% of ticks); bypasses concolic, phase and the pbSE scheduler"),
    ("pngtest-prepare",
     "prepare() only on pngtest scales 6 and 12: interpreter, BBVs, k-means; solver 0.05% "
     "of ticks, no search. gif2tiff scale>=2 left out: its concolic step alone takes 84 s"),
    (SERVED,
     "Alg. 1 on readelf (scales 2, 12, 500k ticks) via server::run_job_slice at 50k-tick "
     "slices: solver 83% of ticks; loads every layer, the only load on serialize and server"),
]

# bound: share of the parent's median by which the metric may get worse.
# Timings get the largest bound: on a shared 4-core VM the same pass varies
# by 10 to 30% between passes, and the seed moves the searched paths.
END_TO_END = [
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ticks_per_cpu_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "covered_blocks", "unit": "count", "better": "higher", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.25},
]

PER_LAYER = [
    ("lang.build_s", "s", "lower"),
    ("core.construct_s", "s", "lower"),
    ("concolic.run_s", "s", "lower"),
    ("concolic.instructions", "count", "lower"),
    ("concolic.instr_per_s", "1/s", "higher"),
    ("concolic.ticks", "count", "lower"),
    ("concolic.seed_states", "count", "higher"),
    ("phase.analyze_s", "s", "lower"),
    ("phase.bbvs", "count", "lower"),
    ("phase.kmeans_work", "count", "lower"),
    ("phase.ticks", "count", "lower"),
    ("core.prepare_s", "s", "lower"),
    ("core.turn_s.p50", "s", "lower"),
    ("core.turn_s.tail", "s", "lower"),
    ("core.turns", "count", "higher"),
    ("core.seed_states_activated", "count", "higher"),
    ("core.budget_overrun_ticks", "count", "lower"),
    ("explore_s", "s", "lower"),
    ("vm.forks", "count", "higher"),
    ("vm.static_edge_kills", "count", "higher"),
    ("vm.subsumed_barren", "count", "higher"),
    ("vm.fork_unknown", "count", "lower"),
    ("bugs_found", "count", "higher"),
    ("solver.queries", "count", "lower"),
    ("solver.search_unknown", "count", "lower"),
    ("solver.ticks", "count", "lower"),
    ("solver.tick_share", "ratio", "lower"),
    ("solver.presearch_frac", "ratio", "higher"),
    ("serialize.encode_s", "s", "lower"),
    ("serialize.decode_s", "s", "lower"),
    ("serialize.snapshot_bytes", "bytes", "lower"),
    ("slice_s_p50", "s", "lower"),
    ("slice_s_tail", "s", "lower"),
    ("server.slices", "count", "lower"),
    ("server.self_s", "s", "lower"),
    ("server.overhead_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Printed with the end-to-end table but kept out of its JSON: they are not
# steady across runs or seeds, or not nonzero. Wall time also counts the time
# other processes on a shared host hold the core, so the JSON carries the same
# sections in CPU time; pass_cpu_s is the plain median over whole passes that
# cpu_s improves on; bugs_found moves by a whole bug site between seeds
# (per-layer count); slice latency mostly times one scheduler turn, whose
# length the seed sets (per-layer, from the traced run's untraced passes);
# failed_frac is the JSON's failed/attempted.
PRINTED_ONLY = [("wall_s", "s"), ("ticks_per_s", "1/s"), ("pass_cpu_s", "s"),
                ("bugs_found", "count"),
                ("slice_s_p50", "s"), ("slice_s_tail", "s"), ("failed_frac", "ratio")]

SPEC = {
    "command": ["python3", "campaign_bench/run.py"],
    "paths": ["campaign_bench"],
    "run_seconds": 40,
    "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
    "end_to_end": END_TO_END,
    "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- Build and passes ----------------------------------------------------------


def build():
    """Configures and builds campaign_bench; False (log on stderr) on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "campaign_bench", "-j", jobs],
    ]
    with open(log_path, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                out.write(f"{step[0]}: {e}\n")
                code = 1
            if code != 0:
                break
    if code != 0:
        with open(log_path) as f:
            log("build failed:\n" + "".join(f.readlines()[-30:]))
        return False
    return True


def run_pass(workload, seed, *flags):
    """Runs one pass in its own process. Returns (result, problem)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), *flags]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"pass timed out after {PASS_TIMEOUT_S} s"
    lines = p.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None, f"pass exited {p.returncode}: {p.stderr.strip()[-400:]}"
    if result["errors"]:
        return result, "; ".join(result["errors"])
    if p.returncode != 0:
        return result, f"pass exited {p.returncode}"
    return result, None


def signature(result):
    """The deterministic part of a pass: per campaign covered blocks, ticks,
    bug sites with witness hashes, and final snapshot size and hash."""
    return [(c["covered"], c["ticks"], tuple(c["bugs"]), c["snapshot_bytes"],
             c["snapshot_fnv"]) for c in result["campaigns"]]


def ops_of(workload, result):
    """Operations a pass attempted: campaigns, or slices when served."""
    if workload == SERVED and result["counts"]["server.slices"] > 0:
        return result["counts"]["server.slices"]
    return len(result["campaigns"])


class Run:
    """The passes of one invocation and the checks made on them."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.passes = {}  # kind -> [result]
        self.expected = None  # signature every pass must reproduce
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, kind, *flags):
        """Runs and checks one pass. A pass that fails a check still counts
        towards the metrics; its operations count as failed."""
        result, problem = run_pass(self.workload, self.seed, *flags)
        ops = ops_of(self.workload, result) if result else 1
        if result is not None and problem is None:
            sig = signature(result)
            if self.expected is None:
                self.expected = sig
            elif sig != self.expected:
                names = [c["name"] for c in result["campaigns"]]
                diff = [n for n, a, b in zip(names, sig, self.expected) if a != b]
                problem = (f"differs from the first pass in {diff or 'campaign count'} "
                           "(covered, ticks, bugs or snapshot bytes)")
        self.attempted += ops
        if problem is not None:
            self.problems.append(f"{kind}: {problem}")
            self.failed += ops
        if result is not None:
            self.passes.setdefault(kind, []).append(result)
        return result

    def correct(self):
        return self.failed == 0 and not self.problems


# --- Statistics ----------------------------------------------------------------


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, label). With fewer than 40 samples that is the maximum."""
    xs = sorted(samples)
    n = len(xs)
    for p in (99.9, 99, 95, 90, 75):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return xs[rank - 1], f"p{p:g}"
    return (xs[-1] if xs else 0.0), "max"


def median(values):
    return statistics.median(values) if values else 0.0


def slice_stats(results):
    """Median and tail slice time over the passes, with printable notes."""
    slices = [x for r in results for x in r["slice_s"]]
    value, label = tail(slices)
    return ({"slice_s_p50": median(slices), "slice_s_tail": value},
            {"slice_s_p50": f"n={len(slices)}", "slice_s_tail": f"{label}, n={len(slices)}"})


def fastest(results, key):
    """A pass's time in `key` ("segment_cpu_s" or "segment_wall_s") as the
    sum, over its segments, of each segment's fastest time in any pass. The
    passes repeat the same work segment by segment (checked), so this keeps
    the time of each segment that other work on the host did not slow down."""
    per_pass = [r[key] for r in results]
    if len({len(p) for p in per_pass}) != 1:
        return min(sum(p) for p in per_pass)
    return sum(min(seg) for seg in zip(*per_pass))


def end_to_end(results):
    """End-to-end metrics over untraced passes of one workload and seed, and
    the printed-only extras with notes for the table."""
    cpu_s = fastest(results, "segment_cpu_s")
    wall_s = fastest(results, "segment_wall_s")
    ticks = results[0]["ticks"]
    setups = [x for r in results for x in r["setup_s"]]
    metrics = {
        "cpu_s": cpu_s,
        "ticks_per_cpu_s": ticks / cpu_s,
        "covered_blocks": results[0]["covered"],
        "setup_s": min(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }
    extras, notes = slice_stats(results)
    extras["wall_s"] = wall_s
    extras["ticks_per_s"] = ticks / wall_s
    extras["pass_cpu_s"] = median([r["cpu_s"] for r in results])
    sites = results[0]["bug_sites"]
    extras["bugs_found"] = len(sites)
    segments = len(results[0]["segment_cpu_s"])
    notes.update({
        "cpu_s": f"fastest of {len(results)} passes per segment, {segments} segments",
        "wall_s": f"fastest of {len(results)} passes per segment, {segments} segments",
        "pass_cpu_s": f"median of {len(results)} passes",
        "setup_s": f"fastest of {len(setups)} set-ups",
        "bugs_found": ", ".join(sites),
    })
    return metrics, extras, notes


def per_layer(traced, untraced, reference):
    """Per-layer metrics: medians over traced passes of each pass's value."""
    def med(f):
        return median([f(r) for r in traced])

    def counts(name):
        return med(lambda r: r["counts"][name])

    turns = [x for r in traced for x in r["turn_s"]]
    m = {
        "lang.build_s": med(lambda r: r["layers"]["lang"]),
        "core.construct_s": med(lambda r: r["layers"]["core.construct"]),
        "concolic.run_s": med(lambda r: r["layers"]["concolic"]),
        "concolic.instr_per_s": med(lambda r: r["counts"]["concolic.instructions"]
                                    / r["layers"]["concolic"]
                                    if r["layers"]["concolic"] > 0 else 0.0),
        "phase.analyze_s": med(lambda r: r["layers"]["phase"]),
        "core.prepare_s": med(lambda r: sum(r["prepare_s"])),
        "core.turn_s.p50": median(turns),
        "core.turn_s.tail": tail(turns)[0] if turns else 0.0,
        "explore_s": med(lambda r: r["layers"]["explore"]),
        "bugs_found": len(traced[0]["bug_sites"]),
        "solver.tick_share": med(lambda r: r["solver_tick_share"]),
        "solver.presearch_frac": med(lambda r: r["solver_presearch_frac"]),
        "serialize.encode_s": med(lambda r: sum(r["encode_s"])),
        "serialize.decode_s": med(lambda r: sum(r["decode_s"])),
        "server.self_s": med(lambda r: r["layers"]["server"]),
        "server.overhead_frac": 0.0,
        "trace.overhead_frac": med(lambda r: r["wall_s"])
        / median([r["wall_s"] for r in untraced]) - 1,
    }
    m.update(slice_stats(untraced)[0])
    if reference:
        m["server.overhead_frac"] = (median([r["wall_s"] for r in untraced])
                                     / median([r["wall_s"] for r in reference]) - 1)
    return {name: m[name] if name in m else counts(name) for name, _, _ in PER_LAYER}


# --- Reports ---------------------------------------------------------------------


def units(table):
    return {t[0] if isinstance(t, tuple) else t["name"]:
            t[1] if isinstance(t, tuple) else t["unit"] for t in table}


def print_table(title, metrics, unit_of, notes):
    print(title)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:28s} {value:>16.6g} {unit_of[name]}{note}")


def layer_report(traced, untraced, overhead):
    """Per-layer self time inside the campaigns, largest first, and the
    layers that together account for most of wall_s."""
    wall = median([r["wall_s"] for r in traced])
    layers = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    print(f"layer self time (median of {len(traced)} traced passes, traced wall {wall:.4f} s, "
          f"untraced {median([r['wall_s'] for r in untraced]):.4f} s)")
    dominant, total = [], 0.0
    for name, secs in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"  {name:16s} {secs:10.4f} s  {100 * secs / wall:6.2f}% of wall_s")
        if total <= wall / 2:
            dominant.append(name)
            total += secs
    print(f"  most of wall_s: {' + '.join(dominant)} = {100 * total / wall:.1f}%"
          f"   (trace overhead {100 * overhead:+.1f}%)")


def measure(workload, seed, seconds, traced):
    """Runs passes for `seconds` and returns (run, metrics, unit table)."""
    run = Run(workload, seed)
    start = time.monotonic()
    served = workload == SERVED
    if served:
        # The in-process run of the same campaigns; every served pass must
        # reproduce its results and final snapshot bytes.
        run.add("reference", "--reference", "--check")
    spans_dir = os.path.join(BUILD, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    kinds = ["untraced", "traced"] + (["reference"] if served else []) if traced else ["untraced"]
    last_s = {}  # kind -> length of its last pass
    i = 0
    while True:
        missing = any(k not in run.passes for k in kinds)
        kind = kinds[i % len(kinds)]
        # Start a pass only if at least half of it fits, so a run lasts
        # about `seconds` however long its passes are.
        if not missing and time.monotonic() - start + last_s.get(kind, 0) / 2 >= seconds:
            break
        if i >= 4 * len(kinds) and missing:
            break  # a kind keeps failing; the problems are recorded
        flags = []
        if kind == "untraced" and i == 0 and not served:
            flags.append("--check")
        if kind == "traced":
            path = os.path.join(spans_dir, f"{workload}-seed{seed}-pass{i}.jsonl")
            flags += ["--trace", "--spans", path]
        if kind == "reference":
            flags.append("--reference")
        t0 = time.monotonic()
        run.add(kind, *flags)
        last_s[kind] = time.monotonic() - t0
        i += 1

    untraced = run.passes.get("untraced", [])
    if not traced:
        if not untraced:
            return run, None, None
        metrics, extras, notes = end_to_end(untraced)
        printed = dict(metrics, **extras, failed_frac=run.failed / max(1, run.attempted))
        notes["failed_frac"] = f"{run.failed}/{run.attempted} operations"
        print_table(f"{workload} seed={seed}: end-to-end", printed,
                    dict(units(END_TO_END), **units(PRINTED_ONLY)), notes)
        return run, metrics, units(END_TO_END)

    if "traced" not in run.passes or not untraced:
        return run, None, None
    metrics = per_layer(run.passes["traced"], untraced, run.passes.get("reference"))
    print_table(f"{workload} seed={seed}: per layer", metrics, units(PER_LAYER), {})
    layer_report(run.passes["traced"], untraced, metrics["trace.overhead_frac"])
    return run, metrics, units(PER_LAYER)


# --- Entry points ------------------------------------------------------------------


def self_test():
    """Every workload at a tiny budget, twice with one seed: the deterministic
    fields must repeat, served must equal in-process, traced must equal
    untraced, and every metric must come out with its unit."""
    if not build():
        return 2
    failures = []
    for workload, _ in WORKLOADS:
        run = Run(workload, 7)
        if workload == SERVED:
            run.add("reference", "--tiny", "--reference", "--check")
        first = run.add("untraced", "--tiny", "--check")
        run.add("untraced", "--tiny")
        path = os.path.join(BUILD, f"selftest-{workload}.jsonl")
        run.add("traced", "--tiny", "--trace", "--spans", path)
        if not run.correct():
            failures += [f"{workload}: {p}" for p in run.problems]
            continue
        e2e, _, _ = end_to_end(run.passes["untraced"])
        layers = per_layer(run.passes["traced"], run.passes["untraced"],
                           run.passes.get("reference"))
        for table, values in ((END_TO_END, e2e), (PER_LAYER, layers)):
            for name, unit in units(table).items():
                if not unit or not isinstance(values.get(name), (int, float)):
                    failures.append(f"{workload}: metric {name} missing or without unit")
        if not os.path.getsize(path):
            failures.append(f"{workload}: traced pass wrote no spans")
        print(f"{workload}: deterministic over {len(run.passes['untraced'])} passes "
              f"+ traced; covered={first['covered']} ticks={first['ticks']} "
              f"bugs={len(first['bug_sites'])} replayed={first['replayed']}")
    for f in failures:
        print("FAIL", f)
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w for w, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--write-spec", action="store_true",
                    help="write ../BENCHMARK.json from the tables in this file")
    args = ap.parse_args()

    if args.write_spec:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(SPEC, f, indent=2)
            f.write("\n")
        return 0
    if args.self_test:
        return self_test()
    if args.workload is None:
        ap.error("--workload is required")
    if not build():
        return 2

    run, metrics, unit_of = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    for p in run.problems:
        log(f"check failed: {p}")
    if metrics is None:
        log("no pass completed")
        return 1
    out = {
        "correct": run.correct(),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0 if run.correct() else 1


if __name__ == "__main__":
    sys.exit(main())
