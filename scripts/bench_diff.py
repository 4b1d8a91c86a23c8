#!/usr/bin/env python3
"""Compares two bench JSON files (the BENCH_pbse.json or BENCH_table2.json
golden and a fresh run) on their deterministic fields.

Wall-clock fields (wall_seconds) vary run to run and are ignored; coverage,
ticks, bug counts, and every solver_cache counter (the cache hit classes,
the Unknown counters and their denominators, which bench/bench_json.h writes
from its kSolverCacheRows table) are virtual-clock-deterministic for a fixed
bench configuration, so any drift is a real behaviour change and fails the
check.
Usage: bench_diff.py <golden.json> <fresh.json>
"""
import json
import sys

# Stands in for a solver_cache key that only one of the two files has: a
# counter added or removed without regenerating the golden is drift.
MISSING = "<missing>"

# The multiproc section (written by scripts/multiproc_smoke.sh): transfer
# volume and requeue count of the fixed worker-tier workload are
# deterministic; wall_seconds and the RSS numbers are not and are ignored.
MULTIPROC_KEYS = (
    "worker_processes",
    "jobs_requeued",
    "frame_bytes",
)


def deterministic(d, solver_cache_keys):
    out = {k: d[k] for k in ("bench", "jobs", "share_cache", "total_covered",
                             "total_bugs", "total_ticks")}
    out["solver_cache"] = {k: d["solver_cache"].get(k, MISSING)
                           for k in solver_cache_keys}
    out["campaigns"] = [{k: c[k] for k in ("name", "covered", "ticks", "bugs")}
                        for c in d["campaigns"]]
    out["multiproc"] = {k: d.get("multiproc", {}).get(k, 0)
                        for k in MULTIPROC_KEYS}
    return out


def report_drift(key, old, new, indent="  "):
    if isinstance(old, dict) and isinstance(new, dict):
        for k in old:
            if old[k] != new.get(k):
                report_drift(f"{key}.{k}", old[k], new.get(k), indent)
        return
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            if a != b:
                report_drift(f"{key}[{i}]", a, b, indent)
        return
    print(f"{indent}{key}: {old!r} -> {new!r}", file=sys.stderr)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_path, fresh_path = sys.argv[1], sys.argv[2]
    with open(golden_path) as f:
        golden = json.load(f)
    with open(fresh_path) as f:
        fresh = json.load(f)
    keys = sorted(set(golden["solver_cache"]) | set(fresh["solver_cache"]))
    golden = deterministic(golden, keys)
    fresh = deterministic(fresh, keys)
    if golden == fresh:
        print(f"bench_diff: {fresh_path} matches {golden_path}")
        return 0
    print(f"bench_diff: DRIFT between {golden_path} and {fresh_path}:",
          file=sys.stderr)
    for key in golden:
        if golden[key] != fresh[key]:
            report_drift(key, golden[key], fresh[key])
    print("If the change is intended, regenerate the golden with the bench "
          "that wrote it:\n"
          "  ./build/bench/table1_readelf_searchers --quick --jobs=2 "
          "--no-share-cache   # BENCH_pbse.json\n"
          "  bash scripts/multiproc_smoke.sh   # refills its multiproc "
          "section\n"
          "  ./build/bench/table2_coverage --quick --jobs=2 "
          "--no-share-cache   # BENCH_table2.json", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
