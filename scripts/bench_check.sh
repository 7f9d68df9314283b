#!/usr/bin/env bash
# Perf-regression gate: compares the newest BENCH_trajectory.json entry
# against the previous one and fails on a >25% ns/op regression in any
# benchmark present in both. Benchmarks faster than 1µs/op are skipped —
# at that scale run-to-run timer noise exceeds any real signal the gate
# could act on (the trajectory still records them for eyeballing).
#
# Names are matched with Go's trailing "-N" GOMAXPROCS suffix stripped
# (the entry's host block gives N; entries without one have it inferred
# from a suffix every name shares), so entries recorded at different
# GOMAXPROCS still pair up by benchmark. When both entries carry a host
# block and the blocks differ, the timings are not comparable: the gate
# prints that instead of a verdict.
#
# Usage: scripts/bench_check.sh [TRAJECTORY]
#   BENCH_TOLERANCE_PCT  regression threshold (default 25)
#   BENCH_MIN_NS         per-op floor below which entries are skipped
#                        (default 1000)
set -euo pipefail
cd "$(dirname "$0")/.."

trajectory="${1:-BENCH_trajectory.json}"

python3 - "$trajectory" <<'EOF'
import json, os, re, sys

tolerance = float(os.environ.get("BENCH_TOLERANCE_PCT", "25"))
min_ns = float(os.environ.get("BENCH_MIN_NS", "1000"))

with open(sys.argv[1]) as f:
    entries = json.load(f)["entries"]
if len(entries) < 2:
    print(f"bench_check: {len(entries)} entries, nothing to compare")
    sys.exit(0)

prev, cur = entries[-2], entries[-1]

if prev.get("host") and cur.get("host") and prev["host"] != cur["host"]:
    print(f"bench_check: not comparable: entry {cur.get('label')!r} host {cur['host']} "
          f"vs {prev.get('label')!r} host {prev['host']}; no verdict")
    sys.exit(0)

SECTIONS = ("results", "kernel_results", "service_results")

def procs_suffix(entry):
    """The "-N" go test appends to every benchmark name when GOMAXPROCS > 1."""
    host = entry.get("host")
    if host:
        n = int(host.get("gomaxprocs", 1))
        return f"-{n}" if n > 1 else ""
    names = [r["name"] for s in SECTIONS for r in entry.get(s, [])]
    found = {m.group(0) if m else None for m in (re.search(r"-\d+$", n) for n in names)}
    return found.pop() if len(found) == 1 and None not in found else ""

def flatten(entry):
    suffix, out = procs_suffix(entry), {}
    for section in SECTIONS:
        for r in entry.get(section, []):
            name = r["name"]
            if suffix and name.endswith(suffix):
                name = name[: -len(suffix)]
            out[name] = float(r["ns_per_op"])
    return out

base, now = flatten(prev), flatten(cur)
failures, checked = [], 0
for name, ns in sorted(now.items()):
    ref = base.get(name)
    if ref is None:
        print(f"bench_check: NEW   {name}: {ns:.0f} ns/op (no previous entry)")
        continue
    if ref < min_ns and ns < min_ns:
        print(f"bench_check: SKIP  {name}: {ref:.1f} -> {ns:.1f} ns/op (below {min_ns:.0f} ns noise floor)")
        continue
    checked += 1
    delta = (ns - ref) / ref * 100
    status = "OK   "
    if delta > tolerance:
        status = "FAIL "
        failures.append((name, ref, ns, delta))
    print(f"bench_check: {status}{name}: {ref:.0f} -> {ns:.0f} ns/op ({delta:+.1f}%)")

print(f"bench_check: compared {checked} benchmarks, "
      f"entry {cur.get('label')!r} vs {prev.get('label')!r}, tolerance {tolerance:.0f}%")
if failures:
    for name, ref, ns, delta in failures:
        print(f"bench_check: regression: {name} {ref:.0f} -> {ns:.0f} ns/op ({delta:+.1f}% > {tolerance:.0f}%)",
              file=sys.stderr)
    sys.exit(1)
EOF
