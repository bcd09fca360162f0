#!/bin/sh
# Profile one bench/e2e workload with gprof and print where its CPU
# time goes, summed per OCaml module.
#
# Usage (from the repository root):
#   tools/profile.sh WORKLOAD [RUN OPTIONS...]
#   tools/profile.sh echo64
#   tools/profile.sh kv_zipf --seconds 20
#
# WORKLOAD is one bench/e2e workload (echo64, stream1472, file4k or
# kv_zipf).  RUN OPTIONS are passed to `main.exe run` after the
# defaults `--seed 1 --seconds 10`, so a later `--seconds` wins.
#
# The script builds bench/e2e/main.exe in the `gprof` dune profile
# (the default flags, linked with -pg; see the root dune file) into
# its own build directory, _build_gprof, so the default build is left
# alone.  It runs the workload once in a temporary directory, where
# the program writes gmon.out on exit, and prints two tables from
# gprof's flat profile (PC sampling, 10 ms a sample): self time summed
# per module (camlSim__Engine.sift_down_523 counts for Sim.Engine, the
# C runtime and libc for "C runtime"), then the hottest functions.
# gprof's call counts need code compiled with -pg, which OCaml 5 no
# longer offers, so only the flat profile is meaningful.
set -eu

if [ $# -lt 1 ]; then
  echo "usage: tools/profile.sh WORKLOAD [RUN OPTIONS...]" >&2
  exit 2
fi
workload=$1
shift

build_dir=_build_gprof
dune build --root . --profile gprof --build-dir "$build_dir" bench/e2e/main.exe
exe=$(pwd)/$build_dir/default/bench/e2e/main.exe

run_dir=$(mktemp -d)
trap 'rm -rf "$run_dir"' EXIT
(cd "$run_dir" && "$exe" run --workload "$workload" --seed 1 --seconds 10 "$@" \
  | tail -n 1 >result.json)
echo "# $workload: $(python3 -c "import json,sys; m=json.load(open(sys.argv[1]))['metrics']; print('cpu_us_per_op %.3f' % m['cpu_us_per_op']['value'])" "$run_dir/result.json")"

gprof -b -p "$exe" "$run_dir/gmon.out" | python3 -c '
import re, sys
rows = []
for line in sys.stdin:
    f = line.split()
    # % time, cumulative s, self s, [calls, self/call, total/call,] name
    if len(f) >= 4 and re.fullmatch(r"[0-9.]+", f[0]) and re.fullmatch(r"[0-9.]+", f[2]):
        rows.append((float(f[2]), f[-1]))
total = sum(s for s, _ in rows) or 1.0

def module(sym):
    m = re.match(r"caml([A-Z][A-Za-z0-9_]*?)(?:\.|\$)", sym)
    if not m:
        return "C runtime"
    return m.group(1).replace("__", ".")

by_module = {}
for s, sym in rows:
    by_module[module(sym)] = by_module.get(module(sym), 0.0) + s
print("# self time per module (%% of %.2f s sampled)" % total)
for name, s in sorted(by_module.items(), key=lambda kv: -kv[1]):
    if s / total >= 0.005:
        print("%6.1f%%  %s" % (100 * s / total, name))
print("# hottest functions")
for s, sym in sorted(rows, key=lambda r: -r[0])[:25]:
    print("%6.1f%%  %s" % (100 * s / total, sym))
'
