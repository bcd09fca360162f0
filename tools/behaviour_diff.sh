#!/usr/bin/env bash
# Check that the working tree behaves exactly like revision REV.
#
#   tools/behaviour_diff.sh REV        (from anywhere inside the repo)
#
# The simulator is deterministic, so a refactor that prints the same
# bytes everywhere has preserved behaviour (ROADMAP, "same behaviour
# from less code").  This script builds REV (from `git archive`) and a
# snapshot of the working tree (tracked and untracked, unignored files)
# in a temporary directory, then runs on both:
#
#   - bench/main.exe --json, sweep and table2 (stdout and every
#     BENCH_*.json they write);
#   - every CI step in .github/workflows/ci.yml (the working tree's)
#     that runs bin/tm_verify.exe, bin/rakis_run.exe or bin/tm_fuzz.exe,
#     as CI runs it (bash -eo pipefail, `opam exec --` stripped), its
#     output and exit status recorded — a step that fails on both sides
#     in the same way is not a difference.
#
# Outputs are compared with host timings ("elapsed: 1.2s") and the
# temporary paths masked.  Exits 0 when everything is byte-identical,
# 1 on any difference (the diff is printed), 2 on a usage or build
# error.  Needs git, dune, bash and python3; no network.  Takes a few
# minutes: CI's fuzz and campaign budgets run twice.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: tools/behaviour_diff.sh REV" >&2
  exit 2
fi
rev=$1
root=$(git rev-parse --show-toplevel)
git -C "$root" rev-parse --verify --quiet "$rev^{commit}" > /dev/null || {
  echo "behaviour_diff: unknown revision $rev" >&2
  exit 2
}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/behaviour-diff.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/base" "$tmp/head" "$tmp/steps"
git -C "$root" archive --format=tar "$rev" | tar -x -C "$tmp/base"
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
  tar --null --ignore-failed-read -T - -cf - 2> /dev/null) | tar -x -C "$tmp/head"
for src in "$tmp/base" "$tmp/head"; do
  echo "behaviour_diff: building $(basename "$src")" >&2
  (cd "$src" && dune build --root . 2>&1) || {
    echo "behaviour_diff: build failed in $src" >&2
    exit 2
  }
done

# One script per selected CI step, named by its position and step name.
python3 - "$tmp/head/.github/workflows/ci.yml" "$tmp/steps" <<'EOF'
import re, sys
lines = open(sys.argv[1]).read().split("\n")
out, name, n, i = sys.argv[2], "step", 0, 0
while i < len(lines):
    line = lines[i]
    m = re.match(r"^(\s*)(?:- )?name:\s*(.*)$", line)
    if m:
        name = m.group(2)
    m = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
    i += 1
    if not m:
        continue
    indent, value = len(m.group(1)), m.group(2).strip()
    if value in ("|", ">"):
        body = []
        while i < len(lines) and (
            not lines[i].strip() or len(lines[i]) - len(lines[i].lstrip()) > indent
        ):
            body.append(lines[i])
            i += 1
        cut = min(len(l) - len(l.lstrip()) for l in body if l.strip())
        body = [l[cut:] for l in body]
        script = " ".join(l.strip() for l in body if l.strip()) if value == ">" \
            else "\n".join(body)
    else:
        script = value
    if re.search(r"bin/(tm_verify|rakis_run|tm_fuzz)\.exe", script):
        n += 1
        slug = re.sub(r"[^A-Za-z0-9]+", "-", name).strip("-").lower()
        with open(f"{out}/{n:02d}-{slug}.sh", "w") as f:
            f.write(script + "\n")
EOF

# `opam exec -- CMD` runs CMD directly: both trees are already built.
prelude='opam() { if [ "$1" = exec ] && [ "$2" = -- ]; then shift 2; "$@"; else command opam "$@"; fi; }'

run_side() {
  local src=$1 out=$2 run=$3
  mkdir -p "$out" "$run"
  ln -s "$src/_build" "$run/_build"
  cp "$src/README.md" "$run/README.md"
  (
    cd "$run"
    for target in --json sweep table2; do
      echo "== bench/main.exe $target"
      ./_build/default/bench/main.exe "$target" 2>&1 || echo "exit $?"
    done
  ) > "$out/bench.txt"
  for step in "$tmp"/steps/*.sh; do
    status=0
    (cd "$run" && bash --noprofile --norc -eo pipefail \
      -c "$prelude"$'\n'"$(cat "$step")") > "$out/$(basename "$step" .sh).txt" 2>&1 \
      || status=$?
    echo "exit $status" >> "$out/$(basename "$step" .sh).txt"
  done
  cp "$run"/BENCH_*.json "$out/"
  sed -i -E \
    -e "s#$tmp/[a-z-]+#<tmp>#g" \
    -e 's#(elapsed: *)[0-9.]+s#\1<masked>#' \
    "$out"/*
}

echo "behaviour_diff: running $(ls "$tmp"/steps | wc -l) CI steps on $rev" >&2
run_side "$tmp/base" "$tmp/out/base" "$tmp/run-base"
echo "behaviour_diff: running them on the working tree" >&2
run_side "$tmp/head" "$tmp/out/working-tree" "$tmp/run-head"

if diff -ru "$tmp/out/base" "$tmp/out/working-tree"; then
  echo "behaviour_diff: identical to $rev ($(ls "$tmp/out/base" | wc -l) outputs)"
else
  echo "behaviour_diff: behaviour differs from $rev" >&2
  exit 1
fi
