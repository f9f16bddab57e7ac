#!/usr/bin/env bash
# Same-machine A/B of the repository benchmark. It checks out a base
# revision in a git worktree at .bench_build/base, then alternates
# `bash perfbench/run.sh` between that base and the working tree, one
# benchmark process at a time, and prints for every end-to-end metric of
# BENCHMARK.json: both medians, the base's quartiles, the pairs the change
# won, and whether the gap between the medians exceeds the base's quartile
# spread.
#
#   ci/ab.sh --base <rev> --workload <w> [--seed 42] [--pairs 10] [--seconds 30]
#
# Run it from the repository root. Each run's output is kept under
# .bench_build/ab/ as <workload>-s<seed>-<base|change>-<pair>.txt. The order
# within a pair alternates (base first in odd pairs, change first in even
# ones) so slow drift of the host does not favour one side. A lock file in
# $TMPDIR serializes every ab.sh on the host, so two benchmark processes
# never share the CPUs.
set -euo pipefail

usage() {
  echo "usage: ci/ab.sh --base <rev> --workload <w> [--seed N] [--pairs N] [--seconds S]" >&2
  exit 2
}

base_rev="" workload="" seed=42 pairs=10 seconds=30
while [ $# -gt 0 ]; do
  case "$1" in
    --base) base_rev="${2:?}"; shift 2 ;;
    --workload) workload="${2:?}"; shift 2 ;;
    --seed) seed="${2:?}"; shift 2 ;;
    --pairs) pairs="${2:?}"; shift 2 ;;
    --seconds) seconds="${2:?}"; shift 2 ;;
    *) usage ;;
  esac
done
[ -n "$base_rev" ] && [ -n "$workload" ] || usage
[ -f BENCHMARK.json ] && [ -f perfbench/run.sh ] || { echo "ab.sh: run it from the repository root" >&2; exit 2; }

root=$(pwd)
out="$root/.bench_build"
base="$out/base"
ab="$out/ab"
mkdir -p "$ab"

lock="${TMPDIR:-/tmp}/graphdse-bench.lock"
exec 9>"$lock"
if ! flock -n 9; then
  echo "ab.sh: waiting for another benchmark to release $lock" >&2
  flock 9
fi

cleanup() {
  git -C "$root" worktree remove --force "$base" 2>/dev/null || rm -rf "$base"
  git -C "$root" worktree prune
}
trap cleanup EXIT
cleanup
git -C "$root" worktree add --detach --quiet "$base" "$base_rev"
echo "base $(git -C "$base" rev-parse --short HEAD) ($base_rev) against the working tree at $(git -C "$root" rev-parse --short HEAD); $workload seed $seed, $pairs pairs of ${seconds}s runs, nproc $(nproc)"

run_one() { # $1=side $2=pair
  local dir="$root" log="$ab/$workload-s$seed-$1-$2.txt"
  [ "$1" = base ] && dir="$base"
  (cd "$dir" && bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0) > "$log"
  local line
  line=$(tail -n 1 "$log")
  [ "$(jq -r .correct <<<"$line")" = true ] || echo "ab.sh: $1 run $2 was not correct (see $log)" >&2
  jq -r --arg side "$1" --arg pair "$2" '.metrics | to_entries[] | "\(.key) \($side) \($pair) \(.value.value)"' <<<"$line" >> "$ab/samples"
  echo "  pair $2 $1: wall_s $(jq -r '.metrics.wall_s.value' <<<"$line")" >&2
}

: > "$ab/samples"
for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run_one base "$i"; run_one change "$i"
  else
    run_one change "$i"; run_one base "$i"
  fi
done

# Directions of the end-to-end metrics, then the samples.
{
  jq -r '.end_to_end[] | "dir \(.name) \(.better)"' BENCHMARK.json
  cat "$ab/samples"
} | awk -v pairs="$pairs" '
function sorted(name, side,    n, i, j, t) {
  n = 0
  for (i = 1; i <= pairs; i++) if ((name, side, i) in v) s[++n] = v[name, side, i]
  for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
  return n
}
function q(n, p,    pos, lo) { # linear interpolation between order statistics
  pos = 1 + (n - 1) * p; lo = int(pos)
  return lo >= n ? s[n] : s[lo] + (pos - lo) * (s[lo + 1] - s[lo])
}
$1 == "dir" { better[$2] = $3; order[++m] = $2; next }
{ v[$1, $2, $3] = $4 }
END {
  printf "%-22s %12s %12s %8s %25s %6s %s\n", "metric", "base", "change", "delta", "base q1..q3", "won", "gap>IQR"
  for (k = 1; k <= m; k++) {
    name = order[k]
    n = sorted(name, "change"); if (n == 0) continue
    mc = q(n, 0.5)
    n = sorted(name, "base"); mb = q(n, 0.5); q1 = q(n, 0.25); q3 = q(n, 0.75)
    won = 0
    for (i = 1; i <= pairs; i++) {
      b = v[name, "base", i]; c = v[name, "change", i]
      if ((better[name] == "lower" && c < b) || (better[name] == "higher" && c > b)) won++
    }
    gap = mc - mb
    verdict = "no"
    if ((gap < 0 ? -gap : gap) > q3 - q1 && gap != 0) {
      verdict = ((better[name] == "lower") == (gap < 0)) ? "yes, better" : "yes, worse"
    }
    delta = mb != 0 ? sprintf("%+.1f%%", 100 * gap / mb) : "-"
    printf "%-22s %12.4g %12.4g %8s %12.4g..%-12.4g %3d/%-2d %s\n", name, mb, mc, delta, q1, q3, won, pairs, verdict
  }
}'
