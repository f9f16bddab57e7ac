#!/usr/bin/env bash
# Disk-pressure smoke for cmd/dsed: run the real binary with deterministic
# storage-fault injection (-fault-write-budget) so the spool "fills" mid-
# sweep, and assert that
#   1. the daemon degrades to read-only instead of crashing or failing the
#      in-flight job: /healthz reports 503 with a degraded cause,
#   2. new submissions are shed with explicit backpressure (503/507 plus a
#      Retry-After header), while reads keep serving,
#   3. once the fault clears (-fault-clear-file), recovery probes restore
#      full service without a restart: /healthz returns 200, the parked job
#      commits, and new submissions are accepted again,
#   4. the report committed through the outage is byte-identical to one
#      from a run that never saw a fault, and
#   5. neither spool holds a results/ directory: a job's journal is its
#      only store.
# The Go test suite proves the same contracts in-process
# (internal/dsed/diskfault_test.go); this script proves them for the real
# binary and flags.
set -euo pipefail

workdir="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/dsed" ./cmd/dsed

spec() { # $1=job id $2=point delay ms
  cat <<EOF
{
  "id": "$1",
  "workload": {"vertices": 256, "edge_factor": 8, "seed": 7, "repeats": 1},
  "space": {
    "CPUFreqsMHz": [2000, 6500],
    "CtrlFreqsMHz": [400],
    "Channels": [2],
    "Fractions": [0.25, 0.5, 0.75]
  },
  "workers": 1,
  "point_delay_ms": $2
}
EOF
}

start_daemon() { # $1=spool $2=addrfile [extra flags...]
  local spool="$1" addrfile="$2"
  shift 2
  rm -f "$addrfile"
  "$workdir/dsed" -addr 127.0.0.1:0 -addr-file "$addrfile" -dir "$spool" \
    -job-workers 1 -sweep-workers 1 -disk-probe 100ms "$@" &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$addrfile" ] && break
    sleep 0.1
  done
  [ -s "$addrfile" ] || { echo "FAIL: daemon never wrote its addr file"; exit 1; }
  base="http://$(cat "$addrfile")"
}

job_field() { # $1=job $2=field -> value of "field": from the status JSON
  curl -sf "$base/v1/jobs/$1" | tr ',{}' '\n\n\n' | sed -n "s/.*\"$2\"[[:space:]]*:[[:space:]]*\"\{0,1\}\([^\"]*\)\"\{0,1\}/\1/p" | head -1
}

await_done() { # $1=job
  local state=""
  for _ in $(seq 1 600); do
    state=$(job_field "$1" state || true)
    case "$state" in
      done) return 0 ;;
      failed|quarantined|cancelled) echo "FAIL: job $1 ended $state"; exit 1 ;;
    esac
    sleep 0.1
  done
  echo "FAIL: job $1 never finished (state=$state)"; exit 1
}

addrfile="$workdir/addr"

echo "== phase 1: unfaulted reference run =="
start_daemon "$workdir/spool-ref" "$addrfile"
spec smoke 0 | curl -sf -o /dev/null -X POST -d @- "$base/v1/jobs"
await_done smoke
curl -sf "$base/v1/jobs/smoke/result" > "$workdir/reference.json"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "FAIL: reference drain exited non-zero"; exit 1; }

echo "== phase 2: injected ENOSPC mid-sweep must degrade, not crash =="
healfile="$workdir/heal"
# 8KiB of spool writes covers the submission and the first checkpoints, then
# the "disk" fills long before the sweep can commit.
start_daemon "$workdir/spool" "$addrfile" \
  -fault-write-budget 8KiB -fault-clear-file "$healfile"
code=$(spec smoke 50 | curl -s -o /dev/null -w '%{http_code}' -X POST -d @- "$base/v1/jobs")
[ "$code" = 202 ] || { echo "FAIL: submit returned $code, want 202"; exit 1; }

degraded=""
for _ in $(seq 1 300); do
  health=$(curl -s "$base/healthz" || true)
  if echo "$health" | grep -q degraded; then degraded=1; break; fi
  sleep 0.1
done
[ -n "$degraded" ] || { echo "FAIL: daemon never reported degraded storage"; exit 1; }
hcode=$(curl -s -o /dev/null -w '%{http_code}' "$base/healthz")
[ "$hcode" = 503 ] || { echo "FAIL: degraded healthz returned $hcode, want 503"; exit 1; }
echo "degraded: $health"

# New work is shed with explicit, paced backpressure.
shed=$(spec shed 0 | curl -s -D "$workdir/shed-headers" -o /dev/null -w '%{http_code}' -X POST -d @- "$base/v1/jobs")
case "$shed" in
  503|507) ;;
  *) echo "FAIL: submit while degraded returned $shed, want 503 or 507"; exit 1 ;;
esac
grep -qi '^retry-after:' "$workdir/shed-headers" || {
  echo "FAIL: degraded rejection carried no Retry-After"; exit 1
}
echo "shed new submission with $shed + Retry-After"

# Reads still serve while degraded.
curl -sf "$base/v1/jobs/smoke" > /dev/null || { echo "FAIL: job status unreadable while degraded"; exit 1; }

# The in-flight job must be parked (or still grinding), never failed.
state=$(job_field smoke state)
case "$state" in
  failed|quarantined|cancelled) echo "FAIL: storage fault killed the in-flight job ($state)"; exit 1 ;;
esac

echo "== phase 3: clear the fault; service must recover without a restart =="
touch "$healfile"
recovered=""
for _ in $(seq 1 300); do
  hcode=$(curl -s -o /dev/null -w '%{http_code}' "$base/healthz")
  if [ "$hcode" = 200 ]; then recovered=1; break; fi
  sleep 0.1
done
[ -n "$recovered" ] || { echo "FAIL: healthz never returned to 200 after the fault cleared"; exit 1; }

await_done smoke
curl -sf "$base/v1/jobs/smoke/result" > "$workdir/survived.json"

code=$(spec after 0 | curl -s -o /dev/null -w '%{http_code}' -X POST -d @- "$base/v1/jobs")
[ "$code" = 202 ] || { echo "FAIL: submit after recovery returned $code, want 202"; exit 1; }
await_done after

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "FAIL: post-recovery drain exited non-zero"; exit 1; }

cmp "$workdir/survived.json" "$workdir/reference.json" || {
  echo "FAIL: report committed through the outage is not byte-identical to the unfaulted one"
  exit 1
}

for s in "$workdir/spool-ref" "$workdir/spool"; do
  [ ! -e "$s/results" ] || { echo "FAIL: spool $s holds a results/ directory"; exit 1; }
done

echo "PASS: degraded under ENOSPC with paced shedding, recovered in place, byte-identical report"
