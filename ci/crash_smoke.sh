#!/usr/bin/env bash
# Crash-recovery smoke for cmd/dsed: start the daemon, submit a paced sweep,
# kill -9 it mid-run, restart over the same spool, and assert that
#   1. the job resumes and completes (no lost jobs),
#   2. the job's event journal holds exactly one record per design point
#      (no double-run points), and
#   3. the final report is byte-identical to one from an uninterrupted
#      daemon, and
#   4. an SSE event stream held open across the crash resumes with
#      Last-Event-ID: the merged id sequence is contiguous from 1 and ends
#      in a terminal done event.
# The Go test suite proves the same contracts in-process
# (internal/dsed/crash_test.go, crash_stream_test.go); this script proves
# them for the real binary.
set -euo pipefail

workdir="$(mktemp -d)"
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$workdir"' EXIT

go build -o "$workdir/dsed" ./cmd/dsed

# The job: the 26-point reduced space, paced at 100ms/point so the kill
# lands mid-sweep. TOTAL must match the space below.
TOTAL=26
spec() {
  local delay="$1"
  cat <<EOF
{
  "id": "smoke",
  "workload": {"vertices": 256, "edge_factor": 8, "seed": 7, "repeats": 1},
  "space": {
    "CPUFreqsMHz": [2000, 6500],
    "CtrlFreqsMHz": [400],
    "Channels": [2],
    "Fractions": [0.25, 0.5, 0.75]
  },
  "workers": 1,
  "point_delay_ms": $delay
}
EOF
}

start_daemon() { # $1=spool $2=addrfile
  rm -f "$2"
  "$workdir/dsed" -addr 127.0.0.1:0 -addr-file "$2" -dir "$1" -job-workers 1 -sweep-workers 1 &
  daemon_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$2" ] && break
    sleep 0.1
  done
  [ -s "$2" ] || { echo "FAIL: daemon never wrote its addr file"; exit 1; }
  base="http://$(cat "$2")"
}

# journal_points FILE -> "<distinct> <duplicated>": how many design points
# have a record in the event journal, and how many of them have more than
# one. Only complete (newline-terminated) frames count: a frame torn by the
# kill was never durable.
journal_points() {
  head -n "$(wc -l < "$1")" "$1" | grep -o '"record":{"id":"[^"]*"' | sort | uniq -c |
    awk '{ distinct++; if ($1 > 1) dup++ } END { print distinct + 0, dup + 0 }'
}

job_field() { # $1=field -> value of "field": from the status JSON
  curl -sf "$base/v1/jobs/smoke" | tr ',{}' '\n\n\n' | sed -n "s/.*\"$1\"[[:space:]]*:[[:space:]]*\"\{0,1\}\([^\"]*\)\"\{0,1\}/\1/p" | head -1
}

spool="$workdir/spool"
addrfile="$workdir/addr"

echo "== phase 1: start, submit, kill -9 mid-sweep =="
start_daemon "$spool" "$addrfile"
code=$(spec 100 | curl -s -o /dev/null -w '%{http_code}' -X POST -d @- "$base/v1/jobs")
[ "$code" = 202 ] || { echo "FAIL: submit returned $code, want 202"; exit 1; }

# Hold an SSE stream open across the crash: the kill severs this curl, and
# phase 2 reconnects with Last-Event-ID from where delivery stopped.
curl -sN "$base/v1/jobs/smoke/events" > "$workdir/events1.txt" &
stream_pid=$!

for _ in $(seq 1 200); do
  done_pts=$(job_field done); done_pts=${done_pts:-0}
  [ "$done_pts" -ge 3 ] && break
  sleep 0.1
done
[ "$done_pts" -ge 3 ] || { echo "FAIL: job never made progress"; exit 1; }

kill -9 "$daemon_pid"
wait "$daemon_pid" 2>/dev/null || true
wait "$stream_pid" 2>/dev/null || true

# The kill can tear the final SSE line mid-write; only complete lines count.
if [ -s "$workdir/events1.txt" ] && [ -n "$(tail -c1 "$workdir/events1.txt")" ]; then
  sed -i '$d' "$workdir/events1.txt"
fi
last_id=$(sed -n 's/^id: //p' "$workdir/events1.txt" | tail -1)
last_id=${last_id:-0}
[ "$last_id" -ge 1 ] || { echo "FAIL: SSE stream delivered no events before the crash"; exit 1; }
echo "stream severed after event id $last_id"

journal="$spool/events/smoke.jsonl"
read -r partial dups < <(journal_points "$journal")
if [ "$partial" -lt 1 ] || [ "$partial" -ge "$TOTAL" ] || [ "$dups" -ne 0 ]; then
  echo "FAIL: SIGKILL landed outside the sweep ($partial/$TOTAL journaled, $dups duplicated)"
  exit 1
fi
echo "killed -9 after $partial/$TOTAL journaled points"

echo "== phase 2: restart over the same spool, job must resume =="
start_daemon "$spool" "$addrfile"
for _ in $(seq 1 600); do
  state=$(job_field state)
  case "$state" in done) break ;; failed|quarantined|cancelled) echo "FAIL: recovered job ended $state"; exit 1 ;; esac
  sleep 0.1
done
[ "$state" = done ] || { echo "FAIL: recovered job never finished (state=$state)"; exit 1; }

read -r points dups < <(journal_points "$journal")
if [ "$points" -ne "$TOTAL" ] || [ "$dups" -ne 0 ]; then
  echo "FAIL: journal holds records for $points/$TOTAL points, $dups duplicated (duplicates or loss)"
  exit 1
fi

curl -sf "$base/v1/jobs/smoke/result" > "$workdir/recovered.json"

echo "== resumed SSE delivery: reconnect with Last-Event-ID =="
curl -sN -m 60 -H "Last-Event-ID: $last_id" "$base/v1/jobs/smoke/events" > "$workdir/events2.txt"
grep -q '"state":"done"' "$workdir/events2.txt" || {
  echo "FAIL: resumed stream did not end in a terminal done event"; exit 1
}
# The merged id sequence — delivered before the crash plus delivered after
# resume — must be contiguous from 1: no gaps, no duplicates.
sed -n 's/^id: //p' "$workdir/events1.txt" "$workdir/events2.txt" | awk '
  NR != $1 { printf "FAIL: merged stream line %d carries id %s\n", NR, $1; exit 1 }
  END { if (NR == 0) { print "FAIL: resumed stream was empty"; exit 1 } }
' || exit 1
merged=$(sed -n 's/^id: //p' "$workdir/events1.txt" "$workdir/events2.txt" | wc -l)
echo "merged stream contiguous: $merged events across the crash"

# Graceful drain: first SIGTERM must exit 0.
kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "FAIL: SIGTERM drain exited non-zero"; exit 1; }

echo "== phase 3: uninterrupted reference run =="
start_daemon "$workdir/spool-ref" "$addrfile"
spec 0 | curl -sf -o /dev/null -X POST -d @- "$base/v1/jobs"
for _ in $(seq 1 600); do
  state=$(job_field state)
  [ "$state" = done ] && break
  sleep 0.1
done
[ "$state" = done ] || { echo "FAIL: reference job never finished (state=$state)"; exit 1; }
curl -sf "$base/v1/jobs/smoke/result" > "$workdir/reference.json"
kill -TERM "$daemon_pid"
wait "$daemon_pid" || true

cmp "$workdir/recovered.json" "$workdir/reference.json" || {
  echo "FAIL: recovered report is not byte-identical to the uninterrupted one"
  exit 1
}

echo "PASS: resumed after kill -9 with no lost jobs, no duplicate points, byte-identical report"
