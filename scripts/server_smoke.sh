#!/usr/bin/env bash
# pbse-serve smoke test: daemon up, job over the socket, checkpointing,
# and the hard guarantee — kill -9 mid-job, restart, and the recovered
# job's final coverage matches an uninterrupted run of the same spec.
#
# Usage: scripts/server_smoke.sh [build-dir]   (default: build)
set -euo pipefail

BUILD_DIR="${1:-build}"
SERVE="$BUILD_DIR/src/tools/pbse-serve"
CLIENT="$BUILD_DIR/src/tools/pbse-client"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/pbse-smoke.XXXXXX")"

SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

[ -x "$SERVE" ] || { echo "server_smoke: $SERVE not built"; exit 1; }
[ -x "$CLIENT" ] || { echo "server_smoke: $CLIENT not built"; exit 1; }

# Phases 1-2 need a job that still has work left well after its first
# checkpoint: a kill -9 that lands after the job finished leaves the
# restart nothing to recover. A 200k-tick job ends 40-70 ms after
# job-1.pbsf first appears, about one poll interval; a 1M-tick job has a
# few hundred ms left.
JOB_ARGS=(readelf --mode=pbse --budget=1000000 --slice=50000)

wait_for_socket() {
  local sock="$1" i
  for i in $(seq 1 100); do
    [ -S "$sock" ] && return 0
    sleep 0.05
  done
  echo "server_smoke: $sock never appeared"; return 1
}

extract() {  # extract <key> <text with key=value pairs>
  sed -n "s/.*$1=\([0-9]*\).*/\1/p" <<<"$2" | head -1
}

# --- Phase 1: uninterrupted reference run ----------------------------------
SOCK_A="$WORK/a.sock"
"$SERVE" --socket="$SOCK_A" --state-dir="$WORK/state-a" --workers=2 >"$WORK/a.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SOCK_A"

REF_OUT="$("$CLIENT" --socket="$SOCK_A" submit "${JOB_ARGS[@]}" --wait)"
echo "server_smoke: reference  $REF_OUT" | tail -1
REF_TICKS="$(extract ticks "$REF_OUT")"
REF_COVERED="$(extract covered "$REF_OUT")"
REF_BUGS="$(extract bugs "$REF_OUT")"
[ -n "$REF_COVERED" ] || { echo "server_smoke: reference run produced no coverage line"; exit 1; }

"$CLIENT" --socket="$SOCK_A" shutdown >/dev/null
wait "$SERVER_PID" || true
SERVER_PID=""

# --- Phase 2: start the same job, kill -9 after the first checkpoint -------
SOCK_B="$WORK/b.sock"
STATE_B="$WORK/state-b"
"$SERVE" --socket="$SOCK_B" --state-dir="$STATE_B" --workers=2 >"$WORK/b.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SOCK_B"
"$CLIENT" --socket="$SOCK_B" submit "${JOB_ARGS[@]}" >/dev/null

for i in $(seq 1 1000); do
  [ -f "$STATE_B/job-1.pbsf" ] && break
  sleep 0.01
done
[ -f "$STATE_B/job-1.pbsf" ] || { echo "server_smoke: no checkpoint appeared"; exit 1; }
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""
echo "server_smoke: killed daemon mid-job after first checkpoint"

# --- Phase 3: restart on the same state dir; drain the recovered job -------
"$SERVE" --socket="$SOCK_B" --state-dir="$STATE_B" --workers=2 --oneshot >"$WORK/c.log" 2>&1 &
SERVER_PID=$!
wait "$SERVER_PID"
SERVER_PID=""
grep -q "1 jobs recovered" "$WORK/c.log" || {
  echo "server_smoke: restart did not recover the interrupted job"; cat "$WORK/c.log"; exit 1; }

# --- Phase 4: compare the recovered job's final record to the reference ----
"$SERVE" --socket="$SOCK_B" --state-dir="$STATE_B" --workers=1 >"$WORK/d.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SOCK_B"
STATUS="$("$CLIENT" --socket="$SOCK_B" status 1)"
"$CLIENT" --socket="$SOCK_B" shutdown >/dev/null
wait "$SERVER_PID" || true
SERVER_PID=""

state="$(sed -n 's/.*"state":"\([a-z]*\)".*/\1/p' <<<"$STATUS")"
got_ticks="$(sed -n 's/.*"ticks":\([0-9]*\).*/\1/p' <<<"$STATUS")"
got_covered="$(sed -n 's/.*"covered":\([0-9]*\).*/\1/p' <<<"$STATUS")"
got_bugs="$(sed -n 's/.*"bugs":\([0-9]*\).*/\1/p' <<<"$STATUS")"
echo "server_smoke: recovered  state=$state ticks=$got_ticks covered=$got_covered bugs=$got_bugs"

[ "$state" = "done" ] || { echo "server_smoke: recovered job not done"; exit 1; }
[ "$got_ticks" = "$REF_TICKS" ] || { echo "server_smoke: ticks diverged ($got_ticks != $REF_TICKS)"; exit 1; }
[ "$got_covered" = "$REF_COVERED" ] || { echo "server_smoke: coverage diverged ($got_covered != $REF_COVERED)"; exit 1; }
[ "$got_bugs" = "$REF_BUGS" ] || { echo "server_smoke: bugs diverged ($got_bugs != $REF_BUGS)"; exit 1; }

# --- Phase 5: kill -9 a WORKER PROCESS mid-job; the daemon must requeue ----
# Same guarantee one tier down: the job's slice dies with the worker, the
# heartbeat timeout declares it dead, the slice re-runs from the last
# completed one, and the final numbers match an uninterrupted reference.
# Klee mode slices at batch boundaries, so the job is reliably multi-slice.
WORKER_JOB=(readelf --mode=klee --budget=400000 --sym-size=100 --slice=50000)

SOCK_E="$WORK/e.sock"
"$SERVE" --socket="$SOCK_E" --state-dir="$WORK/state-e" --workers=1 >"$WORK/e.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SOCK_E"
WREF_OUT="$("$CLIENT" --socket="$SOCK_E" submit "${WORKER_JOB[@]}" --wait)"
WREF_TICKS="$(extract ticks "$WREF_OUT")"
WREF_COVERED="$(extract covered "$WREF_OUT")"
WREF_BUGS="$(extract bugs "$WREF_OUT")"
"$CLIENT" --socket="$SOCK_E" shutdown >/dev/null
wait "$SERVER_PID" || true
SERVER_PID=""

SOCK_F="$WORK/f.sock"
STATE_F="$WORK/state-f"
"$SERVE" --socket="$SOCK_F" --state-dir="$STATE_F" --worker-processes=2 \
  --heartbeat-ms=100 >"$WORK/f.log" 2>&1 &
SERVER_PID=$!
wait_for_socket "$SOCK_F"
"$CLIENT" --socket="$SOCK_F" submit "${WORKER_JOB[@]}" >/dev/null

for i in $(seq 1 1000); do
  [ -f "$STATE_F/job-1.pbsf" ] && break
  sleep 0.01
done
[ -f "$STATE_F/job-1.pbsf" ] || { echo "server_smoke: no worker-tier checkpoint appeared"; exit 1; }

# The workers are the daemon's direct children running pbse-worker; kill
# them all with the job in flight — at most the current slice is lost.
WPIDS="$(pgrep -P "$SERVER_PID" -f pbse-worker || true)"
[ -n "$WPIDS" ] || { echo "server_smoke: no worker processes found"; exit 1; }
kill -9 $WPIDS
echo "server_smoke: kill -9 worker process(es) $WPIDS mid-job"

WGOT_OUT="$("$CLIENT" --socket="$SOCK_F" wait 1)"
WPOOL="$("$CLIENT" --socket="$SOCK_F" pool)"
"$CLIENT" --socket="$SOCK_F" shutdown >/dev/null
wait "$SERVER_PID" || true
SERVER_PID=""

wstate="$(sed -n 's/^job 1 \([a-z]*\):.*/\1/p' <<<"$WGOT_OUT")"
wgot_ticks="$(extract ticks "$WGOT_OUT")"
wgot_covered="$(extract covered "$WGOT_OUT")"
wgot_bugs="$(extract bugs "$WGOT_OUT")"
respawned="$(sed -n 's/.*"worker_processes":\([0-9]*\).*/\1/p' <<<"$WPOOL")"
echo "server_smoke: worker-kill  event=$wstate ticks=$wgot_ticks covered=$wgot_covered bugs=$wgot_bugs spawned_total=$respawned"

[ "$wstate" = "done" ] || { echo "server_smoke: job did not finish after worker kill"; exit 1; }
[ "$wgot_ticks" = "$WREF_TICKS" ] || { echo "server_smoke: worker-kill ticks diverged ($wgot_ticks != $WREF_TICKS)"; exit 1; }
[ "$wgot_covered" = "$WREF_COVERED" ] || { echo "server_smoke: worker-kill coverage diverged ($wgot_covered != $WREF_COVERED)"; exit 1; }
[ "$wgot_bugs" = "$WREF_BUGS" ] || { echo "server_smoke: worker-kill bugs diverged ($wgot_bugs != $WREF_BUGS)"; exit 1; }
# spawned_total > 2 proves the pool actually replaced the dead processes.
[ "$respawned" -gt 2 ] || { echo "server_smoke: dead workers were not respawned"; exit 1; }

echo "server_smoke: OK (crash recovery matches uninterrupted run; worker kill recovered)"
