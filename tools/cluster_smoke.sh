#!/usr/bin/env bash
# Federation smoke test — the cluster gate run by CI and ctest.
#
# Scenario: two durable backend daemons behind an `mpa forward` front.
# Submit through the front, then kill -9 the backend hosting a long
# mission mid-flight and require the front to (a) fail the mission over
# to the surviving backend from its journaled checkpoint and land on the
# BIT-IDENTICAL result of an uninterrupted run, and (b) report the dead
# backend in `mpa health --cluster` (non-zero exit while unreachable).
#
# Usage: cluster_smoke.sh /path/to/mpa [workdir]
set -u

MPA=${1:?usage: cluster_smoke.sh /path/to/mpa [workdir]}
WORKDIR=${2:-.}
JDIR_A="$WORKDIR/cluster_journal_a"
JDIR_B="$WORKDIR/cluster_journal_b"
LOG_A="$WORKDIR/cluster_serve_a.log"
LOG_B="$WORKDIR/cluster_serve_b.log"
LOG_F="$WORKDIR/cluster_forward.log"

# All three daemons die with the script on ANY exit path (fail, set -u
# abort, harness timeout) — never leak an orphaned process.
PID_A=
PID_B=
PID_F=
cleanup() {
  for pid in "${PID_F:-}" "${PID_A:-}" "${PID_B:-}"; do
    if [ -n "$pid" ]; then
      kill "$pid" 2>/dev/null
      wait "$pid" 2>/dev/null
    fi
  done
}
trap cleanup EXIT

fail() {
  echo "cluster_smoke: $*" >&2
  exit 1
}

# Waits for "listening on A:P" in $1 while pid $2 stays alive; echoes P.
wait_port() {
  local log=$1 pid=$2 port=
  for _ in $(seq 1 300); do
    port=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$log" 2>/dev/null | head -1)
    if [ -n "$port" ]; then
      echo "$port"
      return 0
    fi
    kill -0 "$pid" 2>/dev/null || return 1
    sleep 0.1
  done
  return 1
}

rm -rf "$JDIR_A" "$JDIR_B"
rm -f "$LOG_A" "$LOG_B" "$LOG_F"

# ---- two durable backends + the federation front -----------------------
"$MPA" serve --arrays 2 --journal "$JDIR_A" --checkpoint-every 3 >"$LOG_A" 2>&1 &
PID_A=$!
"$MPA" serve --arrays 2 --journal "$JDIR_B" --checkpoint-every 3 >"$LOG_B" 2>&1 &
PID_B=$!
PORT_A=$(wait_port "$LOG_A" "$PID_A") \
  || fail "backend A never reported its port: $(cat "$LOG_A" 2>/dev/null)"
PORT_B=$(wait_port "$LOG_B" "$PID_B") \
  || fail "backend B never reported its port: $(cat "$LOG_B" 2>/dev/null)"

"$MPA" forward --poll-ms 100 --down-after 2 \
  "127.0.0.1:$PORT_A:$JDIR_A" "127.0.0.1:$PORT_B:$JDIR_B" >"$LOG_F" 2>&1 &
PID_F=$!
PORT_F=$(wait_port "$LOG_F" "$PID_F") \
  || fail "front never reported its port: $(cat "$LOG_F" 2>/dev/null)"

# ---- routed quick mission: front speaks the plain client protocol ------
QUICK=$("$MPA" submit --port "$PORT_F" denoise quick lanes=1 generations=8 size=16) \
  || fail "routed submit failed: $QUICK"
echo "$QUICK" | grep -q "done: fitness" || fail "no routed result in: $QUICK"

# ---- the front answers `trace` like a daemon: its southbound hops ------
TRACE_F="$WORKDIR/cluster_forward_trace.json"
rm -f "$TRACE_F"
"$MPA" trace "$TRACE_F" --port "$PORT_F" >/dev/null \
  || fail "mpa trace against the front failed"
grep -q '"rpc_roundtrip"' "$TRACE_F" \
  || fail "front trace has no rpc_roundtrip span: $(head -c 300 "$TRACE_F")"

# ---- southbound connections are pooled, not opened per op --------------
# Each routed `mpa submit` is three forwarded ops (submit, watch, result).
# The backends' accepted-connection counts may grow by the front's polls,
# which connect afresh each time, and by a few pooled connects, never by
# one connection per forwarded op.
backend_connections() {
  "$MPA" stats --port "$1" | sed -n 's/^sessions: \([0-9]*\) connections accepted.*/\1/p'
}
front_polls() {
  "$MPA" stats --port "$PORT_F" | sed -n 's/^southbound: .* | \([0-9]*\) backend polls$/\1/p'
}
POLLS_BEFORE=$(front_polls)
CONN_A_BEFORE=$(backend_connections "$PORT_A")
CONN_B_BEFORE=$(backend_connections "$PORT_B")
[ -n "$POLLS_BEFORE" ] && [ -n "$CONN_A_BEFORE" ] && [ -n "$CONN_B_BEFORE" ] \
  || fail "mpa stats shows no connection or poll counts"
ROUTED=6
for i in $(seq 1 "$ROUTED"); do
  "$MPA" submit --port "$PORT_F" denoise "pooled$i" lanes=1 generations=8 size=16 --quiet >/dev/null \
    || fail "routed submit pooled$i failed"
done
CONN_A_AFTER=$(backend_connections "$PORT_A")
CONN_B_AFTER=$(backend_connections "$PORT_B")
POLLS_AFTER=$(front_polls)
FORWARDED_OPS=$((3 * ROUTED))
# The two `mpa stats` probes just taken are backend connections too.
OP_CONNECTIONS=$((CONN_A_AFTER - CONN_A_BEFORE + CONN_B_AFTER - CONN_B_BEFORE - 2 - (POLLS_AFTER - POLLS_BEFORE)))
# Pooled, it is a handful at most; half the ops leaves room for a poll
# miscounted at either edge of the window.
[ "$OP_CONNECTIONS" -lt $((FORWARDED_OPS / 2)) ] \
  || fail "backends accepted $OP_CONNECTIONS connections (polls aside) for $FORWARDED_OPS forwarded ops: the front connects per op"
echo "cluster_smoke: $FORWARDED_OPS forwarded ops opened $OP_CONNECTIONS backend connection(s) besides polls"

"$MPA" health --port "$PORT_F" --cluster | grep -q "unreachable backends 0" \
  || fail "health --cluster does not show both backends up"

# ---- kill -9 the backend hosting a long mission mid-flight -------------
"$MPA" submit --port "$PORT_F" denoise longrun lanes=2 generations=400 size=32 --detach \
  || fail "long submit failed"

# Wait for a checkpoint sidecar so the failover genuinely RESUMES
# mid-mission; the journal holding it identifies the hosting backend.
VICTIM_JDIR=
for _ in $(seq 1 600); do
  if ls "$JDIR_A"/job-*.ckpt >/dev/null 2>&1; then
    VICTIM_JDIR=$JDIR_A
    break
  fi
  if ls "$JDIR_B"/job-*.ckpt >/dev/null 2>&1; then
    VICTIM_JDIR=$JDIR_B
    break
  fi
  kill -0 "$PID_F" 2>/dev/null || fail "front died early: $(cat "$LOG_F")"
  sleep 0.05
done
[ -n "$VICTIM_JDIR" ] || fail "no checkpoint appeared in either backend journal"

if [ "$VICTIM_JDIR" = "$JDIR_A" ]; then
  kill -9 "$PID_A"; wait "$PID_A" 2>/dev/null; PID_A=
else
  kill -9 "$PID_B"; wait "$PID_B" 2>/dev/null; PID_B=
fi

# The front must bring the orphaned mission to a terminal state on the
# survivor — resumed from its checkpoint, bit-identical to an
# uninterrupted run of the same spec.
RECOVERED=$("$MPA" result --port "$PORT_F" --job longrun --retries 5) \
  || fail "result after backend kill failed: $RECOVERED"
REC_LINE=$(echo "$RECOVERED" | sed -n 's/.*\(fitness [0-9]*, genotype [0-9a-fx]*\).*/\1/p' | head -1)
[ -n "$REC_LINE" ] || fail "cannot parse failed-over result: $RECOVERED"

REFERENCE=$("$MPA" submit --port "$PORT_F" denoise reference lanes=2 generations=400 size=32 --quiet) \
  || fail "reference submit failed: $REFERENCE"
REF_LINE=$(echo "$REFERENCE" | sed -n 's/.*\(fitness [0-9]*, genotype [0-9a-fx]*\).*/\1/p' | head -1)
[ -n "$REF_LINE" ] || fail "cannot parse reference result: $REFERENCE"

[ "$REC_LINE" = "$REF_LINE" ] \
  || fail "failed-over result differs from uninterrupted run: recovered='$REC_LINE' reference='$REF_LINE'"

# ---- the dead backend is visible, loudly -------------------------------
HEALTH=$("$MPA" health --port "$PORT_F" --cluster)
HEALTH_RC=$?
[ "$HEALTH_RC" -ne 0 ] || fail "health --cluster exited 0 with a dead backend"
echo "$HEALTH" | grep -q "unreachable backends 1" \
  || fail "health --cluster does not report the dead backend: $HEALTH"
echo "$HEALTH" | grep -q "NO" \
  || fail "health --cluster does not mark the dead backend unreachable: $HEALTH"

"$MPA" ps --port "$PORT_F" --cluster | grep -q "longrun.*done" \
  || fail "ps --cluster does not show the failed-over mission done"

"$MPA" drain --port "$PORT_F" --wait || fail "front drain failed"
wait "$PID_F" || fail "front exited non-zero after drain"
PID_F=

echo "cluster_smoke: OK ($REC_LINE, victim=$(basename "$VICTIM_JDIR"))"
