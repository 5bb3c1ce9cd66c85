#!/usr/bin/env bash
# End-to-end mission-service smoke test, exercising the real binaries the
# way an operator would: start `mpa serve` on an ephemeral loopback port,
# submit a mission with `mpa submit` from another process, inspect it
# with `mpa ps`, then gracefully drain the daemon and check it exits
# cleanly having completed the mission. Between the two, 8 more watched
# submits must leave the daemon's open descriptors where they were: a
# finished job keeps no connection of the sessions that watched it.
#
# Usage: service_smoke.sh /path/to/mpa [workdir]
set -u

MPA=${1:?usage: service_smoke.sh /path/to/mpa [workdir]}
WORKDIR=${2:-.}
LOG="$WORKDIR/service_smoke_serve.log"
SUBMIT_OUT="$WORKDIR/service_smoke_submit.log"

# The daemon dies with the script on ANY exit path (fail, set -u abort,
# test-harness timeout sending TERM) — never leak an orphaned server.
SERVER_PID=
cleanup() {
  if [ -n "${SERVER_PID:-}" ]; then
    kill "$SERVER_PID" 2>/dev/null
    wait "$SERVER_PID" 2>/dev/null
  fi
}
trap cleanup EXIT

fail() {
  echo "service_smoke: $*" >&2
  exit 1
}

rm -f "$LOG" "$SUBMIT_OUT"
"$MPA" serve --arrays 2 --max-inflight 4 >"$LOG" 2>&1 &
SERVER_PID=$!

# The daemon prints its (ephemeral) port on the first line; wait for it.
PORT=
for _ in $(seq 1 300); do
  PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$LOG" 2>/dev/null | head -1)
  [ -n "$PORT" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "daemon died: $(cat "$LOG" 2>/dev/null)"
  sleep 0.1
done
[ -n "$PORT" ] || fail "daemon never reported its port"

"$MPA" submit --port "$PORT" denoise smoke lanes=1 generations=8 size=16 \
  >"$SUBMIT_OUT" 2>&1 || fail "submit failed: $(cat "$SUBMIT_OUT")"
grep -q "done: fitness" "$SUBMIT_OUT" || fail "no result in: $(cat "$SUBMIT_OUT")"

"$MPA" ps --port "$PORT" | grep -q "smoke.*done" || fail "ps does not show the finished job"

# Ended sessions are reaped at the daemon's next accept, so each count
# follows an `mpa ps`. Skipped where /proc is absent.
open_fds() { ls "/proc/$SERVER_PID/fd" 2>/dev/null | wc -l; }
FDS_BEFORE=$(open_fds)
for i in $(seq 1 8); do
  "$MPA" submit --port "$PORT" denoise "watched$i" lanes=1 generations=4 size=16 \
    >"$SUBMIT_OUT" 2>&1 || fail "watched submit $i failed: $(cat "$SUBMIT_OUT")"
done
"$MPA" ps --port "$PORT" >/dev/null || fail "ps failed"
FDS_AFTER=$(open_fds)
if [ -d "/proc/$SERVER_PID/fd" ] && [ "$FDS_AFTER" -ge $((FDS_BEFORE + 4)) ]; then
  fail "8 watched missions left the daemon $FDS_BEFORE -> $FDS_AFTER open fds"
fi

"$MPA" cancel --port "$PORT" --job 999 >/dev/null 2>&1 && fail "cancel of unknown job must exit non-zero"

"$MPA" drain --port "$PORT" --wait || fail "drain failed"
wait "$SERVER_PID" || fail "daemon exited non-zero after drain"
SERVER_PID=  # exited cleanly; nothing left for the trap
grep -q "drained after 9 missions (9 done" "$LOG" || fail "unexpected drain summary: $(cat "$LOG")"

echo "service_smoke: OK (port $PORT)"
