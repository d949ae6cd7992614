#!/usr/bin/env bash
# Daemon crash-restart acceptance test (docs/serving.md): SIGKILL an
# nf_serve daemon while a job is mid-solve, restart it on the same journal,
# and require the recovered job to finish with an artifact byte-identical
# to one produced by an uninterrupted daemon.  The uninterrupted artifact
# must also equal nf_fill's output for the same input, surrogate and
# threads: the CLI and the daemon share one fill pipeline.  A final phase
# SIGTERMs a daemon under load and requires a clean exit 0 with the
# accepted job left durably journaled.
#
# Usage: serve_kill_restart_test.sh <nf_gen> <nf_serve> <nf_fill> [workdir]
set -u

USAGE="usage: serve_kill_restart_test.sh <nf_gen> <nf_serve> <nf_fill> [workdir]"
NF_GEN="${1:?$USAGE}"
NF_SERVE="${2:?$USAGE}"
NF_FILL="${3:?$USAGE}"
WORK="${4:-$(mktemp -d)}"
mkdir -p "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

# One request line over a fresh loopback connection; prints the reply line.
req() {  # $1=port $2=json
  local reply
  exec 3<>"/dev/tcp/127.0.0.1/$1" || return 1
  printf '%s\n' "$2" >&3
  IFS= read -r -t 120 reply <&3
  local rc=$?
  exec 3<&- 3>&-
  printf '%s\n' "$reply"
  return $rc
}

# Waits (while the daemon is alive) until the port file exists; prints the
# port.  Boundedness comes from the CTest TIMEOUT.
wait_port() {  # $1=pid $2=port_file
  while kill -0 "$1" 2>/dev/null && ! [ -s "$2" ]; do sleep 0.05; done
  [ -s "$2" ] || fail "daemon died before publishing its port (see $WORK)"
  cat "$2"
}

# Polls job status until it reaches a terminal state; prints the last reply.
wait_job() {  # $1=port $2=job_id
  local reply=""
  while :; do
    reply="$(req "$1" "{\"op\":\"status\",\"id\":\"$2\"}")" \
      || fail "status query for $2 failed"
    case "$reply" in
      *'"state":"completed"'*|*'"state":"failed"'*) break ;;
    esac
    sleep 0.1
  done
  printf '%s\n' "$reply"
}

# A deterministic fixture; mm carries the most resumable state (NMMSO phase
# plus multi-start SQP).  Every daemon and the nf_fill run quick-train the
# same reduced surrogate from the same seeds, so their solves are bitwise
# comparable.
"$NF_GEN" b "$WORK/in.glf" --windows 10 --seed 3 >/dev/null 2>&1 \
  || fail "nf_gen could not write the fixture layout"
SERVE_ARGS=(--surrogate "$WORK/reduced" --threads 2)

# ---- Phase 1: reference artifact from an uninterrupted daemon. ----------
"$NF_SERVE" --journal "$WORK/ref.journal" --port-file "$WORK/ref.port" \
  "${SERVE_ARGS[@]}" >"$WORK/ref.log" 2>&1 &
REF_PID=$!
REF_PORT="$(wait_port "$REF_PID" "$WORK/ref.port")"
REPLY="$(req "$REF_PORT" "{\"op\":\"submit\",\"design\":\"$WORK/in.glf\",\"out\":\"$WORK/ref.glf\",\"method\":\"mm\"}")" \
  || fail "reference submit got no reply"
case "$REPLY" in *'"ok":true'*) ;; *) fail "reference submit rejected: $REPLY" ;; esac
JOB_ID="$(printf '%s' "$REPLY" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB_ID" ] || fail "no job id in reply: $REPLY"
STATUS="$(wait_job "$REF_PORT" "$JOB_ID")"
case "$STATUS" in *'"state":"completed"'*) ;; *) fail "reference job did not complete: $STATUS" ;; esac
req "$REF_PORT" '{"op":"drain"}' >/dev/null || fail "reference drain failed"
wait "$REF_PID"
[ $? -eq 0 ] || fail "reference daemon did not exit 0 after drain"
[ -s "$WORK/ref.glf" ] || fail "reference artifact missing"

# ---- CLI parity: nf_fill on the same input, surrogate and threads. ------
"$NF_FILL" "$WORK/in.glf" "$WORK/cli.glf" --method mm "${SERVE_ARGS[@]}" \
  >"$WORK/cli.log" 2>&1 || fail "nf_fill run failed (see $WORK/cli.log)"
cmp -s "$WORK/ref.glf" "$WORK/cli.glf" \
  || fail "nf_fill and the daemon filled the same mm job differently"

# ---- Phase 2: SIGKILL the daemon mid-solve, restart, resume. ------------
"$NF_SERVE" --journal "$WORK/kill.journal" --port-file "$WORK/kill.port" \
  "${SERVE_ARGS[@]}" >"$WORK/kill.log" 2>&1 &
VICTIM=$!
KILL_PORT="$(wait_port "$VICTIM" "$WORK/kill.port")"
REPLY="$(req "$KILL_PORT" "{\"op\":\"submit\",\"design\":\"$WORK/in.glf\",\"out\":\"$WORK/kill.glf\",\"method\":\"mm\"}")" \
  || fail "victim submit got no reply"
KILL_JOB="$(printf '%s' "$REPLY" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$KILL_JOB" ] || fail "victim submit rejected: $REPLY"
SNAP="$WORK/kill.journal/$KILL_JOB.snap"
# SIGKILL as soon as the first solve snapshot is durable — genuinely
# mid-attempt.  Wait only while the victim is alive (sanitizer builds are
# ~10x slower; boundedness comes from the CTest TIMEOUT).
while kill -0 "$VICTIM" 2>/dev/null && ! [ -s "$SNAP" ]; do sleep 0.05; done
kill -9 "$VICTIM" 2>/dev/null
wait "$VICTIM" 2>/dev/null
KILL_RC=$?
[ -s "$SNAP" ] || fail "no solve snapshot was written before the kill"
if [ "$KILL_RC" -ne 137 ]; then
  echo "note: victim exited rc=$KILL_RC before SIGKILL landed" >&2
fi
[ -s "$WORK/kill.journal/job_$KILL_JOB.nfcp" ] \
  || fail "journal record missing after SIGKILL"

# Restart on the same journal: the running record re-queues and the solve
# resumes from its snapshot with no client intervention.
rm -f "$WORK/kill.port"
"$NF_SERVE" --journal "$WORK/kill.journal" --port-file "$WORK/kill.port" \
  "${SERVE_ARGS[@]}" >"$WORK/restart.log" 2>&1 &
RESTART_PID=$!
RESTART_PORT="$(wait_port "$RESTART_PID" "$WORK/kill.port")"
STATUS="$(wait_job "$RESTART_PORT" "$KILL_JOB")"
case "$STATUS" in *'"state":"completed"'*) ;; *) fail "recovered job did not complete: $STATUS" ;; esac
req "$RESTART_PORT" '{"op":"drain"}' >/dev/null || fail "restart drain failed"
wait "$RESTART_PID"
[ $? -eq 0 ] || fail "restarted daemon did not exit 0 after drain"

cmp -s "$WORK/ref.glf" "$WORK/kill.glf" \
  || fail "artifact after SIGKILL+restart differs from the uninterrupted run"

# ---- Phase 3: SIGTERM under load drains to exit 0. ----------------------
"$NF_SERVE" --journal "$WORK/term.journal" --port-file "$WORK/term.port" \
  --drain-deadline-s 2 "${SERVE_ARGS[@]}" >"$WORK/term.log" 2>&1 &
TERM_PID=$!
TERM_PORT="$(wait_port "$TERM_PID" "$WORK/term.port")"
REPLY="$(req "$TERM_PORT" "{\"op\":\"submit\",\"design\":\"$WORK/in.glf\",\"out\":\"$WORK/term.glf\",\"method\":\"mm\"}")" \
  || fail "load submit got no reply"
TERM_JOB="$(printf '%s' "$REPLY" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$TERM_JOB" ] || fail "load submit rejected: $REPLY"
kill -TERM "$TERM_PID"
wait "$TERM_PID"
TERM_RC=$?
[ "$TERM_RC" -eq 0 ] \
  || fail "SIGTERM drain under load exited rc=$TERM_RC (want 0)"
# The accepted job must be completed or still durable in the journal.
[ -s "$WORK/term.journal/job_$TERM_JOB.nfcp" ] \
  || fail "accepted job's record is gone after the SIGTERM drain"

echo "PASS: nf_fill matched the daemon; restart resumed to a byte-identical artifact; SIGTERM drained to exit 0"
exit 0
