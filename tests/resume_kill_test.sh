#!/usr/bin/env bash
# Crash-resume acceptance test (docs/robustness.md): SIGKILL an nf_fill run
# mid-optimization, relaunch it with --resume, and require the final fill to
# be byte-identical to an uninterrupted run at the same seed/threads.
#
# Usage: resume_kill_test.sh <nf_gen> <nf_fill> [workdir]
set -u

NF_GEN="${1:?usage: resume_kill_test.sh <nf_gen> <nf_fill> [workdir]}"
NF_FILL="${2:?usage: resume_kill_test.sh <nf_gen> <nf_fill> [workdir]}"
WORK="${3:-$(mktemp -d)}"
mkdir -p "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

# A deterministic fixture: mm is the method with the most resumable state
# (NMMSO phase + multi-start SQP), 2 threads exercises the deterministic
# parallel runtime.
"$NF_GEN" b "$WORK/in.glf" --windows 10 --seed 3 >/dev/null 2>&1 \
  || fail "nf_gen could not write the fixture layout"

COMMON_ARGS=(--method mm --threads 2 --surrogate "$WORK/reduced")

# Reference: one uninterrupted run.  (No artifact exists at $WORK/reduced and
# nf_fill never saves one: every run quick-trains the same reduced surrogate
# from the same windows and seeds, so all runs use identical weights.)
"$NF_FILL" "$WORK/in.glf" "$WORK/ref.glf" "${COMMON_ARGS[@]}" \
  --snapshot "$WORK/ref.snap" >/dev/null 2>&1 \
  || fail "reference run failed"

# Victim: same run, SIGKILLed as soon as the first snapshot lands (i.e. the
# optimization is genuinely mid-flight).
rm -f "$WORK/kill.snap" "$WORK/kill.glf"
"$NF_FILL" "$WORK/in.glf" "$WORK/kill.glf" "${COMMON_ARGS[@]}" \
  --snapshot "$WORK/kill.snap" >/dev/null 2>&1 &
VICTIM=$!
# Wait for the first snapshot as long as the victim is alive: under TSan the
# run is ~10x slower, so a fixed wall-clock cap here would give up too early.
# Boundedness comes from the CTest TIMEOUT on this test.
while kill -0 "$VICTIM" 2>/dev/null && ! [ -s "$WORK/kill.snap" ]; do
  sleep 0.05
done
kill -9 "$VICTIM" 2>/dev/null
wait "$VICTIM" 2>/dev/null
KILL_RC=$?

[ -s "$WORK/kill.snap" ] || fail "no snapshot was written before the kill"
if [ "$KILL_RC" -ne 137 ]; then
  # The run won the race and completed; the resume below still must
  # reproduce the reference, but note it for the log.
  echo "note: victim finished (rc=$KILL_RC) before SIGKILL landed" >&2
fi

# Resume from whatever the last durable snapshot was.
"$NF_FILL" "$WORK/in.glf" "$WORK/kill.glf" "${COMMON_ARGS[@]}" \
  --snapshot "$WORK/kill.snap" --resume >/dev/null 2>&1 \
  || fail "resume run failed"

cmp -s "$WORK/ref.glf" "$WORK/kill.glf" \
  || fail "resumed fill differs from the uninterrupted run"

echo "PASS: resumed fill is byte-identical to the uninterrupted run"
exit 0
