#!/usr/bin/env bash
# Tiled crash-resume acceptance test (docs/fullchip.md): SIGKILL a tiled
# nf_fill run once the first tile record lands in the store, relaunch with
# --resume, and require the final full-chip GLF to be byte-identical to an
# uninterrupted run at the same seed/threads.  Runs once with lin and once
# with pkb, whose tiles are killed mid-SQP: tile solves never snapshot, so
# the killed store must hold no .snap file and those tiles re-solve.
#
# Usage: fullchip_resume_kill_test.sh <nf_gen> <nf_fill> [workdir]
set -u

NF_GEN="${1:?usage: fullchip_resume_kill_test.sh <nf_gen> <nf_fill> [workdir]}"
NF_FILL="${2:?usage: fullchip_resume_kill_test.sh <nf_gen> <nf_fill> [workdir]}"
WORK="${3:-$(mktemp -d)}"
mkdir -p "$WORK"

fail() { echo "FAIL: $*" >&2; exit 1; }

# A rectangular multi-tile fixture: 18x12 windows over 3x2 tiles of 6.
"$NF_GEN" a "$WORK/in.glf" --windows 18x12 --seed 5 >/dev/null 2>&1 \
  || fail "nf_gen could not write the fixture layout"

# kill_and_resume TAG ARGS...: reference run, SIGKILLed run, resume, cmp.
kill_and_resume() {
  local tag="$1"
  shift
  local args=("$@" --tiled --tile-windows 6 --threads 2)

  # Reference: one uninterrupted tiled run.
  "$NF_FILL" "$WORK/in.glf" "$WORK/$tag.ref.glf" "${args[@]}" \
    --tile-store "$WORK/$tag.ref.tiles" >/dev/null 2>&1 \
    || fail "$tag: reference tiled run failed"

  # Victim: same run, SIGKILLed as soon as the first durable tile record
  # exists (i.e. the tile sweep is genuinely mid-flight).
  rm -rf "$WORK/$tag.kill.tiles" "$WORK/$tag.kill.glf"
  "$NF_FILL" "$WORK/in.glf" "$WORK/$tag.kill.glf" "${args[@]}" \
    --tile-store "$WORK/$tag.kill.tiles" >/dev/null 2>&1 &
  local victim=$!
  # Poll while the victim lives; boundedness comes from the CTest TIMEOUT.
  while kill -0 "$victim" 2>/dev/null; do
    if ls "$WORK/$tag.kill.tiles"/tile_*.nfcp >/dev/null 2>&1; then break; fi
    sleep 0.02
  done
  kill -9 "$victim" 2>/dev/null
  wait "$victim" 2>/dev/null
  local kill_rc=$?

  [ -d "$WORK/$tag.kill.tiles" ] \
    || fail "$tag: no tile store was created before the kill"
  if [ "$kill_rc" -ne 137 ]; then
    echo "note: $tag victim finished (rc=$kill_rc) before SIGKILL landed" >&2
  fi
  if ls "$WORK/$tag.kill.tiles"/*.snap >/dev/null 2>&1; then
    fail "$tag: the tile store holds a .snap file; the tile record is the" \
      "only checkpoint"
  fi

  # Resume: completed tiles load from the store, the rest re-solve.
  "$NF_FILL" "$WORK/in.glf" "$WORK/$tag.kill.glf" "${args[@]}" \
    --tile-store "$WORK/$tag.kill.tiles" --resume >/dev/null 2>&1 \
    || fail "$tag: tiled resume run failed"

  cmp -s "$WORK/$tag.ref.glf" "$WORK/$tag.kill.glf" \
    || fail "$tag: resumed tiled fill differs from the uninterrupted run"
  echo "PASS: $tag resumed tiled fill is byte-identical to the uninterrupted run"
}

kill_and_resume lin --method lin
# No artifact exists at $WORK/reduced and nf_fill never saves one: every run
# quick-trains the same reduced surrogate, so all runs use identical weights.
kill_and_resume pkb --method pkb --surrogate "$WORK/reduced"
exit 0
