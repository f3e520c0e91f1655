#!/usr/bin/env bash
# Smoke-test the durable crowd-work ledger end to end: run a reference
# query on a ledger-less server, then on a second server (fresh ledger
# dir, same seed) kill -9 mid-stream, restart with the same ledger dir,
# resubmit the same statement, and assert
#   1. the final wire Result is byte-identical to the uninterrupted
#      reference run (same seed, same request ID),
#   2. the engine proves previously-paid verdicts were served from the
#      ledger (replay hits > 0 — zero re-issued HITs for completed
#      rounds),
#   3. boot replay handled the kill -9 WAL (torn final frame truncated,
#      never fatal),
#   4. SIGTERM drain syncs and closes the ledger cleanly,
#   5. the ledger directory then holds exactly one file, wal.ldg — the
#      ledger is its write-ahead log and writes no second file.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=${CDBD_ADDR:-127.0.0.1:8098}
SMOKE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/cdbd-restart.XXXXXX")
LOG_REF="$SMOKE_DIR/ref.log"
LOG_A="$SMOKE_DIR/killed.log"
LOG_B="$SMOKE_DIR/restarted.log"
LEDGER="$SMOKE_DIR/ledger"
BIN=${CDBD_BIN:-./bin}

mkdir -p "$BIN"
go build -o "$BIN/cdbd" ./cmd/cdbd
go build -o "$BIN/cdbtop" ./cmd/cdbtop

# Shared server knobs: the 3-way join below runs ~1s over >=3 crowd
# rounds, a wide enough window to kill -9 mid-stream after round 1.
SRV_FLAGS=(-addr "$ADDR" -dataset paper -scale 0.8 -seed 7 -workers 30 -accuracy 0.9 -redundancy 15)
QUERY='{"query":"SELECT Paper.title, Researcher.name FROM Paper, Researcher, Citation WHERE Paper.author CROWDJOIN Researcher.name AND Paper.title CROWDJOIN Citation.title;"}'
RID="restart-smoke-$$"

wait_healthy() {
  for _ in $(seq 1 100); do
    curl -sf "http://$ADDR/healthz" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  return 1
}

SRV=""
cleanup() { [ -n "$SRV" ] && kill -9 "$SRV" 2>/dev/null || true; }
trap cleanup EXIT

echo "== reference: uninterrupted run, no ledger =="
"$BIN/cdbd" "${SRV_FLAGS[@]}" 2>"$LOG_REF" &
SRV=$!
wait_healthy || { echo "reference cdbd never became healthy"; cat "$LOG_REF"; exit 1; }
REF=$(curl -sf -H "X-CDB-Request-ID: $RID" -XPOST "http://$ADDR/v1/query" -d "$QUERY")
kill -TERM "$SRV" && wait "$SRV" || true
SRV=""
[ -n "$REF" ] || { echo "reference query returned nothing"; cat "$LOG_REF"; exit 1; }

echo "== ledger run: kill -9 mid-stream =="
"$BIN/cdbd" "${SRV_FLAGS[@]}" -ledger-dir "$LEDGER" -fsync always 2>"$LOG_A" &
SRV=$!
wait_healthy || { echo "ledger cdbd never became healthy"; cat "$LOG_A"; exit 1; }

curl -sN -XPOST "http://$ADDR/v1/query/stream" -d "$QUERY" >"$SMOKE_DIR/stream.ndjson" 2>/dev/null &
CURL=$!

# Kill the instant the query has at least one completed (and therefore
# fsynced) crowd round but is still running.
SAW_MIDSTREAM=0
for _ in $(seq 1 500); do
  kill -0 "$CURL" 2>/dev/null || break
  Q=$(curl -sf "http://$ADDR/v1/queries" || true)
  INFLIGHT=${Q%%\"recent\"*}
  if echo "$INFLIGHT" | grep -q '"state":"running"' && echo "$INFLIGHT" | grep -Eq '"rounds":[1-9]'; then
    SAW_MIDSTREAM=1
    break
  fi
  sleep 0.02
done
[ "$SAW_MIDSTREAM" = 1 ] || { echo "never caught the stream mid-flight with a completed round"; cat "$LOG_A"; exit 1; }
kill -9 "$SRV"
wait "$SRV" 2>/dev/null || true
SRV=""
wait "$CURL" 2>/dev/null || true
[ -s "$LEDGER/wal.ldg" ] || { echo "ledger WAL missing after kill -9"; ls -la "$LEDGER" || true; exit 1; }

echo "== restart with the same ledger dir and seed, resubmit =="
"$BIN/cdbd" "${SRV_FLAGS[@]}" -ledger-dir "$LEDGER" -fsync always 2>"$LOG_B" &
SRV=$!
wait_healthy || { echo "restarted cdbd never became healthy"; cat "$LOG_B"; exit 1; }
grep -q 'ledger: replayed' "$LOG_B" || { echo "missing boot replay log line"; cat "$LOG_B"; exit 1; }

RES=$(curl -sf -H "X-CDB-Request-ID: $RID" -XPOST "http://$ADDR/v1/query" -d "$QUERY")
if [ "$RES" != "$REF" ]; then
  echo "resumed Result is not byte-identical to the uninterrupted run"
  echo "--- reference:"; echo "$REF" | head -c 600; echo
  echo "--- resumed:";   echo "$RES" | head -c 600; echo
  exit 1
fi

QJSON=$(curl -sf "http://$ADDR/v1/queries")
# LedgerInfo is a flat object, so [^}]* captures exactly its fields —
# keeps the "hits" check from matching a per-query HIT count instead.
LBLOCK=$(echo "$QJSON" | grep -o '"ledger":{[^}]*}' || true)
[ -n "$LBLOCK" ] || { echo "/v1/queries missing the ledger block"; echo "$QJSON"; exit 1; }
echo "$LBLOCK" | grep -Eq '"hits":[1-9]' || {
  echo "ledger replay hits == 0: previously-paid verdicts were re-issued"; echo "$QJSON"; exit 1; }
echo "$QJSON" | grep -Eq '"ledger":[1-9]' || {
  echo "resubmitted query shows no ledger-served tasks"; echo "$QJSON"; exit 1; }

TOP=$("$BIN/cdbtop" -addr "$ADDR" -once)
echo "$TOP" | grep -q '^ledger ' || { echo "cdbtop missing the ledger line"; echo "$TOP"; exit 1; }

echo "== SIGTERM: drain must sync and close the ledger =="
kill -TERM "$SRV"
if ! wait "$SRV"; then
  echo "cdbd exited non-zero after SIGTERM"; cat "$LOG_B"; exit 1
fi
SRV=""
trap - EXIT
grep -q 'ledger: synced and closed' "$LOG_B" || { echo "missing ledger close log line"; cat "$LOG_B"; exit 1; }
grep -q 'drained cleanly' "$LOG_B" || { echo "missing clean-drain log line"; cat "$LOG_B"; exit 1; }
LEDGER_FILES=$(ls -A "$LEDGER")
[ "$LEDGER_FILES" = "wal.ldg" ] || {
  echo "ledger directory must hold exactly wal.ldg, holds:"; ls -la "$LEDGER"; exit 1; }

echo "restart-smoke: OK (logs in $SMOKE_DIR)"
