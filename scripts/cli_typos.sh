#!/usr/bin/env bash
# A misspelt dataset or similarity name must stop every CLI with a
# non-zero exit and the list of valid names on stderr — none may fall
# back to a default and run a different experiment in silence.
set -uo pipefail
cd "$(dirname "$0")/.."

BIN=${CDB_BIN:-./bin}
mkdir -p "$BIN"
go build -o "$BIN/" ./cmd/cdbsh ./cmd/cdbgen ./cmd/cdbench ./cmd/cdbd || exit 1

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
fail=0
check() { # check "<valid-name list>" command...
  local want=$1 err
  shift
  if err=$("$@" </dev/null 2>&1 >/dev/null); then
    echo "FAIL: '$*' exited 0"; fail=1
  elif [[ $err != *"$want"* ]]; then
    echo "FAIL: '$*' stderr lacks '$want': $err"; fail=1
  else
    echo "ok: $* -> $err"
  fi
}
check "want 2gram, token, edit, cosine, none" "$BIN/cdbd" -similarity 3gram
check "want paper, award, example" "$BIN/cdbsh" -dataset imdb
check "want paper, award, example" "$BIN/cdbgen" -dataset papr -out "$out"
check "want paper, award, example" "$BIN/cdbench" -dataset papr -exp fig8
exit $fail
