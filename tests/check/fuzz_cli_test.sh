#!/usr/bin/env bash
# Checks fuzz_fpr's --max-terminals validation: values outside the subset
# DP's range exit 2 with a message before any case runs, and the lower
# bound itself is accepted. Registered as a ctest.
set -u

FUZZ="${1:?usage: fuzz_cli_test.sh <path-to-fuzz_fpr>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

for k in 1 0 40 -3 5x; do
  timeout 20 "$FUZZ" --oracle approx --iters 3 --quiet --failures "$WORK" \
    --max-terminals "$k" > "$WORK/out" 2> "$WORK/err"
  status=$?
  [ "$status" -eq 2 ] || fail "--max-terminals $k exited $status, expected 2"
  grep -q -- "--max-terminals must be an integer in \[2, " "$WORK/err" ||
    fail "--max-terminals $k printed no range message: $(cat "$WORK/err")"
done

timeout 20 "$FUZZ" --oracle approx --iters 3 --quiet --failures "$WORK" \
  --max-terminals 2 > "$WORK/out" 2> "$WORK/err"
status=$?
[ "$status" -eq 0 ] || fail "--max-terminals 2 exited $status, expected 0"

echo "fuzz_fpr --max-terminals validation OK"
