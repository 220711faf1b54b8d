#!/usr/bin/env bash
# Checks route_cli's argument and input validation: a width that is not a
# positive integer exits 1 with a message before any device is built, a
# circuit file with a huge net count exits 1 as unreadable, and a small
# valid circuit routes. Registered as a ctest.
set -u

CLI="${1:?usage: route_cli_test.sh <path-to-route_cli>}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

printf 'circuit tiny 3 3 2\nnet 2 0 0 2 2\nnet 3 1 0 0 2 2 1\n' > "$WORK/tiny.net"

for width in abc -4 0 4x 99999999999 ""; do
  timeout 20 "$CLI" "$WORK/tiny.net" "$width" > "$WORK/out" 2> "$WORK/err"
  status=$?
  [ "$status" -eq 1 ] || fail "width '$width' exited $status, expected 1"
  grep -q "width must be a positive integer" "$WORK/err" ||
    fail "width '$width' printed no message: $(cat "$WORK/err")"
done

printf 'circuit x 4 4 999999999999999999\nnet 2 0 0 1 1\n' > "$WORK/huge.net"
timeout 20 "$CLI" "$WORK/huge.net" 8 > "$WORK/out" 2> "$WORK/err"
status=$?
[ "$status" -eq 1 ] || fail "huge net count exited $status, expected 1"
grep -q "cannot read circuit file" "$WORK/err" ||
  fail "huge net count printed no message: $(cat "$WORK/err")"

timeout 60 "$CLI" "$WORK/tiny.net" 6 > "$WORK/out" 2> "$WORK/err"
status=$?
[ "$status" -eq 0 ] || fail "width 6 exited $status, expected 0: $(cat "$WORK/out" "$WORK/err")"
grep -q "SUCCESS" "$WORK/out" || fail "width 6 did not route: $(cat "$WORK/out")"

echo "route_cli argument validation OK"
