#!/usr/bin/env bash
# Checks fuzz_fpr's option and repro validation: --max-terminals values
# outside the subset DP's range, and malformed --seed or --iters values, exit
# 2 with a message before any case runs; in-range values are accepted; a
# repro whose case line does not parse, or names a device too large for
# 32-bit node and edge ids, exits 2 with "unparsable case line".
# Registered as a ctest.
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

for seed in abc -1 1x 18446744073709551616 ""; do
  timeout 20 "$FUZZ" --oracle approx --iters 3 --quiet --failures "$WORK" \
    --seed "$seed" > "$WORK/out" 2> "$WORK/err"
  status=$?
  [ "$status" -eq 2 ] || fail "--seed '$seed' exited $status, expected 2"
  grep -q -- "--seed must be a non-negative 64-bit integer" "$WORK/err" ||
    fail "--seed '$seed' printed no message: $(cat "$WORK/err")"
done

for iters in 5x 0 -3 abc 99999999999; do
  timeout 20 "$FUZZ" --oracle approx --quiet --failures "$WORK" \
    --iters "$iters" > "$WORK/out" 2> "$WORK/err"
  status=$?
  [ "$status" -eq 2 ] || fail "--iters '$iters' exited $status, expected 2"
  grep -q -- "--iters must be a positive integer" "$WORK/err" ||
    fail "--iters '$iters' printed no message: $(cat "$WORK/err")"
done

timeout 20 "$FUZZ" --oracle approx --iters 3 --quiet --failures "$WORK" \
  --seed 18446744073709551615 > "$WORK/out" 2> "$WORK/err"
status=$?
[ "$status" -eq 0 ] || fail "--seed 18446744073709551615 exited $status, expected 0"

for line in \
  "tree substrate=random graph_seed=1 nodes=abc extra=0 grid=3x3 max_weight=2 algo=KMB terminals=0,1" \
  "circuit family=xc4000 rows=99999999999 cols=4 width=8 nets=6,2,0 synth_seed=3 algo=IKMB decompose=0" \
  "circuit family=xc4000 rows=20000 cols=20000 width=8 nets=6,2,0 synth_seed=3 algo=IKMB decompose=0"; do
  case "$line" in
    tree*) oracle=validity ;;
    *) oracle=feasibility ;;
  esac
  printf 'oracle: %s\ncase: %s\n' "$oracle" "$line" > "$WORK/bad.repro"
  timeout 20 "$FUZZ" --replay "$WORK/bad.repro" > "$WORK/out" 2> "$WORK/err"
  status=$?
  [ "$status" -eq 2 ] || fail "replay of '$line' exited $status, expected 2"
  grep -q "unparsable case line" "$WORK/out" ||
    fail "replay of '$line' printed no parse message: $(cat "$WORK/out")"
done

echo "fuzz_fpr option and repro validation OK"
