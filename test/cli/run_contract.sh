#!/bin/sh
# The run contract end to end: every front end measures a compiled kernel
# the same way, and stored results are keyed by the machine, not its name.
#
#   sh run_contract.sh MACS_CLI MACS_SERVE
set -eu
cli=$1
serve=$2

fail() {
  echo "run contract: $*" >&2
  exit 1
}

# `simulate` prints the suite's CPL for every vector kernel
for m in c240 'c240;banks=16;busy=12'; do
  "$cli" simulate --machine "$m" |
    sed -n 's/^lfk\([0-9]*\): [0-9]* cycles, \([0-9.]*\) CPL.*/\1 \2/p' > sim.cpl
  "$cli" suite --machine "$m" |
    awk -F'|' '$2 ~ /vector/ { gsub(/ /, "", $1); gsub(/ /, "", $3); print $1, $3 }' > suite.cpl
  [ -s sim.cpl ] || fail "no simulate rows on $m"
  cmp -s sim.cpl suite.cpl || {
    diff sim.cpl suite.cpl >&2 || true
    fail "simulate and suite CPL differ on $m"
  }
done

# a dead bank stalls LFK1 out at the same cycle in the CLI and in serve
cli_msg=$("$cli" simulate -k 1 --faults dead-bank | sed -n 's/^lfk1: FAILED //p')
serve_msg=$(echo '{"id":"d","op":"simulate","kernel":1,"faults":"dead-bank"}' |
  "$serve" serve |
  sed -n 's/.*"message":"\(.*\)"}}]}$/\1/p' | sed 's/\\"/"/g')
[ -n "$cli_msg" ] || fail "simulate printed no dead-bank diagnostic"
[ "$cli_msg" = "$serve_msg" ] ||
  fail "dead-bank diagnostics differ: cli '$cli_msg', serve '$serve_msg'"

# two spellings of one machine share its cache entries
rm -rf contract_cache.d
"$cli" suite --machine no-refresh --cache contract_cache.d > /dev/null 2>&1
"$cli" suite --machine 'c240;refresh=none' --cache contract_cache.d 2>&1 > /dev/null |
  grep -q "12 hits, 0 misses" || fail "c240;refresh=none missed the no-refresh cache"
