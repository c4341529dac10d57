#!/usr/bin/env bash
# End-to-end run of the console script.
#
#     tests/cli_smoke.sh                                   # the installed entry point
#     SPECTRATILE="python -m spectratile.cli" tests/cli_smoke.sh
#
# $SPECTRATILE names the command (default: spectratile); it is split on
# spaces.  Exits non-zero at the first command that does not behave as
# below.
#
# The n = 2 bundle must equal the golden byte for byte, after exactly 8
# passed steps and an overall PASS; it is then re-verified with the search
# replay, and the n = 3 bundle is written and re-verified.  {0, 1, 3} is
# refused as a tile of Z_6 (exit 1) by a rooted search, and that search is
# replayed from the file it wrote.  A line tiling of Z_100^2 (10,000 cells)
# is refused as a usage error (exit 2) when verified under a guard of 1,000
# cells.  The exact-cover search counts its k copies of the group against
# the guard: under a guard of 100,000 cells, deciding that line (100 points,
# 10^6 bits) exits 2, and so does replaying the {0, 1, 3} search (18 bits)
# under a guard of 10.  Last, two chains through the zero-set mask and the
# shared coverage check: {(0,0), (1,0)} gets a spectrum over 2 whose
# envelope verifies, and {0, 1} tiles Z_4, lifts through the 1x2 matrix
# (1 0) to Z_4^2, and the lift record verifies.
set -euo pipefail

SPECTRATILE=${SPECTRATILE:-spectratile}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

st() { $SPECTRATILE "$@"; }

# expect STATUS COMMAND...: run the command and require that exit status.
expect() {
  local want=$1 status=0
  shift
  "$@" || status=$?
  if [ "$status" -ne "$want" ]; then
    echo "expected exit $want, got $status: $*" >&2
    exit 1
  fi
}

st verify-counterexample -n 2 --json "$tmp/n2.json" > "$tmp/steps.txt"
test "$(grep -c '^ok ' "$tmp/steps.txt")" -eq 8
grep -qx 'overall: PASS' "$tmp/steps.txt"
cmp "$tmp/n2.json" "$root/tests/data/counterexample_n2.json"
st tile verify "$tmp/n2.json" --replay
st verify-counterexample -n 3 --json "$tmp/n3.json"
st tile verify "$tmp/n3.json"
printf '3 1\n0\n1\n3\n' > "$tmp/set.txt"
expect 1 st tile decide --set "$tmp/set.txt" -m 6 --json "$tmp/rooted.json"
grep -q '"kind":"rooted-search"' "$tmp/rooted.json"
st tile verify "$tmp/rooted.json" --replay
{ echo "100 2"; seq 0 99 | sed 's/^/0 /'; } > "$tmp/line.txt"
st tile decide --set "$tmp/line.txt" -m 100 --json "$tmp/line.json"
expect 2 env SPECTRATILE_GUARD=1000 $SPECTRATILE tile verify "$tmp/line.json"
expect 2 env SPECTRATILE_GUARD=100000 $SPECTRATILE tile decide --set "$tmp/line.txt" -m 100
expect 2 env SPECTRATILE_GUARD=10 $SPECTRATILE tile verify "$tmp/rooted.json" --replay
printf '2 2\n0 0\n1 0\n' > "$tmp/pair.txt"
st spectrum find --set "$tmp/pair.txt" -m 2 --json "$tmp/spectrum.json"
st tile verify "$tmp/spectrum.json"
printf '2 1\n0\n1\n' > "$tmp/step.txt"
st tile decide --set "$tmp/step.txt" -m 4 --json "$tmp/step.json"
printf '1 2\n1 0\n' > "$tmp/phi.txt"
st tile lift --set "$tmp/pair.txt" --matrix "$tmp/phi.txt" "$tmp/step.json" --json "$tmp/lift.json"
st tile verify "$tmp/lift.json"
echo "cli smoke: ok"
