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
# replay; bundles for n = 3 and 4 are written and re-verified.  {0, 1, 3} is
# refused as a tile of Z_6 (exit 1) by a rooted search, and that search is
# replayed from the file it wrote.  So is the deepest exhausted search of the
# benchmark pool, z5d3k5-142 (five points in Z_5^3, 29,257 nodes rooted),
# whose replay stops at node claim + 1 deep in the tree: a copy that claims
# one node fewer fails its replay (exit 1).  A line tiling of Z_100^2 (10,000 cells)
# is refused as a usage error (exit 2) when verified under a guard of 1,000
# cells.  The exact-cover search counts its k copies of the group against
# the guard: under a guard of 100,000 cells, deciding that line (100 points,
# 10^6 bits) exits 2, and so does replaying the {0, 1, 3} search (18 bits)
# under a guard of 10.  Composing the {0, 1, 3} refusal, which is not a
# tiling, and a log-Hadamard check over the denominator 0 are usage errors
# too.  Last, two chains through the zero-set mask and the shared coverage
# check: {(0,0), (1,0)} gets a spectrum over 2 whose envelope verifies, and
# {0, 1} tiles Z_4 (but exits 2 under a guard variable written 1_0, which
# --guard refuses too, and not as a guard of 10 cells), lifts through the
# 1x2 matrix (1 0) to Z_4^2, and the lift record verifies.  The {0, 1}
# tiling composed with itself verifies as a composition record, and an
# independence chain verifies both as written by tile independent and as
# the stored tests/data/independence_chain.json.  Then spectrum searches on
# both routes of the zero-set builder, which transforms when m <= k or
# d >= 3 and transforms only the lines that the orbit leaders read: four
# points in Z_12^3 (m > k, transformed since d = 3) and eight spectral
# points in Z_8^3 (m <= k).  A third search takes the transform route
# past the orbit cache's bound (4 * 12^4 bits > 2^15), where the leaders
# are walked on each call: the line {(i, 0, 0, 0) : i < 12} in Z_12^4,
# whose spectrum is the rows (j, 0, 0, 0), j < 12.  A fourth stays
# pointwise: {0, 500} in Z_1000 (m > k at d = 1), whose spectrum is the
# rows 0 and 1.  Each prints the lexicographically least spectrum written
# below, and spectrum check accepts it.
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
st verify-counterexample -n 4 --json "$tmp/n4.json"
st tile verify "$tmp/n4.json"
printf '3 1\n0\n1\n3\n' > "$tmp/set.txt"
expect 1 st tile decide --set "$tmp/set.txt" -m 6 --json "$tmp/rooted.json"
grep -q '"kind":"rooted-search"' "$tmp/rooted.json"
st tile verify "$tmp/rooted.json" --replay
printf '5 3\n2 4 1\n3 3 1\n4 1 1\n3 0 0\n0 3 2\n' > "$tmp/deep.txt"
expect 1 st tile decide --set "$tmp/deep.txt" -m 5 --json "$tmp/deep.json"
grep -q '"kind":"rooted-search","nodes":"29257"' "$tmp/deep.json"
st tile verify "$tmp/deep.json" --replay
sed 's/"nodes":"29257"/"nodes":"29256"/' "$tmp/deep.json" > "$tmp/short.json"
expect 1 st tile verify "$tmp/short.json" --replay
{ echo "100 2"; seq 0 99 | sed 's/^/0 /'; } > "$tmp/line.txt"
st tile decide --set "$tmp/line.txt" -m 100 --json "$tmp/line.json"
expect 2 env SPECTRATILE_GUARD=1000 $SPECTRATILE tile verify "$tmp/line.json"
expect 2 env SPECTRATILE_GUARD=100000 $SPECTRATILE tile decide --set "$tmp/line.txt" -m 100
expect 2 env SPECTRATILE_GUARD=10 $SPECTRATILE tile verify "$tmp/rooted.json" --replay
expect 2 st tile compose "$tmp/rooted.json" "$tmp/rooted.json"
printf '2 2\n0 0\n0 1\n' > "$tmp/hadamard.txt"
expect 2 st matrix hadamard --matrix "$tmp/hadamard.txt" -m 0
printf '2 2\n0 0\n1 0\n' > "$tmp/pair.txt"
st spectrum find --set "$tmp/pair.txt" -m 2 --json "$tmp/spectrum.json"
st tile verify "$tmp/spectrum.json"
printf '2 1\n0\n1\n' > "$tmp/step.txt"
st tile decide --set "$tmp/step.txt" -m 4 --json "$tmp/step.json"
expect 2 env SPECTRATILE_GUARD=1_0 $SPECTRATILE tile decide --set "$tmp/step.txt" -m 4
printf '1 2\n1 0\n' > "$tmp/phi.txt"
st tile lift --set "$tmp/pair.txt" --matrix "$tmp/phi.txt" "$tmp/step.json" --json "$tmp/lift.json"
st tile verify "$tmp/lift.json"
st tile compose "$tmp/step.json" "$tmp/step.json" --json "$tmp/composed.json"
st tile verify "$tmp/composed.json"
printf '2 3\n2 0 1\n0 3 0\n' > "$tmp/independent.txt"
st tile independent --set "$tmp/independent.txt" --json "$tmp/chain.json"
st tile verify "$tmp/chain.json"
st tile verify "$root/tests/data/independence_chain.json"
printf '4 3\n2 6 0\n5 7 4\n7 4 10\n8 10 5\n' > "$tmp/z12.txt"
printf '4 3\n0 0 0\n0 2 2\n6 0 0\n6 2 2\ndenominator 12\n' > "$tmp/z12.want"
printf '8 3\n6 2 1\n5 0 6\n5 7 5\n3 0 3\n2 1 4\n1 0 7\n0 4 0\n2 1 5\n' > "$tmp/z8.txt"
printf '8 3\n0 0 0\n1 3 1\n2 6 2\n3 1 3\n4 4 4\n5 7 5\n6 2 6\n7 5 7\ndenominator 8\n' > "$tmp/z8.want"
{ echo "12 4"; seq 0 11 | sed 's/$/ 0 0 0/'; } > "$tmp/z12d4.txt"
{ cat "$tmp/z12d4.txt"; echo "denominator 12"; } > "$tmp/z12d4.want"
printf '2 1\n0\n500\n' > "$tmp/z1000.txt"
printf '2 1\n0\n1\ndenominator 1000\n' > "$tmp/z1000.want"
for case in "z12 12" "z8 8" "z12d4 12" "z1000 1000"; do
  set -- $case
  st spectrum find --set "$tmp/$1.txt" -m "$2" > "$tmp/$1.out"
  cmp "$tmp/$1.out" "$tmp/$1.want"
  st spectrum check --set "$tmp/$1.txt" --spectrum "$tmp/$1.out" -m "$2"
done
echo "cli smoke: ok"
