#!/bin/sh
# CLI exit-code contract (documented in README.md):
#   0  success
#   2  user-input / parse error, as one clean line on stderr (no backtrace)
#   4  compute budget exhausted (also a bad --failpoints/--obs-only spec)
#   5  I/O failure or injected transient fault
# ringshare-lint shares the taxonomy: 0 clean, 2 findings, 4 spec error.
# Run via the dune runtest alias:
#   $1  ringshare executable
#   $2  ringshare-lint executable        (optional; skips lint checks)
#   $3  source root the lint must pass   (lib)
#   $4  a known-bad fixture the lint must flag
#   $5  a fixture with an interprocedural race the lint must flag
set -u

cli="$1"
# section 9 runs the CLI from a scratch directory, so the path must
# survive a cd
case "$cli" in /*) ;; *) cli="$PWD/$cli" ;; esac
lint="${2:-}"
lint_root="${3:-}"
lint_bad="${4:-}"
lint_race="${5:-}"
fails=0

expect() {
  desc="$1"; want="$2"; got="$3"
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $desc: expected exit $want, got $got" >&2
    fails=$((fails + 1))
  fi
}

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# 1. a valid run succeeds
"$cli" decompose --fig1 > "$tmpdir/out" 2>&1
expect "decompose --fig1" 0 $?
grep -q "bottleneck decomposition" "$tmpdir/out" || {
  echo "FAIL: --fig1 output missing the decomposition" >&2; fails=$((fails + 1)); }

# 2. a bad distribution name: exit 2, one clean line, no backtrace
"$cli" decompose --dist bogus > "$tmpdir/out" 2> "$tmpdir/err"
expect "bad --dist" 2 $?
[ "$(wc -l < "$tmpdir/err")" -eq 1 ] || {
  echo "FAIL: bad --dist stderr is not one line:" >&2
  cat "$tmpdir/err" >&2; fails=$((fails + 1)); }
grep -q "unknown distribution" "$tmpdir/err" || {
  echo "FAIL: bad --dist message unhelpful" >&2; fails=$((fails + 1)); }
grep -q "Raised at" "$tmpdir/err" && {
  echo "FAIL: bad --dist printed a backtrace" >&2; fails=$((fails + 1)); }

# 3. a corrupted instance file: exit 2, error names the line
printf 'ringshare-graph v1\nn 2\nw 9 1\n' > "$tmpdir/bad.graph"
"$cli" decompose --file "$tmpdir/bad.graph" > /dev/null 2> "$tmpdir/err"
expect "corrupted --file" 2 $?
grep -q "line 3" "$tmpdir/err" || {
  echo "FAIL: corrupted --file error does not name the line:" >&2
  cat "$tmpdir/err" >&2; fails=$((fails + 1)); }

# 4. a truncated instance file (no end footer): exit 2
printf 'ringshare-graph v1\nn 2\nw 0 1\n' > "$tmpdir/cut.graph"
"$cli" decompose --file "$tmpdir/cut.graph" > /dev/null 2> "$tmpdir/err"
expect "truncated --file" 2 $?

# 5. an exhausted budget: exit 4 with partial results
"$cli" hunt --trials 50 --step-budget 500 > /dev/null 2> "$tmpdir/err"
expect "hunt --step-budget" 4 $?
grep -q "budget exhausted" "$tmpdir/err" || {
  echo "FAIL: budget message missing" >&2; fails=$((fails + 1)); }

# 6. conflicting instance specs: exit 2
"$cli" decompose --fig1 --ring 1,2,3 > /dev/null 2> "$tmpdir/err"
expect "conflicting specs" 2 $?

# 9. --metrics: exit 0, schema-stable JSON, non-zero counters from the
#    five instrumented subsystems, and bit-identical stdout
( cd "$tmpdir" && "$cli" sybil --ring 3,3,2,1,1,1 --grid 6 --refine 1 \
    --solver flow --metrics > metrics_run.out 2> metrics_run.err )
expect "sybil --metrics" 0 $?
"$cli" sybil --ring 3,3,2,1,1,1 --grid 6 --refine 1 --solver flow \
  > "$tmpdir/plain_run.out" 2> /dev/null
expect "sybil without --metrics" 0 $?
cmp -s "$tmpdir/plain_run.out" "$tmpdir/metrics_run.out" || {
  echo "FAIL: --metrics changed stdout" >&2; fails=$((fails + 1)); }
mjson="$tmpdir/METRICS_ringshare.json"
[ -f "$mjson" ] || {
  echo "FAIL: --metrics wrote no METRICS_ringshare.json" >&2
  fails=$((fails + 1)); }
grep -q '"tool": "ringshare-obs"' "$mjson" || {
  echo "FAIL: metrics JSON missing tool key" >&2; fails=$((fails + 1)); }
grep -q '"version": 1' "$mjson" || {
  echo "FAIL: metrics JSON missing version key" >&2; fails=$((fails + 1)); }
for key in counters gauges spans; do
  grep -q "\"$key\": \[" "$mjson" || {
    echo "FAIL: metrics JSON missing $key array" >&2; fails=$((fails + 1)); }
done
for sub in flow decomposition incentive parwork budget; do
  grep "\"subsystem\": \"$sub\"" "$mjson" | grep -qv '"value": 0' || {
    echo "FAIL: subsystem $sub has no non-zero counter" >&2
    fails=$((fails + 1)); }
done
nopen=$(tr -cd '{' < "$mjson" | wc -c)
nclose=$(tr -cd '}' < "$mjson" | wc -c)
[ "$nopen" -eq "$nclose" ] || {
  echo "FAIL: metrics JSON braces unbalanced ($nopen vs $nclose)" >&2
  fails=$((fails + 1)); }
bopen=$(tr -cd '[' < "$mjson" | wc -c)
bclose=$(tr -cd ']' < "$mjson" | wc -c)
[ "$bopen" -eq "$bclose" ] || {
  echo "FAIL: metrics JSON brackets unbalanced ($bopen vs $bclose)" >&2
  fails=$((fails + 1)); }

# 11. batch: save two instances, run them through one shared-cache batch
"$cli" save --ring 3,1,2,5 --out "$tmpdir/a.graph" > /dev/null 2>&1
expect "save instance a" 0 $?
"$cli" save --ring 7,2,9,4,3 --out "$tmpdir/b.graph" > /dev/null 2>&1
expect "save instance b" 0 $?
"$cli" batch "$tmpdir/a.graph" "$tmpdir/b.graph" --grid 6 --refine 1 \
  --cache > "$tmpdir/out" 2> "$tmpdir/err"
expect "batch two instances" 0 $?
grep -q "a.graph" "$tmpdir/out" && grep -q "b.graph" "$tmpdir/out" || {
  echo "FAIL: batch output missing a per-file row" >&2
  cat "$tmpdir/out" >&2; fails=$((fails + 1)); }
grep -q "batch: 2 instances, 0 failed" "$tmpdir/out" || {
  echo "FAIL: batch summary line missing" >&2; fails=$((fails + 1)); }

# 12. batch with no files is a user-input error: exit 2
"$cli" batch > /dev/null 2> "$tmpdir/err"
expect "batch without files" 2 $?

# 13. batch isolates a bad instance: exit 2, the good row still prints
"$cli" batch "$tmpdir/a.graph" "$tmpdir/bad.graph" --grid 6 --refine 1 \
  > "$tmpdir/out" 2> /dev/null
expect "batch with one corrupt file" 2 $?
grep -q "a.graph" "$tmpdir/out" || {
  echo "FAIL: good instance row lost to the bad one" >&2
  fails=$((fails + 1)); }
grep -q "batch: 2 instances, 1 failed" "$tmpdir/out" || {
  echo "FAIL: batch failure count wrong" >&2; fails=$((fails + 1)); }

# 14. an unknown --solver is a spec error everywhere: exit 4, names the
#     known backends.  "chain" (the retired quadratic chain DP) is one
#     more unknown name.
"$cli" decompose --fig1 --solver nope > /dev/null 2> "$tmpdir/err"
expect "unknown --solver" 4 $?
grep -q "unknown solver" "$tmpdir/err" && grep -q "fast-chain" "$tmpdir/err" || {
  echo "FAIL: unknown --solver error does not list the backends" >&2
  cat "$tmpdir/err" >&2; fails=$((fails + 1)); }
"$cli" decompose --fig1 --solver chain > /dev/null 2> "$tmpdir/err"
expect "--solver chain" 4 $?
grep -q 'unknown solver "chain" (known: auto, brute, fast-chain, flow)' \
  "$tmpdir/err" || {
  echo "FAIL: --solver chain is not an unknown solver listing the backends" >&2
  cat "$tmpdir/err" >&2; fails=$((fails + 1)); }

# 15. flag parity: every compute subcommand accepts the one shared set of
#     execution flags (the Ctx term), so no subcommand drifts
for sub in "decompose --fig1" "allocate --fig1" "sybil --ring 3,1,2,5" \
           "trace --ring 3,1,2,5 --v 0" "audit --ring 3,1,2,5" \
           "batch $tmpdir/a.graph"; do
  "$cli" $sub --solver flow --grid 6 --refine 1 --domains 1 --cache \
    > /dev/null 2> "$tmpdir/err"
  expect "flag parity: $sub" 0 $?
done

# 16. a shared --step-budget tripping mid-batch: exit 2, the completed
#     row still prints, the unfinished one carries the budget error
"$cli" batch "$tmpdir/a.graph" "$tmpdir/b.graph" --grid 6 --refine 1 \
  --step-budget 400 > "$tmpdir/out" 2> /dev/null
expect "batch --step-budget midway" 2 $?
grep "a.graph" "$tmpdir/out" | grep -q "1.00000" || {
  echo "FAIL: completed row lost when the shared budget tripped" >&2
  cat "$tmpdir/out" >&2; fails=$((fails + 1)); }
grep "b.graph" "$tmpdir/out" | grep -q "budget exhausted" || {
  echo "FAIL: unfinished row does not carry the budget error" >&2
  cat "$tmpdir/out" >&2; fails=$((fails + 1)); }
grep -q "batch: 2 instances, 1 failed" "$tmpdir/out" || {
  echo "FAIL: batch budget-trip failure count wrong" >&2; fails=$((fails + 1)); }

# 17. an unknown --failpoints site is a spec error: exit 4, the message
#     lists the registered vocabulary
"$cli" sybil --ring 3,1,2,5 --failpoints "bogus=error" \
  > /dev/null 2> "$tmpdir/err"
expect "unknown --failpoints site" 4 $?
grep -q 'unknown failpoint' "$tmpdir/err" \
  && grep -q 'solver.fastchain.iter' "$tmpdir/err" || {
  echo "FAIL: --failpoints error does not list the sites" >&2
  cat "$tmpdir/err" >&2; fails=$((fails + 1)); }

# 18. an injected transient fault surfaces as a clean taxonomy error:
#     exit 5, one line, no backtrace
"$cli" sybil --ring 3,1,2,5 --grid 6 --refine 1 \
  --failpoints "solver.fastchain.iter=error@2" > /dev/null 2> "$tmpdir/err"
expect "injected transient fault" 5 $?
grep -q "injected fault at failpoint solver.fastchain.iter" "$tmpdir/err" || {
  echo "FAIL: injected-fault message missing" >&2
  cat "$tmpdir/err" >&2; fails=$((fails + 1)); }
grep -q "Raised at" "$tmpdir/err" && {
  echo "FAIL: injected fault printed a backtrace" >&2; fails=$((fails + 1)); }

# 19. a delay injection is invisible: exit 0, bit-identical stdout
"$cli" sybil --ring 3,1,2,5 --grid 6 --refine 1 \
  --failpoints "budget.tick=delay@5" > "$tmpdir/delay.out" 2> /dev/null
expect "delay injection" 0 $?
"$cli" sybil --ring 3,1,2,5 --grid 6 --refine 1 > "$tmpdir/nodelay.out" 2> /dev/null
cmp -s "$tmpdir/delay.out" "$tmpdir/nodelay.out" || {
  echo "FAIL: delay injection changed stdout" >&2; fails=$((fails + 1)); }

# 22. sweep policies: --sweep grid is the default (bit-identical output),
#     --sweep exact adds a certified line, unknown values are spec errors
"$cli" sybil --ring 7,2,9,4,3 --grid 6 --refine 1 > "$tmpdir/sweep_default.out" 2> /dev/null
expect "sybil default sweep" 0 $?
"$cli" sybil --ring 7,2,9,4,3 --grid 6 --refine 1 --sweep grid \
  > "$tmpdir/sweep_grid.out" 2> /dev/null
expect "sybil --sweep grid" 0 $?
cmp -s "$tmpdir/sweep_default.out" "$tmpdir/sweep_grid.out" || {
  echo "FAIL: --sweep grid output differs from the default" >&2
  fails=$((fails + 1)); }
"$cli" sybil --ring 7,2,9,4,3 --sweep exact > "$tmpdir/sweep_exact.out" 2> /dev/null
expect "sybil --sweep exact" 0 $?
grep -q "^exact: w1=" "$tmpdir/sweep_exact.out" || {
  echo "FAIL: --sweep exact printed no certified line" >&2
  cat "$tmpdir/sweep_exact.out" >&2; fails=$((fails + 1)); }
grep -q "pieces=" "$tmpdir/sweep_exact.out" && \
  grep -q "events=" "$tmpdir/sweep_exact.out" || {
  echo "FAIL: --sweep exact reports no piece/event accounting" >&2
  fails=$((fails + 1)); }
"$cli" sybil --ring 7,2,9,4,3 --sweep bogus > /dev/null 2> "$tmpdir/err"
expect "unknown --sweep" 4 $?
grep -q "unknown sweep" "$tmpdir/err" && grep -q "exact" "$tmpdir/err" || {
  echo "FAIL: unknown --sweep error does not list the policies" >&2
  cat "$tmpdir/err" >&2; fails=$((fails + 1)); }

# 23. --sweep exact --metrics: the exact counters reach the artifact
( cd "$tmpdir" && rm -f METRICS_ringshare.json && \
  "$cli" sybil --ring 7,2,9,4,3 --sweep exact --metrics > /dev/null 2>&1 )
expect "sybil --sweep exact --metrics" 0 $?
grep '"name": "exact_events"' "$tmpdir/METRICS_ringshare.json" \
  | grep -qv '"value": 0' || {
  echo "FAIL: exact_events counter is zero under --sweep exact" >&2
  fails=$((fails + 1)); }
grep '"name": "exact_sweep_calls"' "$tmpdir/METRICS_ringshare.json" \
  | grep -qv '"value": 0' || {
  echo "FAIL: exact_sweep_calls counter is zero under --sweep exact" >&2
  fails=$((fails + 1)); }

# 24. k-identity splits: --identities 2 is the default (byte-identical
#     output), --identities 3 searches the simplex and prints a weight
#     vector, K < 2 is a spec error
"$cli" sybil --ring 7,2,9,4,3 --grid 6 --refine 1 \
  > "$tmpdir/ident_default.out" 2> /dev/null
expect "sybil default identities" 0 $?
"$cli" sybil --ring 7,2,9,4,3 --grid 6 --refine 1 --identities 2 \
  > "$tmpdir/ident_two.out" 2> /dev/null
expect "sybil --identities 2" 0 $?
cmp -s "$tmpdir/ident_default.out" "$tmpdir/ident_two.out" || {
  echo "FAIL: --identities 2 output differs from the default" >&2
  fails=$((fails + 1)); }
"$cli" sybil --ring 7,2,9,4,3 --grid 6 --refine 1 --identities 3 \
  > "$tmpdir/ident_three.out" 2> /dev/null
expect "sybil --identities 3" 0 $?
grep -q "best weights=\[" "$tmpdir/ident_three.out" || {
  echo "FAIL: --identities 3 printed no weight vector" >&2
  cat "$tmpdir/ident_three.out" >&2; fails=$((fails + 1)); }
"$cli" sybil --ring 7,2,9,4,3 --identities 1 > /dev/null 2> "$tmpdir/err"
expect "--identities 1 rejected" 4 $?
grep -q "at least 2 identities" "$tmpdir/err" || {
  echo "FAIL: --identities 1 error message unhelpful" >&2
  fails=$((fails + 1)); }

# 25. the shared cache holds whole attack results: a batch that lists a
#     file twice prints identical rows for it, and sybil output is
#     byte-identical with and without --cache under both sweeps
"$cli" batch "$tmpdir/a.graph" "$tmpdir/b.graph" "$tmpdir/a.graph" \
  --grid 6 --refine 1 > "$tmpdir/out" 2> /dev/null
expect "batch with a repeated file" 0 $?
nrows=$(grep "a.graph" "$tmpdir/out" | sort -u | wc -l)
[ "$(grep -c "a.graph" "$tmpdir/out")" -eq 2 ] && [ "$nrows" -eq 1 ] || {
  echo "FAIL: repeated batch file printed differing rows" >&2
  cat "$tmpdir/out" >&2; fails=$((fails + 1)); }
for sweep in grid exact; do
  "$cli" sybil --ring 7,2,9,4,3 --grid 6 --refine 1 --sweep $sweep \
    > "$tmpdir/nocache.out" 2> /dev/null
  expect "sybil --sweep $sweep" 0 $?
  "$cli" sybil --ring 7,2,9,4,3 --grid 6 --refine 1 --sweep $sweep \
    --cache 64 > "$tmpdir/cache.out" 2> /dev/null
  expect "sybil --sweep $sweep --cache 64" 0 $?
  cmp -s "$tmpdir/nocache.out" "$tmpdir/cache.out" || {
    echo "FAIL: sybil --sweep $sweep output changes with --cache 64" >&2
    fails=$((fails + 1)); }
done

# 26. the decompose report is pinned byte for byte: the graph listing,
#     the pairs, per-vertex class/alpha/utility and the invariants line,
#     under three weight distributions.  The digests were recorded with
#     list-scan lookups and the pairwise validate.
for pin in uniform:00da693abcaf9b6f8f250d71308254aa \
           powerlaw:45b3fa6ccefdcf52fd56791db01adcd7 \
           bimodal:60eac9d4e20c29cee1a8762ba828a81a; do
  dist=${pin%%:*}; digest=${pin#*:}
  "$cli" decompose -n 400 --seed 1 --dist "$dist" > "$tmpdir/report.out" 2> /dev/null
  expect "decompose -n 400 --dist $dist" 0 $?
  got=$(md5sum < "$tmpdir/report.out" | cut -d' ' -f1)
  [ "$got" = "$digest" ] || {
    echo "FAIL: decompose --dist $dist report digest $got, expected $digest" >&2
    fails=$((fails + 1)); }
done

# 27. the exact sweep's dyadic witness is pinned byte for byte: on these
#     instances the certified optimum is irrational, so best_split_exact
#     reports the better 2^-40 bracket and evaluates the mechanism there,
#     which sends the split path's identity component to the chain
#     driver's Bigint fallback.  Digests recorded with the exact-rational
#     fallback kernel.
for pin in uniform:8:6e7716c5a5794b9ee7ae94fc3c833682 \
           uniform:12:8d8aa2ea3fc33d23c7ab26efb96da3df \
           powerlaw:13:4bf2f05562442ed2fc64be85ec1346eb \
           bimodal:16:8d4f9fd68b4a9af9549c4ce936f1f70f; do
  dist=${pin%%:*}; rest=${pin#*:}; seed=${rest%%:*}; digest=${rest#*:}
  "$cli" sybil -n 10 --seed "$seed" --dist "$dist" --sweep exact \
    > "$tmpdir/witness.out" 2> /dev/null
  expect "sybil -n 10 --seed $seed --dist $dist --sweep exact" 0 $?
  grep -q "^exact: w1=.*sqrt" "$tmpdir/witness.out" || {
    echo "FAIL: sybil --seed $seed --dist $dist optimum is no longer irrational" >&2
    fails=$((fails + 1)); }
  got=$(md5sum < "$tmpdir/witness.out" | cut -d' ' -f1)
  [ "$got" = "$digest" ] || {
    echo "FAIL: sybil --seed $seed --dist $dist --sweep exact digest $got, expected $digest" >&2
    fails=$((fails + 1)); }
done

# 28. the exact sweep's stage replay runs on native ints only while the
#     scaled weight sum fits its bound; weights over 2^40 and over primes
#     above 10^6 push it past the bound, onto the Bigint replay.  The
#     digests were recorded before the native-int replay existed, and
#     --metrics shows the Bigint replay really ran.
for pin in 7/1099511627776,2,9/1000003,4,3,5,8:670b01bffb3b2bf6b8015c3eda3b14ce \
           3/1000003,5/1000033,2,11/4294967296,6:7012ba9d6717359ed09e809e95766cde; do
  ring=${pin%%:*}; digest=${pin#*:}
  rm -f "$tmpdir/replay.json"
  "$cli" sybil --sweep exact --ring "$ring" --metrics="$tmpdir/replay.json" \
    > "$tmpdir/replay.out" 2> /dev/null
  expect "sybil --sweep exact --ring $ring" 0 $?
  got=$(md5sum < "$tmpdir/replay.out" | cut -d' ' -f1)
  [ "$got" = "$digest" ] || {
    echo "FAIL: sybil --sweep exact --ring $ring digest $got, expected $digest" >&2
    fails=$((fails + 1)); }
  grep '"name": "bigint_replays"' "$tmpdir/replay.json" \
    | grep -qv '"value": 0' || {
    echo "FAIL: --ring $ring ran no Bigint stage replay" >&2
    fails=$((fails + 1)); }
done

# 29. breaks, trace and verify enumerate the exact pieces: their stdout
#     is pinned byte for byte on one ring, verify's certificate leaves no
#     gap brackets, and a graph with a vertex of degree > 2 is an input
#     error (the interval structure is an analysis of rings and paths)
for pin in breaks:9f1115d6f699d021b37422bf0eecc6a8 \
           trace:9b077a262b105411757fbda948dd20c6 \
           verify:fd3bf1dc2c535b0b8d2f7fa9284e04b1; do
  sub=${pin%%:*}; digest=${pin#*:}
  "$cli" "$sub" --ring 7,2,9,4,3 --agent 0 > "$tmpdir/pieces.out" 2> /dev/null
  expect "$sub --ring 7,2,9,4,3" 0 $?
  got=$(md5sum < "$tmpdir/pieces.out" | cut -d' ' -f1)
  [ "$got" = "$digest" ] || {
    echo "FAIL: $sub --ring 7,2,9,4,3 digest $got, expected $digest" >&2
    fails=$((fails + 1)); }
done
"$cli" verify --ring 7,2,9,4,3 --agent 0 > "$tmpdir/verify.out" 2>&1
grep -qi "gap" "$tmpdir/verify.out" && {
  echo "FAIL: verify still reports gap brackets" >&2; fails=$((fails + 1)); }
"$cli" verify --ring 0,5,5 --agent 0 > /dev/null 2> "$tmpdir/err"
expect "verify on a zero-weight agent" 0 $?
"$cli" breaks --fig1 > /dev/null 2> "$tmpdir/err"
expect "breaks --fig1" 2 $?
[ "$(wc -l < "$tmpdir/err")" -eq 1 ] || {
  echo "FAIL: breaks --fig1 stderr is not one line:" >&2
  cat "$tmpdir/err" >&2; fails=$((fails + 1)); }
grep -q "degree > 2" "$tmpdir/err" || {
  echo "FAIL: breaks --fig1 message does not name the degree" >&2
  fails=$((fails + 1)); }
grep -q "Raised at" "$tmpdir/err" && {
  echo "FAIL: breaks --fig1 printed a backtrace" >&2; fails=$((fails + 1)); }

# 30. the grid search is pinned byte for byte at two and three
#     identities, and through a two-file batch (run from the scratch
#     directory, so the rows carry the bare file names)
for pin in 7,2,9,4,3:2:dfa5bbf0f85a63f3dbb36c5e60142a6d \
           7,2,9,4,3:3:b621575f71b96f3d40a4920a75190a1e \
           seed3:2:1069dfa14d6b2b60a581a941011af521 \
           seed3:3:5e2134a8cfe3c226df75374ad1974482; do
  inst=${pin%%:*}; rest=${pin#*:}; k=${rest%%:*}; digest=${rest#*:}
  case "$inst" in
    seed3) spec="-n 7 --seed 3" ;;
    *) spec="--ring $inst" ;;
  esac
  # shellcheck disable=SC2086
  "$cli" sybil $spec --grid 6 --refine 1 --identities "$k" \
    > "$tmpdir/grid.out" 2> /dev/null
  expect "sybil $spec --grid 6 --refine 1 --identities $k" 0 $?
  got=$(md5sum < "$tmpdir/grid.out" | cut -d' ' -f1)
  [ "$got" = "$digest" ] || {
    echo "FAIL: sybil $spec --identities $k grid digest $got, expected $digest" >&2
    fails=$((fails + 1)); }
done
( cd "$tmpdir" && "$cli" batch a.graph b.graph --grid 6 --refine 1 ) \
  > "$tmpdir/grid.out" 2> /dev/null
expect "batch a.graph b.graph --grid 6 --refine 1" 0 $?
got=$(md5sum < "$tmpdir/grid.out" | cut -d' ' -f1)
[ "$got" = "0b68cebe6eedb18b9ea90a05a92e5388" ] || {
  echo "FAIL: grid batch digest $got, expected 0b68cebe6eedb18b9ea90a05a92e5388" >&2
  fails=$((fails + 1)); }

# 10. an unknown --obs-only subsystem is a spec error: exit 4, one line
"$cli" decompose --fig1 --obs-only bogus > /dev/null 2> "$tmpdir/err"
expect "unknown --obs-only subsystem" 4 $?
grep -q 'unknown metrics subsystem' "$tmpdir/err" || {
  echo "FAIL: --obs-only error message unhelpful" >&2; fails=$((fails + 1)); }

if [ -n "$lint" ]; then
  # 7. the shipped sources are lint-clean: exit 0, clean JSON report
  "$lint" --root "$lint_root" --json "$tmpdir/lint.json" > "$tmpdir/out" 2>&1
  expect "lint --root $lint_root" 0 $?
  grep -q '"tool": "ringshare-lint"' "$tmpdir/lint.json" || {
    echo "FAIL: lint JSON missing tool key" >&2; fails=$((fails + 1)); }
  grep -q '"clean": true' "$tmpdir/lint.json" || {
    echo "FAIL: lint JSON not clean for $lint_root" >&2; fails=$((fails + 1)); }
  grep -q '"suppressions": \[' "$tmpdir/lint.json" || {
    echo "FAIL: lint JSON missing suppressions array" >&2; fails=$((fails + 1)); }
  # well-formedness: braces and brackets balance
  nopen=$(tr -cd '{' < "$tmpdir/lint.json" | wc -c)
  nclose=$(tr -cd '}' < "$tmpdir/lint.json" | wc -c)
  [ "$nopen" -eq "$nclose" ] || {
    echo "FAIL: lint JSON braces unbalanced ($nopen vs $nclose)" >&2
    fails=$((fails + 1)); }
  bopen=$(tr -cd '[' < "$tmpdir/lint.json" | wc -c)
  bclose=$(tr -cd ']' < "$tmpdir/lint.json" | wc -c)
  [ "$bopen" -eq "$bclose" ] || {
    echo "FAIL: lint JSON brackets unbalanced ($bopen vs $bclose)" >&2
    fails=$((fails + 1)); }

  grep -q '"callgraph": {' "$tmpdir/lint.json" || {
    echo "FAIL: lint JSON missing callgraph stats" >&2; fails=$((fails + 1)); }

  # 8. a known-bad fixture: exit 2, findings listed in text and JSON
  "$lint" --json "$tmpdir/lint_bad.json" "$lint_bad" > "$tmpdir/out" 2>&1
  expect "lint $lint_bad" 2 $?
  grep -q '\[float\]\|\[polycompare\]\|\[exnswallow\]\|\[determinism\]' \
    "$tmpdir/out" || {
    echo "FAIL: lint text output names no rule" >&2; fails=$((fails + 1)); }
  grep -q '"clean": false' "$tmpdir/lint_bad.json" || {
    echo "FAIL: bad-fixture JSON claims clean" >&2; fails=$((fails + 1)); }
  grep -q '"rule": "' "$tmpdir/lint_bad.json" || {
    echo "FAIL: bad-fixture JSON lists no finding" >&2; fails=$((fails + 1)); }

  # 20. the interprocedural race pass: a fixture whose unguarded cell is
  #     only reachable through a helper must still be flagged, with the
  #     reaching path in the message
  if [ -n "$lint_race" ]; then
    "$lint" --json "$tmpdir/lint_race.json" "$lint_race" \
      > "$tmpdir/out" 2>&1
    expect "lint $lint_race" 2 $?
    grep -q '\[race\]' "$tmpdir/out" || {
      echo "FAIL: race fixture produced no [race] finding" >&2
      cat "$tmpdir/out" >&2; fails=$((fails + 1)); }
    grep -q 'without synchronization via' "$tmpdir/out" || {
      echo "FAIL: race finding does not show the reaching path" >&2
      fails=$((fails + 1)); }
    grep -q '"rule": "race"' "$tmpdir/lint_race.json" || {
      echo "FAIL: race finding missing from JSON" >&2; fails=$((fails + 1)); }
  fi

  # 21. --sarif: a well-formed SARIF 2.1.0 log alongside the JSON, for
  #     both the clean tree and a flagged fixture
  "$lint" --root "$lint_root" --json "$tmpdir/lint2.json" \
    --sarif="$tmpdir/lint.sarif" > /dev/null 2>&1
  expect "lint --sarif on $lint_root" 0 $?
  [ -f "$tmpdir/lint.sarif" ] || {
    echo "FAIL: --sarif wrote no file" >&2; fails=$((fails + 1)); }
  grep -q '"version": "2.1.0"' "$tmpdir/lint.sarif" || {
    echo "FAIL: SARIF log missing version 2.1.0" >&2; fails=$((fails + 1)); }
  grep -q '"name": "ringshare-lint"' "$tmpdir/lint.sarif" || {
    echo "FAIL: SARIF log missing the driver name" >&2; fails=$((fails + 1)); }
  grep -q '"id": "race"' "$tmpdir/lint.sarif" || {
    echo "FAIL: SARIF log missing the race rule descriptor" >&2
    fails=$((fails + 1)); }
  if [ -n "$lint_race" ]; then
    "$lint" --json "$tmpdir/race2.json" --sarif="$tmpdir/race.sarif" \
      "$lint_race" > /dev/null 2>&1
    expect "lint --sarif on $lint_race" 2 $?
    grep -q '"ruleId": "race"' "$tmpdir/race.sarif" || {
      echo "FAIL: SARIF log carries no race result" >&2; fails=$((fails + 1)); }
    grep -q '"startLine"' "$tmpdir/race.sarif" || {
      echo "FAIL: SARIF result has no region" >&2; fails=$((fails + 1)); }
  fi
  for sarif in "$tmpdir/lint.sarif" "$tmpdir/race.sarif"; do
    [ -f "$sarif" ] || continue
    nopen=$(tr -cd '{' < "$sarif" | wc -c)
    nclose=$(tr -cd '}' < "$sarif" | wc -c)
    [ "$nopen" -eq "$nclose" ] || {
      echo "FAIL: SARIF braces unbalanced in $sarif ($nopen vs $nclose)" >&2
      fails=$((fails + 1)); }
    bopen=$(tr -cd '[' < "$sarif" | wc -c)
    bclose=$(tr -cd ']' < "$sarif" | wc -c)
    [ "$bopen" -eq "$bclose" ] || {
      echo "FAIL: SARIF brackets unbalanced in $sarif ($bopen vs $bclose)" >&2
      fails=$((fails + 1)); }
  done
fi

if [ "$fails" -ne 0 ]; then
  echo "cli_smoke: $fails check(s) failed" >&2
  exit 1
fi
echo "cli_smoke: all exit-code checks passed"
