#!/usr/bin/env bash
# Tier-1 entry point: everything a change must pass before merging.
#
# Runs fully offline — the workspace has no registry dependencies, and
# `tests/policy.rs` (rule H1: no `source` in Cargo.lock) keeps it that way.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

# Lint first so violations fail fast, before the release build. The
# policy lives in `[workspace.lints]`, `clippy.toml` and the crate roots
# (DESIGN.md §9); an `#[expect]` that no longer fires is a warning, so
# `-D warnings` fails a stale exception too.
echo "== cargo clippy (determinism / panic policy / library output / message hygiene)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Public docs must build clean: a doc link to a private or deleted item
# is a warning, and `-D warnings` fails it.
echo "== cargo doc (no rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# I6 (every route ends at the closest live node) gates every scenario,
# as I1-I5 do.
echo "== invariant gate (I1-I6 over bulk-join / churn / quota-reclaim / lossy-churn / wheel-horizon)"
mkdir -p target
cargo run --offline -q -p past-invariants --bin invariants -- \
  --emit-trace target/trace_lossy.jsonl --emit-series target/series_lossy.jsonl

echo "== tracecheck (no stuck ops, insert fan-out == k, hops vs log2^b N)"
cargo run --offline -q -p past-trace --bin tracecheck -- --require-clean target/trace_lossy.jsonl

echo "== obsreport (flight-recorder SLO gate: no stalled windows, rejection/utilization in bounds)"
cargo run --offline -q -p past-trace --bin obsreport -- --require-slo target/series_lossy.jsonl

echo "== cargo build --release"
cargo build --offline --release --workspace

echo "== cargo test -q"
cargo test --offline -q --workspace

# Each `#[ignore]`d test reproduces an open bug and must still fail, run
# alone by its exact name. One that passes names a bug that is fixed: the
# change that fixed it un-ignores it, so it guards the fix from then on.
echo "== open reproducers (each #[ignore]d test still fails)"
for reproducer in \
  "-p past-core --lib cache::tests::a_refused_offer_evicts_nothing" \
  "-p past-core --lib storage::tests::promoting_a_cached_file_evicts_nothing_else" \
  "-p past-invariants --test join_after_failure join_after_failure_leaves_a_leaf_asymmetry" \
  "-p past-invariants --test join_after_failure churn_scenario_holds_on_seeds_0_to_7"; do
  read -r -a args <<<"$reproducer"
  name=${args[${#args[@]} - 1]}
  out=$(cargo test --offline -q "${args[@]}" -- --ignored --exact 2>&1 || true)
  if grep -q "1 passed; 0 failed" <<<"$out"; then
    echo "reproducer $name now passes: un-ignore it"
    exit 1
  fi
  if ! grep -q "0 passed; 1 failed" <<<"$out"; then
    echo "$out"
    echo "reproducer $name did not run as one test"
    exit 1
  fi
  echo "reproducer $name: still fails"
done

# The benchmark builds the workspace at release optimisation, where
# overflow checks and `debug_assert!`s are off, so the whole suite runs
# again there. Among what that catches: a limb carry in past-crypto's
# arithmetic that wraps instead of panicking; the codec's
# `debug_assert`-guarded `usize -> u32` vector length prefix (tests/wire.rs:
# round-trip, goldens, seeded fuzz); the packed routing state's 4-byte
# addresses and u32 proximities (hostile-address, saturation and
# differential tests); the static builder's state golden and routes,
# which pin the benchmark's set-up; and the engine wheel's split tie
# halves and packed event tags, with the Chord and CAN baselines that
# `exp e11` steps through it.
echo "== cargo test -q --release (every crate at the benchmark's optimisation)"
cargo test --offline -q --release --workspace

# pastbench is a package of its own, outside the workspace: build and
# run it here so an engine API change cannot break the benchmark
# silently.
echo "== pastbench (tests + smoke run against the workspace crates)"
cargo test --release --offline -q --manifest-path pastbench/Cargo.toml
cargo run --release --offline -q --manifest-path pastbench/Cargo.toml -- --smoke

# A PAST memory budget beside the overlay's 100k gate below: a short
# `zipf_read` run, whose caches hold one certificate per issuance rather
# than one per copy. Its `rss_kb_per_node` (VmHWM / nodes) read 20.5 KiB
# when the budget was set and 59.1 the commit before (a private
# certificate copy in every replica and cache entry); the budget is the
# former plus a quarter, so losing half of that gain fails the gate.
past_rss_budget_kb_per_node=25.6
echo "== PAST memory gate (zipf_read, ${past_rss_budget_kb_per_node} KiB per node)"
past_rss=$(cargo run --release --offline -q --manifest-path pastbench/Cargo.toml -- \
  --workload zipf_read --seed 7 --seconds 2 --trace 0 | tail -1 |
  grep -o '"rss_kb_per_node": {"value": [0-9.]*' | grep -o '[0-9.]*$')
if awk -v r="$past_rss" -v b="$past_rss_budget_kb_per_node" 'BEGIN { exit !(r == "" || r > b) }'; then
  echo "PAST memory gate: zipf_read rss_kb_per_node '${past_rss}' exceeds ${past_rss_budget_kb_per_node} KiB"
  exit 1
fi
echo "PAST memory gate: zipf_read rss_kb_per_node ${past_rss} KiB"

echo "== bench smoke (binaries run and emit valid BENCH_*.json)"
./target/release/bench_micro --smoke --out target/BENCH_micro.smoke.json
./target/release/bench_macro --smoke --out target/BENCH_macro.smoke.json \
  --series target/BENCH_series.jsonl
./target/release/bench_loss --smoke --out target/BENCH_loss.smoke.json
grep -q '"schema": "past-bench/v1"' target/BENCH_micro.smoke.json
# The fixed-base rows are what the sign/keygen/verify numbers are read against:
# a rename must not drop them silently.
grep -q '"name": "crypto/schnorr/keygen"' target/BENCH_micro.smoke.json
grep -q '"name": "crypto/schnorr/sign"' target/BENCH_micro.smoke.json
grep -q '"name": "crypto/schnorr/verify"' target/BENCH_micro.smoke.json
grep -q '"name": "crypto/schnorr/verify_anchor"' target/BENCH_micro.smoke.json
grep -q '"name": "crypto/modmath/pow_g"' target/BENCH_micro.smoke.json
# Likewise the rows the memory work is read against.
grep -q '"name": "pastry/table/consider_remove"' target/BENCH_micro.smoke.json
grep -q '"name": "netsim/wheel/burst_drain_1m"' target/BENCH_micro.smoke.json
grep -q '"schema": "past-bench/v1"' target/BENCH_macro.smoke.json
for row in node_inline node_heap arena wheel per_node_columns gauged rss; do
  grep -q "\"bytes_per_node\": {[^}]*\"$row\":" target/BENCH_macro.smoke.json
done
grep -q '"peak_rss_kb":' target/BENCH_macro.smoke.json
grep -q '"schema": "past-bench/v1"' target/BENCH_loss.smoke.json
# obsreport exits non-zero on a series it cannot parse; without
# --require-slo it only reports the SLOs.
cargo run --offline -q -p past-trace --bin obsreport -- target/BENCH_series.jsonl

# A bad command line is the caller's error: the bench binaries print
# their usage and exit 2 rather than panic (exit 101).
echo "== bench flags (an unknown flag prints the usage and exits 2)"
status=0
./target/release/bench_micro --bogus 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
  echo "bench_micro --bogus exited with $status, not 2"
  exit 1
fi

# Scale gate: a 100k-node overlay must build, route, and survive churn
# inside the wall-clock budget (the budget only catches
# order-of-magnitude regressions in the event loop). The JSON is
# archived in target/.
#
# Beside the wall clock, a memory budget: the run's peak resident set
# read 422 152 and 422 088 kB when the budget was set (539 684 and
# 539 620 the commit before, whose stabilize burst parked every
# heartbeat in an arena slot); the budget is that plus a quarter, so
# growing the footprint by a quarter fails the gate.
rss_budget_kb=528000
echo "== bench macro 100k scale gate (budget ${BENCH_MACRO_BUDGET_S:-120}s, ${rss_budget_kb} kB)"
timeout "${BENCH_MACRO_BUDGET_S:-120}" \
  ./target/release/bench_macro --nodes 100000 --smoke --out target/BENCH_macro.100k.json
grep -q '"schema": "past-bench/v1"' target/BENCH_macro.100k.json
peak_rss_kb=$(grep -o '"peak_rss_kb": [0-9]*' target/BENCH_macro.100k.json | grep -o '[0-9]*$')
if [ "$peak_rss_kb" -gt "$rss_budget_kb" ]; then
  echo "100k scale gate: peak RSS ${peak_rss_kb} kB exceeds the ${rss_budget_kb} kB budget"
  exit 1
fi
echo "100k scale gate: peak RSS ${peak_rss_kb} kB"

echo "tier-1: all green"
