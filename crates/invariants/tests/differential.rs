//! The full-stack half of the one differential suite (the overlay half
//! is `crates/pastry/tests/differential.rs`): the 48-node PAST
//! lossy-churn scenario — inserts, lookups and reclaims over 5 % loss
//! with retries, node failures, recoveries and fresh joins — executed
//! inline and at 2 and 4 shards must agree bit for bit on everything
//! observable, and must pass I1–I5 and the liveness check at every
//! quiesce point on the way.

use past_invariants::scenarios::{lossy_churn_traced, LossyChurnRun};
use past_netsim::TraceConfig;

/// One comparable line per run: the scenario's digest (snapshots,
/// `NetStats`, per-node IO, drained events in order, engine fingerprint,
/// clock) plus the merged trace and series.
fn observe(run: &LossyChurnRun) -> (String, u64, String) {
    let series = run.tracer.series().expect("traced runs carry a series");
    (
        run.digest.clone(),
        run.tracer.fingerprint(),
        series.canonical_lines(),
    )
}

#[test]
fn inline_two_shard_and_four_shard_past_runs_are_bit_identical() {
    let inline = lossy_churn_traced(6, 1, TraceConfig::lifecycle());
    assert!(
        inline.violations.is_empty(),
        "I1-I5 / liveness violated: {:?}",
        inline.violations
    );
    assert!(
        !inline.tracer.records().is_empty(),
        "lifecycle trace is empty"
    );
    let expect = observe(&inline);
    for shards in [2, 4] {
        let run = lossy_churn_traced(6, shards, TraceConfig::lifecycle());
        assert_eq!(expect, observe(&run), "{shards} shards diverged");
        assert!(run.violations.is_empty());
    }
    // Same seed, same run.
    let replay = lossy_churn_traced(6, 1, TraceConfig::lifecycle());
    assert_eq!(expect, observe(&replay), "replay diverged");
    // Observation is pure: with tracing and the series off, every
    // non-trace observable stays identical, inline and on threads.
    for shards in [1, 4] {
        let untraced = lossy_churn_traced(6, shards, TraceConfig::off());
        assert_eq!(
            expect.0, untraced.digest,
            "tracing perturbed the {shards}-shard run"
        );
    }
}
