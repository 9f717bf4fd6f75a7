//! The full-stack half of the replay suite (the overlay half is
//! `crates/pastry/tests/differential.rs`): the 48-node PAST lossy-churn
//! scenario — inserts, lookups and reclaims over 5 % loss with retries,
//! node failures, recoveries and fresh joins — must reproduce its
//! golden, replay bit for bit, leave every non-trace observable alone
//! when tracing is off, and pass I1–I5 and the liveness check at every
//! quiesce point on the way.

use past_invariants::scenarios::{diversion_traced, lossy_churn_traced, LossyChurnRun};
use past_netsim::TraceConfig;

/// PAST-layer goldens, recorded on the code as it stood before the
/// client-request lifecycle was unified (PR 22) and never re-derived by
/// it: digest, trace fingerprint and `fnv1a` of the canonical series of
/// `lossy_churn_traced(6, lifecycle)` (timers, retransmissions,
/// cleanup reclaims) and of `diversion_traced(6, lifecycle)` (retry
/// layer off; replica diversion, re-salts, refusals). A change that
/// moves one of them has changed the protocol's message flow, timer
/// tokens or event keys and must say so. `DIVERSION_GOLDEN`'s snapshot
/// digest and series hash were re-derived once, when `Store::insert`
/// began to drop a promoted file's cached copy before shrinking the cache;
/// its `NetStats`, IO, events and trace stayed equal.
const LOSSY_GOLDEN: (&str, u64, u64) = (
    "snapshot=16956299855538941168 stats=NetStats { kinds: [\"route\", \"join_request\", \
     \"join_reply\", \"neighborhood_request\", \"neighborhood_reply\", \"announce\", \
     \"leaf_request\", \"leaf_reply\", \"row_request\", \"row_reply\", \"repair_request\", \
     \"repair_reply\", \"heartbeat\", \"heartbeat_ack\", \"app_direct\"], by_kind: [54, 87, 42, \
     42, 42, 7868, 7247, 6884, 0, 0, 32, 29, 7135, 6744, 517], total_msgs: 36723, \
     total_bytes: 907190280, dropped: 1833, duplicated: 309, failed_sends: 257 } \
     io=5353845938248435942 events=20/2049385042446162974 engine_fp=7922000289904854560 \
     now_us=44890886",
    0xc959a918e3899ec9,
    0x1977d0226a3afb00,
);
const DIVERSION_GOLDEN: (&str, u64, u64) = (
    "snapshot=16250469869766288972 stats=NetStats { kinds: [\"route\", \"join_request\", \
     \"join_reply\", \"neighborhood_request\", \"neighborhood_reply\", \"announce\", \
     \"leaf_request\", \"leaf_reply\", \"row_request\", \"row_reply\", \"repair_request\", \
     \"repair_reply\", \"heartbeat\", \"heartbeat_ack\", \"app_direct\"], by_kind: [632, 56, 29, \
     29, 29, 385, 0, 0, 0, 0, 0, 0, 0, 0, 3609], total_msgs: 4769, total_bytes: 7167951254, \
     dropped: 0, duplicated: 0, failed_sends: 0 } io=14429037229316758858 \
     events=235/16090979138143295843 engine_fp=10925822241380772892 now_us=102841609",
    0xcc78ed0a70f6bd4f,
    0xd0e704e6f6d0e1b0,
);

fn golden(run: &LossyChurnRun) -> (&str, u64, u64) {
    let series = run.tracer.series().expect("traced runs carry a series");
    (
        &run.digest,
        run.tracer.fingerprint(),
        past_trace::fnv1a(series.canonical_lines().as_bytes()),
    )
}

/// One comparable line per run: the scenario's digest (snapshots,
/// `NetStats`, per-node IO, drained events in order, engine fingerprint,
/// clock) plus the trace and series.
fn observe(run: &LossyChurnRun) -> (String, u64, String) {
    let series = run.tracer.series().expect("traced runs carry a series");
    (
        run.digest.clone(),
        run.tracer.fingerprint(),
        series.canonical_lines(),
    )
}

#[test]
fn past_lossy_churn_run_matches_its_golden_and_replays() {
    let run = lossy_churn_traced(6, TraceConfig::lifecycle());
    assert!(
        run.findings.is_empty(),
        "I1-I6 / liveness violated: {:?}",
        run.findings
    );
    assert!(!run.tracer.records().is_empty(), "lifecycle trace is empty");
    assert_eq!(golden(&run), LOSSY_GOLDEN);
    let expect = observe(&run);
    // Same seed, same run.
    let replay = lossy_churn_traced(6, TraceConfig::lifecycle());
    assert_eq!(expect, observe(&replay), "replay diverged");
    // Observation is pure: with tracing and the series off, every
    // non-trace observable stays identical.
    let untraced = lossy_churn_traced(6, TraceConfig::off());
    assert_eq!(expect.0, untraced.digest, "tracing perturbed the run");
}

#[test]
fn diversion_run_matches_its_golden() {
    let run = diversion_traced(6, TraceConfig::lifecycle());
    assert!(
        run.findings.is_empty(),
        "I1-I6 / coverage violated: {:?}",
        run.findings
    );
    assert_eq!(golden(&run), DIVERSION_GOLDEN);
}
