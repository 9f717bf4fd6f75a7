//! Unit tests of the crate root: tracer gating, serialization, merging.

use crate::*;

const KINDS: &[&str] = &["ping", "pong"];

// -- histogram -----------------------------------------------------

#[test]
fn histogram_bucket_boundaries() {
    let mut h = Histogram::new(10, 4);
    // 0..=9 → bucket 0, 10..=19 → bucket 1, 29/30 straddle bucket 2/3,
    // and everything ≥ 30 saturates into the last bucket.
    for v in [0, 9, 10, 19, 20, 29, 30, 31, 1_000] {
        h.record(v);
    }
    assert_eq!(h.buckets(), &[2, 2, 2, 3]);
    assert_eq!(h.count(), 9);
    assert!(h.saturated());
}

#[test]
fn percentile_on_empty_histogram_is_none() {
    let h = Histogram::new(1, 8);
    assert_eq!(h.percentile(50), None);
    assert_eq!(h.percentile(99), None);
    assert!(!h.saturated());
}

#[test]
fn percentile_on_single_element() {
    let mut h = Histogram::new(1, 8);
    h.record(5);
    for p in [1, 50, 95, 99, 100] {
        assert_eq!(h.percentile(p), Some(5));
    }
}

#[test]
fn percentiles_are_exact_at_width_one() {
    let mut h = Histogram::new(1, 101);
    for v in 1..=100u64 {
        h.record(v);
    }
    // Rank-based: p-th percentile of 1..=100 is exactly p.
    assert_eq!(h.percentile(50), Some(50));
    assert_eq!(h.percentile(95), Some(95));
    assert_eq!(h.percentile(99), Some(99));
    assert_eq!(h.percentile(100), Some(100));
}

#[test]
fn percentile_on_saturated_histogram_clips_to_last_bucket() {
    let mut h = Histogram::new(10, 3);
    for _ in 0..10 {
        h.record(500); // all land in the saturating bucket at 20+
    }
    assert!(h.saturated());
    assert_eq!(h.percentile(50), Some(20));
    assert_eq!(h.percentile(99), Some(20));
    assert!(h.to_json().contains("\"saturated\": true"));
}

#[test]
fn histogram_json_validates() {
    let mut h = Histogram::new(2, 4);
    h.record(0);
    h.record(3);
    h.record(5);
    let doc = h.to_json();
    json::validate(&doc).expect("histogram JSON must validate");
    assert!(doc.contains("\"saturated\": false"));
}

// -- tracer gating -------------------------------------------------

#[test]
fn disabled_tracer_records_nothing() {
    let mut t = Tracer::for_kinds(KINDS);
    t.msg_send(1, OpId(1), 0, 1, 0, 64);
    t.route_deliver(2, OpId(1), 1, 42, 3, 999);
    t.op_start(3, OpId(1), 0, "insert", 42, 5);
    assert!(t.records().is_empty());
    assert_eq!(t.metrics.hop_count.count(), 0);
    assert_eq!(t.to_jsonl(), "");
}

#[test]
fn class_filters_gate_independently() {
    let mut t = Tracer::for_kinds(KINDS);
    t.configure(TraceConfig::lifecycle());
    t.msg_recv(1, OpId::NONE, 0, 1, 0); // messages: off
    t.route_hop(2, OpId(7), 3, 42, 0, 1); // routes: on
    t.op_start(3, OpId(7), 0, "insert", 42, 5); // ops: on
    t.join_phase(4, 9, "start"); // overlay: off
    assert_eq!(t.records().len(), 2);
    assert_eq!(t.metrics.recv_by_kind().map(|(_, c)| c).sum::<u64>(), 0);
}

#[test]
fn op_events_with_no_op_id_are_skipped() {
    let mut t = Tracer::for_kinds(KINDS);
    t.configure(TraceConfig::full());
    t.op_start(1, OpId::NONE, 0, "reclaim", 42, 0);
    t.op_end(2, OpId::NONE, 0, "reclaim", true, 0);
    t.replica_stored(3, OpId::NONE, 1, 42, false);
    assert!(t.records().is_empty());
}

#[test]
fn metrics_only_counts_without_recording() {
    let mut t = Tracer::for_kinds(KINDS);
    t.configure(TraceConfig::metrics_only());
    t.msg_send(1, OpId::NONE, 0, 1, 0, 64);
    t.msg_send(2, OpId::NONE, 0, 1, 1, 32);
    t.msg_recv(3, OpId::NONE, 0, 1, 0);
    t.msg_drop(4, OpId::NONE, 0, 1, 1);
    t.msg_dup(5, OpId::NONE, 0, 1, 1);
    t.route_deliver(6, OpId::NONE, 1, 42, 3, 2_500);
    assert!(t.records().is_empty());
    let dropped: Vec<_> = t.metrics.dropped_by_kind().collect();
    assert_eq!(dropped, vec![("ping", 0), ("pong", 1)]);
    let dup: u64 = t.metrics.duplicated_by_kind().map(|(_, c)| c).sum();
    assert_eq!(dup, 1);
    assert_eq!(t.metrics.hop_count.percentile(50), Some(3));
    assert_eq!(t.metrics.route_latency_us.percentile(50), Some(2_000));
    let recv: Vec<_> = t.metrics.recv_by_kind().collect();
    assert_eq!(recv, vec![("ping", 1), ("pong", 0)]);
}

// -- serialization -------------------------------------------------

#[test]
fn jsonl_lines_are_valid_json_and_fingerprint_is_stable() {
    let build = || {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::full());
        t.msg_send(10, OpId(1), 0, 1, 0, 64);
        t.msg_recv(20, OpId(1), 0, 1, 0);
        t.route_hop(20, OpId(1), 1, 0xfeed_beef, 0, 2);
        t.route_deliver(30, OpId(1), 2, 0xfeed_beef, 1, 12_345);
        t.join_phase(40, 7, "complete");
        t.suspect(50, 7, 8, 3);
        t.op_start(60, OpId(1), 0, "insert", 0xfeed_beef, 5);
        t.op_retry(70, OpId(1), 0, "insert", 1);
        t.op_end(80, OpId(1), 0, "insert", true, 5);
        t.replica_stored(80, OpId(1), 2, 0xfeed_beef, true);
        t
    };
    let t = build();
    for line in t.to_jsonl().lines() {
        json::validate(line).expect("every trace line must be valid JSON");
    }
    assert_eq!(t.fingerprint(), build().fingerprint());
    assert_ne!(t.fingerprint(), fnv1a(b""));
}

#[test]
fn metrics_json_validates() {
    let mut t = Tracer::for_kinds(KINDS);
    t.configure(TraceConfig::full());
    t.msg_recv(1, OpId::NONE, 0, 1, 0);
    json::validate(&t.metrics.to_json()).expect("metrics JSON must validate");
}

// -- merging -------------------------------------------------------

#[test]
fn histogram_merge_sums_buckets_and_count() {
    let mut a = Histogram::new(10, 4);
    let mut b = Histogram::new(10, 4);
    for v in [0, 15, 500] {
        a.record(v);
    }
    for v in [5, 15] {
        b.record(v);
    }
    a.merge(&b).expect("same-shape merge must succeed");
    assert_eq!(a.buckets(), &[2, 2, 0, 1]);
    assert_eq!(a.count(), 5);
}

#[test]
fn histogram_merge_rejects_shape_mismatch() {
    let mut a = Histogram::new(10, 4);
    a.record(7);
    let err = a
        .merge(&Histogram::new(5, 4))
        .expect_err("width mismatch must be rejected");
    assert_eq!(err.expected, (10, 4));
    assert_eq!(err.got, (5, 4));
    assert!(err.to_string().contains("different shapes"));
    let err = a
        .merge(&Histogram::new(10, 8))
        .expect_err("bucket-count mismatch must be rejected");
    assert_eq!(err.got, (10, 8));
    // The receiver is untouched on error.
    assert_eq!(a.count(), 1);
    assert_eq!(a.buckets(), &[1, 0, 0, 0]);
}

#[test]
fn metrics_merge_combines_all_families() {
    let mut a = Tracer::for_kinds(KINDS);
    a.configure(TraceConfig::metrics_only());
    a.msg_recv(1, OpId::NONE, 0, 1, 0);
    a.route_deliver(2, OpId::NONE, 1, 42, 3, 2_500);
    let mut b = Tracer::for_kinds(KINDS);
    b.configure(TraceConfig::metrics_only());
    b.msg_recv(3, OpId::NONE, 2, 0, 0);
    b.msg_recv(3, OpId::NONE, 0, 2, 1);
    b.msg_drop(4, OpId::NONE, 2, 0, 1);
    a.metrics.merge(&b.metrics);
    let recv: Vec<_> = a.metrics.recv_by_kind().collect();
    assert_eq!(recv, vec![("ping", 2), ("pong", 1)]);
    let dropped: u64 = a.metrics.dropped_by_kind().map(|(_, c)| c).sum();
    assert_eq!(dropped, 1);
    assert_eq!(a.metrics.hop_count.count(), 1);
}

/// Splitting one record stream across two tracers, absorbing, and
/// canonically sorting must reproduce the single-tracer
/// serialization bit for bit — the property the engine's harness and
/// node-side sinks rely on.
#[test]
fn absorb_plus_canonical_sort_is_partition_independent() {
    let record = |t: &mut Tracer, which: usize| {
        if which == 0 {
            t.msg_send(10, OpId(1), 0, 1, 0, 64);
            t.route_hop(20, OpId(1), 1, 42, 0, 1);
            t.op_start(20, OpId(1), 0, "insert", 42, 3);
        } else {
            t.msg_send(10, OpId(2), 2, 3, 1, 32);
            t.msg_recv(20, OpId(2), 2, 3, 1);
            t.join_phase(30, 3, "start");
        }
    };
    let mut whole = Tracer::for_kinds(KINDS);
    whole.configure(TraceConfig::full());
    record(&mut whole, 0);
    record(&mut whole, 1);
    whole.sort_canonical();
    // Partitioned: each half in its own tracer, absorbed in the
    // opposite order.
    let mut half_a = Tracer::for_kinds(KINDS);
    half_a.configure(TraceConfig::full());
    record(&mut half_a, 1);
    let mut half_b = Tracer::for_kinds(KINDS);
    half_b.configure(TraceConfig::full());
    record(&mut half_b, 0);
    half_a.absorb(half_b);
    half_a.sort_canonical();
    assert_eq!(whole.to_jsonl(), half_a.to_jsonl());
    assert_eq!(whole.fingerprint(), half_a.fingerprint());
}

/// A same-microsecond lifecycle (op served from the local store)
/// must stay `op_start` → work → `op_end` after the canonical sort,
/// even though "op_end" < "op_start" lexicographically.
#[test]
fn canonical_sort_keeps_same_time_lifecycles_causal() {
    let mut t = Tracer::for_kinds(KINDS);
    t.configure(TraceConfig::full());
    t.op_end(50, OpId(1), 0, "lookup", true, 0);
    t.msg_send(50, OpId(1), 0, 1, 0, 64);
    t.op_start(50, OpId(1), 0, "lookup", 42, 1);
    t.sort_canonical();
    let jsonl = t.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().map(|l| l.trim()).collect();
    assert!(lines[0].contains("op_start"), "got {:?}", lines[0]);
    assert!(lines[1].contains("send"), "got {:?}", lines[1]);
    assert!(lines[2].contains("op_end"), "got {:?}", lines[2]);
}

/// A series-only tracer (all trace classes off) still reports
/// enabled, collects windowed counters from the hooks, and merges
/// across tracers in `absorb` — the engine's `take_tracer` path.
#[test]
fn series_flows_through_hooks_and_absorb() {
    let mk = || {
        let mut t = Tracer::for_kinds(KINDS);
        t.set_series(SeriesConfig::new(1_000));
        t
    };
    let mut a = mk();
    assert!(a.enabled(), "series-only tracer must count as enabled");
    assert!(!a.config().any());
    a.msg_send(10, OpId(1), 0, 1, 0, 64);
    a.route_deliver(30, OpId(1), 2, 42, 1, 12_345);
    let mut b = mk();
    b.msg_send(1_500, OpId(2), 2, 3, 1, 32);
    b.msg_drop(1_600, OpId(2), 2, 3, 1);
    a.absorb(b);
    assert!(a.records().is_empty(), "no classes on, no records");
    let s = a.series().expect("series survives absorb");
    let w: Vec<(u64, u64, u64, u64)> = s
        .windows()
        .map(|(t, w)| {
            (
                t,
                w.counter("sent"),
                w.counter("dropped"),
                w.counter("delivered"),
            )
        })
        .collect();
    assert_eq!(w, vec![(0, 1, 0, 1), (1_000, 1, 1, 0)]);
}

#[test]
fn clear_resets_records_and_metrics() {
    let mut t = Tracer::for_kinds(KINDS);
    t.configure(TraceConfig::full());
    t.msg_recv(1, OpId(1), 0, 1, 0);
    t.clear();
    assert!(t.records().is_empty());
    assert_eq!(t.metrics.recv_by_kind().map(|(_, c)| c).sum::<u64>(), 0);
    // Still bound to the kind table after a clear.
    t.msg_recv(2, OpId(1), 0, 1, 1);
    assert_eq!(t.metrics.recv_by_kind().map(|(_, c)| c).sum::<u64>(), 1);
}
