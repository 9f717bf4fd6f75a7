//! Unit tests of the crate root: tracer gating, serialization.

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
    h.record(15);
    assert!(!h.saturated(), "an empty last bucket is not saturated");
    for _ in 0..10 {
        h.record(500); // all land in the saturating bucket at 20+
    }
    assert!(h.saturated());
    assert_eq!(h.percentile(50), Some(20));
    assert_eq!(h.percentile(99), Some(20));
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

/// The bytes of every record kind, pinned: one record of each of the
/// fourteen kinds under `full()`, emitted out of order (same-`t`
/// lifecycles included) and sorted canonically. An unknown kind id
/// prints as `?`.
#[test]
fn every_record_kind_serializes_to_its_pinned_line() {
    let mut t = Tracer::for_kinds(KINDS);
    t.configure(TraceConfig::full());
    t.op_end(90, OpId(3), 4, "insert", false, 2);
    t.replica_stored(90, OpId(3), 5, 0xfeed, true);
    t.op_start(90, OpId(3), 4, "insert", 0xfeed, 3);
    t.op_retry(80, OpId(3), 4, "insert", 2);
    t.msg_send(10, OpId(3), 4, 5, 0, 64);
    t.msg_recv(20, OpId(3), 4, 5, 1);
    t.msg_drop(20, OpId::NONE, 5, 6, 0);
    t.msg_dup(30, OpId(3), 6, 7, 1);
    t.msg_fail(30, OpId::NONE, 7, 8, 9);
    t.route_hop(40, OpId(3), 5, u128::MAX, 1, 7);
    t.route_deliver(50, OpId(3), 6, 0xfeed, 2, 12_345);
    t.route_drop(60, OpId(3), 7, 1);
    t.join_phase(70, 8, "retry");
    t.suspect(70, 8, 9, 3);
    t.sort_canonical();
    assert_eq!(
        t.to_jsonl(),
        concat!(
            "{\"t\":10,\"op\":3,\"ev\":\"send\",\"from\":4,\"to\":5,\"kind\":\"ping\",\"bytes\":64}\n",
            "{\"t\":20,\"op\":0,\"ev\":\"drop\",\"from\":5,\"to\":6,\"kind\":\"ping\"}\n",
            "{\"t\":20,\"op\":3,\"ev\":\"recv\",\"from\":4,\"to\":5,\"kind\":\"pong\"}\n",
            "{\"t\":30,\"op\":0,\"ev\":\"fail\",\"from\":7,\"to\":8,\"kind\":\"?\"}\n",
            "{\"t\":30,\"op\":3,\"ev\":\"dup\",\"from\":6,\"to\":7,\"kind\":\"pong\"}\n",
            "{\"t\":40,\"op\":3,\"ev\":\"hop\",\"node\":5,\"key\":\"ffffffffffffffffffffffffffffffff\",\"hop\":1,\"depth\":7}\n",
            "{\"t\":50,\"op\":3,\"ev\":\"deliver\",\"node\":6,\"key\":\"0000000000000000000000000000feed\",\"hops\":2,\"lat_us\":12345}\n",
            "{\"t\":60,\"op\":3,\"ev\":\"route_drop\",\"node\":7,\"key\":\"00000000000000000000000000000001\"}\n",
            "{\"t\":70,\"op\":0,\"ev\":\"join\",\"node\":8,\"phase\":\"retry\"}\n",
            "{\"t\":70,\"op\":0,\"ev\":\"suspect\",\"node\":8,\"peer\":9,\"missed\":3}\n",
            "{\"t\":80,\"op\":3,\"ev\":\"op_retry\",\"node\":4,\"kind\":\"insert\",\"attempt\":2}\n",
            "{\"t\":90,\"op\":3,\"ev\":\"op_start\",\"node\":4,\"kind\":\"insert\",\"key\":\"0000000000000000000000000000feed\",\"k\":3}\n",
            "{\"t\":90,\"op\":3,\"ev\":\"replica\",\"node\":5,\"key\":\"0000000000000000000000000000feed\",\"diverted\":true}\n",
            "{\"t\":90,\"op\":3,\"ev\":\"op_end\",\"node\":4,\"kind\":\"insert\",\"ok\":false,\"fanout\":2}\n",
        )
    );
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
/// enabled and collects windowed counters from the hooks.
#[test]
fn series_flows_through_hooks() {
    let mut t = Tracer::for_kinds(KINDS);
    t.set_series(SeriesConfig::new(1_000));
    assert!(t.enabled(), "series-only tracer must count as enabled");
    assert!(!t.config().any());
    t.msg_send(10, OpId(1), 0, 1, 0, 64);
    t.route_deliver(30, OpId(1), 2, 42, 1, 12_345);
    t.msg_send(1_500, OpId(2), 2, 3, 1, 32);
    t.msg_drop(1_600, OpId(2), 2, 3, 1);
    assert!(t.records().is_empty(), "no classes on, no records");
    let s = t.series().expect("series attached");
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
