//! Trace analysis: JSONL parsing, per-operation timelines, liveness
//! and fan-out checks, and the hop-count bound.
//!
//! This is the library half of the `tracecheck` binary, kept here so
//! the checks are unit-testable and usable in-process. The input is
//! the JSONL produced by [`Tracer::to_jsonl`](crate::Tracer) and
//! [`TimeSeries::to_jsonl`](crate::TimeSeries::to_jsonl): one object per
//! line, each read through [`json::parse`] and then held to `u64`,
//! string and boolean fields.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, Value};

/// Longest route [`Report::hop_hist`] keeps a slot for, whatever `hops`
/// a line claims; every bound for `b ≥ 1` is at most 64.
const HOP_HIST_MAX: u64 = 255;

/// One parsed trace record: the common header plus remaining fields.
#[derive(Clone, Debug)]
pub struct Rec {
    /// Simulated time in microseconds.
    pub t: u64,
    /// Operation id (0 = none).
    pub op: u64,
    /// Event name (`send`, `hop`, `op_start`, ...).
    pub ev: String,
    /// Event-specific fields.
    pub fields: BTreeMap<String, Value>,
}

impl Rec {
    /// Integer field accessor.
    pub fn u(&self, k: &str) -> Option<u64> {
        self.fields.get(k).and_then(Value::as_u64)
    }

    /// String field accessor.
    pub fn s(&self, k: &str) -> Option<&str> {
        self.fields.get(k).and_then(Value::as_str)
    }
}

/// Parses one trace or series line: a JSON object with `u64`s `t` and
/// `op`, a string `ev`, and `u64`, string or boolean other fields.
pub fn parse_line(line: &str) -> Result<Rec, String> {
    let Value::Obj(mut fields) = json::parse(line)? else {
        return Err("not a JSON object".into());
    };
    let mut header = |k: &str| fields.remove(k).ok_or_else(|| format!("missing \"{k}\""));
    let (t, op, ev) = (header("t")?, header("op")?, header("ev")?);
    let (Some(t), Some(op), Value::Str(ev)) = (t.as_u64(), op.as_u64(), ev) else {
        return Err("\"t\" and \"op\" must be u64s and \"ev\" a string".into());
    };
    let flat = |v: &Value| matches!(v, Value::Str(_) | Value::Bool(_)) || v.as_u64().is_some();
    if let Some(k) = fields.iter().find_map(|(k, v)| (!flat(v)).then_some(k)) {
        return Err(format!("field \"{k}\" is not a u64, string or boolean"));
    }
    Ok(Rec { t, op, ev, fields })
}

/// Parses a whole JSONL document (blank lines ignored).
pub fn parse_jsonl(text: &str) -> Result<Vec<Rec>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// The reconstructed lifecycle of one client operation.
#[derive(Clone, Debug)]
pub struct OpInfo {
    /// Operation id.
    pub op: u64,
    /// Operation kind (`insert`/`lookup`/`reclaim`).
    pub kind: String,
    /// Issuing client node.
    pub node: u64,
    /// Target key (032x hex).
    pub key: String,
    /// Requested replication factor (0 where not applicable).
    pub k: u64,
    /// Simulated time the operation was issued.
    pub start_t: u64,
    /// Simulated time it terminated, if it did.
    pub end_t: Option<u64>,
    /// Terminal outcome, if it terminated.
    pub ok: Option<bool>,
    /// Replicas confirmed at termination (inserts).
    pub fanout: Option<u64>,
    /// Retransmissions observed.
    pub retries: u64,
    /// `ReplicaStored` events attributed to this operation.
    pub replicas: u64,
}

impl OpInfo {
    /// True if the operation was issued but never explicitly
    /// terminated — a hung request.
    pub fn stuck(&self) -> bool {
        self.end_t.is_none()
    }
}

/// The analyzer's verdict over one trace.
#[derive(Clone, Debug)]
pub struct Report {
    /// Total records analyzed.
    pub records: usize,
    /// Per-operation lifecycles, by op id.
    pub ops: BTreeMap<u64, OpInfo>,
    /// Ops issued but never terminated.
    pub stuck: Vec<u64>,
    /// Successful inserts whose confirmed fan-out ≠ requested `k`.
    pub bad_fanout: Vec<u64>,
    /// Hop-count distribution over delivered routes (index = hops); a
    /// route of over 255 hops counts only in `deliveries` and `over_bound`.
    pub hop_hist: Vec<u64>,
    /// Delivered routes.
    pub deliveries: u64,
    /// Distinct node addresses seen anywhere in the trace.
    pub nodes_seen: usize,
    /// The paper's bound `⌈log₂ᵇ nodes_seen⌉` for the given `b`.
    pub hop_bound: u64,
    /// Deliveries that exceeded the bound.
    pub over_bound: u64,
}

impl Report {
    /// True if no op is stuck and every successful insert reached its
    /// full fan-out — the CI gate condition.
    pub fn clean(&self) -> bool {
        self.stuck.is_empty() && self.bad_fanout.is_empty()
    }
}

/// Smallest `h` with `(2^b)^h ≥ n` — the expected routing bound. A
/// radix too wide for `u128` saturates (one hop reaches every node);
/// `b = 0` reaches no one, so its bound for `n > 1` is `u64::MAX`.
pub fn hop_bound(n: usize, b: u32) -> u64 {
    let radix = 1u128.checked_shl(b).unwrap_or(u128::MAX);
    if radix == 1 {
        return if n > 1 { u64::MAX } else { 0 };
    }
    let mut h = 0u64;
    let mut reach = 1u128;
    while reach < n as u128 {
        reach = reach.saturating_mul(radix);
        h += 1;
    }
    h
}

/// Rebuilds per-op timelines and checks liveness, fan-out and the hop
/// bound. `b` is the overlay's digit width (bits per routing digit).
pub fn analyze(recs: &[Rec], b: u32) -> Report {
    let mut ops: BTreeMap<u64, OpInfo> = BTreeMap::new();
    let mut nodes: BTreeSet<u64> = BTreeSet::new();
    let mut hop_hist: Vec<u64> = Vec::new();
    let mut deliveries = 0u64;
    for r in recs {
        for f in ["node", "from", "to", "peer"] {
            if let Some(a) = r.u(f) {
                nodes.insert(a);
            }
        }
        match r.ev.as_str() {
            "op_start" => {
                ops.entry(r.op).or_insert_with(|| OpInfo {
                    op: r.op,
                    kind: r.s("kind").unwrap_or("?").to_string(),
                    node: r.u("node").unwrap_or(0),
                    key: r.s("key").unwrap_or("").to_string(),
                    k: r.u("k").unwrap_or(0),
                    start_t: r.t,
                    end_t: None,
                    ok: None,
                    fanout: None,
                    retries: 0,
                    replicas: 0,
                });
            }
            "op_retry" => {
                if let Some(info) = ops.get_mut(&r.op) {
                    info.retries += 1;
                }
            }
            "op_end" => {
                if let Some(info) = ops.get_mut(&r.op) {
                    info.end_t = Some(r.t);
                    info.ok = r.fields.get("ok").map(|v| v == &Value::Bool(true));
                    info.fanout = r.u("fanout");
                }
            }
            "replica" => {
                if let Some(info) = ops.get_mut(&r.op) {
                    info.replicas += 1;
                }
            }
            "deliver" => {
                deliveries += 1;
                let h = r.u("hops").unwrap_or(0);
                if h <= HOP_HIST_MAX {
                    let len = hop_hist.len().max(h as usize + 1);
                    hop_hist.resize(len, 0);
                    hop_hist[h as usize] += 1;
                }
            }
            _ => {}
        }
    }
    let stuck: Vec<u64> = ops.values().filter(|o| o.stuck()).map(|o| o.op).collect();
    let bad_fanout: Vec<u64> = ops
        .values()
        .filter(|o| o.kind == "insert" && o.ok == Some(true) && o.fanout != Some(o.k))
        .map(|o| o.op)
        .collect();
    let bound = hop_bound(nodes.len(), b);
    let over_bound = recs
        .iter()
        .filter(|r| r.ev == "deliver" && r.u("hops").unwrap_or(0) > bound)
        .count() as u64;
    Report {
        records: recs.len(),
        ops,
        stuck,
        bad_fanout,
        hop_hist,
        deliveries,
        nodes_seen: nodes.len(),
        hop_bound: bound,
        over_bound,
    }
}

/// Formats the full event timeline of one operation, one line per
/// record, in trace order — "follow one insert through the overlay".
pub fn timeline(recs: &[Rec], op: u64) -> Vec<String> {
    recs.iter()
        .filter(|r| r.op == op)
        .map(|r| {
            let mut line = format!("{:>12} µs  {:<10}", r.t, r.ev);
            for (k, v) in &r.fields {
                match v {
                    Value::Num(s) | Value::Str(s) => line.push_str(&format!(" {k}={s}")),
                    Value::Bool(x) => line.push_str(&format!(" {k}={x}")),
                    v => line.push_str(&format!(" {k}={v:?}")),
                }
            }
            line
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OpId, TraceConfig, Tracer};

    const KINDS: &[&str] = &["route", "app_direct"];

    fn sample_trace() -> Tracer {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::full());
        // Op 1: an insert that completes with full fan-out after a retry.
        t.op_start(100, OpId(1), 0, "insert", 0xabc, 3);
        t.msg_send(100, OpId(1), 0, 0, 0, 80);
        t.route_hop(110, OpId(1), 4, 0xabc, 0, 1);
        t.route_deliver(120, OpId(1), 7, 0xabc, 2, 20);
        t.op_retry(900, OpId(1), 0, "insert", 1);
        t.replica_stored(950, OpId(1), 7, 0xabc, false);
        t.replica_stored(960, OpId(1), 8, 0xabc, true);
        t.replica_stored(970, OpId(1), 9, 0xabc, false);
        t.op_end(1_000, OpId(1), 0, "insert", true, 3);
        // Op 2: a lookup that never terminates (stuck).
        t.op_start(200, OpId(2), 1, "lookup", 0xdef, 0);
        // Op 3: a "successful" insert with short fan-out.
        t.op_start(300, OpId(3), 2, "insert", 0x123, 5);
        t.op_end(400, OpId(3), 2, "insert", true, 4);
        t
    }

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let t = sample_trace();
        let recs = parse_jsonl(&t.to_jsonl()).expect("tracer output must parse");
        assert_eq!(recs.len(), t.records().len());
        assert_eq!(recs[0].ev, "op_start");
        assert_eq!(recs[0].s("kind"), Some("insert"));
        assert_eq!(recs[0].u("k"), Some(3));
        assert_eq!(recs[0].s("key"), Some("00000000000000000000000000000abc"));
        assert_eq!(recs[1].s("kind"), Some("route"));
        assert_eq!(recs[1].u("bytes"), Some(80));
    }

    #[test]
    fn analyzer_finds_stuck_ops_and_bad_fanout() {
        let t = sample_trace();
        let recs = parse_jsonl(&t.to_jsonl()).expect("parse");
        let rep = analyze(&recs, 4);
        assert_eq!(rep.ops.len(), 3);
        assert_eq!(rep.stuck, vec![2]);
        assert_eq!(rep.bad_fanout, vec![3]);
        assert!(!rep.clean());
        let op1 = &rep.ops[&1];
        assert_eq!(op1.retries, 1);
        assert_eq!(op1.replicas, 3);
        assert_eq!(op1.fanout, Some(3));
        assert_eq!(op1.end_t, Some(1_000));
        assert_eq!(rep.deliveries, 1);
        assert_eq!(rep.hop_hist, vec![0, 0, 1]);
    }

    #[test]
    fn clean_trace_passes() {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::lifecycle());
        t.op_start(1, OpId(9), 0, "insert", 0x9, 2);
        t.op_end(2, OpId(9), 0, "insert", true, 2);
        let recs = parse_jsonl(&t.to_jsonl()).expect("parse");
        let rep = analyze(&recs, 4);
        assert!(rep.clean());
        assert!(rep.stuck.is_empty() && rep.bad_fanout.is_empty());
    }

    #[test]
    fn failed_ops_are_terminated_not_stuck_and_fanout_is_not_checked() {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::lifecycle());
        t.op_start(1, OpId(4), 0, "insert", 0x4, 5);
        t.op_end(2, OpId(4), 0, "insert", false, 1);
        let recs = parse_jsonl(&t.to_jsonl()).expect("parse");
        let rep = analyze(&recs, 4);
        assert!(rep.clean(), "explicit failure is a termination");
    }

    #[test]
    fn hop_bound_matches_ceil_log() {
        assert_eq!(hop_bound(1, 4), 0);
        assert_eq!(hop_bound(16, 4), 1);
        assert_eq!(hop_bound(17, 4), 2);
        assert_eq!(hop_bound(256, 4), 2);
        assert_eq!(hop_bound(512, 4), 3);
        assert_eq!(hop_bound(512, 1), 9);
        // Radices too wide for `u128` saturate instead of overflowing.
        assert_eq!(hop_bound(512, 127), 1);
        assert_eq!(hop_bound(512, 128), 1);
        assert_eq!(hop_bound(512, u32::MAX), 1);
        assert_eq!(hop_bound(1, 128), 0);
        assert_eq!(hop_bound(2, 0), u64::MAX);
    }

    #[test]
    fn timeline_is_ordered_and_op_scoped() {
        let t = sample_trace();
        let recs = parse_jsonl(&t.to_jsonl()).expect("parse");
        let lines = timeline(&recs, 1);
        assert_eq!(lines.len(), 9);
        assert!(lines[0].contains("op_start"));
        assert!(lines[8].contains("op_end"));
        assert!(lines.iter().all(|l| !l.contains("lookup")));
    }

    #[test]
    fn header_integers_read_back_exactly() {
        let mut t = Tracer::for_kinds(KINDS);
        t.configure(TraceConfig::lifecycle());
        t.op_start(u64::MAX, OpId(u64::MAX), 0, "insert", 0x1, 3);
        let recs = parse_jsonl(&t.to_jsonl()).expect("parse");
        assert_eq!((recs[0].t, recs[0].op), (u64::MAX, u64::MAX));
        let series = |fp: &str| {
            format!(
                "{{\"t\":0,\"op\":0,\"ev\":\"series\",\"window_us\":1,\"windows\":0,\"fp\":{fp}}}"
            )
        };
        let max = parse_line(&series("18446744073709551615")).expect("parse");
        assert_eq!(max.u("fp"), Some(u64::MAX));
        assert!(parse_line(&series("18446744073709551616")).is_err());
        assert!(parse_line("{\"t\":18446744073709551616,\"op\":0,\"ev\":\"x\"}").is_err());
    }

    #[test]
    fn escaped_fields_decode() {
        let kind = "in\"sert\\ \u{1}é";
        let line = format!(
            "{{\"t\":1, \"op\":2, \"ev\":\"op_start\", \"kind\":{}}}",
            crate::json::quote(kind)
        );
        let rec = parse_line(&line).expect("escaped strings parse");
        assert_eq!(rec.s("kind"), Some(kind));
        let rec = parse_line("{\"t\":1,\"op\":2,\"ev\":\"op_\\u0073tart\"}").unwrap();
        assert_eq!(rec.ev, "op_start");
    }

    /// A delivery's `hops` sizes nothing: a claimed 4·10^18 hops is one
    /// delivery over the bound, not a 32 EB histogram.
    #[test]
    fn a_huge_hop_count_is_over_the_bound() {
        let line = "{\"t\":5,\"op\":1,\"ev\":\"deliver\",\"node\":1,\"key\":\"00\",\"hops\":4000000000000000000}";
        let rep = analyze(&parse_jsonl(line).expect("parse"), 4);
        assert_eq!((rep.deliveries, rep.over_bound), (1, 1));
        assert!(rep.hop_hist.is_empty());
        let near = line.replace("4000000000000000000", "256");
        let rep = analyze(&parse_jsonl(&near).expect("parse"), 1);
        assert_eq!((rep.deliveries, rep.over_bound), (1, 1));
        let at_cap = line.replace("4000000000000000000", "255");
        let rep = analyze(&parse_jsonl(&at_cap).expect("parse"), 1);
        assert_eq!((rep.hop_hist.len(), rep.hop_hist[255]), (256, 1));
    }

    #[test]
    fn parser_holds_fields_to_u64_string_or_bool() {
        let ok = "{\"t\":1,\"op\":2,\"ev\":\"x\",\"n\":3,\"s\":\"y\",\"b\":true}";
        assert!(parse_line(ok).is_ok());
        for field in ["null", "[1]", "{}", "1.5", "-1", "1e3"] {
            let bad = ok.replace("true", field);
            assert!(parse_line(&bad).is_err(), "{bad:?} should be rejected");
        }
        for bad in [
            "[]",
            "7",
            "{\"t\":\"1\",\"op\":2,\"ev\":\"x\"}",
            "{\"t\":1,\"op\":2,\"ev\":1}",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{\"t\":1}",
            "{\"t\":1,\"op\":2}",
            "{\"t\":1,\"op\":2,\"ev\":\"x\"} trailing",
            "{\"t\":-1,\"op\":2,\"ev\":\"x\"}",
        ] {
            assert!(parse_line(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
