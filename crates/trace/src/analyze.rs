//! Trace analysis: JSONL parsing, per-operation timelines, liveness
//! and fan-out checks, and the hop-count bound.
//!
//! This is the library half of the `tracecheck` binary, kept here so
//! the checks are unit-testable and usable in-process. The input is
//! the flat JSONL produced by [`Tracer::to_jsonl`](crate::Tracer):
//! one object per line, string/integer/boolean fields only.

use std::collections::{BTreeMap, BTreeSet};

/// One parsed field value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Val {
    /// A non-negative integer.
    U(u64),
    /// A string (keys are 032x-hex strings).
    S(String),
    /// A boolean.
    B(bool),
}

impl Val {
    /// The integer value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Val::U(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::S(s) => Some(s),
            _ => None,
        }
    }
}

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
    pub fields: BTreeMap<String, Val>,
}

impl Rec {
    /// Integer field accessor.
    pub fn u(&self, k: &str) -> Option<u64> {
        self.fields.get(k).and_then(Val::as_u64)
    }

    /// String field accessor.
    pub fn s(&self, k: &str) -> Option<&str> {
        self.fields.get(k).and_then(Val::as_str)
    }
}

/// Parses one flat JSON object line (as written by the tracer).
pub fn parse_line(line: &str) -> Result<Rec, String> {
    let b = line.as_bytes();
    let mut pos = 0usize;
    let fail = |what: &str, pos: usize| format!("{what} at byte {pos}");
    let expect = |b: &[u8], pos: &mut usize, c: u8| -> Result<(), String> {
        if b.get(*pos) == Some(&c) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, pos))
        }
    };
    let string = |b: &[u8], pos: &mut usize| -> Result<String, String> {
        expect(b, pos, b'"')?;
        let start = *pos;
        while *pos < b.len() && b[*pos] != b'"' {
            if b[*pos] == b'\\' {
                return Err(fail("escapes unsupported in trace lines", *pos));
            }
            *pos += 1;
        }
        if *pos >= b.len() {
            return Err("unterminated string".into());
        }
        let s = String::from_utf8_lossy(&b[start..*pos]).into_owned();
        *pos += 1;
        Ok(s)
    };
    let mut fields = BTreeMap::new();
    expect(b, &mut pos, b'{')?;
    loop {
        let key = string(b, &mut pos)?;
        expect(b, &mut pos, b':')?;
        let val = match b.get(pos) {
            Some(b'"') => Val::S(string(b, &mut pos)?),
            Some(b't') if b[pos..].starts_with(b"true") => {
                pos += 4;
                Val::B(true)
            }
            Some(b'f') if b[pos..].starts_with(b"false") => {
                pos += 5;
                Val::B(false)
            }
            Some(c) if c.is_ascii_digit() => {
                let start = pos;
                while b.get(pos).is_some_and(u8::is_ascii_digit) {
                    pos += 1;
                }
                let digits =
                    std::str::from_utf8(&b[start..pos]).map_err(|_| fail("bad number", start))?;
                Val::U(digits.parse().map_err(|_| fail("bad number", start))?)
            }
            _ => return Err(fail("expected a value", pos)),
        };
        fields.insert(key, val);
        match b.get(pos) {
            Some(b',') => pos += 1,
            Some(b'}') => {
                pos += 1;
                break;
            }
            _ => return Err(fail("expected ',' or '}'", pos)),
        }
    }
    if pos != b.len() {
        return Err(fail("trailing data", pos));
    }
    let t = fields
        .remove("t")
        .and_then(|v| v.as_u64())
        .ok_or("missing \"t\"")?;
    let op = fields
        .remove("op")
        .and_then(|v| v.as_u64())
        .ok_or("missing \"op\"")?;
    let ev = match fields.remove("ev") {
        Some(Val::S(s)) => s,
        _ => return Err("missing \"ev\"".into()),
    };
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
    /// Hop-count distribution over delivered routes (index = hops).
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
                    info.ok = r.fields.get("ok").map(|v| v == &Val::B(true));
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
                let h = r.u("hops").unwrap_or(0) as usize;
                if hop_hist.len() <= h {
                    hop_hist.resize(h + 1, 0);
                }
                hop_hist[h] += 1;
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
    let over_bound = hop_hist
        .iter()
        .enumerate()
        .filter(|&(h, _)| h as u64 > bound)
        .map(|(_, &c)| c)
        .sum();
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
                    Val::U(n) => line.push_str(&format!(" {k}={n}")),
                    Val::S(s) => line.push_str(&format!(" {k}={s}")),
                    Val::B(x) => line.push_str(&format!(" {k}={x}")),
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
