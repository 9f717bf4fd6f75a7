//! `tracecheck` — analyze a JSONL trace produced by `past_trace::Tracer`.
//!
//! Usage:
//!
//! ```text
//! tracecheck [--b BITS] [--op ID] [--require-clean] TRACE.jsonl
//! ```
//!
//! `BITS` is the overlay's digit width: 1, 2, 4 (the default) or 8.
//!
//! Rebuilds per-operation timelines and reports:
//! - stuck operations (issued but never explicitly terminated),
//! - successful inserts whose replica fan-out ≠ the requested `k`,
//! - the hop-count distribution vs. the `⌈log₂ᵇN⌉` bound.
//!
//! With `--require-clean` (the CI gate mode) the process exits
//! non-zero if any op is stuck or any insert under-replicated. With
//! `--op ID` the full timeline of one operation is printed — "follow
//! one insert through the overlay".

use past_trace::analyze::{analyze, parse_jsonl, timeline};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!("usage: tracecheck [--b BITS] [--op ID] [--require-clean] TRACE.jsonl");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut b = 4u32;
    let mut show_op: Option<u64> = None;
    let mut require_clean = false;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--b" => match args.next().and_then(|v| v.parse().ok()) {
                // The digit widths `past_pastry::Config::validate` accepts.
                Some(v @ (1 | 2 | 4 | 8)) => b = v,
                _ => return usage(),
            },
            "--op" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => show_op = Some(v),
                None => return usage(),
            },
            "--require-clean" => require_clean = true,
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = path else {
        return usage();
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tracecheck: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recs = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("tracecheck: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rep = analyze(&recs, b);

    println!("trace: {path}");
    println!(
        "  records={} nodes_seen={} ops={}",
        rep.records,
        rep.nodes_seen,
        rep.ops.len()
    );
    for kind in ["insert", "lookup", "reclaim"] {
        let of_kind: Vec<_> = rep.ops.values().filter(|o| o.kind == kind).collect();
        if of_kind.is_empty() {
            continue;
        }
        let ok = of_kind.iter().filter(|o| o.ok == Some(true)).count();
        let failed = of_kind.iter().filter(|o| o.ok == Some(false)).count();
        let stuck = of_kind.iter().filter(|o| o.stuck()).count();
        let retries: u64 = of_kind.iter().map(|o| o.retries).sum();
        println!(
            "  {kind}: issued={} ok={ok} failed={failed} stuck={stuck} retries={retries}",
            of_kind.len()
        );
    }
    println!(
        "  routes: delivered={} hop_hist={:?} bound=ceil(log2^{b}(N))={} over_bound={}",
        rep.deliveries, rep.hop_hist, rep.hop_bound, rep.over_bound
    );

    if let Some(op) = show_op {
        println!("timeline of op {op}:");
        let lines = timeline(&recs, op);
        if lines.is_empty() {
            println!("  (no records)");
        }
        for line in lines {
            println!("  {line}");
        }
    }

    for op in &rep.stuck {
        let o = &rep.ops[op];
        println!(
            "STUCK: op {op} ({} from node {} at t={}) never terminated",
            o.kind, o.node, o.start_t
        );
    }
    for op in &rep.bad_fanout {
        let o = &rep.ops[op];
        println!(
            "BAD FAN-OUT: op {op} (insert, key {}) confirmed {:?} replicas, wanted k={}",
            o.key, o.fanout, o.k
        );
    }

    if rep.clean() {
        println!(
            "tracecheck: clean ({} ops, no stuck, fan-out ok)",
            rep.ops.len()
        );
        ExitCode::SUCCESS
    } else if require_clean {
        eprintln!(
            "tracecheck: FAILED ({} stuck, {} bad fan-out)",
            rep.stuck.len(),
            rep.bad_fanout.len()
        );
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
