//! `obsreport` — health report over a flight-recorder series
//! (`past_trace::TimeSeries` JSONL).
//!
//! Usage:
//!
//! ```text
//! obsreport [--require-slo] [--slo-max-reject-bp N] [--slo-max-util-bp N]
//!           [--slo-p99-us N] SERIES.jsonl
//! ```
//!
//! Reads the windowed series emitted by `TimeSeries::to_jsonl` and
//! reports:
//! - stalled windows: zero events executed while the engine queue held
//!   pending work (always an SLO violation — a healthy engine cannot
//!   sample a window without executing its first event);
//! - the rejection-rate trajectory (`insert_failed` vs issued inserts),
//!   gated against `--slo-max-reject-bp` basis points (default 1000 =
//!   10%, PAST §2.3's <5% claim leaves headroom for lossy runs);
//! - the utilization trajectory (`store_used` / `store_capacity`),
//!   gated against `--slo-max-util-bp` (default 9800 = 98%);
//! - per-window route-latency percentiles, with the worst p99 gated
//!   only when `--slo-p99-us` is given.
//!
//! With `--require-slo` (the CI gate mode) the process exits non-zero
//! on any enforced violation; without it the report is informational.

use past_trace::analyze::{parse_jsonl, Rec};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: obsreport [--require-slo] [--slo-max-reject-bp N] \
         [--slo-max-util-bp N] [--slo-p99-us N] SERIES.jsonl"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut require_slo = false;
    let mut max_reject_bp = 1_000u64;
    let mut max_util_bp = 9_800u64;
    let mut max_p99_us: Option<u64> = None;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--require-slo" => require_slo = true,
            "--slo-max-reject-bp" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_reject_bp = v,
                None => return usage(),
            },
            "--slo-max-util-bp" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_util_bp = v,
                None => return usage(),
            },
            "--slo-p99-us" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => max_p99_us = Some(v),
                None => return usage(),
            },
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
            eprintln!("obsreport: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let recs = match parse_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("obsreport: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(header) = recs.iter().find(|r| r.ev == "series") else {
        eprintln!("obsreport: {path}: no series header line");
        return ExitCode::FAILURE;
    };
    let window_us = header.u("window_us").unwrap_or(0);
    let windows: Vec<&Rec> = recs.iter().filter(|r| r.ev == "window").collect();
    println!("series: {path}");
    println!(
        "  window_us={window_us} windows={} fp={}",
        windows.len(),
        header.u("fp").unwrap_or(0)
    );
    if windows.len() as u64 != header.u("windows").unwrap_or(0) {
        eprintln!(
            "obsreport: {path}: header claims {} windows, found {}",
            header.u("windows").unwrap_or(0),
            windows.len()
        );
        return ExitCode::FAILURE;
    }

    let mut violations: Vec<String> = Vec::new();

    // -- stalled windows: sampled but executed nothing with work queued.
    let stalled: Vec<u64> = windows
        .iter()
        .filter(|w| w.u("events").unwrap_or(0) == 0 && w.u("queue_depth").unwrap_or(0) > 0)
        .map(|w| w.t)
        .collect();
    println!("  stalled_windows={}", stalled.len());
    for t in &stalled {
        violations.push(format!(
            "stalled window at t={t}: zero events with pending work"
        ));
    }

    // -- rejection-rate trajectory.
    // Sums and basis points are u128: a u64 gauge times 10 000 overflows.
    let sum = |name: &str| -> u128 {
        windows
            .iter()
            .map(|w| u128::from(w.u(name).unwrap_or(0)))
            .sum()
    };
    let (ok, failed) = (sum("insert_ok"), sum("insert_failed"));
    if let Some(reject_bp) = (failed * 10_000).checked_div(ok + failed) {
        println!("  inserts: ok={ok} failed={failed} reject_bp={reject_bp} (slo<={max_reject_bp})");
        if reject_bp > u128::from(max_reject_bp) {
            violations.push(format!(
                "rejection rate {reject_bp} bp exceeds SLO {max_reject_bp} bp"
            ));
        }
    }

    // -- utilization trajectory (per-window gauges; capacity can be 0
    //    in windows before any store sampler ran).
    let mut worst_util_bp = 0u128;
    let mut worst_util_t = 0u64;
    for w in &windows {
        let (used, cap) = (
            u128::from(w.u("store_used").unwrap_or(0)),
            u128::from(w.u("store_capacity").unwrap_or(0)),
        );
        if let Some(bp) = (used * 10_000).checked_div(cap) {
            if bp >= worst_util_bp {
                (worst_util_bp, worst_util_t) = (bp, w.t);
            }
        }
    }
    if worst_util_bp > 0 {
        println!("  utilization: peak={worst_util_bp}bp at t={worst_util_t} (slo<={max_util_bp})");
        if worst_util_bp > u128::from(max_util_bp) {
            violations.push(format!(
                "utilization {worst_util_bp} bp at t={worst_util_t} exceeds SLO {max_util_bp} bp"
            ));
        }
    }

    // -- route-latency percentiles per window; gate the worst p99.
    let mut worst_p99 = 0u64;
    let mut lat_windows = 0usize;
    for w in &windows {
        if let Some(n) = w.u("route_latency_us_count") {
            if n == 0 {
                continue;
            }
            lat_windows += 1;
            println!(
                "  route_latency t={}: n={n} p50={} p95={} p99={}",
                w.t,
                w.u("route_latency_us_p50").unwrap_or(0),
                w.u("route_latency_us_p95").unwrap_or(0),
                w.u("route_latency_us_p99").unwrap_or(0),
            );
            worst_p99 = worst_p99.max(w.u("route_latency_us_p99").unwrap_or(0));
        }
    }
    if lat_windows > 0 {
        let slo = max_p99_us.map_or(String::new(), |v| format!(" (slo<={v})"));
        println!("  route_latency: worst_p99={worst_p99}us over {lat_windows} windows{slo}");
        if let Some(limit) = max_p99_us {
            if worst_p99 > limit {
                violations.push(format!(
                    "route latency p99 {worst_p99} us exceeds SLO {limit} us"
                ));
            }
        }
    }

    for v in &violations {
        println!("SLO VIOLATION: {v}");
    }
    if violations.is_empty() {
        println!(
            "obsreport: healthy ({} windows, all SLOs met)",
            windows.len()
        );
        ExitCode::SUCCESS
    } else if require_slo {
        eprintln!("obsreport: FAILED ({} SLO violations)", violations.len());
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
