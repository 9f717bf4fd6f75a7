//! CI gate: run the canned scenarios and fail on any invariant violation.
//!
//! Each violation is reported as `<invariant> @node <addr>: <detail>`.
//! I6 (every route ends at the closest live node) gates the scenarios in
//! which no failure precedes a join; `churn` and `lossy-churn` join
//! nodes after others failed, which is where roadmap item E's bug
//! lives, so there the I6 count is printed and does not fail the run.
//!
//! `--shards N` (default 1: inline) sets the shard count of the
//! lossy-churn scenario. With `--emit-trace PATH` that scenario runs
//! with the operation-lifecycle trace classes enabled and its trace is
//! written to `PATH` as JSONL, ready for `tracecheck --require-clean`;
//! `--emit-series PATH` additionally writes the run's flight-recorder
//! series as JSONL, ready for `obsreport --require-slo`. Both files are
//! byte-identical under any `--shards` value (the series is written
//! without its per-shard diagnostics), which `scripts/ci.sh` checks
//! with `cmp`.

use past_invariants::scenarios::{
    bulk_join, churn, lossy_churn, lossy_churn_traced, quota_reclaim, wheel_horizon, Findings,
};
use past_netsim::TraceConfig;

/// Writes `text` to `path` or exits with the usage status.
fn write_or_exit(path: &str, what: &str, text: String) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("invariants: cannot write {what} to {path}: {e}");
        std::process::exit(2);
    }
}

fn main() {
    let mut emit_trace: Option<String> = None;
    let mut emit_series: Option<String> = None;
    let mut shards = 1usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("invariants: {a} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--emit-trace" => emit_trace = Some(value()),
            "--emit-series" => emit_series = Some(value()),
            "--shards" => {
                shards = value().parse().unwrap_or(0);
                if shards == 0 {
                    eprintln!("invariants: --shards needs a positive integer");
                    std::process::exit(2);
                }
            }
            other => {
                eprintln!("invariants: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }

    // (scenario, findings, whether I6 gates it)
    let mut results = vec![
        ("bulk-join", bulk_join(1), true),
        ("churn", churn(2), false),
        ("quota-reclaim", quota_reclaim(3), true),
    ];
    if emit_trace.is_some() || emit_series.is_some() {
        let run = lossy_churn_traced(4, shards, TraceConfig::lifecycle());
        if let Some(path) = &emit_trace {
            write_or_exit(path, "trace", run.tracer.to_jsonl());
            println!(
                "invariants: wrote {} trace record(s) to {path}",
                run.tracer.records().len()
            );
        }
        if let Some(path) = &emit_series {
            let Some(series) = run.tracer.series() else {
                eprintln!("invariants: traced run produced no series for {path}");
                std::process::exit(2);
            };
            write_or_exit(path, "series", series.to_canonical_jsonl());
            println!(
                "invariants: wrote {} series window(s) to {path}",
                series.len()
            );
        }
        results.push(("lossy-churn", run.findings, false));
    } else {
        results.push(("lossy-churn", lossy_churn(4, shards), false));
    }
    results.push(("wheel-horizon", wheel_horizon(5), true));

    let mut failed = false;
    for (name, findings, gate_routes) in results {
        let Findings {
            mut violations,
            misroutes,
        } = findings;
        let routes = if gate_routes {
            violations.extend(misroutes);
            "I6 holds".to_string()
        } else {
            format!("I6: {} route failure(s), not gated", misroutes.len())
        };
        if violations.is_empty() {
            println!(
                "invariants: scenario {name:<14} ok (I1-I5 hold at every quiesce point; {routes})"
            );
        } else {
            failed = true;
            println!(
                "invariants: scenario {name:<14} FAILED with {} violation(s):",
                violations.len()
            );
            for v in &violations {
                println!("  {v}");
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
