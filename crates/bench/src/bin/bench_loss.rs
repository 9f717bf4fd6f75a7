//! `bench_loss` — the message-loss sweep, published as `BENCH_loss.json`
//! at the repository root.
//!
//! One run builds the same PAST deployment three times and drives an
//! identical insert + lookup workload at loss rates 0%, 1%, and 5% (with
//! matching duplication and delay jitter at the lossy levels), with the
//! recovery machinery on: heartbeat acks, join retries, and the bounded
//! client retry layer. Per level it records operation outcomes (every op
//! must terminate explicitly — hung requests show up as a count
//! mismatch), the fault layer's own drop/duplicate counters, and wall
//! time, so future PRs can see both the overhead of the retry machinery
//! at loss 0 and its effectiveness under loss.
//!
//! Usage: `cargo run --release -p past-bench --bin bench_loss --
//! [--smoke] [--out PATH]`. `--smoke` shrinks the network so CI can
//! assert the binary runs and emits valid JSON quickly.

#![expect(
    clippy::disallowed_types,
    reason = "loss-sweep benchmark entry point times each loss level for BENCH_loss.json"
)]

use past_bench::json;
use past_core::{BuildMode, ContentRef, PastConfig, PastNetwork, PastOut};
use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, SeriesConfig, Sphere, TraceConfig};
use past_pastry::{random_ids, Config as PastryConfig, RecoveryConfig};
use std::time::Instant;

const MB: u64 = 1 << 20;
const SEED: u64 = 2026;

/// Flight-recorder window for the per-level drop/duplicate series: one
/// simulated second.
const SERIES_WINDOW_US: u64 = 1_000_000;

struct Level {
    loss: f64,
    inserts: u64,
    insert_ok: u64,
    insert_failed: u64,
    lookups: u64,
    lookup_ok: u64,
    lookup_failed: u64,
    dropped: u64,
    duplicated: u64,
    failed_sends: u64,
    total_msgs: u64,
    wall_ms: f64,
    /// Fault-injected drops per message kind (non-zero entries only).
    dropped_by_kind: Vec<(&'static str, u64)>,
    /// Fault-injected duplicates per message kind (non-zero entries only).
    duplicated_by_kind: Vec<(&'static str, u64)>,
    /// Per-window `(window_start_us, drops)` pairs (non-zero windows only).
    drop_series: Vec<(u64, u64)>,
    /// Per-window `(window_start_us, duplicates)` pairs (non-zero windows only).
    dup_series: Vec<(u64, u64)>,
}

fn pastry_cfg() -> PastryConfig {
    PastryConfig {
        leaf_len: 16,
        ..PastryConfig::default()
    }
}

fn past_cfg() -> PastConfig {
    PastConfig {
        request_timeout_us: Some(800_000),
        request_attempts: 5,
        ..PastConfig::default()
    }
}

fn run_level(loss: f64, n: usize, files: u64) -> Level {
    let mut rng = Rng::seed_from_u64(SEED);
    let ids = random_ids(n, &mut rng);
    let t = Instant::now();
    let mut net = PastNetwork::build(
        Sphere::new(n, SEED),
        pastry_cfg(),
        past_cfg(),
        SEED,
        &ids,
        &vec![400 * MB; n],
        &vec![4_000 * MB; n],
        BuildMode::Static,
    );
    net.sim.set_recovery(RecoveryConfig);
    // Metrics only: per-kind drop/duplicate attribution without paying
    // for event records.
    net.sim.engine.set_tracing(TraceConfig::metrics_only());
    // The flight recorder attributes the same drops/duplicates to sim-time
    // windows; sampling is observation only and perturbs no counter.
    net.sim
        .engine
        .set_series(SeriesConfig::new(SERIES_WINDOW_US));
    net.sim.engine.set_faults(
        FaultConfig {
            loss,
            duplicate: if loss > 0.0 { 0.01 } else { 0.0 },
            jitter_us: if loss > 0.0 { 20_000 } else { 0 },
        },
        SEED ^ 0xfa17,
    );

    let mut lvl = Level {
        loss,
        inserts: 0,
        insert_ok: 0,
        insert_failed: 0,
        lookups: 0,
        lookup_ok: 0,
        lookup_failed: 0,
        dropped: 0,
        duplicated: 0,
        failed_sends: 0,
        total_msgs: 0,
        wall_ms: 0.0,
        dropped_by_kind: Vec::new(),
        duplicated_by_kind: Vec::new(),
        drop_series: Vec::new(),
        dup_series: Vec::new(),
    };
    let mut events = Vec::new();
    for i in 0..files {
        let name = format!("loss-{i}");
        let content = ContentRef::synthetic(SEED as usize, &name, (1 + i % 3) * MB);
        let client = (i as usize * 7) % n;
        if net.insert(client, &name, content, 5).is_ok() {
            lvl.inserts += 1;
        }
        events.extend(net.run());
    }
    let fids: Vec<_> = events
        .iter()
        .filter_map(|(_, _, e)| match e {
            PastOut::InsertOk { file_id, .. } => Some(*file_id),
            _ => None,
        })
        .collect();
    for (i, fid) in fids.iter().enumerate() {
        net.lookup((i * 11 + 3) % n, *fid);
        lvl.lookups += 1;
        events.extend(net.run());
    }
    lvl.wall_ms = t.elapsed().as_secs_f64() * 1e3;

    for (_, _, e) in &events {
        match e {
            PastOut::InsertOk { .. } => lvl.insert_ok += 1,
            PastOut::InsertFailed { .. } => lvl.insert_failed += 1,
            PastOut::LookupOk { .. } => lvl.lookup_ok += 1,
            PastOut::LookupFailed { .. } => lvl.lookup_failed += 1,
            _ => {}
        }
    }
    let stats = &net.sim.engine.stats;
    lvl.dropped = stats.dropped;
    lvl.duplicated = stats.duplicated;
    lvl.failed_sends = stats.failed_sends;
    lvl.total_msgs = stats.total_msgs;
    let tracer = net.sim.engine.take_tracer();
    let metrics = &tracer.metrics;
    lvl.dropped_by_kind = metrics.dropped_by_kind().filter(|(_, c)| *c > 0).collect();
    lvl.duplicated_by_kind = metrics
        .duplicated_by_kind()
        .filter(|(_, c)| *c > 0)
        .collect();
    if let Some(series) = tracer.series() {
        for (start, w) in series.windows() {
            let (drops, dups) = (w.counter("dropped"), w.counter("duplicated"));
            if drops > 0 {
                lvl.drop_series.push((start, drops));
            }
            if dups > 0 {
                lvl.dup_series.push((start, dups));
            }
        }
    }
    lvl
}

/// Renders `(window_start, count)` pairs as a JSON array of pairs.
fn pair_array(pairs: &[(u64, u64)]) -> String {
    json::array(pairs.iter().map(|(t, c)| format!("[{t}, {c}]")))
}

/// Renders `(kind, count)` pairs as a JSON object.
fn kind_obj(pairs: &[(&'static str, u64)]) -> String {
    let mut o = json::Obj::new();
    for (k, c) in pairs {
        o = o.int(k, *c);
    }
    o.build()
}

/// What `bench_loss` accepts, printed on a bad command line.
const USAGE: &str = "usage: bench_loss [--smoke] [--out PATH]";

/// Prints `problem` (if any) and the usage to stderr and exits with
/// status 2: a bad command line is the caller's error, not a crash.
fn usage_exit(problem: Option<&str>) -> ! {
    if let Some(problem) = problem {
        eprintln!("bench_loss: {problem}");
    }
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut out = format!("{}/../../BENCH_loss.json", env!("CARGO_MANIFEST_DIR"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| usage_exit(Some("--out needs a path")))
            }
            "--help" | "-h" => usage_exit(None),
            other => usage_exit(Some(&format!("unknown flag {other}"))),
        }
    }
    let (n, files) = if smoke { (30, 6) } else { (150, 40) };
    let levels: Vec<Level> = [0.0, 0.01, 0.05]
        .iter()
        .map(|&loss| run_level(loss, n, files))
        .collect();

    let doc = json::Obj::new()
        .str("schema", "past-bench/v1")
        .str("bench", "loss")
        .str("mode", if smoke { "smoke" } else { "full" })
        .int("nodes", n as u64)
        .int("files", files)
        .raw(
            "levels",
            &json::array(levels.iter().map(|l| {
                json::Obj::new()
                    .num("loss", l.loss)
                    .int("inserts", l.inserts)
                    .int("insert_ok", l.insert_ok)
                    .int("insert_failed", l.insert_failed)
                    .int("lookups", l.lookups)
                    .int("lookup_ok", l.lookup_ok)
                    .int("lookup_failed", l.lookup_failed)
                    .int("dropped", l.dropped)
                    .int("duplicated", l.duplicated)
                    .int("failed_sends", l.failed_sends)
                    .int("total_msgs", l.total_msgs)
                    .num("wall_ms", l.wall_ms)
                    .raw("dropped_by_kind", &kind_obj(&l.dropped_by_kind))
                    .raw("duplicated_by_kind", &kind_obj(&l.duplicated_by_kind))
                    .raw("drop_series", &pair_array(&l.drop_series))
                    .raw("dup_series", &pair_array(&l.dup_series))
                    .build()
            })),
        )
        .build();
    json::validate(&doc).expect("bench output must be valid JSON");
    std::fs::write(&out, format!("{doc}\n")).expect("write bench output");
    for l in &levels {
        println!(
            "loss {:>4.0}%: insert {}/{} ok, lookup {}/{} ok, dropped {}, dup {}, msgs {}, {:.1} ms",
            l.loss * 100.0,
            l.insert_ok,
            l.inserts,
            l.lookup_ok,
            l.lookups,
            l.dropped,
            l.duplicated,
            l.total_msgs,
            l.wall_ms
        );
        assert_eq!(
            l.insert_ok + l.insert_failed,
            l.inserts,
            "every insert must terminate explicitly at loss {}",
            l.loss
        );
        assert_eq!(
            l.lookup_ok + l.lookup_failed,
            l.lookups,
            "every lookup must terminate explicitly at loss {}",
            l.loss
        );
    }
    println!("wrote {out}");
}
