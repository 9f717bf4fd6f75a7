//! `bench_macro` — the end-to-end simulator benchmark, published as
//! `BENCH_macro.json` at the repository root.
//!
//! One run builds a 10 000-node Pastry overlay with the static builder on
//! the sphere topology, routes 10 000 seeded keys through it, then kills
//! 5 % of the nodes and runs a stabilize round — the three phases every
//! large experiment in EXPERIMENTS.md is built from. Wall-clock time per
//! phase plus the simulation's own counters (hops, messages, bytes) give
//! future PRs a macro-level perf trajectory; the counters double as a
//! coarse determinism check (same seed ⇒ same counters on any machine).
//! After the stabilize round the engine's memory gauges are printed per
//! node (`bytes_per_node.*`) beside the process's resident set and its
//! peak (`peak_rss_kb`).
//!
//! Usage: `cargo run --release -p past-bench --bin bench_macro --
//! [--smoke] [--nodes N] [--shards K] [--out PATH]`. `--smoke` shrinks
//! the route count so CI can assert the binary runs and emits valid
//! JSON quickly; `--nodes N` overrides the network size independently,
//! so `--nodes 100000 --smoke` is the CI scale gate (big overlay, few
//! routes) and `--nodes 1000000` (no `--smoke`) is the EXPERIMENTS.md
//! million-node run. `--shards K` runs the overlay on K shards over a
//! delay-floored sphere (K worker threads; `--shards 1` runs inline on
//! that topology); with K > 1 the run is repeated at 1 shard to measure
//! the churn-phase speedup and to assert the two runs' simulation
//! counters are identical — shard-count independence measured in anger,
//! not just in unit tests.

#![expect(
    clippy::disallowed_types,
    reason = "macro-benchmark entry point times its build/route/churn phases for BENCH_macro.json"
)]

use past_bench::json;
use past_crypto::rng::Rng;
use past_netsim::{Memory, SeriesConfig, ShardConfig, Sphere};
use past_pastry::{populate_static, random_ids, Config, Id, NullApp, PastrySim};
use std::time::Instant;

/// Delay floor (and shard window) for `--shards` runs: more than one
/// shard requires `window_us ≤ min_delay_us` and `Sphere::new` has a
/// 1 µs floor, so `--shards` runs clamp short links to 5 ms. Runs
/// without the flag keep the un-floored sphere so historical numbers
/// stay comparable.
const SHARD_FLOOR_US: u64 = 5_000;

/// Flight-recorder window for `--series` runs: one simulated second.
const SERIES_WINDOW_US: u64 = 1_000_000;

struct Phase {
    name: &'static str,
    wall_ms: f64,
}

/// Seeded simulation counters; identical across shard counts for the
/// same topology and seeds.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    delivered: u64,
    total_hops: u64,
    route_msgs: u64,
    route_bytes: u64,
    total_msgs: u64,
    total_bytes: u64,
    final_us: u64,
}

/// What the measured run held once its stabilize round had drained: the
/// engine's own gauges and the process's resident set at that moment,
/// so the JSON shows how much of the latter the former explain.
struct Footprint {
    memory: Memory,
    rss_kb: u64,
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`); 0 where the
/// file or the field does not exist.
fn proc_status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with(field))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Phases 2 and 3 (routes, churn + stabilize) on an already-built
/// overlay.
fn routes_and_churn(
    sim: &mut PastrySim<NullApp, Sphere>,
    n: usize,
    routes: usize,
    kills: usize,
    phases: &mut Vec<Phase>,
) -> Counters {
    // Phase 2: routes.
    let mut key_rng = Rng::seed_from_u64(42);
    let t = Instant::now();
    let mut delivered = 0u64;
    let mut total_hops = 0u64;
    for _ in 0..routes {
        let key = Id(key_rng.random());
        let from = key_rng.random_range(0..n);
        sim.route(from, key, ());
        for rec in sim.drain_deliveries() {
            delivered += 1;
            total_hops += rec.hops as u64;
        }
    }
    phases.push(Phase {
        name: "routes",
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    });
    let (route_msgs, route_bytes) = (sim.engine.stats.total_msgs, sim.engine.stats.total_bytes);

    // Phase 3: churn + stabilize.
    let t = Instant::now();
    for i in 0..kills {
        // Spread the failures deterministically across the address space.
        sim.engine.kill((i * 19 + 7) % n);
    }
    sim.stabilize();
    phases.push(Phase {
        name: "churn_stabilize",
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    });

    Counters {
        delivered,
        total_hops,
        route_msgs,
        route_bytes,
        total_msgs: sim.engine.stats.total_msgs,
        total_bytes: sim.engine.stats.total_bytes,
        final_us: sim.engine.now().as_micros(),
    }
}

/// One full run (build, routes, churn): without `shards` on the
/// un-floored sphere, inline — the historical configuration — and with
/// it on that many shards over the floored sphere. With `series` the
/// flight recorder samples the run (observation only: counters are
/// unaffected) and its `past-series/v1` document is returned.
fn full_run(
    n: usize,
    routes: usize,
    kills: usize,
    shards: Option<usize>,
    series: bool,
) -> (Vec<Phase>, Counters, Option<String>, Footprint) {
    let mut rng = Rng::seed_from_u64(2001);
    let ids = random_ids(n, &mut rng);
    let mut phases = Vec::new();
    let t = Instant::now();
    let topo = match shards {
        None => Sphere::new(n, 2001),
        Some(_) => Sphere::with_delay_floor(n, 2001, SHARD_FLOOR_US),
    };
    let mut sim = PastrySim::new_sharded(
        topo,
        Config::default(),
        2001,
        ShardConfig {
            shards: shards.unwrap_or(1),
            window_us: SHARD_FLOOR_US,
        },
    )
    .expect("the window binds only above one shard, where it equals the delay floor");
    populate_static(&mut sim, &ids, |_| NullApp, 3);
    phases.push(Phase {
        name: "static_build",
        wall_ms: t.elapsed().as_secs_f64() * 1e3,
    });
    if series {
        sim.engine.set_series(SeriesConfig::new(SERIES_WINDOW_US));
    }
    let counters = routes_and_churn(&mut sim, n, routes, kills, &mut phases);
    let footprint = Footprint {
        memory: sim.engine.memory(),
        rss_kb: proc_status_kb("VmRSS:"),
    };
    let series_doc = if series {
        sim.engine.take_tracer().series().map(|s| s.to_json())
    } else {
        None
    };
    (phases, counters, series_doc, footprint)
}

fn main() {
    let mut smoke = false;
    let mut nodes: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut series: Option<String> = None;
    let mut out = format!("{}/../../BENCH_macro.json", env!("CARGO_MANIFEST_DIR"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--nodes" => {
                let v = args.next().expect("--nodes needs a count");
                nodes = Some(v.parse().expect("--nodes must be an integer"));
            }
            "--shards" => {
                let v = args.next().expect("--shards needs a count");
                shards = Some(v.parse().expect("--shards must be an integer"));
            }
            "--out" => out = args.next().expect("--out needs a path"),
            "--series" => series = Some(args.next().expect("--series needs a path")),
            other => {
                panic!(
                    "unknown flag {other}; supported: --smoke, --nodes N, --shards K, \
                     --out PATH, --series PATH"
                )
            }
        }
    }
    let (mut n, routes) = if smoke { (300, 200) } else { (10_000, 10_000) };
    if let Some(v) = nodes {
        assert!(v > 0, "--nodes must be positive");
        n = v;
    }
    if let Some(k) = shards {
        assert!(k > 0, "--shards must be positive");
    }
    let kills = n / 20;

    let (phases, counters, series_doc, footprint) =
        full_run(n, routes, kills, shards, series.is_some());
    // Read before the 1-shard reference below runs in this process.
    let peak_rss_kb = proc_status_kb("VmHWM:");
    let mut ref_churn_ms: Option<f64> = None;
    if shards.is_some_and(|k| k > 1) {
        // In-process 1-shard reference: same topology, same seeds, run
        // inline (no series: sampling is observation only, so the
        // counter comparison also checks that an instrumented run
        // equals an uninstrumented one). Its counters must be
        // bit-identical (shard-count independence); its churn wall
        // time is the speedup baseline.
        let (ref_phases, ref_counters, _, _) = full_run(n, routes, kills, Some(1), false);
        assert_eq!(
            counters, ref_counters,
            "sharded and 1-shard runs must produce identical counters"
        );
        ref_churn_ms = ref_phases
            .iter()
            .find(|p| p.name == "churn_stabilize")
            .map(|p| p.wall_ms);
    }

    let mut doc = json::Obj::new()
        .str("schema", "past-bench/v1")
        .str("bench", "macro")
        .str("mode", if smoke { "smoke" } else { "full" })
        .int("nodes", n as u64)
        .int("routes", routes as u64)
        .int("kills", kills as u64)
        .int("shards", shards.unwrap_or(0) as u64)
        .raw(
            "phases",
            &json::array(phases.iter().map(|p| {
                json::Obj::new()
                    .str("name", p.name)
                    .num("wall_ms", p.wall_ms)
                    .build()
            })),
        )
        .raw(
            "sim",
            &json::Obj::new()
                .int("delivered", counters.delivered)
                .num(
                    "mean_hops",
                    counters.total_hops as f64 / counters.delivered.max(1) as f64,
                )
                .int("route_msgs", counters.route_msgs)
                .int("route_bytes", counters.route_bytes)
                .int("total_msgs", counters.total_msgs)
                .int("total_bytes", counters.total_bytes)
                .int("final_us", counters.final_us)
                .build(),
        );
    // Where a node's bytes go (ROADMAP item M): the engine's gauges after
    // the stabilize round, per node, beside the resident set they are a
    // part of.
    let bytes_per_node: Vec<(&str, f64)> = footprint
        .memory
        .rows()
        .into_iter()
        .chain([
            ("gauged", footprint.memory.total()),
            ("rss", footprint.rss_kb as usize * 1024),
        ])
        .map(|(name, bytes)| (name, bytes as f64 / n as f64))
        .collect();
    let rows = bytes_per_node
        .iter()
        .fold(json::Obj::new(), |o, &(name, v)| o.num(name, v));
    doc = doc
        .raw("bytes_per_node", &rows.build())
        .int("peak_rss_kb", peak_rss_kb);
    if let Some(ref_ms) = ref_churn_ms {
        let churn_ms = phases
            .iter()
            .find(|p| p.name == "churn_stabilize")
            .map(|p| p.wall_ms)
            .unwrap_or(0.0);
        doc = doc
            .num("churn_stabilize_1shard_ms", ref_ms)
            .num("churn_speedup", ref_ms / churn_ms.max(f64::MIN_POSITIVE));
    }
    let doc = doc.build();
    json::validate(&doc).expect("bench output must be valid JSON");
    std::fs::write(&out, format!("{doc}\n")).expect("write bench output");
    if let Some(series_path) = &series {
        let sdoc = series_doc.expect("series was enabled, so the tracer must carry one");
        json::validate(&sdoc).expect("series output must be valid JSON");
        std::fs::write(series_path, format!("{sdoc}\n")).expect("write series output");
        println!("wrote {series_path}");
    }
    for p in &phases {
        println!("{:<16} {:10.1} ms", p.name, p.wall_ms);
    }
    if let Some(ref_ms) = ref_churn_ms {
        let churn_ms = phases
            .iter()
            .find(|p| p.name == "churn_stabilize")
            .map(|p| p.wall_ms)
            .unwrap_or(0.0);
        println!(
            "churn 1-shard ref {ref_ms:8.1} ms (speedup {:.2}x, counters identical)",
            ref_ms / churn_ms.max(f64::MIN_POSITIVE)
        );
    }
    for (name, v) in &bytes_per_node {
        println!("bytes_per_node.{name:<17} {v:10.1}");
    }
    println!("peak_rss_kb {peak_rss_kb}");
    println!(
        "routes delivered {}, mean hops {:.3}",
        counters.delivered,
        counters.total_hops as f64 / counters.delivered.max(1) as f64
    );
    println!("wrote {out}");
}
