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
//! [--smoke] [--nodes N] [--out PATH] [--series PATH]`. `--smoke`
//! shrinks the route count so CI can assert the binary runs and emits
//! valid JSON quickly; `--nodes N` overrides the network size
//! independently, so `--nodes 100000 --smoke` is the CI scale gate (big
//! overlay, few routes) and `--nodes 1000000 --smoke` is the
//! EXPERIMENTS.md million-node run. `--series PATH` writes the run's
//! flight-recorder series as JSONL (`TimeSeries::to_jsonl`), the format
//! `obsreport` reads.

#![expect(
    clippy::disallowed_types,
    reason = "macro-benchmark entry point times its build/route/churn phases for BENCH_macro.json"
)]

use past_bench::json;
use past_crypto::rng::Rng;
use past_netsim::{Memory, SeriesConfig, Sphere};
use past_pastry::{random_ids, static_build, Config, Id, NullApp, PastrySim};
use std::time::Instant;

/// Flight-recorder window for `--series` runs: one simulated second.
const SERIES_WINDOW_US: u64 = 1_000_000;

struct Phase {
    name: &'static str,
    wall_ms: f64,
}

/// Seeded simulation counters: the same seeds give the same counters on
/// any machine.
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

/// One full run (build, routes, churn) on the sphere. With `series` the
/// flight recorder samples the run (observation only: counters are
/// unaffected) and its JSONL lines are returned.
fn full_run(
    n: usize,
    routes: usize,
    kills: usize,
    series: bool,
) -> (Vec<Phase>, Counters, Option<String>, Footprint) {
    let mut rng = Rng::seed_from_u64(2001);
    let ids = random_ids(n, &mut rng);
    let mut phases = Vec::new();
    let t = Instant::now();
    let topo = Sphere::new(n, 2001);
    let mut sim = static_build(topo, Config::default(), 2001, &ids, |_| NullApp, 3);
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
        sim.engine.take_tracer().series().map(|s| s.to_jsonl())
    } else {
        None
    };
    (phases, counters, series_doc, footprint)
}

/// What `bench_macro` accepts, printed on a bad command line.
const USAGE: &str = "usage: bench_macro [--smoke] [--nodes N] [--out PATH] [--series PATH]";

/// Prints `problem` (if any) and the usage to stderr and exits with
/// status 2: a bad command line is the caller's error, not a crash.
fn usage_exit(problem: Option<&str>) -> ! {
    if let Some(problem) = problem {
        eprintln!("bench_macro: {problem}");
    }
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut nodes: Option<usize> = None;
    let mut series: Option<String> = None;
    let mut out = format!("{}/../../BENCH_macro.json", env!("CARGO_MANIFEST_DIR"));
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--nodes" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage_exit(Some("--nodes needs a count")));
                nodes = match v.parse() {
                    Ok(n) if n > 0 => Some(n),
                    _ => usage_exit(Some("--nodes must be a positive integer")),
                };
            }
            "--out" => {
                out = args
                    .next()
                    .unwrap_or_else(|| usage_exit(Some("--out needs a path")))
            }
            "--series" => {
                series = Some(
                    args.next()
                        .unwrap_or_else(|| usage_exit(Some("--series needs a path"))),
                )
            }
            "--help" | "-h" => usage_exit(None),
            other => usage_exit(Some(&format!("unknown flag {other}"))),
        }
    }
    let (mut n, routes) = if smoke { (300, 200) } else { (10_000, 10_000) };
    if let Some(v) = nodes {
        n = v;
    }
    let kills = n / 20;

    let (phases, counters, series_doc, footprint) = full_run(n, routes, kills, series.is_some());
    let peak_rss_kb = proc_status_kb("VmHWM:");

    // Where a node's bytes go (ROADMAP H1, formerly item M): the engine's
    // gauges after the stabilize round, per node, beside the resident set
    // they are a part of.
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
    let doc = json::Obj::new()
        .str("schema", "past-bench/v1")
        .str("bench", "macro")
        .str("mode", if smoke { "smoke" } else { "full" })
        .int("nodes", n as u64)
        .int("routes", routes as u64)
        .int("kills", kills as u64)
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
        )
        .raw("bytes_per_node", &rows.build())
        .int("peak_rss_kb", peak_rss_kb)
        .build();
    json::validate(&doc).expect("bench output must be valid JSON");
    std::fs::write(&out, format!("{doc}\n")).expect("write bench output");
    if let Some(series_path) = &series {
        let sdoc = series_doc.expect("series was enabled, so the tracer must carry one");
        std::fs::write(series_path, sdoc).expect("write series output");
        println!("wrote {series_path}");
    }
    for p in &phases {
        println!("{:<16} {:10.1} ms", p.name, p.wall_ms);
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
