//! Differential equivalence: inline ≡ 2 shards ≡ 4 shards.
//!
//! There is one engine: a one-partition run executes inline on the
//! caller's thread, an N-shard run advances N partitions of the same
//! keyed core on worker threads. The determinism claim is that the two
//! are the *same simulation*. The same 512-node lossy-churn overlay run
//! — protocol joins, faulty routes, churn, stabilization — must produce
//! identical overlay snapshots, `NetStats`, per-node IO counters,
//! drained outputs (in order), trace fingerprints, flight-recorder
//! series, engine fingerprints and clocks inline and at 2 and 4 shards.

use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, SeriesConfig, ShardConfig, Sphere, TraceConfig};
use past_pastry::{populate_static, random_ids, static_build, Config, Id, NullApp, PastrySim};
use past_trace::fnv1a;

const N: usize = 512;

/// More than one shard needs a delay floor at least as wide as the
/// window (sealed-batch safety); 2 ms on a [`Sphere`] leaves the
/// proximity structure intact (points don't move, short links clamp).
/// Every shard count runs on the same floored topology.
const FLOOR_US: u64 = 2_000;

fn overlay(shards: usize) -> PastrySim<NullApp, Sphere> {
    PastrySim::new_sharded(
        Sphere::with_delay_floor(N, 9090, FLOOR_US),
        Config::default(),
        9090,
        ShardConfig {
            shards,
            window_us: FLOOR_US,
        },
    )
    .expect("window == delay floor is safe")
}

/// Runs the 512-node lossy-churn workload at `shards` shards (1 is the
/// inline engine) and returns the engine/overlay summary string plus
/// the flight-recorder series in its canonical (shard-diagnostic-free)
/// serialization. `observe` switches tracing and the series on.
fn lossy_churn_run(shards: usize, observe: bool) -> (String, String) {
    let mut rng = Rng::seed_from_u64(9090);
    let ids = random_ids(N, &mut rng);
    let mut sim = overlay(shards);
    assert_eq!(sim.engine.shard_count(), shards);
    if observe {
        sim.engine.set_tracing(TraceConfig::full());
        sim.engine.set_series(SeriesConfig::new(1_000_000));
    }
    sim.build_by_joins(&ids, |_| NullApp, 4);

    // Lossy phase: faults on, routed traffic, then churn + stabilize.
    sim.engine.set_faults(
        FaultConfig {
            loss: 0.05,
            duplicate: 0.01,
            jitter_us: 20_000,
        },
        0xd1ff,
    );
    let mut key_rng = Rng::seed_from_u64(4242);
    // Every drained output (deliveries, join completions, drops), in
    // drain order.
    let mut outputs = String::new();
    let mut route = |sim: &mut PastrySim<NullApp, Sphere>, out: &mut String, routes: usize| {
        for _ in 0..routes {
            let key = Id(key_rng.random());
            let from = key_rng.random_range(0..N);
            sim.route(from, key, ());
            sim.engine.run_until_quiet(u64::MAX);
            for (at, addr, o) in sim.engine.drain_outputs() {
                out.push_str(&format!("{addr}@{}:{o:?};", at.as_micros()));
            }
        }
    };
    route(&mut sim, &mut outputs, 300);
    for i in 0..24 {
        sim.engine.kill((i * 21 + 5) % N);
    }
    sim.stabilize();
    route(&mut sim, &mut outputs, 200);

    let alive = (0..N).filter(|&a| sim.engine.is_alive(a)).count();
    let io: Vec<_> = (0..N).map(|a| sim.engine.node_io(a)).collect();
    // The overlay snapshot Debug dump covers every leaf set and routing
    // table; hash it so assertion output stays readable on divergence.
    let snap_hash = fnv1a(format!("{:?}", sim.snapshot_overlay()).as_bytes());
    let tracer = sim.engine.take_tracer();
    let series = tracer.series();
    let st = &sim.engine.stats;
    let summary = format!(
        "trace_fp={} series_fp={:?} engine_fp={} snapshot={} io={} total_msgs={} \
         total_bytes={} dropped={} duplicated={} failed_sends={} now_us={} alive={} \
         delivered={} outputs={}",
        if observe { tracer.fingerprint() } else { 0 },
        series.map(|s| s.fingerprint()),
        sim.engine.fingerprint(),
        snap_hash,
        fnv1a(format!("{io:?}").as_bytes()),
        st.total_msgs,
        st.total_bytes,
        st.dropped,
        st.duplicated,
        st.failed_sends,
        sim.engine.now().as_micros(),
        alive,
        outputs.matches("Delivered").count(),
        fnv1a(outputs.as_bytes()),
    );
    (
        summary,
        series.map(|s| s.canonical_lines()).unwrap_or_default(),
    )
}

#[test]
fn inline_two_shard_and_four_shard_lossy_churn_runs_are_bit_identical() {
    let (inline, inline_series) = lossy_churn_run(1, true);
    assert!(
        !inline.contains("dropped=0 ") && !inline.contains("failed_sends=0 "),
        "the fault layer must drop and churn must bounce for this test to bite: {inline}"
    );
    assert!(
        !inline.contains("delivered=0 "),
        "routes must actually deliver: {inline}"
    );
    // The flight-recorder series must also be bit-identical window by
    // window: counters land at event times and engine gauges are
    // sampled at the first event of each series window, so shard count
    // must not leak into a single canonical line (per-shard diagnostics
    // are excluded by construction).
    assert!(
        inline_series.lines().count() > 10,
        "series must actually cover the run, got:\n{inline_series}"
    );
    assert!(
        inline_series.contains("\"queue_depth\":"),
        "engine gauges must be sampled inline too"
    );
    for shards in [2, 4] {
        let (sharded, sharded_series) = lossy_churn_run(shards, true);
        assert_eq!(inline, sharded, "inline and {shards}-shard runs diverged");
        assert_eq!(
            inline_series, sharded_series,
            "inline and {shards}-shard flight-recorder series diverged"
        );
    }
    // Same seed, same run; and observation is pure: with tracing and
    // the series off, every non-trace observable stays identical.
    assert_eq!(inline, lossy_churn_run(1, true).0, "replay diverged");
    let strip = |s: &str| s[s.find("engine_fp=").expect("summary layout")..].to_string();
    for shards in [1, 4] {
        assert_eq!(
            strip(&inline),
            strip(&lossy_churn_run(shards, false).0),
            "observation perturbed the {shards}-shard run"
        );
    }
}

/// The static builder is harness-side and draws only the harness RNG,
/// so the *constructed* overlay state (before any events run) is the
/// same inline and on shards.
#[test]
fn static_build_state_is_shard_count_independent() {
    let n = 256;
    let mut rng = Rng::seed_from_u64(2026);
    let ids = random_ids(n, &mut rng);
    let topo = || Sphere::with_delay_floor(n, 7, FLOOR_US);
    let inline: PastrySim<NullApp, Sphere> =
        static_build(topo(), Config::default(), 2026, &ids, |_| NullApp, 3);
    let mut sharded: PastrySim<NullApp, Sphere> = PastrySim::new_sharded(
        topo(),
        Config::default(),
        2026,
        ShardConfig {
            shards: 4,
            window_us: FLOOR_US,
        },
    )
    .expect("window == delay floor is safe");
    populate_static(&mut sharded, &ids, |_| NullApp, 3);
    assert_eq!(
        format!("{:?}", inline.snapshot_overlay()),
        format!("{:?}", sharded.snapshot_overlay()),
        "built overlay state diverged across shard counts"
    );
    // Addresses are stable and dense across the build on both.
    for a in 0..n {
        assert_eq!(inline.handle(a).addr, a);
        assert_eq!(sharded.handle(a).addr, a);
    }
}
