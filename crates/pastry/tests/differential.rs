//! The overlay half of the replay suite (the full-stack half is
//! `crates/invariants/tests/differential.rs`): a 512-node lossy-churn
//! overlay run — protocol joins, faulty routes, churn, stabilization —
//! must reproduce its golden overlay snapshot, `NetStats`, per-node IO
//! counters, drained outputs (in order), trace fingerprint,
//! flight-recorder series, engine fingerprint and clock; replay bit for
//! bit; and stay the same run with tracing and the series off.

use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, SeriesConfig, Sphere, TraceConfig};
use past_pastry::{random_ids, Config, Id, NullApp, PastrySim};
use past_trace::fnv1a;

const N: usize = 512;

/// The run's delay floor: 2 ms on a [`Sphere`] leaves the proximity
/// structure intact (points don't move, short links clamp).
const FLOOR_US: u64 = 2_000;

/// The summary of the traced run, recorded on the code before the
/// engine lost its multi-threaded driver (where it equalled the 2- and
/// 4-thread runs) and never re-derived since. A change that moves it
/// has changed the overlay's message flow, timers or event keys and
/// must say so.
const GOLDEN: &str = "trace_fp=5766011227587207653 series_fp=Some(8698428471295056122) \
     engine_fp=11717880102056617302 snapshot=5723981059698415823 io=15336158615074401239 \
     total_msgs=38174 total_bytes=1949438 dropped=887 duplicated=152 failed_sends=380 \
     now_us=205635680 alive=488 delivered=451 outputs=12734360468225295521";

/// Runs the 512-node lossy-churn workload and returns the
/// engine/overlay summary string plus the flight-recorder series in its
/// canonical serialization. `observe` switches tracing and the series
/// on.
fn lossy_churn_run(observe: bool) -> (String, String) {
    let mut rng = Rng::seed_from_u64(9090);
    let ids = random_ids(N, &mut rng);
    let mut sim: PastrySim<NullApp, Sphere> = PastrySim::new(
        Sphere::with_delay_floor(N, 9090, FLOOR_US),
        Config::default(),
        9090,
    );
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
fn lossy_churn_run_matches_its_golden_and_replays() {
    let (summary, series) = lossy_churn_run(true);
    assert!(
        !summary.contains("dropped=0 ") && !summary.contains("failed_sends=0 "),
        "the fault layer must drop and churn must bounce for this test to bite: {summary}"
    );
    assert!(
        !summary.contains("delivered=0 "),
        "routes must actually deliver: {summary}"
    );
    // Counters land at event times and engine gauges are sampled at the
    // first event of each series window.
    assert!(
        series.lines().count() > 10,
        "series must actually cover the run, got:\n{series}"
    );
    assert!(
        series.contains("\"queue_depth\":"),
        "engine gauges must be sampled"
    );
    assert_eq!(summary, GOLDEN);
    // Same seed, same run, window by window.
    assert_eq!(
        (summary.clone(), series),
        lossy_churn_run(true),
        "replay diverged"
    );
    // Observation is pure: with tracing and the series off, every
    // non-trace observable stays identical.
    let strip = |s: &str| s[s.find("engine_fp=").expect("summary layout")..].to_string();
    assert_eq!(
        strip(&summary),
        strip(&lossy_churn_run(false).0),
        "observation perturbed the run"
    );
}
