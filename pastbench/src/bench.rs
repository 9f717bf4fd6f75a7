//! One workload, measured: the untraced pass that yields the end-to-end
//! metrics and the traced pass that yields the per-layer ledger.

use crate::clock::{median_f64, Stopwatch};
use crate::layers;
use crate::overlay::{OverlayRun, OverlaySpec};
use crate::past::{PastRun, PastSpec};
use crate::spans::Spans;
use crate::tally::{drive, per, Timed, Workload};
use past_core::{FileCertificate, FileId, PastApp, PastMsg};
use past_crypto::rng::Rng;
use past_crypto::Digest160;
use past_netsim::{OpId, SeriesConfig, Sphere, TraceConfig, Tracer};
use past_pastry::{static_build, App, Config, Id, NullApp, PastrySim, PastryState};

/// Times the set-up is repeated in the untraced pass; `setup_s` is the
/// median.
const SETUP_REPEATS: usize = 3;

/// Live files whose replicas and retrievability are checked after the
/// timed section.
const VERIFY_SAMPLE: usize = 1_000;

/// Certificates and nodes sampled as inputs of the unit-cost benchmarks.
const UNIT_SAMPLE: usize = 2_000;

/// The flight recorder's window in the traced pass: one simulated second.
const SERIES_WINDOW_US: u64 = 1_000_000;

/// Named values, in reporting order.
pub type Values = Vec<(&'static str, f64)>;

/// Storage-layer counters summed over the live nodes.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreCounters {
    pub cache_entries: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub cache_entries_p99: u64,
    pub utilization: f64,
}

/// What the measurement needs from a workload beyond driving it.
pub trait Bench: Workload + Sized {
    type Spec: Clone;
    /// The application on the workload's Pastry nodes.
    type App: App;
    fn build(spec: &Self::Spec, seed: u64) -> Self;
    /// Chunks a timed section of `seconds` runs: a fixed number, so that
    /// the operations of a run depend on the seed and never on the host.
    fn chunks(spec: &Self::Spec, seconds: f64) -> u64;
    /// The overlay simulation the workload runs on.
    fn sim(&mut self) -> &mut PastrySim<Self::App, Sphere>;
    /// Events the engine processed while spans were on.
    fn events(&self) -> u64;
    /// Checks of the stored state after the timed section.
    fn verify(&mut self) -> Vec<String>;
    /// The same workload with signature checks off, if they are on.
    fn without_checks(spec: &Self::Spec) -> Option<Self::Spec>;
    fn core_counters(&self) -> CoreCounters;
    fn sample_certs(&self) -> Vec<FileCertificate>;
    /// A key and the payload the workload routes to it, for
    /// [`layers::step_msg`].
    fn routed(rng: &mut Rng, state: &PastryState) -> (Id, <Self::App as App>::Payload);
    /// Per-layer values only this kind of workload has. Runs last: it
    /// may use the network up.
    fn extras(&mut self, spans: &mut Spans) -> Values;
}

impl Bench for PastRun {
    type Spec = PastSpec;
    type App = PastApp;

    fn build(spec: &PastSpec, seed: u64) -> PastRun {
        PastRun::setup(spec, seed)
    }

    fn chunks(spec: &PastSpec, seconds: f64) -> u64 {
        chunks(spec.chunks_per_s, seconds)
    }

    fn sim(&mut self) -> &mut PastrySim<PastApp, Sphere> {
        &mut self.net.sim
    }

    fn events(&self) -> u64 {
        self.events
    }

    fn verify(&mut self) -> Vec<String> {
        PastRun::verify(self, VERIFY_SAMPLE)
    }

    fn without_checks(spec: &PastSpec) -> Option<PastSpec> {
        spec.past.crypto_checks.then(|| {
            let mut s = spec.clone();
            s.past.crypto_checks = false;
            s
        })
    }

    fn core_counters(&self) -> CoreCounters {
        let mut c = CoreCounters::default();
        let mut entries = Vec::new();
        for a in self.net.sim.engine.live_addrs() {
            let cache = &self.net.sim.engine.node(a).app.store.cache;
            c.cache_entries += cache.len() as u64;
            c.cache_hits += cache.hits();
            c.cache_evictions += cache.evictions();
            entries.push(cache.len() as u64);
        }
        entries.sort_unstable();
        c.cache_entries_p99 = entries
            .get((entries.len() * 99).div_ceil(100).saturating_sub(1))
            .copied()
            .unwrap_or(0);
        c.utilization = self.net.utilization().2;
        c
    }

    fn sample_certs(&self) -> Vec<FileCertificate> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for a in self.net.sim.engine.live_addrs() {
            for (id, f) in self.net.sim.engine.node(a).app.store.files() {
                if seen.insert(*id) {
                    out.push(f.cert);
                    if out.len() == UNIT_SAMPLE {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn routed(rng: &mut Rng, state: &PastryState) -> (Id, PastMsg) {
        // A lookup of a file nobody stored.
        let mut id = [0u8; 20];
        id.iter_mut().for_each(|b| *b = rng.random());
        let file_id = FileId(Digest160(id));
        let lookup = PastMsg::Lookup {
            file_id,
            client: state.me.addr,
            path: Vec::new(),
            redirected: false,
            op: OpId::NONE,
        };
        (file_id.routing_id(), lookup)
    }

    fn extras(&mut self, _spans: &mut Spans) -> Values {
        // The overlay under a PAST network, built alone: what of the
        // set-up is `past-pastry`'s.
        let n = self.spec.nodes;
        let ids: Vec<_> = (0..n)
            .map(|a| self.net.sim.engine.node(a).state.me.id)
            .collect();
        let sw = Stopwatch::start();
        let sim = static_build(
            Sphere::new(n, 1),
            Config::default(),
            1,
            &ids,
            |_| NullApp,
            4,
        );
        let static_build_s = sw.secs();
        drop(sim);
        vec![("pastry.static_build_s", static_build_s)]
    }
}

impl Bench for OverlayRun {
    type Spec = OverlaySpec;
    type App = NullApp;

    fn build(spec: &OverlaySpec, seed: u64) -> OverlayRun {
        OverlayRun::setup(spec, seed)
    }

    fn chunks(spec: &OverlaySpec, seconds: f64) -> u64 {
        chunks(spec.chunks_per_s, seconds)
    }

    fn sim(&mut self) -> &mut PastrySim<NullApp, Sphere> {
        &mut self.sim
    }

    fn events(&self) -> u64 {
        self.events
    }

    fn verify(&mut self) -> Vec<String> {
        Vec::new()
    }

    fn without_checks(_: &OverlaySpec) -> Option<OverlaySpec> {
        None
    }

    fn core_counters(&self) -> CoreCounters {
        CoreCounters::default()
    }

    fn sample_certs(&self) -> Vec<FileCertificate> {
        Vec::new()
    }

    fn routed(rng: &mut Rng, _: &PastryState) -> (Id, ()) {
        (Id(rng.random()), ())
    }

    fn extras(&mut self, spans: &mut Spans) -> Values {
        let rounds = self.stabilize_rounds.max(1) as f64;
        vec![
            // Set-up of this workload is the static build.
            ("pastry.static_build_s", self.build_s),
            ("pastry.join_us_p50", self.join_us_p50(spans)),
            (
                "pastry.stabilize_ms",
                self.stabilize_ns as f64 / 1e6 / rounds,
            ),
            (
                "pastry.maint_msgs_per_node",
                self.maint_msgs as f64 / self.live_node_rounds.max(1) as f64,
            ),
            ("pastry.misrouted", self.misrouted as f64),
        ]
    }
}

fn chunks(per_s: f64, seconds: f64) -> u64 {
    (per_s * seconds).round().max(1.0) as u64
}

/// The result of measuring one workload.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty when correct.
    pub problems: Vec<String>,
    pub end_to_end: Values,
    pub per_layer: Values,
    /// Host-time distributions for the human reader: per kind of
    /// operation the sample count, the median, and the highest percentile
    /// with at least ten samples beyond it.
    pub timings: Vec<String>,
    /// The traced pass's span file.
    pub trace_jsonl: Option<String>,
}

/// Checks every timed section answers to: each operation reached exactly
/// one terminal event, and (the contract of the benchmark) none failed.
fn check_ops(timed: &Timed, problems: &mut Vec<String>) {
    let t = &timed.tally;
    if t.failed > 0 {
        problems.push(format!("{} of {} operations failed", t.failed, t.ops()));
    }
    let ended = t.insert_ok + t.insert_rejected + t.lookup_ok + t.reclaim_ok;
    if ended + t.failed < t.ops() {
        problems.push(format!(
            "{} operations reached no terminal event",
            t.ops() - ended - t.failed
        ));
    }
}

/// The untraced pass: set up, drive `chunks` chunks, check, set up twice
/// more.
pub fn untraced<W: Bench>(spec: &W::Spec, seed: u64, chunks: u64) -> (Report, Timed) {
    let mut report = Report::default();
    let sw = Stopwatch::start();
    let mut w = W::build(spec, seed);
    let mut setups = vec![sw.secs()];
    let timed = drive(&mut w, chunks, &mut Spans::new(false));
    let nodes = w.nodes();
    check_ops(&timed, &mut report.problems);
    report.problems.extend(w.verify());
    drop(w);
    while setups.len() < SETUP_REPEATS {
        let sw = Stopwatch::start();
        drop(W::build(spec, seed));
        setups.push(sw.secs());
    }
    let t = &timed.tally;
    report.timings.push(format!(
        "timed section: {chunks} chunks, {} operations, {:.3} s",
        t.ops(),
        timed.wall_s
    ));
    for (kind, samples) in [
        ("insert", &t.insert_ns),
        ("lookup", &t.lookup_ns),
        ("reclaim", &t.reclaim_ns),
    ] {
        if samples.count() > 0 {
            let (p, tail) = samples.tail();
            report.timings.push(format!(
                "{kind}: n = {}, p50 = {:.2} us, p{p} = {:.2} us",
                samples.count(),
                samples.median() / 1e3,
                tail / 1e3
            ));
        }
    }
    report.attempted = t.ops();
    report.failed = t.failed;
    report.end_to_end = vec![
        ("setup_s", median_f64(&setups)),
        ("ops_per_s", per(t.ops() as f64, timed.wall_s)),
        ("sim_msgs_per_s", per(timed.msgs as f64, timed.wall_s)),
        ("rss_kb_per_node", timed.rss_kb / nodes as f64),
        ("msgs_per_op", timed.model.msgs_per_op),
        ("sim_lookup_ms_p50", timed.model.sim_lookup_ms_p50),
        ("sim_lookup_ms_p99", timed.model.sim_lookup_ms_p99),
    ];
    (report, timed)
}

fn series_sum(tracer: &Tracer, name: &str) -> f64 {
    tracer.series().map_or(0, |s| {
        s.windows().map(|(_, w)| w.counter(name)).sum::<u64>()
    }) as f64
}

fn series_max(tracer: &Tracer, name: &str) -> f64 {
    tracer.series().map_or(0, |s| {
        s.windows()
            .filter_map(|(_, w)| w.gauge(name))
            .max()
            .unwrap_or(0)
    }) as f64
}

/// The traced pass. `reference` is an untraced section of `chunks` chunks
/// over the same seed; this pass drives the same chunks with the recorder
/// and the spans on, checks that the modelled system did not notice, times
/// each layer's functions on the workload's own data, and (where signature
/// checks are on) drives the chunks a third time with checks off.
pub fn traced<W: Bench>(spec: &W::Spec, seed: u64, chunks: u64, reference: &Timed) -> Report {
    let mut report = Report::default();
    let mut w = W::build(spec, seed);
    let before = w.core_counters();
    // The recorder the program already has: the metrics registry and a
    // one-second series, on after set-up so the counts cover the timed
    // section only.
    let engine = &mut w.sim().engine;
    engine.set_tracing(TraceConfig::metrics_only());
    engine.set_series(SeriesConfig::new(SERIES_WINDOW_US));
    let mut spans = Spans::new(true);
    let timed = drive(&mut w, chunks, &mut spans);
    let tracer = w.sim().engine.take_tracer();
    let after = w.core_counters();
    check_ops(&timed, &mut report.problems);
    if timed.model != reference.model {
        report.problems.push(format!(
            "the recorder changed the modelled system: traced {:?}, untraced {:?}",
            timed.model, reference.model
        ));
    }

    let t = &timed.tally;
    let ops = t.ops() as f64;
    // Shares are of the wall time of the *untraced* section: the same
    // operations, without the recorder's own cost.
    let wall_ns = reference.wall_s * 1e9;
    let traced_wall_ns = timed.wall_s * 1e9;

    // Counts the program's recorder took.
    let sent = series_sum(&tracer, "sent");
    let recv = series_sum(&tracer, "recv");
    let failed_sends = series_sum(&tracer, "failed_sends");
    let hops = &tracer.metrics.hop_count;
    let hop_total: u64 = hops
        .buckets()
        .iter()
        .enumerate()
        .map(|(i, c)| i as u64 * c)
        .sum();
    let hops_mean = per(hop_total as f64, hops.count() as f64);
    let n = w.nodes() as f64;
    if hops.count() > 0 && hops_mean >= (n.ln() / 16f64.ln()).ceil() {
        report.problems.push(format!(
            "mean route length {hops_mean:.2} is not below ceil(log16 N) for N = {n}"
        ));
    }
    // Events the engine dispatched for messages: every delivery, and for
    // a delivery to a dead node the bounce back to the sender. (Timer
    // events are not counted by the recorder.)
    let events = recv + 2.0 * failed_sends;

    // Unit costs on the workload's own data.
    let certs = w.sample_certs();
    let queue_depth = series_max(&tracer, "queue_depth");
    let mut units = layers::crypto();
    units.extend(layers::wire(certs.first()));
    let engine = &w.sim().engine;
    units.extend(layers::netsim(queue_depth as usize, engine.topology()));
    let live = engine.live_addrs();
    let states: Vec<&PastryState> = live
        .iter()
        .step_by((live.len() / UNIT_SAMPLE).max(1))
        .map(|&a| &engine.node(a).state)
        .collect();
    units.extend(layers::pastry(&states, seed));
    if certs.len() >= 8 {
        units.extend(layers::core(&certs, after.cache_entries_p99 as usize));
    }
    units.extend(layers::trace());
    let u = |name: &str| {
        units
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };

    // The same chunks with signature checks off: what verification costs.
    let mut verify_share = 0.0;
    let mut verifies_per_insert = 0.0;
    let mut verifies_per_lookup = 0.0;
    if let Some(unchecked) = W::without_checks(spec) {
        let mut w2 = W::build(&unchecked, seed);
        let plain = drive(&mut w2, chunks, &mut Spans::new(false));
        verify_share = 1.0 - per(plain.wall_s * 1e9, wall_ns);
        let saved = |with: f64, without: f64| per((with - without).max(0.0), u("crypto.verify_ns"));
        verifies_per_insert = saved(
            reference.tally.insert_ns.percentile(10.0),
            plain.tally.insert_ns.percentile(10.0),
        );
        verifies_per_lookup = saved(
            reference.tally.lookup_ns.percentile(10.0),
            plain.tally.lookup_ns.percentile(10.0),
        );
    }

    // The client signs each certificate, every holder its receipt.
    let signs = (t.inserts + t.receipts + t.reclaims + t.reclaim_receipts) as f64;
    let sign_share = per(signs * u("crypto.sign_ns"), wall_ns);
    let encoded_len_share = per(sent * u("wire.pastry_encoded_len_ns"), wall_ns);
    let dispatch_share = per(events * u("netsim.event_ns"), wall_ns);
    // What the nodes' transition functions cost per received message, by
    // the recorder's per-kind receive counts.
    let recv_kind = |kind: &str| {
        tracer
            .metrics
            .recv_by_kind()
            .filter(|(k, _)| *k == kind)
            .map(|(_, c)| c)
            .sum::<u64>() as f64
    };
    let step_route_ns = layers::step_msg(w.sim(), seed, |rng, state| {
        let (key, payload) = W::routed(rng, state);
        layers::routed(state, key, payload)
    });
    let step_heartbeat_ns = layers::step_msg(w.sim(), seed, |_, state| layers::heartbeat(state));
    let route_share = per(recv_kind("route") * step_route_ns, wall_ns);
    let maint_share = per(
        (recv_kind("heartbeat") + recv_kind("heartbeat_ack")) * step_heartbeat_ns,
        wall_ns,
    );
    let replicas = series_sum(&tracer, "replicas_stored");
    let admissions = (after.cache_entries + after.cache_evictions) as f64
        - (before.cache_entries + before.cache_evictions) as f64;
    let evictions = (after.cache_evictions - before.cache_evictions) as f64;
    let storage_share = per(
        replicas * u("core.store_insert_ns")
            + t.reclaim_receipts as f64 * u("core.store_remove_ns")
            + t.lookup_ok as f64 * u("core.cache_lookup_ns")
            + admissions.max(0.0) * u("core.cache_offer_ns")
            + evictions * u("core.cache_evict_ns"),
        wall_ns,
    );
    let attributed = sign_share
        + verify_share
        + encoded_len_share
        + dispatch_share
        + route_share
        + maint_share
        + storage_share;
    let harness_share = per(spans.harness_self_ns() as f64, traced_wall_ns);

    let mut out: Values = vec![
        (
            "crypto.signs_per_insert",
            per((t.inserts + t.receipts) as f64, t.inserts as f64),
        ),
        ("crypto.sign_share", sign_share),
        ("crypto.verify_share", verify_share),
        ("crypto.est_verifies_per_insert", verifies_per_insert),
        ("crypto.est_verifies_per_lookup", verifies_per_lookup),
        (
            "wire.bytes_per_msg",
            per(timed.bytes as f64, timed.msgs as f64),
        ),
        ("wire.bytes_per_op", timed.model.bytes_per_op),
        ("wire.encoded_len_share", encoded_len_share),
        ("netsim.queue_depth_max", queue_depth),
        (
            "netsim.in_flight_max",
            series_max(&tracer, "in_flight_msgs"),
        ),
        ("netsim.events_per_op", per(events, ops)),
        ("netsim.step_events_per_op", per(w.events() as f64, ops)),
        ("netsim.dropped", series_sum(&tracer, "dropped")),
        ("netsim.duplicated", series_sum(&tracer, "duplicated")),
        ("netsim.failed_sends", failed_sends),
        ("netsim.dispatch_share", dispatch_share),
        ("pastry.hops_mean", hops_mean),
        ("pastry.hops_p99", hops.percentile(99).unwrap_or(0) as f64),
        ("pastry.route_msgs_per_op", per(hop_total as f64, ops)),
        ("pastry.repair_msgs", series_sum(&tracer, "repair_msgs")),
        ("pastry.suspicions", series_sum(&tracer, "suspicions")),
        ("pastry.step_route_ns", step_route_ns),
        ("pastry.step_heartbeat_ns", step_heartbeat_ns),
        ("pastry.route_share", route_share),
        ("pastry.maint_share", maint_share),
        ("core.replicas_stored", replicas),
        ("core.replica_diversions", series_sum(&tracer, "diversions")),
        ("core.file_diversions", t.file_diversions as f64),
        (
            "core.cache_hits",
            (after.cache_hits - before.cache_hits) as f64,
        ),
        ("core.cache_admissions", admissions.max(0.0)),
        ("core.cache_evictions", evictions),
        ("core.cache_entries_p99", after.cache_entries_p99 as f64),
        ("core.cache_hit_ratio", timed.model.cache_hit_ratio),
        ("core.utilization", after.utilization),
        ("core.reject_ratio", timed.model.reject_ratio),
        ("core.retries", series_sum(&tracer, "retries")),
        ("core.storage_share", storage_share),
        ("trace.overhead_ratio", per(traced_wall_ns, wall_ns)),
        ("workload.gen_ns_per_op", per(timed.gen_s * 1e9, ops)),
        (
            "harness.lookup_us_p50",
            reference.tally.lookup_ns.median() / 1e3,
        ),
        (
            "harness.insert_us_p50",
            reference.tally.insert_ns.median() / 1e3,
        ),
        (
            "harness.insert_us_p99",
            reference.tally.insert_ns.percentile(99.0) / 1e3,
        ),
        (
            "harness.lookup_us_p99",
            reference.tally.lookup_ns.percentile(99.0) / 1e3,
        ),
        (
            "harness.reclaim_us_p50",
            reference.tally.reclaim_ns.median() / 1e3,
        ),
        ("harness.sim_insert_ms_p50", timed.model.sim_insert_ms_p50),
        ("harness.fail_ratio", timed.model.fail_ratio),
        ("harness.segment_cv", reference.segment_cv()),
        ("harness.self_share", harness_share),
        ("harness.unattributed_share", 1.0 - attributed),
        ("harness.span_count", spans.count() as f64),
    ];
    out.extend(units);
    out.extend(w.extras(&mut spans));
    report.attempted = t.ops();
    report.failed = t.failed;
    report.per_layer = out;
    report.trace_jsonl = Some(spans.to_jsonl());
    report
}
