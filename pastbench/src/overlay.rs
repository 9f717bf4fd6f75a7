//! `overlay_churn`: the engine and the overlay alone, at 100 000 nodes.
//!
//! No `past-core`, no `past-crypto`: a statically built Pastry ring of
//! `NullApp` nodes that routes keys while nodes fail and the ring
//! stabilizes. A storage- or crypto-layer change must read "no change"
//! here.
//!
//! Protocol joins are *not* part of the timed section. A node that joins a
//! ring in which other nodes failed earlier can leave two nodes each
//! believing the other closer to some keys: on four seeds in ten, one or
//! two routes of 500 000 then looped until the hop limit dropped them,
//! however often they were sent again, and the benchmark admits no failed
//! operation. The traced pass times joins after its timed section instead
//! ([`OverlayRun::join_us_p50`]).

use crate::clock::{Samples, Stopwatch};
use crate::past::{pick_victims, SMOKE_CHUNKS_PER_S};
use crate::spans::{Name, Spans};
use crate::tally::{Section, Tally, Workload, QUIET_BUDGET};
use past_crypto::rng::Rng;
use past_netsim::Sphere;
use past_pastry::{random_ids, static_build, Config, Id, NullApp, PastrySim};

/// Routes between two clock reads of the timed section: the slices
/// `harness.segment_cv` is taken over.
const ROUTE_SLICE: usize = 10_000;

/// Candidate contacts a joining node probes for the nearest one.
const JOIN_CONTACT_SAMPLE: usize = 8;

/// Protocol joins the traced pass times.
const JOINS_TIMED: usize = 100;

/// The workload's shape. A chunk is one churn round — `kills` failures and
/// one `stabilize()` — followed by `routes` routes, one in flight.
#[derive(Clone, Debug)]
pub struct OverlaySpec {
    pub nodes: usize,
    pub kills: usize,
    pub routes: usize,
    /// Chunks a timed section runs per second of `--seconds`, sized on
    /// the reference box so that the section takes about that long.
    pub chunks_per_s: f64,
}

impl OverlaySpec {
    pub fn overlay_churn() -> OverlaySpec {
        OverlaySpec {
            nodes: 100_000,
            kills: 500,
            routes: 250_000,
            chunks_per_s: 0.3,
        }
    }

    /// The same workload shrunk to run in well under a second.
    pub fn smoke(mut self) -> OverlaySpec {
        self.nodes /= 200;
        self.kills /= 100;
        self.routes /= 200;
        self.chunks_per_s = SMOKE_CHUNKS_PER_S;
        self
    }
}

/// One generated route.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Route {
    pub from: u32,
    pub key: Id,
}

/// A set-up overlay workload.
pub struct OverlayRun {
    pub spec: OverlaySpec,
    pub sim: PastrySim<NullApp, Sphere>,
    /// Host time of the static build, seconds.
    pub build_s: f64,
    rng: Rng,
    alive: Vec<u32>,
    kills: Vec<u32>,
    chunk: Vec<Route>,
    op_no: u64,
    /// Events the engine processed, counted in the traced pass only.
    pub events: u64,
    /// Host time spent in `stabilize()`, ns, and rounds run.
    pub stabilize_ns: u64,
    pub stabilize_rounds: u64,
    /// Live nodes summed over the churn rounds (the divisor of
    /// maintenance messages per node per round).
    pub live_node_rounds: u64,
    /// Messages sent by the churn rounds.
    pub maint_msgs: u64,
    /// Routes delivered once, but not at the live node closest to the key.
    pub misrouted: u64,
}

impl OverlayRun {
    /// Builds the ring: everything `setup_s` covers.
    pub fn setup(spec: &OverlaySpec, seed: u64) -> OverlayRun {
        let n = spec.nodes;
        let mut rng = Rng::seed_from_u64(seed ^ 0x6f76_6572);
        let ids = random_ids(n, &mut rng);
        let sw = Stopwatch::start();
        let sim = static_build(
            // The topology needs a slot for every node that joins later.
            Sphere::new(n + JOINS_TIMED, seed),
            Config::default(),
            seed,
            &ids,
            |_| NullApp,
            3,
        );
        let build_s = sw.secs();
        OverlayRun {
            spec: spec.clone(),
            sim,
            build_s,
            rng,
            alive: (0..n as u32).collect(),
            kills: Vec::new(),
            chunk: Vec::new(),
            op_no: 0,
            events: 0,
            stabilize_ns: 0,
            stabilize_rounds: 0,
            live_node_rounds: 0,
            maint_msgs: 0,
            misrouted: 0,
        }
    }

    /// The routes of the chunk generated last.
    #[cfg(test)]
    pub fn chunk_routes(&self) -> &[Route] {
        &self.chunk
    }

    fn exec_route(&mut self, route: Route, t: &mut Tally, spans: &mut Spans) {
        self.op_no += 1;
        let issued_us = self.sim.engine.now().as_micros();
        spans.enter(Name::Route, self.op_no);
        let sw = Stopwatch::start();
        spans.enter(Name::SimRoute, self.op_no);
        self.sim.route(route.from as usize, route.key, ());
        spans.exit();
        spans.enter(Name::SimDrain, self.op_no);
        if spans.enabled() {
            self.events += self.sim.engine.run_until_quiet(QUIET_BUDGET);
        }
        let delivered = self.sim.drain_deliveries();
        spans.exit();
        t.lookup_ns.push(sw.ns());
        t.lookups += 1;
        // Exactly one delivery. Whether it is at the live node closest to
        // the key is counted, not required: the overlay promises the
        // closest node only once repair has converged.
        match delivered.as_slice() {
            [rec] => {
                t.lookup_ok += 1;
                t.sim_lookup_us.push(rec.at.as_micros() - issued_us);
                let root = self.sim.true_root(&route.key).map(|h| h.addr);
                self.misrouted += u64::from(Some(rec.delivered_at) != root);
            }
            _ => t.failed += 1,
        }
        spans.exit();
    }

    /// Kills the chunk's victims and runs one heartbeat round on every
    /// live node: failure detection and leaf-set repair.
    fn exec_churn(&mut self, spans: &mut Spans) {
        self.op_no += 1;
        spans.enter(Name::Churn, self.op_no);
        spans.enter(Name::Kill, self.op_no);
        for &a in &self.kills {
            self.sim.engine.kill(a as usize);
        }
        spans.exit();
        spans.enter(Name::SimStabilize, self.op_no);
        let sw = Stopwatch::start();
        self.sim.stabilize();
        self.stabilize_ns += sw.ns();
        self.stabilize_rounds += 1;
        spans.exit();
        self.sim.engine.drain_outputs();
        spans.exit();
    }

    /// Median host time of a protocol join (`join_node_nearby`), µs, over
    /// [`JOINS_TIMED`] joins. Run after the timed section: the ring is not
    /// routed on afterwards.
    pub fn join_us_p50(&mut self, spans: &mut Spans) -> f64 {
        let mut times = Samples::with_capacity(JOINS_TIMED);
        for _ in 0..JOINS_TIMED {
            self.op_no += 1;
            let id = Id(self.rng.random());
            spans.enter(Name::Join, self.op_no);
            let sw = Stopwatch::start();
            spans.enter(Name::SimJoinNearby, self.op_no);
            self.sim.join_node_nearby(id, NullApp, JOIN_CONTACT_SAMPLE);
            spans.exit();
            times.push(sw.ns());
            self.sim.engine.drain_outputs();
            spans.exit();
        }
        times.median() / 1e3
    }
}

impl Workload for OverlayRun {
    fn nodes(&self) -> usize {
        self.spec.nodes
    }

    fn next_chunk(&mut self) {
        self.chunk.clear();
        self.kills.clear();
        pick_victims(
            &mut self.rng,
            &mut self.alive,
            self.spec.nodes,
            self.spec.kills,
            &mut self.kills,
        );
        for _ in 0..self.spec.routes {
            let from = self.alive[self.rng.random_range(0..self.alive.len())];
            self.chunk.push(Route {
                from,
                key: Id(self.rng.random()),
            });
        }
    }

    fn run_chunk(&mut self, section: &mut Section, spans: &mut Spans) {
        let msgs0 = self.net_totals().0;
        section.churn(|| self.exec_churn(spans));
        self.maint_msgs += self.net_totals().0 - msgs0;
        self.live_node_rounds += self.alive.len() as u64;
        let routes = std::mem::take(&mut self.chunk);
        for slice in routes.chunks(ROUTE_SLICE) {
            section.ops(|t| {
                for &route in slice {
                    self.exec_route(route, t, spans);
                }
            });
        }
        self.chunk = routes;
    }

    fn net_totals(&self) -> (u64, u64) {
        let st = &self.sim.engine.stats;
        (st.total_msgs, st.total_bytes)
    }
}
