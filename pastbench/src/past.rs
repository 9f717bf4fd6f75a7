//! The four PAST workloads: one driver, four specifications.
//!
//! Everything here calls the crates' public functions only. A workload is
//! a [`PastSpec`]: how the network is built, what the set-up preloads, and
//! the round of client operations the timed section repeats.

use crate::clock::Stopwatch;
use crate::spans::{Name, Spans};
use crate::tally::{Section, Tally, Workload, QUIET_BUDGET};
use past_core::{BuildMode, ContentRef, FileId, PastConfig, PastEvent, PastNetwork, PastOut};
use past_crypto::rng::Rng;
use past_netsim::{FaultConfig, Sphere};
use past_pastry::{random_ids, Config as PastryConfig, RecoveryConfig};
use past_workload::{Capacities, FileSizes, Zipf};
use std::collections::HashMap;

const MIB: u64 = 1 << 20;

/// Usage quota per smartcard: never the constraint, and small enough that
/// the recorder's sum of all nodes' remaining quota fits in a `u64`.
const QUOTA: u64 = 1 << 44;

/// Node storage capacities.
#[derive(Clone, Debug)]
pub enum Caps {
    /// Every node the same.
    Uniform(u64),
    /// `past-workload`'s log-uniform band around a mean.
    Spread(Capacities),
}

/// What the set-up inserts before the clock starts.
#[derive(Clone, Copy, Debug)]
pub enum Preload {
    /// This many files.
    Files(usize),
    /// Files until global utilization reaches this fraction.
    Utilization(f64),
}

/// Chunks per second of `--seconds` of a shrunk workload: the default 0.3 s
/// of `--smoke` then runs nine chunks, enough for `harness.segment_cv`.
pub const SMOKE_CHUNKS_PER_S: f64 = 30.0;

/// Failures stop when one node in this many has failed.
const MAX_DEAD_SHARE: usize = 10;

/// Moves up to `kills` random nodes from `alive` to `victims`. No more
/// failures once a tenth of the `nodes` built is gone: a long section must
/// not wear the network down to data loss.
pub fn pick_victims(
    rng: &mut Rng,
    alive: &mut Vec<u32>,
    nodes: usize,
    kills: usize,
    victims: &mut Vec<u32>,
) {
    let floor = nodes - nodes / MAX_DEAD_SHARE;
    for _ in 0..kills.min(alive.len().saturating_sub(floor)) {
        let i = rng.random_range(0..alive.len());
        victims.push(alive.swap_remove(i));
    }
}

/// Node failures at the start of every chunk (`lossy_churn`).
#[derive(Clone, Copy, Debug)]
pub struct Churn {
    /// Nodes killed per chunk, followed by one `stabilize()` round.
    pub kills: usize,
}

/// One PAST workload.
#[derive(Clone, Debug)]
pub struct PastSpec {
    pub name: &'static str,
    pub nodes: usize,
    pub past: PastConfig,
    pub caps: Caps,
    pub sizes: FileSizes,
    pub preload: Preload,
    /// Client operations per round, issued as reclaims, then inserts each
    /// followed by its share of the lookups.
    pub inserts: usize,
    pub lookups: usize,
    pub reclaims: usize,
    pub rounds_per_chunk: usize,
    /// Lookups issued before one `run()`; 1 everywhere but `zipf_read`.
    pub in_flight: usize,
    /// Lookups follow Zipf(1.0) over the first `n` live files; `None`
    /// picks uniformly among all live files.
    pub zipf_n: Option<usize>,
    pub faults: Option<FaultConfig>,
    pub churn: Option<Churn>,
    /// Keeps a full system full: around this utilization a round issues
    /// up to three more inserts, the more the further the system has
    /// fallen. (A round that replaces one file by one file loses bytes,
    /// since a full system refuses large files first.) `InsertFailed` is
    /// then the expected answer of the system, not a failed operation.
    pub hold_utilization: Option<f64>,
    /// Chunks a timed section runs per second of `--seconds`, sized on
    /// the reference box so that the section takes about that long.
    pub chunks_per_s: f64,
}

impl PastSpec {
    /// The paper's default, fully certified path.
    pub fn signed_archive() -> PastSpec {
        PastSpec {
            name: "signed_archive",
            nodes: 10_000,
            past: PastConfig {
                default_k: 3,
                ..PastConfig::default()
            },
            caps: Caps::Uniform(64 * MIB),
            sizes: FileSizes {
                max_bytes: MIB,
                ..FileSizes::default()
            },
            preload: Preload::Files(400),
            inserts: 3,
            lookups: 9,
            reclaims: 1,
            rounds_per_chunk: 16,
            in_flight: 1,
            zipf_n: Some(20_000),
            faults: None,
            churn: None,
            hold_utilization: None,
            chunks_per_s: 9.0,
        }
    }

    /// Read-heavy, signature-free, many events queued at once.
    pub fn zipf_read() -> PastSpec {
        PastSpec {
            name: "zipf_read",
            nodes: 2_000,
            past: PastConfig {
                default_k: 3,
                crypto_checks: false,
                ..PastConfig::default()
            },
            caps: Caps::Uniform(64 * MIB),
            sizes: FileSizes {
                max_bytes: MIB,
                ..FileSizes::default()
            },
            preload: Preload::Files(8_000),
            inserts: 0,
            lookups: 64,
            reclaims: 0,
            rounds_per_chunk: 512,
            in_flight: 64,
            zipf_n: Some(8_000),
            faults: None,
            churn: None,
            hold_utilization: None,
            chunks_per_s: 8.0,
        }
    }

    /// E7's regime: a nearly full system under replace-one-file churn.
    pub fn fill_churn() -> PastSpec {
        let mean = 4 * MIB;
        PastSpec {
            name: "fill_churn",
            nodes: 200,
            past: PastConfig {
                default_k: 3,
                crypto_checks: false,
                t_pri: 0.1,
                t_div: 0.05,
                ..PastConfig::default()
            },
            caps: Caps::Spread(Capacities {
                mean_bytes: mean,
                spread: 3.2,
            }),
            sizes: FileSizes {
                tail_min: 131_072.0,
                max_bytes: mean / 24,
                ..FileSizes::default()
            },
            preload: Preload::Utilization(0.93),
            inserts: 1,
            lookups: 4,
            reclaims: 1,
            rounds_per_chunk: 400,
            in_flight: 1,
            zipf_n: None,
            faults: None,
            churn: None,
            hold_utilization: Some(0.93),
            chunks_per_s: 3.7,
        }
    }

    /// Loss, duplication, jitter and node failures with the retry layer on.
    pub fn lossy_churn() -> PastSpec {
        PastSpec {
            name: "lossy_churn",
            nodes: 2_000,
            past: PastConfig {
                default_k: 3,
                crypto_checks: false,
                request_timeout_us: Some(800_000),
                request_attempts: 16,
                ..PastConfig::default()
            },
            caps: Caps::Uniform(400 * MIB),
            sizes: FileSizes {
                max_bytes: MIB,
                ..FileSizes::default()
            },
            preload: Preload::Files(3_000),
            inserts: 1,
            lookups: 8,
            reclaims: 0,
            rounds_per_chunk: 1_000,
            in_flight: 1,
            zipf_n: Some(20_000),
            faults: Some(FaultConfig {
                loss: 0.05,
                duplicate: 0.01,
                jitter_us: 20_000,
            }),
            churn: Some(Churn { kills: 4 }),
            hold_utilization: None,
            chunks_per_s: 2.1,
        }
    }

    /// The same workload shrunk to run in well under a second.
    pub fn smoke(mut self) -> PastSpec {
        self.nodes = (self.nodes / 25).max(60);
        self.preload = match self.preload {
            Preload::Files(n) => Preload::Files((n / 40).max(40)),
            p @ Preload::Utilization(_) => p,
        };
        if let Caps::Spread(c) = &mut self.caps {
            // Fewer bytes to fill, same ratio of file size to capacity.
            c.mean_bytes /= 4;
            self.sizes.max_bytes /= 4;
            self.sizes.tail_min /= 4.0;
        }
        if self.hold_utilization.is_some() {
            // Sixty nodes leave diversion little choice: a small system
            // cannot be held as full as a large one.
            self.preload = Preload::Utilization(0.85);
            self.hold_utilization = Some(0.85);
        }
        self.rounds_per_chunk = (self.rounds_per_chunk / 16).max(2);
        if let Some(c) = &mut self.churn {
            c.kills = 1;
        }
        self.zipf_n = self.zipf_n.map(|n| n / 40);
        self.chunks_per_s = SMOKE_CHUNKS_PER_S;
        self
    }
}

/// One client operation, generated before the clock starts.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Insert {
        client: u32,
        name: String,
        content: ContentRef,
    },
    Lookup {
        client: u32,
        file: FileId,
    },
    Reclaim {
        client: u32,
        file: FileId,
    },
}

/// A stored file the generator may look up or reclaim.
#[derive(Clone, Copy, Debug)]
struct LiveFile {
    id: FileId,
    owner: u32,
}

/// A set-up PAST workload.
pub struct PastRun {
    pub spec: PastSpec,
    pub net: PastNetwork<Sphere>,
    rng: Rng,
    zipf: Option<Zipf>,
    /// Live files; the position is the popularity rank.
    live: Vec<LiveFile>,
    /// Addresses of live nodes.
    alive: Vec<u32>,
    named: u64,
    chunk: Vec<Op>,
    kills: Vec<u32>,
    /// Batch bookkeeping: `issued[node]` is the stamp and file of the
    /// lookup that node has in flight.
    issued: Vec<(u64, FileId)>,
    stamp: u64,
    op_no: u64,
    /// Events the engine processed, counted in the traced pass only.
    pub events: u64,
}

impl PastRun {
    /// Builds the network and preloads it: everything `setup_s` covers.
    pub fn setup(spec: &PastSpec, seed: u64) -> PastRun {
        let n = spec.nodes;
        let mut rng = Rng::seed_from_u64(seed ^ 0x7061_7374);
        let ids = random_ids(n, &mut rng);
        let caps = match &spec.caps {
            Caps::Uniform(c) => vec![*c; n],
            Caps::Spread(c) => c.sample_n(n, &mut rng),
        };
        let mut net = PastNetwork::build(
            Sphere::new(n, seed),
            PastryConfig::default(),
            spec.past,
            seed,
            &ids,
            &caps,
            &vec![QUOTA; n],
            BuildMode::Static,
        );
        if spec.past.request_timeout_us.is_some() {
            net.sim.set_recovery(RecoveryConfig::default());
        }
        let mut run = PastRun {
            spec: spec.clone(),
            net,
            rng,
            zipf: spec.zipf_n.map(|n| Zipf::new(n, 1.0)),
            live: Vec::new(),
            alive: (0..n as u32).collect(),
            named: 0,
            chunk: Vec::new(),
            kills: Vec::new(),
            issued: vec![(0, FileId(past_crypto::Digest160([0; 20]))); n],
            stamp: 0,
            op_no: 0,
            events: 0,
        };
        run.preload();
        if let Some(f) = spec.faults {
            run.net.sim.engine.set_faults(f, seed ^ 0xfa17);
        }
        run
    }

    fn preload(&mut self) {
        let mut scratch = Tally::default();
        let mut spans = Spans::new(false);
        loop {
            let done = match self.spec.preload {
                Preload::Files(n) => self.live.len() >= n,
                Preload::Utilization(u) => self.net.utilization().2 >= u,
            };
            if done {
                break;
            }
            let (client, name, content) = self.gen_insert();
            self.exec_insert(client, &name, content, &mut scratch, &mut spans);
        }
    }

    fn client(&mut self) -> u32 {
        self.alive[self.rng.random_range(0..self.alive.len())]
    }

    /// A new file: its inserting client, its name and its content.
    fn gen_insert(&mut self) -> (u32, String, ContentRef) {
        let client = self.client();
        let size = self.spec.sizes.sample(&mut self.rng);
        let name = format!("{}-{}", self.spec.name, self.named);
        self.named += 1;
        let content = ContentRef::synthetic(client as usize, &name, size);
        (client, name, content)
    }

    /// A lookup by a client not in `busy` (the clients of the batch being
    /// filled: the node coalesces a client's duplicate lookups, and the
    /// harness matches a batch's answers by client).
    fn gen_lookup(&mut self, busy: &mut Vec<u32>) -> Op {
        let rank = match &self.zipf {
            Some(z) => loop {
                let r = z.sample(&mut self.rng);
                if r < self.live.len() {
                    break r;
                }
            },
            None => self.rng.random_range(0..self.live.len()),
        };
        let client = loop {
            let c = self.client();
            if !busy.contains(&c) {
                break c;
            }
        };
        busy.push(client);
        Op::Lookup {
            client,
            file: self.live[rank].id,
        }
    }

    fn push_lookup(&mut self, busy: &mut Vec<u32>) {
        let op = self.gen_lookup(busy);
        self.chunk.push(op);
        if busy.len() == self.spec.in_flight {
            busy.clear();
        }
    }

    /// A reclaim of a random live file by its owner. The file leaves the
    /// live list now, so no later lookup of this chunk can target it; the
    /// last file takes over its rank.
    fn gen_reclaim(&mut self) -> Op {
        let i = self.rng.random_range(0..self.live.len());
        let f = self.live.swap_remove(i);
        Op::Reclaim {
            client: f.owner,
            file: f.id,
        }
    }

    /// The operations of the chunk generated last.
    #[cfg(test)]
    pub fn chunk_ops(&self) -> &[Op] {
        &self.chunk
    }

    /// Issues pending events to the engine until it is quiet and returns
    /// what the nodes emitted. The traced pass also counts the events.
    fn run_net(&mut self, spans: &mut Spans) -> Vec<PastEvent> {
        spans.enter(Name::NetRun, self.op_no);
        if spans.enabled() {
            self.events += self.net.sim.engine.run_until_quiet(QUIET_BUDGET);
        }
        let events = self.net.run();
        spans.exit();
        events
    }

    fn exec_insert(
        &mut self,
        client: u32,
        name: &str,
        content: ContentRef,
        t: &mut Tally,
        spans: &mut Spans,
    ) {
        self.op_no += 1;
        let k = self.spec.past.default_k;
        let issued_us = self.net.sim.engine.now().as_micros();
        spans.enter(Name::Insert, self.op_no);
        let sw = Stopwatch::start();
        spans.enter(Name::NetInsert, self.op_no);
        let request = self.net.insert(client as usize, name, content, k).ok();
        spans.exit();
        let events = self.run_net(spans);
        t.insert_ns.push(sw.ns());
        spans.enter(Name::Tally, self.op_no);
        t.inserts += 1;
        let mut terminal = 0;
        let mut failed = request.is_none();
        for (at, addr, out) in &events {
            match out {
                PastOut::InsertOk {
                    request_id,
                    file_id,
                    attempts,
                    receipts,
                } if *addr == client as usize && Some(*request_id) == request => {
                    terminal += 1;
                    t.insert_ok += 1;
                    t.file_diversions += u64::from(*attempts > 1);
                    t.receipts += u64::from(*receipts);
                    t.sim_insert_us.push(at.as_micros() - issued_us);
                    self.live.push(LiveFile {
                        id: *file_id,
                        owner: client,
                    });
                }
                PastOut::InsertFailed { .. } => {
                    terminal += 1;
                    if self.spec.hold_utilization.is_some() {
                        t.insert_rejected += 1;
                    } else {
                        failed = true;
                    }
                }
                _ => {}
            }
        }
        t.failed += u64::from(failed || terminal != 1);
        spans.exit();
        spans.exit();
    }

    fn exec_lookups(&mut self, batch: &[(u32, FileId)], t: &mut Tally, spans: &mut Spans) {
        self.op_no += 1;
        self.stamp += 1;
        spans.enter(Name::Lookup, self.op_no);
        let sw = Stopwatch::start();
        spans.enter(Name::NetLookup, self.op_no);
        for &(client, file) in batch {
            self.issued[client as usize] = (self.stamp, file);
            self.net.lookup(client as usize, file);
        }
        spans.exit();
        let events = self.run_net(spans);
        t.lookup_ns.push(sw.ns() / batch.len() as u64);
        spans.enter(Name::Tally, self.op_no);
        t.lookups += batch.len() as u64;
        let mut ok = 0u64;
        let mut bad = 0u64;
        for (at, addr, out) in &events {
            match out {
                PastOut::LookupOk {
                    file_id,
                    from_cache,
                    started_us,
                    ..
                } => {
                    // Exactly one answer per issued lookup: the stamp is
                    // cleared when the answer arrives.
                    if self.issued[*addr] == (self.stamp, *file_id) {
                        self.issued[*addr].0 = 0;
                        ok += 1;
                        t.cache_hits += u64::from(*from_cache);
                        t.sim_lookup_us.push(at.as_micros() - started_us);
                    } else {
                        bad += 1;
                    }
                }
                PastOut::LookupFailed { .. } => bad += 1,
                _ => {}
            }
        }
        t.lookup_ok += ok;
        // Answers missing altogether are failures too.
        t.failed += bad.max(batch.len() as u64 - ok);
        spans.exit();
        spans.exit();
    }

    fn exec_reclaim(&mut self, client: u32, file: FileId, t: &mut Tally, spans: &mut Spans) {
        self.op_no += 1;
        spans.enter(Name::Reclaim, self.op_no);
        let sw = Stopwatch::start();
        spans.enter(Name::NetReclaim, self.op_no);
        self.net.reclaim(client as usize, file);
        spans.exit();
        let events = self.run_net(spans);
        t.reclaim_ns.push(sw.ns());
        spans.enter(Name::Tally, self.op_no);
        t.reclaims += 1;
        // Every replica holder answers with a receipt: at least one
        // credit and no refusal.
        let mut credited = false;
        let mut refused = false;
        for (_, _, out) in &events {
            match out {
                PastOut::ReclaimCredited { file_id, .. } if *file_id == file => {
                    credited = true;
                    t.reclaim_receipts += 1;
                }
                PastOut::ReclaimDenied { .. } | PastOut::ReclaimFailed { .. } => refused = true,
                _ => {}
            }
        }
        if credited && !refused {
            t.reclaim_ok += 1;
        } else {
            t.failed += 1;
        }
        spans.exit();
        spans.exit();
    }

    /// Kills the chunk's victims, runs one stabilize round and drains the
    /// maintenance traffic it causes.
    fn exec_churn(&mut self, spans: &mut Spans) {
        self.op_no += 1;
        spans.enter(Name::Churn, self.op_no);
        spans.enter(Name::Kill, self.op_no);
        for &a in &self.kills {
            self.net.sim.engine.kill(a as usize);
        }
        spans.exit();
        spans.enter(Name::SimStabilize, self.op_no);
        self.net.sim.stabilize();
        spans.exit();
        self.run_net(spans);
        spans.exit();
    }

    /// Checks the stored state after the timed section: `sample` live
    /// files are retrievable and held by `k` live nodes (by at least one
    /// where nodes were killed: re-replication is the protocol's own
    /// pace). Returns what does not hold.
    pub fn verify(&mut self, sample: usize) -> Vec<String> {
        let mut problems = Vec::new();
        let utilization = self.net.utilization().2;
        if let Some(target) = self.spec.hold_utilization {
            if utilization < target - 0.03 {
                problems.push(format!(
                    "utilization fell to {utilization:.3}, more than 0.03 below {target}"
                ));
            }
        }
        // The check is of the stored state, not of the retry layer.
        self.net.sim.engine.set_faults(FaultConfig::default(), 0);
        let take = sample.min(self.live.len());
        let mut picked: Vec<LiveFile> = Vec::with_capacity(take);
        let mut seen = HashMap::with_capacity(take);
        while picked.len() < take {
            let f = self.live[self.rng.random_range(0..self.live.len())];
            if seen.insert(f.id, 0usize).is_none() {
                picked.push(f);
            }
        }
        for a in self.net.sim.engine.live_addrs() {
            for (id, _) in self.net.sim.engine.node(a).app.store.files() {
                if let Some(c) = seen.get_mut(id) {
                    *c += 1;
                }
            }
        }
        // Where nodes fail, re-replication runs at the protocol's own pace
        // (and over a lossy network): only retrievability is required.
        let k = usize::from(self.spec.past.default_k);
        let short = seen.values().filter(|&&c| c != k).count();
        if short > 0 && self.spec.churn.is_none() {
            problems.push(format!(
                "{short} of {take} sampled files lack their replicas"
            ));
        }
        let mut scratch = Tally::default();
        let mut spans = Spans::new(false);
        for f in &picked {
            let client = self.client();
            self.exec_lookups(&[(client, f.id)], &mut scratch, &mut spans);
        }
        if scratch.failed > 0 || scratch.lookup_ok != take as u64 {
            problems.push(format!(
                "{} of {take} sampled files are not retrievable",
                take as u64 - scratch.lookup_ok
            ));
        }
        problems
    }
}

impl Workload for PastRun {
    fn nodes(&self) -> usize {
        self.spec.nodes
    }

    fn next_chunk(&mut self) {
        self.chunk.clear();
        self.kills.clear();
        if let Some(c) = self.spec.churn {
            pick_victims(
                &mut self.rng,
                &mut self.alive,
                self.spec.nodes,
                c.kills,
                &mut self.kills,
            );
        }
        let s = self.spec.clone();
        // Lookups after each insert; the rest close the round.
        let share = s.lookups.checked_div(s.inserts).unwrap_or(0);
        // Extra inserts per round: one at the target, three from two
        // points under it.
        let refill = s.hold_utilization.map_or(0.0, |target| {
            ((target + 0.01 - self.net.utilization().2) / 0.01).clamp(0.0, 3.0)
        });
        let mut busy = Vec::with_capacity(s.in_flight);
        for _ in 0..s.rounds_per_chunk {
            for _ in 0..s.reclaims {
                let op = self.gen_reclaim();
                self.chunk.push(op);
            }
            let refills = refill as usize + usize::from(self.rng.random_bool(refill.fract()));
            for _ in 0..s.inserts + refills {
                let (client, name, content) = self.gen_insert();
                self.chunk.push(Op::Insert {
                    client,
                    name,
                    content,
                });
                // The executor runs a batch before any other operation.
                busy.clear();
                for _ in 0..share {
                    self.push_lookup(&mut busy);
                }
            }
            for _ in 0..s.lookups.saturating_sub(share * (s.inserts + refills)) {
                self.push_lookup(&mut busy);
            }
        }
    }

    fn run_chunk(&mut self, section: &mut Section, spans: &mut Spans) {
        if self.spec.churn.is_some() {
            section.churn(|| self.exec_churn(spans));
        }
        section.ops(|t| self.exec_chunk(t, spans));
    }

    fn net_totals(&self) -> (u64, u64) {
        let st = &self.net.sim.engine.stats;
        (st.total_msgs, st.total_bytes)
    }
}

impl PastRun {
    /// Executes the generated chunk: lookups in batches of `in_flight`,
    /// every other operation alone.
    fn exec_chunk(&mut self, t: &mut Tally, spans: &mut Spans) {
        let ops = std::mem::take(&mut self.chunk);
        let mut batch: Vec<(u32, FileId)> = Vec::with_capacity(self.spec.in_flight);
        for op in &ops {
            if let Op::Lookup { client, file } = op {
                batch.push((*client, *file));
                if batch.len() == self.spec.in_flight {
                    self.exec_lookups(&batch, t, spans);
                    batch.clear();
                }
                continue;
            }
            if !batch.is_empty() {
                self.exec_lookups(&batch, t, spans);
                batch.clear();
            }
            match op {
                Op::Insert {
                    client,
                    name,
                    content,
                } => self.exec_insert(*client, name, *content, t, spans),
                Op::Reclaim { client, file } => self.exec_reclaim(*client, *file, t, spans),
                Op::Lookup { .. } => {}
            }
        }
        if !batch.is_empty() {
            self.exec_lookups(&batch, t, spans);
        }
        self.chunk = ops;
    }
}
