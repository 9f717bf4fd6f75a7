//! High-level PAST network API: the entry point examples and experiments
//! drive.
//!
//! Wraps a Pastry overlay whose application is [`PastApp`] plus the broker
//! that issued every node's smartcard, and exposes the three client
//! operations of the paper (insert / lookup / reclaim) along with audits
//! and whole-system accounting.

use crate::broker::Broker;
use crate::client::Request;
use crate::fileid::{ContentRef, FileId};
use crate::node::{PastApp, PastConfig, PastOut};
use crate::smartcard::CardError;
use crate::storage::{ReplicaKind, Store};
use past_crypto::Digest256;
use past_netsim::{Addr, OpId, SimTime, Topology};
use past_pastry::{
    populate_static, AppCtx, Config as PastryConfig, Id, OverlaySnapshot, PastrySim,
};

/// A timestamped application event.
pub type PastEvent = (SimTime, Addr, PastOut);

/// One stored replica in a [`StoreSnapshot`].
#[derive(Clone, Copy, Debug)]
pub struct FileSnapshot {
    /// The file.
    pub file_id: FileId,
    /// Its size in bytes (from the certificate).
    pub size: u64,
    /// The owner card's public key.
    pub owner: [u8; 32],
    /// True for diverted replicas, false for primaries.
    pub diverted: bool,
}

/// Storage accounting of one live node at a quiesce point.
#[derive(Clone, Debug)]
pub struct StoreSnapshot {
    /// The node.
    pub addr: Addr,
    /// Bytes the store believes are committed to replicas.
    pub used: u64,
    /// Total capacity.
    pub capacity: u64,
    /// Bytes the cache believes it occupies.
    pub cache_used: u64,
    /// Every stored replica.
    pub files: Vec<FileSnapshot>,
    /// Cached copies as `(fileId, size)`.
    pub cached: Vec<(FileId, u64)>,
    /// Diversion pointers as `(fileId, holder)`.
    pub pointers: Vec<(FileId, Addr)>,
}

/// Smartcard quota counters of one node (live or dead — a dead client's
/// debits still back replicas held by live nodes).
#[derive(Clone, Copy, Debug)]
pub struct CardSnapshot {
    /// The node holding the card.
    pub addr: Addr,
    /// The card's public key (matches [`FileSnapshot::owner`]).
    pub card_key: [u8; 32],
    /// Quota as issued.
    pub quota_issued: u64,
    /// Quota remaining.
    pub quota_remaining: u64,
    /// Cumulative debits.
    pub debited_total: u64,
    /// Cumulative applied credits.
    pub credited_total: u64,
    /// Debited bytes still in flight (inserts awaiting receipts).
    pub pending_insert_bytes: u64,
}

/// A whole-system snapshot for invariant checking: the overlay's routing
/// state plus every node's storage and quota accounting.
#[derive(Clone, Debug)]
pub struct PastSnapshot {
    /// Routing state of every node.
    pub overlay: OverlaySnapshot,
    /// Storage state of every *live* node.
    pub stores: Vec<StoreSnapshot>,
    /// Quota counters of every node, live or dead.
    pub cards: Vec<CardSnapshot>,
}

/// A complete PAST deployment: overlay + broker.
pub struct PastNetwork<T: Topology> {
    /// The underlying overlay simulation.
    pub sim: PastrySim<PastApp, T>,
    /// The broker that issued all smartcards.
    pub broker: Broker,
    past_cfg: PastConfig,
    /// Next client-operation id for trace attribution (0 is reserved
    /// for [`OpId::NONE`]).
    next_op: u64,
}

/// How to construct the overlay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BuildMode {
    /// Sequential protocol joins (accurate; O(N log N) messages).
    ProtocolJoins,
    /// Static state construction (fast; for very large networks).
    Static,
}

impl<T: Topology> PastNetwork<T> {
    /// Builds an `n`-node PAST network.
    ///
    /// Node `i` gets id `ids[i]`, storage capacity `capacities[i]`, and a
    /// smartcard with usage quota `quotas[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the slices disagree in length or are empty.
    #[expect(
        clippy::too_many_arguments,
        reason = "the public constructor the benchmark and every experiment call positionally"
    )]
    pub fn build(
        topo: T,
        pastry_cfg: PastryConfig,
        past_cfg: PastConfig,
        seed: u64,
        ids: &[Id],
        capacities: &[u64],
        quotas: &[u64],
        mode: BuildMode,
    ) -> PastNetwork<T> {
        assert!(!ids.is_empty());
        assert_eq!(ids.len(), capacities.len());
        assert_eq!(ids.len(), quotas.len());
        let mut sim = PastrySim::new(topo, pastry_cfg, seed);
        let mut broker = Broker::new(&seed.to_be_bytes());
        let mk_app = |i: usize| {
            let card =
                broker.issue_card(format!("card-{i:08}").as_bytes(), quotas[i], capacities[i]);
            PastApp::new(past_cfg, card, capacities[i], &broker)
        };
        match mode {
            BuildMode::ProtocolJoins => sim.build_by_joins(ids, mk_app, 8),
            BuildMode::Static => populate_static(&mut sim, ids, mk_app, 4),
        }
        PastNetwork {
            sim,
            broker,
            past_cfg,
            next_op: 1,
        }
    }

    /// Allocates the next operation id (always, so runs with tracing on
    /// and off stay event-for-event identical).
    fn alloc_op(&mut self) -> OpId {
        let op = OpId(self.next_op);
        self.next_op += 1;
        op
    }

    /// The PAST parameters in force.
    pub fn past_cfg(&self) -> PastConfig {
        self.past_cfg
    }

    /// The one submission path of the three client operations: registers
    /// `req` at `client`, opens its trace span over `fanout` replicas, arms
    /// its timer (under the retry layer) and routes its frame toward the
    /// fileId.
    fn submit(&mut self, client: Addr, req: Request, fanout: u32) {
        let now = self.sim.engine.now().as_micros();
        let (op, kind, rid) = (req.op, req.kind().name(), req.file_id.routing_id());
        self.sim
            .engine
            .tracer_mut()
            .op_start(now, op, client, kind, rid.0, fanout);
        self.sim.engine.act(client, |node, ctx| {
            let (frame, timer) = node.app.begin(client, req);
            let mut cx = AppCtx::new(ctx);
            if let Some((token, delay)) = timer {
                cx.set_app_timer(delay, token);
            }
            cx.route(rid, frame);
        });
    }

    /// Client operation: insert a file with replication `k`.
    ///
    /// Returns the request id; completion arrives as
    /// [`PastOut::InsertOk`] / [`PastOut::InsertFailed`] from [`Self::run`].
    pub fn insert(
        &mut self,
        client: Addr,
        name: &str,
        content: ContentRef,
        k: u8,
    ) -> Result<u64, CardError> {
        let now = self.sim.engine.now().as_micros();
        let op = self.alloc_op();
        let app = &mut self.sim.engine.node_mut(client).app;
        let (request_id, req) = app.insert_request(name, content, k, now, op)?;
        self.submit(client, req, u32::from(k));
        Ok(request_id)
    }

    /// Client operation: look up a file.
    pub fn lookup(&mut self, client: Addr, file_id: FileId) {
        let now = self.sim.engine.now().as_micros();
        let op = self.alloc_op();
        self.submit(client, Request::lookup(file_id, now, op), 1);
    }

    /// Client operation: reclaim a file's storage.
    pub fn reclaim(&mut self, client: Addr, file_id: FileId) {
        let op = self.alloc_op();
        let req = self
            .sim
            .engine
            .node(client)
            .app
            .reclaim_request(file_id, op);
        self.submit(client, req, 1);
    }

    /// Audits `target`'s possession of `file_id` (challenge–response).
    ///
    /// `content_hash` is the expected content commitment from the file's
    /// certificate.
    pub fn audit(
        &mut self,
        auditor: Addr,
        target: Addr,
        file_id: FileId,
        content_hash: Digest256,
        nonce: u64,
    ) {
        self.sim.engine.act(auditor, |node, ctx| {
            let challenge = node.app.begin_audit(file_id, content_hash, nonce);
            AppCtx::new(ctx).send_direct(target, challenge);
        });
    }

    /// Runs the network to quiescence and returns application events.
    pub fn run(&mut self) -> Vec<PastEvent> {
        self.sim.engine.run_until_quiet(50_000_000);
        let events = self.sim.drain_app_outputs();
        self.sample_series(&events);
        events
    }

    /// Flight-recorder storage samplers: operation outcomes counted at
    /// each event's own simulated time, plus store / cache / quota
    /// gauges at the quiesced clock. Everything derives from drained
    /// events and end-of-run state. No-op without an attached series.
    fn sample_series(&mut self, events: &[PastEvent]) {
        if !self.sim.engine.tracer().series_enabled() {
            return;
        }
        let (used, cap, _) = self.utilization();
        let mut cache_used = 0u64;
        for a in self.sim.engine.live_addrs() {
            cache_used += self.sim.engine.node(a).app.store.cache.used();
        }
        // Saturating: unlimited-quota cards (`u64::MAX / 2` each) would
        // overflow a plain sum; the gauge pegs at `u64::MAX` instead.
        let mut headroom = 0u64;
        for a in 0..self.sim.engine.len() {
            headroom = headroom.saturating_add(self.sim.engine.node(a).app.card.quota_remaining());
        }
        let now = self.sim.engine.now().as_micros();
        let Some(s) = self.sim.engine.tracer_mut().series_mut() else {
            return;
        };
        for (t, _, out) in events {
            let t = t.as_micros();
            match out {
                PastOut::InsertOk { .. } => s.bump(t, "insert_ok", 1),
                PastOut::InsertFailed { .. } => s.bump(t, "insert_failed", 1),
                PastOut::LookupOk { from_cache, .. } => {
                    s.bump(t, "lookup_ok", 1);
                    if *from_cache {
                        s.bump(t, "cache_hits", 1);
                    }
                }
                PastOut::LookupFailed { .. } => s.bump(t, "lookup_failed", 1),
                PastOut::ReclaimCredited { .. } => s.bump(t, "reclaim_ok", 1),
                PastOut::ReclaimDenied { .. } | PastOut::ReclaimFailed { .. } => {
                    s.bump(t, "reclaim_failed", 1)
                }
                _ => {}
            }
        }
        s.gauge(now, "store_used", used);
        s.gauge(now, "store_capacity", cap);
        s.gauge(now, "cache_used", cache_used);
        s.gauge(now, "quota_headroom", headroom);
    }

    /// Global storage accounting: `(used, capacity, utilization)` over
    /// live nodes.
    pub fn utilization(&self) -> (u64, u64, f64) {
        let mut used = 0;
        let mut cap = 0;
        for a in self.sim.engine.live_addrs() {
            let st = &self.sim.engine.node(a).app.store;
            used += st.used();
            cap += st.capacity();
        }
        let frac = if cap == 0 {
            0.0
        } else {
            used as f64 / cap as f64
        };
        (used, cap, frac)
    }

    /// Captures the whole system's state for invariant checking.
    ///
    /// Meant to be called at a quiesce point (after [`Self::run`]), when
    /// no protocol traffic is in flight.
    pub fn snapshot(&self) -> PastSnapshot {
        let overlay = self.sim.snapshot_overlay();
        let stores = self
            .sim
            .engine
            .live_addrs()
            .into_iter()
            .map(|a| {
                let st = &self.sim.engine.node(a).app.store;
                StoreSnapshot {
                    addr: a,
                    used: st.used(),
                    capacity: st.capacity(),
                    cache_used: st.cache.used(),
                    files: st
                        .replicas()
                        .map(|(id, f)| FileSnapshot {
                            file_id: *id,
                            size: f.cert.size,
                            owner: f.cert.owner.card_key.to_bytes(),
                            diverted: f.kind == ReplicaKind::Diverted,
                        })
                        .collect(),
                    cached: st.cache.entries().map(|(id, s)| (*id, s)).collect(),
                    pointers: st.pointers().map(|(id, h)| (*id, h)).collect(),
                }
            })
            .collect();
        let cards = (0..self.sim.engine.len())
            .map(|a| {
                let app = &self.sim.engine.node(a).app;
                CardSnapshot {
                    addr: a,
                    card_key: app.card.public().to_bytes(),
                    quota_issued: app.card.quota_issued(),
                    quota_remaining: app.card.quota_remaining(),
                    debited_total: app.card.debited_total(),
                    credited_total: app.card.credited_total(),
                    pending_insert_bytes: app.pending_insert_bytes(),
                }
            })
            .collect();
        PastSnapshot {
            overlay,
            stores,
            cards,
        }
    }

    /// Live nodes whose store satisfies `pred`.
    fn nodes_where(&self, pred: impl Fn(&Store) -> bool) -> Vec<Addr> {
        let mut nodes = self.sim.engine.live_addrs();
        nodes.retain(|&a| pred(&self.sim.engine.node(a).app.store));
        nodes
    }

    /// Live nodes currently holding a replica of `file_id` (ground truth
    /// for tests; not a protocol operation).
    pub fn replica_holders(&self, file_id: &FileId) -> Vec<Addr> {
        self.nodes_where(|st| st.get(file_id).is_some())
    }

    /// Live nodes holding `file_id` in cache only.
    pub fn cache_holders(&self, file_id: &FileId) -> Vec<Addr> {
        self.nodes_where(|st| st.get(file_id).is_none() && st.cache.contains(file_id))
    }
}
