//! Harness binding Pastry nodes into the network-simulator engine.
//!
//! Provides protocol-accurate sequential joins (the way the companion
//! Pastry paper built its simulated networks), a fast static builder for
//! very large hop-count experiments, routing helpers, and maintenance
//! rounds (heartbeats, routing-table improvement).
//!
//! This is harness work only: owning the engine, choosing contacts and
//! victims, deciding *when* a node acts, snapshots, the static build.
//! What a node then does is the node's ([`PastryNode::start_join`] and
//! friends), entered through [`Engine::act`]; no message is built here.

use crate::app::{App, AppCtx, PastryOut};
use crate::handle::NodeHandle;
use crate::id::{Config, Id};
use crate::leafset::Side;
use crate::node::{PastryNode, RecoveryConfig, TIMER_HEARTBEAT};
use past_crypto::rng::Rng;
use past_netsim::{Addr, Engine, SimTime, Topology};
use std::cell::RefCell;

/// Default cap on events per quiet-run (guards against runaway loops).
const QUIET_BUDGET: u64 = 50_000_000;

/// A record of one completed route, as observed by the harness.
#[derive(Clone, Copy, Debug)]
pub struct DeliveryRecord {
    /// Key that was routed.
    pub key: Id,
    /// Node that originated the route.
    pub origin: Addr,
    /// Node where it was delivered.
    pub delivered_at: Addr,
    /// Overlay hops.
    pub hops: u32,
    /// Total path delay, microseconds.
    pub path_us: u64,
    /// Simulated completion time.
    pub at: SimTime,
}

/// Frozen routing state of one node, captured at a quiesce point for
/// protocol-invariant checking (leaf-set symmetry/correctness, routing
/// prefix validity — the Zave-style mechanical invariants).
#[derive(Clone, Debug)]
pub struct NodeSnapshot {
    /// The node's address.
    pub addr: Addr,
    /// The node's ring id.
    pub id: Id,
    /// True if the node was alive when the snapshot was taken.
    pub live: bool,
    /// True once the join protocol completed.
    pub joined: bool,
    /// Digit width `b` in force.
    pub b: u8,
    /// Per-half leaf-set capacity (`l/2`).
    pub leaf_half: usize,
    /// Smaller-side leaf members, nearest first.
    pub leaf_smaller: Vec<NodeHandle>,
    /// Larger-side leaf members, nearest first.
    pub leaf_larger: Vec<NodeHandle>,
    /// Populated routing-table slots as `(row, col, entry)`.
    pub table_slots: Vec<(usize, usize, NodeHandle)>,
}

/// A whole-overlay snapshot: every node's routing state plus liveness.
#[derive(Clone, Debug, Default)]
pub struct OverlaySnapshot {
    /// One snapshot per node, indexed by address.
    pub nodes: Vec<NodeSnapshot>,
}

impl OverlaySnapshot {
    /// Snapshots of live, joined nodes (the ones protocol invariants
    /// quantify over).
    pub fn live_joined(&self) -> impl Iterator<Item = &NodeSnapshot> {
        self.nodes.iter().filter(|n| n.live && n.joined)
    }
}

/// A Pastry overlay running inside the discrete-event engine.
pub struct PastrySim<A: App, T: Topology> {
    /// The underlying engine (exposed for kill/revive, stats, outputs).
    pub engine: Engine<PastryNode<A>, T>,
    /// The shared protocol configuration.
    pub cfg: Config,
    /// Loss-recovery parameters every node is created with; `None`
    /// (default) keeps the crash-only maintenance protocol.
    recovery: Option<RecoveryConfig>,
    /// Live handles sorted by id, rebuilt lazily whenever the engine's
    /// membership epoch moves; `true_root` answers from this index with a
    /// binary search instead of scanning every node per query.
    root_index: RefCell<(u64, Vec<NodeHandle>)>,
}

/// Epoch sentinel forcing the first `true_root` call to build the index
/// (engine epochs count up from zero and never reach it).
const STALE_EPOCH: u64 = u64::MAX;

impl<A: App, T: Topology> PastrySim<A, T> {
    /// Creates an empty overlay on `topo`.
    pub fn new(topo: T, cfg: Config, seed: u64) -> PastrySim<A, T> {
        cfg.validate();
        PastrySim {
            engine: Engine::new(topo, Vec::new(), seed),
            cfg,
            recovery: None,
            root_index: RefCell::new((STALE_EPOCH, Vec::new())),
        }
    }

    /// Installs loss-recovery parameters on every current and future node
    /// (ack-tracked heartbeats, anti-entropy rounds, join retries).
    pub fn set_recovery(&mut self, rc: RecoveryConfig) {
        self.recovery = Some(rc);
        for a in 0..self.engine.len() {
            self.engine.node_mut(a).set_recovery(rc);
        }
    }

    /// The loss-recovery parameters in force.
    pub fn recovery(&self) -> Option<RecoveryConfig> {
        self.recovery
    }

    /// Pushes a node with the next address, in the recovery mode in
    /// force.
    fn push_node(&mut self, id: Id, app: A, joined: bool) -> Addr {
        let me = NodeHandle::new(id, self.engine.len());
        let mut node = PastryNode::new(self.cfg, me, app);
        node.joined = joined;
        if let Some(rc) = self.recovery {
            node.set_recovery(rc);
        }
        self.engine.push_node(node)
    }

    /// Adds the first node of the network (no join needed).
    pub fn bootstrap_node(&mut self, id: Id, app: A) -> Addr {
        self.push_node(id, app, true)
    }

    /// Adds a node and runs the full join protocol through `contact`.
    ///
    /// Runs the engine until quiet, so joins are sequential as in the
    /// paper's evaluation. Returns the new node's address. In
    /// loss-recovery mode the join may fail (`PastryOut::JoinFailed`);
    /// without loss it cannot.
    pub fn join_node_via(&mut self, id: Id, app: A, contact: Addr) -> Addr {
        let addr = self.push_node(id, app, false);
        self.engine
            .act(addr, |node, ctx| node.start_join(contact, ctx));
        self.engine.run_until_quiet(QUIET_BUDGET);
        debug_assert!(
            self.recovery.is_some() || self.engine.node(addr).joined,
            "join did not complete"
        );
        addr
    }

    /// Adds a node, choosing a *nearby* contact as the paper prescribes
    /// ("an arriving node ... can initialize its state by contacting a
    /// nearby node A"): samples `sample` live nodes and picks the
    /// proximity-nearest, modeling an expanding-ring search. Only nodes
    /// that completed their own join are candidates: one that did not
    /// has no ring to admit anyone to.
    pub fn join_node_nearby(&mut self, id: Id, app: A, sample: usize) -> Addr {
        let mut live = self.engine.live_addrs();
        live.retain(|&a| self.engine.node(a).joined);
        assert!(!live.is_empty(), "need a bootstrap node first");
        let next_addr = self.engine.len();
        let mut contact = live[self.engine.rng().random_range(0..live.len())];
        let mut best_d = self.engine.topology().delay_us(next_addr, contact);
        for _ in 1..sample.max(1) {
            let cand = live[self.engine.rng().random_range(0..live.len())];
            let d = self.engine.topology().delay_us(next_addr, cand);
            if d < best_d {
                best_d = d;
                contact = cand;
            }
        }
        self.join_node_via(id, app, contact)
    }

    /// Builds an `n`-node network by sequential protocol joins.
    ///
    /// `ids` must be distinct; `mk_app` constructs each node's application.
    pub fn build_by_joins<F: FnMut(usize) -> A>(
        &mut self,
        ids: &[Id],
        mut mk_app: F,
        contact_sample: usize,
    ) {
        assert!(!ids.is_empty());
        self.engine.reserve_nodes(ids.len());
        self.bootstrap_node(ids[0], mk_app(0));
        for (i, &id) in ids.iter().enumerate().skip(1) {
            self.join_node_nearby(id, mk_app(i), contact_sample);
        }
    }

    /// Starts routing `payload` toward `key` from node `from`.
    ///
    /// The caller runs the engine and inspects [`Self::drain_deliveries`].
    pub fn route(&mut self, from: Addr, key: Id, payload: A::Payload)
    where
        A::Payload: Clone,
    {
        self.engine
            .act(from, |_, ctx| AppCtx::new(ctx).route(key, payload));
    }

    /// Runs the engine until quiet and returns route-delivery records.
    pub fn drain_deliveries(&mut self) -> Vec<DeliveryRecord> {
        self.engine.run_until_quiet(QUIET_BUDGET);
        self.engine
            .drain_outputs()
            .into_iter()
            .filter_map(|(at, addr, out)| match out {
                PastryOut::Delivered {
                    key,
                    origin,
                    hops,
                    path_us,
                } => Some(DeliveryRecord {
                    key,
                    origin,
                    delivered_at: addr,
                    hops,
                    path_us,
                    at,
                }),
                _ => None,
            })
            .collect()
    }

    /// Drains application-level observations.
    pub fn drain_app_outputs(&mut self) -> Vec<(SimTime, Addr, A::Out)> {
        self.engine
            .drain_outputs()
            .into_iter()
            .filter_map(|(at, addr, out)| match out {
                PastryOut::App(o) => Some((at, addr, o)),
                _ => None,
            })
            .collect()
    }

    /// Recovers a previously failed node (the paper: "a recovering node
    /// contacts the nodes in its last known leaf set, obtains their
    /// current leaf sets, updates its own leaf set and then notifies the
    /// members of its presence").
    ///
    /// Runs the engine to quiescence. Returns the peers contacted.
    pub fn recover_node(&mut self, addr: Addr) -> usize {
        self.engine.revive(addr);
        let contacted = self.engine.act(addr, |node, ctx| node.begin_revival(ctx));
        self.engine.run_until_quiet(QUIET_BUDGET);
        self.engine
            .act(addr, |node, ctx| node.finish_revival(&contacted, ctx));
        self.engine.run_until_quiet(QUIET_BUDGET);
        contacted.len()
    }

    /// Triggers one leaf-set heartbeat round on every live node and runs
    /// to quiescence (failure detection + repair).
    pub fn stabilize(&mut self) {
        for addr in self.engine.live_addrs() {
            self.engine.arm_timer(addr, 0, TIMER_HEARTBEAT);
        }
        self.engine.run_until_quiet(QUIET_BUDGET);
        // Flight-recorder overlay gauge: live membership after the
        // round, stamped with the quiesced clock. Suspicions and repair traffic are already counted by
        // the tracer hooks.
        if self.engine.tracer().series_enabled() {
            let live = self.engine.live_addrs().len() as u64;
            let t = self.engine.now().as_micros();
            if let Some(s) = self.engine.tracer_mut().series_mut() {
                s.gauge(t, "live_nodes", live);
            }
            self.engine.sample_memory();
        }
    }

    /// One routing-table improvement round: every node asks one random
    /// peer per populated row for that row's entries (the Pastry paper's
    /// locality-improvement maintenance).
    pub fn improve_tables(&mut self) {
        let addrs = self.engine.live_addrs();
        for addr in addrs {
            let rows: Vec<(usize, Vec<NodeHandle>)> = {
                let st = &self.engine.node(addr).state;
                (0..st.cfg.digits())
                    .map(|r| (r, st.table.row_entries(r)))
                    .filter(|(_, e)| !e.is_empty())
                    .collect()
            };
            for (row, entries) in rows {
                let peer = entries[self.engine.rng().random_range(0..entries.len())].addr;
                self.engine
                    .act(addr, |node, ctx| node.probe_row(row, peer, ctx));
            }
        }
        self.engine.run_until_quiet(QUIET_BUDGET);
    }

    /// Captures every node's routing state for invariant checking.
    ///
    /// Meant to be called at a quiesce point (after
    /// [`Self::drain_deliveries`], [`Self::stabilize`], or a completed
    /// join), when no repair traffic is in flight.
    pub fn snapshot_overlay(&self) -> OverlaySnapshot {
        let nodes = (0..self.engine.len())
            .map(|addr| {
                let node = self.engine.node(addr);
                let st = &node.state;
                NodeSnapshot {
                    addr,
                    id: st.me.id,
                    live: self.engine.is_alive(addr),
                    joined: node.joined,
                    b: st.cfg.b,
                    leaf_half: st.leaf.half(),
                    leaf_smaller: st.leaf.side_members(Side::Smaller).to_vec(),
                    leaf_larger: st.leaf.side_members(Side::Larger).to_vec(),
                    table_slots: st.table.slots().collect(),
                }
            })
            .collect();
        OverlaySnapshot { nodes }
    }

    /// The handle of node `addr`.
    pub fn handle(&self, addr: Addr) -> NodeHandle {
        self.engine.node(addr).state.me
    }

    /// Handles of all live nodes.
    pub fn live_handles(&self) -> Vec<NodeHandle> {
        self.engine
            .live_addrs()
            .into_iter()
            .map(|a| self.handle(a))
            .collect()
    }

    /// The live node whose id is numerically closest to `key`
    /// (ground truth for delivery-correctness checks).
    ///
    /// Answered from a sorted index of live handles, invalidated by the
    /// engine's membership epoch: the closest node on the ring is always
    /// one of the key's two sorted-order neighbors (any other node is
    /// strictly farther in both directions), so one binary search plus a
    /// two-way compare reproduces the former full scan exactly.
    pub fn true_root(&self, key: &Id) -> Option<NodeHandle> {
        let epoch = self.engine.epoch();
        let mut cache = self.root_index.borrow_mut();
        if cache.0 != epoch {
            let mut handles = self.live_handles();
            handles.sort_unstable_by_key(|h| h.id.0);
            *cache = (epoch, handles);
        }
        let ring = &cache.1;
        if ring.is_empty() {
            return None;
        }
        let i = ring.partition_point(|h| h.id.0 < key.0);
        let succ = ring[i % ring.len()];
        let pred = ring[(i + ring.len() - 1) % ring.len()];
        let kp = (pred.id.ring_dist(key), pred.id.0);
        let ks = (succ.id.ring_dist(key), succ.id.0);
        Some(if kp <= ks { pred } else { succ })
    }
}

/// Builds a large network *statically*: every node's leaf set and routing
/// table are constructed from global knowledge instead of protocol joins.
///
/// Used for the biggest hop-count/state-size experiments (the companion
/// paper simulates up to 100 000 nodes). Table entries pick the
/// proximity-nearest of `locality_samples` random candidates with the
/// required prefix, approximating the join protocol's locality.
pub fn static_build<A, T, F>(
    topo: T,
    cfg: Config,
    seed: u64,
    ids: &[Id],
    mk_app: F,
    locality_samples: usize,
) -> PastrySim<A, T>
where
    A: App,
    T: Topology,
    F: FnMut(usize) -> A,
{
    let mut sim = PastrySim::new(topo, cfg, seed);
    populate_static(&mut sim, ids, mk_app, locality_samples);
    sim
}

/// The body of [`static_build`], for an empty overlay the caller
/// constructed (a PAST network fills one with its own applications).
///
/// Nodes are visited in ring order. Each node lists its leaf positions,
/// then draws `locality_samples` candidates per routing-table cell and
/// its neighbourhood sample from the engine RNG, asks the topology for
/// all of their delays in one [`Topology::delays_us`] call, and only then
/// writes its state: leaves through `add_node`, the first nearest
/// candidate of each cell, then the neighbourhood sample.
///
/// # Panics
///
/// Panics if the overlay is not empty, if `locality_samples` is zero, if
/// two addresses carry the same id (both would claim the same keys), or
/// if an address does not fit in 32 bits.
pub fn populate_static<A, T, F>(
    sim: &mut PastrySim<A, T>,
    ids: &[Id],
    mut mk_app: F,
    locality_samples: usize,
) where
    A: App,
    T: Topology,
    F: FnMut(usize) -> A,
{
    assert!(sim.engine.is_empty(), "static build needs an empty overlay");
    assert!(locality_samples >= 1);
    let cfg = sim.cfg;
    let n = ids.len();
    assert!(
        u32::try_from(n).is_ok(),
        "static build: {n} nodes exceed u32 addresses"
    );
    // One allocation per struct-of-arrays column up front: at 100k+
    // nodes the incremental doubling during the push loop is measurable.
    sim.engine.reserve_nodes(n);
    for (addr, &id) in ids.iter().enumerate() {
        sim.push_node(id, mk_app(addr), true);
    }

    // Ring order, as two packed columns; a handle is built only for an
    // entry that lands in some node's state (`ids` is indexed by address).
    let mut ring: Vec<(u128, u32)> = ids
        .iter()
        .enumerate()
        .map(|(addr, id)| (id.0, addr as u32))
        .collect();
    // By id, then address: a repeated id names its lower address first.
    ring.sort_unstable();
    for w in ring.windows(2) {
        assert!(
            w[0].0 < w[1].0,
            "static build: addresses {} and {} share id {}",
            w[0].1,
            w[1].1,
            Id(w[0].0),
        );
    }
    let (ring_ids, ring_addrs): (Vec<u128>, Vec<u32>) = ring.into_iter().unzip();
    let handle = |a: Addr| NodeHandle::new(ids[a], a);

    let half = cfg.leaf_len / 2;
    let digits = cfg.digits();
    let cols = cfg.cols();
    let sample = (cfg.neighborhood_len * 2).min(n.saturating_sub(1));
    // Row `r`'s column starts in ring positions, `cols + 1` per row (the
    // last closes the row's span). Rows `0..fresh_rows` were computed
    // for a prefix the current node shares, so ring neighbours reuse all
    // but their last rows.
    let mut bounds = vec![0usize; digits * (cols + 1)];
    let mut fresh_rows = 0;
    // Per node: the addresses of its leaves, its table candidates (one
    // run of `locality_samples` per cell) and its neighbourhood sample,
    // and the delays to all of them.
    let mut to: Vec<Addr> = Vec::new();
    let mut delays: Vec<u64> = Vec::new();

    for pos in 0..n {
        let me = Id(ring_ids[pos]);
        let addr = ring_addrs[pos] as Addr;
        if pos > 0 {
            let shared = Id(ring_ids[pos - 1]).prefix_len(&me, cfg.b);
            fresh_rows = fresh_rows.min(shared + 1);
        }
        to.clear();

        // Leaf set: l/2 ring successors and predecessors.
        for step in 1..=half.min(n - 1) {
            to.push(ring_addrs[(pos + step) % n] as Addr);
            to.push(ring_addrs[(pos + n - step) % n] as Addr);
        }
        let leaves = to.len();

        // Routing table: row by row, down the span of ids that share
        // `row` digits with me, until nobody else does.
        let mut span = (0, n);
        for row in 0..digits {
            if span.1 - span.0 <= 1 {
                break;
            }
            let row_bounds = &mut bounds[row * (cols + 1)..(row + 1) * (cols + 1)];
            if row >= fresh_rows {
                column_bounds(&ring_ids, span, me, row, cfg.b, row_bounds);
                fresh_rows = row + 1;
            }
            let own_digit = me.digit(row, cfg.b) as usize;
            for col in 0..cols {
                let (lo, hi) = (row_bounds[col], row_bounds[col + 1]);
                if col == own_digit || lo >= hi {
                    continue;
                }
                for _ in 0..locality_samples {
                    let at = sim.engine.rng().random_range(lo..hi);
                    to.push(ring_addrs[at] as Addr);
                }
            }
            span = (row_bounds[own_digit], row_bounds[own_digit + 1]);
        }

        let cells_end = to.len();

        // Neighbourhood set: nearest of a modest random sample.
        for _ in 0..sample {
            to.push(sim.engine.rng().random_range(0..n));
        }

        delays.clear();
        sim.engine.topology().delays_us(addr, &to, &mut delays);

        let st = &mut sim.engine.node_mut(addr).state;
        for (&a, &d) in to[..leaves].iter().zip(&delays) {
            st.add_node(handle(a), d);
        }
        // Each cell keeps the first of its nearest candidates.
        let cell_delays = delays[leaves..cells_end].chunks_exact(locality_samples);
        for (cands, ds) in to[leaves..cells_end]
            .chunks_exact(locality_samples)
            .zip(cell_delays)
        {
            if let Some((i, &d)) = ds.iter().enumerate().min_by_key(|&(_, &d)| d) {
                st.table.consider(handle(cands[i]), d);
            }
        }
        for (&other, &d) in to[cells_end..].iter().zip(&delays[cells_end..]) {
            if other != addr {
                st.neighborhood.consider(handle(other), d);
            }
        }
    }
}

/// Fills `out` with the ring positions where each column of `row` starts
/// inside `span`, the run of `ring_ids` sharing `me`'s first `row` digits;
/// the last entry closes the span. Each start is searched for only past
/// the previous one.
fn column_bounds(
    ring_ids: &[u128],
    (lo, hi): (usize, usize),
    me: Id,
    row: usize,
    b: u8,
    out: &mut [usize],
) {
    let b = b as usize;
    let shift = 128 - (row + 1) * b;
    let prefix = if row == 0 {
        0
    } else {
        me.0 & ((!0u128) << (128 - row * b))
    };
    let cols = out.len() - 1;
    out[0] = lo;
    out[cols] = hi;
    for col in 1..cols {
        let first = prefix | ((col as u128) << shift);
        let from = out[col - 1];
        out[col] = from + ring_ids[from..hi].partition_point(|&x| x < first);
    }
}

/// Generates `n` distinct pseudo-random ids from a seed.
pub fn random_ids(n: usize, rng: &mut Rng) -> Vec<Id> {
    let mut set = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let id = Id(rng.random());
        if set.insert(id.0) {
            out.push(id);
        }
    }
    out
}
