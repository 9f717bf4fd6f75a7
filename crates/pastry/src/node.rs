//! Per-node Pastry protocol logic.
//!
//! Implements message handling for routing, the join protocol, leaf-set
//! and routing-table repair, heartbeats, and failure notifications, and
//! dispatches application callbacks.
//!
//! The logic is **sans-io**: [`PastryNode::step`] is a pure transition
//! function `(state, Input) → effects` whose only coupling to the
//! outside world is the [`Io`] effect sink it writes through. Every
//! protocol action is written here once, the ones a harness starts
//! included: [`PastryNode::start_join`], the two halves of revival,
//! [`PastryNode::probe_row`]. The node is a [`Machine`]; the simulator's
//! blanket adapter runs it under the engine, and an engine-free driver
//! (`past_wire::StepIo`) runs the same machine in pure tests and, later,
//! socket transports.

use crate::app::{App, AppCtx, PastryOut, RouteInfo};
use crate::handle::NodeHandle;
use crate::id::{Config, MAX_ROUTE_HOPS};
use crate::msg::{JoinReply, JoinRequest, PastryMsg, PayloadSize, RouteEnvelope};
use crate::route::{next_hop, NextHop};
use crate::state::PastryState;
use past_wire::{btree_heap_bytes, Addr, Input, Io, Machine};
use std::collections::{BTreeMap, BTreeSet};

/// Timer id for leaf-set heartbeats.
pub const TIMER_HEARTBEAT: u64 = 1;
/// Timer id for the heartbeat-ack deadline (loss recovery only).
pub const TIMER_HEARTBEAT_CHECK: u64 = 2;
/// Timer id driving join initiation and bounded join retries (loss
/// recovery only).
pub const TIMER_JOIN_RETRY: u64 = 3;
/// Application timers are offset by this base.
pub const APP_TIMER_BASE: u64 = 1 << 32;

/// How long after a heartbeat round the ack check fires (loss recovery
/// only). Must exceed a round trip to the farthest leaf-set member: the
/// default sphere topology's one-way delay tops out at 120 ms, and
/// 500 ms clears a round trip with ample jitter room.
pub const HEARTBEAT_TIMEOUT_US: u64 = 500_000;
/// Consecutive unacknowledged heartbeat rounds before a peer is
/// suspected dead (loss recovery only).
pub const MISSED_ACK_LIMIT: u32 = 3;
/// Deadline for one join attempt before the next retry (loss recovery
/// only).
pub const JOIN_TIMEOUT_US: u64 = 2_000_000;
/// Join attempts before giving up with [`PastryOut::JoinFailed`] (loss
/// recovery only).
pub const JOIN_ATTEMPTS: u32 = 5;

/// The switch that puts an overlay in loss-recovery mode
/// ([`PastrySim::set_recovery`](crate::PastrySim::set_recovery)).
///
/// Without it (the default on every node) the maintenance protocol is
/// crash-only: failure detection relies purely on send-failure
/// notifications, joins are single-shot, and no extra timers or messages
/// exist — runs without faults stay bit-identical. In recovery mode,
/// heartbeat rounds track acknowledgments (suspecting silent peers after
/// [`MISSED_ACK_LIMIT`] quiet rounds), piggyback anti-entropy traffic
/// that re-teaches state lost to dropped messages, and joins retry with
/// a deadline. The mode has no parameters: its timings are the
/// constants above.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryConfig;

/// An in-flight (possibly retried) join.
struct PendingJoin {
    contact: Addr,
    attempts: u32,
}

/// What a node holds only in loss-recovery mode.
#[derive(Default)]
struct Recovery {
    /// Leaf-set peers probed in the current heartbeat round that have not
    /// answered yet.
    awaiting_ack: BTreeSet<Addr>,
    /// Consecutive heartbeat rounds each peer has stayed silent.
    missed_acks: BTreeMap<Addr, u32>,
    /// The join this node is still trying to complete.
    pending_join: Option<PendingJoin>,
}

/// Failure-injection behavior of a node.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Behavior {
    /// Follows the protocol.
    #[default]
    Normal,
    /// Malicious: accepts routed messages but silently drops them
    /// (the attack the paper's randomized routing defends against).
    DropRoutes,
}

/// The effect sink a Pastry node writes through: any [`Io`] over the
/// Pastry message set and overlay observations.
pub type PastryIo<'i, A> = dyn Io<PastryMsg<<A as App>::Payload>, PastryOut<<A as App>::Out>> + 'i;

/// A Pastry node: routing state, application, and protocol behavior.
pub struct PastryNode<A: App> {
    /// The routing state (table, leaf set, neighborhood set).
    pub state: PastryState,
    /// The application running on this node.
    pub app: A,
    /// Failure-injection behavior.
    pub behavior: Behavior,
    /// True once the join protocol has completed (or for bootstrap nodes).
    pub joined: bool,
    /// Hops taken by this node's join request, once joined.
    pub join_hops: Option<u32>,
    /// Peers this node has observed failing. State offered by other nodes
    /// (leaf-set merges, repair replies) is ignored for suspected peers,
    /// or the gossip would keep re-installing dead entries and the repair
    /// traffic would never converge. Hearing *from* a peer clears the
    /// suspicion (it is evidently alive again).
    suspected: BTreeSet<Addr>,
    /// Loss-recovery mode; `None` keeps crash-only behavior.
    recovery: Option<Box<Recovery>>,
}

impl<A: App> PastryNode<A> {
    /// Creates a node with the given id/address and application.
    pub fn new(cfg: Config, me: NodeHandle, app: A) -> PastryNode<A> {
        PastryNode {
            state: PastryState::new(cfg, me),
            app,
            behavior: Behavior::Normal,
            joined: false,
            join_hops: None,
            suspected: BTreeSet::new(),
            recovery: None,
        }
    }

    /// Puts this node in loss-recovery mode (a node already in it keeps
    /// its recovery state).
    pub fn set_recovery(&mut self) {
        self.recovery.get_or_insert_with(Box::default);
    }

    /// True if this node currently suspects `addr` of being dead.
    pub fn suspects(&self, addr: Addr) -> bool {
        self.suspected.contains(&addr)
    }

    /// Bytes of heap this node's routing state, suspicion set,
    /// recovery-mode block and application hold. The routing state is
    /// exact (capacity × entry size); a B-tree has no capacity to read, so
    /// the suspicion set is estimated from its length
    /// ([`btree_heap_bytes`]). Not counted: the nodes of the two B-tree
    /// recovery maps, which are empty outside loss-recovery rounds.
    pub fn heap_bytes(&self) -> usize {
        self.state.heap_bytes()
            + btree_heap_bytes::<Addr, ()>(self.suspected.len())
            + self
                .recovery
                .as_ref()
                .map_or(0, |r| std::mem::size_of_val(&**r))
            + self.app.heap_bytes()
    }

    /// Starts this node's join through `contact` ("an arriving node ...
    /// can initialize its state by contacting a nearby node A"). In
    /// loss-recovery mode the join runs off [`TIMER_JOIN_RETRY`], so
    /// lost requests and replies are retried with a deadline.
    pub fn start_join(&mut self, contact: Addr, io: &mut PastryIo<'_, A>) {
        match &mut self.recovery {
            Some(r) => {
                r.pending_join = Some(PendingJoin {
                    contact,
                    attempts: 0,
                });
                io.set_timer(0, TIMER_JOIN_RETRY);
            }
            None => self.send_join(contact, "start", io),
        }
    }

    /// One join attempt: the neighborhood request and the join request
    /// that `contact` routes toward this node's id.
    fn send_join(&self, contact: Addr, phase: &'static str, io: &mut PastryIo<'_, A>) {
        let (now, me) = (io.now_us(), io.me());
        io.tracer().join_phase(now, me, phase);
        io.send(contact, PastryMsg::NeighborhoodRequest);
        io.send(
            contact,
            PastryMsg::JoinRequest(Box::new(JoinRequest {
                joiner: self.state.me,
                rows: Vec::new(),
                rows_done: 0,
                hops: 0,
            })),
        );
    }

    /// First half of a revival ("a recovering node contacts the nodes in
    /// its last known leaf set, obtains their current leaf sets ... and
    /// then notifies the members of its presence"). Returns the peers
    /// contacted, for [`Self::finish_revival`].
    pub fn begin_revival(&self, io: &mut PastryIo<'_, A>) -> Vec<Addr> {
        let me = self.state.me;
        let last_leaf: Vec<Addr> = self.state.leaf.members().map(|h| h.addr).collect();
        for &peer in &last_leaf {
            io.send(peer, PastryMsg::LeafRequest);
            io.send(peer, PastryMsg::Announce { from: me });
        }
        last_leaf
    }

    /// Second half of a revival, once the replies to the first are in:
    /// announces this node to the leaf members it has learned since. The
    /// pre-death leaf set can miss true ring neighbors (a slot held by a
    /// peer that died at the same time hides the node beyond it), and
    /// every current neighbor must learn of the revival (leaf-set
    /// symmetry, invariant I1).
    pub fn finish_revival(&self, contacted: &[Addr], io: &mut PastryIo<'_, A>) {
        let me = self.state.me;
        for h in self.state.leaf.members() {
            if !contacted.contains(&h.addr) {
                io.send(h.addr, PastryMsg::Announce { from: me });
            }
        }
    }

    /// Asks `peer` for its routing-table row `row` (the Pastry paper's
    /// locality-improvement maintenance; whoever drives the node picks
    /// the peer among that row's entries).
    pub fn probe_row(&self, row: usize, peer: Addr, io: &mut PastryIo<'_, A>) {
        io.send(peer, PastryMsg::RowRequest { row });
    }

    /// Applies one protocol input to this node, writing every resulting
    /// effect (sends, timers, observations) through `io` in call order.
    ///
    /// This is the node's transition function; its [`Machine`] impl, and
    /// through it the engine adapter and pure test drivers, funnel
    /// through here.
    pub fn step(&mut self, input: Input<PastryMsg<A::Payload>>, io: &mut PastryIo<'_, A>) {
        match input {
            Input::Message { from, msg } => self.on_message(from, msg, io),
            Input::SendFailed { to, msg } => self.on_send_failed(to, msg, io),
            Input::Timer { kind } => self.on_timer(kind, io),
        }
    }

    /// Routes or delivers an envelope currently held by this node.
    fn route_env(&mut self, mut env: RouteEnvelope<A::Payload>, io: &mut PastryIo<'_, A>) {
        if env.hops > MAX_ROUTE_HOPS {
            // A cycle through inconsistent (failure-damaged) state; drop
            // and let the client retry after repair.
            let (now, me) = (io.now_us(), io.me());
            io.tracer()
                .route_drop(now, env.payload.op_id(), me, env.key.0);
            io.emit(PastryOut::RouteDropped {
                key: env.key,
                origin: env.origin,
            });
            return;
        }
        match next_hop(&self.state, &env.key, io.rng()) {
            NextHop::DeliverHere => {
                let (now, me) = (io.now_us(), io.me());
                io.tracer().route_deliver(
                    now,
                    env.payload.op_id(),
                    me,
                    env.key.0,
                    env.hops,
                    env.path_us,
                );
                io.emit(PastryOut::Delivered {
                    key: env.key,
                    origin: env.origin,
                    hops: env.hops,
                    path_us: env.path_us,
                });
                let info = RouteInfo {
                    origin: env.origin,
                    hops: env.hops,
                    path_us: env.path_us,
                };
                let mut cx = AppCtx { io: &mut *io };
                self.app
                    .deliver(&self.state, env.key, env.payload, info, &mut cx);
            }
            NextHop::Forward(next) => {
                let mut cx = AppCtx { io: &mut *io };
                if !self.app.forward(&self.state, &mut env, next, &mut cx) {
                    return;
                }
                if io.tracer().config().routes() {
                    // Prefix-match depth: how many digits of the key this
                    // hop already resolves (computed only when recording).
                    let depth = self.state.me.id.prefix_len(&env.key, self.state.cfg.b) as u32;
                    let (now, me) = (io.now_us(), io.me());
                    io.tracer()
                        .route_hop(now, env.payload.op_id(), me, env.key.0, env.hops, depth);
                }
                env.hops += 1;
                env.path_us += io.delay_to(next.addr);
                io.send(next.addr, PastryMsg::Route(env));
            }
        }
    }

    /// Adds a node, invoking the leaf-set-change hook if needed.
    fn learn(&mut self, h: NodeHandle, io: &mut PastryIo<'_, A>) {
        if self.suspected.contains(&h.addr) {
            return;
        }
        let prox = io.delay_to(h.addr);
        if self.state.add_node(h, prox) {
            let mut cx = AppCtx { io: &mut *io };
            self.app.on_leafset_changed(&self.state, &[h], &[], &mut cx);
        }
    }

    /// Adds a batch of nodes, invoking the hook once with all leaf changes.
    fn learn_batch(&mut self, handles: &[NodeHandle], io: &mut PastryIo<'_, A>) {
        let mut added = Vec::new();
        for &h in handles {
            if self.suspected.contains(&h.addr) {
                continue;
            }
            let prox = io.delay_to(h.addr);
            if self.state.add_node(h, prox) {
                added.push(h);
            }
        }
        if !added.is_empty() {
            let mut cx = AppCtx { io: &mut *io };
            self.app
                .on_leafset_changed(&self.state, &added, &[], &mut cx);
        }
    }

    /// Removes a failed peer from the state and initiates repair.
    ///
    /// "All members of the failed node's leaf set are then notified and
    /// they update their leaf sets" — here, the detecting node asks the
    /// farthest live member on the failed side for its leaf set. Routing
    /// table slots are repaired by asking a same-row peer for its entry.
    fn handle_peer_failure(&mut self, dead: Addr, io: &mut PastryIo<'_, A>) {
        self.suspected.insert(dead);
        let removal = self.state.remove_addr(dead);
        if let Some(side) = removal.leaf_side {
            if let Some(ex) = self.state.leaf.extreme(side) {
                io.send(ex.addr, PastryMsg::LeafRequest);
            }
            if let Some(h) = removal.leaf_handle {
                let mut cx = AppCtx { io: &mut *io };
                self.app.on_leafset_changed(&self.state, &[], &[h], &mut cx);
            }
        }
        for (row, col) in removal.table_slots {
            // Ask any live same-row peer for a replacement entry.
            if let Some(peer) = self.state.table.row_entries(row).first() {
                io.send(peer.addr, PastryMsg::RepairRequest { row, col });
            }
        }
    }

    /// Sends a join request held by this node onward: answered as Z when
    /// the route ends here, forwarded one hop otherwise.
    fn pass_join(&self, mut req: Box<JoinRequest>, decision: NextHop, io: &mut PastryIo<'_, A>) {
        match decision {
            NextHop::DeliverHere => {
                let JoinRequest {
                    joiner, rows, hops, ..
                } = *req;
                let leaf: Vec<NodeHandle> = self.state.leaf.members().copied().collect();
                io.send(
                    joiner.addr,
                    PastryMsg::JoinReply(Box::new(JoinReply {
                        z: self.state.me,
                        rows,
                        leaf,
                        hops,
                    })),
                );
            }
            NextHop::Forward(next) => {
                req.hops += 1;
                io.send(next.addr, PastryMsg::JoinRequest(req));
            }
        }
    }

    fn on_message(&mut self, from: Addr, msg: PastryMsg<A::Payload>, io: &mut PastryIo<'_, A>) {
        // Hearing from a peer proves it alive: drop any suspicion, settle
        // the current heartbeat round, and reset its missed-ack count.
        self.suspected.remove(&from);
        if let Some(r) = &mut self.recovery {
            r.awaiting_ack.remove(&from);
            r.missed_acks.remove(&from);
        }
        match msg {
            PastryMsg::Route(env) => {
                if self.behavior == Behavior::DropRoutes && env.origin != io.me() {
                    return;
                }
                self.route_env(env, io);
            }
            // A node that has not completed its own join has no state to
            // seed another's with: answering would make it Z of a ring of
            // one. Dropped, so the joiner's retry deadline reports it. (Its
            // own retried request, routed back by nodes that learned it
            // on a lost attempt, is still handled below, as it always was.)
            PastryMsg::NeighborhoodRequest if !self.joined => {}
            PastryMsg::JoinRequest(req) if !self.joined && req.joiner.addr != io.me() => {}
            PastryMsg::JoinRequest(mut req) => {
                // Contribute our routing-table rows usable by the joiner:
                // rows up to the shared-prefix length.
                let joiner = req.joiner;
                let p = self.state.me.id.prefix_len(&joiner.id, self.state.cfg.b);
                let max_row = p.min(self.state.cfg.digits() - 1);
                while req.rows_done <= max_row {
                    req.rows.extend(self.state.table.row_entries(req.rows_done));
                    req.rows_done += 1;
                }
                req.rows.push(self.state.me);
                // Decide before learning the joiner, so we never forward
                // the join to the joiner itself. Past the hop TTL (cycle
                // through damaged state), answer as Z instead of looping.
                let decision = if req.hops > MAX_ROUTE_HOPS {
                    NextHop::DeliverHere
                } else {
                    next_hop(&self.state, &joiner.id, io.rng())
                };
                self.pass_join(req, decision, io);
                self.learn(joiner, io);
            }
            PastryMsg::JoinReply(reply) => {
                let JoinReply {
                    z,
                    rows,
                    leaf,
                    hops,
                } = *reply;
                let mut all = rows;
                all.extend(leaf);
                all.push(z);
                self.learn_batch(&all, io);
                if self.joined {
                    // A duplicate or late reply from a retried (or
                    // duplicated) join: the state merge above is all it
                    // is still good for.
                    return;
                }
                self.joined = true;
                self.join_hops = Some(hops);
                if let Some(r) = &mut self.recovery {
                    r.pending_join = None;
                }
                let (now, me) = (io.now_us(), io.me());
                io.tracer().join_phase(now, me, "complete");
                // "Notify interested nodes that need to know of its
                // arrival, thereby restoring all of Pastry's invariants."
                let me = self.state.me;
                for h in self.state.known_nodes() {
                    io.send(h.addr, PastryMsg::Announce { from: me });
                }
                io.emit(PastryOut::JoinComplete { hops });
            }
            PastryMsg::NeighborhoodRequest => {
                let mut members: Vec<NodeHandle> = self.state.neighborhood.members().collect();
                members.push(self.state.me);
                io.send(from, PastryMsg::NeighborhoodReply { members });
            }
            PastryMsg::NeighborhoodReply { members } => {
                self.learn_batch(&members, io);
            }
            PastryMsg::Announce { from: h } => {
                self.learn(h, io);
            }
            PastryMsg::LeafRequest => {
                let mut members: Vec<NodeHandle> = self.state.leaf.members().copied().collect();
                members.push(self.state.me);
                io.send(from, PastryMsg::LeafReply { members });
            }
            PastryMsg::LeafReply { members } => {
                self.learn_batch(&members, io);
            }
            PastryMsg::RowRequest { row } => {
                let entries = self.state.table.row_entries(row);
                io.send(from, PastryMsg::RowReply { entries });
            }
            PastryMsg::RowReply { entries } => {
                self.learn_batch(&entries, io);
            }
            PastryMsg::RepairRequest { row, col } => {
                let entry = self.state.table.get(row, col);
                io.send(from, PastryMsg::RepairReply { entry });
            }
            PastryMsg::RepairReply { entry } => {
                if let Some(h) = entry {
                    self.learn(h, io);
                }
            }
            PastryMsg::Heartbeat => {
                io.send(from, PastryMsg::HeartbeatAck);
            }
            // The proof-of-life prelude above already settled the round
            // and cleared the sender's missed-ack count.
            PastryMsg::HeartbeatAck => {}
            PastryMsg::AppDirect { payload } => {
                let mut cx = AppCtx { io: &mut *io };
                self.app.on_direct(&self.state, from, payload, &mut cx);
            }
        }
    }

    fn on_send_failed(&mut self, to: Addr, msg: PastryMsg<A::Payload>, io: &mut PastryIo<'_, A>) {
        // The peer is presumed failed: purge it and repair, then retry
        // whatever the message was trying to do.
        self.handle_peer_failure(to, io);
        match msg {
            PastryMsg::Route(env) => {
                // "Automatically resolves node failures": re-route around
                // the dead node (it is no longer in our state).
                self.route_env(env, io);
            }
            PastryMsg::JoinRequest(req) => {
                // Re-route the join with our updated state.
                let decision = next_hop(&self.state, &req.joiner.id, io.rng());
                self.pass_join(req, decision, io);
            }
            PastryMsg::AppDirect { payload } => {
                let mut cx = AppCtx { io: &mut *io };
                self.app.on_direct_failed(&self.state, to, payload, &mut cx);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, kind: u64, io: &mut PastryIo<'_, A>) {
        if kind >= APP_TIMER_BASE {
            let mut cx = AppCtx { io: &mut *io };
            self.app
                .on_timer(&self.state, kind - APP_TIMER_BASE, &mut cx);
            return;
        }
        match kind {
            TIMER_HEARTBEAT => {
                let members: Vec<Addr> = self.state.leaf.members().map(|m| m.addr).collect();
                if let Some(r) = &mut self.recovery {
                    // Loss-aware round: remember who owes an ack, and
                    // piggyback anti-entropy — re-announcing ourselves and
                    // pulling each member's leaf set re-teaches state that
                    // lossy links may have swallowed (dropped Announces
                    // leave asymmetric leaf sets that nothing else heals).
                    r.awaiting_ack.clear();
                    let me = self.state.me;
                    for &addr in &members {
                        io.send(addr, PastryMsg::Heartbeat);
                        io.send(addr, PastryMsg::Announce { from: me });
                        io.send(addr, PastryMsg::LeafRequest);
                        r.awaiting_ack.insert(addr);
                    }
                    if !members.is_empty() {
                        io.set_timer(HEARTBEAT_TIMEOUT_US, TIMER_HEARTBEAT_CHECK);
                    }
                } else {
                    for addr in members {
                        io.send(addr, PastryMsg::Heartbeat);
                    }
                }
            }
            TIMER_HEARTBEAT_CHECK => {
                let Some(r) = &mut self.recovery else { return };
                // Anyone still owing an ack stayed silent the whole round.
                let mut suspects = Vec::new();
                for addr in std::mem::take(&mut r.awaiting_ack) {
                    let missed = r.missed_acks.entry(addr).or_insert(0);
                    *missed += 1;
                    if *missed >= MISSED_ACK_LIMIT {
                        suspects.push((addr, *missed));
                        r.missed_acks.remove(&addr);
                    }
                }
                for (addr, rounds) in suspects {
                    let (now, me) = (io.now_us(), io.me());
                    io.tracer().suspect(now, me, addr, rounds);
                    self.handle_peer_failure(addr, io);
                }
            }
            TIMER_JOIN_RETRY => {
                let Some(r) = &mut self.recovery else { return };
                if self.joined {
                    r.pending_join = None;
                    return;
                }
                let Some(pj) = &mut r.pending_join else {
                    return;
                };
                if pj.attempts >= JOIN_ATTEMPTS {
                    let attempts = pj.attempts;
                    r.pending_join = None;
                    let (now, me) = (io.now_us(), io.me());
                    io.tracer().join_phase(now, me, "failed");
                    io.emit(PastryOut::JoinFailed { attempts });
                    return;
                }
                pj.attempts += 1;
                let phase = if pj.attempts == 1 { "start" } else { "retry" };
                let contact = pj.contact;
                self.send_join(contact, phase, io);
                io.set_timer(JOIN_TIMEOUT_US, TIMER_JOIN_RETRY);
            }
            _ => {}
        }
    }
}

impl<A: App> Machine for PastryNode<A> {
    type Msg = PastryMsg<A::Payload>;
    type Out = PastryOut<A::Out>;

    fn step(&mut self, input: Input<Self::Msg>, io: &mut dyn Io<Self::Msg, Self::Out>) {
        PastryNode::step(self, input, io);
    }

    fn heap_bytes(&self) -> usize {
        PastryNode::heap_bytes(self)
    }
}
