//! The discrete-event message engine.
//!
//! Nodes are state machines implementing [`NodeLogic`]; the engine owns
//! them, delivers messages with topology-derived latency, models node
//! failure (messages to a dead node produce a delayed send-failure
//! notification at the sender, standing in for a timeout), and counts
//! traffic per message kind.
//!
//! Everything is deterministic: per-node seeded RNG streams, and events
//! ordered by `(time, source node, per-node sequence number)` — see
//! `partition.rs` for the model and DESIGN.md §12 for why that key,
//! rather than a global push counter, is the one order.

use crate::partition::{Partition, Tagged};
use crate::soa::NodeIo;
use crate::time::SimTime;
use crate::topology::{mix64, Addr, Topology};
use past_crypto::rng::Rng;
use past_trace::{SeriesConfig, TraceConfig, Tracer};
use past_wire::{Input, Machine, Message};

/// Per-node protocol logic driven by the engine.
pub trait NodeLogic {
    /// The wire message type.
    type Msg: Message;
    /// Out-of-band observations surfaced to the experiment harness
    /// (delivery records, receipts, rejections, ...).
    type Out;

    /// Handles a message arriving from `from`.
    fn on_message(&mut self, from: Addr, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg, Self::Out>);

    /// Called when a previously sent message could not be delivered because
    /// the destination is dead (models an RPC timeout).
    fn on_send_failed(
        &mut self,
        _to: Addr,
        _msg: Self::Msg,
        _ctx: &mut Ctx<'_, Self::Msg, Self::Out>,
    ) {
    }

    /// Handles a timer previously set with [`Ctx::set_timer`].
    fn on_timer(&mut self, _kind: u64, _ctx: &mut Ctx<'_, Self::Msg, Self::Out>) {}

    /// Bytes of heap this node owns beyond `size_of::<Self>()`, for
    /// [`Engine::memory`]; the default counts none.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The one adapter from the sans-io boundary onto the engine: every
/// engine callback becomes an [`Input`] applied through
/// [`Machine::step`], with the engine's [`Ctx`] as the effect sink. A
/// protocol crate implements `Machine` (from `past-wire`) and never
/// names this crate.
impl<S: Machine> NodeLogic for S {
    type Msg = S::Msg;
    type Out = S::Out;

    fn on_message(&mut self, from: Addr, msg: S::Msg, ctx: &mut Ctx<'_, S::Msg, S::Out>) {
        self.step(Input::Message { from, msg }, ctx);
    }

    fn on_send_failed(&mut self, to: Addr, msg: S::Msg, ctx: &mut Ctx<'_, S::Msg, S::Out>) {
        self.step(Input::SendFailed { to, msg }, ctx);
    }

    fn on_timer(&mut self, kind: u64, ctx: &mut Ctx<'_, S::Msg, S::Out>) {
        self.step(Input::Timer { kind }, ctx);
    }

    fn heap_bytes(&self) -> usize {
        Machine::heap_bytes(self)
    }
}

/// What the engine holds, in bytes, by structure ([`Engine::memory`]).
///
/// Every figure is `capacity() × size_of` of the buffers named — what
/// the allocator was asked for, not what is populated — so the parts
/// add up to the engine's share of the process's resident set. Not
/// counted: the topology, trace sinks, and heap owned by parked
/// messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Memory {
    /// The node structs themselves (`size_of::<N>()` per slot).
    pub node_inline: usize,
    /// Heap the nodes report through [`NodeLogic::heap_bytes`].
    pub node_heap: usize,
    /// In-flight payload slots and their free list.
    pub arena: usize,
    /// Event-queue buffers.
    pub wheel: usize,
    /// The per-node columns beside the node structs: two RNG states,
    /// the sequence counter, liveness and traffic counters.
    pub per_node_columns: usize,
}

impl Memory {
    /// The parts as `(name, bytes)` rows, in declaration order.
    pub fn rows(&self) -> [(&'static str, usize); 5] {
        [
            ("node_inline", self.node_inline),
            ("node_heap", self.node_heap),
            ("arena", self.arena),
            ("wheel", self.wheel),
            ("per_node_columns", self.per_node_columns),
        ]
    }

    /// Sum of the parts.
    pub fn total(&self) -> usize {
        self.rows().iter().map(|&(_, v)| v).sum()
    }
}

/// Link-fault injection parameters.
///
/// The all-zero default disables fault injection entirely: no RNG draws
/// happen, so a faultless engine is bit-identical to one that never heard
/// of faults. Each sender draws its faults from a dedicated per-node RNG
/// (seeded by [`Engine::set_faults`]), independent of the protocol RNGs,
/// so enabling them never perturbs routing/tie-break decisions and
/// identical seeds reproduce identical drop/duplicate/jitter sequences.
///
/// Self-sends (`from == to`, e.g. a node handing a message to its own
/// routing logic) are exempt: they never cross a link.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultConfig {
    /// Probability a message is silently lost in transit. Loss produces
    /// *no* send-failure notification — that signal models an RPC timeout
    /// against a dead peer, and a lossy link gives the sender nothing.
    pub loss: f64,
    /// Probability a surviving message is delivered twice (the duplicate
    /// takes an independent jitter draw).
    pub duplicate: f64,
    /// Extra per-message delay, drawn uniformly from `0..=jitter_us`.
    pub jitter_us: u64,
}

impl FaultConfig {
    /// True if any fault class is enabled.
    pub fn is_active(&self) -> bool {
        self.loss > 0.0 || self.duplicate > 0.0 || self.jitter_us > 0
    }
}

pub(crate) enum Effect<M> {
    Send { to: Addr, msg: M, extra_us: u64 },
    Timer { delay_us: u64, kind: u64 },
}

/// The per-invocation context handed to node logic.
///
/// Collects effects (sends, timers, emissions) which the engine applies
/// after the handler returns, and exposes the proximity metric and the
/// simulation RNG.
pub struct Ctx<'a, M, O> {
    /// Current simulated time.
    pub now: SimTime,
    /// Address of the node being invoked.
    pub me: Addr,
    /// This node's private protocol RNG stream (seeded from the run
    /// seed and the node address).
    pub rng: &'a mut Rng,
    /// The engine's trace sink. Node logic records protocol-level
    /// events (route hops, join phases, operation lifecycle) here; the
    /// engine itself records the message plane. No-op unless enabled
    /// via [`Engine::set_tracing`].
    pub tracer: &'a mut Tracer,
    // `pub(crate)` rather than private: `partition.rs` builds the
    // context around each handler call.
    pub(crate) topo: &'a dyn Topology,
    // Partition-owned scratch buffers, reused across invocations so the
    // per-event cost is a pointer swap rather than two allocations.
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) emitted: &'a mut Vec<O>,
}

impl<M, O> Ctx<'_, M, O> {
    /// Sends `msg` to `to`; it arrives after the topology delay.
    pub fn send(&mut self, to: Addr, msg: M) {
        self.effects.push(Effect::Send {
            to,
            msg,
            extra_us: 0,
        });
    }

    /// Sends `msg` to `to` with additional artificial delay (e.g. local
    /// processing or disk time).
    pub fn send_after(&mut self, to: Addr, msg: M, extra_us: u64) {
        self.effects.push(Effect::Send { to, msg, extra_us });
    }

    /// Arms a timer that fires at this node after `delay_us`.
    pub fn set_timer(&mut self, delay_us: u64, kind: u64) {
        self.effects.push(Effect::Timer { delay_us, kind });
    }

    /// One-way delay from this node to `other` (the proximity metric).
    ///
    /// In a deployment a node measures this by probing; the simulator
    /// answers from the topology directly.
    pub fn delay_to(&self, other: Addr) -> u64 {
        self.topo.delay_us(self.me, other)
    }

    /// Pairwise delay between two arbitrary nodes.
    pub fn delay_between(&self, a: Addr, b: Addr) -> u64 {
        self.topo.delay_us(a, b)
    }

    /// Emits an observation for the experiment harness.
    pub fn emit(&mut self, out: O) {
        self.emitted.push(out);
    }
}

/// The engine context is the simulator-side implementation of the
/// sans-io effect sink: protocol state machines written against
/// `past_wire::Io` run under the engine with no adapter code beyond
/// this impl.
impl<M, O> past_wire::Io<M, O> for Ctx<'_, M, O> {
    fn now_us(&self) -> u64 {
        self.now.as_micros()
    }

    fn me(&self) -> Addr {
        self.me
    }

    fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }

    fn delay_to(&self, other: Addr) -> u64 {
        Ctx::delay_to(self, other)
    }

    fn send(&mut self, to: Addr, msg: M) {
        Ctx::send(self, to, msg)
    }

    fn send_after(&mut self, to: Addr, msg: M, extra_us: u64) {
        Ctx::send_after(self, to, msg, extra_us)
    }

    fn set_timer(&mut self, delay_us: u64, kind: u64) {
        Ctx::set_timer(self, delay_us, kind)
    }

    fn emit(&mut self, out: O) {
        Ctx::emit(self, out)
    }
}

/// Per-kind traffic counters.
///
/// Counters are a flat array parallel to the message type's
/// [`Message::KINDS`] table, indexed by [`Message::kind_id`]; the by-name
/// lookup ([`kind_count`]) scans the (short, static) kind table.
///
/// [`kind_count`]: NetStats::kind_count
#[derive(Default, Debug, Clone)]
pub struct NetStats {
    kinds: &'static [&'static str],
    by_kind: Vec<u64>,
    /// Total messages sent.
    pub total_msgs: u64,
    /// Total bytes sent.
    pub total_bytes: u64,
    /// Messages silently lost by fault injection ([`FaultConfig::loss`]).
    pub dropped: u64,
    /// Extra deliveries created by fault injection
    /// ([`FaultConfig::duplicate`]).
    pub duplicated: u64,
    /// Messages that reached a dead destination (each schedules a
    /// send-failure notification back to the sender). Protocols that
    /// ignore [`NodeLogic::on_send_failed`] still show up here, keeping
    /// cross-protocol failure comparisons honest.
    pub failed_sends: u64,
}

impl NetStats {
    pub(crate) fn for_kinds(kinds: &'static [&'static str]) -> NetStats {
        NetStats {
            kinds,
            by_kind: vec![0; kinds.len()],
            total_msgs: 0,
            total_bytes: 0,
            dropped: 0,
            duplicated: 0,
            failed_sends: 0,
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&mut self) {
        self.by_kind.iter_mut().for_each(|c| *c = 0);
        self.total_msgs = 0;
        self.total_bytes = 0;
        self.dropped = 0;
        self.duplicated = 0;
        self.failed_sends = 0;
    }

    /// Mutable per-kind counters (partitions account sends on their
    /// own stats blocks).
    pub(crate) fn by_kind_mut(&mut self) -> &mut [u64] {
        &mut self.by_kind
    }

    /// Folds another stats block into this one (summing every counter).
    /// Used to combine per-partition counters into a run total.
    ///
    /// # Panics
    ///
    /// Panics if the two blocks count different kind tables.
    pub fn merge(&mut self, other: &NetStats) {
        assert!(
            std::ptr::eq(self.kinds, other.kinds) || self.kinds == other.kinds,
            "cannot merge stats over different kind tables"
        );
        for (mine, theirs) in self.by_kind.iter_mut().zip(other.by_kind.iter()) {
            *mine += theirs;
        }
        self.total_msgs += other.total_msgs;
        self.total_bytes += other.total_bytes;
        self.dropped += other.dropped;
        self.duplicated += other.duplicated;
        self.failed_sends += other.failed_sends;
    }

    /// Messages of one kind.
    pub fn kind_count(&self, kind: &str) -> u64 {
        match self.kinds.iter().position(|&k| k == kind) {
            Some(i) => self.by_kind[i],
            None => 0,
        }
    }

    /// Iterates `(kind, count)` pairs in [`Message::KINDS`] order.
    pub fn by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kinds.iter().copied().zip(self.by_kind.iter().copied())
    }
}

/// How far one [`Engine`] run may go.
#[derive(Clone, Copy)]
pub(crate) struct Limits {
    /// Stop once this many events have executed.
    pub(crate) max_events: u64,
    /// Leave events later than this queued.
    pub(crate) deadline: u64,
}

/// Advances the partitions within `Limits`; returns events executed.
/// Arguments: partitions, topology slots per partition, window width.
pub(crate) type Driver<N, T> = fn(&mut [Partition<N, T>], usize, u64, Limits) -> u64;

/// The one-partition driver: the caller's thread runs the queue dry, one
/// event at a time in key order — no thread, no barrier, no window.
fn drive_inline<N: NodeLogic, T: Topology>(
    parts: &mut [Partition<N, T>],
    _chunk: usize,
    _window_us: u64,
    lim: Limits,
) -> u64 {
    parts[0].run(lim.deadline, lim.max_events)
}

/// The discrete-event engine binding nodes, topology and the event
/// queue.
///
/// The node space is split into contiguous partitions, each a keyed
/// event core (`partition.rs`). [`Engine::new`] makes one and runs it
/// inline; [`Engine::new_sharded`] makes
/// [`ShardConfig::shards`](crate::ShardConfig::shards) of them and
/// advances them on worker threads in conservative windows
/// ([`crate::shard`]). Event order, RNG streams and every observable
/// are the same either way.
pub struct Engine<N: NodeLogic, T: Topology> {
    parts: Vec<Partition<N, T>>,
    /// Topology slots per partition (the last may own fewer).
    chunk: usize,
    window_us: u64,
    /// Chosen at construction, where the `Send` bounds the barrier
    /// driver needs are in scope — so an inline engine asks nothing of
    /// its node and topology types.
    drive: Driver<N, T>,
    n: usize,
    /// Topology capacity: partitions are laid out over the full address
    /// space up front, so node growth never re-partitions.
    cap: usize,
    /// Construction seed: per-node protocol RNG streams derive from it.
    seed: u64,
    /// Current fault seed: per-node fault streams derive from it, both
    /// at push time and on [`set_faults`](Engine::set_faults).
    fault_seed: u64,
    epoch: u64,
    now: u64,
    /// Harness-side RNG, separate from every node's protocol stream.
    rng: Rng,
    /// Harness-side trace sink (op lifecycle records); merged with the
    /// partition-local sinks by [`take_tracer`](Engine::take_tracer).
    tracer: Tracer,
    /// Traffic counters (public so harnesses can reset/read them);
    /// current whenever the engine is not running.
    pub stats: NetStats,
    /// Merge-and-sort staging buffer of [`drain_outputs`](Engine::drain_outputs).
    out_scratch: Vec<Tagged<N::Out>>,
}

impl<N: NodeLogic, T: Topology> Engine<N, T> {
    /// Creates a one-partition engine over `nodes` (one per topology
    /// slot prefix), run inline on the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if there are more nodes than topology slots.
    pub fn new(topo: T, nodes: Vec<N>, seed: u64) -> Engine<N, T> {
        Self::with_parts(vec![topo], 0, seed, drive_inline, nodes)
    }

    /// Lays one partition per (identical) topology copy over the
    /// topology's address slots.
    pub(crate) fn with_parts(
        topos: Vec<T>,
        window_us: u64,
        seed: u64,
        drive: Driver<N, T>,
        nodes: Vec<N>,
    ) -> Engine<N, T> {
        let cap = topos[0].len();
        assert!(
            nodes.len() <= cap,
            "more nodes ({}) than topology slots ({cap})",
            nodes.len()
        );
        assert!(
            cap < u32::MAX as usize,
            "node address space (u32) exhausted"
        );
        let solo = topos.len() == 1;
        let chunk = cap.div_ceil(topos.len()).max(1);
        let parts = topos
            .into_iter()
            .enumerate()
            .map(|(id, topo)| Partition::new(id, id * chunk, solo, topo))
            .collect();
        let mut e = Engine {
            parts,
            chunk,
            window_us,
            drive,
            n: 0,
            cap,
            seed,
            fault_seed: seed,
            epoch: 0,
            now: 0,
            rng: Rng::seed_from_u64(seed),
            tracer: Tracer::for_kinds(N::Msg::KINDS),
            stats: NetStats::for_kinds(N::Msg::KINDS),
            out_scratch: Vec::new(),
        };
        e.reserve_nodes(nodes.len());
        for node in nodes {
            e.push_node(node);
        }
        e.epoch = 0;
        e
    }

    /// Index of the partition owning address `a`.
    fn owner(&self, a: Addr) -> usize {
        a / self.chunk
    }

    fn part(&self, a: Addr) -> &Partition<N, T> {
        &self.parts[self.owner(a)]
    }

    fn part_mut(&mut self, a: Addr) -> &mut Partition<N, T> {
        let i = self.owner(a);
        &mut self.parts[i]
    }

    /// Current simulated time (all partitions agree between runs).
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.now)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true if the engine has no nodes (the state every
    /// overlay builder starts from).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of partitions actually in use (an engine may use fewer
    /// than asked for if there are not enough topology slots).
    pub fn shard_count(&self) -> usize {
        self.parts.len()
    }

    /// The topology (proximity oracle).
    pub fn topology(&self) -> &T {
        &self.parts[0].topo
    }

    /// Immutable access to a node's state.
    pub fn node(&self, a: Addr) -> &N {
        let p = self.part(a);
        p.nodes.logic(a - p.base)
    }

    /// Mutable access to a node's state (harness-side setup only).
    pub fn node_mut(&mut self, a: Addr) -> &mut N {
        let p = self.part_mut(a);
        p.nodes.logic_mut(a - p.base)
    }

    /// Per-node traffic counters (messages sent / received).
    pub fn node_io(&self, a: Addr) -> NodeIo {
        let p = self.part(a);
        p.nodes.io(a - p.base)
    }

    /// Reserves storage in the partitions that will receive the next
    /// `extra` nodes, so bulk builds (e.g. a 100k-node overlay) grow
    /// the node arrays once instead of doubling through them.
    pub fn reserve_nodes(&mut self, extra: usize) {
        let mut remaining = extra.min(self.cap - self.n);
        let mut next = self.n;
        while remaining > 0 {
            let room = ((next / self.chunk + 1) * self.chunk).min(self.cap) - next;
            let take = room.min(remaining);
            self.part_mut(next).reserve(take);
            next += take;
            remaining -= take;
        }
    }

    /// Adds a node (returns its address). Addresses are dense in push
    /// order; the owning partition is fixed by the contiguous layout.
    /// The topology must already have a slot for it.
    pub fn push_node(&mut self, node: N) -> Addr {
        let addr = self.n;
        assert!(addr < self.cap, "no topology slot for new node");
        let (seed, fault_seed) = (self.seed, self.fault_seed);
        self.part_mut(addr).push_node(node, seed, fault_seed);
        self.n += 1;
        self.epoch += 1;
        addr
    }

    /// Liveness of a node.
    pub fn is_alive(&self, a: Addr) -> bool {
        let p = self.part(a);
        p.nodes.is_alive(a - p.base)
    }

    fn set_alive(&mut self, a: Addr, alive: bool) {
        let p = self.part_mut(a);
        p.nodes.set_alive(a - p.base, alive);
        self.epoch += 1;
    }

    /// Marks a node dead: it silently stops processing and answering.
    pub fn kill(&mut self, a: Addr) {
        self.set_alive(a, false);
    }

    /// Marks a node live again (recovery).
    pub fn revive(&mut self, a: Addr) {
        self.set_alive(a, true);
    }

    /// Membership epoch: incremented on every [`push_node`], [`kill`] and
    /// [`revive`], so harness-side caches over the live-node set can be
    /// invalidated by comparing epochs instead of rescanning.
    ///
    /// [`push_node`]: Engine::push_node
    /// [`kill`]: Engine::kill
    /// [`revive`]: Engine::revive
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Addresses of all live nodes, ascending.
    pub fn live_addrs(&self) -> Vec<Addr> {
        let mut out = Vec::new();
        for p in &self.parts {
            out.extend(p.nodes.live_addrs().into_iter().map(|a| a + p.base));
        }
        out
    }

    /// The harness-side RNG (sampling, id generation). Never touched by
    /// node logic, whose draws come from per-node streams.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Enables (or reconfigures) link-fault injection.
    ///
    /// Every node's fault stream is reseeded from `seed` and its
    /// address (nodes pushed later derive theirs from the same seed):
    /// the same seed and configuration reproduce the exact same
    /// drop/duplicate/jitter sequence over the same message stream.
    /// Passing [`FaultConfig::default`] turns faults off again.
    pub fn set_faults(&mut self, faults: FaultConfig, seed: u64) {
        assert!((0.0..=1.0).contains(&faults.loss), "loss out of [0,1]");
        assert!(
            (0.0..=1.0).contains(&faults.duplicate),
            "duplicate out of [0,1]"
        );
        self.fault_seed = seed;
        for p in &mut self.parts {
            p.set_faults(faults, seed);
        }
    }

    /// The fault configuration in force.
    pub fn faults(&self) -> FaultConfig {
        self.parts[0].faults
    }

    /// Selects which trace event classes are recorded, on the harness
    /// sink and every partition-local sink. The default is everything
    /// off: record calls return after one branch, no allocation
    /// happens, and simulation outcomes are bit-identical to an engine
    /// that never heard of tracing. Tracing draws no randomness, so
    /// enabling it never perturbs outcomes either.
    pub fn set_tracing(&mut self, cfg: TraceConfig) {
        self.tracer.configure(cfg);
        for p in &mut self.parts {
            p.tracer.configure(cfg);
        }
    }

    /// Attaches a flight recorder (sim-time windowed series) to every
    /// trace sink. Like tracing, sampling is observation only: it draws
    /// no randomness and never perturbs event order, so golden
    /// fingerprints stay bit-identical with a series attached.
    /// Partition series merge into the harness series in
    /// [`take_tracer`](Engine::take_tracer).
    pub fn set_series(&mut self, cfg: SeriesConfig) {
        self.tracer.set_series(cfg);
        for p in &mut self.parts {
            p.tracer.set_series(cfg);
            p.reset_sampling();
        }
    }

    /// The harness-side trace sink. Partition-local records (message
    /// plane, per-hop protocol events) are *not* visible here until
    /// [`take_tracer`](Engine::take_tracer) merges them.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable harness-side trace sink (op lifecycle records).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Takes the full trace out of the engine (for post-run analysis):
    /// absorbs every partition's records and metrics into the harness
    /// trace and sorts the result canonically, so the merged trace is
    /// identical under any partition count. Leaves fresh disabled
    /// sinks behind.
    pub fn take_tracer(&mut self) -> Tracer {
        let fresh = || Tracer::for_kinds(N::Msg::KINDS);
        let mut t = std::mem::replace(&mut self.tracer, fresh());
        for p in &mut self.parts {
            t.absorb(std::mem::replace(&mut p.tracer, fresh()));
        }
        t.sort_canonical();
        t
    }

    /// Injects a message into `to` as if sent by `from`, arriving after
    /// the topology delay (plus `extra_us`). The fault model applies,
    /// drawn from the sender's fault stream.
    pub fn inject(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        self.part_mut(from).dispatch(from, to, msg, extra_us);
        self.settle();
    }

    /// Runs `f` on node `a` with a live [`Ctx`] at the current time, and
    /// schedules what it wrote exactly as if an event had run it: the
    /// way a harness starts a protocol action the node itself owns (a
    /// join, a revival, a client request). The node's liveness is not
    /// consulted.
    pub fn act<R>(
        &mut self,
        a: Addr,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Out>) -> R,
    ) -> R {
        let ret = self.part_mut(a).act(a, f);
        self.settle();
        ret
    }

    /// Arms a timer on a node from the harness side.
    pub fn arm_timer(&mut self, at: Addr, delay_us: u64, kind: u64) {
        self.part_mut(at).push_timer(at, delay_us, kind);
    }

    /// Restores the between-runs state after partitions have moved:
    /// wires still in an outbox go straight into their destination
    /// queues (no window constraint applies: nothing is executing),
    /// partition counters fold into [`stats`](Engine::stats), and the
    /// clocks re-sync so harness actions use the same global time
    /// under any partition count.
    fn settle(&mut self) {
        for src in 0..self.parts.len() {
            for w in std::mem::take(&mut self.parts[src].outbox) {
                let to = self.owner(w.at as usize);
                self.parts[to].enqueue(w);
            }
        }
        for p in &mut self.parts {
            self.stats.merge(&p.stats);
            p.stats.reset();
            self.now = self.now.max(p.now);
        }
        for p in &mut self.parts {
            p.now = self.now;
        }
    }

    /// Drains observations emitted by node logic since the last call,
    /// merged in global event-key order (execution order on one
    /// partition, and the same order under any partition count).
    pub fn drain_outputs(&mut self) -> Vec<(SimTime, Addr, N::Out)> {
        let mut all = std::mem::take(&mut self.out_scratch);
        for p in &mut self.parts {
            all.append(&mut p.outputs);
        }
        all.sort_by_key(|&(t, tie, k, _, _)| (t, tie, k));
        let out = all
            .drain(..)
            .map(|(t, _, _, a, o)| (SimTime::from_micros(t), a, o))
            .collect();
        self.out_scratch = all;
        out
    }

    fn run(&mut self, lim: Limits) -> u64 {
        let n = (self.drive)(&mut self.parts, self.chunk, self.window_us, lim);
        self.settle();
        n
    }

    /// Runs until the queue drains or `max_events` is hit; returns the
    /// number of events processed.
    ///
    /// On one partition the run stops on the exact event. On several
    /// the budget is checked at window barriers, so up to one window's
    /// worth of extra events may run; a budget-limited run is therefore
    /// the one place where partition counts differ observably.
    pub fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        self.run(Limits {
            max_events,
            deadline: u64::MAX,
        })
    }

    /// Runs until simulated time reaches `deadline` (events at later times
    /// stay queued); returns events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = self.run(Limits {
            max_events: u64::MAX,
            deadline: deadline.as_micros(),
        });
        if self.now < deadline.as_micros() {
            self.now = deadline.as_micros();
            for p in &mut self.parts {
                p.now = self.now;
            }
        }
        n
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.parts.iter().map(|p| p.queue.len()).sum()
    }

    /// Number of message payloads currently parked in flight.
    pub fn in_flight_msgs(&self) -> usize {
        self.parts.iter().map(|p| p.arena.len()).sum()
    }

    /// What the engine holds right now, summed over partitions.
    pub fn memory(&self) -> Memory {
        self.parts.iter().fold(Memory::default(), |acc, p| {
            let m = p.memory();
            Memory {
                node_inline: acc.node_inline + m.node_inline,
                node_heap: acc.node_heap + m.node_heap,
                arena: acc.arena + m.arena,
                wheel: acc.wheel + m.wheel,
                per_node_columns: acc.per_node_columns + m.per_node_columns,
            }
        })
    }

    /// Records each partition's [`Memory`] in the flight recorder at the
    /// current time, as per-shard diagnostics (`shard{i}.mem_*`): buffer
    /// capacities legitimately differ with the partition count, so they
    /// stay out of the canonical series. No-op without a series.
    pub fn sample_memory(&mut self) {
        let Some(series) = self.tracer.series_mut() else {
            return;
        };
        for (i, p) in self.parts.iter().enumerate() {
            let m = p.memory();
            series.shard_gauge(self.now, i, "mem_node_inline", m.node_inline as u64);
            series.shard_gauge(self.now, i, "mem_node_heap", m.node_heap as u64);
            series.shard_gauge(self.now, i, "mem_arena", m.arena as u64);
            series.shard_gauge(self.now, i, "mem_wheel", m.wheel as u64);
            series.shard_gauge(
                self.now,
                i,
                "mem_per_node_columns",
                m.per_node_columns as u64,
            );
        }
    }

    /// Events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.parts.iter().map(|p| p.events).sum()
    }

    /// Commutative run fingerprint: a wrapping sum of per-event key
    /// digests plus the event count. Identical for identical runs under
    /// any partition count; any divergence in event times, sources or
    /// sequence numbers changes it.
    pub fn fingerprint(&self) -> u64 {
        let fp = self.parts.iter().fold(0u64, |fp, p| fp.wrapping_add(p.fp));
        mix64(self.events_executed()).wrapping_add(fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::UniformRandom;

    /// A toy protocol: Ping is answered with Pong; delivery is emitted.
    #[derive(Clone)]
    enum PingMsg {
        Ping(u32),
        Pong(u32),
    }

    impl Message for PingMsg {
        const KINDS: &'static [&'static str] = &["ping", "pong"];

        fn kind_id(&self) -> usize {
            match self {
                PingMsg::Ping(_) => 0,
                PingMsg::Pong(_) => 1,
            }
        }
    }

    #[derive(Default)]
    struct PingNode {
        pongs: Vec<u32>,
        failures: Vec<Addr>,
        timers: Vec<u64>,
    }

    impl NodeLogic for PingNode {
        type Msg = PingMsg;
        type Out = u32;

        fn on_message(&mut self, from: Addr, msg: PingMsg, ctx: &mut Ctx<'_, PingMsg, u32>) {
            match msg {
                PingMsg::Ping(n) => ctx.send(from, PingMsg::Pong(n + 1)),
                PingMsg::Pong(n) => {
                    self.pongs.push(n);
                    ctx.emit(n);
                }
            }
        }

        fn on_send_failed(&mut self, to: Addr, _msg: PingMsg, _ctx: &mut Ctx<'_, PingMsg, u32>) {
            self.failures.push(to);
        }

        fn on_timer(&mut self, kind: u64, _ctx: &mut Ctx<'_, PingMsg, u32>) {
            self.timers.push(kind);
        }
    }

    fn engine(n: usize) -> Engine<PingNode, UniformRandom> {
        let topo = UniformRandom::new(n, 42, 1_000, 5_000);
        let nodes = (0..n).map(|_| PingNode::default()).collect();
        Engine::new(topo, nodes, 7)
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut e = engine(2);
        e.inject(0, 1, PingMsg::Ping(10), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node(0).pongs, vec![11]);
        let outs = e.drain_outputs();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].1, 0);
        assert_eq!(outs[0].2, 11);
        assert!(e.drain_outputs().is_empty(), "a second drain finds nothing");
        // One ping + one pong accounted.
        assert_eq!(e.stats.kind_count("ping"), 1);
        assert_eq!(e.stats.kind_count("pong"), 1);
        assert_eq!(e.stats.total_msgs, 2);
    }

    #[test]
    fn latency_is_topology_delay() {
        let mut e = engine(2);
        let d = e.topology().delay_us(0, 1);
        e.inject(0, 1, PingMsg::Ping(0), 0);
        e.run_until_quiet(100);
        // Round trip = 2 * one-way delay.
        assert_eq!(e.now().as_micros(), 2 * d);
    }

    #[test]
    fn dead_node_triggers_send_failed() {
        let mut e = engine(2);
        e.kill(1);
        e.inject(0, 1, PingMsg::Ping(0), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node(0).failures, vec![1]);
        assert!(e.node(0).pongs.is_empty());
    }

    #[test]
    fn revived_node_answers_again() {
        let mut e = engine(2);
        e.kill(1);
        e.revive(1);
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node(0).pongs, vec![2]);
    }

    #[test]
    fn timers_fire_in_order() {
        let mut e = engine(1);
        e.arm_timer(0, 500, 2);
        e.arm_timer(0, 100, 1);
        e.run_until_quiet(10);
        assert_eq!(e.node(0).timers, vec![1, 2]);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut e = engine(2);
        e.arm_timer(0, 1_000, 1);
        e.arm_timer(0, 10_000, 2);
        e.run_until(SimTime::from_micros(5_000));
        assert_eq!(e.node(0).timers, vec![1]);
        assert_eq!(e.now(), SimTime::from_micros(5_000));
        e.run_until_quiet(10);
        assert_eq!(e.node(0).timers, vec![1, 2]);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut e = engine(8);
            for i in 0..8 {
                e.inject(i, (i + 1) % 8, PingMsg::Ping(i as u32), 0);
            }
            e.run_until_quiet(1_000);
            (e.now(), e.stats.total_msgs)
        };
        assert_eq!(run(), run());
    }

    /// Runs a seeded ping flood on `e` to quiescence and folds it into
    /// one comparable tuple.
    fn flood(e: &mut Engine<PingNode, UniformRandom>) -> (SimTime, u64, u64, u64, u64) {
        for round in 0..50u32 {
            for i in 0..8 {
                e.inject(i, (i + round as usize) % 8, PingMsg::Ping(round), 0);
            }
        }
        e.run_until_quiet(100_000);
        let pongs: u64 = (0..8).map(|a| e.node(a).pongs.len() as u64).sum();
        (
            e.now(),
            e.stats.total_msgs,
            e.stats.dropped,
            e.stats.duplicated,
            pongs,
        )
    }

    /// [`flood`] under a given fault configuration.
    fn fault_run(faults: FaultConfig, fault_seed: u64) -> (SimTime, u64, u64, u64, u64) {
        let mut e = engine(8);
        e.set_faults(faults, fault_seed);
        flood(&mut e)
    }

    #[test]
    fn fault_sequences_replay_bit_identically() {
        let faults = FaultConfig {
            loss: 0.2,
            duplicate: 0.1,
            jitter_us: 700,
        };
        let a = fault_run(faults, 99);
        let b = fault_run(faults, 99);
        assert_eq!(a, b, "same fault seed must reproduce the same run");
        assert!(a.2 > 0, "a 20% loss flood must drop something");
        assert!(a.3 > 0, "a 10% duplicate flood must duplicate something");
    }

    #[test]
    fn fault_seed_changes_the_drop_pattern() {
        let faults = FaultConfig {
            loss: 0.2,
            duplicate: 0.0,
            jitter_us: 0,
        };
        let a = fault_run(faults, 1);
        let b = fault_run(faults, 2);
        assert_ne!(
            (a.0, a.2),
            (b.0, b.2),
            "different fault seeds should not produce identical runs"
        );
    }

    #[test]
    fn zero_fault_config_is_bit_identical_to_no_faults() {
        assert_eq!(
            fault_run(FaultConfig::default(), 123),
            flood(&mut engine(8)),
            "an all-zero fault config must not perturb the simulation"
        );
    }

    #[test]
    fn lost_messages_produce_no_send_failure() {
        let mut e = engine(2);
        e.set_faults(
            FaultConfig {
                loss: 1.0,
                duplicate: 0.0,
                jitter_us: 0,
            },
            7,
        );
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        assert!(e.node(0).failures.is_empty(), "loss must be silent");
        assert!(e.node(0).pongs.is_empty());
        assert_eq!(e.stats.dropped, 1);
        // Accounting still counts the send: the bytes hit the wire.
        assert_eq!(e.stats.total_msgs, 1);
    }

    #[test]
    fn self_sends_are_exempt_from_loss() {
        let mut e = engine(2);
        e.set_faults(
            FaultConfig {
                loss: 1.0,
                duplicate: 0.0,
                jitter_us: 0,
            },
            7,
        );
        // 0 → 0: the ping crosses no link, so it must arrive; the pong
        // back to self is likewise exempt.
        e.inject(0, 0, PingMsg::Ping(5), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node(0).pongs, vec![6]);
        assert_eq!(e.stats.dropped, 0);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let mut e = engine(2);
        e.set_faults(
            FaultConfig {
                loss: 0.0,
                duplicate: 1.0,
                jitter_us: 0,
            },
            7,
        );
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        // Ping doubled, each answered; pongs doubled again at node 0.
        assert_eq!(e.node(0).pongs, vec![2, 2, 2, 2]);
        assert_eq!(e.stats.duplicated, 3);
    }

    #[test]
    fn dead_destinations_are_counted() {
        let mut e = engine(3);
        e.kill(1);
        e.inject(0, 1, PingMsg::Ping(0), 0);
        e.inject(2, 1, PingMsg::Ping(0), 0);
        e.run_until_quiet(100);
        assert_eq!(e.stats.failed_sends, 2);
    }

    /// The one dead-destination rule: the failure notice always travels
    /// back and is dropped on arrival at a dead sender. The failed send
    /// is counted once, the handler never runs, and the payload that
    /// rode the bounce is reclaimed.
    #[test]
    fn bounce_to_a_sender_that_died_meanwhile_is_dropped_on_arrival() {
        let mut e = engine(2);
        e.kill(1);
        e.inject(0, 1, PingMsg::Ping(0), 0);
        // Exactly the failed delivery; the notice is now in flight.
        assert_eq!(e.run_until_quiet(1), 1);
        assert_eq!(e.stats.failed_sends, 1);
        assert_eq!((e.pending(), e.in_flight_msgs()), (1, 1));
        e.kill(0);
        assert_eq!(e.run_until_quiet(100), 1);
        assert_eq!(e.stats.failed_sends, 1);
        assert!(e.node(0).failures.is_empty(), "a dead sender hears nothing");
        assert_eq!((e.pending(), e.in_flight_msgs()), (0, 0), "arena leaked");
    }

    #[test]
    fn event_budget_stops_on_the_exact_event() {
        let mut e = engine(8);
        for i in 0..8 {
            e.inject(i, (i + 1) % 8, PingMsg::Ping(0), 0);
        }
        // 8 pings + 8 pongs in total.
        assert_eq!(e.run_until_quiet(5), 5);
        assert_eq!(e.events_executed(), 5);
        assert_eq!(e.run_until_quiet(u64::MAX), 11);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn tracing_is_off_by_default_and_records_nothing() {
        let mut e = engine(4);
        for i in 0..4 {
            e.inject(i, (i + 1) % 4, PingMsg::Ping(1), 0);
        }
        e.run_until_quiet(1_000);
        let t = e.take_tracer();
        assert!(!t.enabled());
        assert!(t.records().is_empty());
        assert_eq!(t.fingerprint(), past_trace::fnv1a(b""));
    }

    /// Enabling tracing must not perturb a faulty run (the tracer draws
    /// no randomness), and the same seed must reproduce the same trace.
    #[test]
    fn tracing_does_not_perturb_and_replays_bit_identically() {
        let faults = FaultConfig {
            loss: 0.2,
            duplicate: 0.1,
            jitter_us: 700,
        };
        let untraced = fault_run(faults, 99);
        let traced = |()| {
            let mut e = engine(8);
            e.set_faults(faults, 99);
            e.set_tracing(TraceConfig::full());
            (flood(&mut e), e.take_tracer().fingerprint())
        };
        let (a_tuple, a_fp) = traced(());
        let (b_tuple, b_fp) = traced(());
        assert_eq!(a_tuple, untraced, "tracing must not change outcomes");
        assert_eq!(a_tuple, b_tuple);
        assert_eq!(a_fp, b_fp, "same seed must produce the same trace");
    }

    #[test]
    fn per_node_io_counters_track_traffic() {
        let mut e = engine(3);
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        // 0 sent the ping and received the pong; 1 the reverse.
        assert_eq!(e.node_io(0), crate::soa::NodeIo { sent: 1, recv: 1 });
        assert_eq!(e.node_io(1), crate::soa::NodeIo { sent: 1, recv: 1 });
        assert_eq!(e.node_io(2), crate::soa::NodeIo::default());
        // Lost sends still count as sent (the bytes hit the wire).
        e.set_faults(
            FaultConfig {
                loss: 1.0,
                duplicate: 0.0,
                jitter_us: 0,
            },
            7,
        );
        e.inject(2, 0, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        assert_eq!(e.node_io(2), crate::soa::NodeIo { sent: 1, recv: 0 });
    }

    #[test]
    fn in_flight_arena_drains_with_the_queue() {
        let mut e = engine(4);
        for i in 0..4 {
            e.inject(i, (i + 1) % 4, PingMsg::Ping(1), 0);
        }
        assert_eq!(e.in_flight_msgs(), 4);
        e.run_until_quiet(1_000);
        assert_eq!(e.in_flight_msgs(), 0, "all payloads reclaimed");
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn message_plane_events_are_recorded() {
        use past_trace::TraceEvent;
        let mut e = engine(3);
        e.set_tracing(TraceConfig::full());
        e.kill(2);
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.inject(0, 2, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        // Message-plane records land partition-locally; the merged
        // trace is what `take_tracer` hands out.
        let t = e.take_tracer();
        let has = |f: &dyn Fn(&TraceEvent) -> bool| t.records().iter().any(|r| f(&r.ev));
        assert!(has(&|ev| matches!(
            ev,
            TraceEvent::MsgSend { from: 0, to: 1, .. }
        )));
        assert!(has(&|ev| matches!(ev, TraceEvent::MsgRecv { to: 1, .. })));
        assert!(has(&|ev| matches!(ev, TraceEvent::MsgFail { to: 2, .. })));
        // The per-kind metrics saw the same traffic.
        assert_eq!(t.metrics.failed_by_kind().next(), Some(("ping", 1)));
    }
}
