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

use crate::partition::Partition;
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

    /// Mutable per-kind counters (the event core accounts sends on its
    /// own stats block).
    pub(crate) fn by_kind_mut(&mut self) -> &mut [u64] {
        &mut self.by_kind
    }

    /// Folds another stats block into this one (summing every counter).
    /// Used to fold the event core's counters into the engine's total.
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

/// The discrete-event engine binding nodes, topology and the event
/// queue: one keyed event core (`partition.rs`) run inline on the
/// caller's thread, plus the harness-side RNG, trace sink and counters.
pub struct Engine<N: NodeLogic, T: Topology> {
    core: Partition<N, T>,
    /// Construction seed: per-node protocol RNG streams derive from it.
    seed: u64,
    /// Current fault seed: per-node fault streams derive from it, both
    /// at push time and on [`set_faults`](Engine::set_faults).
    fault_seed: u64,
    epoch: u64,
    /// Harness-side RNG, separate from every node's protocol stream.
    rng: Rng,
    /// Harness-side trace sink (op lifecycle records); merged with the
    /// node-side sink by [`take_tracer`](Engine::take_tracer).
    tracer: Tracer,
    /// Traffic counters (public so harnesses can reset/read them);
    /// current whenever the engine is not running.
    pub stats: NetStats,
}

impl<N: NodeLogic, T: Topology> Engine<N, T> {
    /// Creates an engine over `nodes` (one per topology slot prefix),
    /// run inline on the caller's thread.
    ///
    /// # Panics
    ///
    /// Panics if there are more nodes than topology slots.
    pub fn new(topo: T, nodes: Vec<N>, seed: u64) -> Engine<N, T> {
        let cap = topo.len();
        assert!(
            nodes.len() <= cap,
            "more nodes ({}) than topology slots ({cap})",
            nodes.len()
        );
        assert!(
            cap < u32::MAX as usize,
            "node address space (u32) exhausted"
        );
        let mut e = Engine {
            core: Partition::new(topo),
            seed,
            fault_seed: seed,
            epoch: 0,
            rng: Rng::seed_from_u64(seed),
            tracer: Tracer::for_kinds(N::Msg::KINDS),
            stats: NetStats::for_kinds(N::Msg::KINDS),
        };
        e.reserve_nodes(nodes.len());
        for node in nodes {
            e.push_node(node);
        }
        e.epoch = 0;
        e
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime::from_micros(self.core.now)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.core.nodes.len()
    }

    /// Returns true if the engine has no nodes (the state every
    /// overlay builder starts from).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The topology (proximity oracle).
    pub fn topology(&self) -> &T {
        &self.core.topo
    }

    /// Immutable access to a node's state.
    pub fn node(&self, a: Addr) -> &N {
        self.core.nodes.logic(a)
    }

    /// Mutable access to a node's state (harness-side setup only).
    pub fn node_mut(&mut self, a: Addr) -> &mut N {
        self.core.nodes.logic_mut(a)
    }

    /// Per-node traffic counters (messages sent / received).
    pub fn node_io(&self, a: Addr) -> NodeIo {
        self.core.nodes.io(a)
    }

    /// Reserves storage for the next `extra` nodes, so bulk builds
    /// (e.g. a 100k-node overlay) grow the node arrays once instead of
    /// doubling through them.
    pub fn reserve_nodes(&mut self, extra: usize) {
        let room = self.core.topo.len() - self.len();
        self.core.reserve(extra.min(room));
    }

    /// Adds a node (returns its address). Addresses are dense in push
    /// order. The topology must already have a slot for it.
    pub fn push_node(&mut self, node: N) -> Addr {
        let addr = self.len();
        assert!(addr < self.core.topo.len(), "no topology slot for new node");
        self.core.push_node(node, self.seed, self.fault_seed);
        self.epoch += 1;
        addr
    }

    /// Liveness of a node.
    pub fn is_alive(&self, a: Addr) -> bool {
        self.core.nodes.is_alive(a)
    }

    fn set_alive(&mut self, a: Addr, alive: bool) {
        self.core.nodes.set_alive(a, alive);
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
        self.core.nodes.live_addrs()
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
        self.core.set_faults(faults, seed);
    }

    /// The fault configuration in force.
    pub fn faults(&self) -> FaultConfig {
        self.core.faults
    }

    /// Selects which trace event classes are recorded, on the harness
    /// sink and the node-side sink. The default is everything off:
    /// record calls return after one branch, no allocation happens, and
    /// simulation outcomes are bit-identical to an engine that never
    /// heard of tracing. Tracing draws no randomness, so enabling it
    /// never perturbs outcomes either.
    pub fn set_tracing(&mut self, cfg: TraceConfig) {
        self.tracer.configure(cfg);
        self.core.tracer.configure(cfg);
    }

    /// Attaches a flight recorder (sim-time windowed series) to both
    /// trace sinks. Like tracing, sampling is observation only: it draws
    /// no randomness and never perturbs event order, so golden
    /// fingerprints stay bit-identical with a series attached. The
    /// node-side series merges into the harness series in
    /// [`take_tracer`](Engine::take_tracer).
    pub fn set_series(&mut self, cfg: SeriesConfig) {
        self.tracer.set_series(cfg);
        self.core.tracer.set_series(cfg);
        self.core.reset_sampling();
    }

    /// The harness-side trace sink. Node-side records (message plane,
    /// per-hop protocol events) are *not* visible here until
    /// [`take_tracer`](Engine::take_tracer) merges them.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable harness-side trace sink (op lifecycle records).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Takes the full trace out of the engine (for post-run analysis):
    /// absorbs the node-side records and metrics into the harness trace
    /// and sorts the result canonically, so harness and node records
    /// interleave in one defined order. Leaves fresh disabled sinks
    /// behind.
    pub fn take_tracer(&mut self) -> Tracer {
        let fresh = || Tracer::for_kinds(N::Msg::KINDS);
        let mut t = std::mem::replace(&mut self.tracer, fresh());
        t.absorb(std::mem::replace(&mut self.core.tracer, fresh()));
        t.sort_canonical();
        t
    }

    /// Injects a message into `to` as if sent by `from`, arriving after
    /// the topology delay (plus `extra_us`). The fault model applies,
    /// drawn from the sender's fault stream.
    pub fn inject(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        self.core.dispatch(from, to, msg, extra_us);
        self.fold_stats();
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
        let ret = self.core.act(a, f);
        self.fold_stats();
        ret
    }

    /// Arms a timer on a node from the harness side.
    pub fn arm_timer(&mut self, at: Addr, delay_us: u64, kind: u64) {
        self.core.push_timer(at, delay_us, kind);
    }

    /// Folds the core's counters into [`stats`](Engine::stats), which a
    /// harness may reset or read between runs.
    fn fold_stats(&mut self) {
        self.stats.merge(&self.core.stats);
        self.core.stats.reset();
    }

    /// Drains observations emitted by node logic since the last call,
    /// in event-key order: execution order, except that a harness
    /// [`act`](Engine::act)'s emissions, keyed by the node's next
    /// sequence number, take their place among same-time events.
    pub fn drain_outputs(&mut self) -> Vec<(SimTime, Addr, N::Out)> {
        let outputs = &mut self.core.outputs;
        outputs.sort_by_key(|&(t, tie, k, _, _)| (t, tie, k));
        outputs
            .drain(..)
            .map(|(t, _, _, a, o)| (SimTime::from_micros(t), a, o))
            .collect()
    }

    fn run(&mut self, deadline: u64, max_events: u64) -> u64 {
        let n = self.core.run(deadline, max_events);
        self.fold_stats();
        n
    }

    /// Runs until the queue drains or `max_events` is hit; returns the
    /// number of events processed. The run stops on the exact event.
    pub fn run_until_quiet(&mut self, max_events: u64) -> u64 {
        self.run(u64::MAX, max_events)
    }

    /// Runs until simulated time reaches `deadline` (events at later times
    /// stay queued); returns events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let n = self.run(deadline.as_micros(), u64::MAX);
        self.core.now = self.core.now.max(deadline.as_micros());
        n
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.core.queue.len()
    }

    /// Number of message payloads currently parked in flight.
    pub fn in_flight_msgs(&self) -> usize {
        self.core.arena.len()
    }

    /// What the engine holds right now.
    pub fn memory(&self) -> Memory {
        self.core.memory()
    }

    /// Records the engine's [`Memory`] in the flight recorder at the
    /// current time, as `mem_*` diagnostics: buffer capacities move
    /// with every allocation-policy change, so they stay out of the
    /// canonical series and its fingerprint. No-op without a series.
    pub fn sample_memory(&mut self) {
        let now = self.core.now;
        let m = self.core.memory();
        let Some(series) = self.tracer.series_mut() else {
            return;
        };
        series.diag_gauge(now, "mem_node_inline", m.node_inline as u64);
        series.diag_gauge(now, "mem_node_heap", m.node_heap as u64);
        series.diag_gauge(now, "mem_arena", m.arena as u64);
        series.diag_gauge(now, "mem_wheel", m.wheel as u64);
        series.diag_gauge(now, "mem_per_node_columns", m.per_node_columns as u64);
    }

    /// Events executed so far.
    pub fn events_executed(&self) -> u64 {
        self.core.events
    }

    /// Commutative run fingerprint: a wrapping sum of per-event key
    /// digests plus the event count. Identical for identical runs; any
    /// divergence in event times, sources or sequence numbers changes
    /// it.
    pub fn fingerprint(&self) -> u64 {
        mix64(self.events_executed()).wrapping_add(self.core.fp)
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
        // Message-plane records land in the node-side sink; the merged
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

    #[test]
    fn grown_engine_matches_constructed_engine() {
        // `push_node` growth must be bit-identical to handing every
        // node to the constructor, and addresses must be dense, stable
        // and in push order.
        let mut grown = Engine::new(UniformRandom::new(8, 42, 1_000, 5_000), Vec::new(), 7);
        grown.reserve_nodes(8);
        for i in 0..8 {
            assert_eq!(
                grown.push_node(PingNode::default()),
                i,
                "addresses are stable"
            );
        }
        let mut built = engine(8);
        assert_eq!(flood(&mut grown), flood(&mut built), "growth diverged");
        assert_eq!(grown.fingerprint(), built.fingerprint());
        assert_eq!(grown.drain_outputs(), built.drain_outputs());
    }

    #[test]
    fn epoch_and_live_addrs_track_membership() {
        let mut e = engine(64);
        assert_eq!(e.epoch(), 0, "constructed engines start at epoch 0");
        assert_eq!(e.live_addrs().len(), 64);
        e.kill(10);
        e.kill(40);
        assert_eq!(e.epoch(), 2);
        let live = e.live_addrs();
        assert_eq!(live.len(), 62);
        assert!(!live.contains(&10) && !live.contains(&40));
        assert!(live.windows(2).all(|w| w[0] < w[1]), "ascending");
        e.revive(10);
        assert_eq!(e.epoch(), 3);
        assert!(e.live_addrs().contains(&10));
    }

    /// `run_until` short of a distant timer peeks at it, which cascades
    /// the wheel's position ahead to the timer; a message injected
    /// afterwards that lands before the timer must still be delivered
    /// first (`wheel.rs`, "delivery floor vs. cascade position").
    #[test]
    fn message_injected_behind_a_peeked_timer_is_delivered_first() {
        let mut e = engine(2);
        e.arm_timer(0, 50_000, 9);
        assert_eq!(e.run_until(SimTime::from_micros(1_000)), 0);
        // Both legs of the round trip are at most 5 ms.
        e.inject(0, 1, PingMsg::Ping(0), 0);
        e.run_until(SimTime::from_micros(49_999));
        assert_eq!(e.node(0).pongs, vec![1], "the pong came back first");
        assert!(e.node(0).timers.is_empty());
        e.run_until_quiet(10);
        assert_eq!(e.node(0).timers, vec![9]);
        assert_eq!(e.now(), SimTime::from_micros(50_000));
    }

    /// A gossip-ish protocol exercising every engine path at once:
    /// randomized forwarding (per-node RNG), timers, emissions, and send
    /// failures.
    #[derive(Clone)]
    enum GMsg {
        Rumor { ttl: u32, tag: u32 },
        Ack(u32),
    }

    impl Message for GMsg {
        const KINDS: &'static [&'static str] = &["rumor", "ack"];

        fn kind_id(&self) -> usize {
            match self {
                GMsg::Rumor { .. } => 0,
                GMsg::Ack(_) => 1,
            }
        }
    }

    #[derive(Default)]
    struct GNode {
        heard: Vec<u32>,
        acks: u64,
        failures: u64,
        timer_fired: bool,
    }

    impl NodeLogic for GNode {
        type Msg = GMsg;
        type Out = (u32, Addr);

        fn on_message(&mut self, from: Addr, msg: GMsg, ctx: &mut Ctx<'_, GMsg, (u32, Addr)>) {
            match msg {
                GMsg::Rumor { ttl, tag } => {
                    self.heard.push(tag);
                    ctx.emit((tag, from));
                    ctx.send(from, GMsg::Ack(tag));
                    if ttl > 0 {
                        // Randomized next hop: exercises the per-node
                        // protocol RNG streams.
                        let next = ctx.rng.random_range(0..GOSSIP_N as u64) as Addr;
                        if next != ctx.me {
                            ctx.send(next, GMsg::Rumor { ttl: ttl - 1, tag });
                        }
                        if !self.timer_fired {
                            ctx.set_timer(10_000, u64::from(tag));
                        }
                    }
                }
                // Folding the tag in makes `acks` a cheap order-free
                // checksum over which acks arrived, not just how many.
                GMsg::Ack(tag) => self.acks += 1 + u64::from(tag) * 31,
            }
        }

        fn on_send_failed(&mut self, _to: Addr, _msg: GMsg, _ctx: &mut Ctx<'_, GMsg, (u32, Addr)>) {
            self.failures += 1;
        }

        fn on_timer(&mut self, _kind: u64, ctx: &mut Ctx<'_, GMsg, (u32, Addr)>) {
            self.timer_fired = true;
            ctx.emit((u32::MAX, ctx.me));
        }
    }

    const GOSSIP_N: usize = 64;

    fn gossip_engine() -> Engine<GNode, UniformRandom> {
        let topo = UniformRandom::new(GOSSIP_N, 77, 2_000, 9_000);
        let nodes = (0..GOSSIP_N).map(|_| GNode::default()).collect();
        Engine::new(topo, nodes, 0xface)
    }

    /// Everything observable about a gossip run.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        fingerprint: u64,
        total_msgs: u64,
        now: SimTime,
        outputs: Vec<(SimTime, Addr, (u32, Addr))>,
        io: Vec<NodeIo>,
        heard: Vec<Vec<u32>>,
        dropped: u64,
        duplicated: u64,
        failed_sends: u64,
    }

    /// Folds the run so far into a snapshot (draining the outputs).
    fn snapshot(e: &mut Engine<GNode, UniformRandom>) -> Snapshot {
        Snapshot {
            fingerprint: e.fingerprint(),
            total_msgs: e.stats.total_msgs,
            now: e.now(),
            outputs: e.drain_outputs(),
            io: (0..GOSSIP_N).map(|a| e.node_io(a)).collect(),
            heard: (0..GOSSIP_N).map(|a| e.node(a).heard.clone()).collect(),
            dropped: e.stats.dropped,
            duplicated: e.stats.duplicated,
            failed_sends: e.stats.failed_sends,
        }
    }

    /// Starts eight rumors with a 12-hop budget from scattered nodes.
    fn start_rumors(e: &mut Engine<GNode, UniformRandom>) {
        for i in 0..8 {
            let rumor = GMsg::Rumor {
                ttl: 12,
                tag: i as u32,
            };
            e.inject(i * 7, (i * 13 + 1) % GOSSIP_N, rumor, 0);
        }
    }

    fn gossip_run() -> Snapshot {
        let mut e = gossip_engine();
        start_rumors(&mut e);
        e.run_until_quiet(u64::MAX);
        assert_eq!(e.pending(), 0, "run must quiesce");
        snapshot(&mut e)
    }

    #[test]
    fn gossip_runs_replay_bit_identically() {
        let one = gossip_run();
        assert!(!one.outputs.is_empty(), "run must produce outputs");
        assert_eq!(one, gossip_run());
    }

    /// A gossip run under loss, duplication and jitter, traced or not.
    fn faulty_gossip_run(trace: bool) -> (Snapshot, u64, Option<u64>) {
        let mut e = gossip_engine();
        if trace {
            e.set_tracing(TraceConfig::full());
            e.set_series(SeriesConfig::new(1_000));
        }
        e.set_faults(
            FaultConfig {
                loss: 0.15,
                duplicate: 0.1,
                jitter_us: 900,
            },
            4242,
        );
        for i in 0..10 {
            e.inject(
                i * 5,
                (i * 11 + 3) % GOSSIP_N,
                GMsg::Rumor {
                    ttl: 10,
                    tag: i as u32,
                },
                0,
            );
        }
        e.run_until_quiet(u64::MAX);
        let t = e.take_tracer();
        let series_fp = t.series().map(|s| s.fingerprint());
        (snapshot(&mut e), t.fingerprint(), series_fp)
    }

    #[test]
    fn faulty_gossip_runs_replay_bit_identically() {
        let (one, _, _) = faulty_gossip_run(false);
        assert!(one.dropped > 0, "loss must drop something");
        assert!(one.duplicated > 0, "duplication must duplicate something");
        assert_eq!(one, faulty_gossip_run(false).0, "faulty run diverged");
    }

    #[test]
    fn deadline_split_gossip_run_matches_the_uncut_run() {
        // A deadline cuts the run at an exact event, parks the clock on
        // it, and leaves the rest queued; resuming finishes the same run.
        let run = || {
            let mut e = gossip_engine();
            start_rumors(&mut e);
            let ran = e.run_until(SimTime::from_micros(15_000));
            assert_eq!(e.now(), SimTime::from_micros(15_000));
            let pending = e.pending();
            let mid = snapshot(&mut e);
            e.run_until_quiet(u64::MAX);
            (ran, pending, mid, snapshot(&mut e))
        };
        let split = run();
        assert!(
            split.0 > 0 && split.1 > 0,
            "the deadline must split the run"
        );
        assert_eq!(split, run(), "a deadline-cut run must replay");
        let (_, _, mid, mut whole) = split;
        whole.outputs = [mid.outputs, whole.outputs].concat();
        assert_eq!(whole, gossip_run(), "the cut changed the run");
    }

    #[test]
    fn traced_faulty_gossip_runs_replay_trace_and_series() {
        let (untraced, _, _) = faulty_gossip_run(false);
        let (one, fp1, series1) = faulty_gossip_run(true);
        assert_eq!(untraced, one, "tracing must not perturb outcomes");
        assert_ne!(fp1, past_trace::fnv1a(b""), "trace must be non-empty");
        let series1 = series1.expect("series must survive take_tracer");
        let (again, fp2, series2) = faulty_gossip_run(true);
        assert_eq!(one, again, "traced run diverged");
        assert_eq!(fp1, fp2, "trace fingerprint diverged");
        assert_eq!(Some(series1), series2, "series fingerprint diverged");
    }
}
