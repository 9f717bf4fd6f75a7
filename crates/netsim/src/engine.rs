//! The discrete-event message engine.
//!
//! Nodes are sans-io [`Machine`]s; the engine owns them, runs every
//! handler against a [`StepIo`](past_wire::StepIo) and applies what it
//! wrote in call order, delivers messages with topology-derived latency,
//! models node failure (messages to a dead node produce a delayed
//! send-failure notification at the sender, standing in for a timeout),
//! and counts traffic per message kind.
//!
//! Everything is deterministic: per-node seeded RNG streams, and events
//! ordered by `(time, source node, per-node sequence number)` — see
//! `engine/core.rs` for the model and DESIGN.md §12 for why that key,
//! rather than a global push counter, is the one order.

mod core;

use self::core::{EventRec, Tagged};
use crate::arena::Arena;
use crate::soa::{NodeIo, NodeSlots};
use crate::time::SimTime;
use crate::topology::{mix64, Addr, Topology};
use crate::wheel::TimerWheel;
use past_crypto::rng::Rng;
use past_trace::{SeriesConfig, TraceConfig, Tracer};
use past_wire::{Effect, Input, Io, Machine, Message};

/// Per-node protocol logic driven by the engine, as callbacks. Protocol
/// nodes implement [`Machine`] and get it from the blanket impl below;
/// benchmark fixtures implement it directly.
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

    /// Handles a timer previously set with [`Io::set_timer`].
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
/// counted: the topology, the trace sink, and heap owned by parked
/// messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Memory {
    /// The node structs themselves (`size_of::<N>()` per slot).
    pub node_inline: usize,
    /// Heap the nodes report through [`NodeLogic::heap_bytes`].
    pub node_heap: usize,
    /// In-flight payload slots and their free list (a message of a
    /// fieldless kind takes no slot).
    pub arena: usize,
    /// Event-queue buffers.
    pub wheel: usize,
    /// The per-node columns beside the node structs: the protocol RNG
    /// state, the fault RNG state while a fault configuration is active,
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

/// The effect sink handed to node logic: the sans-io [`Io`] trait object
/// (as `past_pastry::PastryIo`), backed by a [`past_wire::StepIo`].
/// Node code calls `ctx.me()`, `ctx.now_us()`, `ctx.rng()`, `ctx.send(..)`.
pub type Ctx<'a, M, O> = dyn Io<M, O> + 'a;

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
    /// ignore [`Input::SendFailed`] still show up here, keeping
    /// cross-protocol failure comparisons honest.
    pub failed_sends: u64,
}

impl NetStats {
    fn for_kinds(kinds: &'static [&'static str]) -> NetStats {
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
/// queue, run inline on the caller's thread. The per-node columns and
/// the dispatch / invoke / step core are a second `impl` block in
/// `engine/core.rs`.
pub struct Engine<N: NodeLogic, T: Topology> {
    topo: T,
    /// Node state, indexed by address.
    nodes: NodeSlots<N>,
    /// Per-node protocol RNGs.
    rngs: Vec<Rng>,
    /// Per-node fault RNGs, independent of the protocol streams so
    /// enabling faults never shifts protocol decisions. Empty while the
    /// fault configuration is inactive: `inject` draws nothing then.
    fault_rngs: Vec<Rng>,
    /// Per-node event sequence counters (the key tie-break).
    seqs: Vec<u64>,
    queue: TimerWheel<EventRec>,
    // In-flight message payloads, addressed by the `msg` handle in
    // `EventRec`. Slots recycle, so the steady-state event loop
    // allocates nothing per message.
    arena: Arena<N::Msg>,
    /// Messages in flight, parked or fieldless.
    in_flight: usize,
    outputs: Vec<Tagged<N::Out>>,
    /// The simulation clock: the time of the last executed event, or
    /// of the deadline a run was parked on.
    now: u64,
    faults: FaultConfig,
    /// Construction seed: per-node protocol RNG streams derive from it.
    seed: u64,
    /// Current fault seed: per-node fault streams derive from it, both
    /// at push time and on [`set_faults`](Engine::set_faults).
    fault_seed: u64,
    epoch: u64,
    /// Harness-side RNG, separate from every node's protocol stream.
    rng: Rng,
    /// The one trace sink: the message plane recorded by the core,
    /// protocol records node logic writes through [`Ctx`], and harness
    /// records through [`tracer_mut`](Engine::tracer_mut). Off by
    /// default.
    tracer: Tracer,
    /// Series window (index) the engine gauges were last sampled in.
    sampled_window: Option<u64>,
    fp: u64,
    events: u64,
    // Scratch buffer reused across invocations so the per-event cost
    // is a pointer swap rather than an allocation.
    scratch_effects: Vec<Effect<N::Msg, N::Out>>,
    /// Traffic counters (public so harnesses can reset/read them).
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
            topo,
            nodes: NodeSlots::new(),
            rngs: Vec::new(),
            fault_rngs: Vec::new(),
            seqs: Vec::new(),
            queue: TimerWheel::new(),
            arena: Arena::new(),
            in_flight: 0,
            outputs: Vec::new(),
            now: 0,
            faults: FaultConfig::default(),
            seed,
            fault_seed: seed,
            epoch: 0,
            rng: Rng::seed_from_u64(seed),
            tracer: Tracer::for_kinds(N::Msg::KINDS),
            sampled_window: None,
            fp: 0,
            events: 0,
            scratch_effects: Vec::new(),
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
        SimTime::from_micros(self.now)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns true if the engine has no nodes (the state every
    /// overlay builder starts from).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The topology (proximity oracle).
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Immutable access to a node's state.
    pub fn node(&self, a: Addr) -> &N {
        self.nodes.logic(a)
    }

    /// Mutable access to a node's state (harness-side setup only).
    pub fn node_mut(&mut self, a: Addr) -> &mut N {
        self.nodes.logic_mut(a)
    }

    /// Per-node traffic counters (messages sent / received).
    pub fn node_io(&self, a: Addr) -> NodeIo {
        self.nodes.io(a)
    }

    /// Liveness of a node.
    pub fn is_alive(&self, a: Addr) -> bool {
        self.nodes.is_alive(a)
    }

    fn set_alive(&mut self, a: Addr, alive: bool) {
        self.nodes.set_alive(a, alive);
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
        self.nodes.live_addrs()
    }

    /// The harness-side RNG (sampling, id generation). Never touched by
    /// node logic, whose draws come from per-node streams.
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// The fault configuration in force.
    pub fn faults(&self) -> FaultConfig {
        self.faults
    }

    /// Selects which trace event classes are recorded. The default is
    /// everything off: record calls return after one branch, no
    /// allocation happens, and simulation outcomes are bit-identical to
    /// an engine that never heard of tracing. Tracing draws no
    /// randomness, so enabling it never perturbs outcomes either.
    pub fn set_tracing(&mut self, cfg: TraceConfig) {
        self.tracer.configure(cfg);
    }

    /// Attaches a flight recorder (sim-time windowed series) to the
    /// trace sink. Like tracing, sampling is observation only: it draws
    /// no randomness and never perturbs event order, so golden
    /// fingerprints stay bit-identical with a series attached.
    pub fn set_series(&mut self, cfg: SeriesConfig) {
        self.tracer.set_series(cfg);
        self.sampled_window = None;
    }

    /// The trace sink as recorded so far: harness, protocol and
    /// message-plane records in execution order, the metrics registry
    /// and the series.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable trace sink (harness records: op lifecycle, samplers).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Takes the trace out of the engine (for post-run analysis),
    /// sorted canonically so records that share a time come out in
    /// one defined order. Leaves a fresh disabled sink behind.
    pub fn take_tracer(&mut self) -> Tracer {
        let mut t = std::mem::replace(&mut self.tracer, Tracer::for_kinds(N::Msg::KINDS));
        t.sort_canonical();
        t
    }

    /// Drains observations emitted by node logic since the last call,
    /// in event-key order: execution order, except that a harness
    /// [`act`](Engine::act)'s emissions, keyed by the node's next
    /// sequence number, take their place among same-time events.
    pub fn drain_outputs(&mut self) -> Vec<(SimTime, Addr, N::Out)> {
        let outputs = &mut self.outputs;
        outputs.sort_by_key(|&(t, tie, k, _, _)| (t, tie, k));
        outputs
            .drain(..)
            .map(|(t, _, _, a, o)| (SimTime::from_micros(t), a, o))
            .collect()
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
        self.now = self.now.max(deadline.as_micros());
        n
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Number of messages currently in flight, whether their payload
    /// parks in the arena or their kind is fieldless.
    pub fn in_flight_msgs(&self) -> usize {
        self.in_flight
    }

    /// Records the engine's [`Memory`] in the flight recorder at the
    /// current time, as `mem_*` diagnostics: buffer capacities move
    /// with every allocation-policy change, so they stay out of the
    /// canonical series and its fingerprint. No-op without a series.
    pub fn sample_memory(&mut self) {
        let now = self.now;
        let m = self.memory();
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
        self.events
    }

    /// Commutative run fingerprint: a wrapping sum of per-event key
    /// digests plus the event count. Identical for identical runs; any
    /// divergence in event times, sources or sequence numbers changes
    /// it.
    pub fn fingerprint(&self) -> u64 {
        mix64(self.events).wrapping_add(self.fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::UniformRandom;

    /// A toy protocol: Ping is answered with Pong; delivery is emitted.
    /// Knock is fieldless and only counted.
    #[derive(Clone)]
    enum PingMsg {
        Ping(u32),
        Pong(u32),
        Knock,
    }

    impl Message for PingMsg {
        const KINDS: &'static [&'static str] = &["ping", "pong", "knock"];

        fn kind_id(&self) -> usize {
            match self {
                PingMsg::Ping(_) => 0,
                PingMsg::Pong(_) => 1,
                PingMsg::Knock => 2,
            }
        }

        fn fieldless(kind: usize) -> Option<PingMsg> {
            (kind == 2).then_some(PingMsg::Knock)
        }
    }

    #[derive(Default)]
    struct PingNode {
        pongs: Vec<u32>,
        knocks: u32,
        failures: Vec<Addr>,
        failed_kinds: Vec<&'static str>,
        timers: Vec<u64>,
    }

    impl Machine for PingNode {
        type Msg = PingMsg;
        type Out = u32;

        fn step(&mut self, input: Input<PingMsg>, ctx: &mut Ctx<'_, PingMsg, u32>) {
            match input {
                Input::Message { from, msg } => match msg {
                    PingMsg::Ping(n) => ctx.send(from, PingMsg::Pong(n + 1)),
                    PingMsg::Pong(n) => {
                        self.pongs.push(n);
                        ctx.emit(n);
                    }
                    PingMsg::Knock => self.knocks += 1,
                },
                Input::SendFailed { to, msg } => {
                    self.failures.push(to);
                    self.failed_kinds.push(msg.kind());
                }
                Input::Timer { kind } => self.timers.push(kind),
            }
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

    /// A fieldless kind rides in the event record as its kind id and
    /// takes no arena slot, and is otherwise an ordinary message: it is
    /// delivered, bounces off a dead node back to `on_send_failed` as the
    /// same kind, is counted in flight until it drains, and replays.
    #[test]
    fn fieldless_messages_ride_in_the_event_record() {
        let run = || {
            let mut e = engine(3);
            e.kill(2);
            e.inject(0, 1, PingMsg::Knock, 0);
            e.inject(0, 2, PingMsg::Knock, 0);
            assert_eq!(e.memory().arena, 0, "a fieldless message took a slot");
            e.inject(1, 0, PingMsg::Ping(3), 0);
            assert_eq!(e.in_flight_msgs(), 3, "every kind counts in flight");
            while e.run_until_quiet(1) == 1 {
                // No timers: every pending event is a message in flight.
                assert_eq!(e.in_flight_msgs(), e.pending());
            }
            assert_eq!(e.in_flight_msgs(), 0);
            assert_eq!(e.node(1).knocks, 1);
            assert_eq!(e.node(1).pongs, vec![4]);
            assert_eq!(e.node(0).failures, vec![2]);
            assert_eq!(e.node(0).failed_kinds, vec!["knock"]);
            assert_eq!(e.stats.kind_count("knock"), 2);
            e.fingerprint()
        };
        assert_eq!(run(), run(), "a fieldless run diverged");
    }

    /// The queue moves 16-byte records (wheel entries of 40 bytes,
    /// pinned in `wheel.rs`).
    #[test]
    fn event_record_stays_16_bytes() {
        assert_eq!(std::mem::size_of::<EventRec>(), 16);
    }

    #[test]
    fn message_plane_events_are_recorded() {
        use past_trace::analyze::parse_jsonl;
        let mut e = engine(3);
        e.set_tracing(TraceConfig::full());
        e.kill(2);
        e.inject(0, 1, PingMsg::Ping(1), 0);
        e.inject(0, 2, PingMsg::Ping(1), 0);
        e.run_until_quiet(100);
        let recs = parse_jsonl(&e.take_tracer().to_jsonl()).unwrap();
        let has = |ev: &str, from: u64, to: u64| {
            recs.iter()
                .any(|r| r.ev == ev && r.u("from") == Some(from) && r.u("to") == Some(to))
        };
        assert!(has("send", 0, 1));
        assert!(has("recv", 0, 1));
        assert!(has("fail", 0, 2));
        // The traffic counters saw the same failure.
        assert_eq!(e.stats.failed_sends, 1);
    }

    /// The engine has one trace sink: `tracer()` already shows the
    /// message plane and the engine gauges mid-life, and `take_tracer`
    /// hands out the same records in canonical order, leaving a
    /// disabled sink behind.
    #[test]
    fn tracer_shows_the_message_plane_before_take() {
        use past_trace::analyze::parse_jsonl;
        let mut e = engine(3);
        e.set_tracing(TraceConfig::full());
        e.set_series(SeriesConfig::new(1_000));
        for i in 0..3 {
            e.inject(i, (i + 1) % 3, PingMsg::Ping(1), 0);
        }
        e.run_until_quiet(100);
        let live = e.tracer();
        let recs = parse_jsonl(&live.to_jsonl()).unwrap();
        assert!(recs.iter().any(|r| r.ev == "send"));
        assert!(recs.iter().any(|r| r.ev == "recv"));
        let series = live.series().expect("series attached");
        assert!(series
            .windows()
            .any(|(_, w)| w.gauge("queue_depth").is_some()));
        let lines = |t: &Tracer| {
            let mut v: Vec<String> = t.records().iter().map(|r| format!("{r:?}")).collect();
            v.sort();
            v
        };
        let recorded = lines(live);
        let mut taken = e.take_tracer();
        assert_eq!(lines(&taken), recorded, "take_tracer changed the records");
        let canonical = taken.to_jsonl();
        taken.sort_canonical();
        assert_eq!(taken.to_jsonl(), canonical, "not in canonical order");
        let left = e.tracer();
        assert!(!left.enabled() && left.records().is_empty() && left.series().is_none());
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

    impl Machine for GNode {
        type Msg = GMsg;
        type Out = (u32, Addr);

        fn step(&mut self, input: Input<GMsg>, ctx: &mut Ctx<'_, GMsg, (u32, Addr)>) {
            match input {
                Input::Message {
                    from,
                    msg: GMsg::Rumor { ttl, tag },
                } => {
                    self.heard.push(tag);
                    ctx.emit((tag, from));
                    ctx.send(from, GMsg::Ack(tag));
                    if ttl > 0 {
                        // Randomized next hop: exercises the per-node
                        // protocol RNG streams.
                        let next = ctx.rng().random_range(0..GOSSIP_N as u64) as Addr;
                        if next != ctx.me() {
                            ctx.send(next, GMsg::Rumor { ttl: ttl - 1, tag });
                        }
                        if !self.timer_fired {
                            ctx.set_timer(10_000, u64::from(tag));
                        }
                    }
                }
                // Folding the tag in makes `acks` a cheap order-free
                // checksum over which acks arrived, not just how many.
                Input::Message {
                    msg: GMsg::Ack(tag),
                    ..
                } => self.acks += 1 + u64::from(tag) * 31,
                Input::SendFailed { .. } => self.failures += 1,
                Input::Timer { .. } => {
                    self.timer_fired = true;
                    ctx.emit((u32::MAX, ctx.me()));
                }
            }
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

    /// The traced faulty gossip run's engine, trace and series
    /// fingerprints, recorded while the engine still kept two trace
    /// sinks and two stats blocks and merged them after every run.
    const FAULTY_GOSSIP_GOLDEN: (u64, u64, u64) = (
        0x46ba_b017_01f2_bdfb,
        0x39b4_42ca_06cb_a5c3,
        0x519a_8f91_05b2_e3b8,
    );

    #[test]
    fn traced_faulty_gossip_runs_replay_trace_and_series() {
        let (untraced, _, _) = faulty_gossip_run(false);
        let (one, fp1, series1) = faulty_gossip_run(true);
        assert_eq!(untraced, one, "tracing must not perturb outcomes");
        assert_ne!(fp1, past_trace::fnv1a(b""), "trace must be non-empty");
        let series1 = series1.expect("series must survive take_tracer");
        assert_eq!(
            (one.fingerprint, fp1, series1),
            FAULTY_GOSSIP_GOLDEN,
            "the faulty gossip run moved off its golden"
        );
        let (again, fp2, series2) = faulty_gossip_run(true);
        assert_eq!(one, again, "traced run diverged");
        assert_eq!(fp1, fp2, "trace fingerprint diverged");
        assert_eq!(Some(series1), series2, "series fingerprint diverged");
    }
}
