//! The keyed event core: one partition of the node space.
//!
//! A [`Partition`] owns a contiguous range of nodes, their private RNG
//! streams, an event queue and an arena of in-flight payloads, and it
//! holds the engine's only implementation of message dispatch
//! (accounting, fault draws, scheduling), handler invocation (scratch
//! buffers, effect application) and the deliver / send-failed / timer
//! step. The [`Engine`](crate::Engine) is one partition run inline on
//! the caller's thread, or several advanced in lock-step by the
//! barrier driver in [`crate::shard`]; the code below is the same in
//! both cases.
//!
//! ## Determinism model
//!
//! - every event carries a key `(time, source node, per-node seq)`;
//!   keys are totally ordered and unique,
//! - each node owns a private protocol RNG and a private fault RNG,
//!   seeded from the run seed and the node address,
//! - events merge into destination queues keyed by `(time, key)`, so
//!   arrival order on the wire is irrelevant.
//!
//! Per-node decision streams depend only on the sequence of events each
//! node observes, which the key order fixes globally — so a run on one
//! partition and a run on N produce bit-identical per-node state,
//! merged [`NetStats`], outputs, traces and
//! [`fingerprint`](crate::Engine::fingerprint).

use crate::arena::Arena;
use crate::engine::{Ctx, Effect, FaultConfig, Memory, NetStats, NodeLogic};
use crate::soa::NodeSlots;
use crate::time::SimTime;
use crate::topology::{mix64, Addr, Topology};
use crate::wheel::TimerWheel;
use past_crypto::rng::Rng;
use past_trace::Tracer;
use past_wire::Message;

/// Event key tie-break: `(source node, per-node sequence)` packed into
/// the wheel's 128-bit tie. Unique per event, identical under any
/// partition count.
fn tie_key(src: Addr, seq: u64) -> u128 {
    ((src as u128) << 64) | seq as u128
}

/// Commutative event digest: folded with wrapping addition so the
/// partition-local accumulation order cannot matter.
fn digest(time: u64, tie: u128, salt: u64) -> u64 {
    mix64(time ^ mix64(tie as u64) ^ mix64((tie >> 64) as u64) ^ salt)
}

/// Compact `Copy` event record carried by the queue.
///
/// Message payloads park in the partition's [`Arena`]; the record holds
/// only the `u32` slot handle, so the queue moves fixed-size records
/// instead of full protocol messages and queue growth never re-copies
/// payloads. Addresses are `u32` for the same reason (the engine
/// asserts the node count fits). `at` is the node that handles the
/// event.
#[derive(Clone, Copy)]
pub(crate) enum EventRec {
    /// A message from `peer` arriving at `at` — or, when `bounce`, the
    /// failure notice for a message `at` sent to the dead `peer`.
    Msg {
        at: u32,
        peer: u32,
        bounce: bool,
        msg: u32,
    },
    Timer {
        at: u32,
        kind: u64,
    },
}

/// An already-keyed inter-node event in transit between partitions (the
/// payload travels by value; it parks in the destination partition's
/// arena on receipt). Fields as in [`EventRec::Msg`].
pub(crate) struct Wire<M> {
    pub(crate) time: u64,
    tie: u128,
    pub(crate) at: u32,
    peer: u32,
    bounce: bool,
    msg: M,
}

/// One emission, tagged `(time, event key, per-event index)` so a
/// global merge is order-deterministic.
pub(crate) type Tagged<O> = (u64, u128, u32, Addr, O);

pub(crate) struct Partition<N: NodeLogic, T> {
    pub(crate) id: usize,
    /// First global address owned by this partition.
    pub(crate) base: Addr,
    /// True when this is the engine's only partition: inter-node sends
    /// are pushed straight into the queue. Otherwise they wait in
    /// `outbox` for the driver to route.
    solo: bool,
    pub(crate) topo: T,
    /// Local node state; local index = global address - `base`.
    pub(crate) nodes: NodeSlots<N>,
    /// Per-node protocol RNGs.
    rngs: Vec<Rng>,
    /// Per-node fault RNGs, independent of the protocol streams so
    /// enabling faults never shifts protocol decisions.
    fault_rngs: Vec<Rng>,
    /// Per-node event sequence counters (the key tie-break).
    seqs: Vec<u64>,
    pub(crate) queue: TimerWheel<EventRec>,
    // In-flight message payloads, addressed by the `msg` handle in
    // [`EventRec`]. Slots recycle, so the steady-state event loop
    // allocates nothing per message.
    pub(crate) arena: Arena<N::Msg>,
    /// Counters accumulated since the engine last folded them into its
    /// public total.
    pub(crate) stats: NetStats,
    /// Partition-local trace sink: message-plane events recorded here
    /// and protocol records written by node logic through [`Ctx`] both
    /// land locally; `Engine::take_tracer` merges every partition's
    /// records in canonical order. Off by default.
    pub(crate) tracer: Tracer,
    pub(crate) outputs: Vec<Tagged<N::Out>>,
    /// Inter-node events awaiting routing (always empty when `solo`).
    pub(crate) outbox: Vec<Wire<N::Msg>>,
    pub(crate) now: u64,
    pub(crate) faults: FaultConfig,
    /// Series window (index) the engine gauges were last sampled in.
    sampled_window: Option<u64>,
    pub(crate) fp: u64,
    pub(crate) events: u64,
    // Scratch buffers reused across invocations so the per-event cost
    // is a pointer swap rather than two allocations.
    scratch_effects: Vec<Effect<N::Msg>>,
    scratch_emitted: Vec<N::Out>,
}

impl<N: NodeLogic, T: Topology> Partition<N, T> {
    pub(crate) fn new(id: usize, base: Addr, solo: bool, topo: T) -> Partition<N, T> {
        Partition {
            id,
            base,
            solo,
            topo,
            nodes: NodeSlots::new(),
            rngs: Vec::new(),
            fault_rngs: Vec::new(),
            seqs: Vec::new(),
            queue: TimerWheel::new(),
            arena: Arena::new(),
            stats: NetStats::for_kinds(N::Msg::KINDS),
            tracer: Tracer::for_kinds(N::Msg::KINDS),
            outputs: Vec::new(),
            outbox: Vec::new(),
            now: 0,
            faults: FaultConfig::default(),
            sampled_window: None,
            fp: 0,
            events: 0,
            scratch_effects: Vec::new(),
            scratch_emitted: Vec::new(),
        }
    }

    fn fault_rng(fault_seed: u64, addr: Addr) -> Rng {
        Rng::seed_from_u64(fault_seed ^ mix64(addr as u64) ^ 0x5eed_fa17)
    }

    /// Appends the node with the next address in this partition's
    /// range. Its protocol stream derives from the run seed and its
    /// fault stream from the current fault seed, exactly as if it had
    /// been present at construction — so growth is partition-count
    /// independent.
    pub(crate) fn push_node(&mut self, node: N, seed: u64, fault_seed: u64) {
        let addr = self.base + self.nodes.len();
        self.nodes.push(node);
        self.rngs
            .push(Rng::seed_from_u64(seed ^ mix64(addr as u64)));
        self.fault_rngs.push(Self::fault_rng(fault_seed, addr));
        self.seqs.push(0);
    }

    pub(crate) fn reserve(&mut self, extra: usize) {
        self.nodes.reserve(extra);
        self.rngs.reserve(extra);
        self.fault_rngs.reserve(extra);
        self.seqs.reserve(extra);
    }

    /// This partition's share of [`Engine::memory`](crate::Engine::memory).
    pub(crate) fn memory(&self) -> Memory {
        use std::mem::size_of;
        Memory {
            node_inline: self.nodes.inline_bytes(),
            node_heap: self.nodes.iter().map(N::heap_bytes).sum(),
            arena: self.arena.capacity_bytes(),
            wheel: self.queue.capacity_bytes(),
            per_node_columns: self.nodes.column_bytes()
                + (self.rngs.capacity() + self.fault_rngs.capacity()) * size_of::<Rng>()
                + self.seqs.capacity() * size_of::<u64>(),
        }
    }

    /// Installs a fault configuration and reseeds every node's fault
    /// stream from `fault_seed` and its address.
    pub(crate) fn set_faults(&mut self, faults: FaultConfig, fault_seed: u64) {
        self.faults = faults;
        for (i, r) in self.fault_rngs.iter_mut().enumerate() {
            *r = Self::fault_rng(fault_seed, self.base + i);
        }
    }

    /// Restarts gauge sampling (a new series starts with no sample).
    pub(crate) fn reset_sampling(&mut self) {
        self.sampled_window = None;
    }

    fn next_seq(&mut self, local: usize) -> u64 {
        let s = self.seqs[local];
        // Explicit wrap policy: a wrapped counter would silently
        // reorder ties rather than crash — the worst failure mode for
        // a deterministic simulator — so fail loudly instead.
        self.seqs[local] = s
            .checked_add(1)
            .unwrap_or_else(|| panic!("per-node event sequence wrapped u64"));
        s
    }

    /// Parks an already-keyed event's payload and enqueues it.
    pub(crate) fn enqueue(&mut self, w: Wire<N::Msg>) {
        let msg = self.arena.insert(w.msg);
        self.queue.push(
            w.time,
            w.tie,
            EventRec::Msg {
                at: w.at,
                peer: w.peer,
                bounce: w.bounce,
                msg,
            },
        );
    }

    /// Keys a message event with `src`'s next sequence number and
    /// schedules it: straight into the local queue for a self-send or a
    /// sole partition, into `outbox` otherwise.
    fn post(&mut self, time: u64, src: Addr, at: Addr, bounce: bool, msg: N::Msg) {
        let seq = self.next_seq(src - self.base);
        // The peer of a delivery is its sender; the peer of a bounce is
        // the dead destination it comes back from. Either way, `src`.
        let w = Wire {
            time,
            tie: tie_key(src, seq),
            at: at as u32,
            peer: src as u32,
            bounce,
            msg,
        };
        if self.solo || at == src {
            self.enqueue(w);
        } else {
            self.outbox.push(w);
        }
    }

    /// Schedules a timer on the local node `at`.
    pub(crate) fn push_timer(&mut self, at: Addr, delay_us: u64, kind: u64) {
        let seq = self.next_seq(at - self.base);
        let at32 = at as u32;
        self.queue.push(
            self.now + delay_us,
            tie_key(at, seq),
            EventRec::Timer { at: at32, kind },
        );
    }

    /// Accounts and schedules one message from the local node `from`,
    /// applying the fault model to anything that crosses a link
    /// (`from != to`). Shared by harness injection and node-effect
    /// sends so both face the same network.
    pub(crate) fn dispatch(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        let li = from - self.base;
        let bytes = msg.wire_size();
        self.stats.total_msgs += 1;
        self.stats.total_bytes += bytes;
        self.stats.by_kind_mut()[msg.kind_id()] += 1;
        self.nodes.note_sent(li);
        if self.tracer.enabled() {
            self.tracer
                .msg_send(self.now, msg.op_id(), from, to, msg.kind_id(), bytes);
        }
        let base_t = self.now + self.topo.delay_us(from, to) + extra_us;
        if from == to || !self.faults.is_active() {
            self.post(base_t, from, to, false, msg);
            return;
        }
        // Per-field gating: an inactive fault class draws nothing from
        // the node's fault stream, so a partially-enabled config stays
        // reproducible field by field.
        if self.faults.loss > 0.0 && self.fault_rngs[li].random::<f64>() < self.faults.loss {
            self.stats.dropped += 1;
            if self.tracer.enabled() {
                self.tracer
                    .msg_drop(self.now, msg.op_id(), from, to, msg.kind_id());
            }
            return;
        }
        let duplicate = self.faults.duplicate > 0.0
            && self.fault_rngs[li].random::<f64>() < self.faults.duplicate;
        let at = base_t + self.draw_jitter(li);
        if duplicate {
            self.stats.duplicated += 1;
            if self.tracer.enabled() {
                self.tracer
                    .msg_dup(self.now, msg.op_id(), from, to, msg.kind_id());
            }
            let echo = base_t + self.draw_jitter(li);
            self.post(echo, from, to, false, msg.clone());
        }
        self.post(at, from, to, false, msg);
    }

    fn draw_jitter(&mut self, local: usize) -> u64 {
        if self.faults.jitter_us > 0 {
            self.fault_rngs[local].random_range(0..=self.faults.jitter_us)
        } else {
            0
        }
    }

    /// Runs a harness action on the local node `at`, now. What it emits
    /// is keyed by the node's next sequence number: after everything
    /// the node has caused so far, not after what the action schedules.
    pub(crate) fn act<R>(
        &mut self,
        at: Addr,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Out>) -> R,
    ) -> R {
        let tie = tie_key(at, self.seqs[at - self.base]);
        self.invoke(at, tie, f)
    }

    fn invoke<R>(
        &mut self,
        at: Addr,
        cur_tie: u128,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Out>) -> R,
    ) -> R {
        let li = at - self.base;
        // Move the scratch buffers into the context for the duration
        // of the handler, then drain and restore them. Handlers run
        // once per event, so reusing the buffers removes two heap
        // allocations from every event in the simulation.
        let mut effects = std::mem::take(&mut self.scratch_effects);
        let mut emitted = std::mem::take(&mut self.scratch_emitted);
        debug_assert!(effects.is_empty() && emitted.is_empty());
        let mut ctx = Ctx {
            now: SimTime::from_micros(self.now),
            me: at,
            rng: &mut self.rngs[li],
            tracer: &mut self.tracer,
            topo: &self.topo,
            effects: &mut effects,
            emitted: &mut emitted,
        };
        let ret = f(self.nodes.logic_mut(li), &mut ctx);
        for (k, out) in emitted.drain(..).enumerate() {
            self.outputs.push((self.now, cur_tie, k as u32, at, out));
        }
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg, extra_us } => self.dispatch(at, to, msg, extra_us),
                Effect::Timer { delay_us, kind } => self.push_timer(at, delay_us, kind),
            }
        }
        self.scratch_effects = effects;
        self.scratch_emitted = emitted;
        ret
    }

    /// Flight-recorder engine gauges: one sample per series window,
    /// taken at `t`, the time of the window's first event *across all
    /// partitions*, before that event runs. The partitions' queues and
    /// arenas split the global pending set, and equal-time samples sum
    /// on merge, so the merged gauge is the global queue depth and
    /// in-flight count under any partition count.
    pub(crate) fn sample_gauges(&mut self, t: u64) {
        let (q, a) = (self.queue.len() as u64, self.arena.len() as u64);
        let Some(s) = self.tracer.series_mut() else {
            return;
        };
        let w = t / s.window_us();
        if self.sampled_window != Some(w) {
            self.sampled_window = Some(w);
            s.gauge(t, "queue_depth", q);
            s.gauge(t, "in_flight_msgs", a);
        }
    }

    /// Executes local events with time `<= last`, at most `max_events`
    /// of them; returns the number executed. Inter-node sends
    /// accumulate in `outbox` unless this is the sole partition.
    pub(crate) fn run(&mut self, last: u64, max_events: u64) -> u64 {
        let mut count = 0u64;
        while count < max_events {
            match self.queue.peek_time() {
                Some(t) if t <= last => {
                    // A sole partition sees every event, so it finds
                    // the series-window edges itself; the barrier
                    // driver samples on behalf of several.
                    if self.solo {
                        self.sample_gauges(t);
                    }
                }
                _ => break,
            }
            let Some((t, tie, ev)) = self.queue.pop() else {
                break;
            };
            count += 1;
            self.step(t, tie, ev);
        }
        count
    }

    /// The deliver / send-failed / timer step.
    fn step(&mut self, t: u64, tie: u128, ev: EventRec) {
        self.now = t;
        self.events += 1;
        // Flight-recorder progress counter, keyed on event time: the
        // merged per-window totals depend only on the event multiset,
        // never on the partition layout.
        if let Some(s) = self.tracer.series_mut() {
            s.note_event(t);
        }
        match ev {
            EventRec::Msg {
                at,
                peer,
                bounce,
                msg,
            } => {
                self.fp = self.fp.wrapping_add(digest(t, tie, 1 + u64::from(bounce)));
                let (at, peer) = (at as Addr, peer as Addr);
                let li = at - self.base;
                let m = self.arena.take(msg);
                match (self.nodes.is_alive(li), bounce) {
                    (true, false) => {
                        if self.tracer.enabled() {
                            self.tracer.msg_recv(t, m.op_id(), peer, at, m.kind_id());
                        }
                        self.nodes.note_recv(li);
                        self.invoke(at, tie, |node, ctx| node.on_message(peer, m, ctx));
                    }
                    (true, true) => {
                        self.invoke(at, tie, |node, ctx| node.on_send_failed(peer, m, ctx));
                    }
                    (false, false) => {
                        self.stats.failed_sends += 1;
                        if self.tracer.enabled() {
                            self.tracer.msg_fail(t, m.op_id(), peer, at, m.kind_id());
                        }
                        // Timeout model: the sender learns of the
                        // failure one further delay later (round-trip
                        // worth in total). The sender may live on
                        // another partition, so its liveness is not
                        // consulted here: the notice always travels and
                        // is dropped on arrival if the sender is dead.
                        if peer != at {
                            let back = self.topo.delay_us(at, peer);
                            self.post(t + back, at, peer, true, m);
                        }
                    }
                    // A failure notice reaching a dead sender: dropped.
                    (false, true) => {}
                }
            }
            EventRec::Timer { at, kind } => {
                self.fp = self.fp.wrapping_add(digest(t, tie, 3 ^ mix64(kind)));
                let at = at as Addr;
                if self.nodes.is_alive(at - self.base) {
                    self.invoke(at, tie, |node, ctx| node.on_timer(kind, ctx));
                }
            }
        }
    }
}
