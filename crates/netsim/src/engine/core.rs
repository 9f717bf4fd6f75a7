//! The event core, a second `impl` block of [`Engine`]: the per-node
//! columns (node slots, RNG streams, sequence counters) and the engine's
//! only message dispatch (accounting, fault draws, scheduling), handler
//! invocation (one reused `StepIo` effect buffer, applied in call order)
//! and deliver / send-failed / timer step. Fieldless messages ride in the
//! event record as their kind id; every other payload parks in the arena.
//!
//! ## Determinism model
//!
//! - every event carries a key `(time, source node, per-node seq)`;
//!   keys are totally ordered and unique,
//! - each node owns a private protocol RNG and a private fault RNG,
//!   seeded from the run seed and the node address,
//! - the queue pops in key order, so the order in which events were
//!   pushed never matters.
//!
//! Per-node decision streams depend only on the sequence of events each
//! node observes, which the key order fixes — so a run replays bit for
//! bit, and the commutative [`fingerprint`](Engine::fingerprint) is a
//! digest of the event multiset, not of an accumulation order.

use super::{Ctx, Engine, FaultConfig, Memory, NodeLogic};
use crate::arena::MAX_SLOTS;
use crate::topology::{mix64, Addr, Topology};
use past_crypto::rng::Rng;
use past_wire::{Effect, Message, StepIo};

/// Event key tie-break: `(source node, per-node sequence)` packed into
/// the wheel's 128-bit tie. Unique per event.
fn tie_key(src: Addr, seq: u64) -> u128 {
    ((src as u128) << 64) | seq as u128
}

/// Commutative event digest: folded with wrapping addition so the
/// accumulation order cannot matter.
fn digest(time: u64, tie: u128, salt: u64) -> u64 {
    mix64(time ^ mix64(tie as u64) ^ mix64((tie >> 64) as u64) ^ salt)
}

/// Set in [`EventRec::Msg`]'s `msg` field, the low bits are the kind id
/// of a fieldless message ([`Message::fieldless`]), which parks nowhere;
/// clear, they are an [`Arena`](crate::arena::Arena) handle (which stays
/// below this bit).
const FIELDLESS: u32 = MAX_SLOTS;

/// Compact `Copy` event record carried by the queue: 16 bytes.
///
/// Message payloads park in the arena; the record holds only the `u32`
/// slot handle, so the queue moves fixed-size records instead of full
/// protocol messages and queue growth never re-copies payloads.
/// Addresses are `u32` for the same reason (the engine asserts the node
/// count fits). A fieldless message takes no slot: the record holds its
/// kind id, tagged with [`FIELDLESS`]. `at` is the node that handles the
/// event.
#[derive(Clone, Copy)]
pub(super) enum EventRec {
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

/// One emission, tagged `(time, event key, per-event index)` so a
/// drain can put it in key order.
pub(super) type Tagged<O> = (u64, u128, u32, Addr, O);

/// Node `addr`'s fault stream under `fault_seed`.
fn fault_rng(fault_seed: u64, addr: Addr) -> Rng {
    Rng::seed_from_u64(fault_seed ^ mix64(addr as u64) ^ 0x5eed_fa17)
}

impl<N: NodeLogic, T: Topology> Engine<N, T> {
    /// Reserves storage for the next `extra` nodes, so bulk builds
    /// (e.g. a 100k-node overlay) grow the node arrays once instead of
    /// doubling through them.
    pub fn reserve_nodes(&mut self, extra: usize) {
        let extra = extra.min(self.topo.len() - self.len());
        self.nodes.reserve(extra);
        self.rngs.reserve(extra);
        if self.faults.is_active() {
            self.fault_rngs.reserve(extra);
        }
        self.seqs.reserve(extra);
    }

    /// Adds a node (returns its address). Addresses are dense in push
    /// order. The topology must already have a slot for it. Its
    /// protocol stream derives from the run seed and its fault stream
    /// (kept only while faults are on) from the current fault seed,
    /// exactly as if it had been present at construction.
    pub fn push_node(&mut self, node: N) -> Addr {
        let addr = self.len();
        assert!(addr < self.topo.len(), "no topology slot for new node");
        self.nodes.push(node);
        self.rngs
            .push(Rng::seed_from_u64(self.seed ^ mix64(addr as u64)));
        if self.faults.is_active() {
            self.fault_rngs.push(fault_rng(self.fault_seed, addr));
        }
        self.seqs.push(0);
        self.epoch += 1;
        addr
    }

    /// Enables (or reconfigures) link-fault injection.
    ///
    /// Every node's fault stream is reseeded from `seed` and its
    /// address (nodes pushed later derive theirs from the same seed):
    /// the same seed and configuration reproduce the exact same
    /// drop/duplicate/jitter sequence over the same message stream.
    /// Passing [`FaultConfig::default`] turns faults off again and frees
    /// the streams, since nothing draws from them.
    pub fn set_faults(&mut self, faults: FaultConfig, seed: u64) {
        assert!((0.0..=1.0).contains(&faults.loss), "loss out of [0,1]");
        assert!(
            (0.0..=1.0).contains(&faults.duplicate),
            "duplicate out of [0,1]"
        );
        self.faults = faults;
        self.fault_seed = seed;
        self.fault_rngs = if faults.is_active() {
            (0..self.len()).map(|addr| fault_rng(seed, addr)).collect()
        } else {
            Vec::new()
        };
    }

    /// What the engine holds right now.
    pub fn memory(&self) -> Memory {
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

    fn next_seq(&mut self, addr: Addr) -> u64 {
        let s = self.seqs[addr];
        // Explicit wrap policy: a wrapped counter would silently
        // reorder ties rather than crash — the worst failure mode for
        // a deterministic simulator — so fail loudly instead.
        self.seqs[addr] = s
            .checked_add(1)
            .unwrap_or_else(|| panic!("per-node event sequence wrapped u64"));
        s
    }

    /// Keys a message event with `src`'s next sequence number, parks
    /// its payload (unless its kind is fieldless) and enqueues it.
    fn post(&mut self, time: u64, src: Addr, at: Addr, bounce: bool, msg: N::Msg) {
        let seq = self.next_seq(src);
        let kind = msg.kind_id();
        let msg = if N::Msg::fieldless(kind).is_some() {
            debug_assert!(kind < FIELDLESS as usize);
            FIELDLESS | kind as u32
        } else {
            self.arena.insert(msg)
        };
        self.in_flight += 1;
        // The peer of a delivery is its sender; the peer of a bounce is
        // the dead destination it comes back from. Either way, `src`.
        self.queue.push(
            time,
            tie_key(src, seq),
            EventRec::Msg {
                at: at as u32,
                peer: src as u32,
                bounce,
                msg,
            },
        );
    }

    /// The message behind an event's `msg` field: rebuilt from its kind
    /// if fieldless, taken out of the arena otherwise.
    fn unpark(&mut self, msg: u32) -> N::Msg {
        self.in_flight -= 1;
        if msg & FIELDLESS == 0 {
            return self.arena.take(msg);
        }
        let kind = (msg & !FIELDLESS) as usize;
        N::Msg::fieldless(kind)
            .unwrap_or_else(|| panic!("fieldless({kind}) answered at post but not on delivery"))
    }

    /// Arms a timer that fires at node `at` after `delay_us`: the
    /// harness's timers and the ones node logic sets alike.
    pub fn arm_timer(&mut self, at: Addr, delay_us: u64, kind: u64) {
        let seq = self.next_seq(at);
        let at32 = at as u32;
        self.queue.push(
            self.now + delay_us,
            tie_key(at, seq),
            EventRec::Timer { at: at32, kind },
        );
    }

    /// Sends a message into `to` as if sent by `from`, arriving after
    /// the topology delay (plus `extra_us`): accounts it and applies the
    /// fault model, drawn from the sender's fault stream, to anything
    /// that crosses a link (`from != to`). The one dispatch path, shared
    /// by harness injection and node-effect sends so both face the same
    /// network.
    pub fn inject(&mut self, from: Addr, to: Addr, msg: N::Msg, extra_us: u64) {
        let bytes = msg.wire_size();
        self.stats.total_msgs += 1;
        self.stats.total_bytes += bytes;
        self.stats.by_kind[msg.kind_id()] += 1;
        self.nodes.note_sent(from);
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
        if self.faults.loss > 0.0 && self.fault_rngs[from].random::<f64>() < self.faults.loss {
            self.stats.dropped += 1;
            if self.tracer.enabled() {
                self.tracer
                    .msg_drop(self.now, msg.op_id(), from, to, msg.kind_id());
            }
            return;
        }
        let duplicate = self.faults.duplicate > 0.0
            && self.fault_rngs[from].random::<f64>() < self.faults.duplicate;
        let at = base_t + self.draw_jitter(from);
        if duplicate {
            self.stats.duplicated += 1;
            if self.tracer.enabled() {
                self.tracer
                    .msg_dup(self.now, msg.op_id(), from, to, msg.kind_id());
            }
            let echo = base_t + self.draw_jitter(from);
            self.post(echo, from, to, false, msg.clone());
        }
        self.post(at, from, to, false, msg);
    }

    fn draw_jitter(&mut self, from: Addr) -> u64 {
        if self.faults.jitter_us > 0 {
            self.fault_rngs[from].random_range(0..=self.faults.jitter_us)
        } else {
            0
        }
    }

    /// Runs `f` on node `a` with a live [`Ctx`] at the current time, and
    /// schedules what it wrote exactly as if an event had run it: the
    /// way a harness starts a protocol action the node itself owns (a
    /// join, a revival, a client request). The node's liveness is not
    /// consulted. What it emits is keyed by the node's next sequence
    /// number: after everything the node has caused so far, not after
    /// what the action schedules.
    pub fn act<R>(
        &mut self,
        a: Addr,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Out>) -> R,
    ) -> R {
        let tie = tie_key(a, self.seqs[a]);
        self.invoke(a, tie, f)
    }

    fn invoke<R>(
        &mut self,
        at: Addr,
        cur_tie: u128,
        f: impl FnOnce(&mut N, &mut Ctx<'_, N::Msg, N::Out>) -> R,
    ) -> R {
        // Move the scratch buffer into the sink for the duration of the
        // handler, then drain and restore it: handlers run once per
        // event, so reusing it removes an allocation from every event.
        let mut effects = std::mem::take(&mut self.scratch_effects);
        debug_assert!(effects.is_empty());
        let topo = &self.topo;
        let mut io = StepIo {
            now_us: self.now,
            me: at,
            rng: &mut self.rngs[at],
            tracer: &mut self.tracer,
            proximity: &|a, b| topo.delay_us(a, b),
            effects: &mut effects,
        };
        let ret = f(self.nodes.logic_mut(at), &mut io);
        let mut k = 0;
        for eff in effects.drain(..) {
            match eff {
                Effect::Send { to, msg } => self.inject(at, to, msg, 0),
                Effect::Timer { delay_us, kind } => self.arm_timer(at, delay_us, kind),
                Effect::Out(out) => {
                    self.outputs.push((self.now, cur_tie, k, at, out));
                    k += 1;
                }
            }
        }
        self.scratch_effects = effects;
        ret
    }

    /// Flight-recorder engine gauges: one sample per series window,
    /// taken at `t`, the time of the window's first event, before that
    /// event runs.
    fn sample_gauges(&mut self, t: u64) {
        let (q, a) = (self.queue.len() as u64, self.in_flight as u64);
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

    /// Executes events with time `<= last`, at most `max_events` of
    /// them; returns the number executed.
    pub(super) fn run(&mut self, last: u64, max_events: u64) -> u64 {
        let mut count = 0u64;
        while count < max_events {
            match self.queue.peek_time() {
                Some(t) if t <= last => self.sample_gauges(t),
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
        // per-window totals depend only on the event multiset.
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
                let m = self.unpark(msg);
                match (self.nodes.is_alive(at), bounce) {
                    (true, false) => {
                        if self.tracer.enabled() {
                            self.tracer.msg_recv(t, m.op_id(), peer, at, m.kind_id());
                        }
                        self.nodes.note_recv(at);
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
                        // worth in total). The sender's liveness is not
                        // consulted here: the notice always travels and
                        // is dropped on arrival if the sender is dead
                        // by then, whatever happened to it meanwhile.
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
                if self.nodes.is_alive(at) {
                    self.invoke(at, tie, |node, ctx| node.on_timer(kind, ctx));
                }
            }
        }
    }
}
