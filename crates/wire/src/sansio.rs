//! The sans-io protocol substrate.
//!
//! Protocol state machines in this workspace are written as transition
//! functions `(state, Input) → effects`, where every effect — a message
//! send, a timer, an observation — goes through a [`StepIo`] in call
//! order. It collects them into a plain vector. The deterministic
//! simulator runs every handler against one and then applies the
//! effects, and an engine-free unit test steps a machine against one and
//! inspects them; a socket transport would drain the same vector onto
//! the network.

use crate::Addr;
use past_crypto::rng::Rng;
use past_trace::{OpId, Tracer};

/// A wire message, as a transport accounts for it.
pub trait Message: Clone {
    /// Every kind label this message type can produce, in [`kind_id`]
    /// order. The engine's per-kind traffic counters are a flat array
    /// indexed by `kind_id`, so accounting is an array bump instead of a
    /// string-keyed hash lookup per message.
    ///
    /// [`kind_id`]: Message::kind_id
    const KINDS: &'static [&'static str];

    /// Index of this message's kind within [`Message::KINDS`].
    fn kind_id(&self) -> usize;

    /// A short static label used for per-kind traffic accounting.
    fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_id()]
    }

    /// Wire size in bytes, used for bandwidth accounting and per-send
    /// trace records. Message types with a codec must answer their exact
    /// encoded length ([`Wire::encoded_len`](crate::Wire::encoded_len));
    /// the default is a placeholder for codec-less test messages only.
    fn wire_size(&self) -> u64 {
        64
    }

    /// The client operation this message belongs to, for causal trace
    /// attribution. Protocol messages that are not part of a client
    /// operation (the default) answer [`OpId::NONE`].
    fn op_id(&self) -> OpId {
        OpId::NONE
    }

    /// The message of kind `kind` if that kind carries no fields, so a
    /// transport can carry the kind id alone and rebuild the message
    /// here on arrival. The default answers `None` for every kind.
    fn fieldless(_kind: usize) -> Option<Self> {
        None
    }
}

/// One protocol event delivered to a node.
#[derive(Clone, Debug)]
pub enum Input<M> {
    /// A message arrived from `from`.
    Message {
        /// The sending node.
        from: Addr,
        /// The message.
        msg: M,
    },
    /// A previously sent message could not be delivered (dead peer).
    SendFailed {
        /// The unreachable peer.
        to: Addr,
        /// The undeliverable message.
        msg: M,
    },
    /// A timer armed by this node fired.
    Timer {
        /// The timer kind.
        kind: u64,
    },
}

/// A sans-io protocol state machine: one transition function over
/// [`Input`], every effect written through a [`StepIo`].
///
/// This is the whole boundary between a protocol and whatever runs it.
/// The simulator adapts every `Machine` onto its engine with one blanket
/// impl and steps it against a [`StepIo`], a pure test steps it against
/// a [`StepIo`] of its own, and a socket transport would drain one onto
/// the network — none of them named here.
pub trait Machine {
    /// The wire message type.
    type Msg: Message;
    /// Observations surfaced to whoever drives the machine (delivery
    /// records, receipts, rejections, ...).
    type Out;

    /// Applies one input, writing the resulting effects through `io` in
    /// call order.
    fn step(&mut self, input: Input<Self::Msg>, io: &mut StepIo<'_, Self::Msg, Self::Out>);

    /// Bytes of heap this machine owns beyond `size_of::<Self>()`; the
    /// default counts none.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Estimated heap of a `BTreeMap<K, V>` (or, with `V = ()`, a
/// `BTreeSet<K>`) holding `len` entries, for [`Machine::heap_bytes`].
///
/// A B-tree has no capacity to read. std's leaf node holds up to 11 keys
/// and values beside a parent pointer and two `u16` counters; this
/// assumes full leaves and leaves out the internal level (one node per 12
/// leaves), so it errs low.
pub fn btree_heap_bytes<K, V>(len: usize) -> usize {
    const KEYS_PER_NODE: usize = 11;
    let align = std::mem::align_of::<usize>()
        .max(std::mem::align_of::<K>())
        .max(std::mem::align_of::<V>());
    let node_bytes = (std::mem::size_of::<usize>()
        + 4
        + KEYS_PER_NODE * (std::mem::size_of::<K>() + std::mem::size_of::<V>()))
    .next_multiple_of(align);
    len.div_ceil(KEYS_PER_NODE) * node_bytes
}

/// One collected effect of a pure transition step.
#[derive(Clone, Debug)]
pub enum Effect<M, O> {
    /// Send `msg` to `to`.
    Send {
        /// Destination node.
        to: Addr,
        /// The message.
        msg: M,
    },
    /// Arm a timer on the stepped node.
    Timer {
        /// Delay before firing.
        delay_us: u64,
        /// Timer kind.
        kind: u64,
    },
    /// An observation for the harness.
    Out(O),
}

/// The effect sink a transition function writes through: effects append
/// to a caller-owned vector in the order they were produced. Its queries
/// (`now_us`, `me`, `rng`, `tracer`, `delay_to`) are all a node may
/// observe of the outside world, which keeps runs replayable.
pub struct StepIo<'a, M, O> {
    /// Current time in microseconds.
    pub now_us: u64,
    /// The stepped node's address.
    pub me: Addr,
    /// The seeded RNG.
    pub rng: &'a mut Rng,
    /// The trace sink.
    pub tracer: &'a mut Tracer,
    /// The proximity oracle: one-way delay in microseconds from the
    /// first address to the second.
    pub proximity: &'a dyn Fn(Addr, Addr) -> u64,
    /// Collected effects, in call order.
    pub effects: &'a mut Vec<Effect<M, O>>,
}

impl<M, O> StepIo<'_, M, O> {
    /// Current time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// This node's address.
    pub fn me(&self) -> Addr {
        self.me
    }

    /// The seeded RNG.
    pub fn rng(&mut self) -> &mut Rng {
        self.rng
    }

    /// The trace sink (no-op unless tracing is enabled).
    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }

    /// One-way delay to another node (the proximity metric). A real
    /// transport answers from probe measurements.
    pub fn delay_to(&self, other: Addr) -> u64 {
        (self.proximity)(self.me, other)
    }

    /// Sends `msg` to `to`.
    pub fn send(&mut self, to: Addr, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Arms a timer that fires back into this node after `delay_us`.
    pub fn set_timer(&mut self, delay_us: u64, kind: u64) {
        self.effects.push(Effect::Timer { delay_us, kind });
    }

    /// Emits an observation to the harness.
    pub fn emit(&mut self, out: O) {
        self.effects.push(Effect::Out(out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use past_trace::Tracer;

    #[test]
    fn step_io_collects_effects_in_order() {
        let mut rng = Rng::seed_from_u64(1);
        let mut tracer = Tracer::default();
        let mut effects: Vec<Effect<u32, &'static str>> = Vec::new();
        let prox = |a: Addr, b: Addr| (a + b) as u64;
        let mut io = StepIo {
            now_us: 5,
            me: 2,
            rng: &mut rng,
            tracer: &mut tracer,
            proximity: &prox,
            effects: &mut effects,
        };
        assert_eq!(io.now_us(), 5);
        assert_eq!(io.me(), 2);
        assert_eq!(io.delay_to(3), 5);
        io.send(7, 10);
        io.set_timer(99, 1);
        io.emit("done");
        assert!(matches!(effects[0], Effect::Send { to: 7, msg: 10 }));
        assert!(matches!(
            effects[1],
            Effect::Timer {
                delay_us: 99,
                kind: 1
            }
        ));
        assert!(matches!(effects[2], Effect::Out("done")));
        assert_eq!(effects.len(), 3);
    }
}
