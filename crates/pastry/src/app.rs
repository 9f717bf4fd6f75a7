//! The application interface ("common API") exposed by a Pastry node.
//!
//! PAST registers as a Pastry application: the overlay calls
//! [`App::deliver`] when a routed message reaches the node responsible for
//! its key, [`App::forward`] at every intermediate hop (letting PAST answer
//! lookups from caches along the route), and
//! [`App::on_leafset_changed`] when ring neighbors come and go (driving
//! replica maintenance).

use crate::handle::NodeHandle;
use crate::id::Id;
use crate::msg::{PastryMsg, PayloadSize, RouteEnvelope};
use crate::state::PastryState;
use past_wire::{Addr, Rng, StepIo, Tracer};

/// Observations surfaced by the overlay (and the app) to the experiment
/// harness.
#[derive(Clone, Debug)]
pub enum PastryOut<O> {
    /// A routed message was delivered at this node.
    Delivered {
        /// The routed key.
        key: Id,
        /// Originating node address.
        origin: Addr,
        /// Overlay hops traversed.
        hops: u32,
        /// Total network delay along the route, microseconds.
        path_us: u64,
    },
    /// This node completed its join protocol.
    JoinComplete {
        /// Hops the join request took.
        hops: u32,
    },
    /// This node's join retries were exhausted without a reply (loss
    /// recovery mode only; crash-only joins cannot fail).
    JoinFailed {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A routed message exceeded the hop TTL (routing cycle caused by
    /// inconsistent state after overlapping failures) and was dropped.
    RouteDropped {
        /// The routed key.
        key: Id,
        /// Originating node address.
        origin: Addr,
    },
    /// An application-level observation.
    App(O),
}

/// Metadata about a delivered route.
#[derive(Clone, Copy, Debug)]
pub struct RouteInfo {
    /// Originating node address.
    pub origin: Addr,
    /// Overlay hops traversed.
    pub hops: u32,
    /// Total network delay along the route, microseconds.
    pub path_us: u64,
}

/// The effect context handed to application callbacks.
///
/// Wraps the node's sans-io effect sink ([`StepIo`]), translating
/// application actions into Pastry messages. Because it holds the sink
/// and not the engine, application logic is as engine-free as the node
/// logic it rides on.
pub struct AppCtx<'a, 'b, P: Clone + PayloadSize, O> {
    pub(crate) io: &'a mut StepIo<'b, PastryMsg<P>, PastryOut<O>>,
}

impl<'a, 'b, P: Clone + PayloadSize, O> AppCtx<'a, 'b, P, O> {
    /// The application's view of `io`: how whoever drives a node starts
    /// an application action on it (a route, a direct send) with the
    /// same code the application's own callbacks use.
    pub fn new(io: &'a mut StepIo<'b, PastryMsg<P>, PastryOut<O>>) -> Self {
        AppCtx { io }
    }

    /// This node's address.
    pub fn me(&self) -> Addr {
        self.io.me()
    }

    /// Current simulated time in microseconds.
    pub fn now_us(&self) -> u64 {
        self.io.now_us()
    }

    /// The simulation RNG.
    pub fn rng(&mut self) -> &mut Rng {
        self.io.rng()
    }

    /// The trace sink (operation lifecycle records).
    pub fn tracer(&mut self) -> &mut Tracer {
        self.io.tracer()
    }

    /// Proximity (one-way delay) to another node.
    pub fn delay_to(&self, other: Addr) -> u64 {
        self.io.delay_to(other)
    }

    /// Starts routing `payload` toward `key` from this node.
    ///
    /// The message is handed to the local routing logic on the next event,
    /// so delivery/forward hooks run uniformly even if this node is itself
    /// the key's root.
    pub fn route(&mut self, key: Id, payload: P) {
        let me = self.io.me();
        self.io.send(
            me,
            PastryMsg::Route(RouteEnvelope {
                key,
                payload,
                origin: me,
                hops: 0,
                path_us: 0,
            }),
        );
    }

    /// Sends `payload` directly to a specific node, bypassing routing.
    pub fn send_direct(&mut self, to: Addr, payload: P) {
        self.io.send(to, PastryMsg::AppDirect { payload });
    }

    /// Arms an application timer (delivered via [`App::on_timer`]).
    pub fn set_app_timer(&mut self, delay_us: u64, kind: u64) {
        self.io
            .set_timer(delay_us, crate::node::APP_TIMER_BASE + kind);
    }

    /// Emits an application observation to the harness.
    pub fn emit(&mut self, out: O) {
        self.io.emit(PastryOut::App(out));
    }
}

/// A Pastry application: per-node state plus the overlay callbacks.
#[allow(unused_variables)]
pub trait App: Sized {
    /// The application payload carried in routed and direct messages.
    type Payload: Clone + PayloadSize;
    /// Application observations for the experiment harness.
    type Out;

    /// A routed message reached the node responsible for `key`.
    fn deliver(
        &mut self,
        state: &PastryState,
        key: Id,
        payload: Self::Payload,
        info: RouteInfo,
        cx: &mut AppCtx<'_, '_, Self::Payload, Self::Out>,
    );

    /// A routed message is about to be forwarded to `next`.
    ///
    /// Return `false` to consume the message (e.g. a cache hit answered
    /// locally); return `true` to let it continue. The payload may be
    /// mutated in place.
    fn forward(
        &mut self,
        state: &PastryState,
        env: &mut RouteEnvelope<Self::Payload>,
        next: NodeHandle,
        cx: &mut AppCtx<'_, '_, Self::Payload, Self::Out>,
    ) -> bool {
        true
    }

    /// A direct (non-routed) application message arrived.
    fn on_direct(
        &mut self,
        state: &PastryState,
        from: Addr,
        payload: Self::Payload,
        cx: &mut AppCtx<'_, '_, Self::Payload, Self::Out>,
    ) {
    }

    /// A direct application message could not be delivered (dead peer).
    fn on_direct_failed(
        &mut self,
        state: &PastryState,
        to: Addr,
        payload: Self::Payload,
        cx: &mut AppCtx<'_, '_, Self::Payload, Self::Out>,
    ) {
    }

    /// The node's leaf set changed (members added and/or removed).
    fn on_leafset_changed(
        &mut self,
        state: &PastryState,
        added: &[NodeHandle],
        removed: &[NodeHandle],
        cx: &mut AppCtx<'_, '_, Self::Payload, Self::Out>,
    ) {
    }

    /// An application timer armed with [`AppCtx::set_app_timer`] fired.
    fn on_timer(
        &mut self,
        state: &PastryState,
        kind: u64,
        cx: &mut AppCtx<'_, '_, Self::Payload, Self::Out>,
    ) {
    }

    /// Bytes of heap the application owns beyond `size_of::<Self>()`,
    /// added to [`PastryNode::heap_bytes`](crate::PastryNode::heap_bytes);
    /// the default counts none.
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// The trivial application: does nothing on delivery.
///
/// Used by routing-only experiments (hop counts, locality, fault
/// tolerance) where only the overlay's own `Delivered` records matter.
#[derive(Default, Clone, Debug)]
pub struct NullApp;

impl App for NullApp {
    type Payload = ();
    type Out = ();

    fn deliver(
        &mut self,
        _state: &PastryState,
        _key: Id,
        _payload: (),
        _info: RouteInfo,
        _cx: &mut AppCtx<'_, '_, (), ()>,
    ) {
    }
}
