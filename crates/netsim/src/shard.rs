//! The barrier driver: several partitions advanced in parallel.
//!
//! [`Engine::new_sharded`] partitions nodes contiguously across worker
//! threads and advances them in conservative time windows: within a
//! window every partition executes its own events independently, and
//! every inter-node message — even between nodes of the same partition
//! — travels through *sealed batches* that are exchanged at window
//! barriers. The safety condition is that no inter-node message can
//! arrive inside the window it was sent in, which holds whenever the
//! minimum inter-node topology delay is at least
//! [`ShardConfig::window_us`] (validated against
//! [`Topology::min_delay_us`] at construction and re-asserted at
//! runtime). A one-partition engine runs inline instead and has no
//! such constraint: nothing is exchanged, so there is no window.
//!
//! The partitions are the same keyed event cores the inline engine
//! runs (`partition.rs`), so a run at any shard count is
//! bit-identical to the inline run — the claim the tests at the bottom
//! of this file pin.

use crate::engine::{Engine, Limits, NodeLogic};
use crate::partition::{Partition, Wire};
use crate::topology::Topology;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

/// Parallelism knobs of [`Engine::new_sharded`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Worker shard count. The engine may use fewer shards than asked
    /// for if there are not enough nodes to fill them; one shard runs
    /// inline on the caller's thread.
    pub shards: usize,
    /// Conservative window width in microseconds. With more than one
    /// shard it must not exceed the minimum inter-node delay of the
    /// topology; larger windows mean fewer barriers.
    pub window_us: u64,
}

/// Typed rejection raised at sim-build time when a shard window exceeds
/// the topology's minimum inter-node delay.
///
/// The barrier driver's safety condition is that no inter-node message
/// can arrive inside the window it was sent in; a window wider than the
/// minimum delay breaks it. Validating at construction turns what used
/// to be a mid-run worker panic into an error the caller can handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowTooWide {
    /// The requested window width, microseconds.
    pub window_us: u64,
    /// The topology's minimum inter-node delay, microseconds.
    pub min_delay_us: u64,
}

impl fmt::Display for WindowTooWide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shard window ({} µs) exceeds the topology's minimum \
             inter-node delay ({} µs): a message could arrive inside \
             the window it was sent in, breaking sealed-batch delivery; \
             lower ShardConfig::window_us or raise the topology's delay \
             floor",
            self.window_us, self.min_delay_us
        )
    }
}

impl std::error::Error for WindowTooWide {}

impl<N, T> Engine<N, T>
where
    N: NodeLogic + Send,
    N::Msg: Send,
    N::Out: Send,
    T: Topology + Clone + Send,
{
    /// Builds an empty engine over the topology's full address space,
    /// partitioned contiguously into (up to) `cfg.shards` shards. Nodes
    /// are added with [`push_node`](Engine::push_node).
    ///
    /// With more than one shard, rejects a window wider than the
    /// topology's minimum inter-node delay: such a window could deliver
    /// a message inside the window it was sent in, which the
    /// sealed-batch exchange cannot express.
    ///
    /// # Panics
    ///
    /// Panics if the topology is empty or the window is zero.
    pub fn try_new_sharded(
        topo: T,
        seed: u64,
        cfg: ShardConfig,
    ) -> Result<Engine<N, T>, WindowTooWide> {
        Self::try_with_nodes(topo, Vec::new(), seed, cfg)
    }

    /// Builds a sharded engine over `nodes`, partitioned contiguously.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the topology, the topology is empty,
    /// the window is zero, or the window is wider than the topology's
    /// minimum delay (use [`try_new_sharded`](Engine::try_new_sharded)
    /// to handle that case).
    pub fn new_sharded(topo: T, nodes: Vec<N>, seed: u64, cfg: ShardConfig) -> Engine<N, T> {
        Self::try_with_nodes(topo, nodes, seed, cfg).unwrap_or_else(|err| panic!("{err}"))
    }

    fn try_with_nodes(
        topo: T,
        nodes: Vec<N>,
        seed: u64,
        cfg: ShardConfig,
    ) -> Result<Engine<N, T>, WindowTooWide> {
        let cap = topo.len();
        assert!(cap > 0, "sharded engine needs a topology with slots");
        assert!(cfg.window_us > 0, "shard window must be positive");
        // Layout is capacity-based (`topo.len()`), not node-count-based,
        // so growth via `push_node` never needs to re-partition.
        let chunk = cap.div_ceil(cfg.shards.clamp(1, cap));
        let count = cap.div_ceil(chunk);
        if count == 1 {
            return Ok(Engine::new(topo, nodes, seed));
        }
        let min_delay_us = topo.min_delay_us();
        if cfg.window_us > min_delay_us {
            return Err(WindowTooWide {
                window_us: cfg.window_us,
                min_delay_us,
            });
        }
        let topos = (0..count).map(|_| topo.clone()).collect();
        Ok(Engine::with_parts(
            topos,
            cfg.window_us,
            seed,
            drive_windows,
            nodes,
        ))
    }
}

/// Per-run shared coordination state for the worker threads.
struct Shared<M> {
    barrier: Barrier,
    /// Each shard's earliest pending event time, for the global-min
    /// reduction that places the next window.
    mins: Vec<AtomicU64>,
    /// Events executed so far (the budget check).
    total: AtomicU64,
    /// Sealed-batch mailboxes, `mail[src][dst]`.
    mail: Vec<Vec<Mutex<Vec<Wire<M>>>>>,
    /// Set when any worker's window body panicked; everyone exits at
    /// the next barrier instead of deadlocking on the missing peer.
    poisoned: AtomicBool,
    /// The first caught panic payload, re-thrown by the caller.
    poison: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Runs the shards in parallel until the whole simulation quiesces,
/// passes the deadline, or at least `lim.max_events` have executed
/// (checked at window boundaries, so slightly more may run). Returns
/// events executed.
fn drive_windows<N, T>(
    parts: &mut [Partition<N, T>],
    chunk: usize,
    window_us: u64,
    lim: Limits,
) -> u64
where
    N: NodeLogic + Send,
    N::Msg: Send,
    N::Out: Send,
    T: Topology + Send,
{
    let s = parts.len();
    let shared = Shared {
        barrier: Barrier::new(s),
        mins: (0..s).map(|_| AtomicU64::new(u64::MAX)).collect(),
        total: AtomicU64::new(0),
        mail: (0..s)
            .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        poisoned: AtomicBool::new(false),
        poison: Mutex::new(None),
    };
    std::thread::scope(|scope| {
        for shard in parts.iter_mut() {
            let shared = &shared;
            scope.spawn(move || worker(shard, shared, chunk, window_us, lim));
        }
    });
    // A worker panic (window violation, node-logic bug) is caught in
    // the worker so its peers can leave the barrier protocol
    // cleanly; surface it here on the caller's thread.
    let poison = shared
        .poison
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    if let Some(p) = poison {
        std::panic::resume_unwind(p);
    }
    shared.total.into_inner()
}

/// One shard's window loop. All shards execute the same barrier
/// sequence and read reduction inputs only after a barrier, so every
/// shard takes the break branches on the same round.
fn worker<N, T>(
    shard: &mut Partition<N, T>,
    shared: &Shared<N::Msg>,
    chunk: usize,
    window_us: u64,
    lim: Limits,
) where
    N: NodeLogic,
    T: Topology,
{
    let me = shard.id;
    let s = shared.mins.len();
    loop {
        // Absorb batches sealed last round, in deterministic shard
        // order (irrelevant to outcomes — keys order the queue — but
        // cheap to keep canonical).
        for src in 0..s {
            let mut inbox = shared.mail[src][me]
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            for w in inbox.drain(..) {
                shard.enqueue(w);
            }
        }
        shared.mins[me].store(
            shard.queue.peek_time().unwrap_or(u64::MAX),
            Ordering::SeqCst,
        );
        // Seal this round's budget/poison view *before* the barrier.
        // Writes to `total` and `poisoned` only happen in window
        // phases, which both barriers bracket, so reads taken in the
        // inter-barrier gap cannot race with them: every worker sees
        // the same values and takes the same break branch. (Reading
        // after the barrier would race with a faster peer's
        // current-round `fetch_add` and deadlock the barrier protocol
        // when the budget threshold lands inside that window.)
        let total = shared.total.load(Ordering::SeqCst);
        let poisoned = shared.poisoned.load(Ordering::SeqCst);
        shared.barrier.wait();
        let gmin = shared
            .mins
            .iter()
            .map(|m| m.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX);
        if gmin == u64::MAX || gmin > lim.deadline || total >= lim.max_events || poisoned {
            break;
        }
        // Skip ahead: the window starts at the global minimum, so idle
        // stretches cost one barrier round, not one round per window.
        let mut last = gmin.saturating_add(window_us - 1).min(lim.deadline);
        // Flight-recorder engine gauges, sampled by *every* shard at
        // the global minimum `gmin` — the same instant under any shard
        // count. Mailboxes were absorbed above, so the shard queues
        // and arenas partition the global pending set. Windows are cut
        // at series-window edges, so the first event of each series
        // window is some round's `gmin`: the instant a sole partition
        // samples at, too.
        if let Some(series_us) = shard.tracer.series().map(|srs| srs.window_us()) {
            last = last.min((gmin - gmin % series_us).saturating_add(series_us - 1));
            shard.sample_gauges(gmin);
            let q = shard.queue.len() as u64;
            if let Some(srs) = shard.tracer.series_mut() {
                srs.shard_gauge(gmin, me, "queue_depth", q);
            }
        }
        // The window body can panic (window-safety violation, a bug in
        // node logic). Catch it so the peers can leave the barrier
        // protocol instead of deadlocking on a dead thread; the payload
        // is re-thrown by `drive_windows` on the caller's thread.
        let body = std::panic::AssertUnwindSafe(|| {
            let count = shard.run(last, u64::MAX);
            shared.total.fetch_add(count, Ordering::SeqCst);
            // Per-shard load diagnostic (fingerprint-excluded: the
            // split of events over shards depends on the shard count).
            if count > 0 {
                if let Some(srs) = shard.tracer.series_mut() {
                    srs.shard_bump(last, me, "events", count);
                }
            }
            ship_window(shard, shared, me, chunk, s, last);
        });
        if let Err(p) = std::panic::catch_unwind(body) {
            let mut slot = shared.poison.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(p);
            }
            shared.poisoned.store(true, Ordering::SeqCst);
        }
        shared.barrier.wait();
    }
}

/// Seals the window's outbound wires into per-destination batches.
/// `last` is the final instant of the window just executed.
fn ship_window<N, T>(
    shard: &mut Partition<N, T>,
    shared: &Shared<N::Msg>,
    me: usize,
    chunk: usize,
    s: usize,
    last: u64,
) where
    N: NodeLogic,
    T: Topology,
{
    let wires = std::mem::take(&mut shard.outbox);
    // Sealed-batch size and window-completion lag (how far behind the
    // window edge this shard stopped executing — a barrier-stall
    // proxy, in simulated microseconds). Both are per-shard
    // diagnostics, excluded from the series fingerprint.
    if let Some(srs) = shard.tracer.series_mut() {
        srs.shard_bump(last, me, "batch_msgs", wires.len() as u64);
        srs.shard_gauge(
            last,
            me,
            "stall_us",
            last.saturating_add(1).saturating_sub(shard.now),
        );
    }
    if wires.is_empty() {
        return;
    }
    let mut sorted: Vec<Vec<Wire<N::Msg>>> = (0..s).map(|_| Vec::new()).collect();
    for w in wires {
        assert!(
            w.time > last,
            "inter-node delay shorter than the shard window \
             ({} <= {last}): lower ShardConfig::window_us below \
             the topology's minimum inter-node delay",
            w.time
        );
        sorted[w.at as usize / chunk].push(w);
    }
    for (t, batch) in sorted.into_iter().enumerate() {
        if !batch.is_empty() {
            shared.mail[me][t]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(batch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Ctx, FaultConfig};
    use crate::soa::NodeIo;
    use crate::time::SimTime;
    use crate::topology::{Addr, UniformRandom};
    use past_trace::{SeriesConfig, TraceConfig};
    use past_wire::Message;

    /// A gossip-ish protocol exercising every engine path: randomized
    /// forwarding (per-node RNG), timers, emissions, and send failures.
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
                        let n = 64;
                        let next = ctx.rng.random_range(0..n as u64) as Addr;
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

    const N: usize = 64;
    /// Min topology delay is 2_000 µs, so a 2_000 µs window is safe.
    fn topo() -> UniformRandom {
        UniformRandom::new(N, 77, 2_000, 9_000)
    }

    /// `engine(1)` is the inline engine: one partition, no threads.
    fn engine(shards: usize) -> Engine<GNode, UniformRandom> {
        let nodes = (0..N).map(|_| GNode::default()).collect();
        Engine::new_sharded(
            topo(),
            nodes,
            0xface,
            ShardConfig {
                shards,
                window_us: 2_000,
            },
        )
    }

    /// Everything observable about a run, comparable across layouts.
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
            io: (0..N).map(|a| e.node_io(a)).collect(),
            heard: (0..N).map(|a| e.node(a).heard.clone()).collect(),
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
            e.inject(i * 7, (i * 13 + 1) % N, rumor, 0);
        }
    }

    fn seeded_run(shards: usize) -> Snapshot {
        let mut e = engine(shards);
        start_rumors(&mut e);
        e.run_until_quiet(u64::MAX);
        assert_eq!(e.pending(), 0, "run must quiesce");
        snapshot(&mut e)
    }

    #[test]
    fn single_and_multi_shard_runs_are_bit_identical() {
        let one = seeded_run(1);
        for shards in [2, 3, 4, 7] {
            assert_eq!(one, seeded_run(shards), "{shards} shards diverged");
        }
        assert!(!one.outputs.is_empty(), "run must produce outputs");
    }

    #[test]
    fn faulty_runs_are_shard_count_independent() {
        let run = |shards: usize| {
            let mut e = engine(shards);
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
                    (i * 11 + 3) % N,
                    GMsg::Rumor {
                        ttl: 10,
                        tag: i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            snapshot(&mut e)
        };
        let one = run(1);
        assert!(one.dropped > 0, "loss must drop something");
        assert!(one.duplicated > 0, "duplication must duplicate something");
        for shards in [2, 4] {
            assert_eq!(one, run(shards), "{shards} shards diverged under faults");
        }
    }

    #[test]
    fn churn_between_runs_is_shard_count_independent() {
        let run = |shards: usize| {
            let mut e = engine(shards);
            for i in 0..6 {
                e.inject(
                    i,
                    (i + N / 2) % N,
                    GMsg::Rumor {
                        ttl: 8,
                        tag: i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            // Kill a band of nodes, stir, revive some, stir again: the
            // dead-destination bounce path goes through the batches too.
            for a in 20..30 {
                e.kill(a);
            }
            for i in 0..6 {
                e.inject(
                    i,
                    20 + (i % 10),
                    GMsg::Rumor {
                        ttl: 6,
                        tag: 100 + i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            for a in 20..25 {
                e.revive(a);
            }
            e.arm_timer(3, 5_000, 999);
            for i in 0..4 {
                e.inject(
                    40 + i,
                    20 + i,
                    GMsg::Rumor {
                        ttl: 5,
                        tag: 200 + i as u32,
                    },
                    0,
                );
            }
            e.run_until_quiet(u64::MAX);
            let failures: u64 = (0..N).map(|a| e.node(a).failures).sum();
            (snapshot(&mut e), failures)
        };
        let one = run(1);
        assert!(one.0.failed_sends > 0, "churn must fail some sends");
        assert!(one.1 > 0, "some sender must observe a failure");
        for shards in [2, 5] {
            assert_eq!(one, run(shards), "{shards} shards diverged under churn");
        }
    }

    #[test]
    fn repeated_runs_replay_bit_identically() {
        assert_eq!(seeded_run(4), seeded_run(4));
    }

    #[test]
    fn deadline_runs_are_shard_count_independent() {
        // A deadline cuts the run at the same event under any layout
        // (unlike an event budget, which is window-granular on shards),
        // parks every clock on it, and leaves the rest queued.
        let run = |shards: usize| {
            let mut e = engine(shards);
            start_rumors(&mut e);
            let ran = e.run_until(SimTime::from_micros(15_000));
            assert_eq!(e.now(), SimTime::from_micros(15_000));
            let pending = e.pending();
            let mid = snapshot(&mut e);
            e.run_until_quiet(u64::MAX);
            (ran, pending, mid, snapshot(&mut e))
        };
        let one = run(1);
        assert!(one.0 > 0 && one.1 > 0, "the deadline must split the run");
        for shards in [2, 4] {
            assert_eq!(one, run(shards), "{shards} shards diverged at the deadline");
        }
    }

    #[test]
    fn event_budget_stops_at_window_granularity() {
        let mut e = engine(4);
        start_rumors(&mut e);
        let ran = e.run_until_quiet(10);
        assert!(ran >= 10 || e.pending() == 0, "must hit budget or quiesce");
        // Resume to quiescence; the combined run must still quiesce.
        e.run_until_quiet(u64::MAX);
        assert_eq!(e.pending(), 0);
    }

    #[test]
    fn window_wider_than_min_delay_is_rejected() {
        // Min delay 2_000 but window 50_000: unsafe, rejected with a
        // typed error at construction instead of a mid-run panic.
        let Err(err) = Engine::<GNode, UniformRandom>::try_new_sharded(
            topo(),
            1,
            ShardConfig {
                shards: 2,
                window_us: 50_000,
            },
        ) else {
            panic!("too-wide window must be rejected");
        };
        assert_eq!(
            err,
            WindowTooWide {
                window_us: 50_000,
                min_delay_us: 2_000,
            }
        );
        assert!(err.to_string().contains("exceeds the topology's minimum"));
    }

    #[test]
    fn one_shard_runs_inline_and_accepts_any_window() {
        // Nothing is exchanged on one partition, so the window
        // constraint does not bind and no thread is spawned.
        let e = Engine::<GNode, UniformRandom>::try_new_sharded(
            topo(),
            1,
            ShardConfig {
                shards: 1,
                window_us: 50_000,
            },
        )
        .unwrap_or_else(|err| panic!("{err}"));
        assert_eq!(e.shard_count(), 1);
        assert!(e.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds the topology's minimum")]
    fn new_panics_on_too_wide_window() {
        let nodes = (0..N).map(|_| GNode::default()).collect();
        let _: Engine<GNode, UniformRandom> = Engine::new_sharded(
            topo(),
            nodes,
            1,
            ShardConfig {
                shards: 2,
                window_us: 50_000,
            },
        );
    }

    #[test]
    fn grown_engine_matches_constructed_engine() {
        // `push_node` growth must be bit-identical to handing every
        // node to the constructor, and addresses must be dense, stable
        // and in push order.
        let mut e: Engine<GNode, UniformRandom> = Engine::try_new_sharded(
            topo(),
            0xface,
            ShardConfig {
                shards: 4,
                window_us: 2_000,
            },
        )
        .unwrap();
        e.reserve_nodes(N);
        for i in 0..N {
            assert_eq!(e.push_node(GNode::default()), i, "addresses are stable");
        }
        start_rumors(&mut e);
        e.run_until_quiet(u64::MAX);
        assert_eq!(snapshot(&mut e), seeded_run(4), "growth diverged");
    }

    #[test]
    fn epoch_and_live_addrs_track_membership() {
        let mut e = engine(4);
        assert_eq!(e.epoch(), 0, "constructed engines start at epoch 0");
        assert_eq!(e.live_addrs().len(), N);
        e.kill(10);
        e.kill(40);
        assert_eq!(e.epoch(), 2);
        let live = e.live_addrs();
        assert_eq!(live.len(), N - 2);
        assert!(!live.contains(&10) && !live.contains(&40));
        assert!(
            live.windows(2).all(|w| w[0] < w[1]),
            "ascending across shard boundaries"
        );
        e.revive(10);
        assert_eq!(e.epoch(), 3);
        assert!(e.live_addrs().contains(&10));
    }

    #[test]
    fn traced_faulty_runs_are_shard_count_independent() {
        let run = |shards: usize, trace: bool| {
            let mut e = engine(shards);
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
                    (i * 11 + 3) % N,
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
        };
        let (untraced, _, _) = run(1, false);
        let (one, fp1, series1) = run(1, true);
        assert_eq!(untraced, one, "tracing must not perturb outcomes");
        assert_ne!(fp1, past_trace::fnv1a(b""), "trace must be non-empty");
        let series1 = series1.expect("series must survive take_tracer");
        for shards in [2, 4] {
            let (s, fps, series) = run(shards, true);
            assert_eq!(one, s, "{shards} shards diverged under tracing");
            assert_eq!(fp1, fps, "{shards}-shard trace fingerprint diverged");
            assert_eq!(
                Some(series1),
                series,
                "{shards}-shard series fingerprint diverged"
            );
        }
    }
}
