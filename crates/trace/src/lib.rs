//! Deterministic structured tracing and metrics for the PAST simulator.
//!
//! The simulator's results used to be computed from end-state snapshots
//! and flat traffic counters; this crate gives it an *execution
//! history*. Three pieces:
//!
//! - a [`Tracer`] sink recording typed [`TraceEvent`]s (message
//!   send/recv/drop/duplicate, route hops with prefix-match depth, join
//!   phases, suspicion, operation lifecycle) stamped with **simulated
//!   time** — never wall clock — and a causal [`OpId`] so one client
//!   insert can be reconstructed hop by hop across nodes;
//! - a [`Metrics`] registry: per-message-kind counters and
//!   fixed-bucket integer [`Histogram`]s (route latency, hop count,
//!   retry count) with exact rank-based percentile extraction;
//! - the analyzer ([`analyze`] + the `tracecheck` binary) that rebuilds
//!   per-operation timelines from a JSONL trace and reports stuck
//!   operations, replica fan-out vs. `k`, and the hop distribution vs.
//!   the `⌈log₂ᵇN⌉` bound.
//!
//! Determinism contract: with tracing **off** (the [`TraceConfig::off`]
//! default) every record method is a branch-and-return — no allocation,
//! no RNG draw, no behavioral change — so golden fingerprints stay
//! bit-identical. With tracing **on** the tracer still never draws
//! randomness or alters event order, so the same seed yields the same
//! trace ([`Tracer::fingerprint`]) and the same simulation outcome as
//! an untraced run.

// Library code prints nothing and drops no `#[must_use]` result (DESIGN.md §9).
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::let_underscore_must_use)]

pub mod analyze;
mod histogram;
pub mod json;
mod metrics;
pub mod timeseries;

pub use histogram::Histogram;
pub use metrics::Metrics;
pub use timeseries::{SeriesConfig, TimeSeries};

/// A causal operation identifier threaded through message envelopes.
///
/// `OpId(0)` ([`OpId::NONE`]) means "not part of a client operation":
/// analyzer passes ignore it. Ids are allocated unconditionally by the
/// harness (a plain counter, no RNG), so enabling tracing never changes
/// id assignment.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl OpId {
    /// The "no operation" id.
    pub const NONE: OpId = OpId(0);

    /// True for [`OpId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Which event classes a [`Tracer`] records.
///
/// The all-false default records nothing; `metrics` additionally gates
/// the counter/histogram registry so a pure event trace stays cheap.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-message events: send, recv, drop, duplicate, dead-dest fail.
    pub messages: bool,
    /// Per-hop routing events: hop (with prefix depth), deliver, drop.
    pub routes: bool,
    /// Overlay maintenance events: join phases, suspicion.
    pub overlay: bool,
    /// Operation lifecycle: start, retry, end, replica stored.
    pub ops: bool,
    /// Counter/gauge/histogram registry updates.
    pub metrics: bool,
}

impl TraceConfig {
    /// Records nothing (the default).
    pub fn off() -> TraceConfig {
        TraceConfig::default()
    }

    /// Records every event class and the metrics registry.
    pub fn full() -> TraceConfig {
        TraceConfig {
            messages: true,
            routes: true,
            overlay: true,
            ops: true,
            metrics: true,
        }
    }

    /// Operation lifecycle plus routing events — what `tracecheck`
    /// needs to judge liveness, fan-out and the hop bound.
    pub fn lifecycle() -> TraceConfig {
        TraceConfig {
            routes: true,
            ops: true,
            ..TraceConfig::default()
        }
    }

    /// Only the metrics registry, no event records.
    pub fn metrics_only() -> TraceConfig {
        TraceConfig {
            metrics: true,
            ..TraceConfig::default()
        }
    }

    /// True if any class is enabled.
    pub fn any(&self) -> bool {
        self.messages || self.routes || self.overlay || self.ops || self.metrics
    }
}

/// One typed trace event. Message kinds are stored as indices into the
/// engine's `Message::KINDS` table (the [`Tracer`] holds the table for
/// name resolution at serialization time).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A message was accounted and scheduled.
    MsgSend {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
        /// Wire size in bytes.
        bytes: u64,
    },
    /// A message reached a live destination's handler.
    MsgRecv {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
    },
    /// Fault injection silently dropped a message.
    MsgDrop {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
    },
    /// Fault injection scheduled an extra delivery.
    MsgDup {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
    },
    /// A message reached a dead destination (send-failure bounce).
    MsgFail {
        /// Sender address.
        from: usize,
        /// Destination address.
        to: usize,
        /// `Message::kind_id()`.
        kind: usize,
    },
    /// A node forwarded a routed message one hop closer to the key.
    RouteHop {
        /// The forwarding node.
        node: usize,
        /// Destination key.
        key: u128,
        /// Hop count so far (before this forward).
        hop: u32,
        /// Shared-prefix length (in digits) between node id and key.
        depth: u32,
    },
    /// A routed message reached its root and was delivered.
    RouteDeliver {
        /// The delivering node.
        node: usize,
        /// Destination key.
        key: u128,
        /// Total overlay hops taken.
        hops: u32,
        /// Accumulated path latency in microseconds.
        lat_us: u64,
    },
    /// A routed message exhausted its TTL and was dropped.
    RouteDrop {
        /// The dropping node.
        node: usize,
        /// Destination key.
        key: u128,
    },
    /// A node's join protocol changed phase
    /// (`start`/`retry`/`complete`/`failed`).
    JoinPhase {
        /// The joining node.
        node: usize,
        /// Phase label.
        phase: &'static str,
    },
    /// A node declared a peer failed after missed heartbeat acks.
    Suspect {
        /// The suspecting node.
        node: usize,
        /// The suspected peer.
        peer: usize,
        /// Consecutive heartbeat rounds without an ack.
        missed: u32,
    },
    /// A client operation (insert/lookup/reclaim) was issued.
    OpStart {
        /// The client node.
        node: usize,
        /// Operation kind label.
        kind: &'static str,
        /// The key the operation targets.
        key: u128,
        /// Requested replication factor (0 where not applicable).
        k: u32,
    },
    /// A client operation was retransmitted.
    OpRetry {
        /// The client node.
        node: usize,
        /// Operation kind label.
        kind: &'static str,
        /// Attempt number (1 = first retry).
        attempt: u32,
    },
    /// A client operation terminated explicitly.
    OpEnd {
        /// The client node.
        node: usize,
        /// Operation kind label.
        kind: &'static str,
        /// Success or explicit failure.
        ok: bool,
        /// Replicas confirmed (inserts; 0 where not applicable).
        fanout: u32,
    },
    /// A node accepted a replica of a file (directly or via diversion).
    ReplicaStored {
        /// The storing node.
        node: usize,
        /// The file's routing key.
        key: u128,
        /// True if stored through replica diversion.
        diverted: bool,
    },
}

/// A timestamped, operation-attributed trace record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulated time in microseconds.
    pub t: u64,
    /// The operation this record belongs to ([`OpId::NONE`] if none).
    pub op: OpId,
    /// The event.
    pub ev: TraceEvent,
}

/// FNV-1a 64-bit hash (trace fingerprints).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The trace sink: an append-only record buffer plus the [`Metrics`]
/// registry, both gated by a [`TraceConfig`]. Owned by the engine; all
/// record methods take the simulated time explicitly so the tracer can
/// never consult a wall clock.
#[derive(Debug, Default)]
pub struct Tracer {
    cfg: TraceConfig,
    kinds: &'static [&'static str],
    records: Vec<TraceRecord>,
    /// The metrics registry (read directly by harnesses).
    pub metrics: Metrics,
    /// The flight recorder, when sampling is enabled. Fed by the same
    /// hooks as the record buffer, but gated only on its own presence
    /// — a series can run with every trace class off.
    series: Option<TimeSeries>,
    /// Per-kind mask: true for repair-plane message kinds (kind name
    /// contains `repair`), so the series can count repair traffic
    /// without string-matching on the hot path.
    series_repair: Vec<bool>,
}

/// Formats into the output string. `fmt::Write` for `String` is
/// infallible, so this swallows no real error — it exists so the
/// serializer never discards a `Result` with `let _ =` (rule E1).
pub(crate) fn wfmt(out: &mut String, args: std::fmt::Arguments<'_>) {
    use std::fmt::Write as _;
    out.write_fmt(args)
        .expect("formatting into a String cannot fail");
}

impl Tracer {
    /// A disabled tracer bound to a message-kind table.
    pub fn for_kinds(kinds: &'static [&'static str]) -> Tracer {
        Tracer {
            cfg: TraceConfig::off(),
            kinds,
            records: Vec::new(),
            metrics: Metrics::for_kinds(kinds),
            series: None,
            series_repair: Vec::new(),
        }
    }

    /// Sets which event classes are recorded (existing records are
    /// kept; use [`Tracer::clear`] to reset).
    pub fn configure(&mut self, cfg: TraceConfig) {
        self.cfg = cfg;
    }

    /// The configuration in force.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// True if any event class is enabled or a series is attached —
    /// engines use this to gate their instrumentation hook calls, so
    /// a series-only tracer (all classes off) must still count as
    /// enabled or the flight recorder would see no message plane.
    pub fn enabled(&self) -> bool {
        self.cfg.any() || self.series.is_some()
    }

    /// Attaches a flight recorder with the given window. An existing
    /// series (and its windows) is replaced.
    pub fn set_series(&mut self, cfg: SeriesConfig) {
        self.series = Some(TimeSeries::new(cfg));
        self.series_repair = self.kinds.iter().map(|k| k.contains("repair")).collect();
    }

    /// The attached flight recorder, if any.
    pub fn series(&self) -> Option<&TimeSeries> {
        self.series.as_ref()
    }

    /// Mutable access to the flight recorder (harness-side samplers
    /// record store/overlay gauges through this).
    pub fn series_mut(&mut self) -> Option<&mut TimeSeries> {
        self.series.as_mut()
    }

    /// True if a flight recorder is attached.
    pub fn series_enabled(&self) -> bool {
        self.series.is_some()
    }

    /// All records so far.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Drops all records, resets the metrics registry, and empties the
    /// series windows (keeping the series configuration).
    pub fn clear(&mut self) {
        self.records.clear();
        self.metrics = Metrics::for_kinds(self.kinds);
        if let Some(s) = &mut self.series {
            s.clear();
        }
    }

    // -- message plane -------------------------------------------------

    /// A message was accounted and scheduled.
    #[inline]
    pub fn msg_send(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize, bytes: u64) {
        if let Some(s) = &mut self.series {
            s.bump(t, "sent", 1);
            s.bump(t, "sent_bytes", bytes);
            if self.series_repair.get(kind).copied().unwrap_or(false) {
                s.bump(t, "repair_msgs", 1);
                s.bump(t, "repair_bytes", bytes);
            }
        }
        if self.cfg.messages {
            self.push(
                t,
                op,
                TraceEvent::MsgSend {
                    from,
                    to,
                    kind,
                    bytes,
                },
            );
        }
    }

    /// A message reached a live destination.
    #[inline]
    pub fn msg_recv(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if self.cfg.metrics {
            Metrics::bump(&mut self.metrics.recv_by_kind, kind);
        }
        if let Some(s) = &mut self.series {
            s.bump(t, "recv", 1);
        }
        if self.cfg.messages {
            self.push(t, op, TraceEvent::MsgRecv { from, to, kind });
        }
    }

    /// Fault injection dropped a message.
    #[inline]
    pub fn msg_drop(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if self.cfg.metrics {
            Metrics::bump(&mut self.metrics.dropped_by_kind, kind);
        }
        if let Some(s) = &mut self.series {
            s.bump(t, "dropped", 1);
        }
        if self.cfg.messages {
            self.push(t, op, TraceEvent::MsgDrop { from, to, kind });
        }
    }

    /// Fault injection duplicated a message.
    #[inline]
    pub fn msg_dup(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if self.cfg.metrics {
            Metrics::bump(&mut self.metrics.duplicated_by_kind, kind);
        }
        if let Some(s) = &mut self.series {
            s.bump(t, "duplicated", 1);
        }
        if self.cfg.messages {
            self.push(t, op, TraceEvent::MsgDup { from, to, kind });
        }
    }

    /// A message hit a dead destination.
    #[inline]
    pub fn msg_fail(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if self.cfg.metrics {
            Metrics::bump(&mut self.metrics.failed_by_kind, kind);
        }
        if let Some(s) = &mut self.series {
            s.bump(t, "failed_sends", 1);
        }
        if self.cfg.messages {
            self.push(t, op, TraceEvent::MsgFail { from, to, kind });
        }
    }

    // -- routing plane -------------------------------------------------

    /// A node forwarded a routed message.
    #[inline]
    pub fn route_hop(&mut self, t: u64, op: OpId, node: usize, key: u128, hop: u32, depth: u32) {
        if self.cfg.routes {
            self.push(
                t,
                op,
                TraceEvent::RouteHop {
                    node,
                    key,
                    hop,
                    depth,
                },
            );
        }
    }

    /// A routed message was delivered at its root.
    #[inline]
    pub fn route_deliver(
        &mut self,
        t: u64,
        op: OpId,
        node: usize,
        key: u128,
        hops: u32,
        lat_us: u64,
    ) {
        if self.cfg.metrics {
            self.metrics.hop_count.record(u64::from(hops));
            self.metrics.route_latency_us.record(lat_us);
        }
        if let Some(s) = &mut self.series {
            s.bump(t, "delivered", 1);
            s.hist(t, "route_latency_us", lat_us);
        }
        if self.cfg.routes {
            self.push(
                t,
                op,
                TraceEvent::RouteDeliver {
                    node,
                    key,
                    hops,
                    lat_us,
                },
            );
        }
    }

    /// A routed message exhausted its TTL.
    #[inline]
    pub fn route_drop(&mut self, t: u64, op: OpId, node: usize, key: u128) {
        if self.cfg.routes {
            self.push(t, op, TraceEvent::RouteDrop { node, key });
        }
    }

    // -- overlay plane -------------------------------------------------

    /// A join protocol phase transition.
    #[inline]
    pub fn join_phase(&mut self, t: u64, node: usize, phase: &'static str) {
        if self.cfg.overlay {
            self.push(t, OpId::NONE, TraceEvent::JoinPhase { node, phase });
        }
    }

    /// A peer was declared failed after missed heartbeat acks.
    #[inline]
    pub fn suspect(&mut self, t: u64, node: usize, peer: usize, missed: u32) {
        if let Some(s) = &mut self.series {
            s.bump(t, "suspicions", 1);
        }
        if self.cfg.overlay {
            self.push(t, OpId::NONE, TraceEvent::Suspect { node, peer, missed });
        }
    }

    // -- operation plane -----------------------------------------------

    /// A client operation was issued.
    #[inline]
    pub fn op_start(
        &mut self,
        t: u64,
        op: OpId,
        node: usize,
        kind: &'static str,
        key: u128,
        k: u32,
    ) {
        if self.cfg.ops && !op.is_none() {
            self.push(t, op, TraceEvent::OpStart { node, kind, key, k });
        }
    }

    /// A client operation was retransmitted.
    #[inline]
    pub fn op_retry(&mut self, t: u64, op: OpId, node: usize, kind: &'static str, attempt: u32) {
        if self.cfg.metrics {
            self.metrics.retry_count.record(u64::from(attempt));
        }
        if let Some(s) = &mut self.series {
            s.bump(t, "retries", 1);
        }
        if self.cfg.ops && !op.is_none() {
            self.push(
                t,
                op,
                TraceEvent::OpRetry {
                    node,
                    kind,
                    attempt,
                },
            );
        }
    }

    /// A client operation terminated explicitly.
    #[inline]
    pub fn op_end(
        &mut self,
        t: u64,
        op: OpId,
        node: usize,
        kind: &'static str,
        ok: bool,
        fanout: u32,
    ) {
        if self.cfg.ops && !op.is_none() {
            self.push(
                t,
                op,
                TraceEvent::OpEnd {
                    node,
                    kind,
                    ok,
                    fanout,
                },
            );
        }
    }

    /// A node stored a replica on behalf of an insert.
    #[inline]
    pub fn replica_stored(&mut self, t: u64, op: OpId, node: usize, key: u128, diverted: bool) {
        if let Some(s) = &mut self.series {
            s.bump(t, "replicas_stored", 1);
            if diverted {
                s.bump(t, "diversions", 1);
            }
        }
        if self.cfg.ops && !op.is_none() {
            self.push(
                t,
                op,
                TraceEvent::ReplicaStored {
                    node,
                    key,
                    diverted,
                },
            );
        }
    }

    /// Sorts the record buffer into the canonical order `(t, causal
    /// rank, serialized line)`. Records with equal time and equal
    /// content are identical, so this order depends only on the
    /// *multiset* of records — two runs that produced the same records
    /// in different interleavings (e.g. harness records written between
    /// events rather than inside them) serialize and fingerprint
    /// identically after this call.
    ///
    /// The causal rank keeps same-microsecond lifecycles analyzable:
    /// `op_start` sorts before the records it caused and `op_end` after
    /// them (a lookup satisfied from the local store starts and ends at
    /// the same `t`; plain lexicographic order would put the end first
    /// and the analyzer would call the op stuck).
    pub fn sort_canonical(&mut self) {
        fn rank(ev: &TraceEvent) -> u8 {
            match ev {
                TraceEvent::OpStart { .. } => 0,
                TraceEvent::OpEnd { .. } => 2,
                _ => 1,
            }
        }
        let records = std::mem::take(&mut self.records);
        let mut keyed: Vec<(String, TraceRecord)> = records
            .into_iter()
            .map(|r| {
                let mut line = String::new();
                self.write_line(&mut line, &r);
                (line, r)
            })
            .collect();
        keyed.sort_by(|a, b| {
            (a.1.t, rank(&a.1.ev), a.0.as_str()).cmp(&(b.1.t, rank(&b.1.ev), b.0.as_str()))
        });
        self.records = keyed.into_iter().map(|(_, r)| r).collect();
    }

    fn push(&mut self, t: u64, op: OpId, ev: TraceEvent) {
        self.records.push(TraceRecord { t, op, ev });
    }

    fn kind_name(&self, kind: usize) -> &'static str {
        self.kinds.get(kind).copied().unwrap_or("?")
    }

    /// Serializes the record stream as JSONL (one flat object per
    /// line, stable field order — the fingerprint hashes these bytes).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            self.write_line(&mut out, r);
            out.push('\n');
        }
        out
    }

    fn write_line(&self, out: &mut String, r: &TraceRecord) {
        let head = |out: &mut String, ev: &str| {
            wfmt(
                out,
                format_args!("{{\"t\":{},\"op\":{},\"ev\":\"{ev}\"", r.t, r.op.0),
            );
        };
        let msg = |out: &mut String, ev: &str, from: usize, to: usize, kind: usize| {
            head(out, ev);
            wfmt(
                out,
                format_args!(
                    ",\"from\":{from},\"to\":{to},\"kind\":\"{}\"",
                    self.kind_name(kind)
                ),
            );
        };
        match &r.ev {
            TraceEvent::MsgSend {
                from,
                to,
                kind,
                bytes,
            } => {
                msg(out, "send", *from, *to, *kind);
                wfmt(out, format_args!(",\"bytes\":{bytes}"));
            }
            TraceEvent::MsgRecv { from, to, kind } => msg(out, "recv", *from, *to, *kind),
            TraceEvent::MsgDrop { from, to, kind } => msg(out, "drop", *from, *to, *kind),
            TraceEvent::MsgDup { from, to, kind } => msg(out, "dup", *from, *to, *kind),
            TraceEvent::MsgFail { from, to, kind } => msg(out, "fail", *from, *to, *kind),
            TraceEvent::RouteHop {
                node,
                key,
                hop,
                depth,
            } => {
                head(out, "hop");
                wfmt(
                    out,
                    format_args!(
                        ",\"node\":{node},\"key\":\"{key:032x}\",\"hop\":{hop},\"depth\":{depth}"
                    ),
                );
            }
            TraceEvent::RouteDeliver {
                node,
                key,
                hops,
                lat_us,
            } => {
                head(out, "deliver");
                wfmt(
                    out,
                    format_args!(",\"node\":{node},\"key\":\"{key:032x}\",\"hops\":{hops},\"lat_us\":{lat_us}"),
                );
            }
            TraceEvent::RouteDrop { node, key } => {
                head(out, "route_drop");
                wfmt(out, format_args!(",\"node\":{node},\"key\":\"{key:032x}\""));
            }
            TraceEvent::JoinPhase { node, phase } => {
                head(out, "join");
                wfmt(out, format_args!(",\"node\":{node},\"phase\":\"{phase}\""));
            }
            TraceEvent::Suspect { node, peer, missed } => {
                head(out, "suspect");
                wfmt(
                    out,
                    format_args!(",\"node\":{node},\"peer\":{peer},\"missed\":{missed}"),
                );
            }
            TraceEvent::OpStart { node, kind, key, k } => {
                head(out, "op_start");
                wfmt(
                    out,
                    format_args!(
                        ",\"node\":{node},\"kind\":\"{kind}\",\"key\":\"{key:032x}\",\"k\":{k}"
                    ),
                );
            }
            TraceEvent::OpRetry {
                node,
                kind,
                attempt,
            } => {
                head(out, "op_retry");
                wfmt(
                    out,
                    format_args!(",\"node\":{node},\"kind\":\"{kind}\",\"attempt\":{attempt}"),
                );
            }
            TraceEvent::OpEnd {
                node,
                kind,
                ok,
                fanout,
            } => {
                head(out, "op_end");
                wfmt(
                    out,
                    format_args!(
                        ",\"node\":{node},\"kind\":\"{kind}\",\"ok\":{ok},\"fanout\":{fanout}"
                    ),
                );
            }
            TraceEvent::ReplicaStored {
                node,
                key,
                diverted,
            } => {
                head(out, "replica");
                wfmt(
                    out,
                    format_args!(",\"node\":{node},\"key\":\"{key:032x}\",\"diverted\":{diverted}"),
                );
            }
        }
        out.push('}');
    }

    /// FNV-1a 64 fingerprint of the JSONL serialization: the
    /// same-seed-same-trace determinism check compares these.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.to_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests;
