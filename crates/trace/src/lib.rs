//! Deterministic structured tracing and metrics for the PAST simulator.
//!
//! The simulator's results used to be computed from end-state snapshots
//! and flat traffic counters; this crate gives it an *execution
//! history*. Three pieces:
//!
//! - a [`Tracer`] sink whose hooks (message send/recv/drop/duplicate,
//!   route hops with prefix-match depth, join phases, suspicion,
//!   operation lifecycle) each write one JSONL [`TraceRecord`] stamped
//!   with **simulated time** — never wall clock — and a causal [`OpId`]
//!   so one client insert can be reconstructed hop by hop across nodes;
//! - a [`Metrics`] registry: per-message-kind counters and the
//!   hop-count [`Histogram`], with exact rank-based percentile
//!   extraction (the flight recorder, [`TimeSeries`], holds the rest);
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

/// Which record classes a [`Tracer`] writes: one of the four presets
/// [`off`](TraceConfig::off), [`full`](TraceConfig::full),
/// [`lifecycle`](TraceConfig::lifecycle) and
/// [`metrics_only`](TraceConfig::metrics_only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Per-message records: send, recv, drop, duplicate, dead-dest fail.
    messages: bool,
    /// Per-hop routing records: hop (with prefix depth), deliver, drop.
    routes: bool,
    /// Overlay maintenance records: join phases, suspicion.
    overlay: bool,
    /// Operation lifecycle: start, retry, end, replica stored.
    ops: bool,
    /// Counter/histogram registry updates.
    metrics: bool,
}

impl TraceConfig {
    /// Records nothing (the default).
    pub fn off() -> TraceConfig {
        TraceConfig::default()
    }

    /// Records every class and the metrics registry.
    pub fn full() -> TraceConfig {
        TraceConfig {
            messages: true,
            routes: true,
            overlay: true,
            ops: true,
            metrics: true,
        }
    }

    /// Operation lifecycle plus routing records — what `tracecheck`
    /// needs to judge liveness, fan-out and the hop bound.
    pub fn lifecycle() -> TraceConfig {
        TraceConfig {
            routes: true,
            ops: true,
            ..TraceConfig::default()
        }
    }

    /// Only the metrics registry, no records.
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

    /// True if per-hop routing records are written (callers skip
    /// computing a hop's prefix depth otherwise).
    pub fn routes(&self) -> bool {
        self.routes
    }
}

/// One trace record: its JSONL line and the key it sorts on. The fields
/// are declared in sort order, so the derived `Ord` is the canonical
/// order `(t, causal rank, line)` of [`Tracer::sort_canonical`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceRecord {
    /// Simulated time in microseconds.
    pub t: u64,
    /// 0 for `op_start`, 2 for `op_end`, 1 for every other record.
    rank: u8,
    /// The flat JSON object, without its newline.
    pub line: String,
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

    /// Sets which record classes are written (existing records are
    /// kept; use [`Tracer::clear`] to reset).
    pub fn configure(&mut self, cfg: TraceConfig) {
        self.cfg = cfg;
    }

    /// The configuration in force.
    pub fn config(&self) -> TraceConfig {
        self.cfg
    }

    /// True if any record class is enabled or a series is attached —
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

    /// Writes one record: the common `{"t":…,"op":…,"ev":"…"` head, the
    /// hook's `fields` (each with its leading comma) and the closing
    /// brace.
    fn push(&mut self, t: u64, op: OpId, ev: &str, fields: std::fmt::Arguments<'_>) {
        let rank = match ev {
            "op_start" => 0,
            "op_end" => 2,
            _ => 1,
        };
        let line = format!("{{\"t\":{t},\"op\":{},\"ev\":\"{ev}\"{fields}}}", op.0);
        self.records.push(TraceRecord { t, rank, line });
    }

    /// A message-plane record without a size: recv, drop, dup, fail.
    fn push_msg(&mut self, t: u64, op: OpId, ev: &str, from: usize, to: usize, kind: usize) {
        let kind = self.kind_name(kind);
        let fields = format_args!(",\"from\":{from},\"to\":{to},\"kind\":\"{kind}\"");
        self.push(t, op, ev, fields);
    }

    fn kind_name(&self, kind: usize) -> &'static str {
        self.kinds.get(kind).copied().unwrap_or("?")
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
            let kind = self.kind_name(kind);
            let fields =
                format_args!(",\"from\":{from},\"to\":{to},\"kind\":\"{kind}\",\"bytes\":{bytes}");
            self.push(t, op, "send", fields);
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
            self.push_msg(t, op, "recv", from, to, kind);
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
            self.push_msg(t, op, "drop", from, to, kind);
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
            self.push_msg(t, op, "dup", from, to, kind);
        }
    }

    /// A message hit a dead destination.
    #[inline]
    pub fn msg_fail(&mut self, t: u64, op: OpId, from: usize, to: usize, kind: usize) {
        if let Some(s) = &mut self.series {
            s.bump(t, "failed_sends", 1);
        }
        if self.cfg.messages {
            self.push_msg(t, op, "fail", from, to, kind);
        }
    }

    // -- routing plane -------------------------------------------------

    /// A node forwarded a routed message one hop closer to `key`: `hop`
    /// hops taken before this forward, `depth` digits of `key` shared
    /// with the node's id.
    #[inline]
    pub fn route_hop(&mut self, t: u64, op: OpId, node: usize, key: u128, hop: u32, depth: u32) {
        if self.cfg.routes {
            let fields = format_args!(
                ",\"node\":{node},\"key\":\"{key:032x}\",\"hop\":{hop},\"depth\":{depth}"
            );
            self.push(t, op, "hop", fields);
        }
    }

    /// A routed message was delivered at its root after `hops` overlay
    /// hops and `lat_us` of path latency.
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
        }
        if let Some(s) = &mut self.series {
            s.bump(t, "delivered", 1);
            s.hist(t, "route_latency_us", lat_us);
        }
        if self.cfg.routes {
            let fields = format_args!(
                ",\"node\":{node},\"key\":\"{key:032x}\",\"hops\":{hops},\"lat_us\":{lat_us}"
            );
            self.push(t, op, "deliver", fields);
        }
    }

    /// A routed message exhausted its TTL.
    #[inline]
    pub fn route_drop(&mut self, t: u64, op: OpId, node: usize, key: u128) {
        if self.cfg.routes {
            let fields = format_args!(",\"node\":{node},\"key\":\"{key:032x}\"");
            self.push(t, op, "route_drop", fields);
        }
    }

    // -- overlay plane -------------------------------------------------

    /// A join protocol phase transition
    /// (`start`/`retry`/`complete`/`failed`).
    #[inline]
    pub fn join_phase(&mut self, t: u64, node: usize, phase: &'static str) {
        if self.cfg.overlay {
            let fields = format_args!(",\"node\":{node},\"phase\":\"{phase}\"");
            self.push(t, OpId::NONE, "join", fields);
        }
    }

    /// A peer was declared failed after `missed` heartbeat rounds
    /// without an ack.
    #[inline]
    pub fn suspect(&mut self, t: u64, node: usize, peer: usize, missed: u32) {
        if let Some(s) = &mut self.series {
            s.bump(t, "suspicions", 1);
        }
        if self.cfg.overlay {
            let fields = format_args!(",\"node\":{node},\"peer\":{peer},\"missed\":{missed}");
            self.push(t, OpId::NONE, "suspect", fields);
        }
    }

    // -- operation plane -----------------------------------------------

    /// A client operation was issued, asking for `k` replicas (0 where
    /// not applicable).
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
            let fields = format_args!(
                ",\"node\":{node},\"kind\":\"{kind}\",\"key\":\"{key:032x}\",\"k\":{k}"
            );
            self.push(t, op, "op_start", fields);
        }
    }

    /// A client operation was retransmitted (`attempt` 1 is the first
    /// retry).
    #[inline]
    pub fn op_retry(&mut self, t: u64, op: OpId, node: usize, kind: &'static str, attempt: u32) {
        if let Some(s) = &mut self.series {
            s.bump(t, "retries", 1);
        }
        if self.cfg.ops && !op.is_none() {
            let fields = format_args!(",\"node\":{node},\"kind\":\"{kind}\",\"attempt\":{attempt}");
            self.push(t, op, "op_retry", fields);
        }
    }

    /// A client operation terminated explicitly, with `fanout` replicas
    /// confirmed (inserts; 0 where not applicable).
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
            let fields = format_args!(
                ",\"node\":{node},\"kind\":\"{kind}\",\"ok\":{ok},\"fanout\":{fanout}"
            );
            self.push(t, op, "op_end", fields);
        }
    }

    /// A node stored a replica on behalf of an insert (`diverted`: via
    /// replica diversion).
    #[inline]
    pub fn replica_stored(&mut self, t: u64, op: OpId, node: usize, key: u128, diverted: bool) {
        if let Some(s) = &mut self.series {
            s.bump(t, "replicas_stored", 1);
            if diverted {
                s.bump(t, "diversions", 1);
            }
        }
        if self.cfg.ops && !op.is_none() {
            let fields =
                format_args!(",\"node\":{node},\"key\":\"{key:032x}\",\"diverted\":{diverted}");
            self.push(t, op, "replica", fields);
        }
    }

    /// Sorts the record buffer into the canonical order `(t, causal
    /// rank, line)`. Records with equal time and equal content are
    /// identical, so this order depends only on the *multiset* of
    /// records — two runs that produced the same records in different
    /// interleavings (e.g. harness records written between events
    /// rather than inside them) serialize and fingerprint identically
    /// after this call.
    ///
    /// The causal rank keeps same-microsecond lifecycles analyzable:
    /// `op_start` sorts before the records it caused and `op_end` after
    /// them (a lookup satisfied from the local store starts and ends at
    /// the same `t`; plain lexicographic order would put the end first
    /// and the analyzer would call the op stuck).
    pub fn sort_canonical(&mut self) {
        self.records.sort_unstable();
    }

    /// The record stream as JSONL (one flat object per line, stable
    /// field order — the fingerprint hashes these bytes).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            out.push_str(&r.line);
            out.push('\n');
        }
        out
    }

    /// FNV-1a 64 fingerprint of the JSONL serialization: the
    /// same-seed-same-trace determinism check compares these.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.to_jsonl().as_bytes())
    }
}

#[cfg(test)]
mod tests;
