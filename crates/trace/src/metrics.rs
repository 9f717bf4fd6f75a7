//! The metrics registry the tracer feeds.

use crate::histogram::Histogram;

/// The metrics registry: per-kind message counters and the standard
/// latency/hop/retry histograms. Updated by the [`Tracer`] when
/// [`TraceConfig::metrics`] is on.
///
/// [`Tracer`]: crate::Tracer
/// [`TraceConfig::metrics`]: crate::TraceConfig::metrics
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    kinds: &'static [&'static str],
    pub(crate) recv_by_kind: Vec<u64>,
    pub(crate) dropped_by_kind: Vec<u64>,
    pub(crate) duplicated_by_kind: Vec<u64>,
    pub(crate) failed_by_kind: Vec<u64>,
    /// Route path latency, 1 ms buckets up to 512 ms.
    pub route_latency_us: Histogram,
    /// Overlay hops per delivered route, width 1.
    pub hop_count: Histogram,
    /// Retransmission attempt numbers, width 1.
    pub retry_count: Histogram,
}

impl Metrics {
    pub(crate) fn for_kinds(kinds: &'static [&'static str]) -> Metrics {
        Metrics {
            kinds,
            recv_by_kind: vec![0; kinds.len()],
            dropped_by_kind: vec![0; kinds.len()],
            duplicated_by_kind: vec![0; kinds.len()],
            failed_by_kind: vec![0; kinds.len()],
            route_latency_us: Histogram::new(1_000, 512),
            hop_count: Histogram::new(1, 32),
            retry_count: Histogram::new(1, 16),
        }
    }

    pub(crate) fn bump(v: &mut [u64], kind: usize) {
        if let Some(c) = v.get_mut(kind) {
            *c += 1;
        }
    }

    /// `(kind, count)` pairs for one per-kind counter family, in
    /// `Message::KINDS` order.
    fn kind_pairs<'a>(&'a self, v: &'a [u64]) -> impl Iterator<Item = (&'static str, u64)> + 'a {
        self.kinds.iter().copied().zip(v.iter().copied())
    }

    /// Messages received per kind, in `Message::KINDS` order.
    pub fn recv_by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind_pairs(&self.recv_by_kind)
    }

    /// Fault-injected drops per kind, in `Message::KINDS` order.
    pub fn dropped_by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind_pairs(&self.dropped_by_kind)
    }

    /// Fault-injected duplicates per kind, in `Message::KINDS` order.
    pub fn duplicated_by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind_pairs(&self.duplicated_by_kind)
    }

    /// Dead-destination failures per kind, in `Message::KINDS` order.
    pub fn failed_by_kind(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.kind_pairs(&self.failed_by_kind)
    }
}
