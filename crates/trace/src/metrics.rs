//! The metrics registry the tracer feeds.

use crate::histogram::Histogram;

/// The metrics registry: per-kind receive, drop and duplicate counters
/// and the hop-count histogram — what the time series does not already
/// count. Updated by the [`Tracer`] under [`TraceConfig::full`] and
/// [`TraceConfig::metrics_only`].
///
/// [`Tracer`]: crate::Tracer
/// [`TraceConfig::full`]: crate::TraceConfig::full
/// [`TraceConfig::metrics_only`]: crate::TraceConfig::metrics_only
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    kinds: &'static [&'static str],
    pub(crate) recv_by_kind: Vec<u64>,
    pub(crate) dropped_by_kind: Vec<u64>,
    pub(crate) duplicated_by_kind: Vec<u64>,
    /// Overlay hops per delivered route, width 1.
    pub hop_count: Histogram,
}

impl Metrics {
    pub(crate) fn for_kinds(kinds: &'static [&'static str]) -> Metrics {
        Metrics {
            kinds,
            recv_by_kind: vec![0; kinds.len()],
            dropped_by_kind: vec![0; kinds.len()],
            duplicated_by_kind: vec![0; kinds.len()],
            hop_count: Histogram::new(1, 32),
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
}
