//! The flight recorder: sim-time windowed counters, gauges and
//! histogram snapshots.
//!
//! A [`TimeSeries`] buckets every observation into fixed windows of
//! [`SeriesConfig::window_us`] simulated microseconds. Producers feed
//! it from instrumentation hooks (the [`Tracer`](crate::Tracer)
//! message/route/op hooks, engine samplers, harness samplers); every
//! record call takes the simulated time explicitly, so the series can
//! never observe a wall clock and is bit-reproducible across runs.
//!
//! Within a window, counters sum, histograms count every sample, and
//! a gauge keeps its newest sample. The engine's one trace sink holds
//! one series, so every producer writes into the same windows.
//! Diagnostic gauges ([`TimeSeries::diag_gauge`]: allocator capacities
//! and the like) are kept separately and are *excluded* from the
//! [`fingerprint`]: they move whenever an allocation policy does, while
//! everything fingerprinted is a property of the simulation alone.
//!
//! [`fingerprint`]: TimeSeries::fingerprint

use std::collections::BTreeMap;

use crate::{fnv1a, wfmt, Histogram};

/// Flight-recorder configuration: the sampling window, in simulated
/// microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeriesConfig {
    /// Window width in simulated microseconds (must be positive).
    pub window_us: u64,
}

impl SeriesConfig {
    /// A config with the given window width.
    ///
    /// # Panics
    ///
    /// Panics if `window_us` is zero.
    pub fn new(window_us: u64) -> SeriesConfig {
        assert!(window_us > 0, "series window must be positive");
        SeriesConfig { window_us }
    }
}

/// A gauge sample: the newest observation wins, carrying the time it
/// was taken so a late, older sample cannot overwrite it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct GaugeCell {
    /// Simulated time of the newest sample.
    t: u64,
    /// Sampled value.
    v: u64,
}

/// Histogram shape registry: shapes are fixed by name, so one metric's
/// percentiles mean the same in every window and every run.
/// `route_latency_us` gets 1 ms buckets up to 512 ms (the only route
/// latency histogram kept); everything else gets width-1 with 64
/// buckets.
fn hist_shape(name: &str) -> (u64, usize) {
    match name {
        "route_latency_us" => (1_000, 512),
        _ => (1, 64),
    }
}

/// One sampling window: counters, gauges, histograms and diagnostic
/// gauges, keyed by static names.
#[derive(Clone, Debug, Default)]
pub struct Window {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, GaugeCell>,
    hists: BTreeMap<&'static str, Histogram>,
    diag: BTreeMap<&'static str, GaugeCell>,
}

impl Window {
    /// Reads a counter (0 if never bumped in this window).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Reads a gauge's newest sampled value in this window.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).map(|c| c.v)
    }

    /// Reads a histogram recorded in this window.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// All counters in this window, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }
}

/// Records one gauge sample: the latest sample wins, and a re-sample of
/// the same instant *overwrites* (a producer taking two looks at the
/// same simulated time reports one value, not a sum).
fn record_gauge(map: &mut BTreeMap<&'static str, GaugeCell>, key: &'static str, cell: GaugeCell) {
    match map.entry(key) {
        std::collections::btree_map::Entry::Vacant(e) => {
            e.insert(cell);
        }
        std::collections::btree_map::Entry::Occupied(mut e) => {
            if cell.t >= e.get().t {
                *e.get_mut() = cell;
            }
        }
    }
}

/// The windowed time series. See the module docs for semantics.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    window_us: u64,
    windows: BTreeMap<u64, Window>,
}

impl TimeSeries {
    /// An empty series with the given window width.
    pub fn new(cfg: SeriesConfig) -> TimeSeries {
        assert!(cfg.window_us > 0, "series window must be positive");
        TimeSeries {
            window_us: cfg.window_us,
            windows: BTreeMap::new(),
        }
    }

    /// Window width in simulated microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// Drops all windows, keeping the configuration.
    pub fn clear(&mut self) {
        self.windows.clear();
    }

    /// Number of populated windows.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// True if no window has any data.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Windows in time order, as `(window_start_us, window)`.
    pub fn windows(&self) -> impl Iterator<Item = (u64, &Window)> + '_ {
        self.windows.iter().map(|(&t, w)| (t, w))
    }

    fn window_mut(&mut self, t: u64) -> &mut Window {
        let start = t - t % self.window_us;
        self.windows.entry(start).or_default()
    }

    /// Adds `by` to a named counter in the window containing `t`.
    pub fn bump(&mut self, t: u64, name: &'static str, by: u64) {
        *self.window_mut(t).counters.entry(name).or_insert(0) += by;
    }

    /// Bumps the `events` progress counter; returns `true` if this was
    /// the first event in its window (producers use this to take one
    /// gauge sample per window without tracking window edges
    /// themselves).
    pub fn note_event(&mut self, t: u64) -> bool {
        let c = self.window_mut(t).counters.entry("events").or_insert(0);
        *c += 1;
        *c == 1
    }

    /// Records a gauge sample at time `t`. Within one series the
    /// *latest* sample wins (ties overwrite: re-sampling the same
    /// instant replaces, never double-counts).
    pub fn gauge(&mut self, t: u64, name: &'static str, v: u64) {
        record_gauge(&mut self.window_mut(t).gauges, name, GaugeCell { t, v });
    }

    /// Records one histogram sample (shape fixed per name by the
    /// series shape registry).
    pub fn hist(&mut self, t: u64, name: &'static str, sample: u64) {
        let h = self.window_mut(t).hists.entry(name).or_insert_with(|| {
            let (w, n) = hist_shape(name);
            Histogram::new(w, n)
        });
        h.record(sample);
    }

    /// Records a diagnostic gauge sample (excluded from the canonical
    /// lines and the fingerprint). Latest sample wins, as with
    /// [`TimeSeries::gauge`].
    pub fn diag_gauge(&mut self, t: u64, name: &'static str, v: u64) {
        record_gauge(&mut self.window_mut(t).diag, name, GaugeCell { t, v });
    }

    /// Writes one window as a flat JSONL object of `u64` fields, the
    /// form [`analyze::parse_line`](crate::analyze::parse_line) reads.
    /// `diag` controls whether diagnostic gauges are included — the
    /// fingerprint hashes the line *without* them.
    fn write_window_line(&self, out: &mut String, start: u64, w: &Window, diag: bool) {
        wfmt(
            out,
            format_args!("{{\"t\":{start},\"op\":0,\"ev\":\"window\""),
        );
        for (&k, &v) in &w.counters {
            wfmt(out, format_args!(",\"{k}\":{v}"));
        }
        for (&k, cell) in &w.gauges {
            wfmt(out, format_args!(",\"{k}\":{}", cell.v));
        }
        for (&k, h) in &w.hists {
            wfmt(
                out,
                format_args!(
                    ",\"{k}_count\":{},\"{k}_p50\":{},\"{k}_p95\":{},\"{k}_p99\":{}",
                    h.count(),
                    h.percentile(50).unwrap_or(0),
                    h.percentile(95).unwrap_or(0),
                    h.percentile(99).unwrap_or(0),
                ),
            );
        }
        if diag {
            for (&k, cell) in &w.diag {
                wfmt(out, format_args!(",\"{k}\":{}", cell.v));
            }
        }
        out.push('}');
    }

    /// A 64-bit FNV-1a fingerprint of the simulation's series: window
    /// width plus every window line *without* the diagnostic gauges.
    /// Two runs whose
    /// fingerprints match produced identical windowed counters,
    /// gauges and histogram summaries.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical_lines().as_bytes())
    }

    /// The exact byte stream the [`fingerprint`](Self::fingerprint)
    /// hashes: the window width plus one line per window *without*
    /// diagnostic gauges. Replay tests compare this between runs —
    /// unlike the bare fingerprint, a mismatch shows *which* window
    /// diverged.
    pub fn canonical_lines(&self) -> String {
        let mut buf = String::new();
        wfmt(&mut buf, format_args!("window_us={}\n", self.window_us));
        for (&start, w) in &self.windows {
            self.write_window_line(&mut buf, start, w, false);
            buf.push('\n');
        }
        buf
    }

    /// Serializes the series as JSONL: one `ev:"series"` header line
    /// (window width, window count, fingerprint), then one flat
    /// `ev:"window"` line per window including diagnostic gauges.
    /// Parses back through
    /// [`analyze::parse_jsonl`](crate::analyze::parse_jsonl).
    pub fn to_jsonl(&self) -> String {
        self.jsonl(true)
    }

    /// [`to_jsonl`](Self::to_jsonl) without the diagnostic gauges:
    /// byte-identical for the same simulation whatever its allocation
    /// policies, so two runs' files can be compared with `cmp`.
    pub fn to_canonical_jsonl(&self) -> String {
        self.jsonl(false)
    }

    fn jsonl(&self, diag: bool) -> String {
        let mut out = String::new();
        wfmt(
            &mut out,
            format_args!(
                "{{\"t\":0,\"op\":0,\"ev\":\"series\",\"window_us\":{},\"windows\":{},\"fp\":{}}}\n",
                self.window_us,
                self.windows.len(),
                self.fingerprint(),
            ),
        );
        for (&start, w) in &self.windows {
            self.write_window_line(&mut out, start, w, diag);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analyze, json};

    fn cfg() -> SeriesConfig {
        SeriesConfig::new(1_000)
    }

    #[test]
    fn counters_land_in_their_windows() {
        let mut s = TimeSeries::new(cfg());
        s.bump(10, "sent", 1);
        s.bump(999, "sent", 2);
        s.bump(1_000, "sent", 5);
        let w: Vec<(u64, u64)> = s.windows().map(|(t, w)| (t, w.counter("sent"))).collect();
        assert_eq!(w, vec![(0, 3), (1_000, 5)]);
    }

    #[test]
    fn gauge_latest_sample_wins_and_resample_overwrites() {
        let mut s = TimeSeries::new(cfg());
        s.gauge(100, "depth", 7);
        s.gauge(500, "depth", 3);
        assert_eq!(s.windows().next().unwrap().1.gauge("depth"), Some(3));
        // Re-sampling the same instant replaces, never double-counts.
        s.gauge(500, "depth", 9);
        assert_eq!(s.windows().next().unwrap().1.gauge("depth"), Some(9));
        // An older sample arriving late is ignored.
        s.gauge(200, "depth", 1);
        assert_eq!(s.windows().next().unwrap().1.gauge("depth"), Some(9));
    }

    #[test]
    fn windowed_histograms_snapshot() {
        let mut s = TimeSeries::new(cfg());
        for (t, v) in [(10, 100), (10, 200), (10, 5_000), (20, 300_000)] {
            s.hist(t, "route_latency_us", v);
        }
        let (_, w) = s.windows().next().unwrap();
        let h = w.hist("route_latency_us").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(50).unwrap(), 0);
        assert_eq!(h.percentile(99).unwrap(), 300_000);
    }

    #[test]
    fn fingerprint_is_deterministic_and_ignores_diagnostics() {
        let mk = |diag: bool| {
            let mut s = TimeSeries::new(cfg());
            s.bump(10, "sent", 4);
            s.gauge(700, "depth", 11);
            s.hist(10, "route_latency_us", 2_500);
            if diag {
                s.diag_gauge(10, "mem_wheel", 3);
                s.diag_gauge(700, "mem_arena", 40);
            }
            s
        };
        assert_eq!(mk(false).fingerprint(), mk(false).fingerprint());
        assert_eq!(
            mk(false).fingerprint(),
            mk(true).fingerprint(),
            "diagnostic gauges must not affect the series fingerprint"
        );
        let mut other = mk(false);
        other.bump(10, "sent", 1);
        assert_ne!(mk(false).fingerprint(), other.fingerprint());
    }

    #[test]
    fn jsonl_round_trips_through_the_analyzer() {
        let mut s = TimeSeries::new(cfg());
        s.bump(10, "sent", 4);
        s.note_event(10);
        s.gauge(700, "queue_depth", 11);
        s.hist(10, "route_latency_us", 2_500);
        s.diag_gauge(10, "mem_wheel", 3);
        let recs = analyze::parse_jsonl(&s.to_jsonl()).expect("series JSONL must parse");
        assert_eq!(recs[0].ev, "series");
        assert_eq!(recs[0].u("window_us"), Some(1_000));
        assert_eq!(recs[0].u("windows"), Some(1));
        assert_eq!(recs[0].u("fp"), Some(s.fingerprint()));
        assert_eq!(recs[1].ev, "window");
        assert_eq!(recs[1].t, 0);
        assert_eq!(recs[1].u("sent"), Some(4));
        assert_eq!(recs[1].u("events"), Some(1));
        assert_eq!(recs[1].u("queue_depth"), Some(11));
        assert_eq!(recs[1].u("route_latency_us_count"), Some(1));
        assert_eq!(recs[1].u("route_latency_us_p99"), Some(2_000));
        assert_eq!(recs[1].u("mem_wheel"), Some(3));
        let canonical = analyze::parse_jsonl(&s.to_canonical_jsonl()).expect("must parse");
        assert_eq!(
            canonical[1].u("mem_wheel"),
            None,
            "diagnostics are not canonical"
        );
    }

    #[test]
    fn note_event_reports_first_event_per_window() {
        let mut s = TimeSeries::new(cfg());
        assert!(s.note_event(10));
        assert!(!s.note_event(999));
        assert!(s.note_event(1_000));
        assert_eq!(s.windows().next().unwrap().1.counter("events"), 2);
    }

    /// Every line of both JSONL forms is strict JSON, not only what the
    /// flat parser accepts.
    #[test]
    fn json_document_validates() {
        let mut s = TimeSeries::new(cfg());
        s.bump(10, "sent", 4);
        s.gauge(700, "depth", 11);
        s.hist(10, "lat", 3);
        s.diag_gauge(700, "mem_arena", 5);
        for doc in [s.to_jsonl(), s.to_canonical_jsonl()] {
            assert_eq!(doc.lines().count(), 2);
            for line in doc.lines() {
                json::validate(line).expect("series JSONL lines must validate");
            }
        }
    }
}
