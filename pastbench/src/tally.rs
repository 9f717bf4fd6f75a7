//! What a timed section counts and times, and the closed loop that drives
//! it for a fixed number of chunks.

use crate::clock::{Samples, Stopwatch};
use crate::spans::{Name, Spans};

/// Event budget of one run to quiescence, as `PastNetwork::run` and
/// `PastrySim::drain_deliveries` use.
pub const QUIET_BUDGET: u64 = 50_000_000;

/// Room reserved per sample set, so recording never reallocates inside a
/// timed section. Untouched capacity is not resident memory.
const SAMPLE_CAP: usize = 4 << 20;

/// Counters and timings of one timed section. On `overlay_churn` a route
/// is counted as a lookup.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub inserts: u64,
    pub insert_ok: u64,
    /// Inserts refused because storage is full (expected on `fill_churn`
    /// only; everywhere else a refusal counts as `failed`).
    pub insert_rejected: u64,
    /// `InsertOk` that needed more than one attempt (file diversion).
    pub file_diversions: u64,
    /// Signed store receipts the inserting clients collected.
    pub receipts: u64,
    /// Signed reclaim receipts the reclaiming clients collected.
    pub reclaim_receipts: u64,
    pub lookups: u64,
    pub lookup_ok: u64,
    pub cache_hits: u64,
    pub reclaims: u64,
    pub reclaim_ok: u64,
    /// Operations that ended in a failure event, in none, or in several.
    pub failed: u64,
    /// Host time of `insert()`+`run()`, ns.
    pub insert_ns: Samples,
    /// Host time of `lookup()`+`run()` per lookup, ns (a batch in flight
    /// contributes its wall time divided by its size, once).
    pub lookup_ns: Samples,
    pub reclaim_ns: Samples,
    /// Simulated time from issue to `LookupOk` / delivery, µs.
    pub sim_lookup_us: Samples,
    /// Simulated time from issue to `InsertOk`, µs.
    pub sim_insert_us: Samples,
}

impl Tally {
    /// A tally for a timed section: room for [`SAMPLE_CAP`] samples of
    /// each kind. (Set-up and the output checks use `Tally::default()`.)
    pub fn new() -> Tally {
        let samples = || Samples::with_capacity(SAMPLE_CAP);
        Tally {
            insert_ns: samples(),
            lookup_ns: samples(),
            reclaim_ns: samples(),
            sim_lookup_us: samples(),
            sim_insert_us: samples(),
            ..Tally::default()
        }
    }

    /// Client operations issued.
    pub fn ops(&self) -> u64 {
        self.inserts + self.lookups + self.reclaims
    }
}

/// `num / den`, or 0 where there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Figures of the modelled system over a whole timed section. The section
/// runs a fixed number of chunks, so they are a function of the seed and of
/// that number, never of the host's speed: two runs of one seed agree to
/// the last digit.
#[derive(Clone, Debug, PartialEq)]
pub struct Model {
    pub msgs_per_op: f64,
    pub bytes_per_op: f64,
    pub sim_lookup_ms_p50: f64,
    pub sim_lookup_ms_p99: f64,
    pub sim_insert_ms_p50: f64,
    pub cache_hit_ratio: f64,
    pub reject_ratio: f64,
    pub fail_ratio: f64,
}

impl Model {
    fn take(t: &Tally, msgs: u64, bytes: u64) -> Model {
        let ratio = |num: u64, den: u64| per(num as f64, den as f64);
        Model {
            msgs_per_op: ratio(msgs, t.ops()),
            bytes_per_op: ratio(bytes, t.ops()),
            sim_lookup_ms_p50: t.sim_lookup_us.median() / 1e3,
            sim_lookup_ms_p99: t.sim_lookup_us.percentile(99.0) / 1e3,
            sim_insert_ms_p50: t.sim_insert_us.median() / 1e3,
            cache_hit_ratio: ratio(t.cache_hits, t.lookup_ok),
            reject_ratio: ratio(t.insert_rejected, t.inserts),
            fail_ratio: ratio(t.failed, t.ops()),
        }
    }
}

/// Client operations between two clock reads of a timed section.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub ops: u64,
    pub wall_s: f64,
}

/// The running state of a timed section: what workloads record into.
pub struct Section {
    pub tally: Tally,
    /// The stretches of client operations, in run order.
    pub slices: Vec<Slice>,
    /// Wall time of the churn rounds (failures and `stabilize()`), which
    /// complete no client operation.
    pub churn_s: f64,
}

impl Section {
    fn new() -> Section {
        Section {
            tally: Tally::new(),
            slices: Vec::with_capacity(1 << 12),
            churn_s: 0.0,
        }
    }

    /// Runs `f` on the tally with the clock running and records it as one
    /// slice of client operations.
    pub fn ops(&mut self, f: impl FnOnce(&mut Tally)) {
        let ops0 = self.tally.ops();
        let sw = Stopwatch::start();
        f(&mut self.tally);
        let wall_s = sw.secs();
        self.slices.push(Slice {
            ops: self.tally.ops() - ops0,
            wall_s,
        });
    }

    /// Runs `f`, a churn round, with the clock running.
    pub fn churn(&mut self, f: impl FnOnce()) {
        let sw = Stopwatch::start();
        f();
        self.churn_s += sw.secs();
    }
}

/// One workload instance, set up and ready to be driven.
pub trait Workload {
    /// Nodes built (the divisor of `rss_kb_per_node`).
    fn nodes(&self) -> usize;
    /// Generates the next chunk of operations from the seed's stream and
    /// the outcomes so far. Runs with the clock stopped.
    fn next_chunk(&mut self);
    /// Executes the generated chunk through [`Section::ops`] and
    /// [`Section::churn`].
    fn run_chunk(&mut self, section: &mut Section, spans: &mut Spans);
    /// `NetStats` totals `(messages, bytes)` since the network was built.
    fn net_totals(&self) -> (u64, u64);
}

/// The outcome of a timed section.
pub struct Timed {
    pub tally: Tally,
    pub slices: Vec<Slice>,
    /// Wall time with the clock running: every slice and every churn
    /// round, seconds.
    pub wall_s: f64,
    /// Messages and bytes sent during the section.
    pub msgs: u64,
    pub bytes: u64,
    /// Time spent generating operations, with the clock stopped, seconds.
    pub gen_s: f64,
    /// Peak resident memory of the process (`VmHWM`) at the end of the
    /// section, KiB.
    pub rss_kb: f64,
    pub model: Model,
}

/// Segments [`Timed::segment_cv`] splits a section into.
const SEGMENTS: usize = 8;

impl Timed {
    /// Coefficient of variation of throughput over eight segments of equal
    /// slice count: the run's own noise gauge. A section of fewer than
    /// eight slices cannot say how steady it was and reads 1.
    pub fn segment_cv(&self) -> f64 {
        let per_seg = self.slices.len() / SEGMENTS;
        if per_seg == 0 {
            return 1.0;
        }
        let rates: Vec<f64> = self
            .slices
            .chunks_exact(per_seg)
            .take(SEGMENTS)
            .map(|seg| {
                per(
                    seg.iter().map(|s| s.ops).sum::<u64>() as f64,
                    seg.iter().map(|s| s.wall_s).sum(),
                )
            })
            .collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64;
        per(var.sqrt(), mean)
    }
}

fn vm_hwm_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0.0)
}

/// Drives `w` in a closed loop for `chunks` chunks: generate a chunk with
/// the clock stopped, run it with the clock running.
pub fn drive<W: Workload>(w: &mut W, chunks: u64, spans: &mut Spans) -> Timed {
    let mut section = Section::new();
    let (msgs0, bytes0) = w.net_totals();
    let mut gen_s = 0.0;
    for chunk in 0..chunks {
        let sw = Stopwatch::start();
        w.next_chunk();
        gen_s += sw.secs();
        spans.enter(Name::Chunk, chunk);
        w.run_chunk(&mut section, spans);
        spans.exit();
    }
    let (m, b) = w.net_totals();
    let (msgs, bytes) = (m - msgs0, b - bytes0);
    Timed {
        wall_s: section.slices.iter().map(|s| s.wall_s).sum::<f64>() + section.churn_s,
        model: Model::take(&section.tally, msgs, bytes),
        tally: section.tally,
        slices: section.slices,
        msgs,
        bytes,
        gen_s,
        rss_kb: vm_hwm_kb(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timed(slices: Vec<Slice>) -> Timed {
        Timed {
            tally: Tally::default(),
            wall_s: slices.iter().map(|s| s.wall_s).sum(),
            slices,
            msgs: 0,
            bytes: 0,
            gen_s: 0.0,
            rss_kb: 0.0,
            model: Model::take(&Tally::default(), 0, 0),
        }
    }

    #[test]
    fn segment_cv_needs_eight_slices() {
        let even = |n| {
            (0..n)
                .map(|_| Slice {
                    ops: 10,
                    wall_s: 1.0,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(timed(even(7)).segment_cv(), 1.0);
        assert_eq!(timed(even(8)).segment_cv(), 0.0);
        // Half the segments at half the speed: rates 10 and 5, mean 7.5,
        // deviation 2.5.
        let mut slices = even(16);
        for s in &mut slices[8..] {
            s.wall_s = 2.0;
        }
        assert!((timed(slices).segment_cv() - 1.0 / 3.0).abs() < 1e-12);
    }
}
