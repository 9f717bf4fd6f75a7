//! A minimal wall-clock benchmark harness.
//!
//! Replaces the external `criterion` dependency with the ~hundred lines
//! the workspace actually needs: warm-up, automatic iteration-count
//! calibration, a handful of timed samples, and a median/min report.
//! This is the one library module allowed to read the wall clock
//! (`std::time::Instant`); everything else is simulated time, and
//! `clippy.toml`'s `disallowed_types` enforces that mechanically — the
//! `#![expect]` below is the sanctioned exception.

#![expect(
    clippy::disallowed_types,
    reason = "the wall-clock benchmark harness is the one sanctioned Instant user; everything else runs on simulated time"
)]
#![expect(
    clippy::print_stdout,
    reason = "the measurement harness prints its own table to stdout by design; it has no trace context"
)]

use std::hint::black_box;
use std::time::Instant;

/// One benchmark result.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Benchmark label (`group/name`).
    pub name: String,
    /// Median nanoseconds per iteration across samples.
    pub median_ns: f64,
    /// Fastest sample, nanoseconds per iteration.
    pub min_ns: f64,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Optional throughput denominator (bytes processed per iteration).
    pub bytes: Option<u64>,
}

impl Measurement {
    /// Renders one human-readable report line.
    pub fn report(&self) -> String {
        let thru = match self.bytes {
            Some(b) if self.median_ns > 0.0 => {
                let mibs = b as f64 / self.median_ns * 1e9 / (1 << 20) as f64;
                format!("  {mibs:10.1} MiB/s")
            }
            _ => String::new(),
        };
        format!(
            "{:<44} {:>12} /iter  (min {:>12}){}",
            self.name,
            fmt_ns(self.median_ns),
            fmt_ns(self.min_ns),
            thru
        )
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// The benchmark runner: times closures and prints a report per entry.
pub struct Bench {
    group: String,
    /// Timed samples taken per benchmark.
    pub samples: usize,
    /// Target wall-clock duration of one sample, nanoseconds.
    pub target_sample_ns: u64,
    results: Vec<Measurement>,
}

impl Default for Bench {
    fn default() -> Bench {
        Bench::new()
    }
}

impl Bench {
    /// Creates a runner with the default budget (12 samples of ~10 ms).
    pub fn new() -> Bench {
        Bench {
            group: String::new(),
            samples: 12,
            target_sample_ns: 10_000_000,
            results: Vec::new(),
        }
    }

    /// Sets the group label prefixed to subsequent benchmark names.
    pub fn group(&mut self, name: &str) -> &mut Bench {
        self.group = name.to_string();
        println!("-- {name}");
        self
    }

    fn label(&self, name: &str) -> String {
        if self.group.is_empty() {
            name.to_string()
        } else {
            format!("{}/{}", self.group, name)
        }
    }

    /// Times `f`, printing and recording the measurement.
    pub fn run<T, F: FnMut() -> T>(&mut self, name: &str, f: F) -> &mut Bench {
        self.run_inner(name, None, f)
    }

    /// Times `f` and reports throughput for `bytes` processed per call.
    pub fn run_bytes<T, F: FnMut() -> T>(&mut self, name: &str, bytes: u64, f: F) -> &mut Bench {
        self.run_inner(name, Some(bytes), f)
    }

    fn run_inner<T, F: FnMut() -> T>(
        &mut self,
        name: &str,
        bytes: Option<u64>,
        mut f: F,
    ) -> &mut Bench {
        // Calibration: double the iteration count until one batch takes
        // at least ~1/10th of the target sample, then scale up.
        let mut iters: u64 = 1;
        let per_iter_ns = loop {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let elapsed = start.elapsed().as_nanos() as u64;
            if elapsed >= self.target_sample_ns / 10 || iters >= 1 << 30 {
                break elapsed.max(1) / iters;
            }
            iters *= 2;
        };
        let iters_per_sample = (self.target_sample_ns / per_iter_ns.max(1)).clamp(1, 1 << 30);

        let mut per_iter: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters_per_sample {
                    black_box(f());
                }
                start.elapsed().as_nanos() as f64 / iters_per_sample as f64
            })
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let m = Measurement {
            name: self.label(name),
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            iters_per_sample,
            bytes,
        };
        println!("{}", m.report());
        self.results.push(m);
        self
    }

    /// All measurements recorded so far.
    pub fn results(&self) -> &[Measurement] {
        &self.results
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something_positive() {
        let mut b = Bench::new();
        b.samples = 3;
        b.target_sample_ns = 100_000;
        b.group("test").run("sum", || (0..100u64).sum::<u64>());
        let r = &b.results()[0];
        assert_eq!(r.name, "test/sum");
        assert!(r.median_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
    }

    #[test]
    fn throughput_formats() {
        let m = Measurement {
            name: "x".into(),
            median_ns: 1_000.0,
            min_ns: 900.0,
            iters_per_sample: 10,
            bytes: Some(1 << 20),
        };
        assert!(m.report().contains("MiB/s"));
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(12_500.0), "12.50 µs");
        assert_eq!(fmt_ns(12_500_000.0), "12.50 ms");
    }
}
